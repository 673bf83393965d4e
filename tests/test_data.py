import math
import warnings

import numpy as np
import pytest

from aci_lab import data
from aci_lab.data import (Dataset, SplitPlan, StreamSpec, load_usps,
                          load_wine, make_stream, split_train_calibration,
                          standardize_features)


def _write_wine(path, n, quality=5.0, start=0.0):
    cols = ["fixed acidity", "volatile acidity", "citric acid",
            "residual sugar", "chlorides", "free sulfur dioxide",
            "total sulfur dioxide", "density", "pH", "sulphates",
            "alcohol", "quality"]
    lines = [";".join(f'"{c}"' for c in cols)]
    for i in range(n):
        feats = [start + i + 0.1 * j for j in range(11)]
        lines.append(";".join(str(v) for v in feats) + f";{quality}")
    path.write_text("\n".join(lines) + "\n")


def _write_usps(path, n, label=3):
    lines = []
    for i in range(n):
        vals = [f"{label}.0000"] + [f"{(i + j) % 7 * 0.1:.4f}" for j in range(256)]
        lines.append(" ".join(vals))
    path.write_text("\n".join(lines) + "\n")


def test_load_wine_orders_and_boundary(tmp_path):
    white, red = tmp_path / "white.csv", tmp_path / "red.csv"
    _write_wine(white, 6, quality=6.0, start=0.0)
    _write_wine(red, 4, quality=4.0, start=100.0)
    with pytest.warns(UserWarning, match="canonical"):
        ds = load_wine(str(white), str(red))
    assert ds.task == "regression" and len(ds) == 10
    assert list(ds.y[:6]) == [6.0] * 6 and list(ds.y[6:]) == [4.0] * 4
    with pytest.warns(UserWarning):
        ds2 = load_wine(str(white), str(red), order="red-then-white")
    assert list(ds2.y[:4]) == [4.0] * 4
    with pytest.warns(UserWarning):
        with pytest.raises(ValueError, match="order"):
            load_wine(str(white), str(red), order="shuffled")


def test_load_wine_error_paths(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a;b;c\n1;2;3\n")
    with pytest.raises(ValueError, match="12 columns"):
        load_wine(str(bad), str(bad))

    short_row = tmp_path / "short.csv"
    _write_wine(short_row, 2)
    with open(short_row, "a") as fh:
        fh.write("1;2;3\n")
    with pytest.raises(ValueError, match="short.csv:4"):
        load_wine(str(short_row), str(short_row))

    not_num = tmp_path / "num.csv"
    _write_wine(not_num, 1)
    with open(not_num, "a") as fh:
        fh.write(";".join(["x"] * 12) + "\n")
    with pytest.raises(ValueError, match="num.csv:3"):
        load_wine(str(not_num), str(not_num))

    empty = tmp_path / "empty.csv"
    _write_wine(empty, 1)
    empty.write_text(empty.read_text().splitlines()[0] + "\n")
    with pytest.raises(ValueError, match="no data rows"):
        load_wine(str(empty), str(empty))


def test_load_usps_coerces_float_labels(tmp_path):
    tr, te = tmp_path / "train", tmp_path / "test"
    _write_usps(tr, 5, label=3)
    _write_usps(te, 2, label=7)
    with pytest.warns(UserWarning, match="canonical"):
        train, test = load_usps(str(tr), str(te))
    assert train.y.dtype.kind == "i" and list(train.y) == [3] * 5
    assert train.label_space == [3, 7] == test.label_space
    assert train.X.shape == (5, 256)


def test_load_usps_error_paths(tmp_path):
    f = tmp_path / "u"
    f.write_text("1.0 " + " ".join(["0"] * 255) + "\n")  # 256 values, not 257
    with pytest.raises(ValueError, match=":1"):
        load_usps(str(f), str(f))
    f.write_text("1.5 " + " ".join(["0"] * 256) + "\n")
    with pytest.raises(ValueError, match="non-integer label"):
        load_usps(str(f), str(f))


def test_dataset_validation_and_subsample():
    with pytest.raises(ValueError):
        Dataset(name="x", task="regression", X=np.zeros((3, 2)), y=np.zeros(4))
    with pytest.raises(ValueError):
        Dataset(name="x", task="regression", X=np.full((2, 2), np.nan), y=np.zeros(2))
    ds = Dataset(name="x", task="classification",
                 X=np.arange(12, dtype=float).reshape(6, 2), y=np.array([0, 0, 1, 1, 2, 2]))
    assert ds.label_space == [0, 1, 2]
    sub = ds.subsample(4, seed=9)
    assert len(sub) == 4 and sub.label_space == [0, 1, 2]
    again = ds.subsample(4, seed=9)
    assert np.array_equal(sub.X, again.X) and np.array_equal(sub.y, again.y)
    other = ds.subsample(4, seed=10)
    assert not np.array_equal(sub.X, other.X)
    with pytest.raises(ValueError):
        ds.subsample(7, seed=0)


def test_split_is_deterministic_partition():
    plan = split_train_calibration(100, 0.25, seed=3)
    assert isinstance(plan, SplitPlan)
    assert plan.calibration_idx.shape[0] == 25
    assert plan.proper_train_idx.shape[0] == 75
    merged = np.concatenate([plan.proper_train_idx, plan.calibration_idx])
    assert sorted(merged.tolist()) == list(range(100))
    plan2 = split_train_calibration(100, 0.25, seed=3)
    assert np.array_equal(plan.calibration_idx, plan2.calibration_idx)
    plan3 = split_train_calibration(100, 0.25, seed=4)
    assert not np.array_equal(plan.calibration_idx, plan3.calibration_idx)


def test_split_counts_floor_of_the_exact_product():
    # 0.57 * 100 rounds to 56.99999999999999 in floats; the calibration part
    # still holds floor(0.57 * 100) = 57 examples
    for n, frac, want in ((100, 0.57, 57), (100, 0.29, 29), (10, 0.7, 7), (100, 0.575, 57)):
        plan = split_train_calibration(n, frac, seed=1)
        assert plan.calibration_idx.shape[0] == want, (n, frac)
        assert plan.proper_train_idx.shape[0] == n - want, (n, frac)


def test_split_rejects_empty_parts():
    with pytest.raises(ValueError):
        split_train_calibration(10, 0.05, seed=0)  # floor(0.5) = 0 cal
    with pytest.raises(ValueError):
        split_train_calibration(1, 0.5, seed=0)
    with pytest.raises(ValueError):
        split_train_calibration(10, 1.0, seed=0)


def test_standardize_features():
    X = np.array([[1.0, 5.0], [3.0, 5.0]])
    Z = standardize_features(X)
    assert Z[:, 0] == pytest.approx([-1.0, 1.0])
    assert Z[:, 1] == pytest.approx([0.0, 0.0])  # constant column passes through
    ref = np.array([[0.0, 0.0], [2.0, 2.0]])
    Z2 = standardize_features(X, ref=ref)
    assert Z2[0, 0] == pytest.approx(0.0)
    assert Z2[1, 0] == pytest.approx(2.0)


def test_stream_determinism_and_shapes():
    spec = StreamSpec(kind="changepoint-regression", n=50, p=4, seed=12)
    a, b = make_stream(spec), make_stream(spec)
    assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
    assert a.X.shape == (50, 4) and a.task == "regression"
    c = make_stream(StreamSpec(kind="changepoint-regression", n=50, p=4, seed=13))
    assert not np.array_equal(a.y, c.y)


def test_regression_changepoint_is_detectable():
    # with zero noise the fits before and after the cut disagree sharply
    spec = StreamSpec(kind="changepoint-regression", n=400, p=3, seed=5,
                      drift=5.0, noise_scale=1e-6)
    ds = make_stream(spec)
    w_pre = np.linalg.lstsq(ds.X[:200], ds.y[:200], rcond=None)[0]
    w_post = np.linalg.lstsq(ds.X[200:], ds.y[200:], rcond=None)[0]
    assert np.linalg.norm(w_post - w_pre) == pytest.approx(5.0, rel=1e-3)

    flat = make_stream(StreamSpec(kind="changepoint-regression", n=400, p=3,
                                  seed=5, drift=0.0, noise_scale=1e-6))
    w_pre = np.linalg.lstsq(flat.X[:200], flat.y[:200], rcond=None)[0]
    w_post = np.linalg.lstsq(flat.X[200:], flat.y[200:], rcond=None)[0]
    assert np.linalg.norm(w_post - w_pre) < 1e-4


def test_classification_stream_shifts_means():
    spec = StreamSpec(kind="cluster-classification", n=600, p=5, seed=8,
                      drift=2.0, n_classes=3, class_sep=4.0)
    ds = make_stream(spec)
    assert ds.task == "classification" and ds.label_space == [0, 1, 2]
    cut = 300
    pre = ds.X[:cut][ds.y[:cut] == 0].mean(axis=0)
    post = ds.X[cut:][ds.y[cut:] == 0].mean(axis=0)
    # means move by drift * class_sep / 4 = 2.0
    assert np.linalg.norm(post - pre) == pytest.approx(2.0, abs=0.4)


@pytest.mark.parametrize("kind", ["changepoint-regression", "cluster-classification"])
@pytest.mark.parametrize("name, value", [("drift", 1e308), ("drift", -1e308),
                                         ("drift", math.nan), ("noise_scale", -1.0),
                                         ("noise_scale", 1e308), ("class_sep", 1e308),
                                         ("class_sep", -math.inf)])
def test_stream_refuses_scales_past_the_limit_by_name(kind, name, value, monkeypatch):
    # refused before any data is drawn: no generator is made
    monkeypatch.setattr(data, "derive_rng", None)
    spec = StreamSpec(kind=kind, n=10, p=3, seed=0, **{name: value})
    with pytest.raises(ValueError, match=rf"^{name} "):
        make_stream(spec)


def test_stream_takes_scales_at_the_limit():
    for kind in ("changepoint-regression", "cluster-classification"):
        for scale in (-data.SCALE_LIMIT, data.SCALE_LIMIT):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                ds = make_stream(StreamSpec(kind=kind, n=50, p=3, seed=1, drift=scale,
                                            class_sep=scale, noise_scale=abs(scale)))
            assert np.isfinite(ds.X).all() and np.isfinite(ds.y).all()


def test_stream_validation():
    with pytest.raises(ValueError):
        make_stream(StreamSpec(kind="nope", n=10, p=2, seed=0))
    with pytest.raises(ValueError):
        make_stream(StreamSpec(kind="changepoint-regression", n=1, p=2, seed=0))
    with pytest.raises(ValueError):
        make_stream(StreamSpec(kind="cluster-classification", n=10, p=2, seed=0,
                               n_classes=3))
