import contextlib
import importlib
import io
import json
import math
import re
import warnings
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace, UnionType
from typing import get_args, get_origin

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aci_lab import cp_online, harness, nccp_online
from aci_lab.aci import confinement_interval
from aci_lab.cli import main
from aci_lab.data import split_train_calibration
from aci_lab.harness import (OFFLINE_PREDICTORS, ConfigError, ExperimentConfig,
                             _offline_rule, build_config, emit_sweep, emit_trace,
                             lemma_stress_matrix, parse_config_file, parse_trace,
                             resolve_offline_datasets, run_offline, run_online, run_sweep,
                             write_run_outputs)
from aci_lab.inductive import (KnnClassScorer, KnnQuantileScorer, calibration_residuals,
                               calibration_scores, icp_classify_predict,
                               icp_regress_predict, inccp_classify_predict,
                               inccp_regress_predict)

FAST_REG = dict(dataset="synth-reg", predictor="crr", n=260, warmup=40,
                delta=0.05, seed=3, p=4)
FAST_CLASS = dict(dataset="synth-class", predictor="knn-nccp", n=260,
                  warmup=40, delta=0.05, seed=3, p=4)


def test_parse_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# a comment line\n"
        "dataset = synth-class   # trailing comment\n"
        "\n"
        "predictor= knn-cp\n"
        "eps =0.2\n"
        "seeds = 1, 2,3\n"
        "standardize = yes\n")
    mapping = parse_config_file(str(cfg))
    assert mapping["dataset"] == "synth-class"
    assert mapping["predictor"] == "knn-cp"
    built = build_config(mapping)
    assert built.eps == 0.2 and built.seeds == (1, 2, 3)
    assert built.standardize is True

    bad = tmp_path / "bad.cfg"
    bad.write_text("just words\n")
    with pytest.raises(ConfigError, match="bad.cfg:1"):
        parse_config_file(str(bad))


def test_build_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown configuration key"):
        build_config({"warmupp": "10"})
    with pytest.raises(ConfigError, match="boolean"):
        build_config({"full": "maybe"})
    cfg = build_config({"n": "500", "drift": "2.5", "k": 7})
    assert cfg.n == 500 and cfg.drift == 2.5 and cfg.k == 7


def test_config_hash_tracks_content():
    a = ExperimentConfig()
    b = ExperimentConfig()
    assert a.config_hash() == b.config_hash()
    c = replace(a, seed=1)
    assert c.config_hash() != a.config_hash()
    assert len(a.config_hash()) == 12


def test_config_roundtrips_through_canonical_text(tmp_path):
    cfg = build_config(dict(FAST_CLASS, k="5"))
    path = tmp_path / "canon.cfg"
    path.write_text(cfg.canonical_text())
    again = build_config(parse_config_file(str(path)))
    assert again.config_hash() == cfg.config_hash()


def test_resolve_k_defaults():
    assert ExperimentConfig(predictor="knn-cp").resolve_k() == 1
    assert ExperimentConfig(predictor="knn-nccp").resolve_k() == 20
    assert ExperimentConfig(predictor="knn-cp", k=9).resolve_k() == 9


def test_run_online_regression_smoke():
    cfg = build_config(FAST_REG)
    result = run_online(cfg)
    assert len(result.records) == 260 - 40
    assert result.summary.task == "regression"
    assert result.summary.bound_satisfied
    lo, hi = confinement_interval(result.gamma)
    assert lo <= result.eps_min and result.eps_max <= hi


def test_run_online_classification_smoke():
    cfg = build_config(FAST_CLASS)
    result = run_online(cfg)
    assert result.summary.task == "classification"
    assert result.summary.oe is not None
    assert result.summary.bound_satisfied


@pytest.mark.parametrize("predictor", ["knn-nccp", "knn-cp", "crr", "ols-nccp"])
def test_run_online_sizes_the_history_once(monkeypatch, predictor):
    # The stream's length is known before the warm-up, so no observe of
    # the run copies the history into a larger store, and no predict moves
    # a per-row array the predictor fills itself: the k-NN classes' label
    # indices, row norms and float32 copies, and knn-cp's neighbour caches
    # and row scores.  The k-NN classes load the warm-up in one block.
    from aci_lab.core import ExampleBuffer, SetPredictor
    stores, rows = [], []
    append, extend, predict = ExampleBuffer.append, ExampleBuffer.extend, SetPredictor.predict

    def recorded(self, x, y):
        append(self, x, y)
        stores.append(self.X.__array_interface__["data"][0])

    def recorded_block(self, X, y):
        extend(self, X, y)
        stores.extend([self.X.__array_interface__["data"][0]] * len(X))

    def addresses(self, x, eps):
        out = predict(self, x, eps)
        rows.append({name: a.__array_interface__["data"][0]
                     for name, a in self._hist._rows.items()})
        return out

    monkeypatch.setattr(ExampleBuffer, "append", recorded)
    monkeypatch.setattr(ExampleBuffer, "extend", recorded_block)
    monkeypatch.setattr(SetPredictor, "predict", addresses)
    base = FAST_CLASS if predictor.startswith("knn") else FAST_REG
    run_online(build_config(dict(base, predictor=predictor, n=300)))
    assert len(stores) == 300 and len(set(stores)) == 1
    own = {"knn-cp": {"lab", "sq", "x32", "near", "score"},
           "knn-nccp": {"lab", "sq", "x32"}}.get(predictor, set())
    assert len(rows) == 300 - base["warmup"] and set(rows[0]) == {"X", "y"} | own
    assert all(r == rows[0] for r in rows)


@pytest.mark.parametrize("predictor", harness.ONLINE_PREDICTORS)
def test_bulk_warm_up_equals_row_by_row(predictor):
    # run_online loads the warm-up with one observe_many: the k-NN classes
    # write the block and fill its norms and float32 copies in bulk, the
    # others observe row by row.  Either way the store arrays (after the
    # first predict, which fills the row-by-row side's norms) and every
    # prediction equal those of a warm-up observed row by row
    base = FAST_REG if predictor in ("crr", "ols-nccp") else FAST_CLASS
    cfg = build_config(dict(base, predictor=predictor, k=3))
    ds, w = harness.resolve_online_dataset(cfg), cfg.warmup
    bulk, rows = (harness.make_online_predictor(cfg, ds) for _ in range(2))
    for pred in (bulk, rows):
        pred.reserve(len(ds))
    bulk.observe_many(ds.X[:w], ds.y[:w])
    for i in range(w):
        rows.observe(ds.X[i], ds.y[i])
    for i in range(w, w + 30):
        for eps in (0.05, 0.3):
            assert bulk.predict(ds.X[i], eps) == rows.predict(ds.X[i], eps), (i, eps)
        if i == w and hasattr(rows, "_hist"):
            names = rows._hist._rows
            assert set(bulk._hist._rows) == set(names)
            for name in names:
                assert np.array_equal(bulk._hist[name], rows._hist[name]), name
            for name in ("_gram", "_xty"):
                assert np.array_equal(getattr(bulk, name, 0), getattr(rows, name, 0)), name
        bulk.observe(ds.X[i], ds.y[i])
        rows.observe(ds.X[i], ds.y[i])


def _bad_block(case):
    """A 12-row block of 3 features and labels in {0, 1, 2}, with one bad
    row (7) or, for "width", 4 features."""
    rng = np.random.default_rng(5)
    X, y = rng.normal(size=(12, 3)), (np.arange(12) % 3).astype(float)
    if case == "feature":
        X[7, 1] = np.inf
    elif case == "label-nan":
        y[7] = np.nan
    elif case == "label-fraction":
        y[7] = 1.5
    elif case == "label-outside":
        y[7] = 5.0
    elif case == "width":
        X = rng.normal(size=(12, 4))
    return X, y


def _block_predictor(pid):
    """Predictor ``pid`` as the harness makes it, for labels {0, 1, 2} in 3 features."""
    task = harness._PREDICTOR_TASK[pid] or "classification"
    ds = harness.Dataset(name="block", task=task, X=np.zeros((3, 3)), y=[0, 1, 2],
                         label_space=[0, 1, 2] if task == "classification" else [])
    return harness.make_online_predictor(build_config({"predictor": pid, "k": 1}), ds)


@pytest.mark.parametrize("case", ["feature", "label-nan", "label-fraction",
                                  "label-outside", "width"])
@pytest.mark.parametrize("pid", harness.ONLINE_PREDICTORS)
def test_bulk_warm_up_refuses_a_bad_row_as_observe_does(pid, case):
    # every online predictor checks the block whole before it observes a
    # row: the first bad row raises the message observe raises for it, and
    # the predictor keeps only the row observed before the block (the
    # ridge predictors once kept the rows before the bad one)
    X, y = _bad_block(case)
    first = np.ones(3)
    per_row, bulk, before = (_block_predictor(pid) for _ in range(3))
    for pred in (per_row, bulk, before):
        pred.observe(first, 0)
    try:
        for xi, yi in zip(X, y):
            per_row.observe(xi, yi)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            bulk.observe_many(X, y)
        assert str(got.value) == str(exc)
    else:
        # a label only the k-NN classes refuse
        assert case in ("label-fraction", "label-outside") and not pid.startswith("knn")
        return
    assert bulk._dim == 3
    for name in ("_normed", "_gram", "_xty"):
        assert np.array_equal(getattr(bulk, name, 0), getattr(before, name, 0)), name
    if hasattr(before, "_hist"):
        assert np.array_equal(bulk._hist.X, before._hist.X)
        assert np.array_equal(bulk._hist.y, before._hist.y)


def test_a_refused_value_writes_no_file(tmp_path):
    # every file's text is built before the file is opened: a summary
    # holding inf once left a summary cut off at '"bound": ' after the
    # trace was written; now nothing is written, whichever file holds the
    # value (summary, manifest and summary, trace), and each emit_*
    # refusal leaves no file either
    result = run_online(build_config(FAST_REG))
    records = result.records[:3] + [replace(result.records[3], eps_used=math.nan)]
    for bad, match in ((replace(result, summary=replace(result.summary, bound=math.inf)),
                        "JSON compliant"),
                       (replace(result, gamma=math.nan), "JSON compliant|NaN"),
                       (replace(result, records=records), "NaN")):
        with pytest.raises(ValueError, match=match):
            write_run_outputs(str(tmp_path / "run"), bad)
        assert list((tmp_path / "run").iterdir()) == []
    with pytest.raises(ValueError, match="NaN"):
        emit_trace(str(tmp_path / "t.csv"), records)
    sweep = harness.SweepResult(cells={}, rows=[(0.1, "icp-reg", "oe", math.nan, 0.1, 2)])
    with pytest.raises(ValueError, match="NaN"):
        emit_sweep(str(tmp_path / "sweep.csv"), sweep)
    assert [p.name for p in tmp_path.iterdir()] == ["run"]


def test_run_online_validation():
    with pytest.raises(ConfigError, match="online predictor"):
        run_online(build_config(dict(FAST_REG, predictor="icp-reg")))
    with pytest.raises(ConfigError, match="warmup"):
        run_online(build_config(dict(FAST_REG, warmup=260)))
    with pytest.raises(ConfigError, match="expects"):
        run_online(build_config(dict(FAST_REG, predictor="knn-cp")))
    with pytest.raises(ConfigError, match="gamma"):
        run_online(build_config(dict(FAST_REG, gamma=-0.5)))
    with pytest.raises(ConfigError, match="unknown dataset"):
        run_online(build_config(dict(FAST_REG, dataset="mnist")))
    with pytest.raises(ConfigError, match="white_path"):
        run_online(build_config(dict(FAST_REG, dataset="wine")))


def test_gamma_override_beats_delta():
    cfg = build_config(dict(FAST_REG, gamma=0.05))
    assert run_online(cfg).gamma == 0.05


def test_trace_roundtrip_is_byte_stable(tmp_path):
    result = run_online(build_config(FAST_REG))
    p1 = tmp_path / "a.csv"
    emit_trace(str(p1), result.records)
    parsed = parse_trace(str(p1))
    assert len(parsed) == len(result.records)
    p2 = tmp_path / "b.csv"
    emit_trace(str(p2), parsed)
    assert p1.read_bytes() == p2.read_bytes()
    # spot-check the parse agrees with the source at serialised precision
    assert parsed[0].step == result.records[0].step
    assert parsed[5].eps_used == pytest.approx(result.records[5].eps_used, rel=1e-8)


def test_parse_trace_rejects_foreign_files(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="unexpected trace header"):
        parse_trace(str(p))


def test_same_config_gives_byte_identical_outputs(tmp_path):
    cfg = build_config(dict(FAST_CLASS, predictor="knn-cp", k="1"))
    paths1 = write_run_outputs(str(tmp_path / "r1"), run_online(cfg))
    paths2 = write_run_outputs(str(tmp_path / "r2"), run_online(cfg))
    for key in ("trace", "summary", "manifest"):
        b1 = open(paths1[key], "rb").read()
        b2 = open(paths2[key], "rb").read()
        assert b1 == b2, f"{key} outputs differ between identical runs"


def test_summary_and_manifest_contents(tmp_path):
    cfg = build_config(FAST_REG)
    result = run_online(cfg)
    paths = write_run_outputs(str(tmp_path), result, stem="run")
    payload = json.loads(open(paths["summary"]).read())
    assert payload["config_hash"] == cfg.config_hash()
    assert payload["predictor"] == "crr"
    assert payload["summary"]["n_steps"] == 220
    assert "mean_err" in payload["summary"]
    manifest = open(paths["manifest"]).read()
    assert f"config_hash = {cfg.config_hash()}" in manifest
    assert "bound_satisfied = true" in manifest
    # the sidecar config file reproduces the configuration exactly
    sidecar = paths["manifest"].replace(".txt", ".config")
    rebuilt = build_config(parse_config_file(sidecar))
    assert rebuilt.config_hash() == cfg.config_hash()


def test_run_offline_smoke_and_validation():
    cfg = build_config(dict(dataset="synth-class", predictor="icp-class",
                            n=400, delta=0.05, seed=2, p=4, test_fraction=0.5))
    result = run_offline(cfg)
    assert result.summary.bound_satisfied
    assert len(result.records) == 200
    with pytest.raises(ConfigError, match="offline predictor"):
        run_offline(replace(cfg, predictor="crr"))
    with pytest.raises(ConfigError, match="expects"):
        run_offline(replace(cfg, predictor="icp-reg"))


@pytest.mark.parametrize("pid", OFFLINE_PREDICTORS)
def test_offline_rule_tables_match_one_shot_routes(pid):
    # the fit-time tables must give, for every test row, the set of the
    # one-shot public route on the same fitted scorer: at the boundary
    # levels and on both sides of every order-statistic edge
    task = "class" if pid.endswith("class") else "reg"
    cfg = build_config(dict(dataset=f"synth-{task}", predictor=pid, n=200, p=3, seed=5,
                            cal_fraction=0.2, test_fraction=0.25))
    train, test = resolve_offline_datasets(cfg)
    rule = _offline_rule(cfg, train, test)
    k = cfg.resolve_k()
    fit_X, fit_y, edges = train.X, train.y, [j / k for j in range(k + 1)]
    if pid.startswith("icp"):
        plan = split_train_calibration(len(train), cfg.cal_fraction, cfg.seed)
        fit_X, fit_y = train.X[plan.proper_train_idx], train.y[plan.proper_train_idx]
        cal = (train.X[plan.calibration_idx], train.y[plan.calibration_idx])
        n_cal = len(plan.calibration_idx)
        edges += [j / (n_cal + 1) for j in range(n_cal + 2)]
    if task == "class":
        scorer = KnnClassScorer(k).fit(fit_X, fit_y, train.label_space)
    else:
        scorer = KnnQuantileScorer(k).fit(fit_X, fit_y)
    if pid == "icp-class":
        cal_scores = calibration_scores(scorer, *cal)
        one_shot = lambda x, eps: icp_classify_predict(scorer, cal_scores, x, eps)
    elif pid == "icp-reg":
        cal_res = calibration_residuals(scorer, *cal)
        one_shot = lambda x, eps: icp_regress_predict(scorer.point(x), cal_res, eps)
    elif pid == "inccp-class":
        one_shot = lambda x, eps: inccp_classify_predict(scorer, x, eps)
    else:
        one_shot = lambda x, eps: inccp_regress_predict(scorer, x, eps)
    grid = [0.0, 1.0, -0.1, 1.1] + [v for e in edges for v in
                                    (np.nextafter(e, -1.0), e, np.nextafter(e, 2.0))]
    for i, x in enumerate(test.X):
        for eps in grid:
            assert rule(i, float(eps)) == one_shot(x, float(eps)), (i, eps)


def test_offline_rule_refuses_non_finite_neighbour_labels_at_fit_time():
    # inccp-reg checks its neighbour-label table once, with the one-shot
    # route's error, before any step runs (a Dataset refuses such labels
    # itself, so a bare pool stands in for one)
    cfg = build_config(dict(dataset="synth-reg", predictor="inccp-reg", n=200, p=3, k=3))
    train, test = resolve_offline_datasets(cfg)
    y = np.full(len(train), math.inf)
    with pytest.raises(ValueError, match="non-finite") as at_fit:
        _offline_rule(cfg, SimpleNamespace(X=train.X, y=y, label_space=[]), test)
    with pytest.raises(ValueError) as one_shot:
        KnnQuantileScorer(3).fit(train.X, y)
    assert str(at_fit.value) == str(one_shot.value)


def test_run_sweep_cell_layout():
    cfg = build_config(dict(dataset="synth-class", predictor="icp-class",
                            n=300, delta=0.05, p=4, test_fraction=0.5,
                            seeds="0,1", cal_fractions="0.2,0.5"))
    sweep = run_sweep(cfg)
    assert len(sweep.cells) == 2 * 2 + 2  # grid cells plus the twin per seed
    assert ("icp-class", 0.2, 0) in sweep.cells
    assert ("inccp-class", None, 1) in sweep.cells
    fracs = {row[0] for row in sweep.rows}
    assert fracs == {0.2, 0.5, None}
    for row in sweep.rows:
        assert row[5] == 2  # T = number of seeds
    with pytest.raises(ConfigError, match="sweep needs predictor"):
        run_sweep(replace(cfg, predictor="inccp-class"))
    with pytest.raises(ConfigError, match="two seeds"):
        run_sweep(replace(cfg, seeds=(1,)))
    for seeds in [(1, 1), (0, 1, 0)]:   # a repeated trial would shrink the interval
        with pytest.raises(ConfigError, match="seeds"):
            run_sweep(replace(cfg, seeds=seeds))


def test_emit_sweep_format(tmp_path):
    cfg = build_config(dict(dataset="synth-class", predictor="icp-class",
                            n=300, delta=0.05, p=4, test_fraction=0.5,
                            seeds="0,1", cal_fractions="0.25"))
    sweep = run_sweep(cfg)
    path = tmp_path / "sweep.csv"
    emit_sweep(str(path), sweep)
    lines = path.read_text().splitlines()
    assert lines[0] == "cal_fraction,method,metric,mean,ci_half_width,n_trials"
    assert any(line.startswith("0.25,icp-class,mean_err,") for line in lines)
    assert any(line.startswith(",inccp-class,") for line in lines)


def test_lemma_stress_matrix_shape():
    rows = lemma_stress_matrix(predictors=("coin-flip", "random-set"),
                               n=220, warmup=20, delta=0.05)
    # coin-flip runs both tasks (2 streams each), random-set one task
    assert len(rows) == 4 + 2
    for pid, stream, result in rows:
        assert result.summary.bound_satisfied, (pid, stream)
        lo, hi = confinement_interval(result.gamma)
        assert lo <= result.eps_min and result.eps_max <= hi


def test_cli_online_and_report(tmp_path, capsys):
    out = tmp_path / "runs"
    rc = main(["online", "--dataset", "synth-reg", "--predictor", "crr",
               "--n", "260", "--warmup", "40", "--delta", "0.05",
               "--p", "4", "--seed", "3", "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "mean_err=" in printed and "bound_satisfied=True" in printed
    trace = out / "crr-3.trace.csv"
    assert trace.exists()

    rc = main(["report", str(trace), "--eps", "0.1", "--gamma", "0.05"])
    assert rc == 0
    assert "satisfied=True" in capsys.readouterr().out


# A feasible short run: each _SHORT_ROWS base plus _SHORT exits 0 (see
# test_cli_short_rows_run_without_their_bad_flags), so a row fails only
# through its own bad flags, which come last and so override _SHORT.
_SHORT = ("--n", "200", "--warmup", "20", "--delta", "0.02")
_KNN_ONLINE = ["online", "--dataset", "synth-class", "--predictor", "knn-nccp"]
_CRR_ONLINE = ["online", "--dataset", "synth-reg", "--predictor", "crr"]
_KNN_CP_ONLINE = ["online", "--dataset", "synth-class", "--predictor", "knn-cp"]
# Integers too large to allocate: a raw MemoryError traceback, numpy's
# "invalid shape in fixed-type tuple" and "Maximum allowed dimension
# exceeded", none naming the field, once ended these.  Each must name its
# field (the third entry).
_HUGE_INTS = {
    "p-huge": (_CRR_ONLINE, "--p=1099511627776", "p"),
    "p-past-int64": (_CRR_ONLINE, "--p=9223372036854775808", "p"),
    "n-past-int64": (_CRR_ONLINE, "--n=9223372036854775808", "n"),
    "n-classes-past-int64": (_KNN_ONLINE, "--n-classes=9223372036854775808", "n_classes"),
    **{f"{pid}-k-{name}": (base, f"--k={value}", "k")
       for pid, base in (("knn-cp", _KNN_CP_ONLINE), ("knn-nccp", _KNN_ONLINE))
       for name, value in [("huge", "1099511627776"), ("past-int64", "9223372036854775808"),
                           ("above-n", "201")]},
}
_SHORT_ROWS = {
    "k0": (_KNN_ONLINE, ["--k", "0"]),
    "one-class": (_KNN_ONLINE, ["--n-classes", "1"]),
    "p0": (_CRR_ONLINE, ["--p", "0"]),
    "warmup0": (_CRR_ONLINE, ["--warmup", "0"]),
    "eps-above-1": (_CRR_ONLINE, ["--eps", "1.5"]),
    "delta0": (_CRR_ONLINE, ["--delta", "0"]),
    # NaN, and deltas whose product with the step count is not finite,
    # once reached the controller as gamma nan or 0.0
    **{f"delta-{name}": (_CRR_ONLINE, ["--delta", value])
       for name, value in [("nan", "nan"), ("inf", "inf"), ("overflow", "1e308")]},
    "negative-gamma": (_CRR_ONLINE, ["--gamma", "-0.1"]),
    "negative-ridge-a": (_CRR_ONLINE, ["--ridge-a", "-1"]),
    "ridge-a-nan": (_CRR_ONLINE, ["--ridge-a", "nan"]),
    "ridge-a-inf": (_CRR_ONLINE, ["--ridge-a", "inf"]),
    "gamma-nan": (_CRR_ONLINE, ["--gamma", "nan"]),
    "gamma-inf": (_CRR_ONLINE, ["--gamma", "inf"]),
    # gamma * n_steps overflowed, so the run printed bound=0
    "gamma-overflow": (_CRR_ONLINE, ["--gamma", "1e308"]),
    # 1 / (gamma * n_steps) overflowed: bound=inf, then a truncated summary
    "gamma-subnormal": (_CRR_ONLINE, ["--gamma", "1e-320"]),
    "infinite-drift": (_CRR_ONLINE, ["--drift", "inf"]),
    # numpy's "scale < 0", a matmul overflow warning and the distance
    # kernel's message, none naming the field, once ended these
    "noise-scale-negative": (_CRR_ONLINE, ["--noise-scale", "-1"]),
    "noise-scale-overflow": (_CRR_ONLINE, ["--noise-scale", "1e308"]),
    "drift-overflow": (_CRR_ONLINE, ["--drift", "1e308"]),
    "class-sep-overflow": (_KNN_ONLINE, ["--class-sep", "1e308"]),
    "standardize-warmup1": ([*_CRR_ONLINE, "--standardize"], ["--warmup", "1"]),
    **{case: (base, [bad]) for case, (base, bad, _) in _HUGE_INTS.items()},
}
_BAD_INVOCATIONS = {
    "reg-predictor-online": ["online", "--dataset", "synth-reg", "--predictor", "icp-reg",
                             "--n", "260", "--warmup", "40"],
    "crr-offline": ["offline", "--dataset", "synth-class", "--predictor", "crr"],
    **{case: [*base, *_SHORT, *bad] for case, (base, bad) in _SHORT_ROWS.items()},
    "eps-nan-offline": ["offline", "--dataset", "synth-reg", "--predictor", "icp-reg",
                        "--eps", "nan", "--n", "300"],
    "cal-fraction0": ["offline", "--dataset", "synth-reg", "--predictor", "icp-reg",
                      "--cal-fraction", "0", "--n", "300"],
    "cal-fraction1": ["offline", "--dataset", "synth-reg", "--predictor", "icp-reg",
                      "--cal-fraction", "1", "--n", "300"],
    "k-above-training-size": ["offline", "--dataset", "synth-reg", "--predictor",
                              "inccp-reg", "--k", "500", "--n", "300"],
    "missing-data-file": ["online", "--dataset", "wine", "--predictor", "crr",
                          "--white-path", "{tmp}/missing.csv", "--red-path",
                          "{tmp}/missing.csv"],
    "malformed-data-file": ["online", "--dataset", "usps", "--predictor", "knn-nccp",
                            "--train-path", "{tmp}/bad.dat", "--test-path",
                            "{tmp}/bad.dat"],
    "bad-seeds": ["sweep", "--dataset", "synth-reg", "--predictor", "icp-reg",
                  "--seeds", "0,x"],
    "repeated-seeds": ["sweep", "--dataset", "synth-reg", "--predictor", "icp-reg",
                       "--seeds", "1,1", "--n", "300"],
    **{f"delta-{name}-offline": ["offline", "--dataset", "synth-reg", "--predictor",
                                 "icp-reg", "--n", "300", "--delta", value]
       for name, value in [("nan", "nan"), ("inf", "inf"), ("overflow", "1e308")]},
    **{f"test-fraction-{name}": ["offline", "--dataset", "synth-reg", "--predictor",
                                 "icp-reg", "--test-fraction", value, "--n", "300"]
       for name, value in [("nan", "nan"), ("inf", "inf"), ("negative", "-1"),
                           ("zero", "0"), ("above-one", "1.5")]},
    # "refusing to serialise NaN" once, from the bound of an infinite gamma
    "report-gamma-inf": ["report", "{tmp}/run.trace.csv", "--eps", "0.1", "--gamma", "inf"],
    # printed bound=inf satisfied=True
    "report-gamma-subnormal": ["report", "{tmp}/run.trace.csv", "--eps", "0.1", "--gamma",
                               "1e-320"],
    # Winkler clamps from a config file, one each of _CLAMP_FILES: 0 and
    # NaN surfaced as an eps error from the scorer, 2 scored every step
    # at 0.999; the run is feasible with the default clamps
    **{f"winkler-clamp-{name}": [*_CRR_ONLINE, "--n", "300", "--warmup", "20", "--gamma",
                                 "0.3", "--config", f"{{tmp}}/{name}.cfg"]
       for name in ("lo-zero", "lo-nan", "lo-above-hi", "hi-one")},
    # both run to exit 0 without their --order
    "unknown-order": ["online", "--dataset", "synth-reg", "--predictor", "crr",
                      "--order", "bogus", "--n", "400", "--warmup", "20"],
    "order-on-synthetic": ["offline", "--dataset", "synth-reg", "--predictor", "icp-reg",
                           "--order", "red-then-white", "--n", "300", "--delta", "0.05"],
}


_CLAMP_FILES = {"lo-zero": "winkler_clamp_lo = 0\n", "lo-nan": "winkler_clamp_lo = nan\n",
                "lo-above-hi": "winkler_clamp_lo = 2\n", "hi-one": "winkler_clamp_hi = 1\n"}


@pytest.mark.parametrize("case", list(_BAD_INVOCATIONS))
def test_cli_rejects_bad_invocations(case, tmp_path, capsys):
    (tmp_path / "bad.dat").write_text("1 2 3\n")
    (tmp_path / "run.trace.csv").write_text(
        "step,eps_used,err,set_size_or_width,winkler,excess,is_infinite\n0,0.1,0,1,,0,0\n")
    for name, text in _CLAMP_FILES.items():
        (tmp_path / f"{name}.cfg").write_text(text)
    argv = [a.replace("{tmp}", str(tmp_path)) for a in _BAD_INVOCATIONS[case]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(argv)
    err = capsys.readouterr().err.splitlines()
    assert rc == 2
    assert len(err) == 1 and err[0].startswith("error:"), err
    if case.startswith("eps-"):
        assert "eps " in err[0] and "eps1" not in err[0]
    if case.startswith("test-fraction-"):
        assert "test_fraction" in err[0]
    if case == "repeated-seeds":
        assert "seeds" in err[0]
    if "ridge-a" in case:
        assert "ridge_a" in err[0]
    if "gamma" in case:
        assert "gamma" in err[0]
    if "clamp" in case:
        assert "winkler_clamp" in err[0], err
    if case.startswith("delta"):
        assert "delta" in err[0] and "gamma" not in err[0], err
    for prefix in ("noise-scale", "drift", "class-sep"):
        if case.startswith(prefix):
            assert err[0].startswith(f"error: {prefix.replace('-', '_')} "), err
    if case in _HUGE_INTS:
        assert re.search(rf"(^error: | ){_HUGE_INTS[case][2]} ", err[0]), err


def _unparseable(f):
    """Values field ``f``'s annotated type cannot parse (none for a string)."""
    kind = f.type if get_origin(f.type) is not UnionType else get_args(f.type)[0]
    if tuple in (kind, get_origin(kind)):
        return ["1,x"]
    return {bool: ["maybe"], int: ["abc", "nan", "2.5"], float: ["abc"]}.get(kind, [])


_MALFORMED = [(f.name, value, form) for f in fields(ExperimentConfig)
              for value in _unparseable(f) for form in ("flag", "file")]
_MALFORMED += [(name, "abc", "report") for name in ("eps", "eps1", "gamma")]


@pytest.mark.parametrize("name, value, form", _MALFORMED)
@settings(derandomize=True, database=None, deadline=None, max_examples=4)
@given(command=st.sampled_from(["online", "offline", "sweep", "lemma-stress"]),
       upper=st.booleans(), comment=st.booleans())
def test_cli_names_the_field_of_a_malformed_value(name, value, form, command, upper,
                                                   comment, tmp_path_factory):
    # a value the field's type cannot parse, given as --flag=value or as a
    # config-file line, ends in one error line that names the field, before
    # any data is drawn; once argparse printed its usage block, and a file
    # value ended in "invalid literal for int() with base 10: 'x'"
    tmp = tmp_path_factory.mktemp("malformed")
    value = value.upper() if upper else value
    flag = "--" + name.replace("_", "-")
    if form == "report":
        trace = tmp / "run.trace.csv"
        trace.write_text("step,eps_used,err,set_size_or_width,winkler,excess,is_infinite\n"
                         "0,0.1,0,1,,0,0\n")
        argv = ["report", str(trace), "--eps=0.1", "--gamma=0.05", f"{flag}={value}"]
    elif form == "flag":
        argv = [command, f"{flag}={value}"]
    else:
        path = tmp / "bad.cfg"
        path.write_text(f"{name} = {value}{'  # note' if comment else ''}\n")
        argv = [command, "--config", str(path)]
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        rc = main(argv)
    lines = err.getvalue().splitlines()
    assert rc == 2
    assert len(lines) == 1, lines
    assert re.match(rf"error: ({name}: |argument {flag}: )", lines[0]), lines


@pytest.mark.parametrize("case", list(_SHORT_ROWS))
def test_cli_short_rows_run_without_their_bad_flags(case, capsys):
    base, _ = _SHORT_ROWS[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([*base, *_SHORT])
    assert rc == 0, capsys.readouterr().err
    assert "bound_satisfied=True" in capsys.readouterr().out


def test_cli_crr_with_short_warmup_starts_with_full_lines(tmp_path, capsys):
    # warmup 3 < p = 8 with a = 0: the first CRR systems are singular, and
    # the online predictor gives the whole line instead of failing.
    rc = main(["online", "--dataset", "synth-reg", "--predictor", "crr",
               "--warmup", "3", "--n", "300", "--out", str(tmp_path)])
    assert rc == 0
    assert "bound_satisfied=True" in capsys.readouterr().out
    records = parse_trace(str(tmp_path / "crr-0.trace.csv"))
    # history + candidate < p rows: steps 0..3 (history 3..6)
    assert all(r.is_infinite and r.err == 0 and r.set_size_or_width == math.inf
               for r in records[:4])


def test_cli_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("dataset = synth-reg\npredictor = crr\nn = 260\n"
                   "warmup = 40\ndelta = 0.05\np = 4\nseed = 3\n")
    rc = main(["online", "--config", str(cfg), "--seed", "4"])
    assert rc == 0
    assert "crr" in capsys.readouterr().out


def test_benchmark_probes_bind_to_package_names(monkeypatch):
    """perfbench patches package names by (module, name); entering its
    probes reads every one, so a rename fails here, not only under
    ``perfbench/run.py --trace 1``."""
    bench = Path(__file__).resolve().parent.parent / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    probes = importlib.import_module("probes")
    names = lambda: (harness._aci_loop, harness.aci_update, cp_online.RidgeSystem,
                     nccp_online.student_t_quantile)
    before = names()
    with probes.Tracer().probes():
        assert harness._aci_loop is not before[0]
    with probes.StepClock(None).probes():
        assert harness.aci_update is not before[1]
    assert names() == before
