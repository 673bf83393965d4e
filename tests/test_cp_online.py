import functools
import math
import warnings

import numpy as np
import pytest

import aci_lab
from aci_lab import cp_online, harness, nccp_online
from aci_lab.core import derive_rng
from aci_lab.cp_online import (CachedKnnConformalClassifier, CrrPredictor,
                               KnnConformalClassifier, _fill_distances, _neighbor_rows,
                               crr_predict, knn_cp_predict, knn_nonconformity, p_value)
from aci_lab.data import StreamSpec, make_stream
from aci_lab.nccp_online import KnnThresholdClassifier
from aci_lab.numerics import NumericError
from oracles import crr_grid_oracle

# the worked 4-point instance: two tight clusters on a line
BAG_X = np.array([[0.0], [1.0], [10.0], [11.0]])
BAG_Y = np.array([0, 0, 1, 1])


def test_p_value_counts_ties_and_self():
    assert p_value([1.0, 2.0, 3.0], 2.0) == pytest.approx(2 / 3)
    assert p_value([5.0], 5.0) == 1.0
    # candidate strangest of all: floor at 1/n
    assert p_value([0.1, 0.2, 0.9], 0.9) == pytest.approx(1 / 3)


def test_p_value_validates():
    with pytest.raises(ValueError):
        p_value([], 1.0)
    with pytest.raises(ValueError):
        p_value([math.nan], 1.0)


def test_knn_nonconformity_worked_instance():
    # same-class nearest at 0.5, other-class nearest at 9.5
    alpha = knn_nonconformity(BAG_X, BAG_Y, np.array([0.5]), 0, k=1)
    assert alpha == pytest.approx(0.5 / 9.5)


def test_knn_nonconformity_missing_side_conventions():
    one_class_X = np.array([[0.0], [1.0]])
    one_class_y = np.array([0, 0])
    # no different-label members: maximally conforming
    assert knn_nonconformity(one_class_X, one_class_y, np.array([0.5]), 0, 1) == 0.0
    # no same-label members: maximally strange
    assert knn_nonconformity(one_class_X, one_class_y, np.array([0.5]), 1, 1) == math.inf


def test_knn_nonconformity_duplicate_points():
    X = np.array([[0.0], [0.0], [5.0]])
    y = np.array([0, 1, 1])
    # same-class distance 0: fully supported regardless of the other side
    assert knn_nonconformity(X, y, np.array([0.0]), 0, 1) == 0.0
    # different-class at distance 0, same-class far: infinitely strange
    assert knn_nonconformity(np.array([[0.0], [5.0]]), np.array([1, 0]),
                             np.array([0.0]), 0, 1) == math.inf


def test_knn_nonconformity_validates():
    with pytest.raises(ValueError):
        knn_nonconformity(np.empty((0, 1)), np.empty(0), np.array([0.0]), 0, 1)
    with pytest.raises(ValueError):
        knn_nonconformity(BAG_X, BAG_Y, np.array([0.5]), 0, 0)


def test_knn_cp_predict_worked_instance():
    # completing with label 0 gives bag scores
    # {0.05, 1/18, 1/9, 0.1, 1/19} and candidate score 1/19:
    # 4 of 5 scores are >= it, p = 0.8 > 0.1 -> kept
    ps = knn_cp_predict(BAG_X, BAG_Y, np.array([0.5]), eps=0.1, k=1,
                        label_space=[0, 1])
    assert ps.contains(0)
    # with only 5 bag members no label's p-value can drop to 0.1: p >= 1/5
    assert ps.contains(1)
    # at eps = 0.5 the far label is excluded (its p-value is exactly 1/5),
    # the near one is kept (p = 0.8)
    ps = knn_cp_predict(BAG_X, BAG_Y, np.array([0.5]), eps=0.5, k=1,
                        label_space=[0, 1])
    assert ps.contains(0) and not ps.contains(1)


def test_knn_cp_boundary_levels():
    assert knn_cp_predict(BAG_X, BAG_Y, np.array([0.5]), 0.0, 1, [0, 1]).kind == "all"
    assert knn_cp_predict(BAG_X, BAG_Y, np.array([0.5]), 1.0, 1, [0, 1]).kind == "empty"


def _ref_score(d, same, k):
    s = np.sort(d[same])[:k]
    f = np.sort(d[~same])[:k]
    if s.size == 0:
        return math.inf
    if f.size == 0:
        return 0.0
    if np.mean(s) == 0.0:
        return 0.0
    if np.mean(f) == 0.0:
        return math.inf
    return float(np.mean(s)) / float(np.mean(f))


def _ref_knn_cp(hist_X, hist_y, x, eps, k, labels):
    """Independent route: rebuild the augmented bag per row and rescore it
    from scratch, no shared distance work at all."""
    n = len(hist_y)
    kept = set()
    for lab in labels:
        bag_X = np.vstack([hist_X, x])
        bag_y = np.append(hist_y, lab)
        alphas = np.empty(n + 1)
        for i in range(n + 1):
            d = np.sqrt(np.sum((bag_X - bag_X[i]) ** 2, axis=1))
            mask = np.arange(n + 1) != i
            alphas[i] = _ref_score(d[mask], bag_y[mask] == bag_y[i], k)
        if np.count_nonzero(alphas >= alphas[n]) / (n + 1) > eps:
            kept.add(lab)
    return kept


def test_knn_cp_matches_bruteforce_rescoring():
    # every third trial uses 1-D integer features, so distances and their
    # sums are exact and duplicate points / score ties actually happen
    rng = derive_rng(3, "knn-brute")
    for trial in range(30):
        n = int(rng.integers(1, 26))
        k = int(rng.integers(1, 6))
        if trial % 3 == 0:
            X = rng.integers(0, 4, size=(n, 1)).astype(float)
            x = rng.integers(0, 4, size=1).astype(float)
        else:
            p = int(rng.integers(1, 4))
            X = rng.normal(size=(n, p))
            x = rng.normal(size=p)
        y = rng.integers(0, 3, size=n)
        eps = float(rng.uniform(0.02, 0.9))
        got = knn_cp_predict(X, y, x, eps, k, [0, 1, 2])
        assert set(got.labels) == _ref_knn_cp(X, y, x, eps, k, [0, 1, 2]), \
            f"trial {trial}"


def _online_knn_cp(cls):
    def route(hist_X, hist_y, x, eps, k, labels):
        pred = cls(k=k, label_space=labels)
        for xi, yi in zip(hist_X, hist_y):
            pred.observe(xi, int(yi))
        return pred.predict(x, eps)
    return route


# The online class also under its alias, the name perfbench constructs.
_KNN_CP_ROUTES = {
    "knn_cp_predict": knn_cp_predict,
    "KnnConformalClassifier": _online_knn_cp(KnnConformalClassifier),
    "CachedKnnConformalClassifier": _online_knn_cp(CachedKnnConformalClassifier),
}


@functools.cache
def _grid_tie_cases(scale):
    """400 (hist_X, hist_y, x, eps, k, brute-force set) cases on integer
    grids scaled by ``scale``, shared by every route under test."""
    rng = derive_rng(11, "knn-grid-ties", scale)
    cases = []
    for _ in range(400):
        n = int(rng.integers(1, 31))
        p = int(rng.integers(1, 4))
        k = int(rng.integers(1, 6))
        X = rng.integers(0, 4, size=(n + 1, p)) * scale
        y = rng.integers(0, 3, size=n)
        eps = float(rng.uniform(0.02, 0.9))
        cases.append((X[:n], y, X[n], eps, k, _ref_knn_cp(X[:n], y, X[n], eps, k, [0, 1, 2])))
    return cases


@pytest.mark.parametrize("route", list(_KNN_CP_ROUTES))
@pytest.mark.parametrize("scale", [0.1, 0.3])
def test_knn_cp_routes_match_bruteforce_on_grid_ties(scale, route):
    # integer grids scaled by 0.1 or 0.3: many tied distances that only
    # agree if every route computes them, and their means, the same way
    predict = _KNN_CP_ROUTES[route]
    misses = [case for case, (hX, hy, x, eps, k, want) in enumerate(_grid_tie_cases(scale))
              if set(predict(hX, hy, x, eps, k, [0, 1, 2]).labels) != want]
    assert misses == []


def _check_caches(pred, X, y, k):
    """The online class's caches over the n rows of X hold, bit for bit,
    the neighbour rows of the fully direct distance matrix."""
    n = X.shape[0]
    direct = np.empty((n, n))
    _fill_distances(direct, X)
    same, diff = _neighbor_rows(direct, y, k)
    width = same.shape[1]
    assert pred._same.shape == pred._diff.shape == (n, k)
    assert np.array_equal(pred._same[:, :width], same), n
    assert np.array_equal(pred._diff[:, :width], diff), n


def _digits_shape_stream(labels, offset, n):
    """n examples with 256 features and 10 labels, relabelled so that
    ``labels`` is "digits" (as drawn), "one-rare" (label 1 on two rows) or
    "one-class", and shifted by ``offset``."""
    ds = make_stream(StreamSpec(kind="cluster-classification", n=n, p=256, seed=4,
                                n_classes=10, class_sep=3.5))
    X, y = ds.X + offset, ds.y.copy()
    if labels == "one-rare":
        y[y == 1] = 0
        y[[10, 40]] = 1
    elif labels == "one-class":
        y[:] = 2
    return X, y, ds.label_space


@pytest.mark.parametrize("dup", [False, True])
@pytest.mark.parametrize("offset", [0.0, 1e8])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("labels", ["digits", "one-rare", "one-class"])
def test_screened_first_fill_at_digits_shape(labels, k, offset, dup):
    # 256 features: the first predict after a warm-up of 1, 2 or 60
    # observes fills the empty caches through the pairwise Gram screen,
    # and the next ones catch up one row each.  After every predict the
    # caches equal the neighbour rows of the direct matrix bit for bit,
    # and every set equals the one-shot knn_cp_predict.  Label mixes cover
    # 10 labels, a label with fewer than k examples and a single class; a
    # 1e8 offset makes the slack admit every pair, and duplicated rows tie
    # at distance 0.
    X, y, label_space = _digits_shape_stream(labels, offset, 90)
    if dup:
        X[20:40] = X[:20]
        X[60:65] = X[5]
    for warm in (1, 2, 60):
        pred = KnnConformalClassifier(k=k, label_space=label_space)
        for i in range(warm):
            pred.observe(X[i], int(y[i]))
        for i in range(warm, warm + 4):
            for eps in (0.05, 0.3):
                want = knn_cp_predict(X[:i], y[:i], X[i], eps, k, label_space)
                assert pred.predict(X[i], eps).labels == want.labels, (warm, i, eps)
            _check_caches(pred, X[:i], y[:i], k)
            pred.observe(X[i], int(y[i]))


def test_screened_first_fill_rules_out_far_pairs(monkeypatch):
    # at the digits shape the first catch-up gives only a few pairs per
    # row a paired direct distance
    paired, direct = [], cp_online.distances

    def counted(A, x):
        d = direct(A, x)
        if x.ndim == 2:
            paired.append(d.shape[0])
        return d
    monkeypatch.setattr(cp_online, "distances", counted)
    X, y, label_space = _digits_shape_stream("digits", 0.0, 300)
    pred = KnnConformalClassifier(k=1, label_space=label_space)
    for i in range(299):
        pred.observe(X[i], int(y[i]))
    pred.predict(X[299], 0.1)
    assert 0 < sum(paired) < 10 * 299
    monkeypatch.undo()
    _check_caches(pred, X[:299], y[:299], 1)


def test_harness_knn_cp_keeps_no_square_array():
    # the harness's knn-cp predictor keeps per-row caches, not an (n, n)
    # distance matrix: after 300 observes and a predict no array it holds
    # has n^2 entries or more
    cfg = harness.build_config(dict(dataset="synth-class", predictor="knn-cp", n=301))
    ds = harness.resolve_online_dataset(cfg)
    pred = harness.make_online_predictor(cfg, ds)
    for i in range(300):
        pred.observe(ds.X[i], int(ds.y[i]))
    pred.predict(ds.X[300], 0.1)

    def arrays(obj):
        for value in vars(obj).values():
            if isinstance(value, np.ndarray):
                yield value
            elif hasattr(value, "__dict__"):
                yield from arrays(value)
    sizes = [a.size for a in arrays(pred)]
    assert sizes and max(sizes) < 300 ** 2


@pytest.mark.parametrize("name", ["KnnConformalClassifier", "CachedKnnConformalClassifier"])
def test_online_class_agrees_with_direct_function(name):
    # the online class, under either public name, reproduces the direct
    # computation exactly
    cls = getattr(aci_lab, name)
    rng = derive_rng(0, "knn-agree")
    for k in (1, 3):
        pred = cls(k=k, label_space=[0, 1, 2])
        X = rng.normal(size=(40, 3))
        y = rng.integers(0, 3, size=40)
        for i in range(8):  # seed history
            pred.observe(X[i], int(y[i]))
        for i in range(8, 40):
            eps = float(rng.uniform(0.05, 0.6))
            got = pred.predict(X[i], eps)
            want = knn_cp_predict(X[:i], y[:i], X[i], eps, k, [0, 1, 2])
            assert got.labels == want.labels, f"step {i} k={k}"
            pred.observe(X[i], int(y[i]))


@pytest.mark.parametrize("offset", [0.0, 1e8])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("labels", ["digits", "one-rare", "one-class"])
def test_cached_class_screened_observe_at_digits_shape(labels, k, offset):
    # 256 features, where the catch-up finds the rows a new example
    # changes through the Gram screen: after every observe and catch-up
    # the caches equal a fresh rescoring of the direct distance matrix bit
    # for bit, and every set equals the one-shot knn_cp_predict.  Label
    # mixes cover 10 labels, a label with fewer than k examples, and a
    # single-class history; with a 1e8 offset the screen's slack admits
    # every row.
    X, y, label_space = _digits_shape_stream(labels, offset, 70)
    pred = KnnConformalClassifier(k=k, label_space=label_space)
    dist = np.empty((70, 70))
    _fill_distances(dist, X)
    for i in range(70):
        if i >= 5:
            for eps in (0.05, 0.3):
                want = knn_cp_predict(X[:i], y[:i], X[i], eps, k, label_space)
                assert pred.predict(X[i], eps).labels == want.labels, (i, eps)
        pred.observe(X[i], int(y[i]))
        pred._catch_up()
        same, diff = _neighbor_rows(dist[:i + 1, :i + 1], y[:i + 1], k)
        width = same.shape[1]
        assert np.array_equal(pred._same[:i + 1, :width], same), i
        assert np.array_equal(pred._diff[:i + 1, :width], diff), i


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("data", ["digits", "one-rare", "one-class", "grid-ties"])
def test_cached_class_catches_up_in_bursts(data, k, monkeypatch):
    # irregular bursts of observes between predicts (uneven runs of 3, 7
    # and 12, then 37 and 200), each caught up in several screened row
    # blocks: after every burst the caches equal the neighbour rows of the
    # direct matrix bit for bit, and every set the one-shot
    # knn_cp_predict.  Rows caught up in an earlier block of a burst must
    # take no merge again, and rows cached before it must take every new
    # value that displaces one of theirs.
    monkeypatch.setattr(cp_online, "_FILL_PAIRS", 1 << 10)
    bursts = (1, 2, 3, 7, 12, 3, 7, 12, 3, 7, 37, 200)
    m = sum(bursts) + 1
    if data == "grid-ties":
        rng = derive_rng(7, "knn-bursts", k)
        X = rng.integers(0, 4, size=(m, 3)) * 0.3
        y, label_space = rng.integers(0, 3, size=m), [0, 1, 2]
    else:
        X, y, label_space = _digits_shape_stream(data, 0.0, m)
    pred = KnnConformalClassifier(k=k, label_space=label_space)
    n = 0
    for burst in bursts:
        for _ in range(burst):
            pred.observe(X[n], int(y[n]))
            n += 1
        for eps in (0.05, 0.3):
            want = knn_cp_predict(X[:n], y[:n], X[n], eps, k, label_space)
            assert pred.predict(X[n], eps).labels == want.labels, (n, eps)
        _check_caches(pred, X[:n], y[:n], k)


def test_cached_class_catch_up_refuses_overflow():
    # rows whose squared differences overflow raise the distances
    # ValueError at every predict after they arrive, whether they come
    # before the first catch-up or after one, and leave the caches as they
    # were; where none overflows the set agrees with knn_cp_predict; no
    # numpy warning either way
    far = np.array([[1e200, 0.0], [-1e200, 0.0], [0.0, 1.0]])
    near = np.array([[1e200, 0.0], [1e200, 1.0], [1e200, 3.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for warm in (0, 1):
            pred = KnnConformalClassifier(k=1, label_space=[0, 1])
            if warm:
                pred.observe(np.array([0.0, 3.0]), 1)
                pred.predict(np.array([0.0, 2.0]), 0.1)
            cached = pred._same.copy(), pred._diff.copy()
            for row, lab in zip(far, (0, 1, 0)):
                pred.observe(row, lab)
            for _ in range(2):
                with pytest.raises(ValueError, match="too large for distances"):
                    pred.predict(np.array([0.0, 2.0]), 0.1)
                assert np.array_equal(pred._same, cached[0])
                assert np.array_equal(pred._diff, cached[1])
        pred = KnnConformalClassifier(k=1, label_space=[0, 1])
        for row, lab in zip(near, (0, 1, 0)):
            pred.observe(row, lab)
        x = np.array([1e200, 2.0])
        assert pred.predict(x, 0.3).labels == knn_cp_predict(near, [0, 1, 0], x, 0.3, 1,
                                                             [0, 1]).labels


@pytest.mark.parametrize("name", ["KnnConformalClassifier", "CachedKnnConformalClassifier",
                                  "KnnThresholdClassifier"])
def test_online_knn_observe_only_appends(name, monkeypatch):
    # observe does no distance work on any online k-NN class, under any of
    # its public names, so a warm-up of observes (the README loop's) stays
    # a plain append; predict pays
    cls = getattr(aci_lab, name)

    def refuse(*args, **kwargs):
        raise AssertionError("observe computed distances")
    for module, attr in ((cp_online, "gram_screen"), (cp_online, "distances"),
                         (nccp_online, "screened_nearest"), (nccp_online, "distances")):
        monkeypatch.setattr(module, attr, refuse)
    rng = derive_rng(3, "knn-append")
    X, y = rng.normal(size=(41, 3)), rng.integers(0, 3, size=41)
    pred = cls(k=3, label_space=[0, 1, 2])
    for i in range(40):
        pred.observe(X[i], int(y[i]))
    monkeypatch.undo()
    assert len(pred._hist) == 40
    if cls is not KnnThresholdClassifier:
        assert pred.predict(X[40], 0.2).labels == knn_cp_predict(X[:40], y[:40], X[40], 0.2, 3,
                                                                 [0, 1, 2]).labels


def test_online_class_rejects_unknown_label():
    pred = KnnConformalClassifier(k=1, label_space=[0, 1])
    with pytest.raises(ValueError):
        pred.observe(np.array([0.0]), 7)


def test_knn_cp_nested_in_eps():
    rng = derive_rng(1, "knn-nest")
    X = rng.normal(size=(25, 2))
    y = rng.integers(0, 3, size=25)
    x = rng.normal(size=2)
    for _ in range(50):
        e1, e2 = sorted(rng.uniform(0.01, 0.99, size=2))
        big = knn_cp_predict(X, y, x, e1, 1, [0, 1, 2])   # smaller eps
        small = knn_cp_predict(X, y, x, e2, 1, [0, 1, 2])
        assert small.issubset(big)


# ------------------------------------------------------------------ crr

def test_crr_against_grid_oracle():
    rng = derive_rng(2, "crr-oracle")
    for trial in range(60):
        n = int(rng.integers(5, 26))
        p = int(rng.integers(1, 4))
        X = rng.normal(size=(n - 1, p))
        w = rng.normal(size=p)
        y = X @ w + rng.normal(scale=float(rng.uniform(0.1, 2.0)), size=n - 1)
        x = rng.normal(size=p)
        eps = float(rng.uniform(0.05, 0.6))
        a = float(rng.choice([0.0, 0.0, 1.0]))
        got = crr_predict(X, y, x, eps, a)
        lo, hi, step = crr_grid_oracle(X, y, x, eps, a)
        for g, o in [(got.lower, lo), (got.upper, hi)]:
            if math.isinf(o) or math.isinf(g):
                assert g == o, f"trial {trial}: {got} vs oracle [{lo}, {hi}]"
            else:
                assert abs(g - o) <= step * 1.0001, (
                    f"trial {trial}: {got} vs oracle [{lo}, {hi}]")


def test_crr_small_eps_gives_unbounded_sides():
    # floor(eps/2 * n) = 0 -> no lower bound (and symmetrically above)
    rng = derive_rng(3, "crr-inf")
    X = rng.normal(size=(6, 2))
    y = rng.normal(size=6)
    ps = crr_predict(X, y, rng.normal(size=2), eps=0.05)
    assert ps.lower == -math.inf and ps.upper == math.inf


def test_crr_interval_is_nested_in_eps():
    rng = derive_rng(4, "crr-nest")
    X = rng.normal(size=(30, 2))
    y = X @ np.array([1.0, -1.0]) + rng.normal(size=30)
    x = rng.normal(size=2)
    widths = []
    for eps in (0.05, 0.1, 0.2, 0.4, 0.8):
        ps = crr_predict(X, y, x, eps)
        widths.append((ps.lower, ps.upper))
    for (lo1, hi1), (lo2, hi2) in zip(widths, widths[1:]):
        assert lo1 <= lo2 and hi2 <= hi1


def test_crr_exact_fit_keeps_duplicate_test_point():
    # noiseless linear data, test object duplicating a training row:
    # the training label must sit inside the interval at moderate eps
    X = np.array([[1.0], [2.0], [3.0], [4.0], [5.0], [6.0], [7.0], [8.0]])
    y = 2.0 * X[:, 0]
    ps = crr_predict(X, y, np.array([4.0]), eps=0.3)
    assert ps.contains(8.0)


def test_crr_boundary_levels():
    X = np.array([[1.0], [2.0]])
    y = np.array([1.0, 2.0])
    assert crr_predict(X, y, np.array([1.5]), 0.0).is_infinite
    assert crr_predict(X, y, np.array([1.5]), 1.0).kind == "empty"


def test_crr_singular_design_raises():
    X = np.zeros((5, 2))
    y = np.ones(5)
    with pytest.raises(NumericError):
        crr_predict(X, y, np.zeros(2), 0.2)


def test_crr_predictor_class_matches_function():
    # The class keeps X'X and X'y across observe; the function forms them
    # from the history.  Cases: ridge a, stream length n, p features around
    # a common offset (a large one makes the accumulation order matter) and
    # the first predicted step (a history shorter than p: the whole line).
    for a in (0.0, 0.5):
        for n, p, offset, start in ((25, 2, 0.0, 5), (400, 6, 50.0, 2)):
            rng = derive_rng(5, "crr-class", a, n)
            pred = CrrPredictor(a=a)
            X = offset + rng.normal(size=(n, p))
            y = X @ rng.normal(size=p) + rng.normal(size=n)
            for i in range(start):
                pred.observe(X[i], y[i])
            for i in range(start, n):
                got = pred.predict(X[i], 0.2)
                if i < p:
                    assert (got.lower, got.upper) == (-math.inf, math.inf)
                else:
                    want = crr_predict(X[:i], y[:i], X[i], 0.2, a)
                    assert got.lower == pytest.approx(want.lower, rel=1e-9)
                    assert got.upper == pytest.approx(want.upper, rel=1e-9)
                pred.observe(X[i], y[i])


def test_crr_predictor_degrades_to_full_line_on_singular_system():
    # a = 0 and a history shorter than p: the one-shot function raises,
    # the online class gives the whole line.
    rng = derive_rng(6, "crr-singular")
    X = rng.normal(size=(3, 5))
    y = rng.normal(size=3)
    x = rng.normal(size=5)
    with pytest.raises(NumericError):
        crr_predict(X, y, x, 0.5)
    pred = CrrPredictor()
    for xi, yi in zip(X, y):
        pred.observe(xi, yi)
    got = pred.predict(x, 0.5)
    assert (got.lower, got.upper) == (-math.inf, math.inf)
