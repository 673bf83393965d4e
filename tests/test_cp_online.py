import functools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import aci_lab
from aci_lab import cp_online, harness, nccp_online, numerics
from aci_lab.core import derive_rng
from aci_lab.cp_online import (CachedKnnConformalClassifier, CrrPredictor,
                               KnnConformalClassifier, _finite_mean, _ratio, crr_predict,
                               knn_cp_predict)
from aci_lab.data import StreamSpec, make_stream
from aci_lab.inductive import KnnClassScorer, KnnQuantileScorer
from aci_lab.nccp_online import KnnThresholdClassifier, knn_vote_shares
from aci_lab.numerics import NumericError
from oracles import (crr_grid_oracle, direct_nearest, fill_distances, knn_cp_p_values,
                     neighbor_rows)

# the worked 4-point instance: two tight clusters on a line
BAG_X = np.array([[0.0], [1.0], [10.0], [11.0]])
BAG_Y = np.array([0, 0, 1, 1])


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


def _ref_knn_cp(hist_X, hist_y, x, eps, k, labels):
    """The labels whose brute-force p-value exceeds eps."""
    p = knn_cp_p_values(hist_X, hist_y, x, k, labels)
    return {lab for lab, p_lab in zip(labels, p) if p_lab > eps}


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


def test_finite_mean_does_not_depend_on_the_padding():
    # each ascending row's mean is np.mean of its finite prefix, whatever
    # the row's width: numpy sums 8 or more values pairwise, so a sum over
    # the padding may round otherwise; NaN where the prefix is empty
    rng = derive_rng(13, "finite-mean")
    for width in range(1, 41):
        rows = np.sort(rng.integers(1, 40, size=(3 * (width + 1), width)) * 0.1, axis=1)
        counts = np.repeat(np.arange(width + 1), 3)
        rows[np.arange(width)[None, :] >= counts[:, None]] = np.inf
        means = _finite_mean(rows)
        for row, m, got in zip(rows, counts, means):
            assert (math.isnan(got) if m == 0 else got == np.mean(row[:m])), (width, m)


@functools.cache
def _short_list_cases():
    """200 (hist_X, hist_y, x, eps, k, brute-force set) cases on a 0.1
    grid with k from 8 to 13 over 4 to 15 rows of 2 labels, so every
    neighbour list is shorter than k, and the candidate copies a row."""
    rng = derive_rng(12, "knn-short-lists")
    cases = []
    for _ in range(200):
        n, k = int(rng.integers(4, 16)), int(rng.integers(8, 14))
        X = rng.integers(0, 4, size=(n, 2)) * 0.1
        y = rng.integers(0, 2, size=n)
        x = X[rng.integers(n)].copy()
        eps = float(rng.uniform(0.02, 0.9))
        cases.append((X, y, x, eps, k, _ref_knn_cp(X, y, x, eps, k, [0, 1])))
    return cases


@pytest.mark.parametrize("route", ["knn_cp_predict", "KnnConformalClassifier"])
def test_knn_cp_routes_match_bruteforce_on_short_lists(route):
    # a copied row ties the candidate's score with its own exactly, so
    # both sides of the p-value must average equal short lists alike
    predict = _KNN_CP_ROUTES[route]
    misses = [case for case, (hX, hy, x, eps, k, want) in enumerate(_short_list_cases())
              if set(predict(hX, hy, x, eps, k, [0, 1]).labels) != want]
    assert misses == []


def _check_caches(pred, X, y, k):
    """The online class's caches over the n rows of X hold, bit for bit,
    the neighbour rows of the fully direct distance matrix, and its kept
    row scores equal those of every cached row recomputed at once, though
    each was computed with only the rows a catch-up touched."""
    n = X.shape[0]
    same, diff = neighbor_rows(fill_distances(X), y, k)
    width, near = same.shape[1], pred._hist["near"]
    assert pred._cached == n and near.shape == (n, 2, k)
    assert np.array_equal(near[:, 0, :width], same), n
    assert np.array_equal(near[:, 1, :width], diff), n
    means = _finite_mean(near[:, 0]), _finite_mean(near[:, 1])
    assert np.array_equal(pred._hist["score"], _ratio(*means)), n


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
@pytest.mark.parametrize("labels, k", [(labels, k) for labels in ("digits", "one-rare", "one-class")
                                       for k in (1, 3)] + [("digits", 20)])
def test_screened_first_fill_at_digits_shape(labels, k, offset, dup):
    # 256 features: the first predict after a warm-up of 1, 2 or 60
    # observes fills the empty caches through the screened self-join,
    # and the next ones catch up one row each.  After every predict the
    # caches equal the neighbour rows of the direct matrix bit for bit,
    # and every set equals the one-shot knn_cp_predict.  Label mixes cover
    # 10 labels, a label with fewer than k examples and a single class; a
    # 1e8 offset makes the slack admit every pair, and duplicated rows tie
    # at distance 0.  At k = 20 the running bounds of the later rows are
    # loose for most of the join.
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


def test_self_join_forms_each_pair_once(monkeypatch):
    # every gram_screen call of a catch-up is counted by the Gram cells it
    # forms and the row pairs they cover: a fill over n rows (the first,
    # or a refill when at least half the rows are new) covers each pair
    # once in at most n(n + 1)/2 cells; a burst of fewer new rows than
    # cached ones makes no call without a query, only one screen of each
    # new row against the rows before it
    X = derive_rng(14, "self-join").normal(size=(700, 20))
    y = np.arange(700) % 3
    # a join block on the single route screens the rows' float32 copies
    index = {row.tobytes(): i for rows in (X, X.astype(np.float32)) for i, row in enumerate(rows)}
    cells, pairs, queries, screen = [], [], [], cp_online.gram_screen

    def counted(A, sq, x=None, rows=None, single=None):
        if x is not None:
            queries.append((index[x.tobytes()], A.shape[0]))
            return screen(A, sq, x, single=single)
        ids = np.array([index[row.tobytes()] for row in A])
        cells.append(rows * (rows + 1) // 2 + rows * (A.shape[0] - rows))
        for r in range(rows):
            pairs.append(np.sort(np.stack(np.broadcast_arrays(ids[r], ids[r + 1:])), axis=0))
        return screen(A, sq, x, rows, single)
    pred = KnnConformalClassifier(k=3, label_space=[0, 1, 2])
    for n0, n in ((0, 300), (300, 620), (620, 700)):
        for i in range(n0, n):
            pred.observe(X[i], int(y[i]))
        cells.clear()
        pairs.clear()
        queries.clear()
        monkeypatch.setattr(cp_online, "gram_screen", counted)
        pred._catch_up()
        monkeypatch.undo()
        _check_caches(pred, X[:n], y[:n], 3)
        if 2 * n0 > n:
            assert cells == [] and pairs == [], n
            assert queries == [(c, c) for c in range(n0, n)], n
            continue
        got = np.concatenate(pairs, axis=1)
        want = np.stack(np.triu_indices(n, 1))
        assert queries == [], n
        assert got.shape == want.shape, n
        assert np.array_equal(got[:, np.lexsort(got[::-1])], want), n
        assert sum(cells) <= n * (n + 1) // 2, n


def _route_edge_history(case):
    """(X, y) of 300 rows, p 8 and 3 labels (label 0 first once sorted)
    whose norms meet the float32 route's edges: "huge" scales some label
    0 rows by 2^50 (sq >= 2^96, so no float32 copy), "tiny" every row by
    2^-60 (sq < 2^-96), and "mixed" every row but every third of label 0
    by 2^-60, so label 0's blocks mix tiny and ordinary rows."""
    rng = derive_rng(31, "route-edges", case)
    X, y = rng.normal(size=(300, 8)), np.arange(300) % 3
    zero = np.flatnonzero(y == 0)
    if case == "huge":
        X[zero[[3, 17, 40, 41]]] *= 2.0 ** 50
    elif case == "tiny":
        X *= 2.0 ** -60
    else:
        tiny = np.ones(300, dtype=bool)
        tiny[zero[::3]] = False
        X[tiny] *= 2.0 ** -60
    return X, y


@pytest.mark.parametrize("case, single", [
    # blocks up to the last huge row's take float64, the rest float32
    ("huge", lambda lo: lo > 41),
    ("tiny", lambda lo: False),
    # label 0's blocks reach an ordinary row; after them every row is tiny
    ("mixed", lambda lo: lo < 100),
])
@pytest.mark.parametrize("k", [1, 3])
def test_self_join_takes_the_float32_route_only_in_range(case, single, k, monkeypatch):
    # the fill's gram_screen calls get single= exactly where every row of
    # the block and after it has a float32 copy and max sq + the block's
    # largest sq lies in [2^-96, 2^96); the caches equal the neighbour rows
    # of the direct distance matrix bit for bit either way, and the next
    # predict's set equals the one-shot knn_cp_predict
    X, y = _route_edge_history(case)
    calls, screen = [], cp_online.gram_screen

    def counted(A, sq, x=None, rows=None, single=None):
        if x is None:
            calls.append(single is not None)
        return screen(A, sq, x, rows, single)
    monkeypatch.setattr(cp_online, "_FILL_PAIRS", 1 << 12)
    monkeypatch.setattr(cp_online, "gram_screen", counted)
    pred = KnnConformalClassifier(k=k, label_space=[0, 1, 2])
    pred.observe_many(X[:299], y[:299])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = pred.predict(X[299], 0.2)
    # label runs [0, 100), [100, 200) and [200, 299) once sorted, in
    # blocks of 2^12 // 299 = 13 rows
    starts = [lo for s, e in ((0, 100), (100, 200), (200, 299)) for lo in range(s, e, 13)]
    assert calls == [single(lo) for lo in starts]
    monkeypatch.undo()
    _check_caches(pred, X[:299], y[:299], k)
    assert got.labels == knn_cp_predict(X[:299], y[:299], X[299], 0.2, k, [0, 1, 2]).labels


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

    def arrays(values):
        for value in values:
            if isinstance(value, np.ndarray):
                yield value
            elif isinstance(value, dict):
                yield from arrays(value.values())
            elif hasattr(value, "__dict__"):
                yield from arrays(vars(value).values())
    sizes = [a.size for a in arrays([pred])]
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
    dist = fill_distances(X)
    for i in range(70):
        if i >= 5:
            for eps in (0.05, 0.3):
                want = knn_cp_predict(X[:i], y[:i], X[i], eps, k, label_space)
                assert pred.predict(X[i], eps).labels == want.labels, (i, eps)
        pred.observe(X[i], int(y[i]))
        pred._catch_up()
        same, diff = neighbor_rows(dist[:i + 1, :i + 1], y[:i + 1], k)
        width, near = same.shape[1], pred._hist["near"]
        assert pred._cached == i + 1 and near.shape == (i + 1, 2, k)
        assert np.array_equal(near[:, 0, :width], same), i
        assert np.array_equal(near[:, 1, :width], diff), i


@pytest.mark.parametrize("k", [1, 3, 20])
@pytest.mark.parametrize("data", ["digits", "one-rare", "one-class", "grid-ties"])
def test_cached_class_catches_up_in_bursts(data, k, monkeypatch):
    # irregular bursts of observes between predicts (uneven runs of 3, 7
    # and 12, then 37 and 200), each caught up by a fill through the
    # self-join in several row blocks (small ones here) when at least half
    # the rows are new, else row by row: after every burst the caches
    # equal the neighbour rows of the direct matrix bit for bit, and every
    # set the one-shot knn_cp_predict.  A later row must keep the values
    # that earlier blocks offer it; at k = 20 the later rows' running
    # bounds stay loose for many blocks.
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


def _edge_stream(data, n):
    """(X, y, label space) with n rows for the commit-path tests: 3 or 10
    labels, one class, a label on two rows only, or integer-grid ties."""
    if data == "grid-ties":
        rng = derive_rng(9, "knn-reuse")
        return rng.integers(0, 4, size=(n, 3)) * 0.3, rng.integers(0, 3, size=n), [0, 1, 2]
    n_classes = 10 if data == "10-labels" else 3
    ds = make_stream(StreamSpec(kind="cluster-classification", n=n, p=12, seed=5,
                                n_classes=n_classes, class_sep=2.0))
    y = ds.y.copy()
    if data == "one-class":
        y[:] = 1
    elif data == "one-rare":
        y[y == 1] = 0
        y[[3, 30]] = 1
    return ds.X, y, ds.label_space


@pytest.mark.parametrize("k", [1, 3, 20])
@pytest.mark.parametrize("data", ["3-labels", "10-labels", "one-class", "one-rare",
                                  "grid-ties"])
def test_catch_up_reuses_predict_distances_only_when_exact(data, k, monkeypatch):
    # After the first fill, the catch-up commits each new row's rescoring
    # in order, and makes no self-join: the last predict's rescoring only
    # for a row with that candidate's bytes, against the caches that
    # predict used; a fresh rescoring for every other row.  Sequences:
    # boundary levels (no _predict) between predicts, a predict that
    # raises the overflow ValueError, predict(x1) then observe(x2), two
    # predicts then one observe, and a row observed as -0.0 where 0.0 was
    # predicted.  After every catch-up the caches equal the direct
    # matrix's neighbour rows, and every set equals knn_cp_predict.
    X, y, label_space = _edge_stream(data, 60)
    rescorings, joins = [], []
    rescoring, caught_up = KnnConformalClassifier._rescoring, cp_online._caught_up

    def counted(self, x, n, label=None):
        # A rescoring against fewer rows than the history holds is a
        # catch-up's, under the row's label; the predict's own pass runs
        # against all of them, under every label.
        rescorings.append(n < len(self._hist))
        assert (label is None) == (n == len(self._hist))
        return rescoring(self, x, n, label)
    monkeypatch.setattr(KnnConformalClassifier, "_rescoring", counted)
    monkeypatch.setattr(cp_online, "_caught_up",
                        lambda *args: joins.append(1) or caught_up(*args))
    pred = KnnConformalClassifier(k=k, label_space=label_space)
    hist = []
    far = np.full(X.shape[1], 1e200)

    def observe(x, i):
        pred.observe(x, int(y[i]))
        hist.append((x, y[i]))

    def predict(x, path=None, rows=1):
        # path: the catch-up this predict makes, "fill", "commit", "rescore"
        # (of that many rows) or None; knn_cp_predict, which joins too,
        # runs before the count starts
        hX, hy = np.array([h[0] for h in hist]), np.array([h[1] for h in hist])
        want = {eps: knn_cp_predict(hX, hy, x, eps, k, label_space).labels for eps in (0.3, 0.05)}
        before = sum(rescorings), len(joins)
        for eps in (0.3, 0.05):
            assert pred.predict(x, eps).labels == want[eps], (len(hist), eps)
        made = sum(rescorings) - before[0], len(joins) - before[1]
        assert made == (rows * (path == "rescore"), int(path == "fill")), (len(hist), path)
        _check_caches(pred, hX, hy, k)

    for i in range(8):
        observe(X[i], i)
    predict(X[8], "fill")
    observe(X[8], 8)
    predict(X[9], "commit")
    observe(X[9], 9)
    # Boundary levels skip _predict, so two rows arrive unscreened; the
    # row before them commits the last rescoring.
    assert pred.predict(X[10], 0.0).kind == "all"
    observe(X[10], 10)
    assert pred.predict(X[11], 1.0).kind == "empty"
    observe(X[11], 11)
    predict(X[12], "rescore", 2)
    # A boundary predict of the same row leaves the interior one's rescoring.
    assert pred.predict(X[12], 1.0).kind == "empty"
    observe(X[12], 12)
    predict(X[13], "commit")
    # A predict that raises leaves the last rescoring and the caches as
    # they were.
    for _ in range(2):
        with pytest.raises(ValueError, match="too large for distances"):
            pred.predict(far, 0.1)
    observe(X[13], 13)
    predict(X[14], "commit")
    # predict(x1), then observe(x2).
    observe(X[15], 15)
    predict(X[16], "rescore")
    # A predict that catches up and then raises: the last rescoring was
    # made against fewer cached rows, so the observed row does not commit
    # it.
    observe(X[22], 22)
    with pytest.raises(ValueError, match="too large for distances"):
        pred.predict(far, 0.1)
    observe(X[16], 16)
    predict(X[17], "rescore")
    # Two predicts of different rows, then one observe: only the last
    # predict's row commits.
    predict(X[18])
    observe(X[17], 17)
    predict(X[18], "rescore")
    predict(X[19])
    observe(X[19], 19)
    predict(X[20], "commit")
    # Equal in value, not in bytes.
    x = X[20].copy()
    x[0] = 0.0
    x_neg = x.copy()
    x_neg[0] = -0.0
    predict(x)
    observe(x_neg, 20)
    predict(X[21], "rescore")
    for i in range(21, 59):
        observe(X[i], i)
        predict(X[i + 1], "commit")


@st.composite
def _online_sessions(draw):
    """(k, label space, ops) for the online class: k from 1 to 5, 2 to 4
    labels (some on fewer than k rows), rows on a 0.3 grid of 1 to 3
    features with -0.0 and 0.0 both drawn, and up to 24 ("observe", x,
    label) or ("predict", x, eps) ops, eps interior or 0 or 1.  Each x is
    new, the last predict's candidate (so predict-then-observe, repeated
    predicts and predict(x1)-then-observe(x2) all occur), an observed
    row again, or the last candidate with the sign of each zero flipped."""
    k, n_labels, p = draw(st.integers(1, 5)), draw(st.integers(2, 4)), draw(st.integers(1, 3))
    cells = st.lists(st.sampled_from([0.0, -0.0, 0.3, 0.6, 0.9]), min_size=p, max_size=p)
    ops, seen, last = [], [], None
    for i in range(draw(st.integers(1, 24))):
        source = draw(st.sampled_from(["new", "new", "last", "last", "last", "seen", "flipped"]))
        if source == "seen" and seen:
            x = seen[draw(st.integers(0, len(seen) - 1))]
        elif source in ("last", "flipped") and last is not None:
            x = last.copy()
            if source == "flipped":
                x[x == 0.0] *= -1.0
        else:
            x = np.array(draw(cells))
        if i and draw(st.booleans()):
            last = x
            ops.append(("predict", x, draw(st.sampled_from([0.0, 1.0, 0.05, 0.3, 0.7]))))
        else:
            seen.append(x)
            ops.append(("observe", x, draw(st.integers(0, n_labels - 1))))
    return k, list(range(n_labels)), ops


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(_online_sessions())
def test_online_class_matches_the_direct_oracle(session):
    # Differential test of the online class: after every interior predict,
    # whichever catch-up it made (a commit, a burst or a first fill), the
    # caches equal the direct matrix's neighbour rows and the set equals
    # knn_cp_predict's; a boundary level gives its forced set.
    k, label_space, ops = session
    pred = KnnConformalClassifier(k=k, label_space=label_space)
    hist_X, hist_y = [], []
    for op, x, arg in ops:
        if op == "observe":
            pred.observe(x, arg)
            hist_X.append(x)
            hist_y.append(arg)
            continue
        got = pred.predict(x, arg)
        if arg in (0.0, 1.0):
            assert got.kind == ("all" if arg == 0.0 else "empty")
            continue
        X, y = np.array(hist_X), np.array(hist_y)
        assert got.labels == knn_cp_predict(X, y, x, arg, k, label_space).labels
        _check_caches(pred, X, y, k)


def _eps_grid(n):
    """Every eps = j/(n + 1), j = 0..n+1, and the float on either side of
    it: sets checked at all of them pin each p-value c/(n + 1) exactly."""
    levels = [j / (n + 1) for j in range(n + 2)]
    return [e for v in levels for e in (math.nextafter(v, -1.0), v, math.nextafter(v, 2.0))]


def _check_set(got, eps, label_space, p):
    """``got`` is the forced set at a boundary level, else the labels whose
    oracle p-value ``p`` exceeds eps."""
    if eps <= 0.0 or eps >= 1.0:
        assert got.kind == ("all" if eps <= 0.0 else "empty"), eps
    else:
        assert set(got.labels) == {c for c, pc in zip(label_space, p) if pc > eps}, (eps, p)


@st.composite
def _oracle_rows(draw, p, scale):
    """A row of p cells from an integer grid with -0.0 and 0.0 both
    drawn, times ``scale``."""
    cells = draw(st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0]), min_size=p, max_size=p))
    return np.array(cells) * scale


@st.composite
def _oracle_shapes(draw):
    """(k, label count, feature count, scale): k from 1 to 33 over 2 to 4
    labels, so labels on fewer than k rows are common, 1 to 3 features,
    and grid scales 1, 0.3, 1e-160 (squared differences underflow to
    subnormals) and 1e150 (near the top of the float range)."""
    return (draw(st.integers(1, 33)), draw(st.integers(2, 4)), draw(st.integers(1, 3)),
            draw(st.sampled_from([1.0, 0.3, 1e-160, 1e150])))


def _new_or_seen(draw, p, scale, seen, last):
    """A row that is new, a copy of an earlier one, or the last candidate
    with the sign of each zero flipped (equal in value, not in bytes)."""
    source = draw(st.sampled_from(["new", "new", "seen", "flipped"]))
    if source == "seen" and seen:
        return seen[draw(st.integers(0, len(seen) - 1))].copy()
    if source == "flipped" and last is not None:
        x = last.copy()
        x[x == 0.0] *= -1.0
        return x
    return draw(_oracle_rows(p, scale))


@st.composite
def _knn_cp_oracle_cases(draw):
    """(hist_X, hist_y, x, k, label space) with 1 to 16 history rows."""
    k, n_labels, p, scale = draw(_oracle_shapes())
    rows = []
    for _ in range(draw(st.integers(2, 17))):
        rows.append(_new_or_seen(draw, p, scale, rows, rows[-1] if rows else None))
    y = draw(st.lists(st.integers(0, n_labels - 1), min_size=len(rows) - 1,
                      max_size=len(rows) - 1))
    return np.array(rows[:-1]), np.array(y), rows[-1], k, list(range(n_labels))


# Fills of up to _DIRECT_ROWS rows take every pair directly; at 0 every
# fill goes through the screened self-join.
_FILL_ROUTES = {"direct": cp_online._DIRECT_ROWS, "screened": 0}


# The strangeness ratio's conventions as bags (hist_X, hist_y, x, k, label
# space) with each label's p-value by hand.  The worked instance: under
# label 0 the candidate's nearest are 0.5 (same) and 9.5 (different).  A
# one-label bag: with no different-label member every ratio is 0, and a
# candidate with no same-label member is +inf (1/3 under label 1, where
# 0 would give 1).  Duplicate points: a same-label distance 0 gives 0
# whatever the other side, 0/0 included (3/4 under label 0 otherwise),
# and a different-label distance 0 with a same-label one beyond it +inf.
_RATIO_CONVENTIONS = {
    "worked-instance": ((BAG_X, BAG_Y, np.array([0.5]), 1, [0, 1]), [0.8, 0.2]),
    "one-label-bag": ((np.array([[0.0], [1.0]]), np.array([0, 0]), np.array([0.5]), 1, [0, 1]),
                      [1.0, 1 / 3]),
    "duplicate-same-label": ((np.array([[0.0], [0.0], [5.0]]), np.array([0, 1, 1]),
                              np.array([0.0]), 1, [0, 1]), [1.0, 1.0]),
    "duplicate-other-label": ((np.array([[0.0], [5.0]]), np.array([1, 0]), np.array([0.0]), 1,
                               [0, 1]), [2 / 3, 1.0]),
}


@pytest.mark.parametrize("name", list(_RATIO_CONVENTIONS))
def test_ratio_conventions_give_these_p_values(name):
    # the oracle's p-values on the convention bags, which the pinned
    # tests below also take as fixed examples
    case, want = _RATIO_CONVENTIONS[name]
    assert np.array_equal(knn_cp_p_values(*case), want)


def _with_ratio_conventions(arg, as_arg=lambda case: case):
    """A decorator giving a pinned test every bag of ``_RATIO_CONVENTIONS``
    as a fixed example, passed as ``arg`` through ``as_arg``."""
    def add(test):
        for case, _ in _RATIO_CONVENTIONS.values():
            test = example(**{arg: as_arg(case)})(test)
        return test
    return add


@pytest.mark.parametrize("fill", list(_FILL_ROUTES))
@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(case=_knn_cp_oracle_cases())
@_with_ratio_conventions("case")
def test_knn_cp_predict_pins_every_p_value_against_the_oracle(fill, case):
    # Differential test of the one-shot route against the brute-force
    # oracle at every eps = j/(n + 1) and one float either side of it.
    hist_X, hist_y, x, k, label_space = case
    p = knn_cp_p_values(hist_X, hist_y, x, k, label_space)
    with mock.patch.object(cp_online, "_DIRECT_ROWS", _FILL_ROUTES[fill]):
        for eps in _eps_grid(len(hist_y)):
            got = knn_cp_predict(hist_X, hist_y, x, eps, k, label_space)
            _check_set(got, eps, label_space, p)


@st.composite
def _oracle_sessions(draw):
    """(k, label space, ops) for the online class: up to 20 ("observe", x,
    label), ("sweep", x) or ("boundary", x, eps) ops, eps one of -0.5, 0, 1
    and 1.5, with rows drawn as in ``_knn_cp_oracle_cases`` and a
    candidate often the next observed row, so predict-then-observe,
    boundary levels between predicts (rows that arrive unscreened) and
    bursts all occur."""
    k, n_labels, p, scale = draw(_oracle_shapes())
    ops, seen, last = [], [], None
    for i in range(draw(st.integers(1, 20))):
        op = draw(st.sampled_from(["observe", "observe", "sweep", "boundary"])) if i else "observe"
        x = last if op == "observe" and last is not None and draw(st.booleans()) else \
            _new_or_seen(draw, p, scale, seen, last)
        if op == "observe":
            seen.append(x)
            ops.append((op, x, draw(st.integers(0, n_labels - 1))))
        else:
            last = x
            ops.append((op, x, draw(st.sampled_from([-0.5, 0.0, 1.0, 1.5]))))
    return k, list(range(n_labels)), ops


def _bag_session(case):
    """The online-class session that observes a bag's rows, then sweeps x."""
    X, y, x, k, labels = case
    return k, labels, [("observe", row, int(c)) for row, c in zip(X, y)] + [("sweep", x, None)]


@pytest.mark.parametrize("fill", list(_FILL_ROUTES))
@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(session=_oracle_sessions())
@_with_ratio_conventions("session", _bag_session)
def test_online_class_pins_every_p_value_against_the_oracle(fill, session):
    # Differential test of the online class against the brute-force
    # oracle: each sweep checks the set at every eps = j/(n + 1) and one
    # float either side of it, whichever catch-up its first interior
    # predict made; a boundary level gives its forced set and no pass.
    k, label_space, ops = session
    pred = KnnConformalClassifier(k=k, label_space=label_space)
    hist_X, hist_y = [], []
    with mock.patch.object(cp_online, "_DIRECT_ROWS", _FILL_ROUTES[fill]):
        for op, x, arg in ops:
            if op == "observe":
                pred.observe(x, arg)
                hist_X.append(x)
                hist_y.append(arg)
            elif op == "boundary":
                _check_set(pred.predict(x, arg), arg, label_space, None)
            else:
                p = knn_cp_p_values(np.array(hist_X), np.array(hist_y), x, k, label_space)
                for eps in _eps_grid(len(hist_y)):
                    _check_set(pred.predict(x, eps), eps, label_space, p)


@st.composite
def _search_cases(draw):
    """(X, y, Q, k, label space) for the k-NN searches: 1 to 40 rows and 1
    to 4 queries drawn as in ``_knn_cp_oracle_cases`` (grid ties, copies,
    -0.0 against 0.0, scales 1e-160 and 1e150), labels on fewer than k
    rows, and k from 1 to 33 or at n - 1, n and n + 1."""
    k, n_labels, p, scale = draw(_oracle_shapes())
    rows = []
    for _ in range(draw(st.integers(1, 40))):
        rows.append(_new_or_seen(draw, p, scale, rows, rows[-1] if rows else None))
    Q = [_new_or_seen(draw, p, scale, rows, rows[-1]) for _ in range(draw(st.integers(1, 4)))]
    n = len(rows)
    y = draw(st.lists(st.integers(0, n_labels - 1), min_size=n, max_size=n))
    k = draw(st.sampled_from([k, k, max(1, n - 1), n, n + 1]))
    return np.array(rows), np.array(y), np.array(Q), k, list(range(n_labels))


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(case=_search_cases())
def test_knn_searches_match_the_direct_oracle(case):
    # Differential test of the searches behind knn_vote_shares and both
    # offline scorers, one vector and a table of them (in blocks of a few
    # queries), against one full stable sort of the direct distances:
    # vote shares label for label, and the quantile scorer, fitted on row
    # indices, returns the neighbours themselves in order
    X, y, Q, k, labels = case
    nears = [direct_nearest(X, q, k) for q in Q]
    shares = [[np.count_nonzero(y[near] == c) / near.shape[0] for c in labels] for near in nears]
    for q, want in zip(Q, shares):
        assert np.array_equal(knn_vote_shares(X, y, q, k, labels), want)
    if k > X.shape[0]:  # the scorers refuse k above the training size
        return
    classes = KnnClassScorer(k).fit(X, y, labels)
    index = KnnQuantileScorer(k).fit(X, np.arange(X.shape[0], dtype=float))
    with mock.patch.object(numerics, "_PAIRS", 2 * X.shape[0]):
        assert np.array_equal(classes.class_scores(Q), shares)
        assert np.array_equal(index.neighbour_labels(Q), nears)
    for q, near, want in zip(Q, nears, shares):
        assert np.array_equal(classes.class_scores(q), want)
        assert np.array_equal(index.neighbour_labels(q), near)


def test_steady_step_screens_once_per_predict(monkeypatch):
    # after the first fill, a predict -> observe -> predict cycle makes one
    # gram_screen call per predict and no paired distances call: the
    # catch-up commits the observed row's rescoring from the predict before
    calls, real_screen, real_distances = [], cp_online.gram_screen, cp_online.distances

    def screen(A, sq, x, single=None):
        calls.append("screen")
        return real_screen(A, sq, x, single=single)

    def dist(A, x):
        if x.ndim == 2:
            calls.append("paired")
        return real_distances(A, x)
    X, y, label_space = _edge_stream("3-labels", 60)
    pred = KnnConformalClassifier(k=3, label_space=label_space)
    for i in range(40):
        pred.observe(X[i], int(y[i]))
    pred.predict(X[40], 0.1)
    monkeypatch.setattr(cp_online, "gram_screen", screen)
    monkeypatch.setattr(cp_online, "distances", dist)
    for i in range(40, 50):
        pred.observe(X[i], int(y[i]))
        pred.predict(X[i + 1], 0.1)
    assert calls == ["screen"] * 10


@pytest.mark.parametrize("k", [1, 3, 8, 9, 20, 33])
def test_kept_row_scores_match_a_full_rescoring(k):
    # The kept row scores, refreshed only for the rows each catch-up
    # touches, equal the ratio of every row's cache means recomputed at
    # once, bit for bit, after a first fill, one-row commits
    # and a burst.  k >= 9 sums a row in numpy's 8-wide pairwise blocks,
    # and at 60 rows of 3 labels k = 20 and 33 leave short rows too.
    X, y, label_space = _edge_stream("3-labels", 150)
    pred = KnnConformalClassifier(k=k, label_space=label_space)
    for i in range(60):
        pred.observe(X[i], int(y[i]))
    for i in range(60, 64):
        pred.predict(X[i], 0.2)
        _check_caches(pred, X[:i], y[:i], k)
        pred.observe(X[i], int(y[i]))
    for i in range(64, 149):
        pred.observe(X[i], int(y[i]))
    pred.predict(X[149], 0.2)
    _check_caches(pred, X[:149], y[:149], k)


def test_cached_class_catch_up_refuses_overflow():
    # rows whose squared differences overflow raise the distances
    # ValueError at every predict after they arrive, whether they come
    # before the first catch-up or after one (of 1 row, or of 7, so that
    # the far rows cross a doubling of the store), and leave the cached
    # rows and their count as they were; where none overflows the set
    # agrees with knn_cp_predict; no numpy warning either way
    far = np.array([[1e200, 0.0], [-1e200, 0.0], [0.0, 1.0]])
    near = np.array([[1e200, 0.0], [1e200, 1.0], [1e200, 3.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for warm in (0, 1, 7):
            pred = KnnConformalClassifier(k=1, label_space=[0, 1])
            for i in range(warm):
                pred.observe(np.array([0.0, 3.0 + i]), 1 - i % 2)
            if warm:
                pred.predict(np.array([0.0, 2.0]), 0.1)
            cached = pred._hist["near"].copy(), pred._hist["score"].copy()
            for row, lab in zip(far, (0, 1, 0)):
                pred.observe(row, lab)
            for _ in range(2):
                with pytest.raises(ValueError, match="too large for distances"):
                    pred.predict(np.array([0.0, 2.0]), 0.1)
                assert pred._cached == warm
                assert np.array_equal(pred._hist["near"][:warm], cached[0])
                assert np.array_equal(pred._hist["score"][:warm], cached[1])
        pred = KnnConformalClassifier(k=1, label_space=[0, 1])
        for row, lab in zip(near, (0, 1, 0)):
            pred.observe(row, lab)
        x = np.array([1e200, 2.0])
        assert pred.predict(x, 0.3).labels == knn_cp_predict(near, [0, 1, 0], x, 0.3, 1,
                                                             [0, 1]).labels


def test_catch_up_keeps_rows_committed_before_a_failing_row():
    # a burst of fewer new rows than cached ones commits row by row: when
    # a row's distances overflow, the rows before it stay cached (equal to
    # the direct matrix's neighbour rows), and it and the rows after it
    # stay uncached, so every later predict raises again
    X, y, label_space = _edge_stream("3-labels", 20)
    pred = KnnConformalClassifier(k=3, label_space=label_space)
    for i in range(12):
        pred.observe(X[i], int(y[i]))
    pred.predict(X[12], 0.1)
    for i in range(12, 15):
        pred.observe(X[i], int(y[i]))
    pred.observe(np.full(X.shape[1], 1e200), 0)
    pred.observe(X[15], int(y[15]))
    for _ in range(2):
        with pytest.raises(ValueError, match="too large for distances"):
            pred.predict(X[16], 0.1)
        assert pred._cached == 15
        same, diff = neighbor_rows(fill_distances(X[:15]), y[:15], 3)
        assert np.array_equal(pred._hist["near"][:15, 0], same)
        assert np.array_equal(pred._hist["near"][:15, 1], diff)


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
                         (nccp_online, "gram_screen"), (nccp_online, "distances")):
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
    # a label outside the space, or one that is not an integer, is refused
    # (as PredictionSet.contains refuses it); integral floats and numpy
    # integers are taken as the integer
    for cls in (KnnConformalClassifier, KnnThresholdClassifier):
        pred = cls(k=1, label_space=[0, 1])
        with pytest.raises(ValueError, match="outside"):
            pred.observe(np.array([0.0]), 7)
        for label in (1.7, -0.5):
            with pytest.raises(ValueError, match="not an integer"):
                pred.observe(np.array([0.0]), label)
        assert len(pred._hist) == 0
        pred.observe(np.array([0.0]), 1.0)
        pred.observe(np.array([1.0]), np.int64(1))
        assert pred._hist.y.tolist() == [1, 1]


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
