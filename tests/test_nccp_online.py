import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aci_lab import nccp_online
from aci_lab.core import derive_rng
from aci_lab.data import StreamSpec, make_stream
from aci_lab.cp_online import CrrPredictor, crr_predict, knn_cp_predict
from aci_lab.inductive import KnnClassScorer, KnnQuantileScorer
from aci_lab.nccp_online import (KnnThresholdClassifier, OlsIntervalPredictor,
                                 knn_threshold_predict, knn_vote_shares,
                                 ols_interval_predict)
from aci_lab.numerics import (NumericError, RidgeSystem, distances, k_nearest,
                              screened_nearest, student_t_quantile)
from oracles import plain_crr_interval, plain_ols_interval

HIST_X = np.array([[0.0], [1.0], [10.0], [11.0]])
HIST_Y = np.array([0, 0, 1, 1])


def test_vote_shares_worked_instance():
    shares = knn_vote_shares(HIST_X, HIST_Y, np.array([0.5]), k=4,
                             label_space=[0, 1])
    assert shares == pytest.approx([0.5, 0.5])
    shares = knn_vote_shares(HIST_X, HIST_Y, np.array([0.5]), k=2,
                             label_space=[0, 1])
    assert shares == pytest.approx([1.0, 0.0])


def test_vote_shares_tie_broken_by_index():
    X = np.array([[0.0], [2.0], [4.0]])
    y = np.array([0, 1, 2])
    # x = 1 is equidistant from rows 0 and 1: the earlier row wins
    shares = knn_vote_shares(X, y, np.array([1.0]), k=1, label_space=[0, 1, 2])
    assert shares == pytest.approx([1.0, 0.0, 0.0])


def test_threshold_predict_thresholds_strictly():
    # shares (0.5, 0.5): at eps = 0.5 nothing strictly exceeds
    ps = knn_threshold_predict(HIST_X, HIST_Y, np.array([0.5]), 0.5, 4, [0, 1])
    assert ps.kind == "labels" and len(ps.labels) == 0
    ps = knn_threshold_predict(HIST_X, HIST_Y, np.array([0.5]), 0.49, 4, [0, 1])
    assert ps.labels == frozenset([0, 1])


def test_threshold_set_size_bounded_by_inverse_eps():
    rng = derive_rng(0, "votes")
    X = rng.normal(size=(60, 2))
    y = rng.integers(0, 6, size=60)
    for _ in range(60):
        eps = float(rng.uniform(0.05, 0.95))
        ps = knn_threshold_predict(X, y, rng.normal(size=2), eps, 10,
                                   list(range(6)))
        assert len(ps.labels) <= math.floor(1.0 / eps)


def test_threshold_nested_in_eps():
    rng = derive_rng(1, "votes-nest")
    X = rng.normal(size=(40, 2))
    y = rng.integers(0, 4, size=40)
    x = rng.normal(size=2)
    for _ in range(40):
        e1, e2 = sorted(rng.uniform(0.01, 0.99, size=2))
        assert knn_threshold_predict(X, y, x, e2, 5, range(4)).issubset(
            knn_threshold_predict(X, y, x, e1, 5, range(4)))


def test_ols_interval_closed_form_instance():
    # X = (1,2,3)', y = (1,2,4), x = 2, eps = 0.1:
    # w = 17/14, rss = 5/14, dof = 2, sigma^2 = 5/28, leverage = 4/14
    X = np.array([[1.0], [2.0], [3.0]])
    y = np.array([1.0, 2.0, 4.0])
    ps = ols_interval_predict(X, y, np.array([2.0]), eps=0.1)
    yhat = 2.0 * 17.0 / 14.0
    half = (student_t_quantile(0.95, 2) * math.sqrt(5.0 / 28.0)
            * math.sqrt(1.0 + 4.0 / 14.0))
    assert ps.lower == pytest.approx(yhat - half, rel=1e-12)
    assert ps.upper == pytest.approx(yhat + half, rel=1e-12)


def test_ols_interval_is_symmetric_about_fit():
    rng = derive_rng(2, "ols-sym")
    X = rng.normal(size=(30, 3))
    y = rng.normal(size=30)
    x = rng.normal(size=3)
    ps = ols_interval_predict(X, y, x, 0.2)
    w = np.linalg.solve(X.T @ X, X.T @ y)
    centre = float(x @ w)
    assert (ps.upper - centre) == pytest.approx(centre - ps.lower, rel=1e-9)


def test_ols_interval_degenerates_without_dof():
    # m - p < 1: no residual variance estimate, interval is the whole line
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    y = np.array([1.0, 2.0])
    ps = ols_interval_predict(X, y, np.array([1.0, 1.0]), 0.1)
    assert ps.is_infinite


def test_ols_interval_degenerates_on_singular_system():
    X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]])
    y = np.array([1.0, 2.0, 3.0, 4.0])
    ps = ols_interval_predict(X, y, np.array([1.0, 1.0]), 0.1)
    assert ps.is_infinite


def test_ols_interval_nested_in_eps():
    rng = derive_rng(3, "ols-nest")
    X = rng.normal(size=(25, 2))
    y = rng.normal(size=25)
    x = rng.normal(size=2)
    last = None
    for eps in (0.02, 0.1, 0.3, 0.6, 0.9):
        ps = ols_interval_predict(X, y, x, eps)
        if last is not None:
            assert ps.issubset(last)
        last = ps


def test_ols_width_shrinks_with_more_data():
    rng = derive_rng(4, "ols-width")
    w = np.array([2.0, -1.0])
    X = rng.normal(size=(200, 2))
    y = X @ w + rng.normal(scale=0.5, size=200)
    x = np.zeros(2)
    w_small = ols_interval_predict(X[:20], y[:20], x, 0.1).size()
    w_big = ols_interval_predict(X, y, x, 0.1).size()
    assert w_big < w_small


def test_threshold_classifier_class_matches_function():
    rng = derive_rng(5, "thr-class")
    pred = KnnThresholdClassifier(k=3, label_space=[0, 1])
    X = rng.normal(size=(30, 2))
    y = rng.integers(0, 2, size=30)
    for i in range(6):
        pred.observe(X[i], int(y[i]))
    for i in range(6, 30):
        got = pred.predict(X[i], 0.3)
        want = knn_threshold_predict(X[:i], y[:i], X[i], 0.3, 3, [0, 1])
        assert got.labels == want.labels
        pred.observe(X[i], int(y[i]))


@pytest.mark.parametrize("offset", [0.0, 1e8])
@pytest.mark.parametrize("k", [1, 20])
def test_threshold_classifier_at_digits_shape_matches_function(k, offset):
    # 256 features and 10 labels, where the Gram screen does the search:
    # every set equals the one-shot oracle's, from a history shorter than
    # k on; with a 1e8 offset the screen's slack admits every row.  The
    # row norms are filled by predict only, across capacity doublings.
    ds = make_stream(StreamSpec(kind="cluster-classification", n=90, p=256, seed=3,
                                n_classes=10, class_sep=3.5))
    X, y = ds.X + offset, ds.y
    pred = KnnThresholdClassifier(k=k, label_space=ds.label_space)
    pred.observe(X[0], int(y[0]))
    for i in range(1, 90):
        assert pred._normed < i
        for eps in (0.05, 0.2):
            want = knn_threshold_predict(X[:i], y[:i], X[i], eps, k, ds.label_space)
            assert pred.predict(X[i], eps).labels == want.labels, (i, eps)
        assert pred._normed == i
        pred.observe(X[i], int(y[i]))
    rows = pred._hist._rows
    assert rows["sq"].shape == rows["X"].shape[:1] == (128,)


@st.composite
def _threshold_sessions(draw):
    """(k, label space, ops) for the online threshold class: k from 1 to
    33, 2 to 5 distinct labels in drawn order (some on fewer than k rows,
    some on none), rows on a 0.3 grid of 1 to 3 features with -0.0 and
    0.0 both drawn, at one scale (1, 1e-160 or 1e150), and up to 60
    ("observe", x, label) or ("predict", x, eps) ops after a first
    observe, eps interior or 0 or 1.  Each x is new, an observed row
    again, or the last candidate with the sign of each zero flipped."""
    k, p = draw(st.integers(1, 33)), draw(st.integers(1, 3))
    labels = draw(st.lists(st.integers(-3, 9), min_size=2, max_size=5, unique=True))
    scale = draw(st.sampled_from([1.0, 1e-160, 1e150]))
    cells = st.lists(st.sampled_from([0.0, -0.0, 0.3, 0.6, 0.9]), min_size=p, max_size=p)
    ops, seen, last = [], [], None
    for i in range(draw(st.integers(1, 60))):
        source = draw(st.sampled_from(["new", "new", "seen", "flipped"]))
        if source == "seen" and seen:
            x = seen[draw(st.integers(0, len(seen) - 1))]
        elif source == "flipped" and last is not None:
            x = last.copy()
            x[x == 0.0] *= -1.0
        else:
            x = scale * np.array(draw(cells))
        if i and draw(st.booleans()):
            last = x
            ops.append(("predict", x, draw(st.sampled_from([0.0, 1.0, 0.02, 0.1, 0.3, 0.5]))))
        else:
            seen.append(x)
            ops.append(("observe", x, draw(st.sampled_from(labels))))
    return k, labels, ops


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(_threshold_sessions())
def test_threshold_class_matches_the_direct_oracle(session):
    # Differential test of the online threshold class and of the screened
    # search it runs: every predict's set equals knn_threshold_predict's
    # on the history so far, and the screened k nearest of each candidate,
    # alone and as rows of one query matrix, equal k_nearest of its direct
    # distances, ties included
    k, label_space, ops = session
    pred = KnnThresholdClassifier(k=k, label_space=label_space)
    hist_X, hist_y, queries = [], [], []
    for op, x, arg in ops:
        if op == "observe":
            pred.observe(x, arg)
            hist_X.append(x)
            hist_y.append(arg)
            continue
        X, y = np.array(hist_X), np.array(hist_y)
        got, want = pred.predict(x, arg), knn_threshold_predict(X, y, x, arg, k, label_space)
        assert (got.kind, got.labels) == (want.kind, want.labels)
        sq = np.einsum("ij,ij->i", X, X)
        assert np.array_equal(screened_nearest(X, sq, x, k), k_nearest(distances(X, x), k))
        queries.append(x)
    if queries:  # against the history of the last predict
        Q = np.array(queries)
        assert np.array_equal(screened_nearest(X, sq, Q, k),
                              [k_nearest(distances(X, q), k) for q in Q])


def test_threshold_class_votes_match_the_direct_oracle(monkeypatch):
    # Differential test of the vote counts themselves, which the label
    # sets can hide: every predict's shares equal knn_vote_shares' label
    # for label, whether the kept rows vote as the screen leaves them (at
    # most k kept, or a history shorter than k) or go through the direct
    # distances (more than k kept: near-ties at the k-th)
    shares, calls, paths = [], [], {"exit": 0, "fallback": 0, "short": 0}
    labels_above = nccp_online.labels_above

    def capture(scores, labels, eps):
        shares.append((np.array(scores), np.array(labels)))
        return labels_above(scores, labels, eps)

    def counted(*args):
        calls.append(1)
        return distances(*args)
    monkeypatch.setattr(nccp_online, "labels_above", capture)
    monkeypatch.setattr(nccp_online, "distances", counted)

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(_threshold_sessions())
    def check(session):
        k, label_space, ops = session
        pred = KnnThresholdClassifier(k=k, label_space=label_space)
        hist_X, hist_y = [], []
        for op, x, arg in ops:
            if op == "observe":
                pred.observe(x, arg)
                hist_X.append(x)
                hist_y.append(arg)
                continue
            shares.clear()
            calls.clear()
            pred.predict(x, arg)
            if not shares:  # eps 0 or 1: the boundary set, no vote
                continue
            (got, labels), = shares
            path = ("short" if len(hist_X) < k else "fallback" if calls else "exit")
            assert len(calls) == (path == "fallback")
            paths[path] += 1
            want = knn_vote_shares(np.array(hist_X), np.array(hist_y), x, k, labels)
            assert np.array_equal(got, want), (got, want)
    check()
    assert min(paths.values()) > 0, paths


def test_threshold_class_keeps_the_overflow_error():
    # A history shorter than k whose squared norms pass 2^1020 takes the
    # screen's fallback (every row kept, infinite slack): the class still
    # takes the direct distances and raises as the one-shot route does,
    # though the kept rows number fewer than k
    X = np.array([[1e155, -1e155], [-1e155, 1e155], [0.0, 1e155]])
    y = np.array([0, 1, 0])
    x = np.array([1e155, 1e155])
    pred = KnnThresholdClassifier(k=5, label_space=[0, 1])
    for row, label in zip(X, y):
        pred.observe(row, int(label))
    with pytest.raises(ValueError, match="too large for distances") as want:
        knn_threshold_predict(X, y, x, 0.3, 5, [0, 1])
    with pytest.raises(ValueError) as got:
        pred.predict(x, 0.3)
    assert str(got.value) == str(want.value)


def test_ols_predictor_class_matches_function():
    # As for CRR: maintained normal equations against a fresh fit, long
    # streams, a large feature offset, and a start with history shorter
    # than p.
    for a in (0.0, 0.5):
        for n, p, offset, start in ((20, 2, 0.0, 4), (400, 6, 50.0, 2)):
            rng = derive_rng(6, "ols-class", a, n)
            pred = OlsIntervalPredictor(a=a)
            X = offset + rng.normal(size=(n, p))
            y = X @ rng.normal(size=p) + rng.normal(size=n)
            for i in range(start):
                pred.observe(X[i], y[i])
            for i in range(start, n):
                got = pred.predict(X[i], 0.2)
                if i < p:
                    assert (got.lower, got.upper) == (-math.inf, math.inf)
                want = ols_interval_predict(X[:i], y[:i], X[i], 0.2, a)
                assert got.lower == pytest.approx(want.lower, rel=1e-9)
                assert got.upper == pytest.approx(want.upper, rel=1e-9)
                pred.observe(X[i], y[i])


def _ridge_case(case):
    """(hist_X, hist_y, x) of a seeded history: ``gather`` puts the query
    far out, so some rows have b_n <= b_i; ``singular`` repeats a column;
    ``short`` has fewer rows than features (dof < 1; CRR is singular at
    a = 0); ``offset`` is long with a large common offset; ``p20`` is wide."""
    m, p, offset = {"plain": (40, 3, 0.0), "gather": (30, 2, 0.0), "singular": (20, 3, 0.0),
                    "short": (1, 3, 0.0), "offset": (300, 6, 50.0), "p20": (60, 20, 0.0)}[case]
    rng = derive_rng(9, "ridge-routes", case)
    X = offset + rng.normal(size=(m + 1, p))
    if case == "singular":
        X[:, 2] = X[:, 0]
    if case == "gather":
        X[m] = [20.0, -20.0]
    y = X @ rng.normal(size=p) + rng.normal(size=m + 1)
    return X[:m], y[:m], X[m]


def _endpoints(route, *args):
    try:
        ps = route(*args)
    except NumericError:
        return "singular"
    return ps.kind, ps.lower, ps.upper


_RIDGE_CASES = ["plain", "gather", "singular", "short", "offset", "p20"]


@pytest.mark.parametrize("case", _RIDGE_CASES)
@pytest.mark.parametrize("a", [0.0, 0.5])
def test_ridge_routes_equal_the_plain_routes_bit_for_bit(case, a):
    # == on both endpoints, infinities included: the copy-free factor, the
    # single OLS solve and CRR's gather-free division change no bit
    X, y, x = _ridge_case(case)
    if case == "gather":
        M = X.T @ X + x[:, None] * x + a * np.eye(2)
        h = np.linalg.solve(M, x)
        assert (X @ h + (1.0 - x @ h) <= 0.0).any()
    crr, ols = CrrPredictor(a=a), OlsIntervalPredictor(a=a)
    for pred in (crr, ols):
        pred.observe_many(X, y)
    seen = set()
    for eps in (1e-6, 0.1, 0.5, 1.0 - 1e-6):
        got = _endpoints(crr_predict, X, y, x, eps, a)
        assert got == _endpoints(plain_crr_interval, X, y, X.T @ X, X.T @ y, x, eps, a)
        want = _endpoints(plain_crr_interval, crr._hist.X, crr._hist.y, crr._gram,
                          crr._xty, x, eps, a)
        assert _endpoints(crr.predict, x, eps) == (
            ("interval", -math.inf, math.inf) if want == "singular" else want)
        got = _endpoints(ols_interval_predict, X, y, x, eps, a)
        assert got == _endpoints(plain_ols_interval, X, y, X.T @ X, X.T @ y, x, eps, a)
        assert _endpoints(ols.predict, x, eps) == _endpoints(
            plain_ols_interval, ols._hist.X, ols._hist.y, ols._gram, ols._xty, x, eps, a)
        seen.add(got)
    # each case reaches the route it names: the whole OLS line below one
    # degree of freedom or on a singular system, and CRR's NumericError
    singular = a == 0.0 and case in ("singular", "short")
    assert (seen == {("interval", -math.inf, math.inf)}) == (singular or case == "short")
    assert (_endpoints(crr_predict, X, y, x, 0.1, a) == "singular") == singular


@pytest.mark.parametrize("predict", [crr_predict, ols_interval_predict])
@pytest.mark.parametrize("bad", ["nan in hist_X", "inf in x"])
def test_ridge_routes_reject_non_finite_input(predict, bad):
    rng = derive_rng(7, "ridge-non-finite")
    X = rng.normal(size=(12, 2))
    y = rng.normal(size=12)
    x = rng.normal(size=2)
    if bad == "nan in hist_X":
        X[3, 1] = math.nan
    else:
        x[0] = math.inf
    with pytest.raises(ValueError, match="non-finite|infs or NaNs"):
        predict(X, y, x, 0.2)


@pytest.mark.parametrize("predict", [crr_predict, ols_interval_predict])
@pytest.mark.parametrize("eps", [0.0, 1.0])
@pytest.mark.parametrize("bad", ["nan in hist_X", "inf in x"])
def test_ridge_routes_reject_non_finite_input_at_the_boundary(predict, eps, bad):
    # the inputs are checked before the forced set: a NaN history once gave
    # the whole line at eps 0 and the empty set at eps 1
    rng = derive_rng(7, "ridge-non-finite")
    X, y, x = rng.normal(size=(12, 2)), rng.normal(size=12), rng.normal(size=2)
    if bad == "nan in hist_X":
        X[3, 1] = math.nan
    else:
        x[0] = math.inf
    with pytest.raises(ValueError, match="non-finite"):
        predict(X, y, x, eps)


# Every one-shot k-NN route and both scorers, from history (X, y), query x
# and neighbour count k.
_KNN_ROUTES = {
    "knn_cp_predict": lambda X, y, x, k=3: knn_cp_predict(X, y, x, 0.2, k, [0, 1]),
    "knn_vote_shares": lambda X, y, x, k=3: knn_vote_shares(X, y, x, k, [0, 1]),
    "knn_threshold_predict": lambda X, y, x, k=3: knn_threshold_predict(X, y, x, 0.2, k,
                                                                        [0, 1]),
    "KnnClassScorer": lambda X, y, x, k=3: KnnClassScorer(k).fit(X, y).class_scores(x),
    "KnnQuantileScorer": lambda X, y, x, k=3: KnnQuantileScorer(k).fit(X, y).point(x),
}
# The level-taking routes at the boundary levels too, where knn_threshold_predict
# once returned "all" or "empty" for a 1-D history or a NaN query.
_KNN_ROUTES.update({
    f"{name}-eps{eps:g}": lambda X, y, x, k=3, f=f, eps=eps: f(X, y, x, eps, k, [0, 1])
    for name, f in [("knn_cp_predict", knn_cp_predict),
                    ("knn_threshold_predict", knn_threshold_predict)]
    for eps in (0.0, 1.0)})
_ONE_SHOT_KNN = ["knn_cp_predict", "knn_threshold_predict", "knn_vote_shares",
                 *(route for route in _KNN_ROUTES if "-eps" in route)]


@pytest.mark.parametrize("route", sorted(_KNN_ROUTES))
@pytest.mark.parametrize("bad", ["nan in hist_X", "inf in x"])
def test_knn_routes_reject_non_finite_input(route, bad):
    rng = derive_rng(7, "knn-non-finite")
    X = rng.normal(size=(12, 2))
    y = rng.integers(0, 2, size=12)
    x = rng.normal(size=2)
    if bad == "nan in hist_X":
        X[3, 1] = math.nan
    else:
        x[0] = math.inf
    with pytest.raises(ValueError, match="non-finite"):
        _KNN_ROUTES[route](X, y, x)


@pytest.mark.parametrize("route", _ONE_SHOT_KNN)
@pytest.mark.parametrize("n_labels", [4, 16])
def test_knn_routes_reject_mismatched_history_labels(route, n_labels):
    rng = derive_rng(8, "knn-labels")
    X = rng.normal(size=(12, 2))
    y = rng.integers(0, 2, size=n_labels)
    with pytest.raises(ValueError, match="history labels do not match history rows"):
        _KNN_ROUTES[route](X, y, rng.normal(size=2))


@pytest.mark.parametrize("route", _ONE_SHOT_KNN)
@pytest.mark.parametrize("bad, message", [
    ("x of shape (1, p)", "feature vector must be 1-D"),
    ("x too wide", "expected 2 features, got 3"),
    ("1-D history", "history must be a non-empty 2-D array"),
    ("k = 0", "k must be >= 1"),
])
def test_knn_routes_reject_bad_shapes(route, bad, message):
    # one input check for the one-shot routes: a ValueError that names the
    # fault, never a set from a mis-shaped x or a raw numpy error
    rng = derive_rng(9, "knn-shapes")
    X, y, x, k = rng.normal(size=(12, 2)), rng.integers(0, 2, size=12), rng.normal(size=2), 3
    if bad == "x of shape (1, p)":
        x = x[None, :]
    elif bad == "x too wide":
        x = rng.normal(size=3)
    elif bad == "1-D history":
        X = X[:, 0]
    else:
        k = 0
    with pytest.raises(ValueError, match=message):
        _KNN_ROUTES[route](X, y, x, k)


@pytest.mark.parametrize("route", ["crr_predict", "ols_interval_predict"])
@pytest.mark.parametrize("bad, message", [
    ("x of shape (1, p)", "feature vector must be 1-D"),
    ("x too narrow", "expected 3 features, got 2"),
    ("x non-finite", "non-finite"),
    ("1-D history", "history must be a non-empty 2-D array"),
    ("empty history", "history must be a non-empty 2-D array"),
    ("labels short", "history labels do not match history rows"),
])
def test_ridge_routes_reject_bad_shapes(route, bad, message):
    # the one-shot ridge routes share the k-NN routes' history check: a
    # ValueError that names the fault, never a raw numpy error
    rng = derive_rng(11, "ridge-shapes")
    X, y, x = rng.normal(size=(12, 3)), rng.normal(size=12), rng.normal(size=3)
    if bad == "x of shape (1, p)":
        x = x[None, :]
    elif bad == "x too narrow":
        x = x[:2]
    elif bad == "x non-finite":
        x[1] = math.nan
    elif bad == "1-D history":
        X = X[:, 0]
    elif bad == "empty history":
        X, y = X[:0], y[:0]
    else:
        y = y[:-1]
    fn = crr_predict if route == "crr_predict" else ols_interval_predict
    with pytest.raises(ValueError, match=message):
        fn(X, y, x, 0.2)


def test_knn_cp_predict_rejects_labels_outside_the_label_space():
    # a history label the label space lacks raises, in place of a set that
    # silently leaves it out
    rng = derive_rng(10, "knn-outside")
    X, x = rng.normal(size=(12, 2)), rng.normal(size=2)
    y = np.array([0, 1] * 5 + [2, 0])
    with pytest.raises(ValueError, match="history label 2 outside the label space"):
        knn_cp_predict(X, y, x, 0.2, 3, [0, 1])
    with pytest.raises(ValueError, match="outside the label space"):
        knn_cp_predict(X, y, x, 0.2, 3, [])


def test_vote_routes_reject_labels_outside_the_label_space():
    # the vote routes refuse such a label too, where they dropped its votes
    # (shares summing below 1 on a 3-label history with two labels given)
    rng = derive_rng(10, "knn-outside")
    X, x = rng.normal(size=(12, 2)), rng.normal(size=2)
    y = np.array([0, 1] * 5 + [2, 0])
    with pytest.raises(ValueError, match="history label 2 outside the label space"):
        knn_vote_shares(X, y, x, 5, [0, 1])
    with pytest.raises(ValueError, match="history label 2 outside the label space"):
        knn_threshold_predict(X, y, x, 0.2, 5, [0, 1])
    assert knn_vote_shares(X, y, x, 5, [0, 1, 2]).sum() == pytest.approx(1.0)


@pytest.mark.parametrize("a", [-1.0, math.nan, math.inf])
def test_ridge_routes_refuse_bad_coefficients(a):
    # a ridge coefficient that is negative, NaN or infinite is refused by
    # name, where NaN and inf used to pass the a < 0 check
    with pytest.raises(ValueError, match="ridge coefficient must be finite and >= 0"):
        RidgeSystem(np.eye(2), a)
    for cls in (CrrPredictor, OlsIntervalPredictor):
        with pytest.raises(ValueError, match="ridge coefficient must be finite and >= 0"):
            cls(a=a)
