import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aci_lab.core import derive_rng
from aci_lab.data import StreamSpec, make_stream
from aci_lab.inductive import KnnClassScorer
from aci_lab import numerics
from aci_lab.nccp_online import KnnThresholdClassifier
from aci_lab.numerics import (NumericError, RidgeSystem, ceil_index, distances,
                              empirical_quantile, floor_index, gram_screen, k_nearest,
                              k_smallest, kth_bound, screened_nearest, student_t_quantile,
                              within)
from oracles import screened_distances, t_cdf_by_integration


# ------------------------------------------------------------ student t

def test_t_quantile_against_integration_oracle():
    for p, dof in [(0.975, 10), (0.95, 2), (0.9, 1), (0.75, 5), (0.6, 30),
                   (0.25, 7), (0.05, 3), (0.01, 12), (0.999, 4), (0.5, 9)]:
        t = student_t_quantile(p, dof)
        if p == 0.5:
            assert t == 0.0
            continue
        assert t_cdf_by_integration(t, dof) == pytest.approx(p, abs=1e-9)


def test_t_quantile_symmetry():
    for dof in (1, 2, 5, 50):
        assert student_t_quantile(0.25, dof) == pytest.approx(
            -student_t_quantile(0.75, dof), abs=1e-12)


def test_t_quantile_normal_limit():
    # dof -> inf approaches the normal quantile
    from scipy.special import ndtri
    for p in (0.6, 0.9, 0.975, 0.995):
        assert student_t_quantile(p, 10 ** 6) == pytest.approx(
            float(ndtri(p)), abs=1e-4)


def test_t_quantile_known_value():
    # classic table entry
    assert student_t_quantile(0.975, 10) == pytest.approx(2.228138852, abs=1e-8)


def test_t_quantile_validates():
    with pytest.raises(ValueError):
        student_t_quantile(0.0, 5)
    with pytest.raises(ValueError):
        student_t_quantile(0.5, 0)
    with pytest.raises(ValueError):
        student_t_quantile(0.5, 2.5)


# ---------------------------------------------------- empirical quantile

def test_empirical_quantile_ceiling_convention():
    vals = list(range(1, 11))  # 1..10
    assert empirical_quantile(vals, 0.0) == 1.0
    assert empirical_quantile(vals, 1.0) == 10.0
    assert empirical_quantile(vals, 0.2) == 2.0   # ceil(2.0) = 2, no fuzz
    assert empirical_quantile(vals, 0.21) == 3.0  # ceil(2.1) = 3
    assert empirical_quantile([5, 1, 3, 2, 4], 0.4) == 2.0


def test_empirical_quantile_validates():
    with pytest.raises(ValueError):
        empirical_quantile([], 0.5)
    with pytest.raises(ValueError):
        empirical_quantile([1.0], 1.5)
    with pytest.raises(ValueError):
        empirical_quantile([math.nan], 0.5)


@given(st.lists(st.floats(-100, 100), min_size=1, max_size=30),
       st.floats(0, 1), st.floats(0, 1))
def test_empirical_quantile_monotone_in_q(vals, q1, q2):
    lo, hi = sorted([q1, q2])
    assert empirical_quantile(vals, lo) <= empirical_quantile(vals, hi)


def _rank_deficient_gram(p):
    X = derive_rng(5, "rank-deficient").normal(size=(10, p))
    return X.T @ X


@pytest.mark.parametrize("make_gram", [
    _rank_deficient_gram,                          # rank 10
    lambda p: np.zeros((p, p)),                    # dpotrf stops at the first pivot
    lambda p: np.diag([1.0] * (p - 1) + [1e-14]),  # factors; pivot ratio 1e7
], ids=["rank-10", "zero", "tiny-pivot"])
def test_singular_ridge_system_raises_without_an_svd(monkeypatch, make_gram):
    # the error reports the squared pivot ratio, or inf where the
    # factorisation stopped; np.linalg.cond (a full SVD) is never called
    def no_svd(*args, **kwargs):
        raise AssertionError("np.linalg.cond called")
    monkeypatch.setattr(np.linalg, "cond", no_svd)
    with pytest.raises(NumericError, match="cond estimate") as info:
        RidgeSystem(make_gram(300), 0.0)
    assert info.value.cond >= 1e12


def test_ridge_pivot_ratio_beyond_float_range_is_numeric_error():
    # pivots 1e150 and 1e-150: the squared ratio overflows a float, which
    # must read as cond = inf, not raise OverflowError
    with pytest.raises(NumericError) as info:
        RidgeSystem(np.diag([1e300, 1e-300]), 0.0)
    assert info.value.cond == math.inf
    w = RidgeSystem(np.diag([4.0, 1e-10]), 0.0).solve(np.array([8.0, 1e-10]))
    assert w == pytest.approx([2.0, 1.0])   # pivot ratio 2e5 still factors


def test_index_helpers_resist_float_noise():
    assert ceil_index(0.2 * 10) == 2          # 0.2*10 = 2.0000000000000004
    assert ceil_index(2.1) == 3
    assert floor_index(2.9999999999999996) == 3
    assert floor_index(2.9) == 2



# ------------------------------------------------------------ k-NN kernels

def test_k_smallest_k1_equals_partition_and_sort():
    # k = 1 takes a row minimum; it must give what the general
    # partition-then-sort route gives, +inf padding included
    rng = derive_rng(4, "k-smallest")
    for n in (1, 2, 5, 40):
        rows = rng.normal(size=(30, n))
        rows[rng.random(size=rows.shape) < 0.3] = np.inf
        rows[0] = np.inf
        for values in (rows, rows[0], rng.normal(size=n)):
            general = np.sort(np.partition(values, 0, axis=-1)[..., :1], axis=-1)
            got = k_smallest(values, 1)
            assert got.shape == general.shape
            assert np.array_equal(got, general)
    assert k_smallest(np.empty((3, 0)), 1).shape == (3, 0)


def test_sq_distances_refuse_overflow():
    # finite features whose squares overflow used to give nan distances
    # (and a RuntimeWarning); a k-NN vote then picked arbitrary neighbours.
    # The class scorer now raises the distance error, without a warning
    Q, A = np.zeros((1, 1)), np.array([[3e200], [1e200], [-1e200]])
    scorer = KnnClassScorer(2).fit(A, np.array([0, 0, 1]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for query in (Q, Q[0]):
            with pytest.raises(ValueError, match="non-finite values or values too large"):
                scorer.class_scores(query)


def test_distances_refuse_overflow():
    # finite features whose squared differences overflow raise the
    # distance error (naming too-large values) without a numpy warning,
    # directly, as paired rows, through the screened search of one query
    # and of a matrix, and through the online predictor
    A, x = np.array([[1e200, 0.0], [0.0, 1.0]]), np.array([-1e200, 0.0])
    sq = np.einsum("ij,ij->i", A, A)
    pred = KnnThresholdClassifier(1, [0, 1])
    pred.observe(A[0], 0)
    pred.observe(A[1], 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: distances(A, x), lambda: distances(A, np.tile(x, (2, 1))),
                     lambda: screened_nearest(A, sq, x, 1),
                     lambda: screened_nearest(A, sq, np.tile(x, (3, 1)), 1),
                     lambda: pred.predict(x, 0.5)):
            with pytest.raises(ValueError, match="non-finite values or values too large"):
                call()


def _screen_cases(rng, n, p, m):
    """(A, Q) families, Q holding m queries, where the Gram values are
    least trustworthy: random rows, integer grids (exact ties) plain and
    scaled by 0.3, duplicated rows, one-ulp neighbours, a 1e8 offset,
    wildly mixed row scales, values whose squares underflow, and values
    whose squares overflow though their differences do not (the screen
    falls back)."""
    pick = lambda A: A[rng.integers(0, n, size=m)]
    yield rng.normal(size=(n, p)), rng.normal(size=(m, p))
    yield rng.integers(0, 3, size=(n, p)) * 1.0, rng.integers(0, 3, size=(m, p)) * 1.0
    yield rng.integers(0, 3, size=(n, p)) * 0.3, rng.integers(0, 3, size=(m, p)) * 0.3
    A = rng.normal(size=(n, p))
    A[n // 2:] = A[:n - n // 2]
    yield A, pick(A)
    x = rng.normal(size=p)
    A = np.tile(x, (n, 1))
    A[:, 0] = np.nextafter(x[0], x[0] + rng.random(n) - 0.5)
    yield A, np.tile(x, (m, 1))
    A = rng.normal(size=(n, p)) + 1e8
    yield A, pick(A) + 1e-8
    A = rng.normal(size=(n, p)) * 10.0 ** rng.integers(-150, 150, size=(n, 1))
    yield A, pick(A) * (1 + 1e-15)
    A = rng.normal(size=(n, p)) * 1e-160
    yield A, pick(A)
    yield rng.normal(size=(n, p)) + 1e160, rng.normal(size=(m, p)) + 1e160


def test_screened_search_equals_direct_search(monkeypatch):
    # the screen only rules rows out: every kept value is the direct
    # distance bit for bit, every ruled-out row is truly farther than the
    # threshold, kth_bound bounds the k-th direct distance, and the
    # screened k nearest are the direct ones, ties included.  A matrix of
    # queries spans two blocks (made small here, so that every n does)
    # and must equal one-row searches row by row; paired-row distances
    # must be bit-equal to one-row calls
    monkeypatch.setattr(numerics, "_PAIRS", 64)
    rng = derive_rng(8, "gram-screen")
    for p in (1, 2, 3, 7, 8, 9, 16, 31, 64, 129, 256):
        for n in (1, 2, 5, 30, 200):
            m = max(1, numerics._PAIRS // n) + 2
            for A, Q in _screen_cases(rng, n, p, m):
                sq = np.einsum("ij,ij->i", A, A)
                rows = [distances(A, q) for q in Q]
                j = rng.integers(0, n, size=m)
                assert np.array_equal(distances(A[j], Q), [d[i] for d, i in zip(rows, j)]), p
                x, d = Q[0], rows[0]
                g, slack = gram_screen(A, sq, x)
                G, S = gram_screen(A, sq, Q)
                for k in sorted({1, 2, 5, 20, n, n + 1}):
                    assert np.array_equal(screened_nearest(A, sq, Q, k),
                                          [k_nearest(r, k) for r in rows]), (p, n, k)
                    assert np.all(kth_bound(G, S, k) >= [np.sort(r)[k - 1] for r in rows]
                                  if k <= n else kth_bound(G, S, k) == math.inf)
                    assert np.array_equal(screened_nearest(A, sq, x, k),
                                          k_nearest(d, k)), (p, n, k)
                    bound = kth_bound(g, slack, k)
                    assert bound >= np.sort(d)[k - 1] if k <= n else bound == math.inf
                    for thr in (bound, d[0], rng.choice(d, size=n)):
                        got = screened_distances(A, x, g, slack, thr)
                        kept = got < np.inf
                        assert np.array_equal(got[kept], d[kept]), (p, n, k)
                        assert np.all(d[~kept] > np.broadcast_to(thr, d.shape)[~kept])


def test_screen_rules_out_far_rows():
    # on well-separated rows the screen spares most direct distances;
    # with a 1e8 offset at p = 256 the slack admits every row
    rng = derive_rng(9, "gram-screen-prunes")
    A, x = rng.normal(size=(200, 8)), rng.normal(size=8)
    g, slack = gram_screen(A, np.einsum("ij,ij->i", A, A), x)
    assert np.count_nonzero(screened_distances(A, x, g, slack,
                                               kth_bound(g, slack, 5)) < np.inf) < 20
    A = rng.normal(size=(50, 256)) + 1e8
    g, slack = gram_screen(A, np.einsum("ij,ij->i", A, A), A[0] + 1.0)
    assert np.all(screened_distances(A, A[0] + 1.0, g, slack, kth_bound(g, slack, 1)) < np.inf)


def test_screen_with_one_far_row_stays_exact_and_prunes():
    # the slack is one per query, from the largest squared row norm, so a
    # row 1e3 times the others' norm loosens it for every row.  The search
    # stays exact, and the screen still rules out every row but those
    # within about two slacks of the 5th value: a ladder of rows at
    # distance 1 + j 1e-8 from the query, about a tenth of a slack apart,
    # so the pinned count moves with the slack
    rng = derive_rng(10, "gram-screen-mixed-norms")
    x, e = rng.normal(size=8), rng.normal(size=8)
    ladder = x + (1.0 + 1e-8 * np.arange(40))[:, None] * (e / np.linalg.norm(e))
    A = np.vstack([x + 3.0 + rng.random((150, 8)), ladder, 1e3 * rng.normal(size=(1, 8))])
    sq = np.einsum("ij,ij->i", A, A)
    d = distances(A, x)
    g, slack = gram_screen(A, sq, x)
    got = screened_distances(A, x, g, slack, kth_bound(g, slack, 5))
    kept = got < np.inf
    assert np.array_equal(got[kept], d[kept])
    assert np.array_equal(np.flatnonzero(kept), 150 + np.arange(28))
    assert np.array_equal(screened_nearest(A, sq, x, 5), k_nearest(d, 5))
    Q = np.vstack([x, ladder[::7], A[:3] - 0.5])
    assert np.array_equal(screened_nearest(A, sq, Q, 5), [k_nearest(distances(A, q), 5) for q in Q])
    # without the far row the slack is about 1e5 times smaller: only the 5 nearest stay
    g, slack = gram_screen(A[:-1], sq[:-1], x)
    assert np.count_nonzero(screened_distances(A[:-1], x, g, slack, kth_bound(g, slack, 5))
                            < np.inf) == 5


@st.composite
def _single_cases(draw):
    """(A, x) for the screen's single route: p from {1, 2, 3, 8, 9, 31,
    130, 256}, 1 to 24 rows, all scaled by 2^e for e from -70 to 70 (both
    sides of the route's range), of one kind: normal rows; near-duplicates
    of x (a few ulps of noise); a large common offset (cancellation);
    entries at float32 rounding midpoints; entries spread over 2^-100 to
    1, so that some are float32 subnormals."""
    p = draw(st.sampled_from([1, 2, 3, 8, 9, 31, 130, 256]))
    n, e = draw(st.integers(1, 24)), draw(st.integers(-70, 70))
    kind = draw(st.sampled_from(["normal", "near", "offset", "midpoint", "spread"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x, A = rng.normal(size=p), rng.normal(size=(n, p))
    if kind == "near":
        A = x * (1.0 + rng.integers(-4, 5, size=(n, p)) * 2.0 ** -52)
    elif kind == "offset":
        c = 2.0 ** draw(st.integers(8, 30))
        A, x = A + c, x + c
    elif kind == "midpoint":
        def mid(v):
            v = v.astype(np.float32)
            return (v.astype(float) + np.nextafter(v, np.float32(np.inf)).astype(float)) / 2
        A, x = mid(A), mid(x)
    elif kind == "spread":
        A = A * 2.0 ** rng.integers(-100, 1, size=(n, p))
        x = x * 2.0 ** rng.integers(-100, 1, size=p)
    return A * 2.0 ** e, x * 2.0 ** e


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_single_cases())
def test_single_route_certifies_every_row(case):
    # The float32 copy comes from the online class's bulk load.  Where
    # max sq + x.x lies in the single route's range, the screen takes it
    # (a slack above the float64 one); elsewhere it returns the float64
    # screen bit for bit.  Either way each row's direct unrooted sum D is
    # within half the slack of g.
    A, x = case
    pred = KnnThresholdClassifier(1, [0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pred.observe_many(A, np.zeros(A.shape[0], dtype=int))
        sq, single = pred._row_norms(), pred._hist["x32"]
        g, slack = gram_screen(A, sq, x, single=single)
    g64, slack64 = gram_screen(A, sq, x)
    if numerics._SINGLE_LO <= sq.max() + np.vdot(x, x) < numerics._SINGLE_HI:
        assert slack > slack64
    else:
        assert slack == slack64 and np.array_equal(g, g64)
    D = ((A - x) ** 2).sum(axis=1)
    assert np.all(np.abs(D - g) <= slack / 2)


def test_single_route_prunes_at_the_digits_shape():
    # History 2000, 256 features, 10 labels: the single route keeps at
    # most k + 3 rows for k 1 and 20, and the searches stay exact
    ds = make_stream(StreamSpec(kind="cluster-classification", n=2040, p=256, seed=3,
                                n_classes=10, class_sep=3.5, drift=1.0))
    A = ds.X[:2000]
    pred = KnnThresholdClassifier(20, ds.label_space)
    pred.observe_many(A, ds.y[:2000])
    sq, single = pred._row_norms(), pred._hist["x32"]
    for x in ds.X[2000:]:
        g, slack = gram_screen(A, sq, x, single=single)
        assert slack > gram_screen(A, sq, x)[1]
        d = distances(A, x)
        for k in (1, 20):
            kept = np.flatnonzero(within(g, slack, kth_bound(g, slack, k)))
            assert kept.shape[0] <= k + 3
            assert set(k_nearest(d, k)) <= set(kept)
