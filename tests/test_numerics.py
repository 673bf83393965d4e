import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from aci_lab.core import derive_rng
from aci_lab.inductive import KnnClassScorer
from aci_lab import numerics
from aci_lab.nccp_online import KnnThresholdClassifier
from aci_lab.numerics import (ceil_index, distances, empirical_quantile, floor_index,
                              gram_screen, k_nearest, k_smallest, kth_bound,
                              screened_distances, screened_nearest, sq_distances,
                              student_t_quantile)
from oracles import t_cdf_by_integration


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


def test_k_nearest_matches_stable_argsort():
    # partition selection must return exactly the first k of a stable
    # argsort, so among equal values the earlier index wins; grid values
    # scaled by 0.3 make ties dense (and inexact, as real distances are),
    # and Gram-expansion rows are what the class scorer passes
    rng = derive_rng(5, "k-nearest")
    for n in (1, 2, 3, 7, 20, 41, 100, 300):
        ks = {1, 2, 5, 20, 40, n - 1, n, n + 1} - {0}
        for values in (rng.normal(size=(6, n)),
                       rng.integers(0, 4, size=(6, n)) * 0.3,
                       rng.integers(0, 40, size=(6, n)) * 0.3,
                       sq_distances(rng.integers(0, 3, size=(6, 2)) * 0.3,
                                    rng.integers(0, 3, size=(n, 2)) * 0.3)):
            for k in sorted(ks):
                want = np.argsort(values, axis=-1, kind="stable")[..., :k]
                got = k_nearest(values, k)
                assert got.shape == want.shape and np.array_equal(got, want), (n, k)
                for row, want_row in zip(values, want):
                    assert np.array_equal(k_nearest(row, k), want_row), (n, k)


def test_distances_table_matches_rows():
    # the table sums each row's squared differences in numpy's own
    # pairwise order, so every row must be bit-equal to the one-row call;
    # these p reach every branch of that order (sequential below 8, the
    # eight-accumulator tree with and without a remainder up to 128, and
    # the split into halves above), and the last m spans several blocks
    rng = derive_rng(6, "distance-table")
    n = 40
    for p in (*range(1, 10), 15, 16, 17, 127, 128, 129, 255, 256, 257, 300):
        step = max(1, numerics._BLOCK // (p * n))
        for m in (1, 2, 7, 2 * step + 3):
            for A, Q in (
                    (rng.normal(size=(n, p)) * 10.0 ** rng.integers(-3, 4, size=(n, p)),
                     rng.normal(size=(m, p)) * 10.0 ** rng.integers(-3, 4, size=(m, p))),
                    (rng.integers(0, 4, size=(n, p)) * 0.3,
                     rng.integers(0, 4, size=(m, p)) * 0.3)):
                table = distances(A, Q)
                assert table.shape == (m, n)
                for i in range(m):
                    assert np.array_equal(table[i], distances(A, Q[i])), (p, m, i)
    # one query's block alone passes the bound: the table is row calls
    A, Q = rng.normal(size=(300, 256)), rng.normal(size=(3, 256))
    assert A.size > numerics._BLOCK
    table = distances(A, Q)
    assert table.shape == (3, 300)
    for i in range(3):
        assert np.array_equal(table[i], distances(A, Q[i]))
    A, Q = rng.normal(size=(n, 3)), rng.normal(size=(5, 3))
    for bad in (np.nan, np.inf):
        Q_bad, A_bad = Q.copy(), A.copy()
        Q_bad[3, 1], A_bad[17, 2] = bad, bad
        with pytest.raises(ValueError, match="non-finite"):
            distances(A, Q_bad)
        with pytest.raises(ValueError, match="non-finite"):
            distances(A_bad, Q)


def test_k_nearest_matrix_mixes_tied_and_plain_rows():
    # rows whose k-th value is tied with a later entry take the one-row
    # route, the others the whole-matrix selection; one matrix mixes both
    rng = derive_rng(7, "k-nearest-mixed")
    n = 12
    for k in (1, 2, 5, n - 1, n, n + 3):
        D = rng.normal(size=(9, n))
        if k < n:
            for i in (0, 4, 5, 8):
                row = D[i]
                order = np.argsort(row, kind="stable")
                row[order[-1]] = row[order[k - 1]]  # a tie across the k-th value
            cand = (D <= np.sort(D, axis=1)[:, k - 1:k]).sum(axis=1)
            assert (cand > k).sum() == 4 and (cand == k).sum() == 5
        want = np.argsort(D, axis=-1, kind="stable")[:, :k]
        got = k_nearest(D, k)
        assert got.shape == want.shape and np.array_equal(got, want), k
        assert np.array_equal(k_nearest(D.reshape(3, 3, n), k),
                              want.reshape(3, 3, -1)), k


def test_sq_distances_refuse_overflow():
    # finite features whose squares overflow used to give nan distances
    # (and a RuntimeWarning); a k-NN vote then picked arbitrary neighbours
    Q, A = np.zeros((1, 1)), np.array([[3e200], [1e200], [-1e200]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not finite"):
            sq_distances(Q, A)
        with pytest.raises(ValueError, match="not finite"):
            KnnClassScorer(2).fit(A, np.array([0, 0, 1])).class_scores(Q[0])


def test_distances_refuse_overflow():
    # finite features whose squared differences overflow raise the
    # distance error (naming too-large values) without a numpy warning,
    # directly, as a table, and through the screened online search
    A, x = np.array([[1e200, 0.0], [0.0, 1.0]]), np.array([-1e200, 0.0])
    pred = KnnThresholdClassifier(1, [0, 1])
    pred.observe(A[0], 0)
    pred.observe(A[1], 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: distances(A, x), lambda: distances(A, x[None, :]),
                     lambda: screened_nearest(A, np.einsum("ij,ij->i", A, A), x, 1),
                     lambda: pred.predict(x, 0.5)):
            with pytest.raises(ValueError, match="non-finite values or values too large"):
                call()


def _screen_cases(rng, n, p):
    """(A, x) families where the Gram values are least trustworthy:
    random rows, integer grids (exact ties) plain and scaled by 0.3,
    duplicated rows, one-ulp neighbours, a 1e8 offset, wildly mixed row
    scales, values whose squares underflow, and values whose squares
    overflow though their differences do not (the screen falls back)."""
    yield rng.normal(size=(n, p)), rng.normal(size=p)
    yield rng.integers(0, 3, size=(n, p)) * 1.0, rng.integers(0, 3, size=p) * 1.0
    yield rng.integers(0, 3, size=(n, p)) * 0.3, rng.integers(0, 3, size=p) * 0.3
    A = rng.normal(size=(n, p))
    A[n // 2:] = A[:n - n // 2]
    yield A, A[0].copy()
    x = rng.normal(size=p)
    A = np.tile(x, (n, 1))
    A[:, 0] = np.nextafter(x[0], x[0] + rng.random(n) - 0.5)
    yield A, x
    A = rng.normal(size=(n, p)) + 1e8
    yield A, A[-1] + 1e-8
    A = rng.normal(size=(n, p)) * 10.0 ** rng.integers(-150, 150, size=(n, 1))
    yield A, A[0] * (1 + 1e-15)
    A = rng.normal(size=(n, p)) * 1e-160
    yield A, A[-1].copy()
    yield rng.normal(size=(n, p)) + 1e160, rng.normal(size=p) + 1e160


def test_screened_search_equals_direct_search():
    # the screen only rules rows out: every kept value is the direct
    # distance bit for bit, every ruled-out row is truly farther than the
    # threshold, kth_bound bounds the k-th direct distance, and the
    # screened k nearest are the direct ones, ties included
    rng = derive_rng(8, "gram-screen")
    for p in (1, 2, 3, 7, 8, 9, 16, 31, 64, 129, 256):
        for n in (1, 2, 5, 30, 200):
            for A, x in _screen_cases(rng, n, p):
                sq = np.einsum("ij,ij->i", A, A)
                d = distances(A, x)
                g, slack = gram_screen(A, sq, x)
                for k in sorted({1, 2, 5, 20, n, n + 1}):
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
