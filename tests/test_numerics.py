import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from aci_lab.core import derive_rng
from aci_lab.inductive import KnnClassScorer
from aci_lab import numerics
from aci_lab.numerics import (ceil_index, distances, empirical_quantile, floor_index,
                              k_nearest, k_smallest, sq_distances, student_t_quantile)
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
