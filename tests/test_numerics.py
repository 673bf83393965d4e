import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aci_lab.numerics import (ceil_index, empirical_quantile, floor_index,
                              isotonic_monotonize, student_t_quantile)
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


# ------------------------------------------------------------- isotonic

def test_pav_two_point_swap():
    assert isotonic_monotonize([1, 2], [3, 1]) == pytest.approx([2.0, 2.0])


def test_pav_classic_case():
    out = isotonic_monotonize([1, 2, 3, 4], [1, 3, 2, 4])
    assert out == pytest.approx([1.0, 2.5, 2.5, 4.0])


def test_pav_already_monotone_is_identity():
    vals = [1.0, 1.0, 2.5, 7.0]
    assert isotonic_monotonize([0, 1, 2, 3], vals) == pytest.approx(vals)


def test_pav_validates():
    with pytest.raises(ValueError):
        isotonic_monotonize([1, 1], [0, 0])  # levels not strictly increasing
    with pytest.raises(ValueError):
        isotonic_monotonize([], [])


@settings(max_examples=200)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=12))
def test_pav_is_the_least_squares_monotone_fit(values):
    levels = list(range(len(values)))
    fit = isotonic_monotonize(levels, values)
    # non-decreasing output
    assert np.all(np.diff(fit) >= -1e-12)
    # no monotone perturbation of the fit improves the squared error:
    # check first-order optimality against small feasible moves of each
    # constant block (the PAV optimum is characterised by block means)
    values = np.asarray(values, float)
    err_fit = float(np.sum((fit - values) ** 2))
    rng = np.random.default_rng(0)
    for _ in range(30):
        noise = rng.normal(scale=1e-3, size=len(values))
        cand = np.maximum.accumulate(fit + noise)
        err_cand = float(np.sum((cand - values) ** 2))
        assert err_fit <= err_cand + 1e-9


def test_pav_matches_brute_force_on_grids():
    # exhaustive check on a coarse value grid for length <= 3
    from itertools import product
    grid = [-1.0, 0.0, 2.0]
    for values in product(grid, repeat=3):
        fit = isotonic_monotonize([0, 1, 2], list(values))
        best, best_err = None, math.inf
        fine = np.linspace(-2, 3, 26)
        for cand in product(fine, repeat=3):
            if cand[0] <= cand[1] <= cand[2]:
                err = sum((c - v) ** 2 for c, v in zip(cand, values))
                if err < best_err:
                    best, best_err = cand, err
        err_fit = sum((f - v) ** 2 for f, v in zip(fit, values))
        assert err_fit <= best_err + 1e-6
