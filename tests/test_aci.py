import numpy as np
import pytest

from aci_lab.aci import (aci_init, aci_update, check_guarantee,
                         confinement_interval, deviation_bound,
                         gamma_for_bound)
from aci_lab.core import derive_rng


def test_update_moves_against_outcome():
    s = aci_init(0.1, gamma=0.014)
    assert aci_update(s, 1).eps == pytest.approx(0.0874)
    assert aci_update(s, 0).eps == pytest.approx(0.1014)


@pytest.mark.parametrize("gamma", [0.0, -0.1, float("nan"), float("inf")])
def test_init_rejects_bad_step_sizes(gamma):
    # an infinite step would turn the level into inf - inf = NaN
    with pytest.raises(ValueError, match="gamma must be positive and finite"):
        aci_init(0.1, gamma)


def test_update_rejects_bad_err():
    s = aci_init(0.1, gamma=0.1)
    with pytest.raises(ValueError):
        aci_update(s, 2)
    with pytest.raises(ValueError):
        aci_update(s, 0.5)


def test_update_builds_a_checked_state():
    # the new state keeps target and step size, counts the step, and
    # passes through the AciState checks
    s = aci_update(aci_update(aci_init(0.2, gamma=0.05), 1), 0)
    assert (s.eps_target, s.gamma, s.step) == (0.2, 0.05, 2)
    assert s.eps == 0.2 + 0.05 * (0.2 - 1) + 0.05 * 0.2
    object.__setattr__(s, "gamma", -1.0)
    with pytest.raises(ValueError, match="gamma must be positive"):
        aci_update(s, 0)


def test_gamma_for_bound_known_horizons():
    # derived from the closed form max(eps1, 1-eps1) / (delta*N - 1)
    assert gamma_for_bound(0.1, 0.01, 6397) == pytest.approx(0.0142925, abs=1e-6)
    assert gamma_for_bound(0.1, 0.01, 2007) == pytest.approx(0.0471945, abs=1e-6)
    assert gamma_for_bound(0.1, 0.01, 1599) == pytest.approx(0.0600400, abs=1e-6)
    assert gamma_for_bound(0.1, 0.01, 9198) == pytest.approx(0.0098923, abs=1e-6)


def test_gamma_feasibility():
    # delta must exceed (max(eps1,1-eps1) + 1) / n
    with pytest.raises(ValueError):
        gamma_for_bound(0.1, 0.01, 100)
    gamma_for_bound(0.1, 0.02, 100)  # 0.02 > 1.9/100


@pytest.mark.parametrize("delta", [float("nan"), float("inf"), float("-inf"), 1e308])
def test_gamma_for_bound_refuses_non_finite_delta_products(delta):
    # NaN gave gamma nan and an infinite delta * n_steps gamma 0.0, which
    # the controller then refused under gamma's name
    with pytest.raises(ValueError, match=r"delta .* delta \* n_steps must be finite"):
        gamma_for_bound(0.1, delta, 180)


def test_gamma_roundtrip_through_bound():
    for n in (200, 1000, 6397):
        g = gamma_for_bound(0.1, 0.01, n)
        assert deviation_bound(0.1, g, n) == pytest.approx(0.01)


def test_deviation_bound_single_step():
    assert deviation_bound(0.1, 0.9, 1) == pytest.approx(2.0)


def test_confinement_interval():
    assert confinement_interval(0.05) == (-0.05, 1.05)


@pytest.mark.parametrize("gamma", [0.0, -0.1, float("nan"), float("inf"), 1e308])
def test_bound_and_confinement_refuse_unusable_gamma(gamma):
    # an infinite gamma made the bound NaN, and one whose product with the
    # step count overflows made it 0; the confinement interval takes one step
    with pytest.raises(ValueError, match=r"gamma .* gamma \* n_steps finite"):
        deviation_bound(0.1, gamma, 280)
    if gamma != 1e308:
        with pytest.raises(ValueError, match=r"gamma .* gamma \* n_steps finite"):
            confinement_interval(gamma)


@pytest.mark.parametrize("gamma", [1e-320, 5e-324])
def test_bound_and_confinement_refuse_subnormal_gamma(gamma):
    # 1 / (gamma * n_steps) overflowed: the bound read inf, so every run
    # "satisfied" it, and the summary could not be written as JSON
    with pytest.raises(ValueError, match=r"gamma .* with a finite reciprocal"):
        deviation_bound(0.1, gamma, 280)
    with pytest.raises(ValueError, match=r"gamma .* with a finite reciprocal"):
        check_guarantee([0, 1] * 140, 0.1, 0.1, gamma)
    with pytest.raises(ValueError, match=r"gamma .* with a finite reciprocal"):
        confinement_interval(gamma)


def test_small_gamma_with_a_finite_bound_is_kept():
    assert deviation_bound(0.1, 1e-300, 280) == pytest.approx(0.9 / (1e-300 * 280))


def test_huge_gamma_keeps_its_bound():
    # a finite gamma * n_steps leaves the bound at about 1 / n_steps
    assert deviation_bound(0.1, 1e300, 280) == pytest.approx(1 / 280)
    assert confinement_interval(1e308) == (-1e308, 1.0 + 1e308)


def test_confinement_holds_on_random_error_sequences():
    rng = derive_rng(0, "confinement")
    for _ in range(50):
        gamma = float(rng.uniform(0.005, 0.5))
        eps1 = float(rng.uniform(0.0, 1.0))
        s = aci_init(0.1, gamma, eps1)
        lo, hi = confinement_interval(gamma)
        for _ in range(300):
            # arbitrary outcomes, except the boundary coupling the lemma
            # assumes: a full set cannot err, an empty set always does
            if s.eps <= 0.0:
                err = 0
            elif s.eps >= 1.0:
                err = 1
            else:
                err = int(rng.random() < 0.5)
            s = aci_update(s, err)
            assert lo <= s.eps <= hi


def test_guarantee_on_arbitrary_sequences():
    # the bound is a sample-path identity: it must hold for *any* errs
    # produced by the coupled system; here we simulate the coupling with
    # a threshold response err = 1{u < eps_n} for arbitrary u
    rng = derive_rng(1, "guarantee")
    for trial in range(30):
        n = int(rng.integers(50, 2000))
        gamma = float(rng.uniform(0.01, 0.3))
        eps1 = float(rng.uniform(0, 1))
        s = aci_init(0.2, gamma, eps1=eps1)
        errs = []
        for _ in range(n):
            err = int(rng.random() < min(max(s.eps, 0.0), 1.0))
            errs.append(err)
            s = aci_update(s, err)
        rep = check_guarantee(errs, 0.2, eps1, gamma)
        assert rep.satisfied


def test_guarantee_check_flags_a_broken_run():
    # a predictor that ignores the level entirely (always errs) cannot
    # satisfy the bound once the horizon is long enough
    errs = [1] * 2000
    rep = check_guarantee(errs, 0.1, 0.1, 0.05)
    assert not rep.satisfied
    assert rep.deviation == pytest.approx(0.9)


def test_check_guarantee_validates_input():
    with pytest.raises(ValueError):
        check_guarantee([], 0.1, 0.1, 0.05)
    with pytest.raises(ValueError):
        check_guarantee([0, 2], 0.1, 0.1, 0.05)


def test_boundary_reflection_confines_the_level():
    # coupled with the extended contract (empty set at eps >= 1 forces an
    # error, full set at eps <= 0 forces a hit) the level reflects at the
    # boundaries and never escapes [-gamma, 1 + gamma]
    gamma = 0.2
    s = aci_init(0.1, gamma=gamma, eps1=0.0)
    for _ in range(200):
        err = 1 if s.eps >= 1.0 else 0
        s = aci_update(s, err)
        assert -gamma <= s.eps <= 1.0 + gamma
    s = aci_init(0.9, gamma=gamma, eps1=1.0)
    for _ in range(200):
        err = 0 if s.eps <= 0.0 else 1
        s = aci_update(s, err)
        assert -gamma <= s.eps <= 1.0 + gamma


def test_exactness_with_coupled_threshold_responses():
    # when err responds to eps through a fixed increasing threshold, the
    # realised error rate converges near the target
    rng = derive_rng(3, "coupled")
    gamma = gamma_for_bound(0.1, 0.01, 5000)
    s = aci_init(0.1, gamma)
    errs = []
    for _ in range(5000):
        u = rng.random()
        err = int(u < s.eps)
        errs.append(err)
        s = aci_update(s, err)
    assert abs(np.mean(errs) - 0.1) <= 0.01
