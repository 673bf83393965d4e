"""Adaptive control of the significance level for online set prediction.

After each step the level moves against the most recent outcome:

    eps_{n+1} = eps_n + gamma * (eps_target - err_n)

with err_n = 1 if the true label fell outside the predicted set.  An
error pushes the level down (wider sets), a hit pushes it up.  Because
each move is bounded by gamma, the level stays inside [-gamma, 1 + gamma]
forever (provided it starts in [0, 1]), and a telescoping argument gives
the distribution-free bound

    | eps_target - (1/N) * sum_n err_n |  <=  (max(eps_1, 1-eps_1) + gamma) / (gamma * N)

for every sample path - no exchangeability, no model assumptions.
Choosing gamma = max(eps_1, 1-eps_1) / (delta * N - 1) makes the bound
equal a requested delta.
"""

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class AciState:
    """Controller state: target level, current level, step size, step count."""

    eps_target: float
    eps: float
    gamma: float
    step: int = 0

    def __post_init__(self):
        if not 0.0 <= self.eps_target <= 1.0:
            raise ValueError(f"eps_target {self.eps_target} outside [0, 1]")
        if not 0.0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")
        if self.step < 0:
            raise ValueError("step count cannot be negative")


def aci_init(eps_target: float, gamma: float, eps1: float | None = None) -> AciState:
    """Fresh controller.  The starting level eps1 defaults to the target
    and must lie in [0, 1] for the confinement bound to hold."""
    eps1 = eps_target if eps1 is None else float(eps1)
    if not 0.0 <= eps1 <= 1.0:
        raise ValueError(f"starting level {eps1} outside [0, 1]")
    return AciState(eps_target=float(eps_target), eps=eps1, gamma=float(gamma))


def aci_update(state: AciState, err: int) -> AciState:
    """One control step from the realised error indicator (0 or 1)."""
    if err not in (0, 1):
        raise ValueError(f"error indicator must be 0 or 1, got {err!r}")
    new_eps = state.eps + state.gamma * (state.eps_target - err)
    return AciState(state.eps_target, new_eps, state.gamma, state.step + 1)


def gamma_for_bound(eps1: float, delta: float, n_steps: int) -> float:
    """Step size making the worst-case deviation bound equal delta after
    n_steps.

    Solves (max(eps1, 1-eps1) + gamma) / (gamma * n) = delta, which is
    feasible only when delta > (max(eps1, 1-eps1) + 1) / n; the horizon
    must be long enough for the requested accuracy.
    """
    if not 0.0 <= eps1 <= 1.0:
        raise ValueError(f"eps1 {eps1} outside [0, 1]")
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    m = max(eps1, 1.0 - eps1)
    if not math.isfinite(delta * n_steps):
        raise ValueError(f"delta {delta} unusable for n_steps {n_steps}: "
                         "delta * n_steps must be finite")
    if delta * n_steps <= m + 1.0:
        raise ValueError(
            f"delta {delta} infeasible for n_steps {n_steps}: "
            f"need delta > {(m + 1.0) / n_steps:.6g}"
        )
    return m / (delta * n_steps - 1.0)


def deviation_bound(eps1: float, gamma: float, n_steps: int) -> float:
    """Worst-case |target - empirical error| after n_steps."""
    if not 0.0 <= eps1 <= 1.0:
        raise ValueError(f"eps1 {eps1} outside [0, 1]")
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    _check_gamma(gamma, n_steps)
    return (max(eps1, 1.0 - eps1) + gamma) / (gamma * n_steps)


def confinement_interval(gamma: float) -> tuple[float, float]:
    """Every reachable level lies in [-gamma, 1 + gamma]."""
    _check_gamma(gamma, 1)
    return (-gamma, 1.0 + gamma)


def _check_gamma(gamma: float, n_steps: int) -> None:
    """Refuse a gamma that is not positive, or whose product with n_steps
    or that product's reciprocal is not finite (the bound would read 0,
    NaN for an infinite gamma, or inf for a subnormal one)."""
    if not (gamma > 0.0 and math.isfinite(gamma * n_steps)
            and math.isfinite(1.0 / (gamma * n_steps))):
        raise ValueError(f"gamma {gamma} unusable for n_steps {n_steps}: gamma must be "
                         "positive and gamma * n_steps finite, with a finite reciprocal")


@dataclass(frozen=True)
class GuaranteeReport:
    """Outcome of checking the finite-sample bound on one realised run."""

    n_steps: int
    mean_err: float
    deviation: float
    bound: float
    satisfied: bool


def check_guarantee(errs, eps_target: float, eps1: float, gamma: float) -> GuaranteeReport:
    """Verify the telescoping bound on a realised error sequence.

    ``errs`` is the per-step 0/1 error sequence of a run driven by this
    controller.  The bound holds on every sample path, so a violation
    always indicates a defect (wrong update order, clamped levels leaking
    into control, a predictor ignoring the boundary contract, ...).
    """
    errs = [int(e) for e in errs]
    if not errs:
        raise ValueError("empty error sequence")
    if any(e not in (0, 1) for e in errs):
        raise ValueError("error indicators must be 0 or 1")
    n = len(errs)
    mean_err = sum(errs) / n
    dev = abs(eps_target - mean_err)
    bound = deviation_bound(eps1, gamma, n)
    # Guard the comparison against accumulated float noise only; the
    # mathematical inequality is exact.
    ok = dev <= bound * (1.0 + 1e-12) + 1e-15
    return GuaranteeReport(n_steps=n, mean_err=mean_err, deviation=dev,
                           bound=bound, satisfied=bool(ok))
