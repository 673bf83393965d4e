"""Small numeric kernels shared by the predictors.

Ridge/least-squares systems are solved through one SPD factorisation
path; Student-t quantiles are inverted from the regularised incomplete
beta; empirical quantiles use the ceiling (worst-case) convention
throughout the package.
"""

import math

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.special import betainc


class NumericError(RuntimeError):
    """Singular or hopelessly ill-conditioned system.

    Carries an estimate of the condition number of the normal matrix so
    callers can report how bad things were.
    """

    def __init__(self, message: str, cond: float = math.inf):
        super().__init__(f"{message} (cond estimate {cond:.3g})")
        self.cond = cond


class RidgeSystem:
    """Cholesky factorisation of X'X + a*I, reused for several solves."""

    def __init__(self, X: np.ndarray, a: float):
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"design matrix must be 2-D, got shape {X.shape}")
        if not np.all(np.isfinite(X)):
            raise ValueError("design matrix contains non-finite values")
        if a < 0.0:
            raise ValueError(f"ridge coefficient must be >= 0, got {a}")
        p = X.shape[1]
        M = X.T @ X + a * np.eye(p)
        try:
            self._factor = cho_factor(M)
        except np.linalg.LinAlgError as exc:
            raise NumericError("normal matrix is not positive definite",
                               cond=float(np.linalg.cond(M))) from exc
        # An exactly singular M can still factor with a ~1e-15 pivot from
        # rounding; the squared pivot ratio is a free lower bound on cond.
        d = np.abs(np.diag(self._factor[0]))
        if d.size and (not np.all(d > 0.0)
                       or (float(d.max()) / float(d.min())) ** 2 > 1e12):
            raise NumericError("normal matrix is numerically singular",
                               cond=float(np.linalg.cond(M)))

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve (X'X + a*I) w = b."""
        return cho_solve(self._factor, np.asarray(b, dtype=float))


def student_t_quantile(p: float, dof: int) -> float:
    """Inverse Student-t CDF by bisection on the incomplete-beta form.

    Accurate to |CDF(result) - p| <= 1e-10.  dof must be a positive
    integer; p strictly inside (0, 1).
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability {p} outside (0, 1)")
    if int(dof) != dof or dof < 1:
        raise ValueError(f"degrees of freedom must be a positive integer, got {dof!r}")
    dof = int(dof)
    if p == 0.5:
        return 0.0
    # Invert on the tail: solve betainc(dof/2, 1/2, x) = 2*min(p, 1-p)
    # for x in (0, 1), then map back through t = sqrt(dof*(1-x)/x).
    tail2 = 2.0 * min(p, 1.0 - p)
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if betainc(dof / 2.0, 0.5, mid) < tail2:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    t = math.sqrt(dof * (1.0 - x) / x) if x > 0.0 else math.inf
    return t if p > 0.5 else -t


def empirical_quantile(values, q: float) -> float:
    """Order statistic at 1-based index ceil(q * m), clamped to [1, m].

    The ceiling ("higher") convention matches the worst-case reading of a
    finite sample; q = 0 gives the minimum, q = 1 the maximum.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile level {q} outside [0, 1]")
    arr = np.sort(np.asarray(values, dtype=float))
    m = arr.shape[0]
    if m == 0:
        raise ValueError("empty sample")
    if not np.all(np.isfinite(arr)):
        raise ValueError("sample contains non-finite values")
    idx = ceil_index(q * m)
    idx = min(max(idx, 1), m)
    return float(arr[idx - 1])


def ceil_index(t: float) -> int:
    """ceil(t) robust to float noise just above an integer (0.2*10 style)."""
    return int(math.ceil(t - 1e-9))


def floor_index(t: float) -> int:
    """floor(t) robust to float noise just below an integer."""
    return int(math.floor(t + 1e-9))


def isotonic_monotonize(levels, values) -> np.ndarray:
    """Least-squares non-decreasing fit by pool-adjacent-violators.

    ``levels`` must be strictly increasing and is used only to validate
    the pairing; the unweighted fit depends on ``values`` alone.
    """
    levels = np.asarray(levels, dtype=float)
    values = np.asarray(values, dtype=float)
    if levels.shape != values.shape or levels.ndim != 1:
        raise ValueError("levels and values must be matching 1-D arrays")
    if levels.shape[0] == 0:
        raise ValueError("empty input")
    if np.any(np.diff(levels) <= 0.0):
        raise ValueError("levels must be strictly increasing")
    if not (np.all(np.isfinite(levels)) and np.all(np.isfinite(values))):
        raise ValueError("non-finite input")

    # Stack of blocks (mean, weight); merge backwards while out of order.
    means: list[float] = []
    weights: list[int] = []
    for v in values:
        mean, w = float(v), 1
        while means and means[-1] > mean:
            prev_mean, prev_w = means.pop(), weights.pop()
            mean = (mean * w + prev_mean * prev_w) / (w + prev_w)
            w += prev_w
        means.append(mean)
        weights.append(w)
    out = np.empty_like(values)
    pos = 0
    for mean, w in zip(means, weights):
        out[pos:pos + w] = mean
        pos += w
    return out
