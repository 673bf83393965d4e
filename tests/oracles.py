"""Independent reference routes shared across test modules.

Each function recomputes a quantity through a deliberately different
algorithm from the library implementation, so a test can compare two
routes that share no code.
"""
import math

import numpy as np
from scipy.integrate import quad
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.optimize import brentq

from aci_lab.core import PredictionSet
from aci_lab.numerics import (NumericError, ceil_index, distances, floor_index, k_smallest,
                              student_t_quantile, within)


def crr_grid_oracle(hist_X, hist_y, x, eps, a=0.0):
    """Ridge-regression conformal interval by brute force: score candidate
    labels on a fine grid with exact two-sided rank p-values and read off
    the hull of the included range.  Returns (lo, hi, grid_step).

    Residuals are linear in the candidate label, so rank counts only
    change where two residual lines cross.  The grid is therefore
    augmented with every crossing (plus one-step and midpoint neighbours,
    some crossings fall outside any fixed span), and the two infinite
    directions are decided analytically by slope rank, so a kept far ray
    is never mistaken for a bounded end.
    """
    n = len(hist_y) + 1
    X = np.vstack([hist_X, x[None, :]])
    M = X.T @ X + a * np.eye(X.shape[1])
    C = np.eye(n) - X @ np.linalg.solve(M, X.T)
    r = float(hist_y.max() - hist_y.min()) or 1.0
    step = 1e-3 * r
    grid = np.arange(hist_y.min() - 5 * r, hist_y.max() + 5 * r + step / 2, step)
    base = C[:, :-1] @ hist_y
    slope = C[:, -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        crossings = (base[:-1] - base[-1]) / (slope[-1] - slope[:-1])
    crossings = np.sort(crossings[np.isfinite(crossings)])
    pts = [grid]
    if crossings.size:
        pts += [crossings, crossings - step, crossings + step,
                (crossings[:-1] + crossings[1:]) / 2.0]
    ys = np.unique(np.concatenate(pts))
    E = base[:, None] + np.outer(slope, ys)
    keep = (((E >= E[-1]).mean(axis=0) > eps / 2)
            & ((E <= E[-1]).mean(axis=0) > eps / 2))

    d_b = slope - slope[-1]
    d_a = base - base[-1]

    def limit_keep(sign):
        ge = (sign * d_b > 0) | ((d_b == 0) & (d_a >= 0))
        le = (sign * d_b < 0) | ((d_b == 0) & (d_a <= 0))
        return ge.mean() > eps / 2 and le.mean() > eps / 2

    kept = ys[keep]
    lo = -math.inf if limit_keep(-1) else \
        (float(kept[0]) if kept.size else math.nan)
    hi = math.inf if limit_keep(+1) else \
        (float(kept[-1]) if kept.size else math.nan)
    return lo, hi, step


def t_pdf(u: float, dof: int) -> float:
    lg = (math.lgamma((dof + 1) / 2) - math.lgamma(dof / 2)
          - 0.5 * math.log(dof * math.pi))
    return math.exp(lg) * (1.0 + u * u / dof) ** (-(dof + 1) / 2)


def t_cdf_by_integration(t: float, dof: int) -> float:
    """Student t CDF by adaptive quadrature of the explicit density."""
    if t >= 0:
        tail, _ = quad(t_pdf, t, math.inf, args=(dof,))
        return 1.0 - tail
    tail, _ = quad(t_pdf, -math.inf, t, args=(dof,))
    return tail


def t_quantile_by_integration(p: float, dof: int) -> float:
    """Student t quantile by bracketed root finding on the integrated CDF."""
    lo, hi = -1.0, 1.0
    while t_cdf_by_integration(lo, dof) > p:
        lo *= 2.0
    while t_cdf_by_integration(hi, dof) < p:
        hi *= 2.0
    return float(brentq(lambda t: t_cdf_by_integration(t, dof) - p,
                        lo, hi, xtol=1e-10))


def _knn_ratio(d, same, k):
    """Strangeness ratio of one bag member from its distances ``d`` to the
    others and which of them share its label, with the missing-side
    conventions, one case at a time."""
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


def knn_cp_p_values(hist_X, hist_y, x, k, labels):
    """Each label's full-CP k-NN p-value, in ``labels`` order, by brute
    force: the bag completed by (x, label) is rescored from scratch, every
    member against every other by direct distances, with no shared
    distance work, and the p-value is #{alpha_i >= alpha_x} / (n + 1)."""
    n = len(hist_y)
    bag_X = np.vstack([hist_X, x])
    p = []
    for lab in labels:
        bag_y = np.append(hist_y, lab)
        alphas = np.empty(n + 1)
        for i in range(n + 1):
            d = np.sqrt(np.sum((bag_X - bag_X[i]) ** 2, axis=1))
            mask = np.arange(n + 1) != i
            alphas[i] = _knn_ratio(d[mask], bag_y[mask] == bag_y[i], k)
        p.append(np.count_nonzero(alphas >= alphas[n]) / (n + 1))
    return np.array(p)


def direct_nearest(A, x, k):
    """Indices of the min(k, n) rows of A nearest to x, nearest first, by
    one full stable sort of the direct distances, so of equal distances
    the earlier index wins."""
    return np.argsort(distances(A, x), kind="stable")[:k]


def fill_distances(X):
    """The direct pairwise distance matrix over the rows of X: one
    ``distances`` row per point, mirrored into its column, and +inf on
    the diagonal."""
    n = X.shape[0]
    hh = np.empty((n, n))
    for j in range(n):
        hh[j, :j] = hh[:j, j] = distances(X[:j], X[j])
        hh[j, j] = np.inf
    return hh


def neighbor_rows(hh, y, k):
    """Per row of a pairwise distance matrix with +inf on its diagonal, the
    k smallest distances to same-label and to different-label points."""
    same = y[None, :] == y[:, None]
    return (k_smallest(np.where(same, hh, np.inf), k),
            k_smallest(np.where(same, np.inf, hh), k))


def screened_distances(A, x, g, slack, thr):
    """``distances(A, x)`` at every row whose direct distance ``within``
    may keep under ``thr`` (a scalar or one value per row) for the screen
    ``(g, slack)`` of ``gram_screen``, and +inf at the rows it certifies
    farther: the screen as a full row of distances."""
    keep = within(g, slack, thr)
    d = np.full(A.shape[0], np.inf)
    d[keep] = distances(A[keep], x)
    return d


# The ridge routes in their plain form: a copy of G + aI factored, one
# solve per right-hand side, the CRR critical values gathered by boolean
# masks and each endpoint's own partition.  The library's in-place,
# copy-free and single-solve routes must equal them bit for bit.

class PlainRidgeSystem:
    """Cholesky factorisation of a fresh copy of G + a*I, with the
    library's checks and its singularity rule."""

    def __init__(self, G, a):
        G = np.asarray(G, dtype=float)
        if G.ndim != 2 or G.shape[0] != G.shape[1]:
            raise ValueError(f"Gram matrix must be square, got shape {G.shape}")
        if not np.isfinite(G).all():
            raise ValueError("Gram matrix contains non-finite values")
        if not 0.0 <= a < math.inf:
            raise ValueError(f"ridge coefficient must be finite and >= 0, got {a}")
        M = G.copy()
        M.flat[::M.shape[0] + 1] += a
        self._factor, info = dpotrf(M, lower=0, clean=0)
        if info > 0:
            raise NumericError("normal matrix is not positive definite")
        d = [abs(v) for v in self._factor.diagonal().tolist()]
        if d and (min(d) <= 0.0 or max(d) > 1e6 * min(d)):
            r = max(d) / min(d) if min(d) > 0.0 else math.inf
            raise NumericError("normal matrix is numerically singular", cond=r * r)

    def solve(self, b):
        b = np.asarray(b, dtype=float)
        if not np.isfinite(b).all():
            raise ValueError("right-hand side contains non-finite values")
        return dpotrs(self._factor, b, lower=0)[0]


def plain_crr_interval(hist_X, hist_y, gram, xty, x, eps, a):
    """The CRR interval from X'X (``gram``) and X'y (``xty``); raises
    NumericError on a singular system."""
    n_hist = hist_X.shape[0]
    n = n_hist + 1
    system = PlainRidgeSystem(gram + x[:, None] * x, a)
    wh = np.ascontiguousarray(system.solve(np.array([xty, x]).T))
    fit = hist_X @ wh
    xw, xh = x @ wh
    a_diff = hist_y - fit[:, 0] + xw
    b_diff = fit[:, 1] + (1.0 - xh)
    good = b_diff > 0.0
    crit = a_diff[good] / b_diff[good]
    jl = floor_index(0.5 * eps * n) - (n_hist - crit.shape[0])
    ju = ceil_index((1.0 - 0.5 * eps) * n)
    lower, upper = -math.inf, math.inf
    if jl >= 1:
        crit.partition(jl - 1)
        lower = crit[jl - 1]
    if ju <= crit.shape[0]:
        crit.partition(ju - 1)
        upper = crit[ju - 1]
    return PredictionSet.interval(lower, upper)


def plain_ols_interval(hist_X, hist_y, gram, xty, x, eps, a):
    """The classical OLS interval from X'X (``gram``) and X'y (``xty``);
    the whole line below one residual degree of freedom or on a singular
    system."""
    m, p = hist_X.shape
    dof = m - p
    if dof < 1:
        return PredictionSet.full_interval()
    try:
        system = PlainRidgeSystem(gram, a)
        w = system.solve(xty)
    except NumericError:
        return PredictionSet.full_interval()
    yhat = float(x @ w)
    residuals = hist_y - hist_X @ w
    rss = float(residuals @ residuals)
    sigma = math.sqrt(max(rss, 0.0) / dof)
    leverage = float(x @ system.solve(x))
    t = student_t_quantile(1.0 - 0.5 * eps, dof)
    half = t * sigma * math.sqrt(max(1.0 + leverage, 0.0))
    return PredictionSet.interval(yhat - half, yhat + half)
