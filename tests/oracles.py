"""Independent reference routes shared across test modules.

Each function recomputes a quantity through a deliberately different
algorithm from the library implementation, so a test can compare two
routes that share no code.
"""
import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from aci_lab.numerics import distances, k_smallest, within


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
