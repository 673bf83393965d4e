"""Small numeric kernels shared by the predictors.

Ridge/least-squares systems are solved through one SPD factorisation
path over a Gram matrix the caller may keep up to date; Student-t
quantiles come from scipy's ``stdtrit``; empirical quantiles use the
ceiling (worst-case) convention throughout the package.  Every k-NN
route finds neighbours through the same kernels: ``distances``, the
one distance definition (one query row against every row, or paired
rows; ``knn_cp_predict``'s pairwise matrix uses the first, the screened
row blocks of the online full-CP k-NN class the second), the Gram screen
(``gram_screen``, ``kth_bound``, ``within``, ``screened_distances`` and
``screened_nearest``: one matrix product and a rounding-error bound
rule out the rows that cannot matter, and the rest get the direct
``distances`` value, so every value that reaches an output is the
direct one), ``k_smallest`` values or ``k_nearest`` indices, and
``vote_shares``.  ``screened_nearest`` searches one query row (the
online predictors) or a matrix of them in blocks of about 2^14 (query,
row) pairs (the offline scorers' tables).  ``k_nearest`` selects by
one partition plus a stable sort of the candidates at or below the
k-th value, so ties at that value keep "earlier index wins"; it needs
finite input, which every distance kernel here guarantees.
"""

import math

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.special import stdtrit


class NumericError(RuntimeError):
    """Singular or hopelessly ill-conditioned system.

    Carries an estimate of the condition number of the normal matrix so
    callers can report how bad things were.
    """

    def __init__(self, message: str, cond: float = math.inf):
        super().__init__(f"{message} (cond estimate {cond:.3g})")
        self.cond = cond


class RidgeSystem:
    """Cholesky factorisation of G + a*I for a Gram matrix G = X'X, reused
    for several solves.  LAPACK is called directly, so G and every
    right-hand side are checked for non-finite values here."""

    def __init__(self, G: np.ndarray, a: float):
        G = np.asarray(G, dtype=float)
        if G.ndim != 2 or G.shape[0] != G.shape[1]:
            raise ValueError(f"Gram matrix must be square, got shape {G.shape}")
        if not np.isfinite(G).all():
            raise ValueError("Gram matrix contains non-finite values")
        if a < 0.0:
            raise ValueError(f"ridge coefficient must be >= 0, got {a}")
        M = G.copy()
        M.flat[::M.shape[0] + 1] += a
        self._factor, info = dpotrf(M, lower=0, clean=0)
        if info > 0:
            raise NumericError("normal matrix is not positive definite",
                               cond=float(np.linalg.cond(M)))
        # An exactly singular M can still factor with a ~1e-15 pivot from
        # rounding; the squared pivot ratio is a free lower bound on cond.
        # The p pivots are few enough that plain floats beat numpy here.
        d = [abs(v) for v in self._factor.diagonal().tolist()]
        if d and (min(d) <= 0.0 or (max(d) / min(d)) ** 2 > 1e12):
            raise NumericError("normal matrix is numerically singular",
                               cond=float(np.linalg.cond(M)))

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve (G + a*I) w = b."""
        b = np.asarray(b, dtype=float)
        if not np.isfinite(b).all():
            raise ValueError("right-hand side contains non-finite values")
        return dpotrs(self._factor, b, lower=0)[0]


def student_t_quantile(p: float, dof: int) -> float:
    """Inverse Student-t CDF (``scipy.special.stdtrit``).

    dof must be a positive integer; p strictly inside (0, 1).
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability {p} outside (0, 1)")
    if int(dof) != dof or dof < 1:
        raise ValueError(f"degrees of freedom must be a positive integer, got {dof!r}")
    return float(stdtrit(int(dof), p))


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


# (query, row) pairs screened at once in a matrix search: 2^14 Gram
# values (128 KB) per block.
_PAIRS = 1 << 14

# Unit roundoff of float64.
_U = 2.0 ** -53


def distances(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Euclidean distance from ``x`` to every row of ``A`` for one query
    row, or from each row of ``A`` to the same row of ``x`` for one query
    per row: ``sqrt(sum((A - x)**2, axis=1))``, the package's only
    distance definition.  numpy sums each contiguous row of the
    differences in one order whatever the row count, so a paired row is
    bit-equal to the one-row call for its query.  A non-finite row or
    query, or finite features whose squared differences overflow, give a
    non-finite distance, so one reduction over the outputs turns them
    into a ValueError (and no numpy warning).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.sqrt(np.sum((A - x) ** 2, axis=1))
    if not np.isfinite(d.sum()):
        raise ValueError("features contain non-finite values or values too large "
                         "for distances")
    return d


def gram_screen(A: np.ndarray, sq: np.ndarray, x: np.ndarray):
    """Certified bounds on the direct distances from ``x`` to the rows of
    ``A`` from one matrix product: ``(g, slack)`` with g = sq + x.x - 2 A x,
    where ``sq`` holds the rows' squared norms (summed in any order), such
    that the sum of squared differences D that ``distances`` takes the
    root of lies within g -/+ slack, with room to spare for the roundings
    of the tests made from them.  A matrix of queries gives one row of g
    and slack per query.

    The bound.  Let u = 2^-53, gamma_m = m u / (1 - m u) and s the exact
    squared distance |a - x|^2.  For any summation order (BLAS blocking
    and fused multiply-adds included) sq, x.x and 2 a.x are within
    gamma_p |a|^2, gamma_p |x|^2 and gamma_p (|a|^2 + |x|^2) of their
    exact values, and two more roundings follow, so |g - s| <=
    2 gamma_{p+4} (|a|^2 + |x|^2); the direct sum has |D - s| <=
    gamma_{p+2} s, and s <= 2 (|a|^2 + |x|^2).  Hence, for (p + 4) u <= 1/2,

        |D - g| <= 8 (p + 4) u (|a|^2 + |x|^2).

    slack = 16 (p + 4) (u (sq + x.x) + 2^-1022) is twice that (|a|^2 +
    |x|^2 exceeds sq + x.x by a factor 1 + gamma_p at most).  The spare
    half covers the roundings of slack, of g -/+ slack and of the
    threshold tests in ``screened_distances`` and ``kth_bound``; the
    2^-1022 term covers the absolute error of results that underflow.

    Fallback.  When some sq + x.x >= 2^1020 a direct squared difference
    may overflow; then every slack is +inf, no row is ruled out, and
    every row takes the direct route (and its ValueError).  Below that
    limit g is finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        norms = sq + np.einsum("...j,...j->...", x, x)[..., None]
        if not norms.max() < 2.0 ** 1020:
            return np.zeros(norms.shape), np.full(norms.shape, np.inf)
        # norms - 2 A x, in place: doubling and negation are exact.
        g = x @ A.T
        g *= -2.0
        g += norms
    c = 16.0 * (A.shape[1] + 4)
    norms *= c * _U
    norms += c * 2.0 ** -1022
    return g, norms


def kth_bound(g: np.ndarray, slack: np.ndarray, k: int):
    """A distance T >= the k-th smallest direct distance over the rows
    screened by ``(g, slack)`` of :func:`gram_screen`, one per query along
    the last axis: the square root of the k-th smallest g + slack.  Each
    of those k rows has a direct sum D <= g + slack even after that sum
    is rounded (the slack's spare half), and a rounded square root is
    monotone.  +inf with fewer than k rows.  A row certified farther than
    T can neither be among the k nearest nor tie with the k-th."""
    if g.shape[-1] < k:
        return np.full(g.shape[:-1], np.inf)
    if k == 1:
        return np.sqrt(np.min(g + slack, axis=-1))
    return np.sqrt(np.partition(g + slack, k - 1, axis=-1)[..., k - 1])


def within(g: np.ndarray, slack: np.ndarray, thr) -> np.ndarray:
    """Rows whose direct distance may be <= ``thr``: the others have
    g - slack > thr^2 (1 + 4u), enough that even the rounded square
    root of their direct sum exceeds thr.  A NaN keeps its row."""
    return ~(g - slack > thr * thr * (1.0 + 4.0 * _U))


def screened_distances(A: np.ndarray, x: np.ndarray, g: np.ndarray, slack: np.ndarray,
                       thr) -> np.ndarray:
    """``distances(A, x)``, bit for bit, at every row whose direct distance
    may be <= ``thr`` (a scalar or one value per row); +inf at the rows
    that the screen ``(g, slack)`` of :func:`gram_screen` certifies
    farther."""
    keep = within(g, slack, thr)
    d = np.full(A.shape[0], np.inf)
    d[keep] = distances(A[keep], x)
    return d


def screened_nearest(A: np.ndarray, sq: np.ndarray, x: np.ndarray, k: int) -> np.ndarray:
    """``k_nearest(distances(A, x), k)`` through the Gram screen for one
    query row x, and one such row per query for a matrix of them; ``sq``
    holds the rows' squared norms.

    One query: only the rows not certified farther than
    :func:`kth_bound` get a direct distance.  They are searched in index
    order, so of equal distances the earlier index still wins.

    A matrix is searched in blocks of about ``_PAIRS`` (query, row) pairs,
    each screened by one matrix product.  Each kept pair of query i and
    row j gets the paired direct distance of ``A[j]`` and ``x[i]``,
    bit-equal to the one-row value.  Each query then selects by (distance, index): its
    candidates, in index order and padded with +inf, are stable-sorted
    along the row.
    """
    if x.ndim == 1:
        g, slack = gram_screen(A, sq, x)
        cand = within(g, slack, kth_bound(g, slack, k)).nonzero()[0]
        return cand[k_nearest(distances(A[cand], x), k)]
    n = A.shape[0]
    near = np.empty((x.shape[0], min(k, n)), dtype=np.intp)
    step = max(1, _PAIRS // n)
    for lo in range(0, x.shape[0], step):
        Q = x[lo:lo + step]
        g, slack = gram_screen(A, sq, Q)
        keep = within(g, slack, kth_bound(g, slack, k)[:, None])
        qi, j = np.divmod(np.flatnonzero(keep), n)
        counts = np.bincount(qi, minlength=Q.shape[0])
        start = np.cumsum(counts) - counts
        D = np.full((Q.shape[0], counts.max()), np.inf)
        D[qi, np.arange(qi.shape[0]) - start[qi]] = distances(A[j], Q[qi])
        order = D.argsort(axis=1, kind="stable")[:, :k]
        near[lo:lo + step] = j[start[:, None] + order]
    return near


def k_smallest(values: np.ndarray, k: int) -> np.ndarray:
    """The min(k, n) smallest values along the last axis, ascending."""
    if k == 1 and values.shape[-1]:
        return values.min(axis=-1, keepdims=True)
    if k < values.shape[-1]:
        values = np.partition(values, k - 1, axis=-1)[..., :k]
    return np.sort(values, axis=-1)


def k_nearest(d: np.ndarray, k: int) -> np.ndarray:
    """Indices of the min(k, n) smallest of n distances, nearest first; of
    equal distances the earlier index wins (k >= 1, finite d).

    One partition finds the k-th smallest value v; every entry <= v is a
    candidate, in index order, so all ties at v are kept, and a stable
    sort of those few candidates gives the first k.
    """
    if k >= d.shape[0]:
        return np.argsort(d, kind="stable")
    near = (d <= np.partition(d, k - 1)[k - 1]).nonzero()[0]
    return near[d[near].argsort(kind="stable")[:k]]


def vote_shares(votes: np.ndarray, label_space) -> np.ndarray:
    """Share of each label (label-space order) among the votes along the
    last axis."""
    hits = votes[..., None] == np.asarray(label_space)
    return hits.sum(axis=-2) / votes.shape[-1]


def ceil_index(t: float) -> int:
    """ceil(t) robust to float noise just above an integer (0.2*10 style)."""
    return int(math.ceil(t - 1e-9))


def floor_index(t: float) -> int:
    """floor(t) robust to float noise just below an integer."""
    return int(math.floor(t + 1e-9))
