"""Small numeric kernels shared by the predictors.

Ridge/least-squares systems are solved through one SPD factorisation
path over a Gram matrix the caller may keep up to date; Student-t
quantiles come from scipy's ``stdtrit``; empirical quantiles use the
ceiling (worst-case) convention throughout the package.  Every k-NN
route finds neighbours through the same kernels: ``distances``, the
one distance definition (one query row against every row, or paired
rows), the Gram screen (``gram_screen``, also of rows against each
other, each pair once; ``kth_bound``, ``within``, ``reach`` and
``screened_nearest``: one matrix product and
a rounding-error bound, one slack per query from the largest squared
row norm, rule out the rows that cannot matter, and the rest get the
direct ``distances`` value, so every value that reaches an output is
the direct one), ``k_smallest`` values or ``k_nearest`` indices, and
``vote_shares``.  The online classes call the screen's kernels
themselves in float32 from a float32 copy of the rows (``gram_screen``'s
single route, with its own slack; one query, or knn-cp's self-join)
where float32 neither overflows nor underflows.  ``screened_nearest``
searches a matrix of query rows (the offline scorers' tables; a
one-vector call is a matrix of one row) in blocks of about 2^14 (query,
row) pairs, in float64.
``k_nearest`` is one stable argsort, so of equal distances the earlier
index wins; it needs finite input, which every distance kernel here
guarantees.
"""

import math

import numpy as np
from scipy.linalg.blas import dsyrk, ssyrk
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.special import stdtrit


class NumericError(RuntimeError):
    """Singular or hopelessly ill-conditioned system.

    Carries a free estimate of the condition number of the normal matrix
    (squared pivot ratio; inf where the factorisation stopped) for reports.
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
        if not 0.0 <= a < math.inf:
            raise ValueError(f"ridge coefficient must be finite and >= 0, got {a}")
        # dpotrf copies G unless allowed to overwrite it; G + a*I needs its own.
        if a > 0.0:
            G = G.copy(order="F")
            G.flat[::G.shape[0] + 1] += a
        self._factor, info = dpotrf(G, lower=0, clean=0, overwrite_a=a > 0.0)
        if info > 0:
            raise NumericError("normal matrix is not positive definite")
        # An exactly singular G + a*I can still factor with a ~1e-15 pivot from
        # rounding; the squared pivot ratio is a free lower bound on cond (no
        # SVD), and the p pivots are few enough that plain floats beat numpy.
        d = [abs(v) for v in self._factor.diagonal().tolist()]
        if d and (min(d) <= 0.0 or max(d) > 1e6 * min(d)):
            r = max(d) / min(d) if min(d) > 0.0 else math.inf
            raise NumericError("normal matrix is numerically singular", cond=r * r)

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
    return order_statistic(sorted_sample(values), q)


def sorted_sample(values) -> np.ndarray:
    """``values`` sorted along the last axis, refused if empty or non-finite."""
    arr = np.sort(np.asarray(values, dtype=float))
    if arr.shape[-1] == 0:
        raise ValueError("empty sample")
    if not np.isfinite(arr).all():
        raise ValueError("sample contains non-finite values")
    return arr


def order_statistic(row: np.ndarray, q: float) -> float:
    """``empirical_quantile`` of a row from ``sorted_sample``, unchecked."""
    return float(row[min(max(ceil_index(q * len(row)), 1), len(row)) - 1])


# (query, row) pairs screened at once in a matrix search: 2^14 Gram
# values (128 KB) per block.
_PAIRS = 1 << 14

# Unit roundoff of float64.
_U = 2.0 ** -53
# The single route's range for max sq + x.x, and its largest p.
_SINGLE_LO, _SINGLE_HI, _SINGLE_P = 2.0 ** -96, 2.0 ** 96, 1 << 20


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
        d = np.sqrt(((A - x) ** 2).sum(axis=1))
    if not math.isfinite(d.sum()):
        raise ValueError("features contain non-finite values or values too large "
                         "for distances")
    return d


def gram_screen(A: np.ndarray, sq: np.ndarray, x: np.ndarray | None = None,
                rows: int | None = None, single: np.ndarray | None = None):
    """Certified bounds on the direct distances from ``x`` to the rows of
    ``A`` from one matrix product: ``(g, slack)`` with g = sq + x.x - 2 A x,
    where ``sq`` holds the rows' squared norms (summed in any order), such
    that the sum of squared differences D that ``distances`` takes the
    root of lies within g -/+ slack, with room to spare for the roundings
    of the tests made from them.  One slack per query: a scalar for one
    query row, a column for a matrix of them (a row of g per query).

    Without ``x``, A's first ``rows`` rows are the queries against all of
    A's rows, each pair once: only cells (i, j) with j > i are formed (the
    square by BLAS ``syrk``); the others hold g = +inf (0 in the fallback).

    The bound.  Let u = 2^-53, gamma_m = m u / (1 - m u) and s the exact
    squared distance |a - x|^2.  For any summation order (BLAS blocking
    and fused multiply-adds included) sq, x.x and 2 a.x are within
    gamma_p |a|^2, gamma_p |x|^2 and gamma_p (|a|^2 + |x|^2) of their
    exact values, and two more roundings follow, so |g - s| <=
    2 gamma_{p+4} (|a|^2 + |x|^2); the direct sum has |D - s| <=
    gamma_{p+2} s, and s <= 2 (|a|^2 + |x|^2).  Hence, for (p + 4) u <= 1/2,

        |D - g| <= 8 (p + 4) u (|a|^2 + |x|^2).

    A query's slack, 16 (p + 4) (u (max sq + x.x) + 2^-1022), is at least
    twice that for each of its rows (|a|^2 + |x|^2 exceeds sq + x.x by a
    factor 1 + gamma_p at most).  The spare half, about 8 (p + 4) u (max
    sq + x.x), covers the roundings of the slack, of g -/+ slack and of
    the tests folded from them (``kth_bound`` adds the slack to the k-th
    smallest g, ``within`` to the squared threshold): g < 3 (max sq +
    x.x), so wherever a test can rule a row out each of its roundings is
    a few u (max sq + x.x) at most.  The 2^-1022 term covers the absolute
    error of results that underflow.

    Fallback.  When max sq or some x.x reaches 2^1020 a direct squared
    difference may overflow; then every g is 0 and every slack +inf, so
    no row is ruled out and every row takes the direct route (and its
    ValueError).  Below that limit g is finite.

    Single route.  Given ``single``, a float32 copy of A's rows, a screen
    with M = max sq + x.x (a block's largest x.x) in [2^-96, 2^96) and p <=
    2^20 takes g = sq + x.x - 2t, t the float32 product of ``single`` and
    x rounded to float32 (without x, of the copy's first ``rows`` rows and
    all of them, -2 applied in float32, which is exact); the rest stays
    float64, and A is read for its shape only.  Let v = 2^-24, gamma'_m =
    m v / (1 - m v) and S = |a|^2 + |x|^2 <= (1 + 2 gamma_p) M.  Rounding
    to float32 moves each entry by at most v times itself plus 2^-150
    (subnormals included; no entry exceeds 2^49), and each float32
    operation of the product, in any order and with fused multiply-adds,
    is exact to a factor 1 + d, |d| <= v, plus 2^-150 where a product
    underflows.  With sum |a_i x_i| <= S/2, |a|_1 + |x|_1 <= (2pS)^(1/2)
    and p v <= 2^-4, |2t - 2 a.x| <= (gamma'_p (1 + v)^2 + 2v + v^2) S + E
    <= (5/4) (p + 2) v S + E, where the underflow terms E (p 2^-148,
    2^-149 (2pS)^(1/2) and smaller) stay below 2^-7 v M, and no partial
    sum reaches 2^97.  The float64 roundings (sq, x.x, two additions) and
    the direct sum's gamma_{p+2} s add less than 2^-7 v S.  Hence |D - g|
    <= 2 (p + 4) v M for every pair, and the slack, 4 (p + 4) v M (one for
    a block, at least each row's own), is twice that; its spare half
    covers the float64 roundings of the tests many times over.  Other
    inputs take the float64 route, so a row whose sq reaches 2^96 is never
    read from the copy.
    """
    q = A[:rows] if x is None else x
    # Neither form warns on overflow; an infinite x.x takes the fallback.
    qq = sq[:rows, None] if x is None else np.vdot(q, q) if q.ndim == 1 else (
        np.einsum("ij,ij->i", q, q)[:, None])
    top, big = sq.max(initial=0.0), qq.max() if q.ndim == 2 else qq
    p, shape = A.shape[1], (q.shape[0], A.shape[0]) if q.ndim == 2 else (A.shape[0],)
    if single is not None and takes_single(p, top + big):
        B, slack = single, 4.0 * (p + 4) * 2.0 ** -24 * (top + big)
    elif max(top, big) < 2.0 ** 1020:
        B, slack = A, 16.0 * (p + 4) * (_U * (top + qq) + 2.0 ** -1022)
    else:
        return np.zeros(shape), np.full(qq.shape, np.inf)
    # sq + x.x - 2 A x: doubling and negation are exact, in float32 too.
    if x is None:
        g = np.empty(shape, B.dtype)
        g[:, :rows] = (ssyrk if B is single else dsyrk)(-2.0, B[:rows].T, trans=1)
        np.matmul(B[:rows] * -2.0, B[rows:].T, out=g[:, rows:])
        g = g.astype(float, copy=False)
    elif B is single:
        g = np.multiply(single @ x.astype(np.float32), -2.0, dtype=float)
    else:
        g = (q * -2.0) @ A.T
    g += sq
    g += qq
    if x is None:
        g[:, :rows][np.tri(rows, dtype=bool)] = np.inf
    return g, slack


def takes_single(p, m) -> bool:
    """Whether ``gram_screen`` takes its single route: p features, max sq + x.x = m."""
    return p <= _SINGLE_P and _SINGLE_LO <= m < _SINGLE_HI


def kth_bound(g: np.ndarray, slack, k: int):
    """A distance T >= the k-th smallest direct distance over the rows
    screened by ``(g, slack)`` of :func:`gram_screen`, one per query along
    the last axis: the square root of the k-th smallest g plus the
    query's slack, which (rounding being monotone) is the k-th smallest
    g + slack.  Each of those k rows has a direct sum D <= g + slack even
    after that sum is rounded (the slack's spare half), and a rounded
    square root is monotone.  +inf with fewer than k rows.  A row
    certified farther than T can neither be among the k nearest nor tie
    with the k-th."""
    if g.shape[-1] < k:
        return np.full(g.shape[:-1], np.inf)
    kth = g.min(-1, keepdims=True) if k == 1 else np.partition(g, k - 1)[..., k - 1:k]
    return np.sqrt(kth + slack)[..., 0]


def within(g: np.ndarray, slack, thr) -> np.ndarray:
    """Rows whose direct distance may be <= ``thr``: the others have
    g > ``reach(thr)`` + slack, enough that even the rounded square root
    of their direct sum exceeds thr."""
    return g <= reach(thr) + slack


def reach(thr):
    """The largest g - slack that ``within`` keeps for thr: thr^2 (1 + 4u)."""
    return thr * thr * (1.0 + 4.0 * _U)


def screened_nearest(A: np.ndarray, sq: np.ndarray, x: np.ndarray, k: int) -> np.ndarray:
    """``k_nearest(distances(A, x), k)`` through the Gram screen for one
    query row x, and one such row per query for a matrix of them; ``sq``
    holds the rows' squared norms.

    The queries, one row for a single query, are searched in blocks of
    about ``_PAIRS`` (query, row) pairs, each screened by one matrix
    product.  Only a pair not certified farther than :func:`kth_bound`,
    of query i and row j, gets a direct distance: the paired one of
    ``A[j]`` and ``x[i]``, bit-equal to the one-row value.  Each query
    then selects by (distance, index): its candidates, in index order and
    padded with +inf, are stable-sorted along the row.
    """
    if x.ndim == 1:
        return screened_nearest(A, sq, x[None], k)[0]
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
    equal distances the earlier index wins (k >= 1, finite d)."""
    return np.argsort(d, kind="stable")[:k]


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
