"""Full (transductive) conformal prediction over a growing history.

For each candidate completion (x, y) of the history, every bag member is
scored for strangeness by a nonconformity measure, and the candidate's
p-value is the fraction of members at least as strange as it is
(the candidate counts itself, so p >= 1/n always).  The prediction set
keeps the candidates with p-value above eps.

Classification uses a k-nearest-neighbour strangeness ratio; regression
uses (ridge) residuals, for which the candidate sweep collapses to a
closed form because the residual vector is linear in the hypothesised
label: resid(y) = A + y * B.
"""

import math

import numpy as np

from .core import (CLASSIFICATION, REGRESSION, KnnHistoryPredictor,
                   PredictionSet, RidgeHistoryPredictor, boundary_set)
from .numerics import (NumericError, RidgeSystem, ceil_index, distances, floor_index,
                       gram_screen, k_smallest, kth_bound, screened_distances, within)


def p_value(scores, candidate_score: float) -> float:
    """Fraction of bag scores >= the candidate's own score.

    ``scores`` are the nonconformity scores of the full bag *including*
    the candidate, so the result is at least 1/len(scores).
    """
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 1 or scores.shape[0] == 0:
        raise ValueError("scores must be a non-empty 1-D array")
    if np.any(np.isnan(scores)):
        raise ValueError("scores contain NaN")
    return float(np.count_nonzero(scores >= candidate_score)) / scores.shape[0]


def knn_nonconformity(bag_X, bag_y, x, y, k: int) -> float:
    """Strangeness of (x, y) against a bag of labelled examples.

    Ratio of the mean distance to the k nearest same-label bag members
    over the mean distance to the k nearest different-label ones
    (Euclidean).  Fewer than k on either side: average what is there.
    No same-label members at all makes the example maximally strange
    (+inf); no different-label members makes it maximally conforming (0).
    """
    bag_X = np.asarray(bag_X, dtype=float)
    bag_y = np.asarray(bag_y)
    if bag_X.ndim != 2 or bag_X.shape[0] == 0:
        raise ValueError("bag must be a non-empty 2-D array")
    if bag_y.shape != (bag_X.shape[0],):
        raise ValueError("history labels do not match history rows")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    d = distances(bag_X, np.asarray(x, dtype=float))
    return _score_from_distances(d, bag_y == y, k)


def knn_cp_predict(hist_X, hist_y, x, eps: float, k: int, label_space) -> PredictionSet:
    """Full conformal k-NN classifier: keep labels whose completion has
    p-value above eps.

    Runs one candidate completion per label.  Distances are computed once
    (all pairs within the history, directly, plus the candidate row) and
    shared across candidates, so a call costs O(n^2) distance evaluations
    however many labels there are.
    """
    hist_X = np.asarray(hist_X, dtype=float)
    hist_y = np.asarray(hist_y)
    n_hist = hist_X.shape[0]
    if n_hist == 0:
        raise ValueError("history is empty")
    if hist_y.shape != (n_hist,):
        raise ValueError("history labels do not match history rows")
    forced = boundary_set(eps, CLASSIFICATION)
    if forced is not None:
        return forced

    hx = distances(hist_X, np.asarray(x, dtype=float))
    hh = np.empty((n_hist, n_hist))
    _fill_distances(hh, hist_X)
    # Per history point, the k nearest same-label / different-label
    # distances within the history; the candidate only ever adds one
    # distance to one of the two sides.
    same_rows, diff_rows = _neighbor_rows(hh, hist_y, k)
    return _conformal_label_set(same_rows, diff_rows, hx, hist_y, label_space, k, eps)


def _fill_distances(hh: np.ndarray, X: np.ndarray) -> None:
    """Fill the pairwise distance matrix ``hh`` over the n rows of X: one
    direct ``distances`` row per point, mirrored into its column, and
    +inf on the diagonal."""
    for j in range(X.shape[0]):
        hh[j, :j] = hh[:j, j] = distances(X[:j], X[j])
        hh[j, j] = np.inf


# (row, row) pairs screened at once when rows are caught up: 2^16 Gram
# values (512 KB) per block of rows.
_FILL_PAIRS = 1 << 16


def _screened_pairs(X, sq, y, k, start, floor):
    """The pairs that rows start..n-1 of X (squared norms ``sq``, labels
    ``y``) need for their k nearest same-label and different-label
    distances among all n rows, in blocks of about ``_FILL_PAIRS`` pairs.
    Per block of rows lo..hi-1 yields ``(lo, same, r, j, d)``: ``same``
    marks the block's same-label pairs, (hi - lo, n), and d holds the
    direct distances of the kept pairs (lo + r, j).

    One ``gram_screen`` of the block gives each row a per-side
    ``kth_bound`` over every other row.  A pair is kept where ``within``
    says its direct distance may be <= that bound on the pair's side, or
    <= ``floor[side, j]`` (0 same label, 1 different); never the self
    pair.  So a row's k nearest on each side, ties included, are among
    its kept pairs, and so is every distance below ``floor``.  Each kept
    pair gets one paired ``distances`` value."""
    n = X.shape[0]
    step = max(1, _FILL_PAIRS // n)
    for lo in range(start, n, step):
        hi = min(lo + step, n)
        g, slack = gram_screen(X, sq, X[lo:hi])
        same = y[lo:hi, None] == y
        own = np.arange(hi - lo), np.arange(lo, hi)
        g_same = np.where(same, g, np.inf)
        g_same[own] = np.inf
        thr = np.where(same, np.maximum(kth_bound(g_same, slack, k)[:, None], floor[0]),
                       np.maximum(kth_bound(np.where(same, np.inf, g), slack, k)[:, None],
                                  floor[1]))
        keep = within(g, slack, thr)
        keep[own] = False
        r, j = keep.nonzero()
        # Paired distances n pairs at a time: no more memory than a direct row.
        d = [distances(X[j[s:s + n]], X[lo + r[s:s + n]]) for s in range(0, r.shape[0], n)]
        yield lo, same, r, j, np.concatenate([np.empty(0), *d])


def _conformal_label_set(same_rows, diff_rows, d, hist_y, label_space, k, eps) -> PredictionSet:
    """Labels whose candidate completion has p-value above eps.

    ``same_rows``/``diff_rows`` hold each history point's smallest (up to
    k) same-label/different-label distances within the history, ascending,
    +inf where there are fewer, and ``d`` the candidate's distances to the
    history.  The candidate adds d[i] to one side of row i, depending on
    its label, so both merges are made once and selected per label.  The
    p-value counts the candidate itself: (#{alpha_i >= alpha_n} + 1) / (n + 1).
    """
    same, diff = _finite_mean(same_rows), _finite_mean(diff_rows)
    same_with = _finite_mean(k_smallest(np.hstack([same_rows, d[:, None]]), k))
    diff_with = _finite_mean(k_smallest(np.hstack([diff_rows, d[:, None]]), k))
    # Row i's score when the candidate shares its label, and when it does not.
    if_same, if_diff = _ratio(same_with, diff), _ratio(same, diff_with)
    n_bag = d.shape[0] + 1
    kept = []
    for lab in label_space:
        is_same = hist_y == lab
        alphas = np.where(is_same, if_same, if_diff)
        alpha_n = _score_from_distances(d, is_same, k)
        n_ge = int(np.count_nonzero(alphas >= alpha_n)) + 1
        if n_ge / n_bag > eps:
            kept.append(lab)
    return PredictionSet.label_set(kept)


def _score_from_distances(d, same_mask, k: int) -> float:
    same = k_smallest(d[same_mask], k)
    diff = k_smallest(d[~same_mask], k)
    if same.size == 0:
        return math.inf
    if diff.size == 0:
        return 0.0
    same_mean = float(np.mean(same))
    diff_mean = float(np.mean(diff))
    if same_mean == 0.0:
        return 0.0
    if diff_mean == 0.0:
        return math.inf
    return same_mean / diff_mean


def _neighbor_rows(hh: np.ndarray, y: np.ndarray, k: int):
    """Per row of a pairwise distance matrix with +inf on its diagonal, the
    k smallest distances to same-label and to different-label points."""
    same = y[None, :] == y[:, None]
    return (k_smallest(np.where(same, hh, np.inf), k),
            k_smallest(np.where(same, np.inf, hh), k))


def crr_predict(hist_X, hist_y, x, eps: float, a: float = 0.0) -> PredictionSet:
    """Conformalised ridge regression: the full-CP interval in one sweep.

    With the candidate row appended, residuals are linear in the
    hypothesised label y: resid(y) = A + y*B where A = C (y_1..y_{n-1}, 0)'
    and B = C (0..0 1)' for C = I - X(X'X + aI)^{-1}X'.  Each history
    example i contributes a critical value u_i = l_i = (a_i - a_n)/(b_n - b_i)
    when b_n > b_i (otherwise it can never be less strange than the
    candidate on one side, contributing -inf/+inf); the interval endpoints
    are order statistics of those critical values:

        [ l_(floor(eps/2 * n)),  u_(ceil((1 - eps/2) * n)) ]

    1-based, with out-of-range indices meaning an unbounded side.
    """
    hist_X = np.asarray(hist_X, dtype=float)
    hist_y = np.asarray(hist_y, dtype=float)
    n_hist = hist_X.shape[0]
    if n_hist == 0:
        raise ValueError("history is empty")
    if hist_y.shape != (n_hist,):
        raise ValueError("history labels do not match history rows")
    forced = boundary_set(eps, REGRESSION)
    if forced is not None:
        return forced

    return _crr_interval(hist_X, hist_y, hist_X.T @ hist_X, hist_X.T @ hist_y,
                         np.asarray(x, dtype=float), eps, a)


def _crr_interval(hist_X, hist_y, gram, xty, x, eps, a) -> PredictionSet:
    """:func:`crr_predict` from the history's X'X (``gram``) and X'y (``xty``);
    the O(n*p) pass over the history that remains is inherent to full CP."""
    n_hist = hist_X.shape[0]
    n = n_hist + 1
    system = RidgeSystem(gram + x[:, None] * x, a)
    # Columns w = M^{-1}X'v and h = M^{-1}x, so A = v - Xw and B = e_n - Xh;
    # in C order the product over the history is one fast pass.
    wh = np.ascontiguousarray(system.solve(np.array([xty, x]).T))
    fit = hist_X @ wh
    xw, xh = x @ wh
    a_diff = hist_y - fit[:, 0] + xw    # a_i - a_n
    b_diff = fit[:, 1] + (1.0 - xh)     # b_n - b_i
    # b_n <= b_i puts -inf in the lower list and +inf in the upper one.
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


class KnnConformalClassifier(KnnHistoryPredictor):
    """Online full-CP k-NN classifier over incremental neighbour caches.

    Per history point the k smallest same-label and different-label
    distances (within the history) are cached, so scoring a candidate
    completion only has to merge the candidate's distance into each row:
    O(n*k) per step instead of the O(n^2) rescoring of
    :func:`knn_cp_predict`.  ``observe`` only appends; the next
    ``predict`` first catches the caches up with the rows that arrived
    since (``_catch_up``), through screened row blocks
    (``_screened_pairs``), so every cached value is a direct one.
    ``predict`` then screens the candidate through the Gram screen
    (``gram_screen``) too.  Features whose distances overflow therefore
    raise the ``distances`` ValueError at that ``predict``, not at
    ``observe``, and leave the caches as they were.  Predictions agree
    exactly with rescoring the bag from direct distances, ties included.
    """

    def __init__(self, k: int, label_space):
        super().__init__(k, label_space)
        # (rows cached, k) ascending, +inf where fewer than k exist.
        self._same = np.full((0, self.k), np.inf)
        self._diff = np.full((0, self.k), np.inf)

    def _predict(self, x, eps):
        if self._same.shape[0] < len(self._hist):
            self._catch_up()
        X, y = self._hist.X, self._hist.y
        same, diff = self._same, self._diff
        # d[i] matters where x could come nearer than row i's cached k-th
        # value on either side, or be among x's own k nearest of row i's
        # label (that label's kth_bound); every other row gets +inf.
        g, slack = gram_screen(X, self._row_norms(), x)
        thr = np.maximum(same[:, -1], diff[:, -1])
        for lab in self.label_space:
            is_lab = y == lab
            thr[is_lab] = np.maximum(thr[is_lab], kth_bound(g[is_lab], slack[is_lab], self.k))
        d = screened_distances(X, x, g, slack, thr)
        return _conformal_label_set(same, diff, d, y, self.label_space, self.k, eps)

    def _catch_up(self):
        """Cache rows for the examples that arrived since the last call, and
        merge their distances into the rows cached before it.  Works on
        copies, so a ValueError from ``distances`` changes nothing."""
        X, y, k = self._hist.X, self._hist.y, self.k
        n, c = X.shape[0], self._same.shape[0]
        pad = np.full((n - c, k), np.inf)
        rows = np.concatenate([self._same, pad]), np.concatenate([self._diff, pad])
        # A row cached before the call changes only where a new row comes
        # nearer than its cached k-th value on the pair's side.
        floor = np.zeros((2, n))
        floor[:, :c] = rows[0][:c, -1], rows[1][:c, -1]
        for lo, same, r, j, d in _screened_pairs(X, self._row_norms(), y, k, c, floor):
            near = np.full(same.shape, np.inf)
            near[r, j] = d
            old = np.unique(j[j < c])
            for cache, on_side in zip(rows, (same, ~same)):
                side = np.where(on_side, near, np.inf)
                top = k_smallest(side, k)
                cache[lo:lo + side.shape[0], :top.shape[1]] = top
                cache[old] = k_smallest(np.hstack([cache[old], side[:, old].T]), k)
        self._same, self._diff = rows


# The cached class's earlier name, kept as a plain alias for the code that
# imports it (perfbench's copy of the README loop, for one).
CachedKnnConformalClassifier = KnnConformalClassifier


def _finite_mean(rows: np.ndarray) -> np.ndarray:
    """Row means over the finite entries; NaN where a row has none."""
    finite = np.isfinite(rows)
    with np.errstate(invalid="ignore"):
        return np.where(finite, rows, 0.0).sum(axis=1) / finite.sum(axis=1)


def _ratio(same_mean, diff_mean):
    """Strangeness ratio with the missing-side conventions, vectorised.
    NaN means the side had no members at all."""
    with np.errstate(divide="ignore", invalid="ignore"):
        r = same_mean / diff_mean
    r = np.where(diff_mean == 0.0, np.inf, r)
    r = np.where(same_mean == 0.0, 0.0, r)
    r = np.where(np.isnan(diff_mean), 0.0, r)
    return np.where(np.isnan(same_mean), np.inf, r)


class CrrPredictor(RidgeHistoryPredictor):
    """Online conformalised ridge regression over the maintained normal
    equations.  A singular system (a = 0 and too few examples, say) gives
    the whole line, where the one-shot :func:`crr_predict` raises."""

    def _predict(self, x, eps):
        try:
            return _crr_interval(self._hist.X, self._hist.y, self._gram, self._xty,
                                 x, eps, self.a)
        except NumericError:
            return PredictionSet.full_interval()
