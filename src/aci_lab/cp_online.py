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
from .numerics import NumericError, RidgeSystem, ceil_index, floor_index


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
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    x = np.asarray(x, dtype=float)
    d = np.sqrt(np.sum((bag_X - x) ** 2, axis=1))
    return _score_from_distances(d, bag_y == y, k)


def knn_cp_predict(hist_X, hist_y, x, eps: float, k: int, label_space) -> PredictionSet:
    """Full conformal k-NN classifier: keep labels whose completion has
    p-value above eps.

    Runs one candidate completion per label.  Distances are computed once
    (all pairs within the history, plus the candidate row) and shared
    across candidates, so a call costs O(n^2) distance evaluations
    however many labels there are.
    """
    hist_X = np.asarray(hist_X, dtype=float)
    hist_y = np.asarray(hist_y)
    n_hist = hist_X.shape[0]
    if n_hist == 0:
        raise ValueError("history is empty")
    forced = boundary_set(eps, CLASSIFICATION)
    if forced is not None:
        return forced

    x = np.asarray(x, dtype=float)
    hh = _pairwise(hist_X)
    hx = np.sqrt(np.sum((hist_X - x) ** 2, axis=1))
    # Per history point, the k nearest same-label / different-label
    # distances within the history; the candidate only ever adds one
    # distance to one of the two sides, merged virtually per label.
    same_rows, diff_rows = _neighbor_rows(hh, hist_y, k)
    return _conformal_label_set(same_rows, diff_rows, hx, hist_y, label_space, k, eps)


def _conformal_label_set(same_rows, diff_rows, d, hist_y, label_space, k, eps) -> PredictionSet:
    """Labels whose candidate completion has p-value above eps.

    ``same_rows``/``diff_rows`` hold each history point's k smallest
    same-label/different-label distances within the history (ascending,
    +inf padded) and ``d`` the candidate's distances to the history.  The
    p-value counts the candidate itself: (#{alpha_i >= alpha_n} + 1) / (n + 1).
    """
    same_stats = _row_stats(same_rows)
    diff_stats = _row_stats(diff_rows)
    n_bag = d.shape[0] + 1
    kept = []
    for lab in label_space:
        is_same = hist_y == lab
        s_mean = _merged_mean(*same_stats, d, is_same, k)
        f_mean = _merged_mean(*diff_stats, d, ~is_same, k)
        alphas = _ratio(s_mean, f_mean)
        alpha_n = _score_from_distances(d, is_same, k)
        n_ge = int(np.count_nonzero(alphas >= alpha_n)) + 1
        if n_ge / n_bag > eps:
            kept.append(lab)
    return PredictionSet.label_set(kept)


def _score_from_distances(d, same_mask, k: int) -> float:
    same = np.sort(d[same_mask])[:k]
    diff = np.sort(d[~same_mask])[:k]
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


def _pairwise(X: np.ndarray) -> np.ndarray:
    sq = np.sum(X * X, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
    np.maximum(d2, 0.0, out=d2)
    return np.sqrt(d2)


def _k_smallest_rows(values: np.ndarray, k: int) -> np.ndarray:
    """Ascending k smallest per row, +inf padded to width k."""
    if k < values.shape[1]:
        values = np.partition(values, k, axis=1)[:, :k]
    values = np.sort(values, axis=1)
    if values.shape[1] < k:
        pad = np.full((values.shape[0], k - values.shape[1]), np.inf)
        values = np.concatenate([values, pad], axis=1)
    return values


def _neighbor_rows(hh: np.ndarray, y: np.ndarray, k: int):
    """Per row of a pairwise distance matrix, the k smallest distances to
    same-label and to different-label points (self excluded)."""
    same = y[None, :] == y[:, None]
    np.fill_diagonal(same, False)
    diff = y[None, :] != y[:, None]
    return (_k_smallest_rows(np.where(same, hh, np.inf), k),
            _k_smallest_rows(np.where(diff, hh, np.inf), k))


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
    """Online full-CP k-NN classifier.

    Every prediction rescores the whole augmented bag through
    :func:`knn_cp_predict`, paying its O(n^2) distance bill per step.
    :class:`CachedKnnConformalClassifier` gives identical outputs from
    incremental caches when that bill matters.
    """

    def _predict(self, x, eps):
        return knn_cp_predict(self._hist.X, self._hist.y, x, eps,
                              self.k, self.label_space)


class CachedKnnConformalClassifier(KnnConformalClassifier):
    """Full-CP k-NN classifier with incremental neighbour caches.

    Per history point the k smallest same-label and different-label
    distances (within the history) are cached as examples arrive, so
    scoring a candidate completion only has to merge the candidate's
    distance into each row: O(n*k) per step instead of O(n^2).
    Predictions agree exactly with :class:`KnnConformalClassifier`.
    """

    def __init__(self, k: int, label_space):
        super().__init__(k, label_space)
        # (n, k) ascending, padded with +inf where fewer than k exist;
        # row count tracks the history, capacity doubles on demand.
        self._same = np.empty((8, self.k))
        self._diff = np.empty((8, self.k))

    def _predict(self, x, eps):
        d = np.sqrt(np.sum((self._hist.X - x) ** 2, axis=1))
        n_hist = d.shape[0]
        return _conformal_label_set(self._same[:n_hist], self._diff[:n_hist], d,
                                    self._hist.y, self.label_space, self.k, eps)

    def _observe(self, x, y):
        y = self._check_label(y)
        n_hist = len(self._hist)
        if n_hist:
            d = np.sqrt(np.sum((self._hist.X - x) ** 2, axis=1))
            is_same = self._hist.y == y
            _merge_rows(self._same[:n_hist], d, is_same)
            _merge_rows(self._diff[:n_hist], d, ~is_same)
            own_same = np.sort(d[is_same])[:self.k]
            own_diff = np.sort(d[~is_same])[:self.k]
        else:
            own_same = np.empty(0)
            own_diff = np.empty(0)
        if n_hist == self._same.shape[0]:
            self._same = np.concatenate([self._same, np.empty_like(self._same)])
            self._diff = np.concatenate([self._diff, np.empty_like(self._diff)])
        self._same[n_hist] = _pad_row(own_same, self.k)
        self._diff[n_hist] = _pad_row(own_diff, self.k)
        self._hist.append(x, y)


def _pad_row(vals: np.ndarray, k: int) -> np.ndarray:
    row = np.full(k, np.inf)
    row[:vals.shape[0]] = vals
    return row


def _row_stats(rows: np.ndarray):
    finite = np.isfinite(rows)
    sums = np.where(finite, rows, 0.0).sum(axis=1)
    cnts = finite.sum(axis=1)
    maxes = np.where(finite, rows, -np.inf).max(axis=1, initial=-np.inf)
    return sums, cnts, maxes


def _merged_mean(sums, cnts, maxes, d, applies, k):
    """Mean of the k smallest cached distances after (virtually) adding the
    candidate's distance d[i] to the rows where ``applies``."""
    full = cnts >= k
    add = applies & ~full
    swap = applies & full & (d < maxes)
    new_sum = np.where(add, sums + d, np.where(swap, sums - maxes + d, sums))
    new_cnt = np.where(add, cnts + 1, cnts)
    with np.errstate(invalid="ignore"):
        mean = new_sum / new_cnt
    return np.where(new_cnt == 0, np.nan, mean)


def _ratio(same_mean, diff_mean):
    """Strangeness ratio with the missing-side conventions, vectorised.
    NaN means the side had no members at all."""
    out = np.empty_like(same_mean)
    no_same = np.isnan(same_mean)
    no_diff = ~no_same & np.isnan(diff_mean)
    rest = ~no_same & ~no_diff
    out[no_same] = np.inf
    out[no_diff] = 0.0
    s, f = same_mean[rest], diff_mean[rest]
    with np.errstate(divide="ignore", invalid="ignore"):
        r = s / f
    r = np.where(s == 0.0, 0.0, r)
    r = np.where((f == 0.0) & (s > 0.0), np.inf, r)
    out[rest] = r
    return out


def _merge_rows(rows: np.ndarray, d: np.ndarray, applies: np.ndarray) -> None:
    """Insert d[i] into each applicable cached top-k row in place, keeping
    the k smallest in ascending order (inf padding beyond the max row)."""
    if rows.shape[0] == 0:
        return
    worse = rows[:, -1] > d
    upd = applies & worse
    if np.any(upd):
        rows[upd, -1] = d[upd]
        rows[upd] = np.sort(rows[upd], axis=1)


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
