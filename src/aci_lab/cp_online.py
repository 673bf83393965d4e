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

from .core import (CLASSIFICATION, REGRESSION, KnnHistoryPredictor, PredictionSet,
                   RidgeHistoryPredictor, boundary_set, history_inputs, label_index,
                   labels_above)
from .numerics import (NumericError, RidgeSystem, ceil_index, distances, floor_index,
                       gram_screen, k_smallest, kth_bound, reach, screened_distances, within)


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
    bag_X, bag_y, x = history_inputs(bag_X, bag_y, x, k)
    d = distances(bag_X, x)
    same = bag_y == y
    return float(_ratio(*_finite_mean(k_smallest(np.where([same, ~same], d, np.inf), k))))


def knn_cp_predict(hist_X, hist_y, x, eps: float, k: int, label_space) -> PredictionSet:
    """Full conformal k-NN classifier: keep labels whose completion has
    p-value above eps.  Every history label must be in ``label_space``.
    The history's caches are the fill of a :class:`KnnConformalClassifier`,
    and one row of candidate distances serves every label."""
    hist_X, hist_y, x = history_inputs(hist_X, hist_y, x, k)
    labels, lab = label_index(hist_y, label_space)
    forced = boundary_set(eps, CLASSIFICATION)
    if forced is not None:
        return forced
    near, score = np.empty((hist_X.shape[0], 2, k)), np.empty(hist_X.shape[0])
    _caught_up(near, score, hist_X, np.einsum("ij,ij->i", hist_X, hist_X), hist_y)
    # Every candidate distance is finite, so the label set rescores every
    # point the candidate reaches.
    p = _conformal_p_values(near, score, lab, distances(hist_X, x), labels.shape[0], k)[0]
    return labels_above(p, labels, eps)


# Pairs per block of the self-join (2^16 Gram values, 512 KB), and feature
# differences per batch of its paired distances.
_FILL_PAIRS = 1 << 16


def _caught_up(near, score, X, sq, y):
    """Fill the caches ``near`` (n, 2, k) and row scores ``score`` (n) of
    the rows of X, in place, from the pairs ``(i, j, d)`` of the screened
    self-join: each pair is offered to both its rows, and each row and
    side keeps its k smallest offers.  Nothing is written before every
    pair is found."""
    k = near.shape[2]
    i, j, dist = _screened_join(X, sq, y, k)
    # Side 0 (same label) or 1 (different) of row r is row 2r + side here.
    side = y[i] != y[j]
    key, dist = np.concatenate([2 * i + side, 2 * j + side]), np.concatenate([dist, dist])
    # Sorted by key, then by distance, each key's first k offers fill it.
    order = np.lexsort((dist, key))
    key, dist = key[order], dist[order]
    rank = np.arange(key.shape[0]) - np.searchsorted(key, key)
    first = rank < k
    near[:] = np.inf
    near.reshape(-1, k)[key[first], rank[first]] = dist[first]
    score[:] = _row_scores(near)


def _screened_join(X, sq, y, k):
    """``(i, j, d)``: each pair of rows of X (squared norms ``sq``, labels
    ``y``) once that either row needs for its k nearest of that side (0
    same label, 1 different), with its direct distance d.

    The rows, sorted by label, are screened in blocks of one label
    against themselves and the rows after them (``gram_screen`` without a
    query), so each side is one or two label-sorted slices.  A running k
    smallest of g + slack per row and side, fed by each block's rows and
    columns, is exact after the row's own block.  A block records the
    pairs ``within`` may keep under the larger running bound of their
    rows; those left by the exact bounds get a paired distance."""
    n = X.shape[0]
    order = np.argsort(y, kind="stable")
    X, sq, y = X[order], sq[order], y[order]
    top = np.full((n, 2, k), np.inf)
    # Per row and side, within's reach for its running bound.
    bound = np.empty((n, 2))
    starts = np.unique(y, return_index=True)[1]
    step = max(1, _FILL_PAIRS // n)
    upper = ~np.tri(min(step, n), dtype=bool)
    kept = [(np.empty(0, int), np.empty(0, int), np.empty(0))]
    # Each label's run of rows [s, e).
    for s, e in zip(starts, np.append(starts[1:], n)):
        for lo in range(s, e, step):
            hi = min(lo + step, e)
            b = hi - lo
            g, slack = gram_screen(X[lo:], sq[lo:], rows=b)
            t = g + slack
            t[:, :b] = np.minimum(t[:, :b], t[:, :b].T)
            # Columns from lo: the block [0, b), same label [0, a),
            # different [a, n - lo).
            a = e - lo
            _fold(top[hi:e, 0], t[:, b:a].T, k)
            _fold(top[e:, 1], t[:, a:].T, k)
            _fold(top[lo:hi, 0], t[:, :a], k)
            _fold(top[lo:hi, 1], t[:, a:], k)
            bound[lo:] = reach(np.sqrt(top[lo:, :, -1]))
            # A pair is recorded under the larger bound of its two rows.
            row, col = bound[lo:hi], bound[lo:, 1].copy()
            col[:a] = bound[lo:e, 0]
            lim = np.maximum(row[:, 1, None], col)
            np.maximum(row[:, 0, None], col[:a], out=lim[:, :a])
            g -= slack
            hit = g <= lim
            hit[:, :b] &= upper[:b, :b]
            r, j = np.divmod(np.flatnonzero(hit), n - lo)
            kept.append((lo + r, lo + j, g[r, j]))
    i, j, low = (np.concatenate(v) for v in zip(*kept))
    thr = np.sqrt(top[:, :, -1]).reshape(-1)
    side = y[i] != y[j]
    hit = within(low, 0.0, np.maximum(thr[2 * i + side], thr[2 * j + side]))
    i, j = i[hit], j[hit]
    batch = max(1, _FILL_PAIRS // max(1, X.shape[1]))
    d = [distances(X[j[s:s + batch]], X[i[s:s + batch]]) for s in range(0, i.shape[0], batch)]
    return order[i], order[j], np.concatenate([np.empty(0), *d])


def _fold(top, values, k):
    """Each row of ``top`` (rows, k) keeps the k smallest of it and of that
    row of ``values``, unordered but for the k-th, which comes last."""
    if k == 1:
        np.minimum(top[:, 0], values.min(axis=-1, initial=np.inf), out=top[:, 0])
    else:
        top[:] = np.partition(np.concatenate([top, values], axis=-1), k - 1, axis=-1)[:, :k]


def _conformal_p_values(near, score, lab, d, n_labels, k):
    """Each label's candidate p-value, and the rescoring ``(reach, grown,
    alpha, nearest)`` behind them.

    ``near`` holds each history point's k smallest same-label and
    different-label distances, (n, 2, k) ascending and +inf padded;
    ``score`` each point's strangeness (``_row_scores``); ``lab`` each
    point's label as an index into the ``n_labels`` sorted labels; ``d``
    the candidate's distances, +inf where it can neither displace one of
    point i's neighbours nor be among its own k nearest of i's label.
    Only the points where d[i] is below a k-th value are rescored, and
    every label is counted in one comparison.  The p-value counts the
    candidate itself: (#{alpha_i >= alpha_n} + 1) / (n + 1).  The
    rescoring is the caches after observing the candidate under any label.
    """
    # The points whose score the candidate can change; d goes into their
    # lists ahead of the first entry at or above it, pushing the last out.
    reach = np.flatnonzero(d < np.maximum(near[:, 0, -1], near[:, 1, -1]))
    held, dist = near[reach], d[reach, None, None]
    shifted = np.concatenate([np.full((*held.shape[:2], 1), -np.inf), held[..., :-1]], axis=2)
    grown = np.where(held < dist, held, np.maximum(shifted, dist))
    # The candidate's k nearest of each label and of the other labels,
    # padded to k: a mean takes the finite prefix alone.
    fin, at = np.flatnonzero(np.isfinite(d)), np.arange(n_labels)[:, None]
    own = lab[fin] == at
    nearest = k_smallest(np.where(np.stack([own, ~own]), d[fin], np.inf), k)
    nearest = np.concatenate([nearest, np.full((2, len(own), k - nearest.shape[2]), np.inf)], 2)
    # One mean and ratio pass.  alpha: point i's score when the candidate
    # shares its label, when it does not, then the candidate's per label.
    means = _finite_mean(np.concatenate([grown[:, 0], held[:, 0], nearest[0],
                                         held[:, 1], grown[:, 1], nearest[1]]))
    alpha, m = _ratio(*means.reshape(2, -1)), reach.shape[0]
    alphas = np.repeat(score[None], n_labels, axis=0)
    alphas[:, reach] = np.where(lab[reach] == at, alpha[:m], alpha[m:2 * m])
    n_ge = (alphas >= alpha[2 * m:, None]).sum(axis=1) + 1
    return n_ge / (d.shape[0] + 1), (reach, grown, alpha, nearest)


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
    hist_X, hist_y, x = history_inputs(hist_X, hist_y, x)
    hist_y = hist_y.astype(float, copy=False)
    forced = boundary_set(eps, REGRESSION)
    if forced is not None:
        return forced
    return _crr_interval(hist_X, hist_y, hist_X.T @ hist_X, hist_X.T @ hist_y, x, eps, a)


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
    distances are cached with the point's score, so a candidate only
    rescores the points it can reach: O(n*k) per step at most.
    ``observe`` only appends; the next ``predict`` catches the caches up
    (``_catch_up``), then makes the label-set pass (``_rescoring``): it
    screens the candidate through ``gram_screen`` and every label's
    ``kth_bound`` in one partition, and rescores the rows it reaches
    under every label (``_conformal_p_values``).  The caches are filled
    once by the screened self-join (``_caught_up``); after that a row
    enters them only by committing its own rescoring, which the usual
    step, predict(x) then observe(x, y), has already made.  Predictions
    agree exactly with rescoring the bag from direct distances, ties
    included.
    """

    def __init__(self, k: int, label_space):
        # Per history row, once cached: its k smallest same-label and
        # different-label distances, "near" (2, k) ascending and +inf where
        # fewer exist, and its "score" from them.
        super().__init__(k, label_space, near=(float, (2, int(k))), score=float)
        # Rows [0, _cached) of the history's caches are filled.
        self._cached = 0
        # (cached rows, candidate bytes, its rescoring) of the last predict.
        self._last = None

    def _predict(self, x, eps):
        if self._cached < len(self._hist):
            self._catch_up()
        n = len(self._hist)
        p, rescoring = self._rescoring(x, n)
        self._last = n, x.tobytes(), rescoring
        return labels_above(p, self._labels, eps)

    def _rescoring(self, x, n):
        """The label-set pass of candidate x against the first n rows, all
        cached: each label's p-value and the rescoring behind them."""
        h, k = self._hist, self.k
        X, lab, near = h.X[:n], h["lab"][:n], h["near"][:n]
        # d[i] matters where x could come nearer than row i's cached k-th
        # value on either side, or be among x's own k nearest of row i's
        # label (that label's kth_bound, for all labels in one partition
        # of g spread over one row per label); every other row gets +inf.
        g, slack = gram_screen(X, self._row_norms()[:n], x)
        by_label = np.full((self._labels.shape[0], n), np.inf)
        by_label[lab, np.arange(n)] = g
        thr = np.maximum(np.maximum(near[:, 0, -1], near[:, 1, -1]),
                         kth_bound(by_label, slack, k)[lab])
        d = screened_distances(X, x, g, slack, thr)
        return _conformal_p_values(near, h["score"][:n], lab, d, self._labels.shape[0], k)

    def _catch_up(self):
        """Cache the rows that arrived since the last call.  When at least
        half the history is new, one self-join (``_caught_up``) fills every
        row.  Otherwise each new row c in turn commits its rescoring against
        rows 0..c-1 under its label, in place: the last predict's, when
        that predict's candidate had row c's bytes and ran against c
        cached rows, else a fresh ``_rescoring``.  A ValueError from
        ``distances`` leaves the rows committed before it cached, and the
        failing row and those after it uncached."""
        h = self._hist
        X, y, lab, near, score = h.X, h.y, h["lab"], h["near"], h["score"]
        if 2 * self._cached <= X.shape[0]:
            _caught_up(near, score, X, self._row_norms(), y)
            self._cached = X.shape[0]
        for c in range(self._cached, X.shape[0]):
            if self._last is not None and self._last[:2] == (c, X[c].tobytes()):
                reach, grown, alpha, nearest = self._last[2]
            else:
                reach, grown, alpha, nearest = self._rescoring(X[c], c)[1]
            # Side 0 (same label) or 1 (different) of each reached row.
            at, side = np.arange(reach.shape[0]), (y[reach] != y[c]).astype(np.intp)
            near[reach, side] = grown[at, side]
            score[reach] = alpha[side * at.shape[0] + at]
            near[c], score[c] = nearest[:, lab[c]], alpha[2 * at.shape[0] + lab[c]]
            self._cached = c + 1


# The cached class's earlier name, kept as a plain alias for the code that
# imports it (perfbench's copy of the README loop, for one).
CachedKnnConformalClassifier = KnnConformalClassifier


def _row_scores(near):
    """Each row's strangeness ratio from its (same, different) neighbour
    distances ``near``, (rows, 2, width)."""
    return _ratio(*_finite_mean(near.reshape(-1, near.shape[2])).reshape(-1, 2).T)


def _finite_mean(rows: np.ndarray) -> np.ndarray:
    """``np.mean`` of each ascending, +inf padded row's finite prefix (NaN
    if empty).  numpy sums 8 or more values pairwise, so a short row sums
    its prefix alone: a sum over zeroed padding may round otherwise.
    Only a row that ends in +inf is short."""
    sums, count = rows.sum(axis=1), np.full(rows.shape[0], rows.shape[1])
    short = np.flatnonzero(np.isinf(rows[:, -1]))
    if short.size:
        count[short] = np.isfinite(rows[short]).sum(axis=1)
        for m in np.unique(count[short]):
            at = short[count[short] == m]
            sums[at] = rows[at, :m].sum(axis=1)
    with np.errstate(invalid="ignore"):
        return sums / count


def _ratio(same_mean, diff_mean):
    """Strangeness ratio with the missing-side conventions, vectorised.
    NaN means the side had no members at all.  Means are never negative,
    so a positive one over a zero one is already +inf."""
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where((same_mean == 0.0) | np.isnan(diff_mean), 0.0, same_mean / diff_mean)
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
