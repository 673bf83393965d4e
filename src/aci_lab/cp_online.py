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
from .numerics import (_SINGLE_HI, NumericError, RidgeSystem, ceil_index, distances,
                       floor_index, gram_screen, k_smallest, kth_bound, reach, takes_single,
                       within)


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
    n = hist_X.shape[0]
    near, score = np.empty((n, 2, k)), np.empty(n)
    sq, x32 = np.einsum("ij,ij->i", hist_X, hist_X), np.zeros(hist_X.shape, np.float32)
    np.copyto(x32, hist_X, where=(sq < _SINGLE_HI)[:, None])
    _caught_up(near, score, hist_X, sq, x32, hist_y)
    top = np.maximum(near[:, 0, -1], near[:, 1, -1])
    rescoring = _rescored(near, top, lab, np.arange(n), distances(hist_X, x),
                          _side_pads(labels.shape[0]))
    return labels_above(_p_values(score, lab, rescoring), labels, eps)


# Pairs per block of the self-join (2^17 Gram values, 1 MB), and feature
# differences per batch of its paired distances (128 KB: cache-sized).
_FILL_PAIRS, _FILL_DIFFS = 1 << 17, 1 << 14
# Rows up to which a fill takes every pair's direct distance: there the
# screen's fixed cost per label block exceeds sorting all n(n - 1) offers
# (about 4x at n = 16, even near n = 48, at p 2 and 6, one BLAS thread).
_DIRECT_ROWS = 32


def _caught_up(near, score, X, sq, x32, y):
    """Fill the caches ``near`` (n, 2, k) and row scores ``score`` (n) of
    the rows of X, in place, from the pairs ``(i, j, d)`` of the screened
    self-join (``_screened_join``): each pair is offered to both its rows,
    and each row and side keeps its k smallest offers.  Nothing is
    written before every pair is found."""
    k = near.shape[2]
    i, j, dist = _screened_join(X, sq, x32, y, k)
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


def _screened_join(X, sq, x32, y, k):
    """``(i, j, d)``: each pair of rows of X (squared norms ``sq``, float32
    copies ``x32``, labels ``y``) that either row needs for its k nearest
    of that side (0 same label, 1 different), once, with its direct distance d.

    The copies and norms, sorted by label (X is not), are screened in
    blocks of one label against themselves and the rows after them
    (``gram_screen`` without a query, given the copies where its single
    route takes them, else the rows), so each side is one or two
    label-sorted slices.  A running k smallest of g + slack per row and
    side, fed by each block's rows and columns, is exact after the row's
    own block.  A block records the pairs ``within`` may keep under
    either running bound of their rows; those left by the exact bounds
    get a paired distance.  At most ``_DIRECT_ROWS`` rows skip the
    screen: every pair gets its distance."""
    n = X.shape[0]
    if n <= _DIRECT_ROWS:
        i, j = np.triu_indices(n, 1)
        return i, j, distances(X[j], X[i])
    order = np.argsort(y, kind="stable")
    single, sq, y = x32[order], sq[order], y[order]
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
            fits = takes_single(X.shape[1], sq[lo:].max() + sq[lo:hi].max())
            A, copy = (single[lo:],) * 2 if fits else (X[order[lo:]], None)
            g, slack = gram_screen(A, sq[lo:], rows=b, single=copy)
            # The block's largest slack; columns from lo: the block [0, b),
            # same label [0, a), different [a, n - lo).
            slack, a = slack.max(), e - lo
            g[:, :b] = np.minimum(g[:, :b], g[:, :b].T)
            _fold(top[hi:e, 0], g[:, b:a].T, k, slack)
            _fold(top[e:, 1], g[:, a:].T, k, slack)
            _fold(top[lo:hi, 0], g[:, :a], k, slack)
            _fold(top[lo:hi, 1], g[:, a:], k, slack)
            bound[lo:] = reach(np.sqrt(top[lo:, :, -1]))
            # A pair is recorded under either bound of its rows.
            row, col = bound[lo:hi] + slack, bound[lo:, 1] + slack
            col[:a] = bound[lo:e, 0] + slack
            hit = g <= col
            hit[:, :a] |= g[:, :a] <= row[:, :1]
            hit[:, a:] |= g[:, a:] <= row[:, 1:]
            hit[:, :b] &= upper[:b, :b]
            r, j = np.divmod(np.flatnonzero(hit), n - lo)
            kept.append((lo + r, lo + j, g[r, j] - slack))
    i, j, low = (np.concatenate(v) for v in zip(*kept))
    thr = np.sqrt(top[:, :, -1]).reshape(-1)
    side = y[i] != y[j]
    hit = within(low, 0.0, np.maximum(thr[2 * i + side], thr[2 * j + side]))
    i, j = order[i[hit]], order[j[hit]]
    batch = max(1, _FILL_DIFFS // max(1, X.shape[1]))
    d = [distances(X[j[s:s + batch]], X[i[s:s + batch]]) for s in range(0, i.shape[0], batch)]
    return i, j, np.concatenate([np.empty(0), *d])


def _fold(top, values, k, slack):
    """Each row of ``top`` (rows, k) keeps the k smallest of it and of that
    row of ``values`` + ``slack``, unordered but for the k-th (last)."""
    if k == 1:
        np.minimum(top[:, 0], values.min(axis=-1, initial=np.inf) + slack, out=top[:, 0])
    else:
        top[:] = np.partition(np.concatenate([top, values + slack], axis=-1), k - 1, axis=-1)[:, :k]


# Added to a candidate's distance, the offer of a predict's rescoring: to
# each reached row's same-label list (the candidate shares its label),
# then to its different-label list, as (copy, row, side, 1).
_BOTH_SIDES = np.where(np.eye(2, dtype=bool), 0.0, np.inf)[:, None, :, None]
# Side 0 (same label) and side 1 (different).
_SIDES = np.array([False, True])


def _side_pads(n_labels):
    """(candidate label, side, row label) -> 0 where rows with those label
    indices sit on that side of each other, else +inf: added to a
    distance, it offers the distance to that side alone."""
    return np.where(np.eye(n_labels, dtype=bool)[:, None] != _SIDES[:, None], 0.0, np.inf)


def _rescored(near, top, lab, rows, d, pads, label=None):
    """A candidate's rescoring of the cached rows: ``(reach, lists, alpha)``.

    ``near`` (n, 2, k) holds each row's k smallest same-label and
    different-label distances, ascending and +inf padded, ``top`` the
    larger of its two k-th values and ``lab`` its label index; ``pads``
    is ``_side_pads``.  ``d`` holds the candidate's direct distances to
    ``rows``: every row where it could come nearer than ``top`` or be
    among its own k nearest of that row's label.  ``reach`` is the rows
    whose lists it changes.  With a ``label`` index, ``lists`` holds each
    reached row's lists with the candidate observed under that label,
    then the candidate's own: what a commit writes.  Without one, it
    holds each reached row's lists with the candidate sharing its label,
    then under another label, then the candidate's lists under each
    label.  ``alpha`` is their scores."""
    k = near.shape[2]
    hit = d < top[rows]
    reach, dist = rows[hit], d[hit, None]
    if label is None:
        offer = _BOTH_SIDES + dist[:, None]
    else:
        pads = pads[label, None]
        offer = (pads[0].T[lab[reach]] + dist)[None, :, :, None]
    lists = np.empty((offer.shape[0] * reach.shape[0] + pads.shape[0], 2, k))
    _insert(near[reach], offer, lists[:-pads.shape[0]].reshape(*offer.shape[:3], k))
    # The candidate's k nearest of each label (side 0) and of the other
    # labels (side 1), +inf padded.
    nearest = k_smallest(pads[:, :, lab[rows]] + d, k)
    lists[-pads.shape[0]:, :, :nearest.shape[2]] = nearest
    lists[-pads.shape[0]:, :, nearest.shape[2]:] = np.inf
    return reach, lists, _row_scores(lists)


def _insert(held, offer, out):
    """Write to ``out`` each ascending list of ``held`` with the value of
    ``offer`` (a trailing axis of 1, broadcast against held) put in order
    and the last entry pushed out; an +inf offer changes nothing."""
    if held.shape[-1] == 1:
        np.minimum(held, offer, out=out)
        return
    # Entry j becomes min(held[j], max(held[j - 1], offer)), held[-1] = -inf.
    out[..., :1] = offer
    np.maximum(held[..., :-1], offer, out=out[..., 1:])
    np.minimum(held, out, out=out)


def _p_values(score, lab, rescoring):
    """Each label's candidate p-value from a predict's rescoring
    (``_rescored`` without a label) and the rows' kept ``score``: every
    label is counted in one comparison, and the candidate counts itself,
    (#{alpha_i >= alpha_n} + 1) / (n + 1)."""
    reach, _, alpha = rescoring
    m = reach.shape[0]
    alphas = np.repeat(score[None], alpha.shape[0] - 2 * m, axis=0)
    alphas[:, reach] = alpha[m:2 * m]
    alphas[lab[reach], reach] = alpha[:m]
    return ((alphas >= alpha[2 * m:, None]).sum(axis=1) + 1) / (score.shape[0] + 1)


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
    a_diff = np.subtract(hist_y, fit[:, 0])
    a_diff += xw                        # a_i - a_n
    b_diff = fit[:, 1] + (1.0 - xh)     # b_n - b_i
    # b_n <= b_i puts -inf in the lower list and +inf in the upper one;
    # the usual step has no such row and divides in place.
    if b_diff.min() > 0.0:
        crit = np.divide(a_diff, b_diff, out=a_diff)
    else:
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
    ``kth_bound`` in one partition, rescores the rows it reaches under
    every label (``_rescored``) and counts each label's p-value
    (``_p_values``).  The caches are filled
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
        self._pads = _side_pads(self._labels.shape[0])

    def _predict(self, x, eps):
        if self._cached < len(self._hist):
            self._catch_up()
        n = len(self._hist)
        rescoring = self._rescoring(x, n)
        self._last = n, x.tobytes(), rescoring
        p = _p_values(self._hist["score"][:n], self._hist["lab"][:n], rescoring)
        return labels_above(p, self._labels, eps)

    def _rescoring(self, x, n, label=None):
        """``_rescored`` for candidate x against the first n rows, all
        cached: under every label for a predict, under ``label`` (an index)
        for a catch-up."""
        h, k = self._hist, self.k
        X, lab, near = h.X[:n], h["lab"][:n], h["near"][:n]
        # x needs a direct distance to row i where it could come nearer
        # than row i's cached k-th value on either side, or be among x's
        # own k nearest of row i's label (that label's kth_bound, for all
        # labels in one partition of g spread over one row per label).
        g, slack = gram_screen(X, self._row_norms()[:n], x, single=h["x32"][:n])
        by_label = np.full((self._labels.shape[0], n), np.inf)
        by_label[lab, np.arange(n)] = g
        top = np.maximum(near[:, 0, -1], near[:, 1, -1])
        rows = np.flatnonzero(within(g, slack, np.maximum(top, kth_bound(by_label, slack, k)[lab])))
        return _rescored(near, top, lab, rows, distances(X[rows], x), self._pads, label)

    def _catch_up(self):
        """Cache the rows that arrived since the last call.  When at least
        half the history is new, one self-join (``_caught_up``) fills every
        row.  Otherwise each new row c in turn commits its rescoring against
        rows 0..c-1 under its label, in place: the slots of the last
        predict's, when that predict's candidate had row c's bytes and ran
        against c cached rows, else a fresh ``_rescoring`` under that label
        alone, which makes no p-values.  A ValueError from ``distances``
        leaves the rows committed before it cached, and the failing row and
        those after it uncached."""
        h = self._hist
        X, y, lab, near, score = h.X, h.y, h["lab"], h["near"], h["score"]
        if 2 * self._cached <= X.shape[0]:
            _caught_up(near, score, X, self._row_norms(), h["x32"], y)
            self._cached = X.shape[0]
        for c in range(self._cached, X.shape[0]):
            if self._last is not None and self._last[:2] == (c, X[c].tobytes()):
                reach, lists, alpha = self._last[2]
                # Each reached row's slot for row c's label, and row c's.
                m = reach.shape[0]
                pick, own = np.arange(m) + m * (lab[reach] != lab[c]), 2 * m + lab[c]
            else:
                reach, lists, alpha = self._rescoring(X[c], c, lab[c])
                pick, own = slice(-1), -1
            near[reach], score[reach] = lists[pick], alpha[pick]
            near[c], score[c] = lists[own], alpha[own]
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
    if empty).  A row is short only where its sum is +inf; the short rows
    of each prefix length m sum their first m values alone, as ``np.mean``
    does, since numpy's pairwise sum of a padded row may round otherwise."""
    sums, width = rows.sum(axis=1), rows.shape[1]
    if sums.max(initial=0.0) < np.inf:
        return sums / width
    count = (rows < np.inf).sum(axis=1)
    short = np.flatnonzero(count < width)
    for m in np.unique(count[short]):
        at = short[count[short] == m]
        sums[at] = rows[at, :m].sum(axis=1)
    with np.errstate(invalid="ignore"):
        return sums / count


def _ratio(same_mean, diff_mean):
    """Strangeness ratio with the missing-side conventions, vectorised.
    NaN means the side had no members at all.  Means are never negative,
    so a positive one over a zero one is already +inf; a NaN quotient (a
    side with no members, or 0/0) is +inf where the same side is empty
    and 0 otherwise."""
    with np.errstate(divide="ignore", invalid="ignore"):
        r = same_mean / diff_mean
    bad = np.isnan(r)
    if bad.any():
        r[bad] = np.where(np.isnan(same_mean[bad]), np.inf, 0.0)
    return r


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
