"""Non-conformal set predictors trained on the full history.

These are the cheap comparison family: the same underlying point
predictors as their conformal counterparts, but the set is carved out by
a direct plug-in rule rather than a bag p-value.  They still honour the
extended boundary contract and are nested in eps; their validity under
adaptive level control comes from the controller, not from
exchangeability.

Classification: include every label whose k-NN vote share exceeds eps.
Regression: classical least-squares interval, point estimate plus a
Student-t multiple of the predictive standard error.
"""

import math

import numpy as np

from .core import (CLASSIFICATION, REGRESSION, KnnHistoryPredictor, PredictionSet,
                   RidgeHistoryPredictor, boundary_set, history_inputs, label_index,
                   labels_above)
from .numerics import (NumericError, RidgeSystem, distances, gram_screen, k_nearest,
                       kth_bound, student_t_quantile, vote_shares, within)


def knn_vote_shares(hist_X, hist_y, x, k: int, label_space) -> np.ndarray:
    """Fraction of the k nearest history examples carrying each label.

    Euclidean distances; ties broken by example index (earlier wins).
    A history shorter than k votes with everything it has.  Every history
    label must be in ``label_space``.
    """
    hist_X, hist_y, x = history_inputs(hist_X, hist_y, x, k)
    label_index(hist_y, label_space)
    d = distances(hist_X, x)
    return vote_shares(hist_y[k_nearest(d, k)], label_space)


def knn_threshold_predict(hist_X, hist_y, x, eps: float, k: int, label_space) -> PredictionSet:
    """Keep the labels whose vote share strictly exceeds eps.

    Vote shares over one x sum to 1, so the set never holds more than
    floor(1/eps) labels; it may well be empty at large eps.
    """
    forced = boundary_set(eps, CLASSIFICATION)
    if forced is not None:
        return forced
    shares = knn_vote_shares(hist_X, hist_y, x, k, label_space)
    return labels_above(shares, label_space, eps)


def ols_interval_predict(hist_X, hist_y, x, eps: float, a: float = 0.0) -> PredictionSet:
    """Classical regression interval from the history fit.

        yhat +/- t_{1 - eps/2, m - p} * sigma * sqrt(1 + leverage)

    with sigma^2 = rss / (m - p) and leverage = x'(X'X + aI)^{-1}x.  When
    the residual degrees of freedom m - p drop below 1 or the system is
    singular, the interval degenerates to the whole line rather than
    failing: early online steps simply carry no information.
    """
    hist_X, hist_y, x = history_inputs(hist_X, hist_y, x)
    hist_y = hist_y.astype(float, copy=False)
    forced = boundary_set(eps, REGRESSION)
    if forced is not None:
        return forced
    return _ols_interval(hist_X, hist_y, hist_X.T @ hist_X, hist_X.T @ hist_y, x, eps, a)


def _ols_interval(hist_X, hist_y, gram, xty, x, eps, a) -> PredictionSet:
    """:func:`ols_interval_predict` from the history's X'X (``gram``) and X'y
    (``xty``).  rss takes a residual pass: y'y - w'X'y cancels on exact fits."""
    m, p = hist_X.shape
    dof = m - p
    if dof < 1:
        return PredictionSet.full_interval()
    try:
        system = RidgeSystem(gram, a)
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


class KnnThresholdClassifier(KnnHistoryPredictor):
    """Online vote-share thresholding over the full history: the sets of
    :func:`knn_threshold_predict`, votes counted by label index.  The Gram
    screen keeps every row at or below the k-th direct distance, so at
    most k kept rows are the min(k, n) nearest and vote as they stand;
    more (near-ties at the k-th) or an infinite slack (the overflow
    fallback) take the direct distances and ``k_nearest``."""

    def _predict(self, x, eps):
        A, k = self._hist.X, self.k
        g, slack = gram_screen(A, self._row_norms(), x, single=self._hist["x32"])
        near = np.flatnonzero(within(g, slack, kth_bound(g, slack, k)))
        if near.shape[0] > k or not math.isfinite(slack):
            near = near[k_nearest(distances(A[near], x), k)]
        votes = np.bincount(self._hist["lab"][near], minlength=self._labels.shape[0])
        return labels_above(votes / near.shape[0], self._labels, eps)


class OlsIntervalPredictor(RidgeHistoryPredictor):
    """Online classical regression intervals over the maintained normal
    equations."""

    def _predict(self, x, eps):
        return _ols_interval(self._hist.X, self._hist.y, self._gram, self._xty,
                             x, eps, self.a)
