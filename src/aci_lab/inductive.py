"""Inductive (split) predictors: fit once, predict from fixed scores.

The inductive conformal route splits the training data into a proper
training part (fits the scorer) and a calibration part (supplies the
reference nonconformity scores); a candidate's p-value is its rank among
the calibration scores,

    p(y) = ( #{ j : alpha_j >= alpha(x, y) } + 1 ) / (n_cal + 1).

The non-conformal route skips calibration entirely and thresholds the
scorer's own outputs.  Both honour the extended boundary contract and
produce sets nested in eps.
"""

import numpy as np

from .core import CLASSIFICATION, REGRESSION, PredictionSet, boundary_set, labels_above
from .numerics import (ceil_index, empirical_quantile, order_statistic, screened_nearest,
                       sorted_sample, vote_shares)


class _KnnScorer:
    """Shared k-NN scorer plumbing: the neighbour count, the fit and query
    checks, the fitted training set with its rows' squared norms, and the
    one neighbour search both scorers use."""

    def __init__(self, k: int):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = int(k)
        self._X = None
        self._y = None
        self._sq = None

    def _fit(self, X, y, dtype) -> None:
        X, y = np.asarray(X, dtype=float), np.asarray(y)
        if X.ndim != 2 or X.shape[0] == 0:
            raise ValueError("training set must be a non-empty 2-D array")
        if y.shape != (X.shape[0],):
            raise ValueError("labels do not match training rows")
        if self.k > X.shape[0]:
            raise ValueError(f"k={self.k} exceeds training size {X.shape[0]}")
        if not np.isfinite(X).all():
            raise ValueError("training features contain non-finite values")
        if not np.isfinite(y.astype(float)).all():
            raise ValueError("training labels contain non-finite values")
        self._X = X
        self._y = y.astype(dtype)
        self._sq = np.einsum("ij,ij->i", X, X)

    def _nearest(self, x) -> np.ndarray:
        """Training indices of the k nearest rows, nearest first, ties to
        the earlier index: a (k,) array for one feature vector, an (m, k)
        table for a matrix of them (``screened_nearest``, so every row
        equals the direct search)."""
        if self._X is None:
            raise ValueError("scorer is not fitted")
        x = np.asarray(x, dtype=float)
        p = self._X.shape[1]
        if x.ndim not in (1, 2) or x.shape[-1] != p:
            raise ValueError(f"query has {x.shape[-1] if x.ndim else 0} features, "
                             f"the scorer was fitted on {p}")
        if not np.isfinite(x).all():
            raise ValueError("query features contain non-finite values")
        return screened_nearest(self._X, self._sq, x, self.k)


class KnnClassScorer(_KnnScorer):
    """k-NN class-probability scorer: vote shares over the fitted set.

    ``class_scores`` accepts one feature vector or a matrix of them and
    returns vote shares per label in label-space order.  Deterministic
    given the fitted data; ties broken by training index (earlier wins).
    """

    def __init__(self, k: int):
        super().__init__(k)
        self.label_space: list[int] = []

    def fit(self, X, y, label_space=None) -> "KnnClassScorer":
        self._fit(X, y, int)
        if label_space is None:
            self.label_space = sorted(int(c) for c in np.unique(self._y))
        else:
            self.label_space = [int(c) for c in label_space]
        return self

    def class_scores(self, x) -> np.ndarray:
        return vote_shares(self._y[self._nearest(x)], self.label_space)


class KnnQuantileScorer(_KnnScorer):
    """k-NN regression scorer: point estimate and label quantiles from the
    k nearest training labels.  Its quantile function is a step function
    of the sorted neighbour labels, hence monotone in q by construction.
    """

    def fit(self, X, y) -> "KnnQuantileScorer":
        self._fit(X, y, float)
        return self

    def neighbour_labels(self, x) -> np.ndarray:
        """The k nearest training labels, nearest first: a (k,) array for
        one feature vector, an (m, k) table for a matrix of them; ties go
        to the earlier training index.
        """
        return self._y[self._nearest(x)]

    def point(self, x) -> float:
        return float(np.mean(self.neighbour_labels(x)))

    def quantile(self, x, q: float) -> float:
        return empirical_quantile(self.neighbour_labels(x), q)


def calibration_scores(scorer, X_cal, y_cal) -> np.ndarray:
    """Nonconformity of the calibration examples: 1 - score of the true
    label under the fitted scorer."""
    X_cal = np.asarray(X_cal, dtype=float)
    y_cal = np.asarray(y_cal).astype(int)
    if X_cal.ndim != 2 or X_cal.shape[0] == 0:
        raise ValueError("calibration set must be a non-empty 2-D array")
    hits = y_cal[:, None] == np.asarray(scorer.label_space, dtype=int)
    known = hits.any(axis=1)
    if not known.all():
        raise ValueError(f"calibration label {y_cal[~known][0]} is not in the "
                         f"scorer's label space {scorer.label_space}")
    shares = np.atleast_2d(scorer.class_scores(X_cal))
    return 1.0 - shares[np.arange(len(y_cal)), hits.argmax(axis=1)]


def calibration_residuals(scorer, X_cal, y_cal) -> np.ndarray:
    """Absolute point-prediction residuals on the calibration examples,
    the point being the mean of each row's neighbour labels."""
    X_cal = np.asarray(X_cal, dtype=float)
    y_cal = np.asarray(y_cal, dtype=float)
    if X_cal.ndim != 2 or X_cal.shape[0] == 0:
        raise ValueError("calibration set must be a non-empty 2-D array")
    return np.abs(y_cal - scorer.neighbour_labels(X_cal).mean(axis=1))


def icp_classify_predict(scorer, cal_scores, x, eps: float) -> PredictionSet:
    """Split-conformal classification: keep labels whose calibration rank
    p-value exceeds eps."""
    forced = boundary_set(eps, CLASSIFICATION)
    if forced is not None:
        return forced
    cal_sorted = _checked_sorted(cal_scores)
    return labels_above(_icp_p_values(scorer.class_scores(x), cal_sorted),
                        scorer.label_space, eps)


def _icp_p_values(scores, cal_sorted) -> np.ndarray:
    """Label p-values of class scores, a row or a table of rows; eps-free."""
    n_cal = cal_sorted.shape[0]
    n_ge = n_cal - np.searchsorted(cal_sorted, 1.0 - np.asarray(scores, float), "left")
    return (n_ge + 1.0) / (n_cal + 1.0)


def icp_regress_predict(point_pred: float, cal_residuals, eps: float) -> PredictionSet:
    """Split-conformal regression: symmetric interval at the calibration
    residual order statistic ceil((1 - eps)(n_cal + 1)); past the largest
    residual the interval is unbounded."""
    forced = boundary_set(eps, REGRESSION)
    if forced is not None:
        return forced
    return _icp_interval(point_pred, _checked_sorted(cal_residuals), eps)


def _icp_interval(point_pred, cal_sorted, eps) -> PredictionSet:
    n_cal = cal_sorted.shape[0]
    idx = ceil_index((1.0 - eps) * (n_cal + 1))
    if idx > n_cal:
        return PredictionSet.full_interval()
    q = float(cal_sorted[max(idx, 1) - 1])
    return PredictionSet.interval(point_pred - q, point_pred + q)


def inccp_classify_predict(scorer, x, eps: float) -> PredictionSet:
    """Non-conformal inductive classification: labels scoring above eps."""
    forced = boundary_set(eps, CLASSIFICATION)
    if forced is not None:
        return forced
    scores = np.asarray(scorer.class_scores(x), dtype=float)
    return labels_above(scores, scorer.label_space, eps)


def inccp_regress_predict(scorer, x, eps: float) -> PredictionSet:
    """Non-conformal inductive regression: central interval between the
    scorer's eps/2 and 1 - eps/2 conditional quantiles.

    Only a ``KnnQuantileScorer`` is accepted: its quantiles are order
    statistics of one neighbour row, so the intervals nest in eps, which
    is what makes the rule a confidence predictor.
    """
    if not isinstance(scorer, KnnQuantileScorer):
        raise ValueError(f"inccp_regress_predict needs a KnnQuantileScorer, "
                         f"got {type(scorer).__name__}")
    forced = boundary_set(eps, REGRESSION)
    if forced is not None:
        return forced
    return _quantile_interval(sorted_sample(scorer.neighbour_labels(x)), eps)


def _quantile_interval(row, eps: float) -> PredictionSet:
    """Interval between the eps/2 and 1 - eps/2 empirical quantiles of one
    ``sorted_sample`` row of neighbour labels, for eps inside (0, 1)."""
    return PredictionSet.interval(order_statistic(row, 0.5 * eps),
                                  order_statistic(row, 1.0 - 0.5 * eps))


def _checked_sorted(values) -> np.ndarray:
    arr = np.sort(np.asarray(values, dtype=float))
    if arr.ndim != 1 or arr.shape[0] == 0:
        raise ValueError("calibration scores must be a non-empty 1-D array")
    if np.any(np.isnan(arr)):
        raise ValueError("calibration scores contain NaN")
    return arr
