import math
import warnings

import numpy as np
import pytest

from aci_lab.core import derive_rng
from aci_lab.inductive import (KnnClassScorer, KnnQuantileScorer,
                               calibration_residuals, calibration_scores,
                               icp_classify_predict, icp_regress_predict,
                               inccp_classify_predict, inccp_regress_predict)
from aci_lab.numerics import distances, vote_shares


def _small_scorer():
    X = np.array([[0.0], [0.5], [10.0], [10.5], [20.0]])
    y = np.array([0, 0, 1, 1, 2])
    return KnnClassScorer(k=5).fit(X, y)


def test_class_scores_are_vote_shares():
    scorer = _small_scorer()
    # k = 5 votes (A,A,B,B,C) regardless of x
    assert scorer.class_scores(np.array([0.0])) == pytest.approx([0.4, 0.4, 0.2])


def test_class_scores_batch_matches_single():
    scorer = KnnClassScorer(k=3).fit(*_random_train(40, 3))
    X_test = derive_rng(0, "batch").normal(size=(7, 3))
    batch = scorer.class_scores(X_test)
    for i in range(7):
        assert batch[i] == pytest.approx(scorer.class_scores(X_test[i]))


def test_neighbour_labels_batch_matches_single():
    # integer-grid features make many distances tie exactly; both forms
    # must let the earlier training index win
    rng = derive_rng(0, "grid")
    X, y = rng.integers(0, 3, size=(40, 2)).astype(float), rng.normal(size=40)
    scorer = KnnQuantileScorer(k=5).fit(X, y)
    X_test = rng.integers(0, 3, size=(9, 2)).astype(float)
    table = scorer.neighbour_labels(X_test)
    assert table.shape == (9, 5)
    for i in range(9):
        assert np.array_equal(table[i], scorer.neighbour_labels(X_test[i]))
        assert table[i].mean() == scorer.point(X_test[i])


@pytest.mark.parametrize("scale", [0.1, 0.3, 1.0])
def test_scorers_match_direct_oracle_on_grid_ties(scale):
    # integer grids scaled by 0.1, 0.3 or 1 make many distances tie
    # exactly; both scorers, on a query matrix spanning several search
    # blocks and on single rows, must pick the first k of a stable argsort
    # of one-row distances, so the earlier training index wins every tie
    rng = derive_rng(12, "scorer-grid-ties", scale)
    for p in (2, 6, 8):
        X = rng.integers(0, 4, size=(300, p)) * scale
        y = rng.integers(0, 3, size=300)
        Q = rng.integers(0, 4, size=(200, p)) * scale
        for k in (1, 10):
            near = np.array([np.argsort(distances(X, q), kind="stable")[:k] for q in Q])
            want_shares = vote_shares(y[near], [0, 1, 2])
            classes = KnnClassScorer(k).fit(X, y, label_space=[0, 1, 2])
            labels = KnnQuantileScorer(k).fit(X, y * 1.0)
            assert np.array_equal(classes.class_scores(Q), want_shares), (p, k)
            assert np.array_equal(labels.neighbour_labels(Q), y[near] * 1.0), (p, k)
            for i in range(0, 200, 7):
                assert np.array_equal(classes.class_scores(Q[i]), want_shares[i]), (p, k, i)
                assert np.array_equal(labels.neighbour_labels(Q[i]), y[near[i]] * 1.0), (p, k, i)


@pytest.mark.parametrize("cls, search, width", [(KnnClassScorer, "class_scores", 3),
                                                (KnnQuantileScorer, "neighbour_labels", 2)])
def test_scorer_query_checks(cls, search, width):
    # both scorers check queries in one place: a wrong feature count names
    # both counts, a non-finite feature is refused alike, and an empty
    # query matrix gives an empty result
    with pytest.raises(ValueError, match="not fitted"):
        getattr(cls(2), search)(np.zeros(3))
    rng = derive_rng(13, "scorer-queries")
    X, y = rng.normal(size=(20, 3)), rng.integers(0, 3, size=20)
    search = getattr(cls(2).fit(X, y), search)
    for bad in (np.zeros(4), np.zeros((5, 2)), np.zeros((0, 4))):
        with pytest.raises(ValueError, match=f"query has {bad.shape[-1]} features, "
                                             f"the scorer was fitted on 3"):
            search(bad)
    for bad in (np.nan, np.inf):
        Q = rng.normal(size=(5, 3))
        Q[2, 1] = bad
        for query in (Q, Q[2]):
            with pytest.raises(ValueError, match="query features contain non-finite values"):
                search(query)
    assert search(np.empty((0, 3))).shape == (0, width)


def _random_train(n, p, n_classes=3, seed=1):
    rng = derive_rng(seed, "train", n, p)
    return rng.normal(size=(n, p)), rng.integers(0, n_classes, size=n)


def test_scorer_k_must_fit_training_size():
    with pytest.raises(ValueError):
        KnnClassScorer(k=6).fit(np.zeros((5, 1)), np.zeros(5, dtype=int))
    with pytest.raises(ValueError):
        KnnQuantileScorer(k=6).fit(np.zeros((5, 1)), np.zeros(5))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("cls", [KnnClassScorer, KnnQuantileScorer])
def test_scorers_refuse_non_finite_labels_at_fit(cls, bad):
    # a named error at fit, with no cast warning, instead of a scorer whose
    # point, quantiles or votes are inf or nan
    X, y = _random_train(10, 2)
    y = y.astype(float)
    y[3] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="training labels contain non-finite"):
            cls(k=3).fit(X, y)


def test_icp_classify_worked_instance():
    # cal scores (0.1, 0.2, 0.3); candidate alpha 0.25:
    # one cal score >= 0.25, p = (1+1)/4 = 0.5 > 0.25 -> kept
    class OneLabel:
        label_space = [0]
        def class_scores(self, x):
            return np.array([0.75])
    ps = icp_classify_predict(OneLabel(), [0.1, 0.2, 0.3], np.zeros(1), 0.25)
    assert ps.contains(0)
    # at eps = 0.5 it is dropped (p = 0.5 is not > 0.5)
    ps = icp_classify_predict(OneLabel(), [0.1, 0.2, 0.3], np.zeros(1), 0.5)
    assert not ps.contains(0)


def test_icp_pvalue_matches_brute_recount():
    rng = derive_rng(2, "icp-recount")
    for trial in range(100):
        n_cal = int(rng.integers(1, 51))
        cal = np.round(rng.random(n_cal), 2)  # coarse values force ties
        alpha = float(np.round(rng.random(), 2))
        eps = float(rng.uniform(0.02, 0.9))
        class Stub:
            label_space = [0]
            def class_scores(self, x, _a=alpha):
                return np.array([1.0 - _a])
        ps = icp_classify_predict(Stub(), cal, np.zeros(1), eps)
        p_brute = (int(np.sum(cal >= alpha)) + 1) / (n_cal + 1)
        assert ps.contains(0) == (p_brute > eps), (
            f"trial {trial}: alpha={alpha} p={p_brute} eps={eps}")


def test_icp_regress_worked_instance():
    # residuals (1,2,3), eps = 0.5: index ceil(0.5*4) = 2 -> q = 2
    ps = icp_regress_predict(10.0, [1.0, 2.0, 3.0], 0.5)
    assert (ps.lower, ps.upper) == (8.0, 12.0)


def test_icp_regress_overflow_is_unbounded():
    # index past the largest residual: no finite guarantee available
    ps = icp_regress_predict(0.0, [1.0, 2.0, 3.0], 0.1)  # ceil(0.9*4) = 4 > 3
    assert ps.is_infinite


def test_icp_regress_order_statistic_oracle():
    rng = derive_rng(3, "icp-reg")
    for _ in range(100):
        n_cal = int(rng.integers(1, 40))
        res = np.abs(rng.normal(size=n_cal))
        eps = float(rng.uniform(0.02, 0.9))
        ps = icp_regress_predict(0.0, res, eps)
        idx = math.ceil((1 - eps) * (n_cal + 1) - 1e-9)
        if idx > n_cal:
            assert ps.is_infinite
        else:
            assert ps.upper == pytest.approx(float(np.sort(res)[idx - 1]))


def test_inccp_classify_thresholds_scores():
    scorer = _small_scorer()
    ps = inccp_classify_predict(scorer, np.array([0.0]), eps=0.3)
    assert ps.labels == frozenset([0, 1])  # shares 0.4, 0.4, 0.2
    ps = inccp_classify_predict(scorer, np.array([0.0]), eps=0.45)
    assert len(ps.labels) == 0


def test_quantile_scorer_worked_instance():
    X = np.arange(10, dtype=float).reshape(-1, 1)
    y = np.arange(1.0, 11.0)  # labels 1..10
    scorer = KnnQuantileScorer(k=10).fit(X, y)
    assert scorer.point(np.array([5.0])) == pytest.approx(5.5)
    assert scorer.quantile(np.array([5.0]), 0.1) == 1.0
    assert scorer.quantile(np.array([5.0]), 0.9) == 9.0


def test_inccp_regress_central_interval():
    X = np.arange(10, dtype=float).reshape(-1, 1)
    y = np.arange(1.0, 11.0)
    scorer = KnnQuantileScorer(k=10).fit(X, y)
    ps = inccp_regress_predict(scorer, np.array([5.0]), eps=0.2)
    assert (ps.lower, ps.upper) == (1.0, 9.0)


def test_inccp_regress_nested_in_eps():
    scorer = KnnQuantileScorer(k=8).fit(
        *map(np.asarray, (derive_rng(4, "q").normal(size=(30, 2)),
                          derive_rng(4, "qy").normal(size=30))))
    x = np.zeros(2)
    last = None
    for eps in (0.05, 0.2, 0.5, 0.8):
        ps = inccp_regress_predict(scorer, x, eps)
        if last is not None:
            assert ps.issubset(last)
        last = ps


def test_inccp_regress_refuses_other_scorers():
    # only the k-NN quantile scorer's intervals are known to nest in eps
    class Crossing:
        def quantile(self, x, q):
            return math.sin(8.0 * q)
    with pytest.raises(ValueError, match="KnnQuantileScorer"):
        inccp_regress_predict(Crossing(), np.zeros(1), 0.2)


def test_calibration_scores_are_true_label_complements():
    scorer = _small_scorer()
    X_cal = np.array([[0.0], [20.0]])
    y_cal = np.array([0, 2])
    scores = calibration_scores(scorer, X_cal, y_cal)
    assert scores == pytest.approx([0.6, 0.8])  # 1 - (0.4, 0.2)


def test_calibration_scores_refuse_unknown_label():
    # a label outside the scorer's label space used to raise a bare
    # KeyError from the column lookup
    scorer = KnnClassScorer(k=1).fit(np.array([[0.0], [1.0]]), np.array([0, 1]))
    with pytest.raises(ValueError, match="calibration label 7"):
        calibration_scores(scorer, np.array([[0.5], [0.2]]), np.array([1, 7]))


def test_calibration_residuals_are_absolute():
    X = np.arange(10, dtype=float).reshape(-1, 1)
    y = np.arange(1.0, 11.0)
    scorer = KnnQuantileScorer(k=10).fit(X, y)
    res = calibration_residuals(scorer, np.array([[3.0]]), np.array([2.0]))
    assert res == pytest.approx([3.5])  # point is 5.5 everywhere


def test_boundary_levels_inductive():
    scorer = _small_scorer()
    assert icp_classify_predict(scorer, [0.5], np.zeros(1), -0.1).kind == "all"
    assert icp_classify_predict(scorer, [0.5], np.zeros(1), 1.0).kind == "empty"
    assert inccp_classify_predict(scorer, np.zeros(1), 0.0).kind == "all"
    assert icp_regress_predict(0.0, [1.0], 1.5).kind == "empty"
    assert inccp_regress_predict(KnnQuantileScorer(k=1).fit(
        np.zeros((1, 1)), np.zeros(1)), np.zeros(1), -0.5).is_infinite
