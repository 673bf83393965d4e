import math

import numpy as np
import pytest

from aci_lab import harness
from aci_lab.core import (CLASSIFICATION, REGRESSION, CoinFlipPredictor,
                          PredictionSet, RandomSetPredictor,
                          boundary_set, coin_flip_predict, derive_rng,
                          labels_above, random_set_predict)
from aci_lab.cp_online import (CachedKnnConformalClassifier, CrrPredictor,
                               KnnConformalClassifier, crr_predict,
                               knn_cp_predict)
from aci_lab.inductive import (KnnClassScorer, KnnQuantileScorer,
                               icp_classify_predict, icp_regress_predict,
                               inccp_classify_predict, inccp_regress_predict)
from aci_lab.nccp_online import (KnnThresholdClassifier, OlsIntervalPredictor,
                                 knn_threshold_predict, ols_interval_predict)


def test_label_set_membership():
    ps = PredictionSet.label_set([2, 5])
    assert ps.contains(2) and ps.contains(5)
    assert not ps.contains(3)
    assert ps.size() == 2.0


def test_labels_above_keeps_scores_strictly_over_eps():
    # labels in any order (a list or an array) with their scores in the
    # same order; a score equal to eps is dropped
    scores = np.array([0.2, 0.5, 0.05, 0.2])
    for labels in ([7, 3, 0, 1], np.array([7, 3, 0, 1])):
        assert labels_above(scores, labels, 0.1).labels == {7, 3, 1}
        assert labels_above(scores, labels, 0.2).labels == {3}
        assert labels_above(scores, labels, 0.5).kind == "labels"
        assert labels_above(scores, labels, 0.5).labels == frozenset()


def test_interval_membership_closed_endpoints():
    ps = PredictionSet.interval(1.5, 4.0)
    assert ps.contains(1.5) and ps.contains(4.0) and ps.contains(2.0)
    assert not ps.contains(1.4999) and not ps.contains(4.0001)
    assert ps.size() == 2.5


def test_empty_and_all():
    assert not PredictionSet.empty().contains(0)
    assert PredictionSet.all_labels().contains(123)
    assert PredictionSet.empty().size() == 0.0
    assert PredictionSet.all_labels().size(10) == 10.0
    assert math.isinf(PredictionSet.all_labels().size())


def test_interval_validation():
    with pytest.raises(ValueError):
        PredictionSet.interval(2.0, 1.0)
    with pytest.raises(ValueError):
        PredictionSet.interval(math.nan, 1.0)


def test_infinite_interval_flag():
    assert PredictionSet.full_interval().is_infinite
    assert PredictionSet.interval(0, math.inf).is_infinite
    assert not PredictionSet.interval(0, 5).is_infinite


def test_issubset():
    small = PredictionSet.label_set([1])
    big = PredictionSet.label_set([1, 2])
    assert small.issubset(big) and not big.issubset(small)
    assert PredictionSet.empty().issubset(small)
    assert big.issubset(PredictionSet.all_labels())
    inner = PredictionSet.interval(1, 2)
    outer = PredictionSet.interval(0, 3)
    assert inner.issubset(outer) and not outer.issubset(inner)


def test_boundary_contract():
    assert boundary_set(0.0, CLASSIFICATION).kind == "all"
    assert boundary_set(-0.3, CLASSIFICATION).kind == "all"
    assert boundary_set(1.0, CLASSIFICATION).kind == "empty"
    assert boundary_set(1.7, REGRESSION).kind == "empty"
    full = boundary_set(-0.01, REGRESSION)
    assert full.kind == "interval" and full.is_infinite
    assert boundary_set(0.5, CLASSIFICATION) is None


ONE_SHOT_ROUTES = ("knn_cp_predict", "crr_predict", "knn_threshold_predict",
                   "ols_interval_predict", "icp_classify_predict",
                   "icp_regress_predict", "inccp_classify_predict",
                   "inccp_regress_predict")
ONLINE_ROUTES = ("KnnConformalClassifier", "CachedKnnConformalClassifier",
                 "KnnThresholdClassifier", "CrrPredictor", "OlsIntervalPredictor",
                 "CoinFlipPredictor", "RandomSetPredictor")


@pytest.fixture(scope="module")
def boundary_routes():
    """route name -> (task, eps -> PredictionSet), each on a small fitted
    history, so that only the boundary contract decides the output."""
    rng = derive_rng(0, "boundary-routes")
    X = rng.normal(size=(12, 2))
    y_cls = np.arange(12) % 3
    y_reg = rng.normal(size=12)
    x = rng.normal(size=2)
    labels = [0, 1, 2]
    class_scorer = KnnClassScorer(3).fit(X, y_cls, labels)
    reg_scorer = KnnQuantileScorer(3).fit(X, y_reg)
    cal = np.linspace(0.0, 1.0, 7)
    routes = {
        "knn_cp_predict": (CLASSIFICATION,
                           lambda eps: knn_cp_predict(X, y_cls, x, eps, 1, labels)),
        "crr_predict": (REGRESSION, lambda eps: crr_predict(X, y_reg, x, eps)),
        "knn_threshold_predict": (CLASSIFICATION, lambda eps: knn_threshold_predict(
            X, y_cls, x, eps, 3, labels)),
        "ols_interval_predict": (REGRESSION,
                                 lambda eps: ols_interval_predict(X, y_reg, x, eps)),
        "icp_classify_predict": (CLASSIFICATION, lambda eps: icp_classify_predict(
            class_scorer, cal, x, eps)),
        "icp_regress_predict": (REGRESSION, lambda eps: icp_regress_predict(0.5, cal, eps)),
        "inccp_classify_predict": (CLASSIFICATION,
                                   lambda eps: inccp_classify_predict(class_scorer, x, eps)),
        "inccp_regress_predict": (REGRESSION,
                                  lambda eps: inccp_regress_predict(reg_scorer, x, eps)),
    }
    online = {
        "KnnConformalClassifier": (KnnConformalClassifier(1, labels), y_cls),
        "CachedKnnConformalClassifier": (CachedKnnConformalClassifier(1, labels), y_cls),
        "KnnThresholdClassifier": (KnnThresholdClassifier(3, labels), y_cls),
        "CrrPredictor": (CrrPredictor(), y_reg),
        "OlsIntervalPredictor": (OlsIntervalPredictor(), y_reg),
        "CoinFlipPredictor": (CoinFlipPredictor(derive_rng(0, "coin"), task=REGRESSION),
                              y_reg),
        "RandomSetPredictor": (RandomSetPredictor(labels, derive_rng(0, "rs")), y_cls),
    }
    for name, (pred, y) in online.items():
        for xi, yi in zip(X, y):
            pred.observe(xi, yi)
        routes[name] = (pred.task, lambda eps, pred=pred: pred.predict(x, eps))
    for pid in harness.OFFLINE_PREDICTORS:
        dataset = "synth-class" if pid.endswith("class") else "synth-reg"
        cfg = harness.build_config({"dataset": dataset, "predictor": pid,
                                    "n": 80, "p": 3, "seed": 0})
        train, test = harness.resolve_offline_datasets(cfg)
        rule = harness._offline_rule(cfg, train, test)
        routes[pid] = (harness._PREDICTOR_TASK[pid], lambda eps, rule=rule: rule(0, eps))
    return routes


def _set_key(ps):
    return ps.kind, ps.labels, str(ps.lower), str(ps.upper)


@pytest.mark.parametrize("eps", [-0.5, 0.0, 1.0, 1.5])
@pytest.mark.parametrize("route", ONE_SHOT_ROUTES + ONLINE_ROUTES
                         + harness.OFFLINE_PREDICTORS)
def test_every_route_returns_the_boundary_set(boundary_routes, route, eps):
    task, predict = boundary_routes[route]
    assert _set_key(predict(eps)) == _set_key(boundary_set(eps, task))


def test_coin_flip_boundary_and_frequency():
    rng = derive_rng(0, "coin-test")
    # boundary levels are deterministic
    assert coin_flip_predict(0.0, rng).kind == "all"
    assert coin_flip_predict(1.0, rng).kind == "empty"
    hits = sum(coin_flip_predict(0.3, rng).kind == "empty" for _ in range(20000))
    # 5 sigma band around 0.3
    assert abs(hits / 20000 - 0.3) < 5 * math.sqrt(0.3 * 0.7 / 20000)


def test_random_set_marginal_validity():
    # each label is excluded with probability exactly eps
    rng = derive_rng(1, "random-set-test")
    eps = 0.25
    n = 20000
    misses = sum(not random_set_predict(eps, [0, 1, 2], rng).contains(1)
                 for _ in range(n))
    assert abs(misses / n - eps) < 5 * math.sqrt(eps * (1 - eps) / n)


def test_random_set_is_not_nested():
    # fresh draws at nested levels break set inclusion often
    rng = derive_rng(2, "random-set-nest")
    violations = 0
    for _ in range(200):
        big_eps = random_set_predict(0.6, [0, 1, 2, 3], rng)
        small_eps = random_set_predict(0.2, [0, 1, 2, 3], rng)
        if not big_eps.issubset(small_eps):
            violations += 1
    assert violations > 0


def test_derive_rng_streams_are_independent_and_stable():
    a1 = derive_rng(5, "alpha").random(4)
    a2 = derive_rng(5, "alpha").random(4)
    b = derive_rng(5, "beta").random(4)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)


def test_predictor_dimension_check():
    pred = CoinFlipPredictor(derive_rng(0, "dim"), task=CLASSIFICATION)
    pred.observe(np.array([1.0, 2.0]), 0)
    with pytest.raises(ValueError):
        pred.predict(np.array([1.0]), 0.5)


def test_random_set_predictor_boundary():
    pred = RandomSetPredictor([0, 1], derive_rng(0, "rs"))
    assert pred.predict(np.array([0.0]), -1.0).kind == "all"
    assert pred.predict(np.array([0.0]), 1.2).kind == "empty"


def test_example_buffer_views_and_growth():
    from aci_lab.core import ExampleBuffer
    buf = ExampleBuffer(label_dtype=int)
    with pytest.raises(ValueError):
        buf.X
    assert len(buf) == 0 and buf.y.shape == (0,)
    for i in range(20):  # crosses the initial capacity twice
        buf.append(np.array([float(i), float(2 * i)]), i % 3)
    assert len(buf) == 20
    assert buf.X.shape == (20, 2) and buf.y.shape == (20,)
    assert buf.X[7, 1] == 14.0 and buf.y[7] == 1
    assert buf.y.dtype.kind == "i"


def test_example_buffer_reserve_keeps_rows_and_stops_copies():
    from aci_lab.core import ExampleBuffer
    buf = ExampleBuffer(label_dtype=int)
    buf.reserve(30)  # before the first append fixes the width
    buf.append(np.array([0.0, 0.5]), 0)
    first = buf.X
    for i in range(1, 30):
        buf.append(np.array([float(i), i + 0.5]), i % 4)
    # No append up to the reserved rows moved the store.
    assert np.shares_memory(buf.X, first)
    held = buf.X.copy(), buf.y.copy()
    buf.reserve(10)  # below the rows held: nothing changes
    assert np.shares_memory(buf.X, first)
    buf.reserve(100)
    assert not np.shares_memory(buf.X, first)
    assert np.array_equal(buf.X, held[0]) and np.array_equal(buf.y, held[1])
    moved = buf.X
    for i in range(30, 100):
        buf.append(np.array([float(i), i + 0.5]), i % 4)
    assert np.shares_memory(buf.X, moved)
    assert buf.X[99, 1] == 99.5 and buf.y[99] == 3 and buf.y.dtype.kind == "i"


def test_example_buffer_rejects_mismatched_rows():
    from aci_lab.core import ExampleBuffer
    buf = ExampleBuffer()
    buf.append(np.array([1.0, 2.0]), 0.5)
    with pytest.raises(ValueError):
        buf.append(np.array([1.0]), 0.5)
    with pytest.raises(ValueError):
        buf.append(np.zeros((2, 2)), 0.5)
