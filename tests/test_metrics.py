import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from aci_lab.core import PredictionSet, derive_rng
from aci_lab.metrics import (aggregate_trials, clamp_eps,
                             classification_record, lag1_autocorrelation,
                             observed_excess, regression_record,
                             summarize_run, winkler_score, winkler_score_set)


def test_winkler_inside_is_width():
    assert winkler_score(4.0, 6.0, 5.0, 0.1) == 2.0
    assert winkler_score(4.0, 6.0, 4.0, 0.1) == 2.0  # endpoints count as covered


def test_winkler_miss_adds_scaled_distance():
    # width 2, miss by 1 at eps 0.1: 2 + (2/0.1)*1 = 22, either side
    assert winkler_score(4.0, 6.0, 7.0, 0.1) == pytest.approx(22.0)
    assert winkler_score(4.0, 6.0, 3.0, 0.1) == pytest.approx(22.0)


def test_winkler_infinite_and_invalid():
    assert winkler_score(-math.inf, 6.0, 5.0, 0.1) == math.inf
    assert winkler_score(4.0, math.inf, 5.0, 0.1) == math.inf
    with pytest.raises(ValueError):
        winkler_score(6.0, 4.0, 5.0, 0.1)
    with pytest.raises(ValueError):
        winkler_score(4.0, 6.0, 5.0, 0.0)
    with pytest.raises(ValueError):
        winkler_score(4.0, 6.0, 5.0, 1.0)


def test_winkler_set_form_matches_interval_form():
    rng = derive_rng(11, "winkler")
    for _ in range(500):
        lo = float(rng.normal(scale=5))
        hi = lo + float(rng.exponential(2.0))
        y = float(rng.normal(scale=8))
        eps = float(rng.uniform(0.01, 0.99))
        direct = winkler_score(lo, hi, y, eps)
        via_set = winkler_score_set(PredictionSet.interval(lo, hi), y, eps)
        assert via_set == pytest.approx(direct, rel=1e-12)


def test_winkler_set_empty_and_infinite():
    assert winkler_score_set(PredictionSet.empty(), 0.0, 0.1) == math.inf
    assert winkler_score_set(PredictionSet.full_interval(), 0.0, 0.1) == math.inf
    with pytest.raises(ValueError):
        winkler_score_set(PredictionSet.label_set([1]), 0.0, 0.1)


@given(st.floats(-0.5, 1.5))
def test_clamp_keeps_score_arguments_legal(eps):
    assert 0.001 <= clamp_eps(eps) <= 0.999
    if 0.001 <= eps <= 0.999:
        assert clamp_eps(eps) == eps


def test_classification_record_excess():
    ps = PredictionSet.label_set([0, 1, 2])
    r = classification_record(3, 0.1, ps, y=1, n_labels=5)
    assert (r.err, r.set_size_or_width, r.excess) == (0, 3.0, 2)
    r = classification_record(3, 0.1, ps, y=4, n_labels=5)
    assert (r.err, r.excess) == (1, 3)  # miss: every kept label is excess
    r = classification_record(0, 0.1, PredictionSet.all_labels(), y=4, n_labels=5)
    assert (r.err, r.set_size_or_width, r.excess) == (0, 5.0, 4)


def test_regression_record_infinite_vs_empty():
    r = regression_record(0, 0.1, PredictionSet.full_interval(), 1.0)
    assert r.is_infinite and r.winkler == math.inf and not r.is_empty
    r = regression_record(0, 0.1, PredictionSet.empty(), 1.0)
    assert not r.is_infinite and r.winkler == math.inf and r.is_empty
    assert r.err == 1 and r.set_size_or_width == 0.0


def test_regression_record_clamps_scoring_level():
    ps = PredictionSet.interval(0.0, 1.0)
    r = regression_record(0, 1e-8, ps, 2.0)
    assert r.winkler == pytest.approx(1.0 + 2.0 / 0.001 * 1.0)
    assert r.eps_used == 1e-8  # the raw level is preserved in the record


def test_step_record_validation():
    with pytest.raises(ValueError):
        classification_record(-1, 0.1, PredictionSet.label_set([0]), 0, 2)
    ps = PredictionSet.label_set([0])
    r = classification_record(0, 0.1, ps, 0, 2)
    assert r.is_empty is False
    r = classification_record(0, 0.99, PredictionSet.empty(), 0, 2)
    assert r.is_empty is True


def test_observed_excess_mean():
    recs = [classification_record(i, 0.1, PredictionSet.label_set([0, 1]), 0, 3)
            for i in range(4)]
    assert observed_excess(recs) == 1.0
    with pytest.raises(ValueError):
        observed_excess([])
    with pytest.raises(ValueError):
        observed_excess([regression_record(0, 0.1, PredictionSet.interval(0, 1), 0.5)])


def test_summarize_classification_run():
    recs = [classification_record(i, 0.2, PredictionSet.label_set([0, 1]), i % 3, 3)
            for i in range(30)]
    s = summarize_run(recs, eps_target=0.2, eps1=0.2, gamma=0.05)
    assert s.task == "classification"
    assert s.mean_err == pytest.approx(10 / 30)
    assert s.oe is not None and s.mean_winkler_finite is None
    assert s.frac_empty == 0.0


def test_summarize_regression_run_fractions():
    recs = [
        regression_record(0, 0.1, PredictionSet.interval(0.0, 2.0), 1.0),
        regression_record(1, 0.1, PredictionSet.interval(0.0, 4.0), 5.0),
        regression_record(2, 0.1, PredictionSet.full_interval(), 1.0),
        regression_record(3, 0.1, PredictionSet.empty(), 1.0),
    ]
    s = summarize_run(recs, eps_target=0.1, eps1=0.1, gamma=0.05)
    assert s.task == "regression"
    assert s.frac_inf == 0.25 and s.frac_empty == 0.25
    assert s.mean_width_finite == pytest.approx(3.0)
    assert s.mean_winkler_finite == pytest.approx((2.0 + (4.0 + 20.0)) / 2)


def test_summarize_all_infinite_gives_none_means():
    recs = [regression_record(i, 0.1, PredictionSet.full_interval(), 0.0)
            for i in range(5)]
    s = summarize_run(recs, 0.1, 0.1, 0.05)
    assert s.mean_winkler_finite is None and s.mean_width_finite is None
    assert s.frac_inf == 1.0


def test_summarize_rejects_mixed_tasks():
    recs = [classification_record(0, 0.1, PredictionSet.label_set([0]), 0, 2),
            regression_record(1, 0.1, PredictionSet.interval(0, 1), 0.5)]
    with pytest.raises(ValueError):
        summarize_run(recs, 0.1, 0.1, 0.05)


def test_aggregate_trials_known_pair():
    # {0, 1}: mean 0.5, sd = sqrt(0.5), half = 1.96 * sqrt(0.5) / sqrt(2) = 0.98
    mean, half = aggregate_trials([0.0, 1.0])
    assert mean == 0.5
    assert half == pytest.approx(0.98)
    with pytest.raises(ValueError):
        aggregate_trials([1.0])
    with pytest.raises(ValueError):
        aggregate_trials([1.0, math.inf])


def test_lag1_autocorrelation():
    assert lag1_autocorrelation([0, 1, 0, 1, 0, 1, 0, 1]) == pytest.approx(-1.0, rel=0.2)
    assert lag1_autocorrelation([1, 1, 1, 1]) == 0.0
    rng = derive_rng(5, "acorr")
    iid = rng.integers(0, 2, size=20000)
    assert abs(lag1_autocorrelation(iid)) < 3.0 / math.sqrt(20000)
    with pytest.raises(ValueError):
        lag1_autocorrelation([0, 1])
