"""Run metrics: the Winkler interval score, set-size diagnostics, and
per-run / cross-trial aggregation.

The Winkler score of an interval [l, u] at level eps is

    W = (u - l)                         if l <= y <= u
    W = (u - l) + (2/eps) * (l - y)     if y < l
    W = (u - l) + (2/eps) * (y - u)     if y > u

i.e. the width plus a miss penalty scaled by 2/eps; equivalently
|interval| + 2 * dist(interval, y) / eps, which is the form used for
general prediction sets.  Infinite endpoints score +inf, as does the
empty set (a miss at distance "beyond any interval").
"""

import math
from dataclasses import dataclass

import numpy as np

from .aci import check_guarantee
from .core import PredictionSet

EPS_CLAMP_LO = 0.001
EPS_CLAMP_HI = 0.999


def clamp_eps(eps: float, lo: float = EPS_CLAMP_LO, hi: float = EPS_CLAMP_HI) -> float:
    """Scoring-time clamp: keeps 2/eps finite when the controller wanders
    to the boundary.  Only metrics use this; predictors see the raw level."""
    return min(max(eps, lo), hi)


def winkler_score(lower: float, upper: float, y: float, eps: float) -> float:
    """Interval form of the score; eps must lie strictly inside (0, 1)."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps {eps} outside (0, 1)")
    if math.isnan(lower) or math.isnan(upper) or lower > upper:
        raise ValueError(f"not an interval: [{lower}, {upper}]")
    if math.isinf(lower) or math.isinf(upper):
        return math.inf
    width = upper - lower
    if y < lower:
        return width + 2.0 / eps * (lower - y)
    if y > upper:
        return width + 2.0 / eps * (y - upper)
    return width


def winkler_score_set(ps: PredictionSet, y: float, eps: float) -> float:
    """Set form: |set| + 2 * dist(set, y) / eps.  Empty sets and sets of
    infinite measure score +inf."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps {eps} outside (0, 1)")
    if ps.kind == "empty":
        return math.inf
    if ps.kind != "interval":
        raise ValueError("winkler score applies to interval predictions")
    if ps.is_infinite:
        return math.inf
    dist = max(ps.lower - y, y - ps.upper, 0.0)
    return (ps.upper - ps.lower) + 2.0 * dist / eps


@dataclass(frozen=True)
class StepRecord:
    """One online step: the level used, the outcome, and set diagnostics.

    ``set_size_or_width`` is a label count for classification and an
    interval width for regression.  ``winkler`` is None for
    classification; ``excess`` (labels kept beyond the true one) is None
    for regression.  An empty regression set is recognisable as
    winkler == +inf with is_infinite False.
    """

    step: int
    eps_used: float
    err: int
    set_size_or_width: float
    winkler: float | None
    excess: int | None
    is_infinite: bool

    def __post_init__(self):
        if self.err not in (0, 1):
            raise ValueError(f"err must be 0 or 1, got {self.err!r}")
        if self.step < 0:
            raise ValueError("step index cannot be negative")

    @property
    def is_empty(self) -> bool:
        if self.winkler is None:
            return self.set_size_or_width == 0.0
        return math.isinf(self.winkler) and not self.is_infinite


def classification_record(step: int, eps_used: float, ps: PredictionSet,
                          y: int, n_labels: int) -> StepRecord:
    err = 0 if ps.contains(y) else 1
    size = ps.size(n_labels)
    return StepRecord(step=step, eps_used=eps_used, err=err,
                      set_size_or_width=size, winkler=None,
                      excess=int(size) - (1 - err), is_infinite=False)


def regression_record(step: int, eps_used: float, ps: PredictionSet,
                      y: float, clamp=(EPS_CLAMP_LO, EPS_CLAMP_HI)) -> StepRecord:
    err = 0 if ps.contains(y) else 1
    return StepRecord(step=step, eps_used=eps_used, err=err,
                      set_size_or_width=ps.size(),
                      winkler=winkler_score_set(ps, y, clamp_eps(eps_used, *clamp)),
                      excess=None, is_infinite=ps.is_infinite)


def observed_excess(records) -> float:
    """Mean number of kept labels beyond the true one, under the levels
    the controller actually used.  Classification runs only."""
    records = list(records)
    if not records:
        raise ValueError("no records")
    if any(r.excess is None for r in records):
        raise ValueError("observed excess is defined for classification records")
    return sum(r.excess for r in records) / len(records)


@dataclass(frozen=True)
class RunSummary:
    """Headline numbers for one run."""

    n_steps: int
    task: str
    eps_target: float
    eps1: float
    gamma: float
    mean_err: float
    bound: float
    bound_satisfied: bool
    oe: float | None = None
    mean_winkler_finite: float | None = None
    mean_width_finite: float | None = None
    frac_inf: float | None = None
    frac_empty: float | None = None


def summarize_run(records, eps_target: float, eps1: float, gamma: float) -> RunSummary:
    """Collapse a step trace into the headline numbers.

    Winkler and width means are over finite steps only (None when every
    step was infinite or empty); the fractions report how often that
    happened.  The guarantee check compares |target - mean err| to the
    telescoping bound for this horizon.
    """
    records = list(records)
    if not records:
        raise ValueError("no records")
    regression = records[0].winkler is not None
    if any((r.winkler is not None) != regression for r in records):
        raise ValueError("mixed classification and regression records")
    report = check_guarantee([r.err for r in records], eps_target, eps1, gamma)
    if regression:
        finite = [r for r in records if math.isfinite(r.winkler)]
        by_task = dict(
            mean_winkler_finite=sum(r.winkler for r in finite) / len(finite) if finite else None,
            mean_width_finite=(sum(r.set_size_or_width for r in finite) / len(finite)
                               if finite else None),
            frac_inf=sum(r.is_infinite for r in records) / len(records))
    else:
        by_task = dict(oe=observed_excess(records))
    return RunSummary(
        n_steps=report.n_steps, task="regression" if regression else "classification",
        eps_target=eps_target, eps1=eps1, gamma=gamma, mean_err=report.mean_err,
        bound=report.bound, bound_satisfied=report.satisfied,
        frac_empty=sum(r.is_empty for r in records) / len(records), **by_task)


def aggregate_trials(values) -> tuple[float, float]:
    """Mean and normal-theory 95% half-width (1.96 * sd / sqrt(T), sample
    sd with ddof=1) over independent trials.  Needs at least two."""
    arr = np.asarray(list(values), dtype=float)
    if arr.shape[0] < 2:
        raise ValueError("need at least two trials to aggregate")
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite trial values")
    mean = float(np.mean(arr))
    half = 1.96 * float(np.std(arr, ddof=1)) / math.sqrt(arr.shape[0])
    return mean, half


def lag1_autocorrelation(errs) -> float:
    """Lag-1 sample autocorrelation of a 0/1 sequence.  Under independent
    errors it concentrates near 0 at scale 1/sqrt(n); a constant sequence
    has no variance and returns 0."""
    arr = np.asarray(list(errs), dtype=float)
    if arr.shape[0] < 3:
        raise ValueError("need at least 3 observations")
    centred = arr - arr.mean()
    denom = float(centred @ centred)
    if denom == 0.0:
        return 0.0
    return float(centred[:-1] @ centred[1:]) / denom
