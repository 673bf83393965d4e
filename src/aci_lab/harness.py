"""Experiment harness: configuration, online/offline runners, sweeps, and
deterministic trace/summary/manifest emission.

A run is reproducible from its manifest: the resolved configuration is
hashed, every random choice flows from (seed, purpose) streams, and all
emitted floats carry 9 significant digits with stable field order, so
re-running a configuration yields byte-identical outputs.
"""

import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, field, fields, replace
from types import UnionType
from typing import get_args, get_origin

import numpy as np

from . import __version__
from .aci import _check_gamma, aci_init, aci_update, gamma_for_bound
from .core import (CLASSIFICATION, REGRESSION, SetPredictor, CoinFlipPredictor,
                   RandomSetPredictor, boundary_set, derive_rng, labels_above)
from .cp_online import CrrPredictor, KnnConformalClassifier
from .data import (Dataset, StreamSpec, load_usps, load_wine, make_stream,
                   split_train_calibration, standardize_features)
from .inductive import (KnnClassScorer, KnnQuantileScorer, _checked_sorted, _icp_interval,
                        _icp_p_values, _quantile_interval,
                        calibration_residuals, calibration_scores)
from .metrics import (EPS_CLAMP_HI, EPS_CLAMP_LO, RunSummary, StepRecord,
                      classification_record, regression_record, summarize_run,
                      aggregate_trials)
from .nccp_online import KnnThresholdClassifier, OlsIntervalPredictor
from .numerics import sorted_sample


class ConfigError(ValueError):
    """Bad or inconsistent experiment configuration."""


ONLINE_PREDICTORS = ("knn-cp", "knn-nccp", "crr", "ols-nccp", "coin-flip", "random-set")
OFFLINE_PREDICTORS = ("icp-class", "inccp-class", "icp-reg", "inccp-reg")

_PREDICTOR_TASK = {
    "knn-cp": CLASSIFICATION, "knn-nccp": CLASSIFICATION,
    "icp-class": CLASSIFICATION, "inccp-class": CLASSIFICATION,
    "random-set": CLASSIFICATION,
    "crr": REGRESSION, "ols-nccp": REGRESSION,
    "icp-reg": REGRESSION, "inccp-reg": REGRESSION,
    "coin-flip": None,  # adapts to the stream task
}

_DEFAULT_K = {"knn-cp": 1, "knn-nccp": 20, "icp-class": 10, "inccp-class": 10,
              "icp-reg": 20, "inccp-reg": 20}


def _setting(default, meaning: str):
    """A config field's default and what it means (its CLI help)."""
    return field(default=default, metadata={"help": meaning})


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment configuration; unspecified fields take defaults.

    The one declaration of what a run can set: each field's annotation
    is the type a config-file or command-line value is parsed as, and the
    CLI has one flag per field, named after it.  ``gamma`` overrides
    ``delta``: when set, the step size is used as given, otherwise it is
    derived from delta and the run length.
    """

    dataset: str = _setting("synth-reg", "wine | usps | synth-reg | synth-class")
    predictor: str = _setting("crr", "predictor id")
    eps: float = _setting(0.1, "target error rate")
    eps1: float | None = _setting(None, "starting level; unset means eps")
    delta: float = _setting(0.01, "guarantee accuracy used to derive the step size")
    gamma: float | None = _setting(None, "explicit step size; overrides delta")
    warmup: int = _setting(100, "initial history size")
    seed: int = _setting(0, "master seed")
    k: int | None = _setting(None, "neighbour count; unset means the predictor's own")
    ridge_a: float = _setting(0.0, "ridge coefficient for the regression predictors")
    order: str = _setting("white-then-red", "wine file order: white-then-red | red-then-white")
    standardize: bool = _setting(False, "standardize features")
    subsample: int | None = _setting(None, "desk-scale stream subsample")
    full: bool = _setting(False, "full-scale run (no default subsampling)")
    # synthetic stream shape
    n: int = _setting(2100, "stream length")
    p: int = _setting(8, "feature count")
    changepoint_frac: float = _setting(0.5, "where the shift starts, as a fraction of n")
    drift: float = _setting(1.0, "shift magnitude")
    noise_scale: float = _setting(1.0, "noise standard deviation of synth-reg")
    n_classes: int = _setting(3, "class count of synth-class")
    class_sep: float = _setting(3.5, "cluster-mean distance of synth-class")
    # file paths
    white_path: str | None = _setting(None, "wine white file")
    red_path: str | None = _setting(None, "wine red file")
    train_path: str | None = _setting(None, "usps training file")
    test_path: str | None = _setting(None, "usps test file")
    # offline / sweep
    cal_fraction: float = _setting(0.25, "calibration share of the training pool")
    test_fraction: float = _setting(0.25, "test share of a synthetic or wine stream")
    pool_subsample: int | None = _setting(None, "training-pool subsample")
    seeds: tuple[int, ...] = _setting(tuple(range(20)), "comma-separated trial seeds (sweep)")
    cal_fractions: tuple[float, ...] = _setting(tuple(round(0.05 * i, 2) for i in range(1, 20)),
                                                "comma-separated calibration fractions (sweep)")
    # metrics
    winkler_clamp_lo: float = _setting(EPS_CLAMP_LO, "lowest level a Winkler score is taken at")
    winkler_clamp_hi: float = _setting(EPS_CLAMP_HI, "highest level a Winkler score is taken at")
    out: str | None = _setting(None, "output directory")

    def resolved_eps1(self) -> float:
        return self.eps if self.eps1 is None else self.eps1

    def resolve_k(self) -> int:
        if self.k is not None:
            return self.k
        return _DEFAULT_K.get(self.predictor, 10)

    def canonical_text(self) -> str:
        values = sorted((f.name, getattr(self, f.name)) for f in fields(self))
        return "".join(f"{name} = {value_text(v)}\n" for name, v in values if v is not None)

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode("utf-8")).hexdigest()[:12]


def value_text(v) -> str:
    """A setting as a config file writes it: a tuple comma-separated."""
    return ",".join(str(x) for x in v) if isinstance(v, tuple) else str(v)


_BOOL_VALUES = {"true": True, "yes": True, "1": True,
                "false": False, "no": False, "0": False}


def parse_config_file(path: str) -> dict:
    """Flat ``key = value`` file, '#' comments, blank lines ignored."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if not key:
                raise ConfigError(f"{path}:{lineno}: empty key")
            out[key] = value
    return out


_FIELDS = {f.name: f for f in fields(ExperimentConfig)}


def build_config(mapping: dict) -> ExperimentConfig:
    """Typed config from string (or already-typed) values; unknown keys
    are rejected so typos surface immediately."""
    kwargs = {}
    for key, value in mapping.items():
        if key not in _FIELDS:
            raise ConfigError(f"unknown configuration key {key!r}")
        kwargs[key] = _coerce(key, value) if isinstance(value, str) else value
    return ExperimentConfig(**kwargs)


def _coerce(key: str, text: str):
    """``text`` as field ``key``'s annotated type (None dropped from an
    optional one, a tuple's items comma-separated); a malformed value
    raises one ConfigError naming the field."""
    kind, text = _FIELDS[key].type, text.strip()
    if get_origin(kind) is UnionType:
        kind, = (t for t in get_args(kind) if t is not type(None))
    many = get_origin(kind) is tuple
    item = get_args(kind)[0] if many else kind
    parse = (lambda v: _BOOL_VALUES[v.lower()]) if item is bool else item
    try:
        if many:
            return tuple(parse(v.strip()) for v in text.split(",") if v.strip())
        return parse(text)
    except (KeyError, ValueError):
        what = "a boolean" if item is bool else item.__name__
        what = f"comma-separated {what} values" if many else what
        raise ConfigError(f"{key}: expected {what}, got {text!r}") from None


def _check_source(cfg: ExperimentConfig) -> None:
    """Checks made before any data is read: only wine runs may move
    ``order`` (``load_wine`` checks its name), and a subsample keeps at
    least one example."""
    if cfg.dataset != "wine" and cfg.order != ExperimentConfig.order:
        raise ConfigError(f"order applies to wine runs only, not {cfg.dataset!r}")
    for name, value in (("subsample", cfg.subsample), ("pool_subsample", cfg.pool_subsample)):
        if value is not None and value < 1:
            raise ConfigError(f"{name} {value} below 1")


def _load_usps(cfg: ExperimentConfig) -> tuple[Dataset, Dataset]:
    """The usps (train, test) file pair; both paths must be set."""
    if not (cfg.train_path and cfg.test_path):
        raise ConfigError("usps runs need train_path and test_path")
    return load_usps(cfg.train_path, cfg.test_path)


def resolve_online_dataset(cfg: ExperimentConfig) -> Dataset:
    """The example stream an online run walks through, warmup included."""
    _check_source(cfg)
    if cfg.standardize and cfg.warmup < 2:
        # the statistics come from the warm-up rows only, so that no
        # controlled example is seen before its step
        raise ConfigError(f"standardize needs warmup >= 2, got warmup {cfg.warmup}")
    if cfg.dataset == "wine":
        if not (cfg.white_path and cfg.red_path):
            raise ConfigError("wine runs need white_path and red_path")
        ds = load_wine(cfg.white_path, cfg.red_path, cfg.order)
    elif cfg.dataset == "usps":
        train, test = _load_usps(cfg)
        ds = replace(train, name="usps", X=np.vstack([train.X, test.X]),
                     y=np.concatenate([train.y, test.y]))
        if cfg.subsample is None and not cfg.full:
            ds = ds.subsample(min(2100, len(ds)), cfg.seed)
    elif cfg.dataset == "synth-reg":
        ds = make_stream(StreamSpec(
            kind="changepoint-regression", n=cfg.n, p=cfg.p, seed=cfg.seed,
            changepoint_frac=cfg.changepoint_frac, drift=cfg.drift,
            noise_scale=cfg.noise_scale))
    elif cfg.dataset == "synth-class":
        ds = make_stream(StreamSpec(
            kind="cluster-classification", n=cfg.n, p=cfg.p, seed=cfg.seed,
            changepoint_frac=cfg.changepoint_frac, drift=cfg.drift,
            n_classes=cfg.n_classes, class_sep=cfg.class_sep))
    else:
        raise ConfigError(f"unknown dataset {cfg.dataset!r}")
    if cfg.subsample is not None:
        ds = ds.subsample(min(cfg.subsample, len(ds)), cfg.seed)
    if cfg.standardize:
        ds = replace(ds, X=standardize_features(ds.X, ds.X[:cfg.warmup]))
    return ds


def make_online_predictor(cfg: ExperimentConfig, dataset: Dataset) -> SetPredictor:
    pid = cfg.predictor
    if pid not in ONLINE_PREDICTORS:
        raise ConfigError(f"{pid!r} is not an online predictor id "
                          f"(choose from {ONLINE_PREDICTORS})")
    wanted = _PREDICTOR_TASK[pid]
    if wanted is not None and wanted != dataset.task:
        raise ConfigError(f"predictor {pid} expects a {wanted} stream, "
                          f"dataset {dataset.name} is {dataset.task}")
    if pid in ("knn-cp", "knn-nccp"):
        if cfg.resolve_k() > len(dataset):
            raise ConfigError(f"k {cfg.resolve_k()} above the stream's {len(dataset)} examples")
        cls = KnnConformalClassifier if pid == "knn-cp" else KnnThresholdClassifier
        return cls(cfg.resolve_k(), dataset.label_space)
    if pid in ("crr", "ols-nccp"):
        if not 0.0 <= cfg.ridge_a < math.inf:
            raise ConfigError(f"ridge_a must be finite and >= 0, got {cfg.ridge_a}")
        return (CrrPredictor if pid == "crr" else OlsIntervalPredictor)(cfg.ridge_a)
    if pid == "coin-flip":
        return CoinFlipPredictor(derive_rng(cfg.seed, "coin-flip"), task=dataset.task)
    return RandomSetPredictor(dataset.label_space, derive_rng(cfg.seed, "random-set"))


@dataclass(frozen=True)
class RunResult:
    """Everything one run produced, ready for emission or assertions."""

    records: list
    summary: RunSummary
    gamma: float
    eps_min: float
    eps_max: float
    dataset_name: str
    config: ExperimentConfig


def _check_levels(cfg: ExperimentConfig) -> None:
    """The level checks a run makes before its work, and ``report`` before
    it reads a trace: eps, eps1 and the Winkler clamps."""
    # eps1 defaults to eps, so a bad eps would otherwise be reported as eps1.
    if not 0.0 <= cfg.eps <= 1.0:
        raise ConfigError(f"eps {cfg.eps} outside [0, 1]")
    if not 0.0 <= cfg.resolved_eps1() <= 1.0:
        raise ConfigError(f"eps1 {cfg.resolved_eps1()} outside [0, 1]")
    lo, hi = cfg.winkler_clamp_lo, cfg.winkler_clamp_hi
    if not 0.0 < lo <= hi < 1.0:
        raise ConfigError(f"winkler_clamp_lo {lo} and winkler_clamp_hi {hi} must "
                          "satisfy 0 < lo <= hi < 1")


def _resolve_gamma(cfg: ExperimentConfig, n_steps: int) -> float:
    """The step size of a run of n_steps, after the checks a run makes
    before its loop: ``_check_levels``, then gamma's or delta's."""
    _check_levels(cfg)
    if cfg.gamma is not None:
        try:
            _check_gamma(cfg.gamma, n_steps)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        return cfg.gamma
    return gamma_for_bound(cfg.resolved_eps1(), cfg.delta, n_steps)


def _aci_loop(cfg: ExperimentConfig, task: str, n_labels: int, gamma: float, predict_fn,
              observe_fn, X, y, dataset_name: str) -> RunResult:
    """The one walk of every run, online or offline, at step size gamma:
    per step predict_fn(step, x, eps) -> PredictionSet, record it, update
    the level and (if given) observe_fn(x, y); then summarise."""
    state = aci_init(cfg.eps, gamma, cfg.resolved_eps1())
    eps_min = eps_max = state.eps
    clamp = (cfg.winkler_clamp_lo, cfg.winkler_clamp_hi)
    records = []
    for step in range(len(y)):
        ps = predict_fn(step, X[step], state.eps)
        if task == CLASSIFICATION:
            rec = classification_record(step, state.eps, ps, int(y[step]), n_labels)
        else:
            rec = regression_record(step, state.eps, ps, float(y[step]), clamp)
        records.append(rec)
        state = aci_update(state, rec.err)
        eps_min = min(eps_min, state.eps)
        eps_max = max(eps_max, state.eps)
        if observe_fn is not None:
            observe_fn(X[step], y[step])
    summary = summarize_run(records, cfg.eps, cfg.resolved_eps1(), gamma)
    return RunResult(records=records, summary=summary, gamma=gamma, eps_min=eps_min,
                     eps_max=eps_max, dataset_name=dataset_name, config=cfg)


def run_online(cfg: ExperimentConfig) -> RunResult:
    """Warm up a predictor on the first examples, then walk the rest of
    the stream under adaptive level control."""
    ds = resolve_online_dataset(cfg)
    if not 1 <= cfg.warmup < len(ds):
        raise ConfigError(f"warmup {cfg.warmup} outside [1, {len(ds) - 1}]")
    gamma = _resolve_gamma(cfg, len(ds) - cfg.warmup)
    predictor = make_online_predictor(cfg, ds)
    predictor.reserve(len(ds))
    predictor.observe_many(ds.X[:cfg.warmup], ds.y[:cfg.warmup])
    return _aci_loop(cfg, ds.task, len(ds.label_space), gamma,
                     lambda _i, x, eps: predictor.predict(x, eps), predictor.observe,
                     ds.X[cfg.warmup:], ds.y[cfg.warmup:], ds.name)


def resolve_offline_datasets(cfg: ExperimentConfig) -> tuple[Dataset, Dataset]:
    """(train pool, test stream) for offline runs.  usps keeps its file
    split; other datasets are split by a seeded shuffle."""
    if not 0.0 < cfg.test_fraction < 1.0:
        raise ConfigError(f"test_fraction {cfg.test_fraction} outside (0, 1)")
    _check_source(cfg)
    if cfg.dataset == "usps":
        train, test = _load_usps(cfg)
    else:
        ds = resolve_online_dataset(replace(cfg, subsample=None, standardize=False))
        n_test = max(1, int(round(cfg.test_fraction * len(ds))))
        if n_test >= len(ds):
            raise ConfigError("test_fraction leaves no training data")
        perm = derive_rng(cfg.seed, "offline-split", cfg.dataset).permutation(len(ds))
        tr, te = np.sort(perm[:-n_test]), np.sort(perm[-n_test:])
        train = replace(ds, name=f"{ds.name}-pool", X=ds.X[tr], y=ds.y[tr])
        test = replace(ds, name=f"{ds.name}-test", X=ds.X[te], y=ds.y[te])
    if cfg.pool_subsample is not None and cfg.pool_subsample < len(train):
        train = train.subsample(cfg.pool_subsample, cfg.seed)
    if cfg.subsample is not None and cfg.subsample < len(test):
        test = test.subsample(cfg.subsample, cfg.seed)
    if cfg.standardize:
        test = replace(test, X=standardize_features(test.X, train.X))
        train = replace(train, X=standardize_features(train.X))
    return train, test


def _offline_rule(cfg: ExperimentConfig, train: Dataset, test: Dataset):
    """Fitted prediction rule (x-index, eps) -> PredictionSet for the test
    stream; ``cfg.predictor`` is an offline id (``run_offline`` checks).
    Every eps-free per-row value (label p-values, class scores,
    points, checked and sorted neighbour-label rows) is built at fit time
    in one pass over the test table, so a step only thresholds.  Each step
    goes through ``boundary_set`` first; a PredictionSet is always truthy,
    so ``or`` falls through only inside (0, 1)."""
    pid = cfg.predictor
    k = cfg.resolve_k()
    labels = np.asarray(train.label_space)
    if pid in ("icp-class", "icp-reg"):
        plan = split_train_calibration(len(train), cfg.cal_fraction, cfg.seed)
        proper_X, proper_y = train.X[plan.proper_train_idx], train.y[plan.proper_train_idx]
        cal_X, cal_y = train.X[plan.calibration_idx], train.y[plan.calibration_idx]
        if pid == "icp-class":
            scorer = KnnClassScorer(k).fit(proper_X, proper_y, train.label_space)
            cal_sorted = _checked_sorted(calibration_scores(scorer, cal_X, cal_y))
            p_rows = _icp_p_values(np.atleast_2d(scorer.class_scores(test.X)), cal_sorted)
            return lambda i, eps: boundary_set(eps, CLASSIFICATION) or labels_above(
                p_rows[i], labels, eps)
        scorer = KnnQuantileScorer(k).fit(proper_X, proper_y)
        cal_res = _checked_sorted(calibration_residuals(scorer, cal_X, cal_y))
        points = scorer.neighbour_labels(test.X).mean(axis=1)
        return lambda i, eps: boundary_set(eps, REGRESSION) or _icp_interval(
            points[i], cal_res, eps)
    if pid == "inccp-class":
        scorer = KnnClassScorer(k).fit(train.X, train.y, train.label_space)
        score_rows = np.atleast_2d(scorer.class_scores(test.X))
        return lambda i, eps: boundary_set(eps, CLASSIFICATION) or labels_above(
            score_rows[i], labels, eps)
    rows = sorted_sample(KnnQuantileScorer(k).fit(train.X, train.y).neighbour_labels(test.X))
    return lambda i, eps: boundary_set(eps, REGRESSION) or _quantile_interval(rows[i], eps)


def run_offline(cfg: ExperimentConfig) -> RunResult:
    """Fit once on the training pool, then walk the test stream under
    adaptive level control with the rule held fixed."""
    train, test = resolve_offline_datasets(cfg)
    if cfg.predictor not in OFFLINE_PREDICTORS:
        raise ConfigError(f"{cfg.predictor!r} is not an offline predictor id "
                          f"(choose from {OFFLINE_PREDICTORS})")
    task = _PREDICTOR_TASK[cfg.predictor]
    if task != train.task:
        raise ConfigError(f"predictor {cfg.predictor} expects {task} data, "
                          f"got {train.task}")
    gamma = _resolve_gamma(cfg, len(test))
    rule = _offline_rule(cfg, train, test)
    return _aci_loop(cfg, task, len(train.label_space), gamma, lambda i, _x, eps: rule(i, eps),
                     None, test.X, test.y, f"{train.name}->{test.name}")


@dataclass(frozen=True)
class SweepResult:
    """Per-cell summaries and the aggregated long-format table."""

    cells: dict          # (method, cal_fraction | None, seed) -> RunSummary
    rows: list           # aggregated (cal_fraction | None, method, metric, mean, half, T)


def run_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Calibration-fraction sweep: the split predictor across a fraction
    grid, its non-conformal twin alongside, every cell repeated over the
    seeds (each seed re-draws the split and, for synthetic data, the
    stream itself)."""
    if cfg.predictor not in ("icp-class", "icp-reg"):
        raise ConfigError("sweep needs predictor icp-class or icp-reg")
    twin = "inccp-class" if cfg.predictor == "icp-class" else "inccp-reg"
    if len(set(cfg.seeds)) < max(2, len(cfg.seeds)):
        raise ConfigError(f"sweep needs at least two seeds, all distinct; got seeds {cfg.seeds}")
    if not cfg.cal_fractions:
        raise ConfigError("sweep needs a non-empty cal_fractions grid")
    for frac in cfg.cal_fractions:
        if not 0.0 < frac < 1.0:
            raise ConfigError(f"cal_fraction {frac} outside (0, 1)")
    cells = {}
    for seed in cfg.seeds:
        for frac in cfg.cal_fractions:
            sub = replace(cfg, seed=seed, cal_fraction=frac)
            cells[(cfg.predictor, frac, seed)] = run_offline(sub).summary
        sub = replace(cfg, seed=seed, predictor=twin)
        cells[(twin, None, seed)] = run_offline(sub).summary

    rows = []
    metric_names = ("mean_err", "oe", "mean_winkler_finite", "mean_width_finite",
                    "frac_inf")
    def emit_rows(method, frac, summaries):
        for name in metric_names:
            vals = [getattr(s, name) for s in summaries]
            if any(v is None for v in vals):
                continue
            mean, half = aggregate_trials(vals)
            rows.append((frac, method, name, mean, half, len(vals)))
    for frac in cfg.cal_fractions:
        emit_rows(cfg.predictor, frac,
                  [cells[(cfg.predictor, frac, s)] for s in cfg.seeds])
    emit_rows(twin, None, [cells[(twin, None, s)] for s in cfg.seeds])
    return SweepResult(cells=cells, rows=rows)


def emit_sweep(path: str, sweep: SweepResult) -> None:
    """Long-format sweep table; the fraction column is empty for the
    split-free twin."""
    lines = ["cal_fraction,method,metric,mean,ci_half_width,n_trials\n"]
    for frac, method, metric, mean, half, n in sweep.rows:
        frac_s = "" if frac is None else format_float(frac)
        lines.append(f"{frac_s},{method},{metric},{format_float(mean)},"
                     f"{format_float(half)},{n}\n")
    _write({path: "".join(lines)})


def _write(texts: dict) -> None:
    """Write files (path -> text) built before any is opened, so a refused value writes none."""
    for path, text in texts.items():
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


STRESS_STREAMS = {
    CLASSIFICATION: (
        ("class-shift", dict(dataset="synth-class", drift=1.5)),
        ("class-iid", dict(dataset="synth-class", drift=0.0)),
    ),
    REGRESSION: (
        ("reg-changepoint", dict(dataset="synth-reg", drift=2.0)),
        ("reg-iid", dict(dataset="synth-reg", drift=0.0)),
    ),
}


def lemma_stress_matrix(predictors=ONLINE_PREDICTORS + OFFLINE_PREDICTORS, n: int = 800,
                        warmup: int = 50, eps: float = 0.1, delta: float = 0.02,
                        seed: int = 7) -> list:
    """Run every predictor against non-exchangeable and control streams,
    recording the level-confinement extremes and the guarantee check.

    Returns (predictor, stream, RunResult) triples; callers assert on
    eps_min/eps_max against [-gamma, 1 + gamma] and on
    summary.bound_satisfied.
    """
    out = []
    for pid in predictors:
        tasks = [CLASSIFICATION, REGRESSION] if _PREDICTOR_TASK[pid] is None \
            else [_PREDICTOR_TASK[pid]]
        for task in tasks:
            for stream_name, overrides in STRESS_STREAMS[task]:
                base = dict(predictor=pid, eps=eps, delta=delta, seed=seed,
                            n=n, warmup=warmup, p=6, n_classes=3, class_sep=3.0)
                base.update(overrides)
                cfg = build_config(base)
                if pid in OFFLINE_PREDICTORS:
                    cfg = replace(cfg, test_fraction=0.5)
                    result = run_offline(cfg)
                else:
                    result = run_online(cfg)
                out.append((pid, stream_name, result))
    return out


def emit_trace(path: str, records) -> None:
    """Write the per-step trace CSV (LF line endings, 9 significant digit
    floats, missing values empty)."""
    _write({path: _trace_text(records)})


def _trace_text(records) -> str:
    lines = ["step,eps_used,err,set_size_or_width,winkler,excess,is_infinite\n"]
    for r in records:
        lines.append(",".join([
            str(r.step), format_float(r.eps_used), str(r.err),
            format_float(r.set_size_or_width),
            "" if r.winkler is None else format_float(r.winkler),
            "" if r.excess is None else str(r.excess),
            "1" if r.is_infinite else "0",
        ]) + "\n")
    return "".join(lines)


def parse_trace(path: str) -> list:
    """Back from CSV to StepRecords (values at serialised precision)."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        expected = "step,eps_used,err,set_size_or_width,winkler,excess,is_infinite"
        if header != expected:
            raise ValueError(f"{path}: unexpected trace header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 7:
                raise ValueError(f"{path}:{lineno}: expected 7 fields")
            records.append(StepRecord(
                step=int(parts[0]), eps_used=float(parts[1]), err=int(parts[2]),
                set_size_or_width=float(parts[3]),
                winkler=None if parts[4] == "" else float(parts[4]),
                excess=None if parts[5] == "" else int(parts[5]),
                is_infinite=parts[6] == "1"))
    return records


def format_float(v: float) -> str:
    """9 significant digits; stable under parse-and-reformat."""
    if v != v:
        raise ValueError("refusing to serialise NaN")
    return f"{float(v):.9g}"


def _quantize(obj):
    if isinstance(obj, float):
        return float(format_float(obj)) if math.isfinite(obj) else obj
    if isinstance(obj, dict):
        return {k: _quantize(v) for k, v in obj.items()}
    return obj


def _summary_text(result: RunResult) -> str:
    """Summary JSON: run metrics plus the reproducibility envelope."""
    payload = {
        "config_hash": result.config.config_hash(),
        "dataset": result.dataset_name,
        "predictor": result.config.predictor,
        "seed": result.config.seed,
        "gamma": result.gamma,
        "eps_min_seen": result.eps_min,
        "eps_max_seen": result.eps_max,
        "summary": {k: v for k, v in asdict(result.summary).items() if v is not None},
        "version": __version__,
    }
    return json.dumps(_quantize(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _manifest_text(result: RunResult) -> str:
    """Plain-text manifest: enough to reproduce and verify the run."""
    s = result.summary
    lines = [
        f"config_hash = {result.config.config_hash()}",
        f"version = {__version__}",
        f"dataset = {result.dataset_name}",
        f"predictor = {result.config.predictor}",
        f"seed = {result.config.seed}",
        f"n_steps = {s.n_steps}",
        f"eps_target = {format_float(s.eps_target)}",
        f"eps1 = {format_float(s.eps1)}",
        f"gamma = {format_float(result.gamma)}",
        f"mean_err = {format_float(s.mean_err)}",
        f"bound = {format_float(s.bound)}",
        f"bound_satisfied = {str(s.bound_satisfied).lower()}",
    ]
    return "\n".join(lines) + "\n"


def write_run_outputs(out_dir: str, result: RunResult, stem: str | None = None) -> dict:
    """A run's trace, summary, manifest and the manifest's config sidecar,
    all built before any is written; the paths of the first three."""
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, stem or f"{result.config.predictor}-{result.config.seed}")
    paths = {"trace": f"{stem}.trace.csv", "summary": f"{stem}.summary.json",
             "manifest": f"{stem}.manifest.txt"}
    _write({paths["trace"]: _trace_text(result.records),
            paths["summary"]: _summary_text(result),
            paths["manifest"]: _manifest_text(result),
            f"{stem}.manifest.config": result.config.canonical_text()})
    return paths
