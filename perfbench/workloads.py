"""The four benchmark workloads and one pass over a workload's runs.

Every run goes through the package's public API.  Inputs are synthetic
streams generated from the workload seed; the program sees only those.
The load is a closed loop in one process: each controlled step needs the
previous step's error.
"""

from dataclasses import dataclass

from aci_lab import (CachedKnnConformalClassifier, RunResult, StreamSpec,
                     aci_init, aci_update, build_config, classification_record,
                     harness, make_stream, summarize_run)


@dataclass(frozen=True)
class Run:
    """One run of a workload.  ``mode`` is "online" (``run_online``),
    "readme" (the README's own control loop) or "sweep" (``run_sweep``)."""

    route: str
    mode: str
    cfg: dict


def ridge_stream(seed):
    base = dict(dataset="synth-reg", n=4000, p=8, drift=2.0, warmup=100,
                eps=0.1, delta=0.01, seed=seed)
    return [Run(pid, "online", {**base, "predictor": pid}) for pid in ("crr", "ols-nccp")]


def knn_stream(seed):
    return [
        Run("knn-nccp", "online",
            dict(dataset="synth-class", predictor="knn-nccp", k=20, n=4000, p=8,
                 n_classes=3, class_sep=3.5, drift=1.5, warmup=100, eps=0.1,
                 delta=0.01, seed=seed)),
        # The stress matrix's class-shift knn-cp run, cut from n=800 to 500:
        # at 800 a 25-second run held four passes, too few for steady minima.
        Run("knn-cp", "online",
            dict(dataset="synth-class", predictor="knn-cp", k=1, n=500, p=6,
                 n_classes=3, class_sep=3.0, drift=1.5, warmup=50, eps=0.1,
                 delta=0.02, seed=seed)),
    ]


DIGITS_HISTORY = 2000
DIGITS_CP_STEPS = 8
DIGITS_NCCP_STEPS = 200


def digits_shape(seed):
    """256 features, 10 labels, 2000 examples observed before control
    starts.  Few steps are affordable on the rescoring route, so the step
    size is fixed rather than derived from a deviation bound."""
    base = dict(dataset="synth-class", p=256, n_classes=10, class_sep=3.5, drift=1.0,
                warmup=DIGITS_HISTORY, eps=0.1, gamma=0.05, seed=seed)
    cp = {**base, "predictor": "knn-cp", "k": 1, "n": DIGITS_HISTORY + DIGITS_CP_STEPS}
    return [
        Run("knn-cp", "online", cp),
        Run("cached-knn-cp", "readme", cp),
        Run("knn-nccp", "online", {**base, "predictor": "knn-nccp", "k": 20,
                                   "n": DIGITS_HISTORY + DIGITS_NCCP_STEPS}),
    ]


def split_sweep(seed):
    grid = dict(seeds=tuple(5 * seed + i for i in range(5)),
                cal_fractions=(0.1, 0.3, 0.5, 0.7, 0.9),
                n=1000, p=8, eps=0.1, delta=0.05, test_fraction=0.25, drift=1.0)
    return [
        Run("icp-reg", "sweep", {**grid, "dataset": "synth-reg", "predictor": "icp-reg",
                                 "k": 20}),
        Run("icp-class", "sweep", {**grid, "dataset": "synth-class", "predictor": "icp-class",
                                   "k": 10, "n_classes": 3, "class_sep": 3.5}),
    ]


WORKLOADS = {
    "ridge-stream": ridge_stream,
    "knn-stream": knn_stream,
    "digits-shape": digits_shape,
    "split-sweep": split_sweep,
}

# Runs of these workloads write their trace, summary and manifest files.
EMITTING = {"ridge-stream"}


def readme_loop(cfg):
    """The README's hand-written loop around CachedKnnConformalClassifier,
    which has no predictor id, recording each step as the harness does."""
    ds = make_stream(StreamSpec(kind="cluster-classification", n=cfg["n"], p=cfg["p"],
                                seed=cfg["seed"], drift=cfg["drift"],
                                n_classes=cfg["n_classes"], class_sep=cfg["class_sep"]))
    w, gamma, n_labels = cfg["warmup"], cfg["gamma"], len(ds.label_space)
    pred = CachedKnnConformalClassifier(cfg["k"], ds.label_space)
    for i in range(w):
        pred.observe(ds.X[i], ds.y[i])
    state = aci_init(cfg["eps"], gamma)
    lo = hi = state.eps
    records = []
    for step, (x, y) in enumerate(zip(ds.X[w:], ds.y[w:])):
        rec = classification_record(step, state.eps, pred.predict(x, state.eps), int(y), n_labels)
        records.append(rec)
        state = aci_update(state, rec.err)
        lo, hi = min(lo, state.eps), max(hi, state.eps)
        pred.observe(x, y)
    return RunResult(records=records, summary=summarize_run(records, cfg["eps"], cfg["eps"], gamma),
                     gamma=gamma, eps_min=lo, eps_max=hi, dataset_name=ds.name,
                     config=build_config(cfg))


@dataclass
class Outcome:
    """What one run produced: a RunResult (a SweepResult for a sweep's
    aggregate), or the error it raised."""

    run: Run
    result: object = None
    error: str | None = None


def run_pass(runs, instrument, out_dir, emit):
    """Execute every run once.  ``instrument`` is a StepClock or Tracer
    whose probes are in place; it collects the sweep cells."""
    outcomes = []
    for run in runs:
        instrument.begin_run(run.route)
        instrument.finished.clear()
        try:
            if run.mode == "online":
                result = harness.run_online(build_config(run.cfg))
                if emit:
                    harness.write_run_outputs(out_dir, result)
            elif run.mode == "readme":
                result = readme_loop(run.cfg)
            else:
                result = harness.run_sweep(build_config(run.cfg))
        except Exception as exc:  # a run that raises counts as failed
            outcomes.extend(_cells(run, instrument.finished))
            outcomes.append(Outcome(run, error=f"{type(exc).__name__}: {exc}"))
            continue
        outcomes.extend(_cells(run, instrument.finished))
        outcomes.append(Outcome(run, result))
    return outcomes


def _cells(run, finished):
    """One Outcome per offline run a sweep made, with its own config."""
    out = []
    for res in finished:
        c = res.config
        cfg = {**run.cfg, "predictor": c.predictor, "seed": c.seed,
               "cal_fraction": c.cal_fraction}
        out.append(Outcome(Run(c.predictor, "offline", cfg), res))
    return out
