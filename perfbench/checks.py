"""Output checks on every pass, and the per-layer figures of traced passes.

A problem is a (run label, text) pair; a run with any problem counts as
failed.  Every run of every pass must satisfy the telescoping bound and
stay within [-gamma, 1 + gamma]; every pass after the first must repeat
the first one's records exactly; every step of the first pass is compared
with the frozen reference.
"""

import statistics

import numpy as np
from aci_lab import RunResult, harness

import reference

TWIN = {"icp-reg": "inccp-reg", "icp-class": "inccp-class"}


def label(pass_no, index, outcome):
    return f"pass {pass_no} run {index} {outcome.run.route}"


def _control(outcome):
    run = outcome.run
    if run.mode == "sweep":
        res, cfg = outcome.result, run.cfg
        return reference.check_sweep_rows(res.rows, res.cells, cfg["predictor"],
                                          TWIN[cfg["predictor"]], cfg["seeds"],
                                          cfg["cal_fractions"])
    n_steps = reference.expected_steps(run.cfg, run.mode == "offline")
    return reference.check_control(outcome.result, run.cfg, n_steps)


def check_pass(pass_no, outcomes, first):
    """Whole-run checks, plus exact agreement with the first pass."""
    problems = []
    for i, o in enumerate(outcomes):
        tag = label(pass_no, i, o)
        if o.error is not None:
            problems.append((tag, o.error))
            continue
        problems += [(tag, text) for text in _control(o)]
        if first is None or not isinstance(o.result, RunResult):
            continue
        ref = first[i] if i < len(first) else None
        if ref is None or ref.result is None or ref.result.records != o.result.records:
            problems.append((tag, "records differ from the first pass"))
    return problems


def check_reference(first, out_dir):
    """The first pass against the frozen reference, and its emitted trace
    files against its records."""
    problems = []
    for i, o in enumerate(first):
        if not isinstance(o.result, RunResult):
            continue
        run, tag = o.run, label(1, i, o)
        offline = run.mode == "offline"
        make = reference.offline_reference if offline else reference.online_reference
        task = "regression" if run.cfg["dataset"] == "synth-reg" else "classification"
        problems += [(tag, text) for text in reference.check_steps(
            o.result.records, make(run.cfg), reference.observed(run.cfg, offline), task,
            run.cfg.get("n_classes"))]
        if out_dir is not None and run.mode == "online":
            problems += [(tag, text) for text in _check_emitted(o.result, out_dir)]
    return problems


def _check_emitted(result, out_dir):
    path = out_dir / f"{result.config.predictor}-{result.config.seed}.trace.csv"
    parsed = harness.parse_trace(str(path))
    if [r.err for r in parsed] != [r.err for r in result.records]:
        return [f"{path.name}: err column differs from the run"]
    widths = np.array([r.set_size_or_width for r in result.records])
    if not np.allclose([r.set_size_or_width for r in parsed], widths, rtol=1e-8, atol=0.0):
        return [f"{path.name}: widths differ from the run beyond 9 significant digits"]
    return []


# ------------------------------------------------------------ per layer

SELF_TIMES = {
    "harness.loop_self_s": "harness.loop",
    "harness.emit_s": "harness.emit",
    "data.stream_s": "data.stream",
    "data.split_s": "data.split",
    "aci.update_s": "aci.update",
    "metrics.record_s": "metrics.record",
    "metrics.summarize_s": "metrics.summarize",
    "cp_online.predict_s": "cp_online.predict",
    "cp_online.observe_s": "cp_online.observe",
    "nccp_online.predict_s": "nccp_online.predict",
    "nccp_online.observe_s": "nccp_online.observe",
    "inductive.fit_s": "inductive.fit",
    "inductive.rule_s": "inductive.rule",
    "numerics.ridge_factor_s": "numerics.ridge_factor",
    "numerics.t_quantile_s": "numerics.t_quantile",
    "numerics.quantile_s": "numerics.quantile",
}
CALLS = {
    "aci.update_calls": "aci.update",
    "cp_online.predict_calls": "cp_online.predict",
    "nccp_online.predict_calls": "nccp_online.predict",
    "inductive.rule_calls": "inductive.rule",
    "numerics.ridge_factor_calls": "numerics.ridge_factor",
    "numerics.t_quantile_calls": "numerics.t_quantile",
}
TAILS = {"cp_online.predict_p99_us": "cp_online.predict",
         "nccp_online.predict_p99_us": "nccp_online.predict"}


def layer_figures(tracer, outcomes, emit_bytes):
    """Per-layer figures of one traced pass."""
    spans = tracer.layer_times()
    records = [r for o in outcomes if isinstance(o.result, RunResult) for r in o.result.records]
    figures = {k: spans[v][0] for k, v in SELF_TIMES.items()}
    figures.update({k: spans[v][1] for k, v in CALLS.items()})
    figures.update({
        "harness.emit_bytes": emit_bytes,
        "numerics.fallbacks": tracer.fallbacks,
        "core.boundary_steps": sum(not 0.0 < r.eps_used < 1.0 for r in records),
        "metrics.empty_sets": sum(r.is_empty for r in records),
        "metrics.infinite_sets": sum(r.is_infinite for r in records),
    })
    return {"figures": figures, "tails": {k: spans[v][2] for k, v in TAILS.items()}}


def per_layer(traced):
    """Times are medians over traced passes, counts those of the first
    (every pass repeats them); tail latencies pool the passes' spans."""
    out = {}
    for key in traced[0]["figures"]:
        if key.endswith("_s"):
            out[key] = (statistics.median(p["figures"][key] for p in traced), "s")
        else:
            out[key] = (traced[0]["figures"][key],
                        "bytes" if key.endswith("_bytes") else "count")
    for key in TAILS:
        pooled = [d for p in traced for d in p["tails"][key]]
        out[key] = (float(np.percentile(pooled, 99)) * 1e6 if pooled else 0.0, "us")
    return out
