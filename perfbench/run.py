"""Benchmark of the ACI loop on four seeded synthetic workloads.

    python3 perfbench/run.py --workload ridge-stream --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One run repeats the workload's runs in passes: a warm-up pass,
then timed passes for about ``--seconds`` seconds, at least three.  It
checks every run's outputs and prints, as the last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are end to end, measured with only the
start of each run and the controller's calls timestamped.  The marks cut
a pass into segments: each run's set-up, each controlled step, and each
run's tail.  Other processes on a shared host slow the benchmark in two
ways: in short bursts, and by a share that holds for tens of seconds.
For the second, each segment's time is scaled by the workload's
yardstick, timed during the pass (see ``speed.py``).  For the first,
every pass repeats the same inputs, so it makes the same segments in the
same order, and each segment's scaled time is taken as its minimum over
the passes, the warm-up pass included.  The metrics are sums and
percentiles of these minima, in seconds at the workload's reference
speed:

* ``wall_s``: time of one pass over the workload's runs, output files
  included (the sum of all segments);
* ``setup_s``: time before the first controlled step, summed over the
  pass's runs (stream generation, warm-up ``observe`` calls, offline
  fitting and calibration);
* ``step_p50_us``, ``step_p99_us``: percentiles of the latency of one
  controlled step (predict, record, update, observe) over all the steps
  of a pass;
* ``peak_rss_mb``: peak resident memory of the process after the warm-up
  pass, which is the workload's peak (later passes repeat it).

The plain pass times and the yardstick's times are printed on the
``workload`` line.

With ``--trace 1`` passes alternate between untraced and traced, and the
metrics are per layer: self times, call counts and tail latencies from the
traced passes' spans, exact counts read from the records, and
``bench.trace_overhead_frac``, the traced over the untraced median pass
time, minus 1 (untraced passes include their yardstick samples, 1-5% of
a pass).  The last traced pass's spans are written to
``.perfbench-spans.json`` when the run ends.

Lines before the last give the environment, per-route step latencies,
and the output check.  BLAS is pinned to one thread in this process.
Seed 9973 is held out: it is not used while tuning the benchmark or a
change, and serves to check a claimed gain.
"""

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

MIN_PASSES = 3    # timed passes, after the warm-up pass
HELD_OUT_SEED = 9973
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
SPANS_FILE = ROOT / ".perfbench-spans.json"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("ridge-stream", "knn-stream", "digits-shape", "split-sweep"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref})"


def environment():
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "commit": git_commit()}


def percentile(values, q):
    import numpy as np
    return float(np.percentile(values, q)) if len(values) else 0.0


def emitted_bytes():
    return sum(f.stat().st_size for f in OUT_DIR.iterdir()) if OUT_DIR.is_dir() else 0


def best_segments(passes):
    """Each segment's minimum over passes, as (kind, route, seconds)."""
    shape = [(kind, route) for kind, route, _ in passes[0]]
    if any([(kind, route) for kind, route, _ in p] != shape for p in passes):
        raise RuntimeError("passes over the same inputs made different segments")
    best = [min(times) for times in zip(*([t for _, _, t in p] for p in passes))]
    return [(kind, route, t) for (kind, route), t in zip(shape, best)]


def measure(name, seed, seconds, trace):
    """Run passes, check outputs, and return the printed lines' contents."""
    import checks
    import probes
    import speed
    import workloads

    runs = workloads.WORKLOADS[name](seed)
    yardstick = speed.Yardstick(name)
    emit = name in workloads.EMITTING
    untraced, traced = [], []          # per-pass summaries; untraced[0] is the warm-up
    first, problems, attempted = None, [], 0
    elapsed = wall = 0.0
    # Timed passes stop once the next one, as long as the last, would
    # overrun ``seconds``.
    while (first is None or len(untraced) + len(traced) <= MIN_PASSES
           or elapsed + wall <= seconds):
        pass_no = len(untraced) + len(traced) + 1
        tracing = trace and first is not None and len(traced) < len(untraced) - 1
        inst = probes.Tracer() if tracing else probes.StepClock(yardstick)
        gc.collect()
        with inst.probes():
            t0 = time.perf_counter() if tracing else inst.start()
            outcomes = workloads.run_pass(runs, inst, OUT_DIR, emit)
            t1 = time.perf_counter()
        wall = t1 - t0
        attempted += len(outcomes)
        if tracing:
            summary = checks.layer_figures(inst, outcomes, emitted_bytes())
            traced.append({"wall": wall, **summary})
            last_spans = (pass_no, inst.spans)
        else:
            untraced.append({"wall": wall, "segments": inst.segments(t1),
                             "yardstick_us": statistics.median(y for _, y in inst.speeds) * 1e6})
        if first is None:
            # The warm-up pass: checked against the reference.  In a fresh
            # process it ran 30-55% slower than later passes on knn-stream,
            # so its time counts only through the per-segment minima.
            first = outcomes
            problems += checks.check_pass(1, outcomes, None)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            continue
        elapsed += wall
        problems += checks.check_pass(pass_no, outcomes, first)
    problems += checks.check_reference(first, OUT_DIR if emit else None)
    failed = len({label for label, _ in problems})   # labels name one run of one pass

    best = best_segments([p["segments"] for p in untraced])
    steps = [t for kind, _, t in best if kind == "step"]
    routes = {}
    for route in dict.fromkeys(r for kind, r, _ in best if kind == "step"):
        vals = [t for kind, r, t in best if kind == "step" and r == route]
        routes[route] = {"step_mean_us": statistics.fmean(vals) * 1e6,
                         "step_p50_us": percentile(vals, 50) * 1e6,
                         "step_p99_us": percentile(vals, 99) * 1e6, "steps": len(vals)}
    wall_untraced = statistics.median(p["wall"] for p in untraced[1:])
    if trace:
        pass_no, spans = last_spans
        SPANS_FILE.write_text(json.dumps({"workload": name, "seed": seed, "pass": pass_no,
                                          "fields": ["name", "start_s", "end_s", "parent"],
                                          "spans": spans}))
        metrics = checks.per_layer(traced)
        metrics["bench.trace_overhead_frac"] = (
            statistics.median(p["wall"] for p in traced) / wall_untraced - 1.0, "ratio")
    else:
        metrics = {
            "wall_s": (math.fsum(t for _, _, t in best), "s"),
            "setup_s": (math.fsum(t for kind, _, t in best if kind == "init"), "s"),
            "step_p50_us": (percentile(steps, 50) * 1e6, "us"),
            "step_p99_us": (percentile(steps, 99) * 1e6, "us"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    info = {"warmup_pass_wall_s": untraced[0]["wall"],
            "pass_walls_s": [p["wall"] for p in untraced[1:]],
            "median_pass_wall_s": wall_untraced,
            "yardstick_call_us": [p["yardstick_us"] for p in untraced],
            "scaled_pass_s": [math.fsum(t for _, _, t in p["segments"]) for p in untraced],
            "traced_pass_walls_s": [p["wall"] for p in traced],
            "steps_per_pass": len(steps), "routes": routes}
    return metrics, info, attempted, failed, problems


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "aci_lab" / "__init__.py").is_file():
        print(f"perfbench: no aci_lab package under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"   # before numpy loads BLAS; this process only
    sys.path.insert(0, str(ROOT / "src"))
    shutil.rmtree(OUT_DIR, ignore_errors=True)
    try:
        metrics, info, attempted, failed, problems = measure(
            args.workload, args.seed, args.seconds, args.trace)
    finally:
        shutil.rmtree(OUT_DIR, ignore_errors=True)

    print("env " + json.dumps(environment()))
    print("workload " + json.dumps({"name": args.workload, "seed": args.seed,
                                    "held_out_seed": HELD_OUT_SEED, **info}))
    print("check " + json.dumps({"attempted": attempted, "failed": failed,
                                 "failed_frac": failed / attempted,
                                 "problems": [f"{label}: {text}" for label, text in problems[:10]]}))
    print(f"failed_frac = {failed / attempted} ratio")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
