"""Time the online k-NN classes' fixed costs under two ``src/`` trees,
alternately.

    python3 tools/knn_cp_timings.py PARENT_SRC CHANGE_SRC --rounds 3 --best-of 5

Each round runs one worker process per tree, the parent first on even
rounds and the change first on odd ones, so a slow drift of the host's
speed falls on both sides alike.  A worker imports ``aci_lab`` from its
tree with BLAS and OpenMP pinned to one thread and reports, each as the
best of ``--best-of`` timings, in microseconds:

- ``tiny``: one ``knn_cp_predict`` call, the mean over 200 small
  histories (n 4-29, p 1-3, 3 labels, k 1-3, seeded);
- ``steady``: one predict of the knn-stream knn-cp loop after 450
  observed rows (p 6, 3 labels), predict(x) then observe(x), the mean
  over 40 steps, at k 1 and k 20;
- ``rescoring``: one catch-up rescoring at that shape, a row that the
  last predict did not screen, and the share of it spent in the
  label-set pass (``_rescored``, or ``_conformal_p_values`` in trees
  that have no ``_rescored``; n/a in trees with neither);
- ``burst``: c cached rows filled by a predict whose candidate is the
  first new row, then r new rows caught up by one ``_catch_up``, for r in
  1, 2, 3, 10, 50 and 200, at the knn-stream shape (c 450, k 1 and k 20)
  and the digits shape (c 2000, p 256, 10 labels, k 1), plus ``fill``,
  the first fill of the c rows;
- ``screen``: one knn-nccp predict (the mean over 40 candidates) and one
  steady knn-cp predict (predict(x) then observe(x), the mean over 20
  steps) on a history of 2000 rows at the digits shape (p 256, 10
  labels, k 20 and k 1), and one knn-nccp predict on 4000 rows at
  knn-stream's shape (p 8, 3 labels, k 20);
- ``warmup``: 2000 warm-up rows at the digits shape loaded into a
  knn-nccp predictor, by one ``observe_many`` where the tree has it and
  one ``observe`` per row where not, then its first predict.

The table prints each figure's median over rounds for both trees and
the median over rounds of its ratio within the round (change over
parent).  The host may run a whole worker about 2x slower than the next;
a round's two workers run back to back, so its ratio mostly sees one
speed, and the median drops the rounds that straddle a switch.
``--json PATH`` also writes every round's figures.  Only the standard
library and numpy are used; the rows come from the package's own
``make_stream``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BURSTS = (1, 2, 3, 10, 50, 200)
DIGITS = dict(p=256, n_classes=10, class_sep=3.5, drift=1.0)
# (name, stream, cached rows, k)
SHAPES = (("knn-stream k1", dict(p=6, n_classes=3, class_sep=3.0, drift=1.5), 450, 1),
          ("knn-stream k20", dict(p=6, n_classes=3, class_sep=3.0, drift=1.5), 450, 20),
          ("digits k1", DIGITS, 2000, 1))
# (name, predictor, stream, history rows, k)
SCREENS = (("screen knn-nccp digits k20", "knn-nccp", DIGITS, 2000, 20),
           ("screen knn-cp digits k1", "knn-cp", DIGITS, 2000, 1),
           ("screen knn-nccp knn-stream k20", "knn-nccp",
            dict(p=8, n_classes=3, class_sep=3.5, drift=1.5), 4000, 20))
PINNED = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                 "MKL_NUM_THREADS", "BLIS_NUM_THREADS")}


def best(fn, best_of, setup=None):
    """The least of ``best_of`` timings of ``fn(setup())``, in seconds;
    ``setup`` runs outside the timed region."""
    times = []
    for _ in range(best_of):
        arg = setup() if setup else None
        t0 = time.perf_counter()
        fn(arg)
        times.append(time.perf_counter() - t0)
    return min(times)


def worker(best_of):
    """Every figure for the ``aci_lab`` on the path, as a dict."""
    import copy

    import numpy as np

    from aci_lab import cp_online, nccp_online
    from aci_lab.data import StreamSpec, make_stream

    out = {}
    rng = np.random.default_rng(7)
    tiny = []
    for _ in range(200):
        n, p, k = int(rng.integers(4, 30)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
        tiny.append((rng.normal(size=(n, p)), rng.integers(0, 3, size=n), rng.normal(size=p), k))

    def tiny_pass(_):
        for X, y, x, k in tiny:
            cp_online.knn_cp_predict(X, y, x, 0.1, k, [0, 1, 2])
    out["tiny"] = best(tiny_pass, best_of) / len(tiny) * 1e6

    for name, spec, c, k in SHAPES:
        ds = make_stream(StreamSpec(kind="cluster-classification", n=c + max(BURSTS) + 1,
                                    seed=1, **spec))
        X, y = ds.X, ds.y

        def loaded(rows):
            pred = cp_online.KnnConformalClassifier(k, ds.label_space)
            for i in range(rows):
                pred.observe(X[i], int(y[i]))
            return pred
        base = loaded(c)
        out[f"burst {name} fill"] = best(lambda pred: pred._catch_up(), best_of,
                                         lambda: copy.deepcopy(base)) * 1e6
        base.predict(X[c], 0.1)
        for r in BURSTS:
            burst = copy.deepcopy(base)
            for i in range(c, c + r):
                burst.observe(X[i], int(y[i]))
            out[f"burst {name} r={r}"] = best(lambda pred: pred._catch_up(), best_of,
                                              lambda: copy.deepcopy(burst)) * 1e6
        if name.startswith("digits"):
            continue

        def steady(pred):
            for i in range(c, c + 40):
                pred.predict(X[i], 0.1)
                pred.observe(X[i], int(y[i]))
        out[f"steady {name}"] = best(steady, best_of, lambda: copy.deepcopy(base)) / 40 * 1e6

        # A row the last predict did not screen: one fresh catch-up rescoring.
        fresh = copy.deepcopy(base)
        fresh.predict(X[c + 1], 0.1)
        fresh.observe(X[c], int(y[c]))
        pass_name = next((name for name in ("_rescored", "_conformal_p_values")
                          if hasattr(cp_online, name)), None)
        inner = getattr(cp_online, pass_name) if pass_name else None
        spent = []

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                spent.append(time.perf_counter() - t0)

        def rescoring(pred):
            spent.clear()
            t0 = time.perf_counter()
            pred._catch_up()
            return time.perf_counter() - t0, sum(spent)
        runs = []
        if inner:
            setattr(cp_online, pass_name, timed)
        try:
            for _ in range(best_of):
                runs.append(rescoring(copy.deepcopy(fresh)))
        finally:
            if inner:
                setattr(cp_online, pass_name, inner)
        total, in_pass = min(runs)
        out[f"rescoring {name}"] = total * 1e6
        out[f"rescoring {name} pass share"] = in_pass / total if inner else None

    classes = {"knn-cp": cp_online.KnnConformalClassifier,
               "knn-nccp": nccp_online.KnnThresholdClassifier}
    for name, pid, spec, n, k in SCREENS:
        ds = make_stream(StreamSpec(kind="cluster-classification", n=n + 41, seed=1, **spec))
        X, y = ds.X, ds.y
        base = classes[pid](k, ds.label_space)
        for i in range(n):
            base.observe(X[i], int(y[i]))
        base.predict(X[n], 0.1)  # fills every cache, norm and copy

        def predicts(pred):
            for i in range(n + 1, n + 41):
                pred.predict(X[i], 0.1)

        def steady_cp(pred):
            for i in range(n + 1, n + 21):
                pred.predict(X[i], 0.1)
                pred.observe(X[i], int(y[i]))
        if pid == "knn-cp":
            out[name] = best(steady_cp, best_of, lambda: copy.deepcopy(base)) / 20 * 1e6
        else:
            out[name] = best(predicts, best_of, lambda: base) / 40 * 1e6

    ds = make_stream(StreamSpec(kind="cluster-classification", n=2001, seed=1, **DIGITS))

    def warmup(_):
        pred = nccp_online.KnnThresholdClassifier(20, ds.label_space)
        pred.reserve(2001)
        if hasattr(pred, "observe_many"):
            pred.observe_many(ds.X[:2000], ds.y[:2000])
        else:
            for i in range(2000):
                pred.observe(ds.X[i], ds.y[i])
        pred.predict(ds.X[2000], 0.1)
    out["warmup digits"] = best(warmup, best_of) * 1e6
    return out


def median(values):
    """The median, or None where a tree could not make the figure."""
    return None if None in values else statistics.median(values)


def fmt(value, width):
    return f"{'n/a':>{width}s}" if value is None else f"{value:{width}.3f}"


def run_worker(src, best_of):
    env = {**os.environ, **PINNED, "PYTHONPATH": str(Path(src).resolve())}
    proc = subprocess.run([sys.executable, __file__, "--worker", "--best-of", str(best_of)],
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"worker for {src} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_src", nargs="?")
    ap.add_argument("change_src", nargs="?")
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--best-of", type=int, default=5)
    ap.add_argument("--json", type=Path)
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        print(json.dumps(worker(args.best_of)))
        return 0
    if not (args.parent_src and args.change_src):
        ap.error("give the parent's and the change's src/ directories")
    sides = {"parent": args.parent_src, "change": args.change_src}
    rounds = {"parent": [], "change": []}
    for i in range(args.rounds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            rounds[side].append(run_worker(sides[side], args.best_of))
        print(f"round {i + 1}/{args.rounds} done", file=sys.stderr, flush=True)
    print(f"{'figure':40s} {'parent':>10s} {'change':>10s} {'ratio':>7s}")
    for key in rounds["parent"][0]:
        a, b = (median([r[key] for r in rounds[side]]) for side in ("parent", "change"))
        ratio = median([c[key] / p[key] if p[key] and c[key] is not None else None
                        for p, c in zip(rounds["parent"], rounds["change"])])
        print(f"{key:40s} {fmt(a, 10)} {fmt(b, 10)} {fmt(ratio, 7)}")
    if args.json:
        args.json.write_text(json.dumps({"sides": sides, "rounds": rounds}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
