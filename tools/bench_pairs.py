"""Run the benchmark on a parent tree and on this tree in alternating pairs.

    python3 tools/bench_pairs.py PARENT_ROOT --workload knn-stream --pairs 10 \\
        --seconds 25 --seed-base 401 --tag knn-cp-matrix

PARENT_ROOT is a checkout of the commit to compare against (a ``git
clone`` of it, say).  Pair i runs ``perfbench/run.py --seed S+i`` once
under each root, the parent first on even pairs and this tree first on
odd ones, so a slow drift of the host's speed falls on both sides alike.
Each ``run.py`` imports the package from its own root's ``src/``.
``--workload`` may be repeated; every workload gets its own pairs.

Each run's last JSON line is parsed.  When every run exits 0 with
``correct: true``, ``BENCH_<tag>.json`` is written at the root of this
tree with, per workload and metric, the median and quartiles of both
sides, the ratio of medians (this tree over the parent) and the number
of pairs this tree won (lower is better for every perfbench metric),
plus the seeds, both ``env`` lines, whether each root's working tree
had uncommitted changes when the pairs began (``dirty``; null for a
root that is not a git checkout) and every run's ``correct`` and
``failed``.  If any run fails, nothing is written and the exit code is
1.  Only the standard library is used.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class RunFailed(RuntimeError):
    pass


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_root", type=Path)
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seed-base", type=int, required=True)
    ap.add_argument("--tag", required=True)
    return ap.parse_args(argv)


def run_once(root, workload, seed, seconds):
    """(env, result) of one ``perfbench/run.py`` run; RunFailed unless it
    exits 0 and its last JSON line says ``correct: true``."""
    argv = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    where = f"{root} {workload} seed {seed}"
    if proc.returncode != 0:
        raise RunFailed(f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
    env, result = None, None
    for line in proc.stdout.splitlines():
        if line.startswith("env "):
            env = json.loads(line[4:])
        elif line.startswith("{"):
            result = json.loads(line)
    if result is None or "metrics" not in result:
        raise RunFailed(f"{where}: no result line")
    if result.get("correct") is not True or result.get("failed") != 0:
        raise RunFailed(f"{where}: correct={result.get('correct')} "
                        f"failed={result.get('failed')}")
    return env, result


def dirty(root):
    """Whether ``git status --porcelain`` lists anything in the checkout at
    ``root``; None when ``root`` is not a git checkout."""
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(root), "status", "--porcelain"],
                          capture_output=True, text=True)
    return bool(proc.stdout.strip()) if proc.returncode == 0 else None


def spread(values):
    """Median and quartiles (inclusive method)."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def summarize(pairs):
    """Per metric: both sides' spread, the ratio of medians and the wins.
    ``pairs`` is a list of (seed, parent result, change result)."""
    out = {}
    for name, first in pairs[0][1]["metrics"].items():
        par = [p["metrics"][name]["value"] for _, p, _ in pairs]
        chg = [c["metrics"][name]["value"] for _, _, c in pairs]
        par_s, chg_s = spread(par), spread(chg)
        out[name] = {"unit": first["unit"], "parent": par_s, "change": chg_s,
                     "ratio": (chg_s["median"] / par_s["median"]
                               if par_s["median"] else None),
                     "wins": sum(c < p for p, c in zip(par, chg)), "pairs": len(pairs)}
    return out


def main(argv=None):
    args = parse_args(argv)
    roots = {"parent": args.parent_root.resolve(), "change": ROOT}
    trees = {side: dirty(root) for side, root in roots.items()}
    envs, workloads = {}, {}
    try:
        for workload in args.workload:
            pairs = []
            for i in range(args.pairs):
                seed = args.seed_base + i
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                got = {}
                for side in order:
                    env, got[side] = run_once(roots[side], workload, seed, args.seconds)
                    envs.setdefault(side, env)
                    print(f"{workload} seed {seed} {side}: wall_s "
                          f"{got[side]['metrics']['wall_s']['value']:.4g}", file=sys.stderr)
                pairs.append((seed, got["parent"], got["change"]))
            workloads[workload] = {
                "seeds": [seed for seed, _, _ in pairs],
                "metrics": summarize(pairs),
                "runs": [{"seed": seed, "side": side, "correct": r["correct"],
                          "failed": r["failed"]}
                         for seed, p, c in pairs for side, r in (("parent", p), ("change", c))],
            }
    except RunFailed as exc:
        print(f"bench_pairs: {exc}; nothing written", file=sys.stderr)
        return 1
    report = {"tag": args.tag, "seconds": args.seconds, "pairs": args.pairs,
              "commits": {side: (envs[side] or {}).get("commit") for side in roots},
              "dirty": trees, "env": envs, "workloads": workloads}
    path = ROOT / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
