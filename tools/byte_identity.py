"""Check that two source trees give byte-identical CLI outputs.

    python tools/byte_identity.py PARENT_SRC CHANGE_SRC [--work DIR]

PARENT_SRC and CHANGE_SRC are ``src/`` directories (each holding the
``aci_lab`` package), for instance one from a clone of the parent commit
and one from the working tree.  The same fixed list of ``aci-lab``
invocations runs under each, from one working directory and with the
same relative ``--out`` paths, so file names and the paths the CLI
prints agree; two of them read every setting from a config file written
there.  Every output file (traces, summaries, manifests, sweep
tables), every command's stdout and the list of exit codes are then
compared byte for byte.  Exits 0 when all are equal, 1 on any
difference.  Only the standard library and the CLI are used.
"""

import argparse
import filecmp
import os
import shutil
import subprocess
import sys
import tempfile

ONLINE = ("--warmup", "50", "--seed", "7", "--n", "800")
BOUNDARY = ("--warmup", "50", "--seed", "3", "--n", "400", "--gamma", "0.6")
SWEEP = ("--seeds", "0,1,2", "--cal-fractions", "0.2,0.3,0.4")
# Runs set only from a config file, written to the working directory: each
# sets every numeric field its command reads (and the rest, which reach the
# manifest's config sidecar), so both trees' parsing of file values is compared.
CONFIG_FILES = {
    "online.cfg": """dataset = synth-reg
predictor = crr
eps = 0.15
eps1 = 0.2
delta = 0.05
warmup = 60
seed = 11
k = 4
ridge_a = 0.5
standardize = yes
subsample = 450
n = 500
p = 5
changepoint_frac = 0.4
drift = 1.5
noise_scale = 0.7
n_classes = 4
class_sep = 2.5
winkler_clamp_lo = 0.02
winkler_clamp_hi = 0.9
""",
    "sweep.cfg": """dataset = synth-class  # a trailing comment
predictor = icp-class
eps = 0.12
eps1 = 0.3
gamma = 0.01
seed = 2
k = 7
n = 600
p = 6
changepoint_frac = 0.6
drift = 1.25
n_classes = 4
class_sep = 3.0
cal_fraction = 0.3
test_fraction = 0.4
pool_subsample = 300
seeds = 4, 5,6
cal_fractions = 0.15,0.35 ,0.6
winkler_clamp_lo = 0.005
winkler_clamp_hi = 0.99
""",
}


def commands():
    """(name, argv) pairs; a name is also the run's ``--out`` directory."""
    cmds = []
    for pid, ds in (("crr", "synth-reg"), ("ols-nccp", "synth-reg"),
                    ("knn-cp", "synth-class"), ("knn-nccp", "synth-class"),
                    ("random-set", "synth-class"), ("coin-flip", "synth-class"),
                    ("coin-flip", "synth-reg")):
        cmds.append((f"online-{pid}-{ds}",
                     ["online", "--dataset", ds, "--predictor", pid, *ONLINE]))
    for pid, ds in (("crr", "synth-reg"), ("ols-nccp", "synth-reg"),
                    ("knn-cp", "synth-class"), ("knn-nccp", "synth-class")):
        cmds.append((f"boundary-{pid}",
                     ["online", "--dataset", ds, "--predictor", pid, *BOUNDARY]))
    for pid, ds in (("icp-class", "synth-class"), ("inccp-class", "synth-class"),
                    ("icp-reg", "synth-reg"), ("inccp-reg", "synth-reg")):
        cmds.append((f"offline-{pid}", ["offline", "--dataset", ds, "--predictor", pid]))
        cmds.append((f"offline-{pid}-gamma",
                     ["offline", "--dataset", ds, "--predictor", pid, "--gamma", "0.6"]))
    for pid, ds in (("icp-class", "synth-class"), ("icp-reg", "synth-reg")):
        cmds.append((f"sweep-{pid}",
                     ["sweep", "--dataset", ds, "--predictor", pid, *SWEEP]))
    cmds.append(("lemma-stress", ["lemma-stress"]))
    for pid in ("crr", "ols-nccp"):
        cmds.append((f"ridge-a-{pid}", ["online", "--dataset", "synth-reg", "--predictor",
                                        pid, "--ridge-a", "1.0", *ONLINE]))
        cmds.append((f"warmup3-{pid}", ["online", "--dataset", "synth-reg", "--predictor",
                                        pid, "--warmup", "3", "--n", "300"]))
    cmds.append(("knn-cp-k3", ["online", "--dataset", "synth-class", "--predictor",
                               "knn-cp", "--k", "3", *ONLINE]))
    # knn-nccp at the benchmark's knn-stream shape, and the offline class
    # scorers at k = 1
    cmds.append(("knn-nccp-stream", ["online", "--dataset", "synth-class", "--predictor",
                                     "knn-nccp", "--k", "20", "--p", "8", "--n", "4000",
                                     "--warmup", "100"]))
    # knn-nccp from a history shorter than k, where every kept row votes
    # without a direct distance until the history reaches k rows
    cmds.append(("knn-nccp-short", ["online", "--dataset", "synth-class", "--predictor",
                                    "knn-nccp", "--k", "20", "--warmup", "5", "--n", "300"]))
    for pid in ("icp-class", "inccp-class"):
        cmds.append((f"offline-{pid}-k1", ["offline", "--dataset", "synth-class",
                                           "--predictor", pid, "--k", "1"]))
    # the offline tables above 8 features, where numpy's pairwise sum of
    # a distance row takes its eight-accumulator (p = 20) and halving
    # (p = 130) forms, so the screened query blocks must reproduce the
    # one-row values there; and sweeps at the benchmark's split-sweep shape
    for p in ("20", "130"):
        for pid in ("icp-reg", "inccp-reg"):
            cmds.append((f"offline-{pid}-p{p}", ["offline", "--dataset", "synth-reg",
                                                 "--predictor", pid, "--p", p]))
    for pid in ("icp-class", "inccp-class"):
        cmds.append((f"offline-{pid}-p130", ["offline", "--dataset", "synth-class",
                                             "--predictor", pid, "--p", "130"]))
    for pid, ds, k in (("icp-reg", "synth-reg", "20"), ("icp-class", "synth-class", "10")):
        cmds.append((f"sweep-{pid}-split", ["sweep", "--dataset", ds, "--predictor", pid,
                                            "--k", k, "--n", "1000", "--p", "8",
                                            "--seeds", "0,1", "--cal-fractions",
                                            "0.1,0.5,0.9", "--delta", "0.05"]))
    # knn-nccp at the benchmark's digits shape (256 features, 10 labels,
    # history 2000), where the Gram screen rules out most rows
    for k in ("20", "1"):
        cmds.append((f"knn-nccp-digits-k{k}", ["online", "--dataset", "synth-class",
                                               "--predictor", "knn-nccp", "--p", "256",
                                               "--n-classes", "10", "--class-sep", "3.5",
                                               "--n", "2200", "--warmup", "2000",
                                               "--k", k]))
    # knn-cp after a long warm-up, so its first predict fills the
    # neighbour caches through the pairwise screen, at both summation forms
    # of a distance row and with k = 1 and 3; then at k = 20 with 10
    # labels, where every later step reuses its predict's distances and
    # the label passes group 10 labels; and with 10 labels at gamma 0.6,
    # where boundary steps (no predict) interleave with that reuse
    for p in ("20", "130"):
        for k in ("1", "3"):
            cmds.append((f"knn-cp-warm-p{p}-k{k}", ["online", "--dataset", "synth-class",
                                                    "--predictor", "knn-cp", "--p", p,
                                                    "--k", k, "--n", "460",
                                                    "--warmup", "400", "--gamma", "0.05"]))
    cmds.append(("knn-cp-warm-p130-k20-l10", ["online", "--dataset", "synth-class",
                                              "--predictor", "knn-cp", "--p", "130",
                                              "--k", "20", "--n-classes", "10", "--n", "460",
                                              "--warmup", "400", "--gamma", "0.05"]))
    cmds.append(("boundary-knn-cp-l10", ["online", "--dataset", "synth-class",
                                         "--predictor", "knn-cp", "--n-classes", "10",
                                         "--p", "20", *BOUNDARY]))
    # knn-cp at the benchmark's digits shape (256 features, 10 labels,
    # history 2000), where the self-join's row blocks are largest and each
    # side of a block is a few label-sorted slices; k = 20 keeps the later
    # rows' running bounds loose for most of the join
    for k in ("1", "20"):
        cmds.append((f"knn-cp-digits-k{k}", ["online", "--dataset", "synth-class",
                                             "--predictor", "knn-cp", "--p", "256",
                                             "--n-classes", "10", "--class-sep", "3.5",
                                             "--warmup", "2000", "--n", "2008",
                                             "--gamma", "0.05", "--k", k]))
    # knn-cp from a history shorter than k, so neighbour lists are short
    # (+inf padded) on one side or both: at k = 5 a list is narrower than
    # numpy's eight-value pairwise block, at k = 20 wider
    for k in ("5", "20"):
        cmds.append((f"knn-cp-short-k{k}", ["online", "--dataset", "synth-class",
                                            "--predictor", "knn-cp", "--k", k, "--warmup", "3",
                                            "--n", "300", "--delta", "0.05"]))
    # knn-cp at the benchmark's knn-stream shape, where nearly every step
    # after the warm-up commits its predict's rescoring
    for k in ("1", "20"):
        cmds.append((f"knn-cp-stream-k{k}", ["online", "--dataset", "synth-class",
                                             "--predictor", "knn-cp", "--n", "500", "--p", "6",
                                             "--class-sep", "3.0", "--drift", "1.5",
                                             "--warmup", "50", "--delta", "0.02", "--k", k]))
    for name in CONFIG_FILES:
        cmds.append((f"config-{name[:-4]}", [name[:-4], "--config", name]))
    return cmds


def run_side(src, work, dest):
    """Run every command under ``src`` from ``work`` and move the outputs to
    ``dest``; returns a line per command that failed to run."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = os.path.join(work, "out")
    os.makedirs(out)
    for name, text in CONFIG_FILES.items():
        with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    codes, failed = [], []
    for name, argv in commands():
        if argv[0] != "lemma-stress":
            argv = [*argv, "--out", os.path.join("out", name)]
        proc = subprocess.run([sys.executable, "-m", "aci_lab.cli", *argv], cwd=work,
                              env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        with open(os.path.join(out, f"{name}.stdout"), "wb") as fh:
            fh.write(proc.stdout)
        codes.append(f"{name} {proc.returncode}\n")
        if proc.returncode not in (0, 1):
            failed.append(f"{src}: {name} exited {proc.returncode}: "
                          + proc.stderr.decode(errors="replace").strip())
    with open(os.path.join(out, "exit_codes.txt"), "w", encoding="utf-8") as fh:
        fh.writelines(codes)
    shutil.move(out, dest)
    return failed


def tree_files(root):
    return sorted(os.path.relpath(os.path.join(d, f), root)
                  for d, _, files in os.walk(root) for f in files)


def compare(a, b):
    """Differences between two output trees, as printable lines."""
    fa, fb = tree_files(a), tree_files(b)
    problems = [f"only in parent: {f}" for f in sorted(set(fa) - set(fb))]
    problems += [f"only in change: {f}" for f in sorted(set(fb) - set(fa))]
    problems += [f"differs: {f}" for f in sorted(set(fa) & set(fb))
                 if not filecmp.cmp(os.path.join(a, f), os.path.join(b, f), shallow=False)]
    return len(set(fa) & set(fb)), problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_src", help="src/ directory of the parent tree")
    ap.add_argument("change_src", help="src/ directory of the changed tree")
    ap.add_argument("--work", help="empty or absent directory to keep the outputs in "
                                   "(default: a temporary directory, removed afterwards)")
    args = ap.parse_args(argv)
    for src in (args.parent_src, args.change_src):
        if not os.path.isdir(os.path.join(src, "aci_lab")):
            ap.error(f"{src} holds no aci_lab package")
    work = args.work or tempfile.mkdtemp(prefix="byte-identity-")
    os.makedirs(work, exist_ok=True)
    try:
        run_dir = os.path.join(work, "run")
        os.makedirs(run_dir)
        failed = run_side(args.parent_src, run_dir, os.path.join(work, "parent"))
        failed += run_side(args.change_src, run_dir, os.path.join(work, "change"))
        n_common, problems = compare(os.path.join(work, "parent"), os.path.join(work, "change"))
        problems += failed
    finally:
        if not args.work:
            shutil.rmtree(work, ignore_errors=True)
    for line in problems:
        print(line)
    print(f"{n_common - sum(p.startswith('differs') for p in problems)} of {n_common} "
          f"common files equal, {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
