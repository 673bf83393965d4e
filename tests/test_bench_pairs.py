"""tools/bench_pairs.py driven with stub perfbench scripts that print fixed
result lines, so the aggregates and the failure path run in well under a
second."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"

STUB = '''import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
seed = int(args["--seed"])
wall = {walls}[seed - 100]
print("env " + json.dumps({{"commit": "{commit}"}}))
print("wall_s = %r s" % wall)
print(json.dumps({{"correct": {correct}, "attempted": 2, "failed": {failed},
                  "metrics": {{"wall_s": {{"value": wall, "unit": "s"}},
                              "peak_rss_mb": {{"value": 50.0, "unit": "MB"}}}}}}))
sys.exit({code})
'''


def _load_tool(change):
    """The tool, with ``change`` standing in for this tree."""
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    mod.ROOT = change
    return mod


def _stub_root(path, commit, walls, correct=True, failed=0, code=0):
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text(STUB.format(
        walls=walls, commit=commit, correct=correct, failed=failed, code=code))
    return path


def _args(parent, pairs=5):
    return [str(parent), "--workload", "knn-stream", "--pairs", str(pairs),
            "--seconds", "1", "--seed-base", "100", "--tag", "t"]


def test_bench_pairs_aggregates(tmp_path):
    parent = _stub_root(tmp_path / "parent", "aaa", [2.0, 2.2, 1.8, 2.4, 2.1])
    change = _stub_root(tmp_path / "change", "bbb", [1.0, 1.2, 1.9, 1.1, 1.3])
    assert _load_tool(change).main(_args(parent)) == 0
    report = json.loads((change / "BENCH_t.json").read_text())
    assert report["commits"] == {"parent": "aaa", "change": "bbb"}
    assert report["dirty"] == {"parent": None, "change": None}
    w = report["workloads"]["knn-stream"]
    assert w["seeds"] == [100, 101, 102, 103, 104]
    assert len(w["runs"]) == 10
    assert all(r["correct"] is True and r["failed"] == 0 for r in w["runs"])
    wall = w["metrics"]["wall_s"]
    assert wall["unit"] == "s" and wall["pairs"] == 5
    assert wall["parent"] == pytest.approx({"median": 2.1, "q1": 2.0, "q3": 2.2})
    assert wall["change"] == pytest.approx({"median": 1.2, "q1": 1.1, "q3": 1.3})
    assert wall["ratio"] == pytest.approx(1.2 / 2.1)
    assert wall["wins"] == 4          # seed 102: 1.9 against 1.8
    assert w["metrics"]["peak_rss_mb"]["wins"] == 0


@pytest.mark.parametrize("stub", [dict(code=1), dict(correct=False, failed=1)])
def test_bench_pairs_writes_nothing_when_a_run_fails(tmp_path, stub):
    parent = _stub_root(tmp_path / "parent", "aaa", [2.0, 2.0, 2.0])
    change = _stub_root(tmp_path / "change", "bbb", [1.0, 1.0, 1.0], **stub)
    assert _load_tool(change).main(_args(parent, pairs=3)) == 1
    assert not (change / "BENCH_t.json").exists()


def test_bench_pairs_records_dirty_trees(tmp_path):
    # a root that is no git checkout reads null; a checkout reads whether
    # it had uncommitted changes before the pairs ran
    parent = _stub_root(tmp_path / "parent", "aaa", [2.0])
    change = _stub_root(tmp_path / "change", "bbb", [1.0])
    for argv in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "stub"]):
        subprocess.run(["git", "-C", str(change), "-c", "user.name=stub",
                        "-c", "user.email=stub@example.com", "-c", "commit.gpgsign=false",
                        *argv], check=True, capture_output=True)
    tool = _load_tool(change)
    assert tool.main(_args(parent, pairs=1)) == 0
    report = change / "BENCH_t.json"
    assert json.loads(report.read_text())["dirty"] == {"parent": None, "change": False}
    # the report just written is an untracked file of the change tree
    assert tool.main(_args(parent, pairs=1)) == 0
    assert json.loads(report.read_text())["dirty"] == {"parent": None, "change": True}
