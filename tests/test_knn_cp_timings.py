"""tools/knn_cp_timings.py's rounds and table, with the worker processes
replaced by fixed figures, so no timing runs."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "knn_cp_timings.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("knn_cp_timings", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_knn_cp_timings_alternates_trees_and_prints_medians(tmp_path, monkeypatch, capsys):
    # three rounds, parent first on even rounds; each figure's median over
    # rounds, the median of the per-round ratios change over parent (not
    # the ratio of the medians), and n/a where a tree made none
    tool = _load_tool()
    screen, warmup = "screen knn-nccp digits k20", "warmup digits"
    figures = {"parent": [{"tiny": 10.0, "share": None, screen: 220.0, warmup: 9000.0},
                          {"tiny": 14.0, "share": None, screen: 210.0, warmup: 9500.0},
                          {"tiny": 12.0, "share": None, screen: 230.0, warmup: 8000.0}],
               "change": [{"tiny": 5.0, "share": 0.3, screen: 110.0, warmup: 3000.0},
                          {"tiny": 7.0, "share": 0.4, screen: 154.0, warmup: 4000.0},
                          {"tiny": 6.0, "share": 0.2, screen: 150.0, warmup: 2600.0}]}
    calls = []

    def worker(src, best_of):
        calls.append((src, best_of))
        return figures[src][sum(s == src for s, _ in calls) - 1]
    monkeypatch.setattr(tool, "run_worker", worker)
    out = tmp_path / "t.json"
    assert tool.main(["parent", "change", "--rounds", "3", "--best-of", "2",
                      "--json", str(out)]) == 0
    assert [s for s, _ in calls] == ["parent", "change", "change", "parent", "parent", "change"]
    assert {b for _, b in calls} == {2}
    rows = {line[:40].strip(): line[40:].split() for line in capsys.readouterr().out.splitlines()}
    assert rows["tiny"] == ["12.000", "6.000", "0.500"]
    assert rows["share"] == ["n/a", "0.300", "n/a"]
    assert rows[screen] == ["220.000", "150.000", "0.652"]
    assert rows[warmup] == ["9000.000", "3000.000", "0.333"]
    saved = json.loads(out.read_text())
    assert saved["sides"] == {"parent": "parent", "change": "change"}
    assert [r["tiny"] for r in saved["rounds"]["parent"]] == [10.0, 14.0, 12.0]
