"""``tools/ab_pairs.py`` alternates the sides of each pair and judges the gain rule."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ab_pairs.py"
PARENT_RSS = [112.0, 111.8, 112.2, 111.9, 112.1, 112.0, 111.7, 112.3, 111.9, 112.0]


def load_tool():
    spec = importlib.util.spec_from_file_location("ab_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_judges_every_end_to_end_metric_of_the_benchmark():
    declared = json.loads((TOOL.parents[1] / "BENCHMARK.json").read_text())
    metrics = load_tool().end_to_end_metrics()
    assert list(metrics) == [m["name"] for m in declared["end_to_end"]]
    assert set(metrics.values()) <= {"lower", "higher"}


def test_gain_rule_counts_ties_for_neither_side():
    judge = load_tool().judge
    change = [rss - 2.3 for rss in PARENT_RSS]
    assert judge(PARENT_RSS, change, "lower")["holds"]
    one_tie = [PARENT_RSS[0]] + change[1:]
    verdict = judge(PARENT_RSS, one_tie, "lower")
    assert verdict["wins"] == 9 and verdict["holds"]
    two_ties = PARENT_RSS[:2] + change[2:]
    assert judge(PARENT_RSS, two_ties, "lower")["wins"] == 8
    assert not judge(PARENT_RSS, two_ties, "lower")["holds"]
    # Better is higher: the same numbers are ten losses.
    assert judge(PARENT_RSS, change, "higher")["wins"] == 0


def test_median_gap_must_exceed_the_parent_spread():
    judge = load_tool().judge
    change = [rss - 0.05 for rss in PARENT_RSS]
    verdict = judge(PARENT_RSS, change, "lower")
    assert verdict["wins"] == 10
    assert verdict["median_gap"] == pytest.approx(0.05)
    assert verdict["parent_iqr"] > verdict["median_gap"]
    assert not verdict["holds"]


@pytest.mark.parametrize("correct, status", [(True, 0), (False, 1)])
def test_alternates_sides_and_fails_on_an_incorrect_run(
    monkeypatch, capsys, tmp_path, correct, status
):
    tool = load_tool()
    compiled, order = [], []

    def fake_run(root, workload, seed):
        side = root.name
        order.append(side)
        pair = (len(order) - 1) // 2
        rss = PARENT_RSS[pair] - (2.0 if side == "change" else 0.0)
        ok = correct or side == "parent" or pair < 2
        metrics = {name: {"value": rss} for name in tool.end_to_end_metrics()}
        return {"correct": ok, "metrics": metrics}

    monkeypatch.setattr(tool, "compile_tree", compiled.append)
    monkeypatch.setattr(tool, "run_harness", fake_run)
    parent, change = tmp_path / "parent", tmp_path / "change"
    argv = [str(parent), str(change), "--workload", "bottle-sweep", "--seed", "5", "--pairs", "4"]
    assert tool.main(argv) == status
    assert compiled == [parent, change]
    assert order == ["parent", "change", "change", "parent"] * 2
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["all_correct"] is correct
    assert summary["values"]["change"]["peak_rss_mb"] == [rss - 2.0 for rss in PARENT_RSS[:4]]
