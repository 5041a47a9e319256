"""``tools/ab_pairs.py`` alternates the sides of each pair and judges the gain rule."""

import importlib.util
import json
import math
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ab_pairs.py"
PARENT_RSS = [112.0, 111.8, 112.2, 111.9, 112.1, 112.0, 111.7, 112.3, 111.9, 112.0]


def make_tree(root):
    """A checkout root with what the harness runs, a bytecode cache and old outputs."""
    for name, data in (
        ("src/inhand/cli.py", f"# {root.name}\n".encode()),
        ("src/inhand/__pycache__/cli.cpython-311.pyc", b"stale"),
        ("perfbench/run.py", b"# harness\n"),
        ("perfbench/out/pin-reconstruct-seed5/result.json", b"{}"),
        ("BENCHMARK.json", b"{}"),
    ):
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_bytes(data)
    return root


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
    parent, change = make_tree(tmp_path / "parent"), make_tree(tmp_path / "change")
    argv = [str(parent), str(change), "--workload", "bottle-sweep", "--seed", "5", "--pairs", "4"]
    assert tool.main(argv) == status
    assert [root.name for root in compiled] == ["parent", "change"]
    assert order == ["parent", "change", "change", "parent"] * 2
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["all_correct"] is correct
    assert summary["values"]["change"]["peak_rss_mb"] == [rss - 2.0 for rss in PARENT_RSS[:4]]


def test_runs_fresh_copies_and_deletes_them(monkeypatch, tmp_path):
    tool = load_tool()
    trees = [make_tree(tmp_path / "parent"), make_tree(tmp_path / "change")]
    compiled, files = [], {}

    def fake_run(root, workload, seed):
        files[root] = {
            str(path.relative_to(root)): path.read_bytes()
            for path in root.rglob("*") if path.is_file()
        }
        return {"correct": True, "metrics": {}}

    monkeypatch.setattr(tool, "compile_tree", compiled.append)
    monkeypatch.setattr(tool, "run_harness", fake_run)
    argv = [*map(str, trees), "--workload", "bottle-sweep", "--seed", "5", "--pairs", "1"]
    assert tool.main(argv) == 0
    assert list(files) == compiled
    for copy, tree in zip(compiled, trees):
        assert copy.name == tree.name and not copy.is_relative_to(tmp_path)
        assert files[copy] == {
            "src/inhand/cli.py": (tree / "src/inhand/cli.py").read_bytes(),
            "perfbench/run.py": b"# harness\n",
            "BENCHMARK.json": b"{}",
        }
        assert not copy.exists()


def test_reads_the_median_child_cpu_time_of_each_harness_run(monkeypatch, tmp_path):
    tool = load_tool()
    root = make_tree(tmp_path / "change")

    def fake_harness(argv, cwd, **kwargs):
        assert argv[1:] == ["perfbench/run.py", "--workload", "bottle-sweep", "--seed", "5",
                            "--seconds", tool.SECONDS]
        record = {"repetitions": [{"cpu_s": c} for c in (3.0, 1.0, 10.0, 2.0)]}
        out = cwd / "perfbench/out/bottle-sweep-seed5"
        out.mkdir(parents=True)
        (out / "result.json").write_text(json.dumps(record))
        line = json.dumps({"correct": True, "metrics": {}})
        return subprocess.CompletedProcess(argv, 0, stdout=f"log\n{line}\n", stderr="")

    monkeypatch.setattr(tool.subprocess, "run", fake_harness)
    run = tool.run_harness(root, "bottle-sweep", 5)
    assert run["correct"] and run["cpu_s"] == 2.5
    # Another workload's record, or none, gives no CPU time.
    assert math.isnan(tool.child_cpu_s(root, "pin-reconstruct", 5))
    assert math.isnan(tool.child_cpu_s(root, "bottle-sweep", 6))


def test_reports_cpu_time_quartiles_without_judging_them(monkeypatch, capsys, tmp_path):
    tool = load_tool()
    parent_cpu = [4.0, 4.4, 4.2, 4.6]

    def fake_run(root, workload, seed):
        side = root.name
        pair = sum(len(v) for v in seen.values()) // 2
        seen.setdefault(side, []).append(pair)
        cpu = parent_cpu[pair] - (1.0 if side == "change" else 0.0)
        metrics = {name: {"value": 1.0} for name in tool.end_to_end_metrics()}
        return {"correct": True, "metrics": metrics, "cpu_s": cpu}

    seen = {}
    monkeypatch.setattr(tool, "compile_tree", lambda root: None)
    monkeypatch.setattr(tool, "run_harness", fake_run)
    trees = [make_tree(tmp_path / "parent"), make_tree(tmp_path / "change")]
    argv = [*map(str, trees), "--workload", "bottle-sweep", "--seed", "5", "--pairs", "4"]
    assert tool.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary["cpu_s"]["values"] == {
        "parent": parent_cpu, "change": [c - 1.0 for c in parent_cpu]}
    assert summary["cpu_s"]["quartiles"]["parent"] == pytest.approx([4.15, 4.3, 4.45])
    assert summary["cpu_s"]["quartiles"]["change"] == pytest.approx([3.15, 3.3, 3.45])
    assert "cpu_s" not in summary["verdicts"]
    assert any(line.startswith("  cpu_s (") and "not judged" in line for line in lines)
