"""Alternating parent/change runs of one benchmark workload, judged by the gain rule.

    python3 tools/ab_pairs.py PARENT CHANGE --workload W --seed N [--pairs 10]

PARENT and CHANGE are checkout roots.  Each side runs from a fresh copy of
its tree's ``src``, ``perfbench`` and ``BENCHMARK.json`` in a temporary
directory, without ``__pycache__`` directories or ``perfbench/out``, so
neither side measures bytecode or outputs left behind by earlier runs.
Both copies are byte-compiled first (``python -m compileall -q src
perfbench``), so neither side pays for a missing bytecode cache, and both
are deleted at exit.  Each pair runs ``python3 perfbench/run.py
--workload W --seed N --seconds 10`` once from each copy's root; the
parent runs first in odd pairs and the change first in even ones.

For every end-to-end metric of ``BENCHMARK.json`` it prints both sides'
quartiles, the pairs the change won (a tie counts for neither side), and
whether the gain rule holds: the change won at least 9 in 10 pairs, and
the gap between the medians, in the metric's better direction, is larger
than the parent's interquartile range.  Beside them, unjudged, it prints
both sides' quartiles of each run's child CPU time: the median ``cpu_s``
over the run's repetitions, read from the ``result.json`` that the run
left in its copy.  CPU time counts the work of every thread, so it moves
less with the host's load than ``wall_s`` does.  The last line of
standard output is the JSON of every run's values.  The exit status is 1 if any run is not ``correct``, else 0.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
SECONDS = "10"


def end_to_end_metrics() -> dict[str, str]:
    """Name -> better direction (``lower`` or ``higher``) of each end-to-end metric."""
    declared = json.loads(BENCHMARK.read_text())
    return {m["name"]: m["better"] for m in declared["end_to_end"]}


def side_order(pair: int) -> tuple[str, str]:
    """Which side runs first in the 1-based ``pair``."""
    return ("parent", "change") if pair % 2 else ("change", "parent")


def fresh_copy(root: Path, copy: Path) -> Path:
    """``copy`` made to hold what the harness runs from ``root``, without
    bytecode caches or earlier harness outputs."""
    shutil.copytree(root / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(root / "perfbench", copy / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy2(root / "BENCHMARK.json", copy / "BENCHMARK.json")
    return copy


def compile_tree(root: Path) -> None:
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                   cwd=root, check=True)


def run_harness(root: Path, workload: str, seed: int) -> dict:
    """The harness's JSON result line for one run from ``root``; not correct if none."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS],
        cwd=root, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr)
        return {"correct": False, "metrics": {}}
    result["correct"] = result.get("correct") is True and proc.returncode == 0
    result["cpu_s"] = child_cpu_s(root, workload, seed)
    return result


def child_cpu_s(root: Path, workload: str, seed: int) -> float:
    """The median child ``cpu_s`` over the repetitions that the harness in
    ``root`` recorded for ``workload`` and ``seed``; NaN if it recorded none."""
    path = root / "perfbench" / "out" / f"{workload}-seed{seed}" / "result.json"
    try:
        return statistics.median(r["cpu_s"] for r in json.loads(path.read_text())["repetitions"])
    except (OSError, ValueError, KeyError, TypeError, statistics.StatisticsError):
        return math.nan


def value(run: dict, name: str) -> float:
    """``name``'s value in one run's result; NaN when the run reported none."""
    return run["metrics"].get(name, {}).get("value", math.nan)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def judge(parent: list[float], change: list[float], better: str) -> dict:
    """The change's wins over paired runs and whether the gain rule holds."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0.0 for p, c in zip(parent, change))
    pq, cq = quartiles(parent), quartiles(change)
    gap = sign * (pq[1] - cq[1])
    iqr = pq[2] - pq[0]
    return {
        "parent_quartiles": pq,
        "change_quartiles": cq,
        "wins": wins,
        "pairs": len(parent),
        "median_gap": gap,
        "parent_iqr": iqr,
        "holds": wins >= math.ceil(0.9 * len(parent)) and gap > iqr,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    metrics = end_to_end_metrics()
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="ab_pairs-") as scratch:
        roots = {side: fresh_copy(tree.resolve(), Path(scratch) / side)
                 for side, tree in (("parent", args.parent), ("change", args.change))}
        for root in roots.values():
            compile_tree(root)
        for pair in range(1, args.pairs + 1):
            for side in side_order(pair):
                runs[side].append(run_harness(roots[side], args.workload, args.seed))
            shown = "  ".join(f"{name} {value(runs['parent'][-1], name):.4f} -> "
                              f"{value(runs['change'][-1], name):.4f}" for name in metrics)
            print(f"pair {pair} ({side_order(pair)[0]} first): {shown}", flush=True)

    values = {side: {name: [value(r, name) for r in side_runs] for name in metrics}
              for side, side_runs in runs.items()}
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs")
    verdicts = {}
    for name, better in metrics.items():
        parent, change = values["parent"][name], values["change"][name]
        if any(math.isnan(v) for v in parent + change):
            print(f"  {name}: a run reported no value; not judged")
            continue
        v = verdicts[name] = judge(parent, change, better)
        print(f"  {name} ({better} is better): parent {v['parent_quartiles'][1]:.4f} "
              f"[{v['parent_quartiles'][0]:.4f}, {v['parent_quartiles'][2]:.4f}], change "
              f"{v['change_quartiles'][1]:.4f} [{v['change_quartiles'][0]:.4f}, "
              f"{v['change_quartiles'][2]:.4f}]; change won {v['wins']} of {v['pairs']}; "
              f"median gap {v['median_gap']:.4f} against parent IQR {v['parent_iqr']:.4f}; "
              f"gain rule {'holds' if v['holds'] else 'does not hold'}")
    cpu = {side: [r.get("cpu_s", math.nan) for r in side_runs] for side, side_runs in runs.items()}
    cpu_summary = {}
    if any(math.isnan(v) for v in cpu["parent"] + cpu["change"]):
        print("  cpu_s: a run recorded no CPU time")
    else:
        cpu_summary = {side: quartiles(v) for side, v in cpu.items()}
        print("  cpu_s (median child CPU time of each run; not judged): " + ", ".join(
            f"{side} {q[1]:.4f} [{q[0]:.4f}, {q[2]:.4f}]" for side, q in cpu_summary.items()))
    incorrect = [f"{side} run {i + 1}" for side, side_runs in runs.items()
                 for i, r in enumerate(side_runs) if not r["correct"]]
    for what in incorrect:
        print(f"  not correct: {what}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "values": values,
                      "verdicts": verdicts, "cpu_s": {"values": cpu, "quartiles": cpu_summary},
                      "all_correct": not incorrect}))
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
