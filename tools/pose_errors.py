"""Maximum pose errors of two source trees on the benchmark's sequences.

    python3 tools/pose_errors.py PARENT CHANGE [--seeds 1,2,3,4]

PARENT and CHANGE are checkout roots.  The sequences are the pin and the
bottle of ``perfbench/run.py``, made with the harness's flags and ``--seed
N --texture-seed N`` at every seed, and the textured sphere
(``--shape sphere --diameter 70 --frames 8 --texture-count 40 --seed 3``);
each with ``--hand-noise 0`` and with ``--hand-noise 1.0``.  Each tree
generates every sequence with its own ``inhand synth`` and runs ``inhand
reconstruct`` on it at the default settings, from the tree's root with its
``src`` first on the path and the harness's environment.

``perfbench/poses.py`` scores the trajectory against the sequence's ground
truth.  Each sequence prints both trees' maximum axial (twist about the
axis of revolution), rotation and translation error over the frames, and
the change in axial error.  Beside them it prints the mesh's errors from
``report.json``: the largest absolute error of the length probes in mm
(``dim_mm``), and the signed volume error in percent of the true volume
(``volume_pct``), or ``open`` when the mesh is not closed and the volume
cannot be measured.  A run fails when a command exits non-zero or a frame
is left unregistered; the mesh is not judged, so a scan that does not
turn all the way round still scores.  The last line of standard output is
the JSON of every run; the exit status is 1 if any run failed, else 0.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
sys.path[:0] = [str(TOOLS), str(TOOLS.parent / "perfbench")]
from poses import frame_errors, load_trajectory, load_truth  # noqa: E402
from same_outputs import load_harness  # noqa: E402

HAND_NOISES = ("0", "1.0")
SPHERE = ["--shape", "sphere", "--diameter", "70", "--frames", "8",
          "--texture-count", "40", "--seed", "3"]
ERRORS = ("axial_deg", "rot_deg", "trans_mm")  # fields of poses.FrameError


def sequences(harness, seeds: list[int]) -> list[tuple[str, list[str]]]:
    """The label and ``inhand synth`` flags of every sequence, in run order."""
    out = []
    for name in ("pin-reconstruct", "bottle-sweep"):
        flags = [*harness.COMMON_SYNTH, *harness.WORKLOADS[name]["synth"]]
        for seed in seeds:
            for noise in HAND_NOISES:
                out.append((f"{name.split('-')[0]} seed {seed} hand-noise {noise}",
                            [*flags, "--seed", str(seed), "--texture-seed", str(seed),
                             "--hand-noise", noise]))
    for noise in HAND_NOISES:
        out.append((f"textured sphere seed 3 hand-noise {noise}", [*SPHERE, "--hand-noise", noise]))
    return out


def run_tree(harness, root: Path, synth: list[str], work: Path) -> dict:
    """Generate one sequence in ``work`` with ``root``'s ``inhand``, reconstruct
    it, and score it: its maximum errors, or why it failed."""
    seq, out = work / "seq", work / "out"
    env = harness.child_env(root)
    for argv in (["synth", *synth, "--out", str(seq)],
                 ["reconstruct", str(seq / "manifest.json"), "--out", str(out)]):
        proc = subprocess.run([sys.executable, "-m", "inhand.cli", *argv],
                              cwd=root, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            said = proc.stderr.strip().splitlines()[-1:]
            return {"failed": ": ".join([f"{argv[0]} exit code {proc.returncode}", *said])}
    truth, trajectory = load_truth(seq / "ground_truth.json"), load_trajectory(out / "trajectory.jsonl")
    missing = [k for k in range(len(truth["motions"])) if k not in trajectory]
    if missing:
        return {"failed": f"frames {missing} not registered"}
    errors = frame_errors(trajectory, truth)
    return {**{name: max(getattr(e, name) for e in errors) for name in ERRORS},
            **mesh_errors(json.loads((out / "report.json").read_text()), truth),
            "failed": None}


def mesh_errors(report: dict, truth: dict) -> dict:
    """The largest length-probe error in mm and the signed volume error in
    percent of ``report``'s mesh; None where no such probe was measured.
    Every synthetic shape has one volume probe."""
    kinds = {p["name"]: p["kind"] for p in truth["probes"]}
    rows = report["dimensions"]
    lengths = [row["abs_error"] for name, row in rows.items()
               if kinds[name] != "volume" and row["abs_error"] is not None]
    volume = next(row for name, row in rows.items() if kinds[name] == "volume")
    return {
        "dim_err_max_mm": max(lengths, default=None),
        "volume_err_pct": None if volume["measured"] is None
        else 100.0 * (volume["measured"] - volume["expected"]) / volume["expected"],
    }


def describe(run: dict) -> str:
    if run["failed"]:
        return f"FAILED: {run['failed']}"
    dim, volume = run["dim_err_max_mm"], run["volume_err_pct"]
    return " ".join([*(f"{name} {run[name]:.4f}" for name in ERRORS),
                     "dim_mm " + ("none" if dim is None else f"{dim:.2f}"),
                     "volume_pct " + ("open" if volume is None else f"{volume:+.3f}")])


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seeds", default="1,2,3,4",
                        type=lambda s: [int(x) for x in s.split(",")])
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    harness = load_harness()
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {}
    with tempfile.TemporaryDirectory(prefix="pose_errors-") as tmp:
        for i, (label, synth) in enumerate(sequences(harness, args.seeds)):
            runs[label] = {side: run_tree(harness, root, synth, Path(tmp) / f"{i}-{side}")
                           for side, root in roots.items()}
            parent, change = runs[label]["parent"], runs[label]["change"]
            gap = ("" if parent["failed"] or change["failed"]
                   else f"; axial_deg {change['axial_deg'] - parent['axial_deg']:+.4f}")
            print(f"{label}: parent {describe(parent)} | change {describe(change)}{gap}",
                  flush=True)
    failed = any(run["failed"] for sides in runs.values() for run in sides.values())
    print(json.dumps({"runs": runs, "all_ran": not failed}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
