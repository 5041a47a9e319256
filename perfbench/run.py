"""Benchmark of the inhand pipeline on synthetic scans made from a seed.

    python3 perfbench/run.py --workload pin-reconstruct --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; the program is run from ``src``.
Each run generates its sequence with ``inhand synth`` (the set-up, done
``SETUP_REPEATS`` times; every copy must hash the same), then runs the
workload's ``inhand`` command, each repetition in its own child process,
until ``--seconds`` of measured time have passed.  All metrics come from
the files the commands write, checked against ``ground_truth.json``.

``--trace 0`` reports the end-to-end metrics: the medians over set-ups
and repetitions of ``setup_s``, ``wall_s`` and ``peak_rss_mb``.  Accuracy
(pose, dimension, volume and energy error) is printed and recorded for
every run; it is checked against tolerances but not reported as a gated
metric, because it moves with the seed's input far more than any bound
allows.  ``--trace 1`` runs one untraced and one traced repetition and
reports the per-layer metrics of ``tracing.py`` plus the trace overhead.

The last line of standard output is the JSON result; everything a run
measured, the environment and the input digests go to
``perfbench/out/<workload>-seed<n>[-trace]/result.json``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 2
# A run must end within 180 s; children still running at this point are
# stopped and their repetition counts as failed.
DEADLINE_S = 170.0
# Generation flags shared by every workload; a workload lists the rest.
COMMON_SYNTH = [
    "--deg-per-frame", "6",
    "--noise", "0.5",
    "--texture-count", "0",
    "--smooth-iterations", "3",
]
WORKLOADS = {
    "pin-reconstruct": {
        "synth": [
            "--shape", "pin", "--head-diameter", "50", "--body-diameter", "82",
            "--height", "150", "--density", "1.0", "--frames", "12",
            "--hand-noise", "0", "--feat2d", "0", "--annotate-every", "10",
            "--volume-side", "350", "--tsdf-resolution", "256",
        ],
        "command": ["reconstruct", "{seq}/manifest.json", "--out", "{out}"],
    },
    "bottle-sweep": {
        "synth": [
            "--shape", "bottle", "--diameter", "60", "--height", "120",
            "--density", "1.0", "--frames", "6", "--hand-noise", "0",
            "--feat2d", "200", "--detector-boxes", "--annotate-every", "3",
            "--volume-side", "200", "--tsdf-resolution", "96",
        ],
        "command": [
            "eval", "{seq}/manifest.json", "--sweep-gammas", "0,5,15",
            "--compare-energies", "--out", "{out}",
        ],
    },
}
# Accuracy a run must reach to count as correct.  Rotation error is not
# gated: the known drift about the axis of symmetry is what it measures.
TOLERANCES = {
    "dim_err_max_mm": 5.0,
    "volume_err_pct": 10.0,
    "trans_err_max_mm": 10.0,
    "energy_err_mm": 5.0,
}
UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "rot_err_max_deg": "deg",
    "rot_err_axial_max_deg": "deg",
    "trans_err_max_mm": "mm",
    "dim_err_max_mm": "mm",
    "volume_err_pct": "%",
    "energy_err_mm": "mm",
    "failed_frac": "1",
}
END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")


@dataclass
class Child:
    """One finished child process."""

    argv: list[str]
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


@dataclass
class Checks:
    """Output checks of one repetition; each miss is one failed operation."""

    misses: list[str] = field(default_factory=list)
    attempted: int = 0

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.misses.append(what)


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        INHAND_LOG="WARNING",
    )
    return env


def run_child(argv: list[str], root: Path, env: dict, log: Path, deadline: float) -> Child:
    """Run one process to its end; its own rusage gives CPU time and peak RSS.

    ``os.wait4`` reports the resources of this child alone, so a peak from
    set-up or an earlier repetition cannot leak into the next one.  The
    parent stays small until every measured child has run: a child
    inherits the high-water mark of the process that spawned it.
    """
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=root, env=env, stdout=out, stderr=subprocess.STDOUT)
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    proc.kill()
                    pid, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.005)
        except BaseException:  # interrupted or terminated: leave no child behind
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return Child(
        argv,
        proc.returncode,
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,  # Linux reports KiB
    )


def digest(directory: Path) -> str:
    """SHA-256 over the relative paths and bytes of every file below ``directory``."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(root: Path) -> dict:
    cpu_model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    src_lines = sum(
        len(p.read_bytes().splitlines()) for p in sorted((root / "src").rglob("*.py"))
    )
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "src_lines": src_lines,  # tracked, not gated
        "threads": "OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1",
    }


# --------------------------------------------------------------------------
# outputs -> accuracy and checks


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def check_reconstruct(out: Path, seq: Path, exit_code: int) -> tuple[dict, Checks]:
    from poses import frame_errors, load_trajectory, load_truth

    truth = load_truth(seq / "ground_truth.json")
    frames = len(truth["motions"])
    probes = truth["probes"]
    checks = Checks()
    checks.expect(exit_code == 0, f"exit code {exit_code}")
    try:
        report = json.loads((out / "report.json").read_text())
        trajectory = load_trajectory(out / "trajectory.jsonl")
    except (OSError, ValueError):
        report, trajectory = {"dimensions": {}, "mesh": {}}, {}
    for k in range(1, frames):
        checks.expect(k in trajectory, f"frame {k} not registered")
    checks.expect(bool(report["mesh"].get("closed")), "mesh not closed")

    acc, lengths = {}, []
    for p in probes:
        row = report["dimensions"].get(p["name"], {})
        checks.expect(row.get("measured") is not None, f"probe {p['name']} unmeasurable")
        if row.get("abs_error") is None:
            continue
        if p["kind"] == "volume":
            acc["volume_err_pct"] = 100.0 * row["abs_error"] / row["expected"]
        else:
            lengths.append(row["abs_error"])
    if lengths:
        acc["dim_err_max_mm"] = max(lengths)
    errors = frame_errors(trajectory, truth) if trajectory else []
    if errors:
        acc["rot_err_max_deg"] = max(e.rot_deg for e in errors)
        acc["rot_err_axial_max_deg"] = max(e.axial_deg for e in errors)
        acc["trans_err_max_mm"] = max(e.trans_mm for e in errors)
    return acc, checks


def check_eval(out: Path, seq: Path, exit_code: int, gammas: list[float]) -> tuple[dict, Checks]:
    truth = json.loads((seq / "ground_truth.json").read_text())
    probes = {p["name"]: p["kind"] for p in truth["probes"]}
    checks = Checks()
    checks.expect(exit_code == 0, f"exit code {exit_code}")
    try:
        with open(out / "sweep.csv", newline="") as fh:
            cells = {(_float(r["gamma"]), r["probe"]): r for r in csv.DictReader(fh)}
        with open(out / "energies.csv", newline="") as fh:
            energy_rows = [r for r in csv.DictReader(fh) if r["statistic"] == "mean"]
    except (OSError, KeyError, csv.Error):
        cells, energy_rows = {}, []
    lengths, volumes = [], []
    for gamma in gammas:
        for name, kind in probes.items():
            row = cells.get((gamma, name))
            err = _float(row["abs_error"]) if row else math.nan
            checks.expect(math.isfinite(err), f"sweep cell gamma={gamma:g} {name} is NaN")
            if math.isfinite(err):
                if kind == "volume":
                    volumes.append(100.0 * err / _float(row["expected"]))
                else:
                    lengths.append(err)
    configs = ("contact+visual", "contact", "detector+visual", "detector")
    available = {r["config"]: r for r in energy_rows if r["available"] == "1"}
    for name in configs:
        checks.expect(name in available, f"energy row {name} unavailable")

    acc = {}
    if lengths:
        acc["dim_err_max_mm"] = max(lengths)
    if volumes:
        acc["volume_err_pct"] = max(volumes)
    if "contact+visual" in available:
        acc["energy_err_mm"] = _float(available["contact+visual"]["value"])
    return acc, checks


def _spans(path: Path) -> dict:
    """Spans a traced child wrote; none when it died before writing them."""
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return {"spans": [], "missing": []}


# --------------------------------------------------------------------------
# one run


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # Turn SIGTERM into an exception so the running child is stopped too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "inhand" / "cli.py").is_file():
        print(f"error: no inhand sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run_dir = BENCH_DIR / "out" / f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = child_env(root)
    python = sys.executable
    tracer = str(BENCH_DIR / "tracing.py")

    # Set-up: generate the sequence, several times when not tracing.
    setups, digests = [], []
    for i in range(1 if args.trace else SETUP_REPEATS):
        seq = run_dir / f"seq{i}"
        synth = ["synth", *COMMON_SYNTH, *workload["synth"],
                 "--seed", str(args.seed), "--texture-seed", str(args.seed), "--out", str(seq)]
        cmd = ([python, tracer, str(run_dir / "synth_spans.json"), *synth] if args.trace
               else [python, "-m", "inhand.cli", *synth])
        child = run_child(cmd, root, env, run_dir / f"setup{i}.log", deadline)
        if child.exit_code != 0:
            print(f"error: set-up failed with exit code {child.exit_code}; "
                  f"see {run_dir / f'setup{i}.log'}", file=sys.stderr)
            return 3
        setups.append(child)
        digests.append(digest(seq))
    seq = run_dir / "seq0"

    # Measured repetitions, each in a fresh process.
    def command(out: Path) -> list[str]:
        return [a.format(seq=seq, out=out) for a in workload["command"]]

    reps: list[Child] = []
    while not reps or (
        not args.trace
        and sum(r.wall_s for r in reps) < args.seconds
        and time.monotonic() < deadline
    ):
        out = run_dir / f"rep{len(reps)}"
        reps.append(run_child([python, "-m", "inhand.cli", *command(out)],
                              root, env, run_dir / f"rep{len(reps)}.log", deadline))
    traced = None
    if args.trace:
        out = run_dir / "traced"
        traced = run_child([python, tracer, str(run_dir / "spans.json"), *command(out)],
                           root, env, run_dir / "traced.log", deadline)

    # Evaluation: numpy is imported only now, after every measured child.
    accuracy, rep_checks = [], []
    for i, rep in enumerate(reps):
        out = run_dir / f"rep{i}"
        argv = workload["command"]
        if argv[0] == "reconstruct":
            acc, checks = check_reconstruct(out, seq, rep.exit_code)
        else:
            gammas = [float(g) for g in argv[argv.index("--sweep-gammas") + 1].split(",")]
            acc, checks = check_eval(out, seq, rep.exit_code, gammas)
        accuracy.append(acc)
        rep_checks.append(checks)
    attempted = sum(c.attempted for c in rep_checks)
    failed = sum(len(c.misses) for c in rep_checks)
    acc = accuracy[0]
    out_of_tolerance = sorted(k for k, limit in TOLERANCES.items()
                              if k in acc and not acc[k] <= limit)
    problems = [f"{k} {acc[k]:.4g} above tolerance {TOLERANCES[k]:g}" for k in out_of_tolerance]
    if len(set(digests)) != 1:
        problems.append("set-ups of one seed generated different files")
    if any(a != acc for a in accuracy[1:]):
        problems.append("repetitions on the same input disagree")
    if any(r.exit_code != 0 for r in reps):
        problems.append("a repetition exited with an error")
    correct = not problems

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(root),
        "input_digest": digests[0],
        "setup": [vars(c) for c in setups],
        "repetitions": [vars(c) for c in reps],
        "accuracy": acc,
        "tolerances": TOLERANCES,
        "checks": {"attempted": attempted, "failed": failed,
                   "failed_frac": failed / attempted,
                   "misses": [m for c in rep_checks for m in c.misses]},
        "problems": problems,
    }
    e2e = {
        "setup_s": statistics.median(c.wall_s for c in setups),
        "wall_s": statistics.median(r.wall_s for r in reps),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in reps),
    }
    record["end_to_end"] = e2e
    record["samples"] = {"setup_s": len(setups), "wall_s": len(reps), "peak_rss_mb": len(reps)}

    if args.trace:
        from tracing import layer_metrics, layer_unit

        spans, synth_spans = (_spans(run_dir / name) for name in ("spans.json", "synth_spans.json"))
        metrics = layer_metrics(spans["spans"], synth_spans["spans"])
        metrics["trace.overhead_frac"] = traced.wall_s / e2e["wall_s"] - 1.0
        record["traced"] = vars(traced)
        record["per_layer"] = metrics
        record["unwrapped"] = spans["missing"]
        if traced.exit_code != 0:
            correct = False
            problems.append("the traced repetition exited with an error")
        result_metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()}
    else:
        result_metrics = {k: {"value": e2e[k], "unit": UNITS[k]} for k in END_TO_END}

    for path in run_dir.iterdir():  # keep the record, logs and spans; drop bulk data
        if path.is_dir():
            shutil.rmtree(path)
    (run_dir / "result.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"{args.workload} seed {args.seed}: input {digests[0][:16]}, "
          f"{len(setups)} set-ups, {len(reps)} repetitions, "
          f"{failed}/{attempted} checks failed")
    for name in END_TO_END:
        print(f"  {name:24s} {e2e[name]:12.4f} {UNITS[name]}  (median of {record['samples'][name]})")
    for name in ("rot_err_max_deg", "rot_err_axial_max_deg", "trans_err_max_mm",
                 "dim_err_max_mm", "volume_err_pct", "energy_err_mm"):
        shown = f"{acc[name]:12.4f}" if name in acc else f"{'n/a':>12s}"
        print(f"  {name:24s} {shown} {UNITS[name]}")
    print(f"  {'failed_frac':24s} {failed / attempted:12.4f} {UNITS['failed_frac']}"
          f"  ({failed} of {attempted})")
    if args.trace:
        for name, value in metrics.items():
            print(f"  {name:38s} {value:14.4f} {layer_unit(name)}")
    for problem in problems:
        print(f"  problem: {problem}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
