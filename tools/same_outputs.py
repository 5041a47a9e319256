"""Check that two source trees write the same bytes on the benchmark workloads.

    python3 tools/same_outputs.py PARENT CHANGE [--seeds 1,2,3,4]

PARENT and CHANGE are checkout roots.  For every workload of
``perfbench/run.py`` and every seed, each tree generates the sequence with
``inhand synth`` and the harness's flags (``--seed N --texture-seed N``),
then runs the workload's command on it, as the harness does: from the
tree's root, with its ``src`` first on the path and the harness's
environment.  Both trees run in the same scratch paths, so the paths that
the commands print or write agree.  The sequence directories, the output
directories, the exit codes and each command's standard output and error
must be the same byte for byte, once each tree's root is replaced by
``<tree>`` in the messages.  Each difference is printed; the exit status
is 1 if there is any, else 0.  A ``.json``, ``.jsonl`` or ``.csv`` file
whose text is the same once every number is masked is sized: the largest
absolute and relative differences of its numbers follow its line.
"""

from __future__ import annotations

import argparse
import importlib.util
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def load_harness():
    """``perfbench/run.py`` as a module, for its workloads and environment."""
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def workload_steps(harness, name: str, seed: int, seq: Path, out: Path) -> list[list[str]]:
    """The ``inhand`` arguments of one workload at one seed: synth, then the command."""
    workload = harness.WORKLOADS[name]
    synth = ["synth", *harness.COMMON_SYNTH, *workload["synth"],
             "--seed", str(seed), "--texture-seed", str(seed), "--out", str(seq)]
    return [synth, [a.format(seq=seq, out=out) for a in workload["command"]]]


def run_tree(harness, root: Path, steps: list[list[str]], work: Path, keep: Path) -> None:
    """Run ``steps`` from ``root`` in ``work``, then move ``work`` to ``keep``.

    Each step's exit code, standard output and standard error go to
    ``keep/<command>.log``, with ``root`` written as ``<tree>``.
    """
    work.mkdir()
    env = harness.child_env(root)
    tree = str(root).encode()
    logs = {}
    for argv in steps:
        proc = subprocess.run([sys.executable, "-m", "inhand.cli", *argv],
                              cwd=root, env=env, capture_output=True)
        logs[f"{argv[0]}.log"] = b"exit %d\n--- stdout\n%s--- stderr\n%s" % (
            proc.returncode,
            proc.stdout.replace(tree, b"<tree>"),
            proc.stderr.replace(tree, b"<tree>"),
        )
    shutil.move(work, keep)
    for name, log in logs.items():
        (keep / name).write_bytes(log)


def number_gap(a: bytes, b: bytes) -> tuple[float, float] | None:
    """The largest absolute and relative difference between the numbers of
    two texts, or None unless the texts are the same once every number is
    masked.  A pair's relative difference is ``|x - y| / max(|x|, |y|)``."""
    number = re.compile(rb"-?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
    if number.sub(b"#", a) != number.sub(b"#", b):
        return None
    absolute = relative = 0.0
    for x, y in zip(map(float, number.findall(a)), map(float, number.findall(b))):
        gap = abs(x - y)
        absolute = max(absolute, gap)
        if gap:
            relative = max(relative, gap / max(abs(x), abs(y)))
    return absolute, relative


def differences(a: Path, b: Path) -> list[str]:
    """Relative paths of files that differ, or exist on one side only.

    A differing ``.json``, ``.jsonl`` or ``.csv`` file whose text differs
    only in its numbers is followed by a line with their largest absolute
    and relative difference.
    """
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    found = [f"only in {side}: {p}" for side, only in (("parent", files_a - files_b),
                                                        ("change", files_b - files_a))
             for p in sorted(only)]
    for p in sorted(files_a & files_b):
        bytes_a, bytes_b = (a / p).read_bytes(), (b / p).read_bytes()
        if bytes_a == bytes_b:
            continue
        found.append(f"differs: {p}")
        if p.suffix not in {".json", ".jsonl", ".csv"}:
            continue
        gap = number_gap(bytes_a, bytes_b)
        if gap is not None:
            found.append(f"  numbers only: largest absolute difference {gap[0]:.3g}, "
                         f"relative {gap[1]:.3g}")
    return found


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
    failed = False
    with tempfile.TemporaryDirectory(prefix="same_outputs-") as tmp:
        tmp = Path(tmp)
        work = tmp / "run"
        for name in sorted(harness.WORKLOADS):
            for seed in args.seeds:
                steps = workload_steps(harness, name, seed, work / "seq", work / "out")
                for side, root in roots.items():
                    run_tree(harness, root, steps, work, tmp / side)
                found = differences(tmp / "parent", tmp / "change")
                print(f"{name} seed {seed}: {'same' if not found else 'DIFFERENT'}")
                for line in found:
                    print(f"  {line}")
                failed |= bool(found)
                for side in roots:
                    shutil.rmtree(tmp / side)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
