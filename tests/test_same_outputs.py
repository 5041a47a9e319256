"""``tools/same_outputs.py``: the benchmark's workloads as ``inhand`` commands, and the differences it reports."""

import importlib.util
from pathlib import Path

import pytest

from inhand import cli

TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_outputs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_resolves_both_workloads(tmp_path):
    tool = load_tool()
    harness = tool.load_harness()
    assert sorted(harness.WORKLOADS) == ["bottle-sweep", "pin-reconstruct"]
    seq, out = tmp_path / "seq", tmp_path / "out"
    for name in harness.WORKLOADS:
        synth, command = tool.workload_steps(harness, name, 3, seq, out)
        for argv in (synth, command):
            assert not any("{" in arg for arg in argv)
            cli.build_parser().parse_args(argv)
        assert synth[0] == "synth"
        assert synth[-6:] == ["--seed", "3", "--texture-seed", "3", "--out", str(seq)]
        assert str(seq / "manifest.json") in command and str(out) in command


def write_tree(root, files):
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)


def test_differences_size_a_numbers_only_difference(tmp_path):
    tool = load_tool()
    parent, change = tmp_path / "parent", tmp_path / "change"
    same = {"mesh.ply": "ply\n", "out/log.txt": "exit 0\n"}
    write_tree(parent, {**same, "out/report.json": '{"err": 2.0, "n": -4e-3}\n',
                        "sweep.csv": "gamma,err\n5,0.25\n", "energies.csv": "a,1\n",
                        "mesh2.ply": "1.0\n", "gone.json": "{}"})
    write_tree(change, {**same, "out/report.json": '{"err": 2.5, "n": -5e-3}\n',
                        "sweep.csv": "gamma,err\n5,0.25\n", "energies.csv": "b,1\n",
                        "mesh2.ply": "1.5\n", "new.jsonl": "{}"})
    assert tool.differences(parent, change) == [
        "only in parent: gone.json",
        "only in change: new.jsonl",
        "differs: energies.csv",
        "differs: mesh2.ply",
        "differs: out/report.json",
        "  numbers only: largest absolute difference 0.5, relative 0.2",
    ]
    assert tool.differences(parent, parent) == []


def test_number_gap_reads_every_number_form():
    tool = load_tool()
    assert tool.number_gap(b"x=1e-3 y=-2 z=.5", b"x=1e-3 y=-2 z=.5") == (0.0, 0.0)
    absolute, relative = tool.number_gap(b"[1.0e+2, -8]", b"[100.00001, -8.]")
    assert absolute == pytest.approx(1e-5) and relative == pytest.approx(1e-7)
    assert tool.number_gap(b"[0]", b"[3e-12]") == (3e-12, 1.0)
    assert tool.number_gap(b"[1, 2]", b"[1, 2, 3]") is None
