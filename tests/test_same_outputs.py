"""``tools/same_outputs.py`` resolves the benchmark's workloads into ``inhand`` commands."""

import importlib.util
from pathlib import Path

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
