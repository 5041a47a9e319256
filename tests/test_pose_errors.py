"""``tools/pose_errors.py``: the sequences it scores, and its report on two trees."""

import importlib.util
import json
import math
from pathlib import Path

from inhand import cli

TOOL = Path(__file__).resolve().parents[1] / "tools" / "pose_errors.py"
ROOT = TOOL.parents[1]
TINY = ["--shape", "sphere", "--diameter", "30", "--density", "0.25", "--frames", "3",
        "--volume-side", "120", "--tsdf-resolution", "32", "--smooth-iterations", "1",
        "--seed", "7"]


def load_tool():
    spec = importlib.util.spec_from_file_location("pose_errors", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scores_the_workloads_and_the_textured_sphere_at_two_hand_noises():
    tool = load_tool()
    harness = tool.load_harness()
    found = tool.sequences(harness, [2, 5])
    assert [label for label, _ in found] == [
        f"{shape} seed {seed} hand-noise {noise}"
        for shape in ("pin", "bottle") for seed in (2, 5) for noise in ("0", "1.0")
    ] + ["textured sphere seed 3 hand-noise 0", "textured sphere seed 3 hand-noise 1.0"]
    for label, flags in found:
        args = cli.build_parser().parse_args(["synth", *flags, "--out", "seq"])
        assert args.hand_noise == float(label.split()[-1])
        if label.startswith("pin seed 5"):
            assert flags[:-6] == [*harness.COMMON_SYNTH,
                                  *harness.WORKLOADS["pin-reconstruct"]["synth"]]
            assert (args.seed, args.texture_seed) == (5, 5)
        if label.startswith("textured sphere"):
            assert (args.shape, args.diameter, args.frames) == ("sphere", 70.0, 8)
            assert (args.texture_count, args.seed) == (40, 3)


def test_a_tree_against_itself_reads_the_same_errors(monkeypatch, capsys):
    tool = load_tool()
    monkeypatch.setattr(tool, "sequences", lambda harness, seeds: [("tiny", TINY)])
    assert tool.main([str(ROOT), str(ROOT), "--seeds", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("tiny: parent axial_deg ")
    assert lines[0].endswith("; axial_deg +0.0000")
    runs = json.loads(lines[-1])["runs"]["tiny"]
    assert runs["parent"] == runs["change"]
    assert runs["parent"]["failed"] is None
    assert all(math.isfinite(runs["parent"][key])
               for key in ("axial_deg", "rot_deg", "trans_mm", "dim_err_max_mm"))
    assert " dim_mm " in lines[0] and " volume_pct " in lines[0]


def test_reads_the_mesh_errors_of_the_report():
    tool = load_tool()
    truth = {"probes": [{"name": "height", "kind": "extent"},
                        {"name": "diameter", "kind": "slice_diameter"},
                        {"name": "volume", "kind": "volume"}]}
    report = {"dimensions": {
        "height": {"measured": 30.25, "expected": 30.0, "abs_error": 0.25},
        "diameter": {"measured": 29.5, "expected": 30.0, "abs_error": 0.5},
        "volume": {"measured": 990.0, "expected": 1000.0, "abs_error": 10.0},
    }}
    closed = tool.mesh_errors(report, truth)
    assert closed == {"dim_err_max_mm": 0.5, "volume_err_pct": -1.0}
    poses = {"axial_deg": 0.01, "rot_deg": 0.02, "trans_mm": 0.003, "failed": None}
    assert tool.describe({**poses, **closed}).endswith(" dim_mm 0.50 volume_pct -1.000")
    report["dimensions"]["volume"].update(measured=None, abs_error=None)
    report["dimensions"]["height"].update(measured=None, abs_error=None)
    opened = tool.mesh_errors(report, truth)
    assert opened == {"dim_err_max_mm": 0.5, "volume_err_pct": None}
    assert tool.describe({**poses, **opened}).endswith(" dim_mm 0.50 volume_pct open")


def test_a_failing_run_fails_the_tool(monkeypatch, capsys, tmp_path):
    broken = tmp_path / "broken"
    (broken / "src" / "inhand").mkdir(parents=True)
    (broken / "src" / "inhand" / "__init__.py").write_text("")
    (broken / "src" / "inhand" / "cli.py").write_text("raise SystemExit(3)\n")
    tool = load_tool()
    monkeypatch.setattr(tool, "sequences", lambda harness, seeds: [("tiny", TINY)])
    assert tool.main([str(ROOT), str(broken), "--seeds", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("| change FAILED: synth exit code 3")
    assert json.loads(lines[-1])["all_ran"] is False
