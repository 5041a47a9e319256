"""The benchmark's tracer wraps inhand functions by name; every name must exist.

``perfbench/tracing.py`` reports a target it cannot find as unwrapped and
its spans silently go missing from the per-layer metrics, so a rename or
deletion in ``inhand`` has to show up here first.  A traced run checks
that the tracer's counters read what the library returned.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import inhand
from inhand import cli
from inhand.fileio import load_frames, load_manifest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = load_tracing().TARGETS


@pytest.mark.parametrize("layer", sorted(TARGETS))
def test_every_target_resolves(layer):
    module = importlib.import_module(f"inhand.{layer}")
    missing = [name for name in TARGETS[layer] if not callable(getattr(module, name, None))]
    assert missing == []


# The counter each ``AFTER`` hook records on its span.
COUNTERS = {
    "features.detect_iss_keypoints": "keypoints",
    "features.match_feat3d": "matches",
    "contact.contact_correspondences": "pairs",
    "register.refine_icp": "iterations",
    "register.run_sequence": "frames",
    "fusion.integrate": "observed_after",
    "fusion.laplacian_smooth": "triangles",
}


def traced_run(tmp_path, command, *args):
    """Spans of ``command`` traced on a small synthetic sphere in ``tmp_path/seq``."""
    seq = tmp_path / "seq"
    code = cli.main([
        "synth", "--shape", "sphere", "--diameter", "30", "--density", "0.25",
        "--frames", "3", "--noise", "0.5", "--volume-side", "120",
        "--tsdf-resolution", "32", "--smooth-iterations", "1", "--seed", "7",
        "--out", str(seq),
    ])
    assert code == 0
    spans_path = tmp_path / "spans.json"
    src = Path(inhand.__file__).resolve().parents[1]
    paths = [str(src), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    child = subprocess.run(
        [sys.executable, str(TRACING), str(spans_path),
         command, str(seq / "manifest.json"), *args, "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    trace = json.loads(spans_path.read_text())
    assert trace["exit_code"] == 0 and trace["missing"] == []
    return seq, trace


def test_traced_reconstruct_records_the_library_results(tmp_path):
    seq, trace = traced_run(tmp_path, "reconstruct")

    assert set(COUNTERS) == set(load_tracing().AFTER)
    spans = trace["spans"]
    for name, counter in COUNTERS.items():
        named = [s for s in spans if s["name"] == name and "raised" not in s]
        assert named, name
        assert all(counter in s for s in named), name

    frames = load_frames(load_manifest(seq / "manifest.json"))
    detected = [s["keypoints"] for s in spans if s["name"] == "features.detect_iss_keypoints"]
    assert sorted(detected) == sorted(len(f.features[0]) for f in frames)


def test_traced_sweep_records_one_registration_per_gamma(tmp_path):
    _, trace = traced_run(tmp_path, "eval", "--sweep-gammas", "0,15")
    runs = [s for s in trace["spans"] if s["name"] == "register.run_sequence"]
    assert len(runs) == 2
    assert all(s["frames"] == 3 and s["metascan_points"] > 0 for s in runs)
