"""Tests of the benchmark's pose-error helper, span self times and metric list.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
from poses import frame_errors, twist_angle_deg  # noqa: E402
from tracing import layer_metrics, self_times  # noqa: E402

CENTER = [0.0, 0.0, 550.0]


def rot(axis, deg):
    """Rotation matrix about a unit axis (Rodrigues)."""
    a = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    k = np.array([[0, -a[2], a[1]], [a[2], 0, -a[0]], [-a[1], a[0], 0]])
    t = math.radians(deg)
    return np.eye(3) + math.sin(t) * k + (1 - math.cos(t)) * (k @ k)


def tumble_truth(frames=4, step_deg=6.0, first=np.eye(3)):
    """Ground truth shaped like ``ground_truth.json``: rotation about x
    through the centre, composed onto a first pose ``first``."""
    c = np.asarray(CENTER)
    motions = []
    for k in range(frames):
        r = rot([1, 0, 0], step_deg * k) @ first
        motions.append({"rotation": r.ravel().tolist(), "translation": (c - r @ c).tolist()})
    return {"center": CENTER, "motions": motions}


def true_trajectory(truth):
    """Exact ``world_from_frame`` = motions[0] ∘ motions[k]⁻¹ per frame."""
    out = {}
    m = [(np.reshape(x["rotation"], (3, 3)), np.asarray(x["translation"])) for x in truth["motions"]]
    r0, t0 = m[0]
    for k, (rk, tk) in enumerate(m):
        r = r0 @ rk.T
        out[k] = (r, t0 - r @ tk)
    return out


def perturbed(trajectory, k, error_rot):
    """Trajectory whose frame k is off by ``error_rot`` about the object centre."""
    out = dict(trajectory)
    r, t = out[k]
    c = np.asarray(CENTER)
    out[k] = (error_rot @ r, error_rot @ (t - c) + c)
    return out


def test_truth_against_itself_is_zero():
    truth = tumble_truth()
    errors = frame_errors(true_trajectory(truth), truth)
    assert [e.frame for e in errors] == [0, 1, 2, 3]
    for e in errors:
        assert e.rot_deg == pytest.approx(0.0, abs=1e-5)
        assert e.axial_deg == pytest.approx(0.0, abs=1e-5)
        assert e.trans_mm == pytest.approx(0.0, abs=1e-9)


def test_rotation_about_z_is_all_axial():
    truth = tumble_truth()
    errors = frame_errors(perturbed(true_trajectory(truth), 2, rot([0, 0, 1], 7.0)), truth)
    assert errors[2].rot_deg == pytest.approx(7.0)
    assert errors[2].axial_deg == pytest.approx(errors[2].rot_deg)
    assert errors[2].trans_mm == pytest.approx(0.0, abs=1e-9)  # turned about the centre
    assert errors[1].rot_deg == pytest.approx(0.0, abs=1e-5)


def test_rotation_about_x_has_no_axial_part():
    truth = tumble_truth()
    errors = frame_errors(perturbed(true_trajectory(truth), 3, rot([1, 0, 0], 9.0)), truth)
    assert errors[3].rot_deg == pytest.approx(9.0)
    assert errors[3].axial_deg == pytest.approx(0.0, abs=1e-6)


def test_axis_follows_the_first_pose():
    # With motions[0] tilted, the axis of revolution is motions[0].R @ e_z.
    first = rot([0, 1, 0], 90.0)  # carries e_z onto e_x
    truth = tumble_truth(first=first)
    errors = frame_errors(perturbed(true_trajectory(truth), 1, rot([1, 0, 0], 5.0)), truth)
    assert errors[1].axial_deg == pytest.approx(5.0)


def test_centre_displacement():
    truth = tumble_truth()
    traj = true_trajectory(truth)
    r, t = traj[1]
    traj[1] = (r, t + np.array([3.0, 4.0, 0.0]))
    assert frame_errors(traj, truth)[1].trans_mm == pytest.approx(5.0)


@pytest.mark.parametrize("deg", [0.0, 30.0, 179.0, 180.0])
def test_twist_of_pure_axial_rotation(deg):
    assert twist_angle_deg(rot([0, 0, 1], deg), np.array([0.0, 0.0, 1.0])) == pytest.approx(deg)


def test_twist_of_composed_rotation():
    # Swing about x after a 20 deg twist about z keeps the 20 deg twist.
    r = rot([1, 0, 0], 15.0) @ rot([0, 0, 1], 20.0)
    assert twist_angle_deg(r, np.array([0.0, 0.0, 1.0])) == pytest.approx(20.0)


def test_self_time_subtracts_children():
    spans = [
        {"id": 0, "name": "register.run_sequence", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "features.match_feat3d", "parent": 0, "start": 1.0, "end": 7.0},
        {"id": 2, "name": "features.detect_iss_keypoints", "parent": 1, "start": 1.0, "end": 5.0},
    ]
    times = self_times(spans)
    assert times["register"] == pytest.approx(4.0)
    assert times["features"] == pytest.approx(6.0)
    assert times["fusion"] == 0.0


def test_benchmark_file_lists_what_the_runs_report():
    bench = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    reported = set(layer_metrics([], [])) | {"trace.overhead_frac"}
    assert {m["name"] for m in bench["per_layer"]} == reported
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)
