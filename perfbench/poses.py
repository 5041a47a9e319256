"""Per-frame pose error of a reconstruction against generator ground truth.

``trajectory.jsonl`` holds one ``world_from_frame`` pose per registered
frame; ``ground_truth.json`` holds ``motions[k]``, which maps canonical
object coordinates to frame-k coordinates.  The true pose of frame k is
``motions[0] ∘ motions[k]⁻¹``, the absolute trajectory error of the TUM
RGB-D benchmark (Sturm et al., IROS 2012).

Every synthetic object is a surface of revolution about the canonical z
axis through ``center``, so the world-frame axis of revolution is
``motions[0].R @ e_z``.  Rotation about that axis is the error dense
alignment cannot see; it is reported separately as the twist part of the
rotation error.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class FrameError:
    frame: int
    rot_deg: float  # geodesic angle of the rotation error
    axial_deg: float  # twist part of that error about the axis of revolution
    trans_mm: float  # displacement of the object centre


def load_trajectory(path) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Frame index -> (rotation 3x3, translation 3) from a JSON Lines file."""
    poses = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            poses[int(rec["frame"])] = (
                np.asarray(rec["rotation"], dtype=np.float64).reshape(3, 3),
                np.asarray(rec["translation"], dtype=np.float64),
            )
    return poses


def load_truth(path) -> dict:
    return json.loads(Path(path).read_text())


def _motions(truth: dict) -> list[tuple[np.ndarray, np.ndarray]]:
    return [
        (
            np.asarray(m["rotation"], dtype=np.float64).reshape(3, 3),
            np.asarray(m["translation"], dtype=np.float64),
        )
        for m in truth["motions"]
    ]


def true_poses(truth: dict) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Frame index -> true ``world_from_frame`` = motions[0] ∘ motions[k]⁻¹."""
    motions = _motions(truth)
    r0, t0 = motions[0]
    out = {}
    for k, (rk, tk) in enumerate(motions):
        rot = r0 @ rk.T
        out[k] = (rot, t0 - rot @ tk)
    return out


def rotation_angle_deg(rot: np.ndarray) -> float:
    cos = (float(np.trace(rot)) - 1.0) / 2.0
    return math.degrees(math.acos(min(1.0, max(-1.0, cos))))


def twist_angle_deg(rot: np.ndarray, axis: np.ndarray) -> float:
    """Magnitude of the twist of ``rot`` about the unit ``axis`` (swing-twist).

    The twist is the rotation about ``axis`` left after removing the part
    that tilts ``axis``; its angle is ``2 atan2(v·a, w)`` for the unit
    quaternion ``(w, v)`` of ``rot``.
    """
    w = math.sqrt(max(0.0, 1.0 + float(np.trace(rot)))) / 2.0
    # Vector part from the skew-symmetric part; its sign follows w >= 0.
    v = np.array([rot[2, 1] - rot[1, 2], rot[0, 2] - rot[2, 0], rot[1, 0] - rot[0, 1]])
    if w > 1e-6:
        v = v / (4.0 * w)
    else:  # half-turn: v is the eigenvector of rot for eigenvalue 1
        vals, vecs = np.linalg.eigh(0.5 * (rot + rot.T))
        v = vecs[:, int(np.argmax(vals))]
    along = float(v @ (axis / np.linalg.norm(axis)))
    return math.degrees(2.0 * math.atan2(abs(along), w))


def frame_errors(trajectory: dict, truth: dict) -> list[FrameError]:
    """Error of every frame present in ``trajectory``, in frame order."""
    motions = _motions(truth)
    expected = true_poses(truth)
    axis = motions[0][0] @ np.array([0.0, 0.0, 1.0])
    centre = np.asarray(truth["center"], dtype=np.float64)
    out = []
    for k in sorted(trajectory):
        rot_est, t_est = trajectory[k]
        rot_true, t_true = expected[k]
        # World-frame error rotation: true world point -> estimated one.
        err = rot_est @ rot_true.T
        rk, tk = motions[k]
        seen = rk @ centre + tk  # object centre in frame-k coordinates
        shift = (rot_est @ seen + t_est) - (rot_true @ seen + t_true)
        out.append(
            FrameError(
                k,
                rotation_angle_deg(err),
                twist_angle_deg(err, axis),
                float(np.linalg.norm(shift)),
            )
        )
    return out

