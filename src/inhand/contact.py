"""Hand-contact inference and contact correspondences.

A posed hand is a fixed-topology vertex set with per-vertex bone labels
and a designated set of end-effector bones (fingertips). Contact bones
are found by growing a distance threshold: starting at 1 mm, a bone is in
contact when more than 40 of its vertices have a nearest object point
closer than the threshold; if fewer than two bones qualify the threshold
grows by 0.5 mm, up to a cap.

Because hand topology is fixed, two frames in contact through the same
bones yield per-vertex correspondences by shared vertex index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoContactError
from .features import CorrespondenceSet
from .geometry import PointCloud, SpatialIndex, _freeze

# Contact search schedule of :func:`detect_contacts`; distances in mm.
START_THRESHOLD = 1.0
THRESHOLD_STEP = 0.5
MIN_CANDIDATE_VERTICES = 40
MIN_BONES = 2
THRESHOLD_CAP = 10.0


@dataclass(frozen=True)
class PosedHand:
    """Hand vertices in camera space with per-vertex bone labels."""

    vertices: np.ndarray
    bone_labels: tuple[str, ...]
    end_effectors: frozenset[str]

    def __post_init__(self) -> None:
        v = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        if not np.all(np.isfinite(v)):
            raise ValueError("hand vertices must be finite")
        labels = tuple(str(b) for b in self.bone_labels)
        if len(labels) != len(v):
            raise ValueError("one bone label per vertex required")
        effectors = frozenset(str(b) for b in self.end_effectors)
        if not effectors:
            raise ValueError("at least one end-effector bone required")
        object.__setattr__(self, "vertices", _freeze(v))
        object.__setattr__(self, "bone_labels", labels)
        object.__setattr__(self, "end_effectors", effectors)

    def bone_vertex_indices(self, bone: str) -> np.ndarray:
        lab = np.asarray(self.bone_labels, dtype=object)
        return np.nonzero(lab == bone)[0]


@dataclass(frozen=True)
class ContactState:
    """Result of contact inference for one frame."""

    contact_bones: frozenset[str]
    contact_vertices: np.ndarray  # indices into the hand's vertex array
    threshold_used: float

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "contact_vertices",
            _freeze(np.asarray(self.contact_vertices, dtype=np.int64).reshape(-1)),
        )


def detect_contacts(hand: PosedHand, object_cloud: PointCloud) -> ContactState:
    """Infer which end-effector bones touch the object in this frame.

    Candidate vertices of a bone are those with nearest-object distance
    strictly below the current threshold; a bone qualifies with more than
    ``MIN_CANDIDATE_VERTICES`` candidates. The threshold sequence is
    ``START_THRESHOLD, START_THRESHOLD + THRESHOLD_STEP, ...`` and stops as
    soon as ``MIN_BONES`` bones qualify; exceeding ``THRESHOLD_CAP`` raises
    :class:`NoContactError`.
    """
    index = SpatialIndex(object_cloud)
    effector_bones = sorted(hand.end_effectors)
    bone_indices = {b: hand.bone_vertex_indices(b) for b in effector_bones}
    bone_dists = {}
    for b, vi in bone_indices.items():
        if len(vi) == 0:
            bone_dists[b] = np.empty(0)
        else:
            _, d = index.nearest_many(hand.vertices[vi])
            bone_dists[b] = d
    threshold = START_THRESHOLD
    while threshold <= THRESHOLD_CAP + 1e-12:
        bones = [
            b for b in effector_bones
            if int((bone_dists[b] < threshold).sum()) > MIN_CANDIDATE_VERTICES
        ]
        if len(bones) >= MIN_BONES:
            vertices = np.concatenate([bone_indices[b] for b in bones])
            vertices.sort()
            return ContactState(frozenset(bones), vertices, threshold)
        threshold += THRESHOLD_STEP
    raise NoContactError(
        f"no {MIN_BONES} bones with >{MIN_CANDIDATE_VERTICES} candidate vertices "
        f"within the {THRESHOLD_CAP} mm cap"
    )


def contact_correspondences(
    source_hand: PosedHand,
    target_hand: PosedHand,
    source_state: ContactState,
    target_state: ContactState,
) -> CorrespondenceSet:
    """Per-vertex pairs over bones in contact in *both* frames.

    Vertices pair by shared mesh index (fixed topology). Bones in contact
    in only one of the two frames contribute nothing; an empty bone
    intersection yields an empty set.
    """
    if len(source_hand.vertices) != len(target_hand.vertices):
        raise ValueError("hands must share topology (same vertex count)")
    shared = sorted(source_state.contact_bones & target_state.contact_bones)
    if not shared:
        return CorrespondenceSet(np.empty((0, 3)), np.empty((0, 3)), "contact")
    idx = np.concatenate([source_hand.bone_vertex_indices(b) for b in shared])
    idx.sort()
    return CorrespondenceSet(
        source_hand.vertices[idx], target_hand.vertices[idx], "contact"
    )
