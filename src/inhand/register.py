"""Frame-to-frame registration: weighted sparse alignment plus dense ICP.

Each new frame is first aligned to the previous frame by solving a single
weighted least-squares problem over all available sparse correspondence
sets (2D feature matches, 3D feature matches, hand-contact pairs, and
optionally detector-box pairs).  The result is composed with the previous
frame's world pose and then refined by point-to-point ICP against the
metascan: an ``(M, 3)`` array of every previously registered cloud, which
each chain's :func:`run_sequence` owns and merges into.
Keypoints, descriptors and contact states belong to one frame and are
cached on it (:class:`SegmentedFrame`); a pair only matches them.
:func:`registrations` states which thread does which part of that work.
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import ClassVar, Iterator, Sequence

import numpy as np
from scipy.spatial import cKDTree

from .contact import contact_correspondences
from .errors import (
    DegenerateConfigurationError,
    DivergenceError,
    EmptyInputError,
    UnderConstrainedError,
)
from .features import CorrespondenceSet, load_feat2d, match_feat3d
from .geometry import (
    CameraIntrinsics,
    RigidTransform,
    back_project_many,
    solve_weighted_rigid,
    voxel_downsample_indices,
)
from .preprocess import SegmentedFrame

log = logging.getLogger(__name__)

# Sets that carry the contact weight gamma_t; every other tag enters the
# sparse energy with unit weight.
_GAMMA_TAGS = frozenset({"contact", "detector"})


@dataclass(frozen=True)
class RegistrationConfig:
    """The settings of one registration run, as the command line gives them.

    ``use_contact`` / ``use_detector`` / ``use_icp`` switch whole terms on
    or off for ablation runs; ``gamma_t`` scales whichever of the contact
    or detector sets are active.  The ICP limits are constants of the
    method, not settings.
    """

    gamma_t: float = 15.0
    use_contact: bool = True
    use_detector: bool = False
    use_icp: bool = True

    icp_max_dist: ClassVar[float] = 5.0
    icp_max_iters: ClassVar[int] = 50
    icp_convergence_eps: ClassVar[float] = 1e-3

    def __post_init__(self) -> None:
        if not (math.isfinite(self.gamma_t) and self.gamma_t >= 0.0):
            raise ValueError(f"gamma_t must be finite and nonnegative, got {self.gamma_t}")

    @property
    def contact_term_on(self) -> bool:
        """The contact term is on when ``use_contact`` is set and ``gamma_t > 0``."""
        return self.use_contact and self.gamma_t > 0.0

    def set_weight(self, tag: str) -> float:
        return self.gamma_t if tag in _GAMMA_TAGS else 1.0


METASCAN_VOXEL_MM = 2.0


def merge_metascan(metascan: np.ndarray, points: np.ndarray) -> np.ndarray:
    """``metascan`` with world-frame ``points`` merged in, as a new ``(M, 3)`` array.

    Each voxel :data:`METASCAN_VOXEL_MM` on a side keeps its earliest point.
    """
    merged = np.vstack([metascan, points])
    return merged[voxel_downsample_indices(merged, METASCAN_VOXEL_MM)]


@dataclass(frozen=True)
class FramePose:
    """Registration result for one frame plus residual diagnostics."""

    frame_index: int
    world_from_frame: RigidTransform
    sparse_residual: float
    icp_residual: float
    correspondence_counts: dict[str, int]


@dataclass(frozen=True)
class IcpResult:
    transform: RigidTransform
    rms_history: tuple[float, ...]
    pair_count: int


def sparse_energy(
    sets: list[CorrespondenceSet], transform: RigidTransform, gamma_t: float
) -> float:
    """Weighted sum of squared residuals over all correspondence sets."""
    total = 0.0
    for cs in sets:
        if len(cs) == 0:
            continue
        w = gamma_t if cs.tag in _GAMMA_TAGS else 1.0
        if w == 0.0:
            continue
        res = transform.apply(cs.source) - cs.target
        total += w * float(np.einsum("ij,ij->", res, res))
    return total


def align_sparse(
    sets: list[CorrespondenceSet], config: RegistrationConfig = RegistrationConfig()
) -> RigidTransform:
    """Exact minimizer of the weighted sparse alignment energy.

    Stacks every correspondence pair with its set weight (1 for visual
    sets, ``gamma_t`` for contact/detector sets) and solves one weighted
    rigid least-squares problem over the union.
    """
    sources, targets, weights = [], [], []
    for cs in sets:
        w = config.set_weight(cs.tag)
        if len(cs) == 0 or w == 0.0:
            continue
        sources.append(cs.source)
        targets.append(cs.target)
        weights.append(np.full(len(cs), w))
    effective = sum(len(s) for s in sources)
    if effective < 3:
        empty = sorted({cs.tag for cs in sets if len(cs) == 0}) or ["(all)"]
        raise UnderConstrainedError(
            f"{effective} effective pairs (need 3); empty sets: {', '.join(empty)}"
        )
    return solve_weighted_rigid(
        np.vstack(sources), np.vstack(targets), np.concatenate(weights)
    )


def refine_icp(
    pts: np.ndarray,
    metascan: np.ndarray,
    config: RegistrationConfig = RegistrationConfig(),
) -> IcpResult:
    """Point-to-point ICP of the ``(N, 3)`` float64 ``pts`` against the metascan.

    ``pts`` must already carry the sparse alignment (world frame).  One
    kd-tree over the ``metascan`` array serves every iteration, which pairs
    each source point with its nearest metascan point, keeps pairs within
    ``icp_max_dist``, solves for the rigid increment, and records the
    post-update RMS over those pairs.  Returns the accumulated transform.
    """
    if len(metascan) == 0:
        raise EmptyInputError("metascan is empty")
    # Each point is answered alone, so the query order changes no result;
    # in the source's own kd-tree leaf order, neighbouring queries walk the
    # same branches of the metascan's tree, which is faster.
    order = cKDTree(pts).indices
    index = cKDTree(metascan)
    dist = np.empty(len(pts))
    idx = np.empty(len(pts), dtype=np.intp)
    t = RigidTransform.identity()
    history: list[float] = []
    prev_rms = None
    pair_count = 0
    for iteration in range(config.icp_max_iters):
        moved = t.apply(pts)
        dist[order], idx[order] = index.query(moved[order], workers=-1)
        in_range = dist <= config.icp_max_dist
        pair_count = int(in_range.sum())
        if pair_count < 3:
            raise DivergenceError(
                f"{pair_count} ICP pairs within {config.icp_max_dist} mm "
                f"at iteration {iteration}"
            )
        targets = metascan[idx[in_range]]
        delta = solve_weighted_rigid(moved[in_range], targets)
        t = delta.compose(t)
        res = t.apply(pts[in_range]) - targets
        rms = math.sqrt(float(np.einsum("ij,ij->", res, res)) / pair_count)
        history.append(rms)
        if prev_rms is not None and abs(prev_rms - rms) < config.icp_convergence_eps:
            break
        prev_rms = rms
    return IcpResult(t, tuple(history), pair_count)


def detector_correspondences(
    source: SegmentedFrame,
    target: SegmentedFrame,
    intrinsics: CameraIntrinsics,
) -> CorrespondenceSet:
    """Pair back-projected pixels at identical offsets inside shared boxes.

    For every detector label present on both frames, the depth patches are
    walked in lockstep: offset (row, col) in the source box is paired with
    the same offset in the target box whenever both depths are valid.
    """
    src_boxes = {b.label: b for b in source.detector_boxes or ()}
    tgt_boxes = {b.label: b for b in target.detector_boxes or ()}
    src_pts, tgt_pts = [], []
    for label in sorted(set(src_boxes) & set(tgt_boxes)):
        bs, bt = src_boxes[label], tgt_boxes[label]
        if (bs.height, bs.width) != (bt.height, bt.width):
            raise ValueError(f"detector boxes for {label!r} differ in size")
        valid = (bs.depth > 0.0) & (bt.depth > 0.0)
        rows, cols = np.nonzero(valid)
        if len(rows) == 0:
            continue
        src_px = np.column_stack([bs.x + cols, bs.y + rows]).astype(np.float64)
        tgt_px = np.column_stack([bt.x + cols, bt.y + rows]).astype(np.float64)
        src_pts.append(back_project_many(src_px, bs.depth[rows, cols], intrinsics))
        tgt_pts.append(back_project_many(tgt_px, bt.depth[rows, cols], intrinsics))
    if not src_pts:
        return CorrespondenceSet(np.empty((0, 3)), np.empty((0, 3)), "detector")
    return CorrespondenceSet(np.vstack(src_pts), np.vstack(tgt_pts), "detector")


def build_correspondences(
    prev: SegmentedFrame,
    curr: SegmentedFrame,
    config: RegistrationConfig,
    intrinsics: CameraIntrinsics,
) -> list[CorrespondenceSet]:
    """All sparse sets aligning ``curr`` (source) to ``prev`` (target).

    Only pairs what each frame caches (``features``, ``contact``); the
    contact set is left out when either frame has no contact state.
    """
    sets = [match_feat3d(curr.features, prev.features)]
    if curr.feat2d_matches is not None and prev.frame_index == curr.frame_index - 1:
        pixel_pairs, src_d, tgt_d = curr.feat2d_matches
        sets.append(load_feat2d(pixel_pairs, src_d, tgt_d, intrinsics))
    if config.contact_term_on and curr.contact and prev.contact:
        sets.append(
            contact_correspondences(curr.hand_pose, prev.hand_pose, curr.contact, prev.contact)
        )
    if config.use_detector:
        sets.append(detector_correspondences(curr, prev, intrinsics))
    return sets


def _pair_rms(sets: list[CorrespondenceSet], transform: RigidTransform) -> float:
    """Unweighted RMS residual over the union of all pairs."""
    total, count = 0.0, 0
    for cs in sets:
        if len(cs) == 0:
            continue
        res = transform.apply(cs.source) - cs.target
        total += float(np.einsum("ij,ij->", res, res))
        count += len(cs)
    return math.sqrt(total / count) if count else float("nan")


def register_pair(
    prev: SegmentedFrame,
    curr: SegmentedFrame,
    metascan: np.ndarray,
    world_from_prev: RigidTransform,
    config: RegistrationConfig,
    intrinsics: CameraIntrinsics,
) -> FramePose:
    """Register ``curr`` against ``prev`` and refine against the ``metascan`` array.

    Returns the pose and changes no argument; the caller merges the cloud.
    An under-constrained sparse stage and ICP divergence both propagate,
    so the caller can skip the frame.
    """
    sets = build_correspondences(prev, curr, config, intrinsics)
    counts = {cs.tag: len(cs) for cs in sets}
    t_pair = align_sparse(sets, config)
    sparse_rms = _pair_rms(sets, t_pair)
    world = world_from_prev.compose(t_pair)
    icp_rms = float("nan")
    if config.use_icp:
        result = refine_icp(world.apply(curr.object_cloud.points), metascan, config)
        world = result.transform.compose(world)
        icp_rms = result.rms_history[-1]
        counts["icp"] = result.pair_count
    return FramePose(curr.frame_index, world, sparse_rms, icp_rms, counts)


@dataclass(frozen=True)
class SequenceResult:
    """One config's registration; ``metascan`` is :func:`run_sequence`'s array."""

    poses: tuple[FramePose, ...]
    metascan: np.ndarray
    skipped: tuple[int, ...]


@contextmanager
def registrations(
    frames: Sequence[SegmentedFrame],
    configs: Sequence[RegistrationConfig],
    intrinsics: CameraIntrinsics,
) -> Iterator[tuple[Future, ...]]:
    """Register ``frames`` once per config; yield each config's ``Future``.

    A future resolves to that config's :class:`SequenceResult`, or raises
    the first error of its :func:`run_sequence` pair loop.  Leaving the
    block cancels the registrations not yet started and waits for the
    running one.

    Threads: the calling thread describes every frame in order (each
    frame's ``features``), and one worker thread registers every pair of
    every config, config after config, and detects contact (each frame's
    ``contact``), so no cached property of a frame is computed on two
    threads.  A pair waits until its frame is described.  Each config's
    :func:`run_sequence` owns its chain's poses, skips and metascan array.
    An error of a pair comes out before one of a later frame's description.
    """
    if not frames:
        raise EmptyInputError("no frames to register")
    described = [Future() for _ in frames]
    worker = ThreadPoolExecutor(max_workers=1)
    try:
        # The loop keeps run_sequence's name: the benchmark's tracer counts a
        # registration's frames, skips and metascan on run_sequence spans.
        chains = tuple(
            worker.submit(run_sequence, frames, config, intrinsics, described=described)
            for config in configs
        )
        for i, frame in enumerate(frames):
            try:
                frame.features
            except BaseException as exc:
                for done in described[i:]:  # every chain stops at this frame
                    done.set_exception(exc)
                if not isinstance(exc, Exception):
                    raise
                break
            described[i].set_result(None)
        yield chains
    finally:
        worker.shutdown(cancel_futures=True)


def run_sequence(
    frames: Sequence[SegmentedFrame],
    config: RegistrationConfig,
    intrinsics: CameraIntrinsics,
    *,
    described: Sequence[Future],
) -> SequenceResult:
    """The pair loop of one config that :func:`registrations` runs on its worker.

    ``described`` holds one future per frame, resolved once it is described.
    Frame 0 anchors the world frame.  The loop owns the chain: the poses, the
    skips and the metascan array, into which it merges each registered
    frame's world-frame cloud.  An under-constrained or diverging frame is
    skipped, and the next is aligned against the last registered one.
    """
    prev, world_prev = frames[0], RigidTransform.identity()
    metascan = merge_metascan(np.empty((0, 3)), prev.object_cloud.points)
    poses = [FramePose(prev.frame_index, world_prev, float("nan"), float("nan"), {})]
    skipped: list[int] = []
    for curr, done in zip(frames[1:], described[1:]):
        done.result()  # raises the error of this frame's description
        try:
            pose = register_pair(prev, curr, metascan, world_prev, config, intrinsics)
        except (DivergenceError, DegenerateConfigurationError, UnderConstrainedError) as exc:
            log.warning("frame %d skipped: %s", curr.frame_index, exc)
            skipped.append(curr.frame_index)
            continue
        poses.append(pose)
        prev, world_prev = curr, pose.world_from_frame
        metascan = merge_metascan(metascan, world_prev.apply(curr.object_cloud.points))
    return SequenceResult(tuple(poses), metascan, tuple(skipped))
