"""Frame-to-frame registration: a robust sparse solve plus point-to-plane ICP.

Each new frame is first aligned to the previous frame by one robust
weighted least-squares problem over all available sparse correspondence
sets (2D feature matches, 3D feature matches, hand-contact pairs, and
optionally detector-box pairs).  The result is composed with the previous
frame's world pose and then refined by point-to-plane ICP, with the
contact pairs as point-to-point rows, against the metascan: an
``(M, 3)`` array of every previously registered cloud, which each chain's
:func:`run_sequence` owns and merges into.
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
    PointCloud,
    RigidTransform,
    back_project_many,
    nearest_within,
    rotation_about_axis,
    solve_weighted_rigid,
    voxel_downsample_indices,
)
from .preprocess import SegmentedFrame

log = logging.getLogger(__name__)

# Sets that carry the contact weight gamma_t; every other tag is a visual
# set, with unit weight and the robust kernel.
_GAMMA_TAGS = frozenset({"contact", "detector"})

# Geman-McClure scale of the visual sets, in mm^2: a pair keeps the weight
# (mu / (mu + r^2))^2, a quarter of it at r = 5 mm.
ROBUST_MU_MM2 = 25.0
# Reweighted solves after the least-squares start of the sparse stage.
ROBUST_ROUNDS = 10
# ICP takes no step along a direction of its scaled 6x6 matrix whose
# eigenvalue lies below lambda_max / WEAK_DIRECTION_RATIO
# (_strong_direction_solve).
WEAK_DIRECTION_RATIO = 30.0


@dataclass(frozen=True)
class RegistrationConfig:
    """The settings of one registration run, as the command line gives them.

    ``gamma_t`` weighs the contact pairs in both stages; at 0 the contact
    term is off.  ``use_detector`` adds the detector pairs, which
    ``gamma_t`` weighs too, so it needs ``gamma_t > 0``; ``use_icp``
    switches ICP on or off.  In the sparse stage each contact (or detector)
    pair has weight ``gamma_t`` and each visual pair weight 1.  In ICP each
    term enters with its weight over its pair count, so ``gamma_t`` is the
    contact term's weight relative to the dense term's 1.  The method's
    constants are not settings:

    * the ICP limits below;
    * the sparse stage's ``ROBUST_ROUNDS`` (10) reweighted solves with the
      Geman-McClure kernel of scale ``ROBUST_MU_MM2`` (mu = 25 mm^2) on the
      visual pairs;
    * ICP's ``WEAK_DIRECTION_RATIO`` (c = 30): no step along a direction
      whose eigenvalue lies below lambda_max / c, with the shift measured
      from the shift that best follows each turn.  Per frame, on the
      benchmark's pin and bottle every direction but the twist lies within
      a ratio of 5.2 of lambda_max, and a textured sphere's three weak
      turns from 48.7 up, so any c in that gap counts the weak directions
      right.
    """

    gamma_t: float = 15.0
    use_detector: bool = False
    use_icp: bool = True

    icp_max_dist: ClassVar[float] = 5.0
    icp_max_iters: ClassVar[int] = 50
    icp_convergence_eps: ClassVar[float] = 1e-3

    def __post_init__(self) -> None:
        if not (math.isfinite(self.gamma_t) and self.gamma_t >= 0.0):
            raise ValueError(f"gamma_t must be finite and nonnegative, got {self.gamma_t}")
        if self.use_detector and not self.contact_term_on:
            raise ValueError("detector pairs carry weight gamma_t, so they need gamma_t > 0")

    @property
    def contact_term_on(self) -> bool:
        """The contact term is on when ``gamma_t > 0``."""
        return self.gamma_t > 0.0

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
    """Registration result for one frame plus residual diagnostics.

    ``icp_iterations`` counts ICP's iterations; ``icp_converged`` is None
    when no ICP ran (frame 0, or ``use_icp`` off).
    """

    frame_index: int
    world_from_frame: RigidTransform
    sparse_residual: float
    icp_residual: float
    correspondence_counts: dict[str, int]
    icp_iterations: int = 0
    icp_converged: bool | None = None


@dataclass(frozen=True)
class IcpResult:
    """``transform`` is the refined world pose; ``rms_history`` holds the
    dense RMS at each iterate, and ``converged`` says whether its last change
    fell below ``icp_convergence_eps``."""

    transform: RigidTransform
    rms_history: tuple[float, ...]
    pair_count: int
    converged: bool


def sparse_energy(
    sets: list[CorrespondenceSet], transform: RigidTransform, gamma_t: float
) -> float:
    """The robust sparse energy that :func:`align_sparse` lowers.

    Each set's weight times its sum of ``rho(r^2)`` over its pairs:
    ``mu r^2 / (mu + r^2)`` (Geman-McClure) for visual sets, of weight 1,
    and ``r^2`` for the contact and detector sets, of weight ``gamma_t``.
    """
    total = 0.0
    for cs in sets:
        if len(cs) == 0:
            continue
        robust = cs.tag not in _GAMMA_TAGS
        w = 1.0 if robust else gamma_t
        if w == 0.0:
            continue
        res = transform.apply(cs.source) - cs.target
        sq = np.einsum("ij,ij->i", res, res)
        if robust:
            sq = ROBUST_MU_MM2 * sq / (ROBUST_MU_MM2 + sq)
        total += w * float(sq.sum())
    return total


def align_sparse(
    sets: list[CorrespondenceSet], config: RegistrationConfig = RegistrationConfig()
) -> RigidTransform:
    """Robust weighted rigid alignment of the sparse sets (:func:`sparse_energy`).

    Every pair carries its set's weight (1 for visual sets, ``gamma_t`` for
    contact/detector sets).  A weighted least-squares solve starts; each of
    ``ROBUST_ROUNDS`` rounds then scales every visual pair by the
    Geman-McClure weight ``(mu / (mu + r^2))^2`` of its residual and solves
    again, so outlying feature matches fade instead of being averaged in.
    """
    used = [cs for cs in sets if len(cs) and config.set_weight(cs.tag) != 0.0]
    effective = sum(len(cs) for cs in used)
    if effective < 3:
        empty = sorted({cs.tag for cs in sets if len(cs) == 0}) or ["(all)"]
        raise UnderConstrainedError(
            f"{effective} effective pairs (need 3); empty sets: {', '.join(empty)}"
        )
    source = np.vstack([cs.source for cs in used])
    target = np.vstack([cs.target for cs in used])
    base = np.concatenate([np.full(len(cs), config.set_weight(cs.tag)) for cs in used])
    robust = np.concatenate([np.full(len(cs), cs.tag not in _GAMMA_TAGS) for cs in used])
    t = solve_weighted_rigid(source, target, base)
    weights = base.copy()
    for _ in range(ROBUST_ROUNDS):
        res = t.apply(source[robust]) - target[robust]
        sq = np.einsum("ij,ij->i", res, res)
        weights[robust] = base[robust] * (ROBUST_MU_MM2 / (ROBUST_MU_MM2 + sq)) ** 2
        t = solve_weighted_rigid(source, target, weights)
    return t


def refine_icp(
    cloud: PointCloud,
    metascan: np.ndarray,
    config: RegistrationConfig = RegistrationConfig(),
    *,
    start: RigidTransform = RigidTransform.identity(),
    contact: CorrespondenceSet | None = None,
) -> IcpResult:
    """Point-to-plane ICP of the frame's ``cloud`` against the metascan.

    ``start`` is the world pose from the sparse stage; ``contact`` pairs
    frame points with world points and enters every solve as point-to-point
    rows of weight ``gamma_t``.  Each iteration pairs every point with its
    nearest metascan point, keeps pairs within ``icp_max_dist`` (the search
    stops there, and a tie resolves as the unbounded search does; see
    :func:`~inhand.geometry.nearest_within`), records
    their RMS distance, and stops once that changed by less than
    ``icp_convergence_eps`` or after ``icp_max_iters`` records; otherwise it
    takes one Gauss-Newton step of :func:`_point_to_plane_step` on the
    source normals.  So the last RMS recorded is the returned pose's.  One
    kd-tree over the ``metascan`` serves every iteration.
    """
    if len(metascan) == 0:
        raise EmptyInputError("metascan is empty")
    if cloud.normals is None:
        raise ValueError("point-to-plane ICP needs the cloud's normals")
    index = cKDTree(metascan)
    t = start
    history: list[float] = []
    converged = False
    pair_count = 0
    for iteration in range(config.icp_max_iters):
        moved = t.apply(cloud.points)
        dist, idx = nearest_within(index, moved, config.icp_max_dist)
        in_range = dist <= config.icp_max_dist
        pair_count = int(np.count_nonzero(in_range))
        if pair_count < 3:
            raise DivergenceError(
                f"{pair_count} ICP pairs within {config.icp_max_dist} mm "
                f"at iteration {iteration}"
            )
        dist = dist[in_range]
        history.append(math.sqrt(float(dist @ dist) / pair_count))
        del dist
        if len(history) > 1 and abs(history[-2] - history[-1]) < config.icp_convergence_eps:
            converged = True
            break
        if iteration == config.icp_max_iters - 1:
            break  # a step now would leave the returned pose without its RMS
        rows = slice(None) if pair_count == len(cloud.points) else in_range
        moved, idx = moved[rows], idx[rows]
        world_normals = cloud.normals[rows] @ t.rotation.T
        # n . (p - q): each pair's distance along the normal to its target.
        residual = np.einsum("ij,ij->i", moved, world_normals)
        for axis in range(3):
            residual -= metascan[idx, axis] * world_normals[:, axis]
        del idx
        t = _point_to_plane_step(
            moved, world_normals, residual, t, contact, config.gamma_t
        ).compose(t)
        del moved, world_normals, residual  # before the next iteration's
    return IcpResult(t, tuple(history), pair_count, converged)


def _point_to_plane_step(
    moved: np.ndarray,
    normals: np.ndarray,
    residual: np.ndarray,
    pose: RigidTransform,
    contact: CorrespondenceSet | None,
    gamma_t: float,
) -> RigidTransform:
    """One Gauss-Newton step of the dense point-to-plane term plus contact rows.

    The world-frame dense rows (points ``moved``, ``normals``, signed
    ``residual`` distances to the target planes) enter with weight 1 over
    their count, ``contact`` (frame source under ``pose``, world target)
    with ``gamma_t`` over its count.  The step ``(omega, v)`` turns about
    the rows' centroid ``c``; its rotation is scaled by their RMS radius
    ``L``, so the 6x6 normal matrix compares millimetres with millimetres.
    A direction the data barely constrain gets no step
    (:func:`_strong_direction_solve`; Zhang, Kaess & Singh, ICRA 2016): any
    step there would be noise.  ``moved`` is overwritten.
    """
    n = len(moved)
    centroid = moved.mean(axis=0)
    offsets = moved
    offsets -= centroid
    radius = math.sqrt(float(np.einsum("ij,ij->", offsets, offsets)) / n)
    arms = np.empty_like(offsets)  # (p - c) x n / L, one column at a time
    for i, (j, k) in enumerate(((1, 2), (2, 0), (0, 1))):
        np.multiply(offsets[:, j], normals[:, k], out=arms[:, i])
        arms[:, i] -= offsets[:, k] * normals[:, j]
    arms /= radius
    h = np.empty((6, 6))
    h[:3, :3] = arms.T @ arms
    h[:3, 3:] = arms.T @ normals
    h[3:, 3:] = normals.T @ normals
    h[3:, :3] = h[:3, 3:].T
    g = -np.concatenate([arms.T @ residual, normals.T @ residual])
    h /= n
    g /= n
    if contact is not None and len(contact):
        moved_contact = pose.apply(contact.source)
        e = moved_contact - contact.target
        d = (moved_contact - centroid) / radius
        # Each pair's three rows [-[d]x | I]: column i of -[d]x is e_i x d.
        jac = np.zeros((len(contact), 3, 6))
        jac[:, :, :3] = np.cross(np.eye(3), d[:, None, :]).transpose(0, 2, 1)
        jac[:, :, 3:] = np.eye(3)
        w = gamma_t / len(contact)
        h += w * np.einsum("kri,krj->ij", jac, jac)
        g -= w * np.einsum("kri,kr->i", jac, e)
    x = _strong_direction_solve(h, g)
    omega, v = x[:3] / radius, x[3:]
    angle = float(np.linalg.norm(omega))
    rot = rotation_about_axis(omega, angle) if angle > 0.0 else np.eye(3)
    return RigidTransform(rot, centroid + v - rot @ centroid)


def _strong_direction_solve(h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The step ``x = (scaled turn, shift)`` that solves ``h x = g`` along the
    directions the data constrain.

    The shift is measured from the shift that best follows each turn, which
    splits ``h`` into a shift block and a turn block (the turn's Schur
    complement); the eigen-directions of the two blocks are those of the
    matrix in these coordinates.  One whose eigenvalue lies below
    ``lambda_max / WEAK_DIRECTION_RATIO``, with ``lambda_max`` the largest
    eigenvalue of ``h``, gets no step.  So a turn the data cannot see is not
    taken, and a pure shift is recovered without a turn.  Measured from the
    moved centroid instead, a weak direction mixes turn and shift, and
    blocking it keeps part of any shift as a turn.
    """
    floor = np.linalg.eigvalsh(h)[-1] / WEAK_DIRECTION_RATIO
    evals, evecs = np.linalg.eigh(h[3:, 3:])
    basis = evecs[:, evals >= floor] / np.sqrt(evals[evals >= floor])
    shift_inverse = basis @ basis.T  # h[3:, 3:]^-1 on the strong shifts
    follow = shift_inverse @ h[3:, :3]  # -follow @ omega: the best shift for omega
    evals, evecs = np.linalg.eigh(h[:3, :3] - h[:3, 3:] @ follow)
    basis = evecs[:, evals >= floor] / np.sqrt(evals[evals >= floor])
    omega = basis @ (basis.T @ (g[:3] - follow.T @ g[3:]))
    return np.concatenate([omega, shift_inverse @ (g[3:] - h[3:, :3] @ omega)])


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
    if not config.use_icp:
        return FramePose(curr.frame_index, world, sparse_rms, float("nan"), counts)
    contact = next((cs for cs in sets if cs.tag == "contact" and len(cs)), None)
    if contact is not None:  # frame points paired with world points
        contact = CorrespondenceSet(
            contact.source, world_from_prev.apply(contact.target), "contact"
        )
    result = refine_icp(curr.object_cloud, metascan, config, start=world, contact=contact)
    counts["icp"] = result.pair_count
    return FramePose(
        curr.frame_index,
        result.transform,
        sparse_rms,
        result.rms_history[-1],
        counts,
        len(result.rms_history),
        result.converged,
    )


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
    frame's ``features`` and, from the same call, the ``spread_surface``
    that fusion reads), and one worker thread registers every pair of
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
