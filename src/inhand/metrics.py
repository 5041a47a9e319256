"""The reconstruction pipeline and the evaluation protocols over it.

:func:`reconstruct` is the one register -> fuse -> extract -> smooth
pipeline and :func:`measure_probes` measures its mesh; the ``reconstruct``
command runs through them, and the gamma sweep through the same two
halves of :func:`reconstruct`, registration and fusion.  Two instruments:

* :func:`run_gamma_sweep` re-runs the full reconstruction pipeline across
  a grid of contact weights and scores each run by how far the fused
  mesh's measured dimensions land from ground truth.  Every other
  registration setting keeps its :class:`RegistrationConfig` default.
* :func:`compare_energies` scores the four sparse-energy configurations
  (contact/detector, each with and without visual features) against
  annotated point pairs, isolating the per-pair solve from ICP and
  fusion.

Both emit plot-ready CSV through :func:`sweep_to_csv` and
:func:`energies_to_csv`.
"""

from __future__ import annotations

import csv
import io
import logging
import math
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DegenerateConfigurationError,
    DivergenceError,
    EmptyInputError,
    InHandError,
    UnderConstrainedError,
)
from .fileio import write_atomic
from .fusion import (
    Probe,
    TriangleMesh,
    TsdfVolume,
    extract_mesh,
    integrate,
    laplacian_smooth,
    measure_dimensions,
)
from .geometry import CameraIntrinsics, RigidTransform, rotation_angle_rad
from .preprocess import SegmentedFrame
from .register import (
    RegistrationConfig,
    SequenceResult,
    align_sparse,
    build_correspondences,
    registrations,
)

log = logging.getLogger(__name__)

def reconstruct(
    frames: Sequence[SegmentedFrame],
    config: RegistrationConfig,
    intrinsics: CameraIntrinsics,
    *,
    volume_center,
    side_mm: float,
    resolution: int,
    smooth_iterations: int,
) -> tuple[SequenceResult, TriangleMesh]:
    """Register a sequence, fuse the registered frames, and mesh the volume.

    The frames are registered as :func:`run_sequence` does, on their whole
    clouds, and integrated at their poses into a TSDF cube of ``side_mm``
    and ``resolution`` voxels centred on ``volume_center``; the extracted
    mesh is smoothed for ``smooth_iterations``.  When a sequence of several
    frames registers nothing beyond frame 0 this raises
    :class:`DivergenceError` instead of meshing a single view.

    Each frame fuses only its :attr:`~SegmentedFrame.spread_surface`,
    about a fifth of its points, which its description has already
    sampled.  A voxel's signed distance is its offset from the nearest
    point along that point's normal, which is the same from every point of
    a plane; on a surface of curvature radius R, a point ``s`` to the side
    of the voxel's foot moves it by about ``s**2 / (2 R)``.  On the
    benchmark's scanned frames a point left out lies a median 1.2 mm and
    at most about 3 mm from the nearest kept one: 0.03 and 0.18 mm at
    R = 25 mm.  A kept point alone would carry all of its sensor noise,
    where the whole cloud lets each voxel read a different point, so each
    kept point is moved along its normal to the mean height of its
    neighbours within ``SPREAD_SPACING_MM``, which averages that noise out
    without pulling a curved surface inward.
    """
    with registrations(frames, (config,), intrinsics) as (registration,):
        result = registration.result()
    volume = _first_frame_volume(frames, volume_center, side_mm, resolution)
    return result, _fuse(frames, result, volume, smooth_iterations)


def _first_frame_volume(
    frames: Sequence[SegmentedFrame], volume_center, side_mm: float, resolution: int
) -> TsdfVolume:
    """The TSDF cube that :func:`reconstruct` fuses into, holding frame 0 at
    the identity, the pose at which every registration chain anchors it."""
    volume = TsdfVolume(volume_center, side_mm, resolution)
    return integrate(volume, frames[0].spread_surface, RigidTransform.identity())


def _fuse(
    frames: Sequence[SegmentedFrame],
    result: SequenceResult,
    volume: TsdfVolume,
    smooth_iterations: int,
) -> TriangleMesh:
    """The fusion half of :func:`reconstruct`: integrate every registered
    frame after frame 0 into ``volume``, which holds frame 0
    (:func:`_first_frame_volume`), then extract and smooth.

    A sequence of several frames that registered nothing beyond frame 0
    raises :class:`DivergenceError` instead of meshing a single view.
    """
    if len(frames) > 1 and len(result.poses) == 1:
        raise DivergenceError(
            "every frame pair failed to register; only frame "
            f"{result.poses[0].frame_index} has a pose"
        )
    by_index = {f.frame_index: f for f in frames}
    for pose in result.poses[1:]:
        volume = integrate(
            volume, by_index[pose.frame_index].spread_surface, pose.world_from_frame
        )
    return laplacian_smooth(extract_mesh(volume), smooth_iterations)


def measure_probes(mesh: TriangleMesh, probes: Iterable[Probe]) -> dict[str, float]:
    """Each probe's value on ``mesh``; a probe that cannot be measured is NaN."""
    out: dict[str, float] = {}
    for probe in probes:
        try:
            out[probe.name] = measure_dimensions(mesh, probe)
        except InHandError as exc:
            log.warning("probe %r failed (%s)", probe.name, exc)
            out[probe.name] = float("nan")
    return out


def rotation_span_deg(poses: Sequence[RigidTransform]) -> float:
    """Total rotation traversed along a pose trajectory, in degrees.

    Sums the angles of consecutive relative rotations, so a trajectory
    that barely moves scores near zero while one that thrashes between
    unrelated poses scores far above the scripted motion.
    """
    total = 0.0
    for a, b in zip(poses, poses[1:]):
        total += math.degrees(rotation_angle_rad(a.rotation.T @ b.rotation))
    return total


@dataclass(frozen=True)
class SweepResult:
    """Dimension errors across a grid of contact weights, one row per gamma.

    ``measured[i]`` maps each probe's name to its value at ``gammas[i]``,
    NaN where the pipeline or the probe failed there; ``expected`` holds
    each probe's ground-truth value.
    """

    gammas: tuple[float, ...]
    probes: tuple[Probe, ...]
    expected: dict[str, float]
    measured: tuple[dict[str, float], ...]

    @property
    def normalized_errors(self) -> tuple[float, ...]:
        """Per gamma, the mean of ``|measured - expected| / expected`` over
        the millimeter probes.

        Volume probes are excluded from the average: a cubic-unit error would
        swamp the linear probes, so only length-like probes are pooled and
        volume values remain available in the raw table.  A gamma's mean is
        NaN when any pooled value failed or when no length probes are present.
        """
        lengths = [p.name for p in self.probes if p.kind != "volume"]
        expected = self.expected
        return tuple(
            float(np.mean([abs(row[n] - expected[n]) / expected[n] for n in lengths]))
            if lengths
            else float("nan")
            for row in self.measured
        )


def sweep_configs(gammas: Sequence[float]) -> tuple[RegistrationConfig, ...]:
    """Each gamma's registration config; ``ValueError`` for an empty or not
    strictly increasing grid, or a gamma that :class:`RegistrationConfig` rejects."""
    gammas = [float(g) for g in gammas]
    if not gammas:
        raise ValueError("a sweep needs at least one gamma")
    if any(b <= a for a, b in zip(gammas, gammas[1:])):
        raise ValueError("gamma values must be strictly increasing")
    return tuple(RegistrationConfig(gamma_t=g) for g in gammas)


def run_gamma_sweep(
    frames: Sequence[SegmentedFrame],
    probes: Sequence[Probe],
    expected: dict[str, float],
    gammas: Sequence[float],
    *,
    volume_center,
    side_mm: float,
    resolution: int,
    smooth_iterations: int,
    intrinsics: CameraIntrinsics,
) -> SweepResult:
    """Run the full pipeline once per gamma, in grid order, and measure the mesh.

    Each gamma gets a fresh :func:`reconstruct` with
    ``RegistrationConfig(gamma_t=gamma)`` in the working volume that the
    keywords name as :func:`reconstruct` does, and probe measurement
    against the ``expected`` ground-truth dimensions; the frames' features
    and contact states, cached on the frames, are shared by every gamma.
    A bad grid or gamma (:func:`sweep_configs`), or a probe without a
    finite, positive expected value, fails before the first run.
    A pipeline failure at some gamma (no frame pair registered, say, or a
    single unmeasurable probe, e.g. volume of an open mesh) is recorded as
    NaN in that gamma's row and the sweep continues; any other error
    propagates once the worker thread has stopped.

    Every gamma registers through one :func:`registrations`, whose
    docstring states the threads; the calling thread fuses and measures
    each gamma in grid order as soon as its registration is done.  Every
    chain anchors frame 0 at the identity, so frame 0 is fused once, and
    each gamma fuses its other frames into its own copy of that volume.
    The rows are those of the serial loop, bit for bit.
    """
    frames = list(frames)
    probes = tuple(probes)
    if not frames:
        raise EmptyInputError("no frames to sweep")
    if not probes:
        raise EmptyInputError("no probes to measure")
    configs = sweep_configs(gammas)
    bad = [p.name for p in probes if not 0.0 < expected.get(p.name, math.nan) < math.inf]
    if bad:
        raise ValueError(f"no finite, positive ground-truth value for probes: {', '.join(bad)}")

    with registrations(frames, configs, intrinsics) as chains:
        first = _first_frame_volume(frames, volume_center, side_mm, resolution)
        measured = tuple(
            _measure_at_gamma(frames, probes, config, registration, first, smooth_iterations)
            for config, registration in zip(configs, chains)
        )
    return SweepResult(
        tuple(c.gamma_t for c in configs),
        probes,
        {p.name: float(expected[p.name]) for p in probes},
        measured,
    )


def _measure_at_gamma(
    frames: list[SegmentedFrame],
    probes: tuple[Probe, ...],
    config: RegistrationConfig,
    registration: Future,
    first: TsdfVolume,
    smooth_iterations: int,
) -> dict[str, float]:
    """Probe values for one pipeline run, once ``registration`` is done, fused
    into a copy of the volume ``first`` that holds frame 0; failures come
    back as NaN."""
    try:
        mesh = _fuse(frames, registration.result(), first.copy(), smooth_iterations)
    except InHandError as exc:
        log.warning(
            "gamma %g: pipeline failed (%s); recording failed cells", config.gamma_t, exc
        )
        return {p.name: float("nan") for p in probes}
    return measure_probes(mesh, probes)


# The four sparse-energy configurations scored by compare_energies, as
# (row label, anchor tag, correspondence tags included in the solve).
# The anchor set must be present and non-empty for the row to count:
# without it the solve would silently degrade to a different config.
_ENERGY_CONFIGS: tuple[tuple[str, str, frozenset], ...] = (
    ("contact+visual", "contact", frozenset({"contact", "feat3d", "feat2d"})),
    ("contact", "contact", frozenset({"contact"})),
    ("detector+visual", "detector", frozenset({"detector", "feat3d", "feat2d"})),
    ("detector", "detector", frozenset({"detector"})),
)


@dataclass(frozen=True)
class EnergyRow:
    """Annotation error of one sparse-energy configuration over all pairs.

    ``mean`` and ``stdev`` are those of ``|a - T(b)|`` over every annotated
    point, where ``T`` is the configuration's solve for the point's frame
    pair; ``pair_count`` is the number of annotated point pairs.
    """

    config: str
    mean: float
    stdev: float
    pair_count: int = 0
    available: bool = True


def compare_energies(
    frames: Sequence[SegmentedFrame],
    annotations,
    *,
    intrinsics: CameraIntrinsics,
) -> tuple[EnergyRow, ...]:
    """Score the four sparse-energy configurations on annotated pairs.

    Every annotated frame pair is solved four ways -- contact+visual,
    contact only, detector+visual, detector only -- and each solve ``T``
    gives the errors ``|a - T(b)|`` of that pair's annotated points
    ``(a, b)``; a row is the mean and standard deviation of its
    configuration's errors over all annotated pairs.  ICP
    and fusion are deliberately excluded so the rows compare the sparse
    solves alone.  Each pair's correspondence sets are built once.  A
    configuration that cannot be solved on every pair (no detector boxes,
    a dropped contact term, fewer than three effective pairs, collinear
    pairs) comes back marked unavailable, and its solves stop at the first
    such pair.  The contact and detector sets carry the default ``gamma_t``.
    """
    frames = list(frames)
    annotations = list(annotations)
    if not annotations:
        raise EmptyInputError("sequence carries no annotated pairs")
    if empty := [(a.frame_a, a.frame_b) for a in annotations if len(a.points_a) == 0]:
        raise EmptyInputError(f"annotation of frames {empty[0]} has no point pairs")
    by_index = {f.frame_index: f for f in frames}
    config = RegistrationConfig(use_detector=True)
    pairs = []
    for ann in annotations:
        try:
            prev, curr = by_index[ann.frame_a], by_index[ann.frame_b]
        except KeyError as exc:
            raise ValueError(f"annotation references missing frame {exc}") from None
        pairs.append((ann, build_correspondences(prev, curr, config, intrinsics)))

    rows = []
    for name, anchor, tags in _ENERGY_CONFIGS:
        errors = []
        for ann, sets in pairs:
            chosen = [cs for cs in sets if cs.tag in tags]
            try:
                if not any(cs.tag == anchor and len(cs) > 0 for cs in chosen):
                    raise UnderConstrainedError(f"no {anchor} correspondences")
                pair_transform = align_sparse(chosen, config)
            except (UnderConstrainedError, DegenerateConfigurationError) as exc:
                log.warning(
                    "config %r unavailable: frames (%d, %d): %s",
                    name,
                    ann.frame_a,
                    ann.frame_b,
                    exc,
                )
                rows.append(EnergyRow(name, float("nan"), float("nan"), 0, False))
                break
            errors.append(
                np.linalg.norm(ann.points_a - pair_transform.apply(ann.points_b), axis=1)
            )
        else:
            pooled = np.concatenate(errors)
            rows.append(
                EnergyRow(name, float(pooled.mean()), float(pooled.std()), len(pooled))
            )
    return tuple(rows)


def sweep_to_csv(result: SweepResult, path) -> None:
    """One row per (gamma, probe), with the per-gamma normalized mean repeated."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        [
            "gamma",
            "probe",
            "kind",
            "expected",
            "measured",
            "abs_error",
            "normalized_mean_error",
        ]
    )
    rows = zip(result.gammas, result.measured, result.normalized_errors)
    for gamma, measured, norm in rows:
        for probe in result.probes:
            expected, value = result.expected[probe.name], measured[probe.name]
            writer.writerow(
                [
                    repr(gamma),
                    probe.name,
                    probe.kind,
                    repr(expected),
                    repr(value),
                    repr(abs(value - expected)),
                    repr(norm),
                ]
            )
    write_atomic(path, buf.getvalue().encode())


def energies_to_csv(rows: Sequence[EnergyRow], path) -> None:
    """One row per (config, statistic); unavailable rows carry empty values."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["config", "statistic", "value", "available"])
    for row in rows:
        for stat, value in (("mean", row.mean), ("stdev", row.stdev)):
            writer.writerow(
                [
                    row.config,
                    stat,
                    repr(value) if row.available else "",
                    int(row.available),
                ]
            )
    write_atomic(path, buf.getvalue().encode())
