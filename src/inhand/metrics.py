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

from .errors import DivergenceError, EmptyInputError, InHandError, UnderConstrainedError
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

__all__ = [
    "ProbeCell",
    "SweepResult",
    "EnergyRow",
    "reconstruct",
    "measure_probes",
    "normalized_mean_error",
    "rotation_span_deg",
    "sweep_configs",
    "run_gamma_sweep",
    "compare_energies",
    "sweep_to_csv",
    "energies_to_csv",
]


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

    The frames are registered as :func:`run_sequence` does and integrated at
    their poses into a TSDF cube of ``side_mm`` and ``resolution`` voxels
    centred on ``volume_center``; the extracted mesh is smoothed for
    ``smooth_iterations``.  When a sequence of several frames registers
    nothing beyond frame 0 this raises :class:`DivergenceError` instead of
    meshing a single view.
    """
    with registrations(frames, (config,), intrinsics) as (registration,):
        result = _registered(frames, registration.result())
    return result, _fuse(
        frames, result, volume_center, side_mm, resolution, smooth_iterations
    )


def _registered(frames: Sequence[SegmentedFrame], result: SequenceResult) -> SequenceResult:
    """The registration half of :func:`reconstruct`: ``result``, unless it
    registered nothing beyond frame 0."""
    if len(frames) > 1 and len(result.poses) == 1:
        raise DivergenceError(
            "every frame pair failed to register; only frame "
            f"{result.poses[0].frame_index} has a pose"
        )
    return result


def _fuse(
    frames: Sequence[SegmentedFrame],
    result: SequenceResult,
    volume_center,
    side_mm: float,
    resolution: int,
    smooth_iterations: int,
) -> TriangleMesh:
    """The fusion half of :func:`reconstruct`: integrate, extract, smooth."""
    by_index = {f.frame_index: f for f in frames}
    volume = TsdfVolume(volume_center, side_mm, resolution)
    for pose in result.poses:
        volume = integrate(
            volume, by_index[pose.frame_index].object_cloud, pose.world_from_frame
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
class ProbeCell:
    """One (gamma, probe) measurement against the fused mesh.

    ``measured`` is NaN when the pipeline or the probe failed at this
    cell; the absolute error then propagates as NaN too.
    """

    gamma: float
    probe: str
    kind: str
    expected: float
    measured: float

    def __post_init__(self) -> None:
        if self.expected <= 0.0:
            raise ValueError(f"probe {self.probe!r}: expected value must be positive")

    @property
    def error(self) -> float:
        """Absolute measurement error in the probe's own units."""
        return abs(self.measured - self.expected)

    @property
    def normalized_error(self) -> float:
        """Absolute error divided by the ground-truth value."""
        return self.error / self.expected


def normalized_mean_error(cells: Iterable[ProbeCell]) -> float:
    """Mean of ``|measured - expected| / expected`` over millimeter probes.

    Volume probes are excluded from the average: a cubic-unit error would
    swamp the linear probes, so only length-like probes are pooled and
    volume cells remain available in the raw table.  Returns NaN when any
    pooled cell failed or when no length probes are present.
    """
    values = [c.normalized_error for c in cells if c.kind != "volume"]
    if not values:
        return float("nan")
    return float(np.mean(values))


@dataclass(frozen=True)
class SweepResult:
    """Dimension errors across a grid of contact weights.

    ``cells`` holds one entry per (gamma, probe); ``normalized_errors``
    derives, per gamma, the normalized mean over that gamma's length
    probes from those cells.
    """

    gammas: tuple[float, ...]
    cells: tuple[ProbeCell, ...]

    def __post_init__(self) -> None:
        if not self.gammas:
            raise ValueError("a sweep needs at least one gamma")
        if any(b <= a for a, b in zip(self.gammas, self.gammas[1:])):
            raise ValueError("gamma values must be strictly increasing")
        known = set(self.gammas)
        if any(c.gamma not in known for c in self.cells):
            raise ValueError("cell gamma not in the gamma grid")

    @property
    def normalized_errors(self) -> tuple[float, ...]:
        """Per gamma, :func:`normalized_mean_error` over that gamma's cells."""
        return tuple(normalized_mean_error(self.cells_at(g)) for g in self.gammas)

    def cells_at(self, gamma: float) -> tuple[ProbeCell, ...]:
        """All probe cells measured at one gamma."""
        gamma = float(gamma)
        return tuple(c for c in self.cells if c.gamma == gamma)


def sweep_configs(gammas: Sequence[float]) -> tuple[RegistrationConfig, ...]:
    """Each gamma's registration config; ``ValueError`` for a grid that
    :class:`SweepResult` or a gamma that :class:`RegistrationConfig` rejects."""
    grid = SweepResult(tuple(float(g) for g in gammas), ())
    return tuple(RegistrationConfig(gamma_t=g) for g in grid.gammas)


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
    A bad grid or gamma (:func:`sweep_configs`) fails before the first run.
    A pipeline failure at some gamma (no frame pair registered, say, or a
    single unmeasurable probe, e.g. volume of an open mesh) is recorded as
    a NaN cell and the sweep continues; any other error propagates once
    the worker thread has stopped.

    Every gamma registers through one :func:`registrations`, whose
    docstring states the threads; the calling thread fuses and measures
    each gamma in grid order as soon as its registration is done.  The
    cells are those of the serial loop, bit for bit.
    """
    frames = list(frames)
    probes = tuple(probes)
    if not frames:
        raise EmptyInputError("no frames to sweep")
    if not probes:
        raise EmptyInputError("no probes to measure")
    configs = sweep_configs(gammas)
    if missing := [p.name for p in probes if p.name not in expected]:
        raise ValueError(f"no ground-truth value for probes: {', '.join(missing)}")

    volume = dict(
        volume_center=volume_center,
        side_mm=side_mm,
        resolution=resolution,
        smooth_iterations=smooth_iterations,
    )
    cells = []
    with registrations(frames, configs, intrinsics) as chains:
        for config, registration in zip(configs, chains):
            measured = _measure_at_gamma(frames, probes, config, registration, volume)
            cells.extend(
                ProbeCell(
                    config.gamma_t, p.name, p.kind, float(expected[p.name]), measured[p.name]
                )
                for p in probes
            )
    return SweepResult(tuple(c.gamma_t for c in configs), tuple(cells))


def _measure_at_gamma(
    frames: list[SegmentedFrame],
    probes: tuple[Probe, ...],
    config: RegistrationConfig,
    registration: Future,
    volume: dict,
) -> dict[str, float]:
    """Probe values for one pipeline run, once ``registration`` is done;
    failures come back as NaN."""
    try:
        mesh = _fuse(frames, _registered(frames, registration.result()), **volume)
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
    solves alone.  A configuration that cannot be solved on every pair
    (no detector boxes, a dropped contact term, fewer than
    three effective pairs) comes back marked unavailable.  The contact and
    detector sets carry the default ``gamma_t``.
    """
    frames = list(frames)
    annotations = list(annotations)
    if not annotations:
        raise EmptyInputError("sequence carries no annotated pairs")
    by_index = {f.frame_index: f for f in frames}
    config = RegistrationConfig(use_detector=True)

    # Per config: the point errors of each annotated pair.
    errors: dict[str, list[np.ndarray]] = {name: [] for name, _, _ in _ENERGY_CONFIGS}
    usable = {name: True for name, _, _ in _ENERGY_CONFIGS}
    for ann in annotations:
        try:
            prev, curr = by_index[ann.frame_a], by_index[ann.frame_b]
        except KeyError as exc:
            raise ValueError(f"annotation references missing frame {exc}") from None
        sets = build_correspondences(prev, curr, config, intrinsics)
        present = {cs.tag for cs in sets if len(cs) > 0}
        for name, anchor, tags in _ENERGY_CONFIGS:
            chosen = [cs for cs in sets if cs.tag in tags]
            try:
                if anchor not in present:
                    raise UnderConstrainedError(f"no {anchor} correspondences")
                pair_transform = align_sparse(chosen, config)
            except UnderConstrainedError as exc:
                if usable[name]:
                    log.warning(
                        "config %r unavailable: frames (%d, %d): %s",
                        name,
                        ann.frame_a,
                        ann.frame_b,
                        exc,
                    )
                usable[name] = False
                continue
            errors[name].append(
                np.linalg.norm(ann.points_a - pair_transform.apply(ann.points_b), axis=1)
            )

    rows = []
    for name, _, _ in _ENERGY_CONFIGS:
        if not usable[name]:
            rows.append(EnergyRow(name, float("nan"), float("nan"), 0, False))
            continue
        pooled = np.concatenate(errors[name])
        rows.append(EnergyRow(name, float(pooled.mean()), float(pooled.std()), len(pooled)))
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
    for gamma, norm in zip(result.gammas, result.normalized_errors):
        for cell in result.cells_at(gamma):
            writer.writerow(
                [
                    repr(gamma),
                    cell.probe,
                    cell.kind,
                    repr(cell.expected),
                    repr(cell.measured),
                    repr(cell.error),
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
