"""Frame ingestion: working-volume clipping and normal estimation.

Input frames are camera-space clouds already segmented into object and
hand parts. A fixed axis-aligned working volume in front of the sensor
discards background; normals come from local PCA oriented toward the
sensor origin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConfigurationError, InsufficientPointsError
from .geometry import PointCloud, SpatialIndex, _freeze


@dataclass(frozen=True)
class WorkingVolume:
    """Inclusive axis-aligned box, camera frame, millimeters."""

    min_corner: np.ndarray
    max_corner: np.ndarray

    def __post_init__(self) -> None:
        lo = np.asarray(self.min_corner, dtype=np.float64).reshape(3)
        hi = np.asarray(self.max_corner, dtype=np.float64).reshape(3)
        if not np.all(lo < hi):
            raise ValueError("min_corner must be strictly below max_corner on every axis")
        object.__setattr__(self, "min_corner", _freeze(lo))
        object.__setattr__(self, "max_corner", _freeze(hi))

    def contains(self, points) -> np.ndarray:
        p = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        return np.all((p >= self.min_corner) & (p <= self.max_corner), axis=1)


# Desk-scale scanning volume in front of the sensor.
DEFAULT_WORKING_VOLUME = WorkingVolume(
    min_corner=(-100.0, -140.0, 400.0),
    max_corner=(100.0, 220.0, 1000.0),
)


def clip_volume(cloud: PointCloud, volume: WorkingVolume = DEFAULT_WORKING_VOLUME) -> PointCloud:
    """Keep points inside the (inclusive) volume, preserving order and channels."""
    return cloud.select(volume.contains(cloud.points))


def estimate_normals(cloud: PointCloud, k: int = 16) -> PointCloud:
    """Per-point unit normals from PCA over the k nearest neighbors.

    The normal is the eigenvector of the neighborhood covariance with the
    smallest eigenvalue, flipped so that dot(normal, -position) >= 0, i.e.
    facing the sensor at the origin.
    """
    if k < 3:
        raise ValueError("k must be at least 3")
    n = len(cloud)
    if n < k:
        raise InsufficientPointsError(f"cloud has {n} points but k={k}")
    pts = cloud.points
    index = SpatialIndex(pts)
    _, nbr = index._tree.query(pts, k=k)
    neigh = pts[nbr]  # (n, k, 3)
    centered = neigh - neigh.mean(axis=1, keepdims=True)
    cov = np.einsum("nki,nkj->nij", centered, centered) / k
    evals, evecs = np.linalg.eigh(cov)  # ascending eigenvalues
    # A neighborhood whose two smallest eigenvalues both vanish is a line
    # (or a single point): the normal direction is ambiguous.
    degenerate = evals[:, 1] <= 1e-12 * np.maximum(evals[:, 2], 1e-300)
    if np.any(degenerate):
        bad = int(np.nonzero(degenerate)[0][0])
        raise DegenerateConfigurationError(
            f"neighborhood of point {bad} is collinear; normal undefined"
        )
    normals = evecs[:, :, 0]
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    flip = np.einsum("ij,ij->i", normals, -pts) < 0.0
    normals[flip] = -normals[flip]
    return PointCloud(pts, normals=normals, colors=cloud.colors)


@dataclass(frozen=True)
class DetectorBox:
    """Fixed-size 2D detector box with a per-pixel depth patch.

    ``depth`` is row-major ``(height, width)`` in millimeters with 0 marking
    pixels without a valid measurement. ``x, y`` is the top-left corner in
    image coordinates.
    """

    label: str
    x: int
    y: int
    width: int
    height: int
    depth: np.ndarray

    def __post_init__(self) -> None:
        d = np.asarray(self.depth, dtype=np.float64)
        if d.shape != (self.height, self.width):
            raise ValueError(
                f"depth patch must be ({self.height}, {self.width}), got {d.shape}"
            )
        object.__setattr__(self, "depth", _freeze(d))


@dataclass(frozen=True)
class SegmentedFrame:
    """One observation: segmented object cloud, posed hand, optional sidecars.

    ``feat2d_matches`` holds pixel matches against the previous frame as a
    tuple ``(pixel_pairs (N, 4), source_depths (N,), target_depths (N,))``;
    ``detector_boxes`` is a tuple of :class:`DetectorBox`.
    """

    frame_index: int
    object_cloud: PointCloud
    hand_pose: "PosedHand"  # noqa: F821 - defined in inhand.contact
    feat2d_matches: tuple | None = None
    detector_boxes: tuple[DetectorBox, ...] | None = None
