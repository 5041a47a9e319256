"""Frame ingestion: normal estimation and the per-frame record types.

Input frames are camera-space clouds already segmented into object and
hand parts. Clouds without stored normals get them from local PCA
oriented toward the sensor origin; points outside the TSDF cube are
dropped at integration, not here. A frame computes its own 3D features,
the surface sample that registration and fusion read, and its contact
state once, for every pair and gamma it takes part in.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree

from .contact import ContactState, PosedHand, detect_contacts
from .errors import DegenerateConfigurationError, EmptyInputError, NoContactError
from .features import describe_cloud
from .geometry import PointCloud, _freeze

log = logging.getLogger(__name__)

NORMAL_NEIGHBORS = 16


def estimate_normals(cloud: PointCloud) -> PointCloud:
    """Per-point unit normals from PCA over each point's nearest neighbors.

    A neighborhood is the :data:`NORMAL_NEIGHBORS` points nearest to a
    point, the point itself included.  The normal is the eigenvector of
    the neighborhood covariance with the smallest eigenvalue, flipped so
    that dot(normal, -position) >= 0, i.e. facing the sensor at the origin.
    """
    k = NORMAL_NEIGHBORS
    n = len(cloud)
    if n < k:
        raise EmptyInputError(f"cloud has {n} points but k={k}")
    pts = cloud.points
    _, nbr = cKDTree(pts).query(pts, k=k)
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
    """One observation: segmented object cloud, posed hand or None, optional sidecars.

    ``feat2d_matches`` holds pixel matches against the previous frame as a
    tuple ``(pixel_pairs (N, 4), source_depths (N,), target_depths (N,))``;
    ``detector_boxes`` is a tuple of :class:`DetectorBox`.

    :attr:`features`, :attr:`spread_surface` and :attr:`contact` depend on
    this frame alone: each is computed on first use and cached, so every
    pair, gamma and energy configuration shares it;
    :func:`dataclasses.replace` starts a new cache.  :attr:`features` and
    :attr:`spread_surface` come from one :func:`describe_cloud` call, so
    the thread that describes a frame also samples its surface.  During
    registration, :func:`inhand.register.registrations` says which thread
    computes each.
    """

    frame_index: int
    object_cloud: PointCloud
    hand_pose: PosedHand | None
    feat2d_matches: tuple | None = None
    detector_boxes: tuple[DetectorBox, ...] | None = None

    @cached_property
    def _described(self) -> tuple[np.ndarray, ...]:
        return describe_cloud(self.object_cloud)

    @property
    def features(self) -> tuple[np.ndarray, np.ndarray]:
        """Keypoint positions and descriptors of the object cloud."""
        return self._described[:2]

    @property
    def spread_surface(self) -> PointCloud:
        """The points that ICP refines, the metascan holds and fusion
        integrates: the object cloud's spread subsample, each point moved
        along its normal by its height
        (:func:`inhand.features._spread_heights`), with its normal.
        :func:`inhand.metrics.reconstruct` says why."""
        rows, heights = self._described[2:]
        points, normals = self.object_cloud.points[rows], self.object_cloud.normals[rows]
        return PointCloud(points + heights[:, None] * normals, normals)

    @cached_property
    def contact(self) -> ContactState | None:
        """The hand's contact state; None without a hand or a contact."""
        if self.hand_pose is None:
            return None
        try:
            return detect_contacts(self.hand_pose, self.object_cloud)
        except NoContactError as exc:
            log.warning("frame %d: %s; contact term dropped", self.frame_index, exc)
            return None
