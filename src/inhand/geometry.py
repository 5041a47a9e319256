"""Core geometric types and operations.

Everything is metric millimeters. Rotations are 3x3 orthonormal matrices
with determinant +1; poses map points as ``R @ p + t``. Point clouds are
``(N, 3)`` float64 arrays wrapped together with optional unit normals and
optional RGB colors in ``[0, 1]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import (
    DegenerateConfigurationError,
    EmptyInputError,
    InvalidDepthError,
    UnderConstrainedError,
)

# Validation tolerances.
ROTATION_TOL = 1e-9
NORMAL_TOL = 1e-6


def _as_array(values, shape, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    try:
        arr = arr.reshape(shape)
    except ValueError as exc:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}") from exc
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


def orthonormalize(rotation: np.ndarray) -> np.ndarray:
    """Project a nearly-orthonormal matrix back onto SO(3) via SVD."""
    u, _, vt = np.linalg.svd(np.asarray(rotation, dtype=np.float64))
    r = u @ vt
    if np.linalg.det(r) < 0.0:
        u[:, -1] = -u[:, -1]
        r = u @ vt
    return r


def rotation_about_axis(axis, angle_rad: float) -> np.ndarray:
    """Rodrigues rotation matrix about ``axis`` by ``angle_rad``."""
    a = _as_array(axis, (3,), "axis")
    norm = np.linalg.norm(a)
    if norm == 0.0:
        raise ValueError("axis must be non-zero")
    a = a / norm
    k = np.array(
        [[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]]
    )
    return np.eye(3) + np.sin(angle_rad) * k + (1.0 - np.cos(angle_rad)) * (k @ k)


def rotation_angle_rad(rotation: np.ndarray) -> float:
    """Geodesic angle of a rotation matrix, in radians."""
    tr = float(np.trace(np.asarray(rotation, dtype=np.float64)))
    return float(np.arccos(np.clip((tr - 1.0) / 2.0, -1.0, 1.0)))


@dataclass(frozen=True)
class RigidTransform:
    """SE(3) pose: ``apply(p) = rotation @ p + translation``."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self) -> None:
        r = _as_array(self.rotation, (3, 3), "rotation")
        t = _as_array(self.translation, (3,), "translation")
        err = np.abs(r.T @ r - np.eye(3)).max()
        if err > ROTATION_TOL:
            raise ValueError(f"rotation is not orthonormal (max error {err:.3e})")
        det = np.linalg.det(r)
        if abs(det - 1.0) > ROTATION_TOL:
            raise ValueError(f"rotation determinant {det!r} is not +1")
        object.__setattr__(self, "rotation", _freeze(r))
        object.__setattr__(self, "translation", _freeze(t))

    @staticmethod
    def identity() -> "RigidTransform":
        return RigidTransform(np.eye(3), np.zeros(3))

    def apply(self, points) -> np.ndarray:
        """Transform a single point ``(3,)`` or a stack ``(N, 3)``."""
        p = np.asarray(points, dtype=np.float64)
        if p.ndim == 1:
            return self.rotation @ p + self.translation
        return p @ self.rotation.T + self.translation

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """Return the transform applying ``other`` first, then ``self``."""
        r = self.rotation @ other.rotation
        drift = np.abs(r.T @ r - np.eye(3)).max()
        if drift > ROTATION_TOL:
            r = orthonormalize(r)
        return RigidTransform(r, self.rotation @ other.translation + self.translation)

    def inverse(self) -> "RigidTransform":
        r = self.rotation.T
        return RigidTransform(r, -(r @ self.translation))


@dataclass(frozen=True)
class PointCloud:
    """Points with optional per-point unit normals and RGB colors in [0, 1]."""

    points: np.ndarray
    normals: np.ndarray | None = None
    colors: np.ndarray | None = None

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must be (N, 3), got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points contain non-finite values")
        object.__setattr__(self, "points", _freeze(pts))
        n = len(pts)
        if self.normals is not None:
            nrm = np.asarray(self.normals, dtype=np.float64)
            if nrm.shape != (n, 3):
                raise ValueError(f"normals must be ({n}, 3), got {nrm.shape}")
            if not np.all(np.isfinite(nrm)):
                raise ValueError("normals contain non-finite values")
            lengths = np.linalg.norm(nrm, axis=1)
            if n and np.abs(lengths - 1.0).max() > NORMAL_TOL:
                raise ValueError("normals must be unit length within 1e-6")
            object.__setattr__(self, "normals", _freeze(nrm))
        if self.colors is not None:
            col = np.asarray(self.colors, dtype=np.float64)
            if col.shape != (n, 3):
                raise ValueError(f"colors must be ({n}, 3), got {col.shape}")
            if n and (col.min() < 0.0 or col.max() > 1.0):
                raise ValueError("colors must lie in [0, 1]")
            object.__setattr__(self, "colors", _freeze(col))

    def __len__(self) -> int:
        return len(self.points)

    def select(self, index) -> "PointCloud":
        """Subset by boolean mask or index array; keeps channel alignment."""
        return PointCloud(
            self.points[index],
            None if self.normals is None else self.normals[index],
            None if self.colors is None else self.colors[index],
        )

    def transformed(self, pose: RigidTransform) -> "PointCloud":
        """Apply a rigid transform; normals are rotated, colors unchanged."""
        return PointCloud(
            pose.apply(self.points),
            None if self.normals is None else self.normals @ pose.rotation.T,
            self.colors,
        )


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole model; focal lengths and principal point in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self) -> None:
        if self.fx <= 0.0 or self.fy <= 0.0:
            raise ValueError("focal lengths must be positive")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image size must be positive")


def back_project_many(pixels, depths, intrinsics: CameraIntrinsics) -> np.ndarray:
    """Lift ``(N, 2)`` pixels with ``(N,)`` positive metric depths to camera points.

    ``x = d * (u - cx) / fx``, ``y = d * (v - cy) / fy``, ``z = d``, in mm.
    """
    px = np.asarray(pixels, dtype=np.float64).reshape(-1, 2)
    d = np.asarray(depths, dtype=np.float64).reshape(-1)
    if d.size and d.min() <= 0.0:
        raise InvalidDepthError("all depths must be positive")
    out = np.empty((len(d), 3))
    out[:, 0] = d * (px[:, 0] - intrinsics.cx) / intrinsics.fx
    out[:, 1] = d * (px[:, 1] - intrinsics.cy) / intrinsics.fy
    out[:, 2] = d
    return out


def project(points, intrinsics: CameraIntrinsics) -> np.ndarray:
    """Camera-frame points to pixel coordinates (inverse of back-projection)."""
    p = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if p.size and p[:, 2].min() <= 0.0:
        raise InvalidDepthError("points must lie in front of the camera")
    uv = np.empty((len(p), 2))
    uv[:, 0] = intrinsics.fx * p[:, 0] / p[:, 2] + intrinsics.cx
    uv[:, 1] = intrinsics.fy * p[:, 1] / p[:, 2] + intrinsics.cy
    return uv


class SpatialIndex:
    """Exact nearest-neighbor index over a cloud (kd-tree backed)."""

    def __init__(self, cloud: PointCloud | np.ndarray) -> None:
        pts = cloud.points if isinstance(cloud, PointCloud) else np.asarray(cloud, dtype=np.float64)
        if len(pts) == 0:
            raise EmptyInputError("cannot index an empty cloud")
        self.points = pts
        self._tree = cKDTree(pts)

    def __len__(self) -> int:
        return len(self.points)

    def nearest_many(self, queries) -> tuple[np.ndarray, np.ndarray]:
        """Exact nearest neighbor of each query point; returns (indices, distances)."""
        d, i = self._tree.query(np.asarray(queries, dtype=np.float64).reshape(-1, 3))
        return i.astype(np.int64), d


def solve_weighted_rigid(source, target, weights=None) -> RigidTransform:
    """Weighted least-squares rigid alignment (Kabsch/Umeyama, no scale).

    Returns the global minimizer of ``sum_i w_i * ||T(s_i) - t_i||^2``.
    The weighted cross-covariance is decomposed by SVD and the reflection
    case is repaired by flipping the sign of the last singular direction.
    """
    src = np.asarray(source, dtype=np.float64).reshape(-1, 3)
    tgt = np.asarray(target, dtype=np.float64).reshape(-1, 3)
    if src.shape != tgt.shape:
        raise ValueError("source and target must have matching shapes")
    if weights is None:
        w = np.ones(len(src))
    else:
        w = np.asarray(weights, dtype=np.float64).reshape(-1)
        if w.shape != (len(src),):
            raise ValueError("weights must be one scalar per pair")
        if w.size and w.min() < 0.0:
            raise ValueError("weights must be nonnegative")
    effective = w > 0.0
    if int(effective.sum()) < 3:
        raise UnderConstrainedError(
            f"need at least 3 positively weighted pairs, got {int(effective.sum())}"
        )
    src = src[effective]
    tgt = tgt[effective]
    w = w[effective]
    wsum = w.sum()
    mu_s = (w[:, None] * src).sum(axis=0) / wsum
    mu_t = (w[:, None] * tgt).sum(axis=0) / wsum
    ds = src - mu_s
    dt = tgt - mu_t
    h = (w[:, None] * ds).T @ dt
    u, s, vt = np.linalg.svd(h)
    # Collinear or coincident sources leave the rotation about the residual
    # axis undetermined: the second singular value collapses.
    if s[0] <= 0.0 or s[1] / s[0] < 1e-9:
        raise DegenerateConfigurationError(
            "source configuration is collinear or coincident "
            f"(singular values {s.tolist()})"
        )
    d = np.sign(np.linalg.det(vt.T @ u.T))
    r = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    r = orthonormalize(r)
    return RigidTransform(r, mu_t - r @ mu_s)


def voxel_downsample_indices(points, voxel_size: float) -> np.ndarray:
    """Indices of the first point falling in each occupied voxel.

    Deterministic: keeps the earliest point per voxel in input order, and
    returns indices in input order.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if voxel_size <= 0.0:
        raise ValueError("voxel size must be positive")
    if len(pts) == 0:
        return np.empty(0, dtype=np.int64)
    cells = np.floor(pts / voxel_size).astype(np.int64)
    # Shift to nonnegative so a single linear key is collision-free.
    cells -= cells.min(axis=0)
    dims = cells.max(axis=0) + 1
    key = (cells[:, 0] * dims[1] + cells[:, 1]) * dims[2] + cells[:, 2]
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    first = np.ones(len(pts), dtype=bool)
    first[1:] = sorted_key[1:] != sorted_key[:-1]
    keep = order[first]
    keep.sort()
    return keep
