"""PCA normal estimation."""

import numpy as np
import pytest

from inhand.errors import DegenerateConfigurationError, InsufficientPointsError
from inhand.geometry import PointCloud
from inhand.preprocess import NORMAL_NEIGHBORS, estimate_normals


class TestEstimateNormals:
    def test_plane_normals(self):
        # Grid on z = 500; normals must all be (0, 0, -1): the +z choice
        # would point away from the sensor at the origin.
        xs, ys = np.meshgrid(np.linspace(-20, 20, 15), np.linspace(-20, 20, 15))
        pts = np.column_stack([xs.ravel(), ys.ravel(), np.full(xs.size, 500.0)])
        out = estimate_normals(PointCloud(pts))
        np.testing.assert_allclose(out.normals, np.tile([0.0, 0.0, -1.0], (len(pts), 1)), atol=1e-12)

    def test_sphere_normals_radial(self):
        rng = np.random.default_rng(4)
        dirs = rng.normal(size=(20000, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        center = np.array([0.0, 0.0, 700.0])
        pts = center + 35.0 * dirs
        out = estimate_normals(PointCloud(pts))
        radial = (pts - center) / 35.0
        # Sign is chosen toward the sensor; compare directions modulo sign.
        dots = np.abs(np.einsum("ij,ij->i", out.normals, radial))
        angles = np.degrees(np.arccos(np.clip(dots, -1.0, 1.0)))
        assert angles.max() < 2.0

    def test_orientation_toward_sensor(self):
        rng = np.random.default_rng(5)
        dirs = rng.normal(size=(2000, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        pts = np.array([0.0, 0.0, 700.0]) + 35.0 * dirs
        out = estimate_normals(PointCloud(pts))
        assert np.all(np.einsum("ij,ij->i", out.normals, -pts) >= 0.0)

    def test_too_few_points(self):
        with pytest.raises(InsufficientPointsError):
            estimate_normals(PointCloud(np.zeros((NORMAL_NEIGHBORS - 1, 3))))

    def test_collinear_neighborhood_degenerate(self):
        n = NORMAL_NEIGHBORS + 4
        pts = np.column_stack([np.arange(float(n)), np.zeros(n), np.full(n, 500.0)])
        with pytest.raises(DegenerateConfigurationError, match="collinear"):
            estimate_normals(PointCloud(pts))

    def test_unit_length(self):
        rng = np.random.default_rng(6)
        pts = rng.uniform(-30, 30, (500, 3)) * [1, 1, 0.2] + [0, 0, 600]
        out = estimate_normals(PointCloud(pts))
        np.testing.assert_allclose(np.linalg.norm(out.normals, axis=1), 1.0, atol=1e-9)
