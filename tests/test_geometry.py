"""Core geometry: transforms, back-projection, weighted alignment, NN index."""

import numpy as np
import pytest

from inhand.errors import (
    DegenerateConfigurationError,
    EmptyInputError,
    InvalidDepthError,
    UnderConstrainedError,
)
from inhand.geometry import (
    CameraIntrinsics,
    PointCloud,
    RigidTransform,
    SpatialIndex,
    back_project_many,
    project,
    rotation_about_axis,
    solve_weighted_rigid,
    voxel_downsample_indices,
)

RNG = np.random.default_rng(20240811)


def random_rotation(rng) -> np.ndarray:
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return rotation_about_axis(axis, rng.uniform(0.0, np.pi))


def umeyama_unweighted(src, tgt):
    """Independent oracle: classic unweighted Umeyama (no scale)."""
    mu_s = src.mean(axis=0)
    mu_t = tgt.mean(axis=0)
    h = (src - mu_s).T @ (tgt - mu_t)
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    r = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    return r, mu_t - r @ mu_s


class TestRigidTransform:
    def test_identity_apply(self):
        t = RigidTransform.identity()
        p = np.array([1.0, -2.0, 3.0])
        np.testing.assert_array_equal(t.apply(p), p)

    def test_compose_rotations_about_z(self):
        # Rz(30 deg) o Rz(60 deg) = Rz(90 deg):
        # Rz(90) = [[0, -1, 0], [1, 0, 0], [0, 0, 1]]
        a = RigidTransform(rotation_about_axis((0, 0, 1), np.deg2rad(30)), np.zeros(3))
        b = RigidTransform(rotation_about_axis((0, 0, 1), np.deg2rad(60)), np.zeros(3))
        c = a.compose(b)
        expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        np.testing.assert_allclose(c.rotation, expected, atol=1e-12)

    def test_compose_applies_b_then_a(self):
        rng = np.random.default_rng(7)
        a = RigidTransform(random_rotation(rng), rng.normal(size=3))
        b = RigidTransform(random_rotation(rng), rng.normal(size=3))
        p = rng.normal(size=3)
        np.testing.assert_allclose(a.compose(b).apply(p), a.apply(b.apply(p)), atol=1e-12)

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(8)
        t = RigidTransform(random_rotation(rng), rng.normal(size=3) * 100.0)
        p = rng.normal(size=(10, 3)) * 50.0
        np.testing.assert_allclose(t.inverse().apply(t.apply(p)), p, atol=1e-9)

    def test_apply_is_isometry(self):
        rng = np.random.default_rng(9)
        t = RigidTransform(random_rotation(rng), rng.normal(size=3) * 10.0)
        p = rng.normal(size=(50, 3)) * 100.0
        q = t.apply(p)
        d_before = np.linalg.norm(p[:, None] - p[None, :], axis=-1)
        d_after = np.linalg.norm(q[:, None] - q[None, :], axis=-1)
        np.testing.assert_allclose(d_after, d_before, atol=1e-9)

    def test_rejects_non_orthonormal(self):
        bad = np.eye(3)
        bad[0, 1] = 1e-6
        with pytest.raises(ValueError):
            RigidTransform(bad, np.zeros(3))

    def test_rejects_reflection(self):
        refl = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            RigidTransform(refl, np.zeros(3))

    def test_composition_chain_stays_orthonormal(self):
        rng = np.random.default_rng(10)
        t = RigidTransform.identity()
        step = RigidTransform(random_rotation(rng), rng.normal(size=3))
        for _ in range(2000):
            t = t.compose(step)
        r = t.rotation
        assert np.abs(r.T @ r - np.eye(3)).max() <= 1e-9


class TestBackProject:
    INTR = CameraIntrinsics(fx=570.0, fy=570.0, cx=320.0, cy=240.0, width=640, height=480)

    def test_principal_point(self):
        # (u, v) at the principal point maps straight down the optical axis.
        np.testing.assert_allclose(
            back_project_many([[320.0, 240.0]], [700.0], self.INTR), [[0.0, 0.0, 700.0]]
        )

    def test_formula(self):
        # x = d*(u-cx)/fx = 500*(377-320)/570 = 50.0
        # y = d*(v-cy)/fy = 500*(297-240)/570 = 50.0
        p = back_project_many([[377.0, 297.0]], [500.0], self.INTR)
        np.testing.assert_allclose(p, [[50.0, 50.0, 500.0]])

    def test_zero_depth_rejected(self):
        with pytest.raises(InvalidDepthError):
            back_project_many([[10.0, 10.0]], [0.0], self.INTR)
        with pytest.raises(InvalidDepthError):
            back_project_many([[10.0, 10.0]], [-3.0], self.INTR)

    def test_project_roundtrip(self):
        rng = np.random.default_rng(11)
        pts = np.column_stack(
            [rng.uniform(-80, 80, 40), rng.uniform(-60, 60, 40), rng.uniform(420, 980, 40)]
        )
        uv = project(pts, self.INTR)
        back = back_project_many(uv, pts[:, 2], self.INTR)
        np.testing.assert_allclose(back, pts, atol=1e-9)

    def test_intrinsics_validation(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=0.0, fy=570.0, cx=320.0, cy=240.0, width=640, height=480)


class TestSolveWeightedRigid:
    def test_exact_recovery_three_points(self):
        src = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [0.0, 10.0, 0.0]])
        t = RigidTransform(
            rotation_about_axis((0, 0, 1), np.deg2rad(25.0)), np.array([5.0, -3.0, 2.0])
        )
        est = solve_weighted_rigid(src, t.apply(src))
        np.testing.assert_allclose(est.rotation, t.rotation, atol=1e-9)
        np.testing.assert_allclose(est.translation, t.translation, atol=1e-9)

    def test_generate_and_recover(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = rng.integers(3, 60)
            src = rng.uniform(-100, 100, (n, 3))
            while np.linalg.matrix_rank(src - src.mean(axis=0), tol=1e-6) < 2:
                src = rng.uniform(-100, 100, (n, 3))
            t = RigidTransform(random_rotation(rng), rng.uniform(-50, 50, 3))
            w = rng.uniform(0.0, 10.0, n)
            w[:3] = np.maximum(w[:3], 0.1)  # keep at least 3 effective pairs
            est = solve_weighted_rigid(src, t.apply(src), w)
            assert np.abs(est.rotation - t.rotation).max() < 1e-9
            assert np.abs(est.translation - t.translation).max() < 1e-9

    def test_unit_weights_match_umeyama(self):
        rng = np.random.default_rng(13)
        src = rng.uniform(-50, 50, (30, 3))
        tgt = rng.uniform(-50, 50, (30, 3))  # inconsistent pairs: noisy problem
        est = solve_weighted_rigid(src, tgt)
        r, t = umeyama_unweighted(src, tgt)
        np.testing.assert_allclose(est.rotation, r, atol=1e-9)
        np.testing.assert_allclose(est.translation, t, atol=1e-9)

    def test_weight_rescaling_invariance(self):
        rng = np.random.default_rng(14)
        src = rng.uniform(-50, 50, (20, 3))
        tgt = rng.uniform(-50, 50, (20, 3))
        w = rng.uniform(0.1, 5.0, 20)
        a = solve_weighted_rigid(src, tgt, w)
        b = solve_weighted_rigid(src, tgt, 3.7 * w)
        np.testing.assert_allclose(a.rotation, b.rotation, atol=1e-9)
        np.testing.assert_allclose(a.translation, b.translation, atol=1e-9)

    def test_heavy_weights_dominate(self):
        rng = np.random.default_rng(15)
        src = rng.uniform(-50, 50, (40, 3))
        t_a = RigidTransform(random_rotation(rng), rng.uniform(-20, 20, 3))
        t_b = RigidTransform(random_rotation(rng), rng.uniform(-20, 20, 3))
        tgt = np.vstack([t_a.apply(src[:20]), t_b.apply(src[20:])])
        w = np.concatenate([np.ones(20), np.full(20, 1e6)])
        est = solve_weighted_rigid(src, tgt, w)
        # With a 1e6 weight ratio the solution hugs the heavy subset's pose.
        assert np.abs(est.rotation - t_b.rotation).max() < 1e-3
        assert np.abs(est.translation - t_b.translation).max() < 0.1

    def test_global_optimality_on_mixed_sets(self):
        # Two interleaved subsets, each exactly consistent with its own
        # transform; the weighted objective at the returned pose must not
        # exceed the objective at either subset's own pose.
        rng = np.random.default_rng(16)
        src = rng.uniform(-50, 50, (30, 3))
        t_a = RigidTransform(random_rotation(rng), rng.uniform(-20, 20, 3))
        t_b = RigidTransform(random_rotation(rng), rng.uniform(-20, 20, 3))
        tgt = np.where(np.arange(30)[:, None] % 2 == 0, t_a.apply(src), t_b.apply(src))
        w = np.where(np.arange(30) % 2 == 0, 1.0, 4.0)

        def objective(t):
            return float((w * np.sum((t.apply(src) - tgt) ** 2, axis=1)).sum())

        est = solve_weighted_rigid(src, tgt, w)
        assert objective(est) <= objective(t_a) + 1e-9
        assert objective(est) <= objective(t_b) + 1e-9

    def test_zero_weight_pairs_are_ignored(self):
        rng = np.random.default_rng(17)
        src = rng.uniform(-50, 50, (10, 3))
        t = RigidTransform(random_rotation(rng), rng.uniform(-20, 20, 3))
        tgt = t.apply(src)
        src_junk = np.vstack([src, rng.uniform(-50, 50, (5, 3))])
        tgt_junk = np.vstack([tgt, rng.uniform(-50, 50, (5, 3))])
        w = np.concatenate([np.ones(10), np.zeros(5)])
        est = solve_weighted_rigid(src_junk, tgt_junk, w)
        np.testing.assert_allclose(est.rotation, t.rotation, atol=1e-9)

    def test_under_constrained(self):
        with pytest.raises(UnderConstrainedError):
            solve_weighted_rigid([[0, 0, 0], [1, 0, 0]], [[0, 0, 0], [1, 0, 0]])
        # Three pairs but only two carry weight.
        with pytest.raises(UnderConstrainedError):
            solve_weighted_rigid(
                [[0, 0, 0], [1, 0, 0], [0, 1, 0]],
                [[0, 0, 0], [1, 0, 0], [0, 1, 0]],
                [1.0, 1.0, 0.0],
            )

    def test_collinear_is_degenerate(self):
        src = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
        with pytest.raises(DegenerateConfigurationError):
            solve_weighted_rigid(src, src + [1.0, 2.0, 3.0])

    def test_coincident_is_degenerate(self):
        src = np.zeros((5, 3))
        with pytest.raises(DegenerateConfigurationError):
            solve_weighted_rigid(src, src)


class TestSpatialIndex:
    def test_empty_cloud_rejected(self):
        with pytest.raises(EmptyInputError):
            SpatialIndex(PointCloud(np.empty((0, 3))))

    def test_nearest_matches_brute_force(self):
        rng = np.random.default_rng(18)
        pts = rng.uniform(-100, 100, (500, 3))
        qs = rng.uniform(-120, 120, (1000, 3))
        for index in (SpatialIndex(PointCloud(pts)), SpatialIndex(pts)):
            idx, dist = index.nearest_many(qs)
            for q, i, d in zip(qs, idx, dist):
                dists = np.linalg.norm(pts - q, axis=1)
                j = int(np.argmin(dists))
                assert d == pytest.approx(dists[j])
                assert dists[i] == pytest.approx(dists[j])


class TestPointCloud:
    def test_normals_must_be_unit(self):
        pts = np.zeros((2, 3))
        with pytest.raises(ValueError):
            PointCloud(pts, normals=np.array([[1.0, 0.0, 0.0], [0.5, 0.0, 0.0]]))

    def test_colors_range_checked(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((1, 3)), colors=np.array([[1.2, 0.0, 0.0]]))

    def test_channel_lengths_checked(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((2, 3)), normals=np.array([[0.0, 0.0, 1.0]]))

    def test_transform_rotates_normals(self):
        cloud = PointCloud(
            np.array([[1.0, 0.0, 0.0]]), normals=np.array([[1.0, 0.0, 0.0]])
        )
        t = RigidTransform(rotation_about_axis((0, 0, 1), np.pi / 2), np.array([0.0, 0.0, 5.0]))
        moved = cloud.transformed(t)
        np.testing.assert_allclose(moved.points, [[0.0, 1.0, 5.0]], atol=1e-12)
        np.testing.assert_allclose(moved.normals, [[0.0, 1.0, 0.0]], atol=1e-12)


class TestVoxelDownsample:
    def test_keeps_first_per_voxel(self):
        pts = np.array(
            [
                [0.1, 0.1, 0.1],
                [0.3, 0.2, 0.4],  # same 1 mm voxel as the first point
                [1.5, 0.0, 0.0],
                [1.7, 0.2, 0.1],  # same voxel as the third point
            ]
        )
        keep = voxel_downsample_indices(pts, 1.0)
        np.testing.assert_array_equal(keep, [0, 2])

    def test_deterministic(self):
        rng = np.random.default_rng(21)
        pts = rng.uniform(-40, 40, (2000, 3))
        a = voxel_downsample_indices(pts, 2.0)
        b = voxel_downsample_indices(pts, 2.0)
        np.testing.assert_array_equal(a, b)
