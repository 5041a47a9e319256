"""Keypoints, descriptors, matching, and 2D-match sidecar loading."""

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from inhand.errors import MatchFileParseError
from inhand.features import (
    GAMMA21,
    GAMMA32,
    MATCH_RATIO,
    MIN_NEIGHBORS,
    NONMAX_RADIUS,
    SALIENT_RADIUS,
    CorrespondenceSet,
    Keypoint,
    describe,
    describe_cloud,
    detect_iss_keypoints,
    load_feat2d,
    match_feat3d,
    parse_feat2d_file,
)
from inhand.geometry import (
    CameraIntrinsics,
    PointCloud,
    RigidTransform,
    rotation_about_axis,
    solve_weighted_rigid,
)
from inhand.preprocess import estimate_normals

INTR = CameraIntrinsics(fx=570.0, fy=570.0, cx=320.0, cy=240.0, width=640, height=480)


def brute_force_iss(pts, salient_radius, nonmax_radius, g21, g32, min_neighbors):
    """Independent O(N^2) oracle for the detector."""
    n = len(pts)
    dist = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
    l3 = np.full(n, -1.0)
    ok = np.zeros(n, dtype=bool)
    for i in range(n):
        nbr = pts[dist[i] <= salient_radius]
        if len(nbr) < min_neighbors:
            continue
        c = nbr - nbr.mean(axis=0)
        ev = np.linalg.eigvalsh(c.T @ c / len(nbr))
        lam3, lam2, lam1 = max(ev[0], 0.0), ev[1], ev[2]
        l3[i] = lam3
        if lam1 > 0 and lam2 / lam1 < g21 and lam2 > 0 and lam3 / lam2 < g32 and lam3 > 0:
            ok[i] = True
    keys = [(l3[i], *pts[i]) for i in range(n)]
    keep = []
    for i in range(n):
        if not ok[i]:
            continue
        nbrs = [j for j in range(n) if j != i and ok[j] and dist[i, j] <= nonmax_radius]
        if all(keys[i] > keys[j] for j in nbrs):
            keep.append(i)
    return {tuple(np.round(pts[i], 9)) for i in keep}


def brute_force_matches(ds, dt, ratio):
    """Independent loop oracle: index pairs that are mutual ratio-test winners."""

    def winner(row):
        order = sorted(range(len(row)), key=lambda j: row[j])
        return order[0] if row[order[0]] < ratio * row[order[1]] else None

    fwd = [winner(row) for row in cdist(ds, dt)]
    bwd = [winner(row) for row in cdist(dt, ds)]
    return [(i, j) for i, j in enumerate(fwd) if j is not None and bwd[j] == i]


def cube_surface(pitch=1.0, side=20.0):
    """Grid sample of a cube surface centered at the origin."""
    half = side / 2.0
    lin = np.arange(-half, half + 1e-9, pitch)
    u, v = np.meshgrid(lin, lin)
    u, v = u.ravel(), v.ravel()
    faces = []
    for axis in range(3):
        for sign in (-1.0, 1.0):
            pts = np.empty((len(u), 3))
            pts[:, axis] = sign * half
            pts[:, (axis + 1) % 3] = u
            pts[:, (axis + 2) % 3] = v
            faces.append(pts)
    pts = np.unique(np.round(np.vstack(faces), 9), axis=0)
    return pts


def blobby_cloud(seed=0, n=3000):
    """Smooth random blob with bumps: plenty of distinctive structure."""
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(n, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    bump_dirs = rng.normal(size=(12, 3))
    bump_dirs /= np.linalg.norm(bump_dirs, axis=1, keepdims=True)
    r = np.full(n, 30.0)
    for bd in bump_dirs:
        r += 4.0 * np.exp(-((1.0 - dirs @ bd) / 0.02))
    pts = dirs * r[:, None]
    return estimate_normals(PointCloud(pts + [0.0, 0.0, 700.0]), k=12)


class TestDetect:
    def test_plane_has_no_keypoints(self):
        xs, ys = np.meshgrid(np.arange(-15.0, 15.1, 1.0), np.arange(-15.0, 15.1, 1.0))
        pts = np.column_stack([xs.ravel(), ys.ravel(), np.full(xs.size, 500.0)])
        nrm = np.tile([0.0, 0.0, -1.0], (len(pts), 1))
        assert detect_iss_keypoints(PointCloud(pts, normals=nrm)) == []

    def test_cube_corners_detected(self):
        pts = cube_surface()
        nrm = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        kps = detect_iss_keypoints(PointCloud(pts, normals=nrm))
        positions = np.array([kp.position for kp in kps])
        assert len(positions) > 0
        corners = np.array([[sx * 10.0, sy * 10.0, sz * 10.0]
                            for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)])
        for c in corners:
            assert np.linalg.norm(positions - c, axis=1).min() < 3.0

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(31)
        pts = cube_surface(pitch=2.0, side=12.0)
        pts = pts + rng.normal(scale=0.05, size=pts.shape)
        nrm = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        kps = detect_iss_keypoints(PointCloud(pts, normals=nrm))
        got = {tuple(np.round(kp.position, 9)) for kp in kps}
        want = brute_force_iss(
            pts, SALIENT_RADIUS, NONMAX_RADIUS, GAMMA21, GAMMA32, MIN_NEIGHBORS
        )
        assert len(want) == 9
        assert got == want

    def test_reorder_invariance(self):
        cloud = blobby_cloud(seed=40, n=1500)
        rng = np.random.default_rng(41)
        perm = rng.permutation(len(cloud))
        shuffled = PointCloud(cloud.points[perm], normals=cloud.normals[perm])
        a = np.array([kp.position for kp in detect_iss_keypoints(cloud)])
        b = np.array([kp.position for kp in detect_iss_keypoints(shuffled)])
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_saliency_is_smallest_eigenvalue(self):
        cloud = blobby_cloud(seed=42, n=1000)
        for kp in detect_iss_keypoints(cloud)[:5]:
            nbr = cloud.points[np.linalg.norm(cloud.points - kp.position, axis=1) <= 6.0]
            c = nbr - nbr.mean(axis=0)
            ev = np.linalg.eigvalsh(c.T @ c / len(nbr))
            assert kp.saliency == pytest.approx(max(ev[0], 0.0), abs=1e-9)


class TestDescribe:
    def test_planar_patch_mass_in_zero_angle_bins(self):
        xs, ys = np.meshgrid(np.arange(-6.0, 6.1, 1.0), np.arange(-6.0, 6.1, 1.0))
        pts = np.column_stack([xs.ravel(), ys.ravel(), np.zeros(xs.size)])
        nrm = np.tile([0.0, 0.0, 1.0], (len(pts), 1))
        cloud = PointCloud(pts, normals=nrm)
        center = int(np.argmin(np.linalg.norm(pts, axis=1)))
        d = describe(cloud, Keypoint(pts[center], 1.0, center))
        grid = d[:32].reshape(4, 8)
        # cos(angle) = 1 for every neighbor -> highest angle bin per shell.
        assert grid[:, :7].sum() == 0.0
        assert np.linalg.norm(grid[:, 7]) == pytest.approx(1.0, abs=1e-12)

    def test_rigid_motion_invariance(self):
        cloud = blobby_cloud(seed=43, n=2500)
        t = RigidTransform(rotation_about_axis((1, 2, 3), 1.1), np.array([40.0, -25.0, 60.0]))
        moved = cloud.transformed(t)
        kps = detect_iss_keypoints(cloud)[:10]
        assert kps, "test needs at least one keypoint"
        for kp in kps:
            kp_moved = Keypoint(t.apply(kp.position), kp.saliency, kp.index)
            d0 = describe(cloud, kp)
            d1 = describe(moved, kp_moved)
            assert np.linalg.norm(d0 - d1) < 1e-6

    def test_no_neighbors_zero_descriptor(self):
        cloud = PointCloud(np.zeros((1, 3)), normals=np.array([[0.0, 0.0, 1.0]]))
        d = describe(cloud, Keypoint(np.array([100.0, 0.0, 0.0]), 1.0, 0))
        np.testing.assert_array_equal(d, np.zeros(32))

    def test_unit_norm_or_zero(self):
        cloud = blobby_cloud(seed=44, n=1200)
        for kp in detect_iss_keypoints(cloud)[:8]:
            d = describe(cloud, kp)
            assert np.linalg.norm(d) == pytest.approx(1.0, abs=1e-12)

    def test_luminance_bins_appended_when_colored(self):
        rng = np.random.default_rng(45)
        pts = rng.uniform(-5, 5, (200, 3))
        nrm = np.tile([0.0, 0.0, 1.0], (200, 1))
        col = rng.uniform(0, 1, (200, 3))
        cloud = PointCloud(pts, normals=nrm, colors=col)
        d = describe(cloud, Keypoint(pts[0], 1.0, 0))
        assert d.shape == (40,)

    def test_deterministic(self):
        cloud = blobby_cloud(seed=46, n=1000)
        kp = detect_iss_keypoints(cloud)[0]
        a = describe(cloud, kp)
        b = describe(cloud, kp)
        np.testing.assert_array_equal(a, b)


class TestMatch:
    def test_self_match_is_identity(self):
        cloud = blobby_cloud(seed=47, n=2500)
        matches = match_feat3d(describe_cloud(cloud), describe_cloud(cloud))
        assert len(matches) > 0
        np.testing.assert_allclose(matches.source, matches.target, atol=1e-12)

    def test_matches_recover_rigid_motion(self):
        cloud = blobby_cloud(seed=48, n=3000)
        t = RigidTransform(rotation_about_axis((0, 1, 0), np.deg2rad(6.0)), np.array([2.0, 1.0, -3.0]))
        moved = cloud.transformed(t)
        # source = moved, target = original
        matches = match_feat3d(describe_cloud(moved), describe_cloud(cloud))
        assert len(matches) >= 10
        est = solve_weighted_rigid(matches.source, matches.target)
        # est maps moved -> original, i.e. the inverse of t.
        inv = t.inverse()
        assert np.abs(est.rotation - inv.rotation).max() < 0.02
        assert np.linalg.norm(est.translation - inv.translation) < 1.0

    def test_sphere_is_ambiguous(self):
        # Two noisy observations of a featureless sphere, 6 degrees apart.
        # Any matches that survive must be junk: they must not recover the
        # true motion (this is the slipping failure mode of visual-only
        # registration on symmetric objects).
        rng = np.random.default_rng(49)
        dirs = rng.normal(size=(4000, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        center = np.array([0.0, 0.0, 700.0])
        base = dirs * 35.0 + center
        r = rotation_about_axis((1, 0, 0), np.deg2rad(6.0))
        f0 = PointCloud(base + rng.normal(scale=0.5, size=base.shape), normals=dirs)
        f1 = PointCloud(
            (base - center) @ r.T + center + rng.normal(scale=0.5, size=base.shape),
            normals=dirs @ r.T,
        )
        matches = match_feat3d(describe_cloud(f1), describe_cloud(f0))
        if len(matches) >= 3:
            displacement = np.linalg.norm(matches.source - matches.target, axis=1)
            true_motion = 2 * 35.0 * np.sin(np.deg2rad(3.0))  # max surface shift ~3.7 mm
            assert displacement.mean() > 3 * true_motion

    def test_mutual_matches_agree_with_loop_oracle(self):
        rng = np.random.default_rng(51)
        ds = rng.random((40, 8))
        near = ds[rng.permutation(40)[:25]] + rng.normal(scale=0.05, size=(25, 8))
        dt = np.vstack([near, rng.random((10, 8))])
        ps, pt = rng.normal(size=(40, 3)), rng.normal(size=(35, 3))
        pairs = brute_force_matches(ds, dt, MATCH_RATIO)
        assert len(pairs) >= 10
        matches = match_feat3d((ps, ds), (pt, dt))
        np.testing.assert_array_equal(matches.source, ps[[i for i, _ in pairs]])
        np.testing.assert_array_equal(matches.target, pt[[j for _, j in pairs]])

    def test_swap_symmetry(self):
        a = blobby_cloud(seed=50, n=2000)
        b = a.transformed(RigidTransform(rotation_about_axis((1, 0, 0), 0.05), np.array([1.0, 0.0, 0.0])))
        ab = match_feat3d(describe_cloud(a), describe_cloud(b))
        ba = match_feat3d(describe_cloud(b), describe_cloud(a))
        fwd = {(tuple(s), tuple(t)) for s, t in zip(np.round(ab.source, 9), np.round(ab.target, 9))}
        rev = {(tuple(t), tuple(s)) for s, t in zip(np.round(ba.source, 9), np.round(ba.target, 9))}
        assert fwd == rev


class TestCorrespondenceSet:
    def test_tag_checked(self):
        with pytest.raises(ValueError):
            CorrespondenceSet(np.zeros((1, 3)), np.zeros((1, 3)), "bogus")

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            CorrespondenceSet(np.zeros((2, 3)), np.zeros((1, 3)), "feat3d")


class TestFeat2d:
    def test_backprojection_values(self, tmp_path):
        f = tmp_path / "matches.txt"
        f.write_text(
            "# header comment\n"
            "320 240 700 377 297 500\n"
            "  \n"
            "377 297 500 320 240 700  # trailing comment\n"
        )
        pairs, sd, td = parse_feat2d_file(f)
        cs = load_feat2d(pairs, sd, td, INTR)
        assert len(cs) == 2
        np.testing.assert_allclose(cs.source[0], [0.0, 0.0, 700.0])
        np.testing.assert_allclose(cs.target[0], [50.0, 50.0, 500.0])
        assert cs.tag == "feat2d"

    def test_invalid_depths_dropped(self):
        pairs = np.array(
            [[320, 240, 320, 240], [321, 240, 321, 240], [322, 240, 322, 240]], dtype=float
        )
        cs = load_feat2d(pairs, [700.0, 0.0, 700.0], [700.0, 700.0, np.nan], INTR)
        assert len(cs) == 1

    def test_parse_error_reports_line(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("320 240 700 377 297 500\n1 2 3 4 5\n")
        with pytest.raises(MatchFileParseError) as info:
            parse_feat2d_file(f)
        assert info.value.line_number == 2
        assert "line 2" in str(info.value)

    def test_non_numeric_field(self, tmp_path):
        f = tmp_path / "bad2.txt"
        for line in ("a b c d e f", "nan 240 700 377 297 500", "320 240 700 377 inf 500"):
            f.write_text(line + "\n")
            with pytest.raises(MatchFileParseError, match="bad2.txt") as info:
                parse_feat2d_file(f)
            assert info.value.line_number == 1
