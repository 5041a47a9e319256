"""Keypoints, descriptors, matching, and 2D-match back-projection."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from inhand.features import (
    GAMMA21,
    GAMMA32,
    DESCRIBE_RADIUS,
    SPREAD_SPACING_MM,
    MATCH_RATIO,
    MIN_NEIGHBORS,
    NONMAX_RADIUS,
    SALIENT_RADIUS,
    N_ANGLE_BINS,
    N_LUM_BINS,
    N_SHELLS,
    CorrespondenceSet,
    _describe_all,
    _neighbourhood_moments,
    _spread_heights,
    _spread_subsample,
    describe_cloud,
    detect_iss_keypoints,
    load_feat2d,
    match_feat3d,
)
from inhand.fileio import parse_feat2d_file
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


# np.add.at references: the moment sums, the detector and the descriptor
# as they were before their sums went through np.bincount.  The program
# must agree with them to the bit.


def add_at_moments(pts, pairs):
    """Neighbourhood counts, first and second moments, self included."""
    n = len(pts)
    counts = np.ones(n)
    s1 = pts.copy()
    s2 = np.einsum("ni,nj->nij", pts, pts)
    if len(pairs):
        ii = np.concatenate([pairs[:, 0], pairs[:, 1]])
        jj = np.concatenate([pairs[:, 1], pairs[:, 0]])
        np.add.at(counts, ii, 1.0)
        np.add.at(s1, ii, pts[jj])
        np.add.at(s2, ii, np.einsum("ni,nj->nij", pts[jj], pts[jj]))
    return counts, s1, s2


def add_at_iss(cloud):
    """Cloud rows of the ISS keypoints, with the moments summed by np.add.at."""
    n = len(cloud)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    canon = np.lexsort((cloud.points[:, 2], cloud.points[:, 1], cloud.points[:, 0]))
    pts = cloud.points[canon]
    tree = cKDTree(pts)
    pairs = tree.query_pairs(SALIENT_RADIUS, output_type="ndarray")
    counts, s1, s2 = add_at_moments(pts, pairs)
    mean = s1 / counts[:, None]
    cov = s2 / counts[:, None, None] - np.einsum("ni,nj->nij", mean, mean)
    cov = 0.5 * (cov + np.transpose(cov, (0, 2, 1)))
    evals = np.linalg.eigvalsh(cov)
    l3, l2, l1 = evals[:, 0], evals[:, 1], evals[:, 2]
    l3 = np.maximum(l3, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ok = (
            (counts >= MIN_NEIGHBORS)
            & (l1 > 0.0)
            & (l2 / np.maximum(l1, 1e-300) < GAMMA21)
            & (l3 / np.maximum(l2, 1e-300) < GAMMA32)
            & (l3 > 0.0)
        )
    if not np.any(ok):
        return np.empty(0, dtype=np.int64)
    rank = np.empty(n, dtype=np.int64)
    rank[np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0], l3))] = np.arange(n)
    keep = ok.copy()
    nms_pairs = tree.query_pairs(NONMAX_RADIUS, output_type="ndarray")
    if len(nms_pairs):
        a, b = nms_pairs[:, 0], nms_pairs[:, 1]
        both = ok[a] & ok[b]
        a, b = a[both], b[both]
        lower = np.where(rank[a] < rank[b], a, b)
        np.minimum.at(keep, lower, False)
    idx = np.nonzero(keep)[0]
    return canon[idx]


def add_at_describe(cloud, row, tree):
    """The shell/angle (and luminance) histogram of a cloud row, summed by np.add.at."""
    position = cloud.points[row]
    nbr = np.asarray(tree.query_ball_point(position, DESCRIBE_RADIUS), dtype=np.int64)
    size = N_SHELLS * N_ANGLE_BINS + (N_LUM_BINS if cloud.colors is not None else 0)
    desc = np.zeros(size)
    if nbr.size == 0:
        return desc
    rel = cloud.points[nbr] - position
    dist = np.linalg.norm(rel, axis=1)
    n_kp = cloud.normals[row]
    cosang = np.clip(cloud.normals[nbr] @ n_kp, -1.0, 1.0)
    sc = dist / (DESCRIBE_RADIUS / N_SHELLS) - 0.5
    ac = (cosang + 1.0) * 0.5 * N_ANGLE_BINS - 0.5
    s0 = np.floor(sc).astype(np.int64)
    a0 = np.floor(ac).astype(np.int64)
    fs = sc - s0
    fa = ac - a0
    for ds, ws in ((0, 1.0 - fs), (1, fs)):
        s = np.clip(s0 + ds, 0, N_SHELLS - 1)
        for da, wa in ((0, 1.0 - fa), (1, fa)):
            a = np.clip(a0 + da, 0, N_ANGLE_BINS - 1)
            np.add.at(desc, s * N_ANGLE_BINS + a, ws * wa)
    if cloud.colors is not None:
        lum = cloud.colors[nbr] @ np.array([0.2126, 0.7152, 0.0722])
        lbin = np.minimum((lum * N_LUM_BINS).astype(np.int64), N_LUM_BINS - 1)
        np.add.at(desc, N_SHELLS * N_ANGLE_BINS + lbin, 1.0)
    norm = np.linalg.norm(desc)
    if norm > 0.0:
        desc /= norm
    return desc


def spread_reference(cloud):
    """Rows of the spread subsample, by its definition and a test of every pair.

    The centroid adds the points one at a time in position order; a point's
    rank sorts (squared distance to the centroid, x, y, z), and its priority
    is ``(rank * 2654435761) % 2**32``.  A point is dropped when a point of
    higher priority lies within ``SPREAD_SPACING_MM``.
    """
    pts = cloud.points
    n = len(pts)
    centroid = np.zeros(3)
    for point in sorted(map(tuple, pts)):
        centroid = centroid + point
    centroid = centroid / max(n, 1)
    dx, dy, dz = (pts - centroid).T
    d2 = dx * dx + dy * dy + dz * dz
    priority = np.empty(n, dtype=np.int64)
    for rank, i in enumerate(sorted(range(n), key=lambda i: (d2[i], *pts[i]))):
        priority[i] = (rank * 2654435761) % 2**32
    keep = []
    for i in range(n):
        dx, dy, dz = (pts - pts[i]).T
        near = dx * dx + dy * dy + dz * dz <= SPREAD_SPACING_MM * SPREAD_SPACING_MM
        if not np.any(near & (priority > priority[i])):
            keep.append(i)
    return np.array(keep, dtype=np.int64)


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
    return estimate_normals(PointCloud(pts + [0.0, 0.0, 700.0]))


def move(cloud, pose):
    """``cloud`` under the rigid ``pose``, its normals rotated with it."""
    return PointCloud(pose.apply(cloud.points), normals=cloud.normals @ pose.rotation.T)


def keypoints(cloud):
    """The keypoint positions and descriptors of :func:`describe_cloud`."""
    return describe_cloud(cloud)[:2]


class TestDetect:
    def test_plane_has_no_keypoints(self):
        xs, ys = np.meshgrid(np.arange(-15.0, 15.1, 1.0), np.arange(-15.0, 15.1, 1.0))
        pts = np.column_stack([xs.ravel(), ys.ravel(), np.full(xs.size, 500.0)])
        nrm = np.tile([0.0, 0.0, -1.0], (len(pts), 1))
        assert len(detect_iss_keypoints(PointCloud(pts, normals=nrm))) == 0

    def test_empty_cloud_has_no_keypoints(self):
        rows = detect_iss_keypoints(PointCloud(np.empty((0, 3)), normals=np.empty((0, 3))))
        assert rows.shape == (0,)

    def test_cube_corners_detected(self):
        pts = cube_surface()
        nrm = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        positions = pts[detect_iss_keypoints(PointCloud(pts, normals=nrm))]
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
        rows = detect_iss_keypoints(PointCloud(pts, normals=nrm))
        got = {tuple(np.round(p, 9)) for p in pts[rows]}
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
        a = cloud.points[detect_iss_keypoints(cloud)]
        b = shuffled.points[detect_iss_keypoints(shuffled)]
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestDescribe:
    def test_planar_patch_mass_in_zero_angle_bins(self):
        xs, ys = np.meshgrid(np.arange(-6.0, 6.1, 1.0), np.arange(-6.0, 6.1, 1.0))
        pts = np.column_stack([xs.ravel(), ys.ravel(), np.zeros(xs.size)])
        nrm = np.tile([0.0, 0.0, 1.0], (len(pts), 1))
        cloud = PointCloud(pts, normals=nrm)
        center = int(np.argmin(np.linalg.norm(pts, axis=1)))
        (d,) = _describe_all(cloud, np.array([center]), cKDTree(cloud.points))
        grid = d[:32].reshape(4, 8)
        # cos(angle) = 1 for every neighbor -> highest angle bin per shell.
        assert grid[:, :7].sum() == 0.0
        assert np.linalg.norm(grid[:, 7]) == pytest.approx(1.0, abs=1e-12)

    def test_rigid_motion_invariance(self):
        cloud = blobby_cloud(seed=43, n=2500)
        t = RigidTransform(rotation_about_axis((1, 2, 3), 1.1), np.array([40.0, -25.0, 60.0]))
        moved = move(cloud, t)
        rows = detect_iss_keypoints(cloud)[:10]
        assert len(rows), "test needs at least one keypoint"
        d0 = _describe_all(cloud, rows, cKDTree(cloud.points))
        d1 = _describe_all(moved, rows, cKDTree(moved.points))
        assert np.linalg.norm(d0 - d1, axis=1).max() < 1e-6

    def test_unit_norm_or_zero(self):
        cloud = blobby_cloud(seed=44, n=1200)
        rows = detect_iss_keypoints(cloud)[:8]
        assert len(rows), "test needs at least one keypoint"
        norms = np.linalg.norm(_describe_all(cloud, rows, cKDTree(cloud.points)), axis=1)
        np.testing.assert_allclose(norms, 1.0, rtol=0, atol=1e-12)

    def test_luminance_bins_appended_when_colored(self):
        rng = np.random.default_rng(45)
        pts = rng.uniform(-5, 5, (200, 3))
        nrm = np.tile([0.0, 0.0, 1.0], (200, 1))
        col = rng.uniform(0, 1, (200, 3))
        cloud = PointCloud(pts, normals=nrm, colors=col)
        d = _describe_all(cloud, np.array([0]), cKDTree(cloud.points))
        assert d.shape == (1, 40)

    def test_deterministic(self):
        cloud = blobby_cloud(seed=46, n=1000)
        rows = detect_iss_keypoints(cloud)
        a = _describe_all(cloud, rows, cKDTree(cloud.points))
        b = _describe_all(cloud, rows, cKDTree(cloud.points))
        np.testing.assert_array_equal(a, b)
        # A keypoint's descriptor does not depend on the others described with it.
        last = _describe_all(cloud, rows[-1:], cKDTree(cloud.points))
        np.testing.assert_array_equal(last, a[-1:])


class TestMatch:
    def test_self_match_is_identity(self):
        cloud = blobby_cloud(seed=47, n=2500)
        matches = match_feat3d(keypoints(cloud), keypoints(cloud))
        assert len(matches) > 0
        np.testing.assert_allclose(matches.source, matches.target, atol=1e-12)

    def test_matches_recover_rigid_motion(self):
        cloud = blobby_cloud(seed=48, n=3000)
        t = RigidTransform(rotation_about_axis((0, 1, 0), np.deg2rad(6.0)), np.array([2.0, 1.0, -3.0]))
        moved = move(cloud, t)
        # source = moved, target = original
        matches = match_feat3d(keypoints(moved), keypoints(cloud))
        assert len(matches) >= 10
        est = solve_weighted_rigid(matches.source, matches.target, np.ones(len(matches)))
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
        matches = match_feat3d(keypoints(f1), keypoints(f0))
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
        b = move(a, RigidTransform(rotation_about_axis((1, 0, 0), 0.05), np.array([1.0, 0.0, 0.0])))
        ab = match_feat3d(keypoints(a), keypoints(b))
        ba = match_feat3d(keypoints(b), keypoints(a))
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
        assert len(load_feat2d(pairs, [700.0, 0.0, 700.0], [np.nan] * 3, INTR)) == 0


# Bit-exact agreement with the np.add.at references above.


@st.composite
def iss_clouds(draw):
    """Small clouds with normals: dense blobs, clouds on a 0.5 mm lattice
    (duplicates and coordinates of exactly +-0), and clouds with no pair
    within ``SALIENT_RADIUS``; at the origin or 550 mm from it; coloured
    or not; with repeated points added."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 250))
    layout = draw(st.sampled_from(["blob", "lattice", "sparse"]))
    if layout == "blob":
        pts = rng.normal(scale=draw(st.sampled_from([2.0, 4.0, 8.0])), size=(n, 3))
    elif layout == "lattice":
        pts = np.round(rng.normal(scale=3.0, size=(n, 3)) * 2.0) / 2.0
    else:
        pts = np.column_stack([7.0 * np.arange(n), np.zeros(n), np.zeros(n)])
        pts += rng.uniform(-0.4, 0.4, size=(n, 3))
    repeats = draw(st.integers(0, 20))
    pts = np.vstack([pts, pts[rng.integers(0, n, size=repeats)]])
    pts += draw(st.sampled_from([np.zeros(3), np.array([0.0, 0.0, 550.0])]))
    normals = rng.normal(size=pts.shape)
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    colors = rng.uniform(0.0, 1.0, size=pts.shape) if draw(st.booleans()) else None
    return PointCloud(pts, normals=normals, colors=colors)


@settings(max_examples=200, deadline=None)
@given(cloud=iss_clouds())
def test_moments_match_add_at_to_the_bit(cloud):
    tree = cKDTree(cloud.points)
    pairs = tree.query_pairs(SALIENT_RADIUS, output_type="ndarray")
    counts, s1, s2 = _neighbourhood_moments(cloud.points, tree)
    want_counts, want_s1, want_s2 = add_at_moments(cloud.points, pairs)
    assert counts.tobytes() == want_counts.tobytes()
    assert s2.tobytes() == want_s2.tobytes()
    # np.add.at sums a first moment whose every term is -0.0 to -0.0, while
    # np.bincount starts at +0.0; adding 0.0 reads each -0.0 as +0.0.
    assert s1.shape == want_s1.shape
    assert s1.tobytes() == (want_s1 + 0.0).tobytes()


def test_detector_ignores_the_sign_of_zero_sums():
    # The cube's x = 0 face is written as -0.0, so np.add.at sums the x
    # moment of the points inside that face to -0.0 and np.bincount to
    # +0.0; the covariances, and with them the keypoints, are the same.
    pts = cube_surface() + [10.0, 0.0, 0.0]
    pts[pts[:, 0] == 0.0, 0] = -0.0
    normals = pts - [10.0, 0.0, 0.0]
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    cloud = PointCloud(pts, normals=normals)
    tree = cKDTree(pts)
    s1 = add_at_moments(pts, tree.query_pairs(SALIENT_RADIUS, output_type="ndarray"))[1]
    assert np.signbit(s1[s1 == 0.0]).sum() > 0
    rows = detect_iss_keypoints(cloud)
    assert rows.tobytes() == add_at_iss(cloud).tobytes()
    corners = np.array([[x, y, z] for x in (0.0, 20.0) for y in (-10.0, 10.0) for z in (-10.0, 10.0)])
    assert len(rows) == 8
    assert cdist(corners, pts[rows]).min(axis=1).max() < 3.0


def _symmetric_lattice() -> PointCloud:
    # Three layers of a 1 mm grid centred on x = 0 and y = 0: the points
    # on those planes have neighbourhoods whose first moments sum to 0.0.
    g = np.arange(-12.0, 12.5)
    x, y = (a.ravel() for a in np.meshgrid(g, g))
    pts = np.concatenate([np.column_stack([x, y, np.full(x.size, z)]) for z in (0.0, 1.0, 2.0)])
    return PointCloud(pts, normals=np.tile([0.0, 0.0, 1.0], (len(pts), 1)))


@pytest.mark.parametrize(
    "cloud",
    [blobby_cloud(seed=52, n=3000), _symmetric_lattice()],
    ids=["blob", "zero_sum_lattice"],
)
def test_detector_holds_few_term_arrays(cloud):
    # The moment sums need one entry per term, n own terms and 2P pair
    # terms; the index array and one reused weight buffer are two such
    # arrays, and the peak must stay near them, on a blob and on a lattice
    # where some first moments sum to exactly 0.0.
    pairs = cKDTree(cloud.points).query_pairs(SALIENT_RADIUS, output_type="ndarray")
    term_array = 8 * (len(cloud) + 2 * len(pairs))
    detect_iss_keypoints(cloud)
    tracemalloc.start()
    try:
        detect_iss_keypoints(cloud)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * term_array


@settings(max_examples=200, deadline=None)
@given(cloud=iss_clouds())
def test_detector_matches_add_at_to_the_bit(cloud):
    rows, want = detect_iss_keypoints(cloud), add_at_iss(cloud)
    assert rows.tobytes() == want.tobytes()
    assert cloud.points[rows].tobytes() == cloud.points[want].tobytes()


@settings(max_examples=100, deadline=None)
@given(cloud=iss_clouds())
def test_descriptor_matches_add_at_to_the_bit(cloud):
    tree = cKDTree(cloud.points)
    rows = np.concatenate([add_at_iss(cloud), np.arange(min(12, len(cloud)))])
    size = 32 + (8 if cloud.colors is not None else 0)
    want = np.array([add_at_describe(cloud, row, tree) for row in rows])
    got = _describe_all(cloud, rows, tree)
    assert got.shape == want.shape == (len(rows), size)
    assert got.tobytes() == want.tobytes()
    none = _describe_all(cloud, rows[:0], tree)
    assert none.shape == (0, size) and none.dtype == np.float64


@pytest.mark.parametrize("coloured", [False, True])
def test_describe_cloud_matches_add_at_on_a_blob(coloured):
    # ISS on the spread subsample, each keypoint described against the whole cloud.
    cloud = blobby_cloud(seed=47, n=3000)
    if coloured:
        rng = np.random.default_rng(48)
        cloud = PointCloud(cloud.points, cloud.normals, rng.uniform(0.0, 1.0, (3000, 3)))
    positions, descriptors, got_spread, _ = describe_cloud(cloud)
    spread = spread_reference(cloud)
    assert got_spread.tobytes() == spread.tobytes()
    rows = spread[add_at_iss(PointCloud(cloud.points[spread]))]
    assert len(rows) > 10
    tree = cKDTree(cloud.points)
    assert np.array_equal(positions, cloud.points[rows])
    assert np.array_equal(descriptors, [add_at_describe(cloud, row, tree) for row in rows])


# The spread subsample.


@st.composite
def lattice_clouds(draw):
    """Clouds on a 0.5 mm lattice, where many pairs lie exactly
    ``SPREAD_SPACING_MM`` apart, with repeated points added, whose ranks
    tie; at the origin or 550 mm from it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 300))
    scale = draw(st.sampled_from([1.0, 2.0, 4.0]))
    pts = np.round(rng.normal(scale=scale, size=(n, 3)) * 2.0) / 2.0
    pts = np.vstack([pts, pts[rng.integers(0, n, size=draw(st.integers(0, 30)))]])
    pts += draw(st.sampled_from([np.zeros(3), np.array([0.0, 0.0, 550.0])]))
    return PointCloud(pts)


@settings(max_examples=200, deadline=None)
@given(cloud=lattice_clouds())
def test_spread_subsample_matches_the_pairwise_definition(cloud):
    rows, neighbours = _spread_subsample(cloud, cKDTree(cloud.points))
    assert rows.tobytes() == spread_reference(cloud).tobytes()
    pts = cloud.points
    near = [(k, j) for k in rows for j in range(len(pts))
            if j != k and np.sum((pts[j] - pts[k]) ** 2) <= SPREAD_SPACING_MM**2]
    assert sorted(map(tuple, neighbours.tolist())) == sorted(near)


def test_describe_cloud_ignores_row_order():
    cloud = blobby_cloud(seed=53, n=3000)
    perm = np.random.default_rng(54).permutation(len(cloud))
    shuffled = PointCloud(cloud.points[perm], normals=cloud.normals[perm])
    (positions, descriptors, spread, heights), (
        got_positions, got_descriptors, got_spread, got_heights
    ) = describe_cloud(cloud), describe_cloud(shuffled)
    assert len(positions) > 10
    # The same points, in the shuffled cloud's rows, at the same heights.
    order = np.argsort(perm[got_spread])
    assert np.array_equal(perm[got_spread][order], spread)
    np.testing.assert_allclose(got_heights[order], heights, rtol=0, atol=1e-9)
    assert got_positions.tobytes() == positions.tobytes()
    np.testing.assert_allclose(got_descriptors, descriptors, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "axis, angle, shift",
    [((0, 0, 1), 0.0, (600.0, 0.0, 0.0)),
     ((1, 2, 3), 1.1, (0.0, 0.0, 0.0)),
     ((-2, 1, 0), 2.5, (-300.0, 400.0, 300.0))],
    ids=["shift", "turn", "both"],
)
def test_spread_subsample_follows_a_rigid_motion(axis, angle, shift):
    cloud = blobby_cloud(seed=55, n=3000)
    moved = move(cloud, RigidTransform(rotation_about_axis(axis, angle), np.array(shift)))
    rows, _ = _spread_subsample(cloud, cKDTree(cloud.points))
    assert 0 < len(rows) < len(cloud)
    assert np.array_equal(_spread_subsample(moved, cKDTree(moved.points))[0], rows)


def heights_reference(cloud, rows):
    """Each row's height by its definition, one row at a time: the mean,
    over the points within ``SPREAD_SPACING_MM`` of it whose normals have a
    positive dot product with its own (itself included), of their offset
    from it along the bisector of the two normals."""
    out = []
    for row in rows:
        point, normal = cloud.points[row], cloud.normals[row]
        near = (np.sum((cloud.points - point) ** 2, axis=1) <= SPREAD_SPACING_MM**2) & (
            cloud.normals @ normal > 0.0
        )
        bisector = cloud.normals[near] + normal
        bisector /= np.linalg.norm(bisector, axis=1, keepdims=True)
        out.append(np.mean(np.sum((cloud.points[near] - point) * bisector, axis=1)))
    return np.array(out)


def heights_of(cloud):
    rows, neighbours = _spread_subsample(cloud, cKDTree(cloud.points))
    return rows, _spread_heights(cloud, rows, neighbours)


def test_spread_heights_match_their_definition():
    blob = blobby_cloud(seed=56, n=3000)
    rng = np.random.default_rng(57)
    noisy = blob.points + rng.normal(scale=0.5, size=blob.points.shape)
    # A sheet facing the other way 0.7 mm inside part of the blob, which the
    # outer sheet's heights must not read.
    cloud = PointCloud(
        np.vstack([noisy, noisy[:400] - 0.7 * blob.normals[:400]]),
        normals=np.vstack([blob.normals, -blob.normals[:400]]),
    )
    rows, heights = heights_of(cloud)
    assert np.any(rows >= len(noisy)) and np.any(rows < 400)
    np.testing.assert_allclose(heights, heights_reference(cloud, rows), rtol=0, atol=1e-9)


def sphere_and_cylinder():
    """Noise-free samples, about two points per mm^2, of a 25 mm sphere and of
    a 30 mm cylinder 60 mm long, with their exact outward normals."""
    rng = np.random.default_rng(58)
    dirs = rng.normal(size=(16000, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    sphere = PointCloud(25.0 * dirs + [0.0, 0.0, 500.0], normals=dirs)
    phi, z = rng.uniform(0.0, 2.0 * np.pi, 22000), rng.uniform(-30.0, 30.0, 22000)
    radial = np.column_stack([np.cos(phi), np.sin(phi), np.zeros_like(phi)])
    cylinder = PointCloud(30.0 * radial + np.column_stack([0 * z, 0 * z, z]), normals=radial)
    return [(sphere, 25.0, lambda p: np.linalg.norm(p - [0.0, 0.0, 500.0], axis=1)),
            (cylinder, 30.0, lambda p: np.linalg.norm(p[:, :2], axis=1))]


@pytest.mark.parametrize("shape", [0, 1], ids=["sphere", "cylinder"])
def test_spread_heights_keep_a_curved_surface_in_place(shape):
    cloud, radius, radius_of = sphere_and_cylinder()[shape]
    rows, heights = heights_of(cloud)
    lifted = cloud.points[rows] + heights[:, None] * cloud.normals[rows]
    np.testing.assert_allclose(radius_of(lifted), radius, rtol=0, atol=1e-9)
    # Measured along each kept point's own normal, the same neighbours would
    # sink it by about s**2 / (2 R).
    sunk = [np.mean((cloud.points[near] - cloud.points[row]) @ cloud.normals[row])
            for row, near in zip(rows[:200], cKDTree(cloud.points).query_ball_point(
                cloud.points[rows[:200]], SPREAD_SPACING_MM))]
    assert np.mean(sunk) < -0.005


def test_spread_heights_average_the_noise_out_of_a_plane():
    rng = np.random.default_rng(59)
    xy = rng.uniform(-20.0, 20.0, size=(3200, 2))
    cloud = PointCloud(
        np.column_stack([xy, 600.0 + rng.normal(scale=0.5, size=len(xy))]),
        normals=np.tile([0.0, 0.0, 1.0], (len(xy), 1)),
    )
    rows, heights = heights_of(cloud)
    lifted = cloud.points[rows, 2] + heights
    assert np.std(cloud.points[rows, 2] - 600.0) > 0.45
    assert np.std(lifted - 600.0) < 0.35
