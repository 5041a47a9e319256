"""Keypoints, descriptors, matching, and 2D-match sidecar loading."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from inhand.errors import MatchFileParseError
from inhand.features import (
    GAMMA21,
    GAMMA32,
    DESCRIBE_RADIUS,
    MATCH_RATIO,
    MIN_NEIGHBORS,
    NONMAX_RADIUS,
    SALIENT_RADIUS,
    N_ANGLE_BINS,
    N_LUM_BINS,
    N_SHELLS,
    CorrespondenceSet,
    Keypoint,
    _describe_all,
    _neighbourhood_moments,
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
    """ISS keypoints with the moments summed by np.add.at."""
    n = len(cloud)
    if n == 0:
        return []
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
        return []
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
    return [Keypoint(pts[i], float(l3[i]), int(canon[i])) for i in idx]


def add_at_describe(cloud, keypoint, tree):
    """The shell/angle (and luminance) histogram summed by np.add.at."""
    nbr = np.asarray(
        tree.query_ball_point(keypoint.position, DESCRIBE_RADIUS), dtype=np.int64
    )
    size = N_SHELLS * N_ANGLE_BINS + (N_LUM_BINS if cloud.colors is not None else 0)
    desc = np.zeros(size)
    if nbr.size == 0:
        return desc
    rel = cloud.points[nbr] - keypoint.position
    dist = np.linalg.norm(rel, axis=1)
    n_kp = cloud.normals[keypoint.index]
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
        (d,) = _describe_all(cloud, [Keypoint(pts[center], 1.0, center)])
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
        kps_moved = [Keypoint(t.apply(kp.position), kp.saliency, kp.index) for kp in kps]
        d0 = _describe_all(cloud, kps)
        d1 = _describe_all(moved, kps_moved)
        assert np.linalg.norm(d0 - d1, axis=1).max() < 1e-6

    def test_no_neighbors_zero_descriptor(self):
        cloud = PointCloud(np.zeros((1, 3)), normals=np.array([[0.0, 0.0, 1.0]]))
        d = _describe_all(cloud, [Keypoint(np.array([100.0, 0.0, 0.0]), 1.0, 0)])
        np.testing.assert_array_equal(d, np.zeros((1, 32)))

    def test_unit_norm_or_zero(self):
        cloud = blobby_cloud(seed=44, n=1200)
        kps = detect_iss_keypoints(cloud)[:8]
        assert kps, "test needs at least one keypoint"
        norms = np.linalg.norm(_describe_all(cloud, kps), axis=1)
        np.testing.assert_allclose(norms, 1.0, rtol=0, atol=1e-12)

    def test_luminance_bins_appended_when_colored(self):
        rng = np.random.default_rng(45)
        pts = rng.uniform(-5, 5, (200, 3))
        nrm = np.tile([0.0, 0.0, 1.0], (200, 1))
        col = rng.uniform(0, 1, (200, 3))
        cloud = PointCloud(pts, normals=nrm, colors=col)
        d = _describe_all(cloud, [Keypoint(pts[0], 1.0, 0)])
        assert d.shape == (1, 40)

    def test_deterministic(self):
        cloud = blobby_cloud(seed=46, n=1000)
        kps = detect_iss_keypoints(cloud)
        a = _describe_all(cloud, kps)
        b = _describe_all(cloud, kps)
        np.testing.assert_array_equal(a, b)
        # A keypoint's descriptor does not depend on the others described with it.
        np.testing.assert_array_equal(_describe_all(cloud, kps[-1:]), a[-1:])


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


def keypoint_bytes(keypoints):
    return [(kp.position.tobytes(), kp.saliency, kp.index) for kp in keypoints]


@settings(max_examples=200, deadline=None)
@given(cloud=iss_clouds())
def test_moments_match_add_at_to_the_bit(cloud):
    tree = cKDTree(cloud.points)
    pairs = tree.query_pairs(SALIENT_RADIUS, output_type="ndarray")
    got = _neighbourhood_moments(cloud.points, tree)
    for g, w in zip(got, add_at_moments(cloud.points, pairs), strict=True):
        assert g.shape == w.shape
        assert g.tobytes() == w.tobytes()


def test_moments_keep_negative_zero_sums():
    # Every term of point 0's x sum is -0.0, as is point 1's y sum: np.add.at
    # keeps -0.0 there, a plain bincount gives +0.0.  Point 1's x*y product
    # is -0.0 too, but einsum's second moment holds +0.0.
    pts = np.array([[-0.0, 1.0, 2.0], [0.0, -0.0, 50.0], [-0.0, 3.0, 2.5]])
    tree = cKDTree(pts)
    pairs = tree.query_pairs(SALIENT_RADIUS, output_type="ndarray")
    counts, s1, s2 = _neighbourhood_moments(pts, tree)
    want = add_at_moments(pts, pairs)
    assert np.signbit(want[1][0, 0]) and np.signbit(want[1][1, 1])
    assert not np.signbit(want[2][1, 0, 1])
    for g, w in zip((counts, s1, s2), want, strict=True):
        assert g.tobytes() == w.tobytes()


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
    # arrays, and the peak must stay near them, also when some first
    # moments sum to 0.0 and the -0.0 check runs.
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
    assert keypoint_bytes(detect_iss_keypoints(cloud)) == keypoint_bytes(add_at_iss(cloud))


@settings(max_examples=100, deadline=None)
@given(cloud=iss_clouds())
def test_descriptor_matches_add_at_to_the_bit(cloud):
    tree = cKDTree(cloud.points)
    at_points = [Keypoint(p, 0.0, i) for i, p in enumerate(cloud.points[:12])]
    lonely = Keypoint(cloud.points[0] + 100.0, 0.0, 0)  # no neighbour in reach
    keypoints = add_at_iss(cloud) + at_points + [lonely]
    size = 32 + (8 if cloud.colors is not None else 0)
    want = np.array([add_at_describe(cloud, kp, tree) for kp in keypoints])
    got = _describe_all(cloud, keypoints)
    assert got.shape == want.shape == (len(keypoints), size)
    assert got.tobytes() == want.tobytes()
    assert _describe_all(cloud, []).shape == (0, size)


@pytest.mark.parametrize("coloured", [False, True])
def test_describe_cloud_matches_add_at_on_a_blob(coloured):
    cloud = blobby_cloud(seed=47, n=3000)
    if coloured:
        rng = np.random.default_rng(48)
        cloud = PointCloud(cloud.points, cloud.normals, rng.uniform(0.0, 1.0, (3000, 3)))
    positions, descriptors = describe_cloud(cloud)
    keypoints = add_at_iss(cloud)
    assert len(keypoints) > 10
    tree = cKDTree(cloud.points)
    assert np.array_equal(positions, [kp.position for kp in keypoints])
    assert np.array_equal(descriptors, [add_at_describe(cloud, kp, tree) for kp in keypoints])
