"""TSDF integration, marching-cubes extraction, smoothing, measurement."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import ConvexHull, cKDTree

from inhand._mc_tables import CORNER_OFFSETS, EDGE_ANCHORS, TRI_TABLE
from inhand.errors import EmptyInputError, EmptyMeshError, OpenMeshError
from inhand.fusion import (
    MIN_COMPONENT_FRACTION,
    SMOOTH_LAMBDA,
    Probe,
    TriangleMesh,
    TsdfVolume,
    _candidate_voxels,
    _prune_components,
    _slice_points,
    _vertex_normals,
    euler_characteristic,
    extract_mesh,
    integrate,
    is_closed,
    laplacian_smooth,
    measure_dimensions,
    signed_volume,
)
from inhand.geometry import PointCloud, RigidTransform, rotation_about_axis


def sphere_cloud(n=20000, radius=35.0, seed=0):
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(n, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return PointCloud(radius * dirs, normals=dirs)


def observe_all(vol, tsdf):
    """Store every voxel of ``vol``, with the given C-ordered tsdf values."""
    vol.keys = np.arange(vol.resolution**3)
    vol.tsdf = np.asarray(tsdf, dtype=np.float64).ravel().copy()
    vol.weights = np.ones(len(vol.keys))
    return vol


def voxel_ids(vol, indices):
    """Linear ids of ``(n, 3)`` grid indices."""
    return np.ravel_multi_index(np.asarray(indices).T, (vol.resolution,) * 3)


def sphere_sdf_volume(radius=35.0, side=100.0, res=80):
    vol = TsdfVolume(center=(0.0, 0.0, 0.0), side_mm=side, resolution=res)
    idx = vol.voxel_indices(np.arange(res**3))
    sd = np.linalg.norm(vol.voxel_centers(idx), axis=1) - radius
    return observe_all(vol, np.clip(sd / vol.truncation, -1.0, 1.0))


@pytest.fixture(scope="module")
def sphere_mesh():
    return extract_mesh(sphere_sdf_volume())


class TestTsdfVolume:
    def test_defaults(self):
        vol = TsdfVolume(center=(10.0, 20.0, 500.0))
        assert vol.voxel_size == pytest.approx(350.0 / 256.0)
        assert vol.truncation == pytest.approx(3.0 * vol.voxel_size)
        # Nothing is observed yet, so nothing is stored.
        assert vol.keys.shape == vol.tsdf.shape == vol.weights.shape == (0,)
        assert vol.keys.dtype == np.int64

    def test_voxel_size_cap(self):
        with pytest.raises(ValueError):
            TsdfVolume(center=(0, 0, 0), side_mm=700.0, resolution=100)
        for center, side in (((0, 0, 0), math.nan), ((0, math.nan, 0), 100.0)):
            with pytest.raises(ValueError, match="finite"):
                TsdfVolume(center=center, side_mm=side, resolution=50)

    def test_voxel_centers_span_volume(self):
        vol = TsdfVolume(center=(0.0, 0.0, 0.0), side_mm=100.0, resolution=50)
        first = vol.voxel_centers(np.array([[0, 0, 0]]))[0]
        last = vol.voxel_centers(np.array([[49, 49, 49]]))[0]
        np.testing.assert_allclose(first, -50.0 + 1.0, atol=1e-12)
        np.testing.assert_allclose(last, 50.0 - 1.0, atol=1e-12)


class TestIntegrate:
    def test_sphere_matches_analytic_signed_distance(self):
        vol = TsdfVolume(center=(0.0, 0.0, 0.0), side_mm=100.0, resolution=80)
        integrate(vol, sphere_cloud(), RigidTransform.identity())
        assert np.all(vol.weights > 0.0)
        centers = vol.voxel_centers(vol.voxel_indices(vol.keys))
        analytic = np.linalg.norm(centers, axis=1) - 35.0
        near = np.abs(analytic) < vol.voxel_size
        got_mm = vol.tsdf[near] * vol.truncation
        want_mm = np.clip(analytic[near], -vol.truncation, vol.truncation)
        assert np.abs(got_mm - want_mm).max() < vol.voxel_size

    def test_empty_cloud_is_a_no_op(self):
        vol = TsdfVolume(center=(0.0, 0.0, 0.0), side_mm=100.0, resolution=40)
        integrate(vol, PointCloud(np.empty((0, 3)), normals=np.empty((0, 3))),
                  RigidTransform.identity())
        assert len(vol.keys) == len(vol.tsdf) == len(vol.weights) == 0

    def test_double_integration_fixed_point(self):
        cloud = sphere_cloud(4000)
        vol = TsdfVolume(center=(0.0, 0.0, 0.0), side_mm=100.0, resolution=60)
        integrate(vol, cloud, RigidTransform.identity())
        once_keys = vol.keys.copy()
        once_tsdf = vol.tsdf.copy()
        once_w = vol.weights.copy()
        integrate(vol, cloud, RigidTransform.identity())
        np.testing.assert_array_equal(vol.keys, once_keys)
        np.testing.assert_array_equal(vol.tsdf, once_tsdf)
        np.testing.assert_array_equal(vol.weights, 2.0 * once_w)

    def test_order_insensitive(self):
        a = sphere_cloud(3000, seed=1)
        b = sphere_cloud(3000, seed=2)
        vol_ab = TsdfVolume(center=(0.0, 0.0, 0.0), side_mm=100.0, resolution=60)
        integrate(vol_ab, a, RigidTransform.identity())
        integrate(vol_ab, b, RigidTransform.identity())
        vol_ba = TsdfVolume(center=(0.0, 0.0, 0.0), side_mm=100.0, resolution=60)
        integrate(vol_ba, b, RigidTransform.identity())
        integrate(vol_ba, a, RigidTransform.identity())
        np.testing.assert_array_equal(vol_ab.keys, vol_ba.keys)
        np.testing.assert_array_equal(vol_ab.weights, vol_ba.weights)
        np.testing.assert_allclose(vol_ab.tsdf, vol_ba.tsdf, atol=1e-9)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_row_order_insensitive(self, seed):
        rng = np.random.default_rng(seed)
        sphere = sphere_cloud(3000, seed=seed)
        noisy = PointCloud(sphere.points + rng.normal(scale=0.3, size=(3000, 3)),
                           normals=sphere.normals)
        order = rng.permutation(3000)
        permuted = PointCloud(noisy.points[order], normals=noisy.normals[order])
        pose = RigidTransform(
            rotation_about_axis((1.0, 2.0, 3.0), 0.3), np.array([1.0, -2.0, 0.5])
        )
        vol = TsdfVolume(center=(0.0, 0.0, 0.0), side_mm=100.0, resolution=60)
        vol_permuted = TsdfVolume(center=(0.0, 0.0, 0.0), side_mm=100.0, resolution=60)
        integrate(vol, noisy, pose)
        integrate(vol_permuted, permuted, pose)
        assert vol.keys.tobytes() == vol_permuted.keys.tobytes()
        assert vol.tsdf.tobytes() == vol_permuted.tsdf.tobytes()
        assert vol.weights.tobytes() == vol_permuted.weights.tobytes()

    def test_points_outside_volume_ignored(self):
        vol = TsdfVolume(center=(0.0, 0.0, 0.0), side_mm=100.0, resolution=40)
        far = PointCloud(
            np.full((50, 3), 400.0), normals=np.tile([0.0, 0.0, 1.0], (50, 1))
        )
        integrate(vol, far, RigidTransform.identity())
        assert len(vol.keys) == len(vol.weights) == 0

    def test_normals_required(self):
        vol = TsdfVolume(center=(0.0, 0.0, 0.0), side_mm=100.0, resolution=40)
        with pytest.raises(ValueError):
            integrate(vol, PointCloud(np.zeros((5, 3))), RigidTransform.identity())

    def test_pose_is_applied(self):
        cloud = sphere_cloud(3000)
        shift = RigidTransform(np.eye(3), np.array([200.0, 0.0, 0.0]))
        vol = TsdfVolume(center=(200.0, 0.0, 0.0), side_mm=100.0, resolution=60)
        integrate(vol, cloud, shift)
        touched = vol.voxel_centers(vol.voxel_indices(vol.keys))
        assert np.abs(np.linalg.norm(touched - [200.0, 0.0, 0.0], axis=1) - 35.0).max() \
            <= vol.truncation + vol.voxel_size


class TestExtractMesh:
    def test_sphere_radius_and_closure(self, sphere_mesh):
        r = np.linalg.norm(sphere_mesh.vertices, axis=1)
        assert np.abs(r - 35.0).max() < 1.25  # one voxel at this resolution
        assert is_closed(sphere_mesh)
        assert euler_characteristic(sphere_mesh) == 2

    def test_vertices_on_zero_level(self, sphere_mesh):
        vol = sphere_sdf_volume()
        coords = (sphere_mesh.vertices - vol.origin) / vol.voxel_size
        rounded = np.round(coords)
        frac_axis = np.argmax(np.abs(coords - rounded), axis=1)
        lo = np.floor(coords + 1e-9).astype(int)
        t = coords[np.arange(len(coords)), frac_axis] - lo[np.arange(len(lo)), frac_axis]
        hi = lo.copy()
        hi[np.arange(len(hi)), frac_axis] += 1
        v_lo = vol.tsdf[voxel_ids(vol, lo)]
        v_hi = vol.tsdf[voxel_ids(vol, hi)]
        assert np.abs(v_lo + t * (v_hi - v_lo)).max() < 1e-6

    def test_outward_normals_and_positive_volume(self, sphere_mesh):
        radial = sphere_mesh.vertices / np.linalg.norm(
            sphere_mesh.vertices, axis=1, keepdims=True
        )
        normals = laplacian_smooth(sphere_mesh, 0).normals
        assert np.einsum("ij,ij->i", normals, radial).min() > 0.9
        assert signed_volume(sphere_mesh) > 0.0

    def test_all_positive_raises(self):
        vol = observe_all(
            TsdfVolume(center=(0.0, 0.0, 0.0), side_mm=100.0, resolution=40),
            np.ones(40**3),
        )
        with pytest.raises(EmptyMeshError):
            extract_mesh(vol)

    def test_tiny_component_pruned(self):
        vol = sphere_sdf_volume()
        # Carve a tiny far-away blob: a couple of negative voxels in a corner.
        vol.tsdf[voxel_ids(vol, np.argwhere(np.ones((2, 2, 2))) + 2)] = -0.5
        mesh = extract_mesh(vol)
        corner = vol.voxel_centers(np.array([[3, 3, 3]]))[0]
        dist_to_corner = np.linalg.norm(mesh.vertices - corner, axis=1)
        assert dist_to_corner.min() > 5.0  # blob triangles are gone
        assert is_closed(mesh)

    def test_unobserved_cells_not_polygonized(self):
        vol = sphere_sdf_volume()
        keep = vol.voxel_indices(vol.keys)[:, 2] < 40  # unobserve the upper half
        vol.keys, vol.tsdf, vol.weights = vol.keys[keep], vol.tsdf[keep], vol.weights[keep]
        mesh = extract_mesh(vol)
        zmax = vol.voxel_centers(np.array([[0, 0, 39]]))[0, 2]
        assert mesh.vertices[:, 2].max() <= zmax + 1e-9
        assert not is_closed(mesh)

    def test_deterministic(self):
        a = extract_mesh(sphere_sdf_volume())
        b = extract_mesh(sphere_sdf_volume())
        np.testing.assert_array_equal(a.vertices, b.vertices)
        np.testing.assert_array_equal(a.triangles, b.triangles)

    def test_from_integrated_cloud(self):
        vol = TsdfVolume(center=(0.0, 0.0, 0.0), side_mm=100.0, resolution=80)
        integrate(vol, sphere_cloud(40000), RigidTransform.identity())
        mesh = extract_mesh(vol)
        r = np.linalg.norm(mesh.vertices, axis=1)
        assert abs(np.median(r) - 35.0) < 0.5
        assert is_closed(mesh)
        assert euler_characteristic(mesh) == 2

    def test_peak_memory_of_a_fused_sphere(self):
        # A fused volume stores a shell of voxels.  The face ids hold one
        # int64 per triangle corner; the extraction's peak, which lies in
        # the component pruning, must stay within 15 such arrays.
        vol = TsdfVolume(center=(0.0, 0.0, 0.0), side_mm=100.0, resolution=96)
        integrate(vol, sphere_cloud(), RigidTransform.identity())
        face_id_array = 8 * 3 * len(extract_mesh(vol).triangles)
        tracemalloc.start()
        try:
            extract_mesh(vol)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 15 * face_id_array


# Dense reference: the volume as two full float64 grids, tsdf initialized
# to +1 and weights to 0, as fusion kept it before storage became sparse.


def dense_candidate_voxels(vol, points):
    """Unique voxel indices whose centers can lie within truncation of a point."""
    reach = vol.truncation / vol.voxel_size + math.sqrt(3.0) / 2.0
    r = int(math.ceil(reach))
    axis = np.arange(-r, r + 1)
    offs = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    offs = offs[np.linalg.norm(offs, axis=1) <= reach]
    base = np.round((points - vol.origin) / vol.voxel_size).astype(np.int64)
    cand = (base[:, None, :] + offs[None, :, :]).reshape(-1, 3)
    ok = np.all((cand >= 0) & (cand < vol.resolution), axis=1)
    cand = cand[ok]
    if len(cand) == 0:
        return cand
    lin = (cand[:, 0] * vol.resolution + cand[:, 1]) * vol.resolution + cand[:, 2]
    keep = np.unique(lin)
    out = np.empty((len(keep), 3), dtype=np.int64)
    out[:, 0], rem = divmod(keep, vol.resolution * vol.resolution)
    out[:, 1], out[:, 2] = divmod(rem, vol.resolution)
    return out


def dense_integrate(tsdf, weights, vol, cloud, pose):
    """Fuse one cloud into the dense grids ``tsdf`` and ``weights`` of ``vol``'s shape."""
    pts = pose.apply(cloud.points)
    nrm = cloud.normals @ pose.rotation.T
    lo = vol.center - vol.side_mm / 2.0
    hi = vol.center + vol.side_mm / 2.0
    inside = np.all((pts >= lo) & (pts <= hi), axis=1)
    pts, nrm = pts[inside], nrm[inside]
    if len(pts) == 0:
        return
    voxels = dense_candidate_voxels(vol, pts)
    if len(voxels) == 0:
        return
    centers = vol.voxel_centers(voxels)
    dist, nearest = cKDTree(pts).query(centers)
    in_band = dist <= vol.truncation
    voxels, centers, nearest = voxels[in_band], centers[in_band], nearest[in_band]
    sd = np.einsum("ij,ij->i", centers - pts[nearest], nrm[nearest])
    sd = np.clip(sd / vol.truncation, -1.0, 1.0)
    ix, iy, iz = voxels.T
    w_old = weights[ix, iy, iz]
    t_old = tsdf[ix, iy, iz]
    w_new = w_old + 1.0
    tsdf[ix, iy, iz] = (t_old * w_old + sd) / w_new
    weights[ix, iy, iz] = w_new


def dense_extract_mesh(tsdf, weights, vol):
    """Marching cubes over the cells of the dense grids whose corners are all observed."""
    res = vol.resolution
    inside = tsdf < 0.0
    observed = weights > 0.0
    n = res - 1
    case = np.zeros((n, n, n), dtype=np.int32)
    all_observed = np.ones((n, n, n), dtype=bool)
    for bit, (ox, oy, oz) in enumerate(CORNER_OFFSETS):
        case |= inside[ox : ox + n, oy : oy + n, oz : oz + n].astype(np.int32) << bit
        all_observed &= observed[ox : ox + n, oy : oy + n, oz : oz + n]
    active = (case != 0) & (case != 255) & all_observed
    ix, iy, iz = np.nonzero(active)
    anchor = EDGE_ANCHORS[:, :3]
    axis = EDGE_ANCHORS[:, 3].astype(np.int64)
    gx = ix[:, None] + anchor[None, :, 0]
    gy = iy[:, None] + anchor[None, :, 1]
    gz = iz[:, None] + anchor[None, :, 2]
    edge_ids = ((gx * res + gy) * res + gz) * 3 + axis[None, :]
    tri_edges = TRI_TABLE[case[ix, iy, iz]]
    valid = tri_edges >= 0
    face_ids = np.take_along_axis(
        edge_ids, np.where(valid, tri_edges, 0).astype(np.int64), axis=1
    )[valid]
    unique_ids, tri_flat = np.unique(face_ids, return_inverse=True)
    ax = unique_ids % 3
    vx, rem = np.divmod(unique_ids // 3, res * res)
    vy, vz = np.divmod(rem, res)
    lo = np.column_stack([vx, vy, vz])
    hi = lo.copy()
    hi[np.arange(len(hi)), ax] += 1
    v_lo = tsdf[lo[:, 0], lo[:, 1], lo[:, 2]]
    v_hi = tsdf[hi[:, 0], hi[:, 1], hi[:, 2]]
    t = v_lo / (v_lo - v_hi)
    step = np.zeros((len(t), 3))
    step[np.arange(len(t)), ax] = t
    vertices = vol.voxel_centers(lo) + step * vol.voxel_size
    vertices, triangles = _prune_components(vertices, tri_flat.reshape(-1, 3)[:, ::-1])
    return TriangleMesh(vertices, triangles, _vertex_normals(vertices, triangles))


def overlapping_sphere_poses():
    """Three sphere scans at poses that revisit voxels, reach new ones and leave the volume."""
    rz = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    c, s = math.cos(0.4), math.sin(0.4)
    rx = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    return [
        (sphere_cloud(3000, seed=1), RigidTransform.identity()),
        (sphere_cloud(3000, seed=2), RigidTransform(rz, np.array([4.0, 0.0, 0.0]))),
        (sphere_cloud(3000, seed=3), RigidTransform(rx, np.array([0.0, -3.0, 20.0]))),
    ]


def lattice_shell_cloud(radius=6.0, step=0.5):
    """The points of a ``step`` lattice within half a step of a sphere, with
    radial normals: a voxel centre of a ``step`` grid offset by half a step
    often has several nearest points at one distance, with other normals."""
    axis = step * np.arange(-math.ceil(radius / step) - 1, math.ceil(radius / step) + 2)
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    shell = grid[np.abs(np.linalg.norm(grid, axis=1) - radius) <= step / 2.0]
    return PointCloud(shell, normals=shell / np.linalg.norm(shell, axis=1, keepdims=True))


class TestSparseAgainstDense:
    def test_integrate_is_the_dense_one_where_nearest_points_tie(self):
        # 0.5 mm voxels whose centres sit a quarter voxel off the lattice.
        vol = TsdfVolume(center=(0.0, 0.0, 0.0), side_mm=30.0, resolution=60)
        tsdf = np.ones((60, 60, 60))
        weights = np.zeros((60, 60, 60))
        cloud = lattice_shell_cloud()
        rz = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        poses = [
            RigidTransform.identity(),
            RigidTransform(rz, np.array([0.5, 0.0, 0.0])),
            RigidTransform(np.eye(3), np.array([0.0, -1.0, 1.5])),
        ]
        tied = np.empty(0, dtype=np.int64)
        for pose in poses:
            pts = pose.apply(cloud.points)
            ids = _candidate_voxels(vol, pts)
            dist, _ = cKDTree(pts).query(vol.voxel_centers(vol.voxel_indices(ids)), k=2)
            tie = (dist[:, 0] == dist[:, 1]) & (dist[:, 0] <= vol.truncation)
            assert np.any(tie)
            tied = np.union1d(tied, ids[tie])
            integrate(vol, cloud, pose)
            dense_integrate(tsdf, weights, vol, cloud, pose)
            # A tie changes no distance, so the same voxels are observed.
            np.testing.assert_array_equal(vol.keys, np.flatnonzero(weights > 0.0))
            assert vol.weights.tobytes() == weights.ravel()[vol.keys].tobytes()
            # Either of two equally near points may set a voxel's value, so
            # only a voxel whose nearest point was unique in every frame so
            # far must hold the dense value.
            unique = np.isin(vol.keys, tied, invert=True)
            assert unique.any()
            assert vol.tsdf[unique].tobytes() == tsdf.ravel()[vol.keys[unique]].tobytes()

    def test_integrate_stores_exactly_the_observed_voxels(self):
        vol = TsdfVolume(center=(0.0, 0.0, 0.0), side_mm=100.0, resolution=60)
        tsdf = np.ones((60, 60, 60))
        weights = np.zeros((60, 60, 60))
        for cloud, pose in overlapping_sphere_poses():
            integrate(vol, cloud, pose)
            dense_integrate(tsdf, weights, vol, cloud, pose)
            np.testing.assert_array_equal(vol.keys, np.flatnonzero(weights > 0.0))
            assert vol.tsdf.tobytes() == tsdf.ravel()[vol.keys].tobytes()
            assert vol.weights.tobytes() == weights.ravel()[vol.keys].tobytes()
        # The poses both revisited voxels and reached new ones.
        assert set(np.unique(vol.weights)) == {1.0, 2.0, 3.0}

    def test_extracted_mesh_is_the_dense_one(self):
        vol = TsdfVolume(center=(0.0, 0.0, 0.0), side_mm=100.0, resolution=60)
        tsdf = np.ones((60, 60, 60))
        weights = np.zeros((60, 60, 60))
        for cloud, pose in overlapping_sphere_poses():
            integrate(vol, cloud, pose)
            dense_integrate(tsdf, weights, vol, cloud, pose)
        got = extract_mesh(vol)
        want = dense_extract_mesh(tsdf, weights, vol)
        assert got.vertices.tobytes() == want.vertices.tobytes()
        assert got.triangles.tobytes() == want.triangles.tobytes()
        assert got.normals is None
        assert laplacian_smooth(got, 0).normals.tobytes() == want.normals.tobytes()

    def test_extracted_mesh_is_the_dense_one_at_the_volume_faces(self):
        # Zero crossings in every slice.  A cell anchored on a last slice
        # has no far corners; the voxels its key offsets wrap to must not
        # stand in for them.
        tsdf = np.random.default_rng(7).uniform(-1.0, 1.0, (6, 6, 6))
        vol = observe_all(TsdfVolume(center=(0.0, 0.0, 0.0), side_mm=12.0, resolution=6), tsdf)
        got = extract_mesh(vol)
        want = dense_extract_mesh(tsdf, np.ones_like(tsdf), vol)
        assert got.vertices.tobytes() == want.vertices.tobytes()
        assert got.triangles.tobytes() == want.triangles.tobytes()


@settings(max_examples=80, deadline=None)
@given(
    res=st.integers(2, 9),
    voxel_mm=st.sampled_from([0.5, 1.0, 2.5]),
    data=st.data(),
)
def test_candidate_voxels_match_unique_oracle(res, voxel_mm, data):
    vol = TsdfVolume(center=(10.0, -5.0, 3.0), side_mm=res * voxel_mm, resolution=res)
    half = vol.side_mm / 2.0
    # Faces and corners of the volume round to base voxel -1 or res.
    offset = st.one_of(st.sampled_from([-half, 0.0, half]), st.floats(-half, half))
    pts = vol.center + np.array(
        data.draw(st.lists(st.tuples(offset, offset, offset), min_size=1, max_size=20))
    )
    got = _candidate_voxels(vol, pts)
    want = voxel_ids(vol, dense_candidate_voxels(vol, pts))
    np.testing.assert_array_equal(got, want)


def matrix_candidate_voxels(vol, points):
    """The previous ``_candidate_voxels``: marks every (base voxel, offset) id at once."""
    reach = vol.truncation / vol.voxel_size + math.sqrt(3.0) / 2.0
    r = int(math.ceil(reach))
    axis = np.arange(-r, r + 1)
    offs = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    offs = offs[np.linalg.norm(offs, axis=1) <= reach]
    base = np.round((points - vol.origin) / vol.voxel_size).astype(np.int64)
    lo = base.min(axis=0) - r
    shape = base.max(axis=0) + r + 1 - lo
    strides = np.array([shape[1] * shape[2], shape[2], 1])
    base_ids = np.unique((base - lo) @ strides)
    grid = np.zeros(shape, dtype=bool)
    grid.ravel()[(base_ids[:, None] + offs @ strides).ravel()] = True
    cand = np.argwhere(grid) + lo
    cand = cand[np.all((cand >= 0) & (cand < vol.resolution), axis=1)]
    return np.ravel_multi_index(cand.T, (vol.resolution,) * 3)


@settings(max_examples=60, deadline=None)
@given(
    res=st.integers(2, 24),
    voxel_mm=st.sampled_from([0.5, 1.0, 2.5]),
    data=st.data(),
)
def test_candidate_voxels_match_id_matrix_oracle(res, voxel_mm, data):
    vol = TsdfVolume(center=(10.0, -5.0, 3.0), side_mm=res * voxel_mm, resolution=res)
    half = vol.side_mm / 2.0
    # Half the coordinates lie within r voxels inside a face of the volume,
    # where the padded grid reaches past the volume and is clipped.
    r = math.ceil(vol.truncation / vol.voxel_size + math.sqrt(3.0) / 2.0)
    depth = st.floats(0.0, min(r * voxel_mm, half))
    near_face = st.builds(lambda d, lo: (d - half) if lo else (half - d), depth, st.booleans())
    offset = st.one_of(near_face, st.floats(-half, half))
    pts = vol.center + np.array(
        data.draw(st.lists(st.tuples(offset, offset, offset), min_size=1, max_size=60))
    )
    np.testing.assert_array_equal(
        _candidate_voxels(vol, pts), matrix_candidate_voxels(vol, pts)
    )


def row_unique_edges(triangles):
    """Edges as they were built before the 1-D key: row-wise np.unique."""
    e = np.vstack([triangles[:, [0, 1]], triangles[:, [1, 2]], triangles[:, [2, 0]]])
    return np.unique(np.sort(e, axis=1), axis=0)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_vertices=st.integers(3, 40),
    n_triangles=st.integers(0, 80),
)
def test_edges_match_row_unique(seed, n_vertices, n_triangles):
    rng = np.random.default_rng(seed)
    triangles = np.argsort(rng.random((n_triangles, n_vertices)), axis=1)[:, :3]
    mesh = TriangleMesh(rng.normal(size=(n_vertices, 3)), triangles)
    want = row_unique_edges(mesh.triangles)
    assert mesh.edges.dtype == want.dtype
    assert mesh.edges.shape == want.shape
    assert np.array_equal(mesh.edges, want)


def unique_isin_closed(mesh):
    """``is_closed`` as it was before the sort: ``np.unique`` and ``np.isin``."""
    if len(mesh.triangles) == 0:
        return False
    t = mesh.triangles
    directed = np.vstack([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
    keys = directed[:, 0] * len(mesh.vertices) + directed[:, 1]
    if len(np.unique(keys)) != len(keys):
        return False
    swapped = directed[:, 1] * len(mesh.vertices) + directed[:, 0]
    return bool(np.all(np.isin(keys, swapped)))


def hull_triangles(seed, n_points):
    """Random points and the outward-wound triangles of their convex hull.

    The first ``4 + (n_points - 4) // 2`` points lie on the unit sphere, so
    each is a hull vertex; the rest lie inside and are in no triangle.
    """
    pts = np.random.default_rng(seed).normal(size=(n_points, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts[4 + (n_points - 4) // 2 :] *= 0.5
    hull = ConvexHull(pts)
    tri = hull.simplices.copy()
    a, b, c = (pts[tri[:, i]] for i in range(3))
    inward = np.einsum("ij,ij->i", np.cross(b - a, c - a), hull.equations[:, :3]) < 0.0
    tri[inward] = tri[inward][:, ::-1]
    return pts, tri


@settings(max_examples=150, deadline=None)
@given(
    surface=st.one_of(
        st.just(None), st.tuples(st.integers(0, 2**32 - 1), st.integers(4, 60))
    ),
    edit=st.sampled_from(["none", "flip", "remove", "duplicate", "double"]),
    data=st.data(),
)
def test_is_closed_matches_unique_isin(sphere_mesh, surface, edit, data):
    if surface is None:
        vertices, tri = sphere_mesh.vertices, sphere_mesh.triangles.copy()
    else:
        vertices, tri = hull_triangles(*surface)
    k = data.draw(st.integers(0, len(tri) - 1), label="triangle")
    if edit == "flip":
        tri[k] = tri[k, ::-1]
    elif edit == "remove":
        tri = np.delete(tri, k, axis=0)
    elif edit == "duplicate":
        tri = np.insert(tri, data.draw(st.integers(0, len(tri))), tri[k], axis=0)
    elif edit == "double":  # each directed edge twice, each with its reverse
        tri = np.vstack([tri, tri])
    mesh = TriangleMesh(vertices, tri)
    assert is_closed(mesh) == unique_isin_closed(mesh) == (edit == "none")


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_vertices=st.integers(3, 8),
    n_triangles=st.integers(0, 20),
)
def test_is_closed_matches_unique_isin_on_triangle_soups(seed, n_vertices, n_triangles):
    rng = np.random.default_rng(seed)
    triangles = np.argsort(rng.random((n_triangles, n_vertices)), axis=1)[:, :3]
    mesh = TriangleMesh(rng.normal(size=(n_vertices, 3)), triangles)
    assert is_closed(mesh) == unique_isin_closed(mesh)


def isin_prune_components(vertices, triangles):
    """``_prune_components`` as it was before the sort: ``np.isin`` and ``np.unique``."""
    nv, nt = len(vertices), len(triangles)
    e = np.vstack([triangles[:, [0, 1]], triangles[:, [1, 2]], triangles[:, [2, 0]]])
    adj = coo_matrix((np.ones(len(e)), (e[:, 0], e[:, 1])), shape=(nv, nv))
    _, labels = connected_components(adj, directed=False)
    tri_labels = labels[triangles[:, 0]]
    counts = np.bincount(tri_labels)
    keep_labels = np.nonzero(counts >= MIN_COMPONENT_FRACTION * nt)[0]
    triangles = triangles[np.isin(tri_labels, keep_labels)]
    used = np.unique(triangles)
    remap = np.full(nv, -1, dtype=np.int64)
    remap[used] = np.arange(len(used))
    return vertices[used], remap[triangles]


@settings(max_examples=60, deadline=None)
@given(surfaces=st.lists(
    st.tuples(st.integers(0, 2**32 - 1), st.one_of(st.integers(4, 8), st.integers(100, 400))),
    min_size=1,
    max_size=6,
))
def test_prune_components_matches_isin(surfaces):
    # Disjoint hulls: the small ones can fall below the size threshold of
    # the large ones, and points inside a hull are in no triangle.
    parts, offset = [], 0
    vertices = []
    for i, surface in enumerate(surfaces):
        pts, tri = hull_triangles(*surface)
        vertices.append(pts + 10.0 * i)
        parts.append(tri + offset)
        offset += len(pts)
    vertices, triangles = np.vstack(vertices), np.vstack(parts)
    got = _prune_components(vertices, triangles)
    want = isin_prune_components(vertices, triangles)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()


@pytest.mark.parametrize("order", ["along", "against", "shuffled"])
def test_prune_components_keeps_a_long_chain_among_many_small_ones(order):
    # A strip of 3000 triangles, whose vertex ids run along it, against it
    # or at random, beside 400 lone triangles (dropped) and 20 closed fans
    # of 50 triangles (kept, at 1 % of 4400): 421 components, and one of
    # them has to carry its smallest id along 1500 edges.
    rng = np.random.default_rng(61)
    strip = np.arange(3000)[:, None] + np.array([0, 1, 2])
    strip[1::2] = strip[1::2][:, ::-1]
    lone = 3002 + 3 * np.arange(400)[:, None] + np.array([0, 1, 2])
    hub = 4202 + 51 * np.arange(20)[:, None, None]
    rim = hub + 1 + np.arange(50)[:, None]
    fans = np.concatenate(
        [np.broadcast_to(hub, rim.shape), rim, hub + 1 + (np.arange(1, 51) % 50)[:, None]],
        axis=2,
    ).reshape(-1, 3)
    triangles = np.vstack([strip, lone, fans])
    nv = triangles.max() + 1
    relabel = {
        "along": np.arange(nv),
        "against": np.arange(nv)[::-1].copy(),
        "shuffled": rng.permutation(nv),
    }[order]
    triangles = relabel[triangles][rng.permutation(len(triangles))]
    vertices = rng.normal(size=(nv, 3))
    got = _prune_components(vertices, triangles)
    want = isin_prune_components(vertices, triangles)
    assert len(got[1]) == 3000 + 20 * 50
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()


class TestTriangleMesh:
    def test_edges_cached_read_only_and_row_unique(self, sphere_mesh):
        assert sphere_mesh.edges is sphere_mesh.edges
        assert not sphere_mesh.edges.flags.writeable
        assert np.array_equal(sphere_mesh.edges, row_unique_edges(sphere_mesh.triangles))

    @pytest.mark.parametrize("n_vertices", [0, 4])
    def test_no_triangles_no_edges(self, n_vertices):
        mesh = TriangleMesh(np.zeros((n_vertices, 3)), np.zeros((0, 3), dtype=np.int64))
        assert mesh.edges.shape == (0, 2)
        assert mesh.edges.dtype == np.int64

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            TriangleMesh(np.zeros((3, 3)), [[0, 1, 3]])

    def test_repeated_index_rejected(self):
        with pytest.raises(ValueError):
            TriangleMesh(np.zeros((3, 3)), [[0, 1, 1]])

    def test_single_triangle_not_closed(self):
        mesh = TriangleMesh(np.eye(3), [[0, 1, 2]])
        assert not is_closed(mesh)
        with pytest.raises(OpenMeshError):
            signed_volume(mesh)


def flat_grid_mesh(n=8, spacing=5.0):
    xs, ys = np.meshgrid(np.arange(n) * spacing, np.arange(n) * spacing, indexing="ij")
    verts = np.column_stack([xs.ravel(), ys.ravel(), np.zeros(n * n)])
    tris = []
    for i in range(n - 1):
        for j in range(n - 1):
            a = i * n + j
            b = a + 1
            c = a + n
            d = c + 1
            tris.append([a, b, d])
            tris.append([a, d, c])
    return TriangleMesh(verts, np.array(tris))


def add_at_vertex_normals(vertices, triangles):
    """The area-weighted vertex normals summed with ``np.add.at``, corner by corner."""
    a, b, c = (vertices[triangles[:, i]] for i in range(3))
    face_n = np.cross(b - a, c - a)
    out = np.zeros_like(vertices)
    for i in range(3):
        np.add.at(out, triangles[:, i], face_n)
    norms = np.linalg.norm(out, axis=1, keepdims=True)
    return out / np.where(norms > 0.0, norms, 1.0)


def add_at_smooth(mesh, iterations):
    """Laplacian smoothing with the degree and neighbour sums of ``np.add.at``."""
    edges = mesh.edges
    degree = np.zeros(len(mesh.vertices))
    np.add.at(degree, edges[:, 0], 1.0)
    np.add.at(degree, edges[:, 1], 1.0)
    verts = mesh.vertices.copy()
    for _ in range(iterations):
        acc = np.zeros_like(verts)
        np.add.at(acc, edges[:, 0], verts[edges[:, 1]])
        np.add.at(acc, edges[:, 1], verts[edges[:, 0]])
        verts += SMOOTH_LAMBDA * (acc / degree[:, None] - verts)
    return verts, add_at_vertex_normals(verts, mesh.triangles)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_vertices=st.integers(3, 40),
    extra_triangles=st.integers(0, 60),
    on_grid=st.booleans(),
    iterations=st.integers(0, 3),
)
def test_mesh_sums_are_those_of_add_at(seed, n_vertices, extra_triangles, on_grid, iterations):
    rng = np.random.default_rng(seed)
    # Coarse grid coordinates give flat and repeated faces, so zero and
    # negative-zero normal sums occur.
    if on_grid:
        vertices = rng.integers(-2, 3, size=(n_vertices, 3)).astype(float)
    else:
        vertices = rng.normal(scale=10.0, size=(n_vertices, 3))
    # Triangles over runs of three consecutive vertices connect every vertex
    # to an edge.
    cover = [(i, (i + 1) % n_vertices, (i + 2) % n_vertices) for i in range(0, n_vertices, 2)]
    extra = [rng.choice(n_vertices, 3, replace=False) for _ in range(extra_triangles)]
    mesh = TriangleMesh(vertices, np.array(cover + extra).reshape(-1, 3))
    assert _vertex_normals(vertices, mesh.triangles).tobytes() == (
        add_at_vertex_normals(vertices, mesh.triangles).tobytes()
    )
    got = laplacian_smooth(mesh, iterations)
    want_vertices, want_normals = add_at_smooth(mesh, iterations)
    assert got.vertices.tobytes() == want_vertices.tobytes()
    assert got.normals.tobytes() == want_normals.tobytes()


class TestLaplacianSmooth:
    def test_zero_iterations_identity(self, sphere_mesh):
        out = laplacian_smooth(sphere_mesh, 0)
        np.testing.assert_array_equal(out.vertices, sphere_mesh.vertices)

    @pytest.mark.parametrize("iterations", [0, 3])
    def test_normals_are_those_of_the_returned_vertices(self, sphere_mesh, iterations):
        bare = TriangleMesh(sphere_mesh.vertices, sphere_mesh.triangles)
        out = laplacian_smooth(bare, iterations)
        want = _vertex_normals(out.vertices, out.triangles)
        assert out.normals.tobytes() == want.tobytes()

    def test_noise_shrinks(self, sphere_mesh):
        rng = np.random.default_rng(5)
        radial = sphere_mesh.vertices / np.linalg.norm(
            sphere_mesh.vertices, axis=1, keepdims=True
        )
        noisy = TriangleMesh(
            sphere_mesh.vertices + radial * rng.uniform(-1.0, 1.0, (len(radial), 1)),
            sphere_mesh.triangles,
        )
        smoothed = laplacian_smooth(noisy, 10)

        def radial_rms(mesh):
            r = np.linalg.norm(mesh.vertices, axis=1)
            return np.sqrt(np.mean((r - r.mean()) ** 2))

        assert radial_rms(smoothed) < radial_rms(noisy)

    def test_counts_and_topology_preserved(self, sphere_mesh):
        out = laplacian_smooth(sphere_mesh, 3)
        assert len(out.vertices) == len(sphere_mesh.vertices)
        np.testing.assert_array_equal(out.triangles, sphere_mesh.triangles)

    def test_flat_grid_interior_fixed(self):
        mesh = flat_grid_mesh()
        # One simultaneous update: every strictly interior vertex averages
        # to itself on the regular grid. Further iterations would let the
        # shrinking boundary pull the interior inward.
        out = laplacian_smooth(mesh, 1)
        n = 8
        interior = [
            i * n + j for i in range(1, n - 1) for j in range(1, n - 1)
        ]
        np.testing.assert_allclose(
            out.vertices[interior], mesh.vertices[interior], atol=1e-9
        )


class TestMeasureDimensions:
    def test_sphere_probes(self, sphere_mesh):
        probes = [
            Probe("height", "extent", axis=2),
            Probe("diameter", "slice_diameter", axis=2, position=0.0),
            Probe("volume", "volume"),
        ]
        got = {p.name: measure_dimensions(sphere_mesh, p) for p in probes}
        assert got["height"] == pytest.approx(70.0, abs=2 * 1.25)
        assert got["diameter"] == pytest.approx(70.0, abs=2 * 1.25)
        assert got["volume"] == pytest.approx(4.0 / 3.0 * math.pi * 35.0**3, rel=0.02)

    @pytest.mark.parametrize("position", [-34.0, -28.0, -25.0, 26.0, 32.5])
    def test_small_slice_diameter_is_the_all_pairs_maximum(self, sphere_mesh, position):
        pts = _slice_points(sphere_mesh, 2, position)
        assert 2 <= len(pts) <= 400
        diff = pts[:, None, :] - pts[None, :, :]
        want = float(np.sqrt((diff**2).sum(-1)).max())
        probe = Probe("d", "slice_diameter", axis=2, position=position)
        assert measure_dimensions(sphere_mesh, probe).hex() == want.hex()

    def test_unit_sphere(self):
        mesh = extract_mesh(sphere_sdf_volume(radius=1.0, side=3.0, res=60))
        diameter = measure_dimensions(mesh, Probe("d", "slice_diameter", axis=1, position=0.0))
        assert diameter == pytest.approx(2.0, abs=0.02)
        assert measure_dimensions(mesh, Probe("v", "volume")) == pytest.approx(
            4.0 / 3.0 * math.pi, rel=0.02
        )

    def test_open_mesh_volume_probe(self):
        mesh = TriangleMesh(np.eye(3), [[0, 1, 2]])
        with pytest.raises(OpenMeshError):
            measure_dimensions(mesh, Probe("v", "volume"))

    def test_missed_slice(self, sphere_mesh):
        with pytest.raises(EmptyInputError):
            measure_dimensions(sphere_mesh, Probe("d", "slice_diameter", axis=2, position=99.0))

    def test_unknown_probe_kind(self):
        with pytest.raises(ValueError):
            Probe("x", "girth")
