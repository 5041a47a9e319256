"""TSDF integration, marching-cubes extraction, smoothing, measurement."""

import math

import numpy as np
import pytest

from inhand.errors import EmptyInputError, EmptyMeshError, OpenMeshError
from inhand.fusion import (
    Probe,
    TriangleMesh,
    TsdfVolume,
    euler_characteristic,
    extract_mesh,
    integrate,
    is_closed,
    laplacian_smooth,
    measure_dimensions,
    signed_volume,
)
from inhand.geometry import PointCloud, RigidTransform


def sphere_cloud(n=20000, radius=35.0, seed=0):
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(n, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return PointCloud(radius * dirs, normals=dirs)


def sphere_sdf_volume(radius=35.0, side=100.0, res=80):
    vol = TsdfVolume(center=(0.0, 0.0, 0.0), side_mm=side, resolution=res)
    idx = np.stack(
        np.meshgrid(*[np.arange(res)] * 3, indexing="ij"), axis=-1
    ).reshape(-1, 3)
    sd = np.linalg.norm(vol.voxel_centers(idx), axis=1) - radius
    vol.tsdf = np.clip(sd / vol.truncation, -1.0, 1.0).reshape(res, res, res)
    vol.weights[:] = 1.0
    return vol


@pytest.fixture(scope="module")
def sphere_mesh():
    return extract_mesh(sphere_sdf_volume())


class TestTsdfVolume:
    def test_defaults(self):
        vol = TsdfVolume(center=(10.0, 20.0, 500.0))
        assert vol.voxel_size == pytest.approx(350.0 / 256.0)
        assert vol.truncation == pytest.approx(3.0 * vol.voxel_size)
        assert vol.tsdf.shape == (256, 256, 256)
        assert np.all(vol.tsdf == 1.0)
        assert np.all(vol.weights == 0.0)

    def test_voxel_size_cap(self):
        with pytest.raises(ValueError):
            TsdfVolume(center=(0, 0, 0), side_mm=700.0, resolution=100)

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
        touched = np.argwhere(vol.weights > 0.0)
        centers = vol.voxel_centers(touched)
        analytic = np.linalg.norm(centers, axis=1) - 35.0
        near = np.abs(analytic) < vol.voxel_size
        got_mm = vol.tsdf[tuple(touched[near].T)] * vol.truncation
        want_mm = np.clip(analytic[near], -vol.truncation, vol.truncation)
        assert np.abs(got_mm - want_mm).max() < vol.voxel_size

    def test_empty_cloud_is_a_no_op(self):
        vol = TsdfVolume(center=(0.0, 0.0, 0.0), side_mm=100.0, resolution=40)
        integrate(vol, PointCloud(np.empty((0, 3)), normals=np.empty((0, 3))),
                  RigidTransform.identity())
        assert np.all(vol.tsdf == 1.0) and np.all(vol.weights == 0.0)

    def test_double_integration_fixed_point(self):
        cloud = sphere_cloud(4000)
        vol = TsdfVolume(center=(0.0, 0.0, 0.0), side_mm=100.0, resolution=60)
        integrate(vol, cloud, RigidTransform.identity())
        once_tsdf = vol.tsdf.copy()
        once_w = vol.weights.copy()
        integrate(vol, cloud, RigidTransform.identity())
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
        np.testing.assert_array_equal(vol_ab.weights, vol_ba.weights)
        np.testing.assert_allclose(vol_ab.tsdf, vol_ba.tsdf, atol=1e-9)

    def test_points_outside_volume_ignored(self):
        vol = TsdfVolume(center=(0.0, 0.0, 0.0), side_mm=100.0, resolution=40)
        far = PointCloud(
            np.full((50, 3), 400.0), normals=np.tile([0.0, 0.0, 1.0], (50, 1))
        )
        integrate(vol, far, RigidTransform.identity())
        assert np.all(vol.weights == 0.0)

    def test_normals_required(self):
        vol = TsdfVolume(center=(0.0, 0.0, 0.0), side_mm=100.0, resolution=40)
        with pytest.raises(ValueError):
            integrate(vol, PointCloud(np.zeros((5, 3))), RigidTransform.identity())

    def test_pose_is_applied(self):
        cloud = sphere_cloud(3000)
        shift = RigidTransform(np.eye(3), np.array([200.0, 0.0, 0.0]))
        vol = TsdfVolume(center=(200.0, 0.0, 0.0), side_mm=100.0, resolution=60)
        integrate(vol, cloud, shift)
        touched = vol.voxel_centers(np.argwhere(vol.weights > 0.0))
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
        v_lo = vol.tsdf[lo[:, 0], lo[:, 1], lo[:, 2]]
        v_hi = vol.tsdf[hi[:, 0], hi[:, 1], hi[:, 2]]
        assert np.abs(v_lo + t * (v_hi - v_lo)).max() < 1e-6

    def test_outward_normals_and_positive_volume(self, sphere_mesh):
        radial = sphere_mesh.vertices / np.linalg.norm(
            sphere_mesh.vertices, axis=1, keepdims=True
        )
        assert np.einsum("ij,ij->i", sphere_mesh.normals, radial).min() > 0.9
        assert signed_volume(sphere_mesh) > 0.0

    def test_all_positive_raises(self):
        vol = TsdfVolume(center=(0.0, 0.0, 0.0), side_mm=100.0, resolution=40)
        vol.weights[:] = 1.0
        with pytest.raises(EmptyMeshError):
            extract_mesh(vol)

    def test_tiny_component_pruned(self):
        vol = sphere_sdf_volume()
        # Carve a tiny far-away blob: a couple of negative voxels in a corner.
        vol.tsdf[2:4, 2:4, 2:4] = -0.5
        mesh = extract_mesh(vol)
        corner = vol.voxel_centers(np.array([[3, 3, 3]]))[0]
        dist_to_corner = np.linalg.norm(mesh.vertices - corner, axis=1)
        assert dist_to_corner.min() > 5.0  # blob triangles are gone
        assert is_closed(mesh)

    def test_unobserved_cells_not_polygonized(self):
        vol = sphere_sdf_volume()
        vol.weights[:, :, 40:] = 0.0  # unobserve the upper half
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


class TestTriangleMesh:
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


class TestLaplacianSmooth:
    def test_zero_iterations_identity(self, sphere_mesh):
        out = laplacian_smooth(sphere_mesh, 0)
        np.testing.assert_array_equal(out.vertices, sphere_mesh.vertices)

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
        got = measure_dimensions(sphere_mesh, probes)
        assert got["height"] == pytest.approx(70.0, abs=2 * 1.25)
        assert got["diameter"] == pytest.approx(70.0, abs=2 * 1.25)
        assert got["volume"] == pytest.approx(4.0 / 3.0 * math.pi * 35.0**3, rel=0.02)

    def test_unit_sphere(self):
        mesh = extract_mesh(sphere_sdf_volume(radius=1.0, side=3.0, res=60))
        got = measure_dimensions(
            mesh,
            [Probe("d", "slice_diameter", axis=1, position=0.0), Probe("v", "volume")],
        )
        assert got["d"] == pytest.approx(2.0, abs=0.02)
        assert got["v"] == pytest.approx(4.0 / 3.0 * math.pi, rel=0.02)

    def test_open_mesh_volume_probe(self):
        mesh = TriangleMesh(np.eye(3), [[0, 1, 2]])
        with pytest.raises(OpenMeshError):
            measure_dimensions(mesh, [Probe("v", "volume")])

    def test_missed_slice(self, sphere_mesh):
        with pytest.raises(EmptyInputError):
            measure_dimensions(
                sphere_mesh, [Probe("d", "slice_diameter", axis=2, position=99.0)]
            )

    def test_unknown_probe_kind(self):
        with pytest.raises(ValueError):
            Probe("x", "girth")
