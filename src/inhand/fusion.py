"""TSDF fusion of registered clouds and surface extraction.

The volume stores a truncated signed distance and an accumulation weight
for each observed voxel only, keyed by its linear id in the cubic grid;
a voxel that no cloud has come near is absent.  Registered clouds are
integrated by updating all voxels within the truncation band of any
point: the signed distance of a voxel is the projection of its offset
from the nearest point onto that point's normal, so the zero level set
tracks the observed surface.  The reconstruction pipeline integrates a
sample of each frame's points (:func:`inhand.metrics.reconstruct` says
which and why).  The search for the nearest point stops at the
truncation distance (:func:`~inhand.geometry.nearest_within` states what
comes back on a tie).  The mesh is pulled out with the classic 256-case
marching-cubes tables over cells whose eight corners have all been
observed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.spatial import ConvexHull, QhullError, cKDTree

from ._mc_tables import CORNER_OFFSETS, EDGE_ANCHORS, TRI_TABLE
from .errors import EmptyInputError, EmptyMeshError, OpenMeshError
from .geometry import PointCloud, RigidTransform, _freeze, nearest_within

# Truncation band half-width, in voxels.
TRUNCATION_VOXELS = 3.0
# Surface components with fewer than this fraction of the triangles are dropped.
MIN_COMPONENT_FRACTION = 0.01
# Step size of one Laplacian smoothing iteration.
SMOOTH_LAMBDA = 0.5


def check_working_volume(center, side_mm: float, resolution: int) -> None:
    """Raise ``ValueError`` unless a :class:`TsdfVolume` can span this cube."""
    if np.shape(center) != (3,) or not np.isfinite(np.append(center, side_mm)).all():
        raise ValueError(f"need a finite 3D center and side, got {center} and {side_mm}")
    if side_mm <= 0.0 or resolution < 2:
        raise ValueError("side_mm must be positive and resolution >= 2")
    if side_mm / resolution > 6.0:
        raise ValueError(f"voxel size {side_mm / resolution:.2f} mm exceeds the 6 mm cap")


class TsdfVolume:
    """Cubic truncated-signed-distance volume that stores observed voxels only.

    ``keys`` holds the sorted linear ids ``(i * res + j) * res + k`` of the
    observed voxels; ``tsdf`` and ``weights`` are aligned with it.  ``tsdf``
    is normalized to [-1, 1] (signed distance over truncation,
    ``TRUNCATION_VOXELS`` voxels) and every stored weight is positive.  A
    voxel absent from ``keys`` is unobserved: free space (+1) with weight 0.
    """

    def __init__(self, center, side_mm: float = 350.0, resolution: int = 256):
        check_working_volume(center, side_mm, resolution)
        self.center = np.asarray(center, dtype=np.float64).reshape(3)
        self.side_mm = float(side_mm)
        self.resolution = int(resolution)
        self.voxel_size = self.side_mm / self.resolution
        self.truncation = TRUNCATION_VOXELS * self.voxel_size
        # Position of the (0,0,0) voxel center.
        self.origin = self.center - self.side_mm / 2.0 + self.voxel_size / 2.0
        self.keys = np.empty(0, dtype=np.int64)
        self.tsdf = np.empty(0, dtype=np.float64)
        self.weights = np.empty(0, dtype=np.float64)

    def copy(self) -> TsdfVolume:
        """A volume of the same cube that holds its own copy of the stored voxels."""
        out = TsdfVolume(self.center, self.side_mm, self.resolution)
        out.keys, out.tsdf, out.weights = self.keys.copy(), self.tsdf.copy(), self.weights.copy()
        return out

    def voxel_centers(self, indices: np.ndarray) -> np.ndarray:
        return self.origin + np.asarray(indices, dtype=np.float64) * self.voxel_size

    def voxel_indices(self, ids: np.ndarray) -> np.ndarray:
        """``(n, 3)`` grid indices of linear voxel ids."""
        return np.column_stack(np.unravel_index(ids, (self.resolution,) * 3))


def _find(keys: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of ``ids`` in the sorted ``keys``, and which of them are stored."""
    pos = np.searchsorted(keys, ids)
    found = pos < len(keys)
    found[found] = keys[pos[found]] == ids[found]
    return pos, found


def _unique_sorted(values: np.ndarray) -> np.ndarray:
    """``np.unique`` of a 1-D integer array by one sort.

    NumPy 2.4 answers ``np.unique`` and ``np.isin`` on integers through a
    hash table, which is an order of magnitude slower than a sort here.
    """
    values = np.sort(values, axis=None)
    first = np.ones(len(values), dtype=bool)
    first[1:] = values[1:] != values[:-1]
    return values[first]


def _candidate_voxels(vol: TsdfVolume, points: np.ndarray) -> np.ndarray:
    """Sorted unique linear ids of the voxels whose centers can lie within
    truncation of a point."""
    reach = vol.truncation / vol.voxel_size + math.sqrt(3.0) / 2.0
    r = int(math.ceil(reach))
    axis = np.arange(-r, r + 1)
    offs = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    offs = offs[np.linalg.norm(offs, axis=1) <= reach]
    base = np.round((points - vol.origin) / vol.voxel_size).astype(np.int64)
    # Mark the candidates in a grid over the points' voxels padded by r on
    # each side, so no offset wraps; many points share a base voxel.
    lo = base.min(axis=0) - r
    shape = base.max(axis=0) + r + 1 - lo
    strides = np.array([shape[1] * shape[2], shape[2], 1])
    base_ids = _unique_sorted((base - lo) @ strides)
    grid = np.zeros(shape, dtype=bool)
    flat = grid.ravel()
    # One offset at a time: a (bases, offsets) id matrix would take about
    # 4.8 MiB on a pin frame's 2.5k-point spread surface.
    for step in offs @ strides:
        flat[base_ids + step] = True
    cand = np.argwhere(grid) + lo
    cand = cand[np.all((cand >= 0) & (cand < vol.resolution), axis=1)]
    return np.ravel_multi_index(cand.T, (vol.resolution,) * 3)


def integrate(vol: TsdfVolume, cloud: PointCloud, pose: RigidTransform) -> TsdfVolume:
    """Fuse one registered cloud into the volume (running weighted average).

    Every voxel center within the truncation distance of some transformed
    point gets the signed distance ``dot(center - nearest point, nearest
    normal)``, clamped to the truncation band.  Points outside the volume
    are ignored; the increment weight is 1.  The nearest-point search of a
    candidate centre stops at the truncation distance
    (:func:`~inhand.geometry.nearest_within`, which also says which of two
    equally near points a centre reads).
    """
    if cloud.normals is None:
        raise ValueError("integration needs per-point normals")
    pts = pose.apply(cloud.points)
    nrm = cloud.normals @ pose.rotation.T
    lo = vol.center - vol.side_mm / 2.0
    hi = vol.center + vol.side_mm / 2.0
    inside = np.all((pts >= lo) & (pts <= hi), axis=1)
    pts, nrm = pts[inside], nrm[inside]
    if len(pts) == 0:
        return vol
    ids = _candidate_voxels(vol, pts)
    centers = vol.voxel_centers(vol.voxel_indices(ids))
    # Each centre is answered alone, so the threads change no result.
    dist, nearest = nearest_within(cKDTree(pts), centers, vol.truncation)
    in_band = dist <= vol.truncation
    ids, centers, nearest = ids[in_band], centers[in_band], nearest[in_band]
    if len(ids) == 0:
        return vol
    sd = np.einsum("ij,ij->i", centers - pts[nearest], nrm[nearest])
    sd = np.clip(sd / vol.truncation, -1.0, 1.0)
    # Newly observed voxels enter with the free-space placeholder +1 and
    # weight 0, so the average starts from the new sample alone.
    pos, found = _find(vol.keys, ids)
    missing = ~found
    vol.keys = np.insert(vol.keys, pos[missing], ids[missing])
    vol.tsdf = np.insert(vol.tsdf, pos[missing], 1.0)
    vol.weights = np.insert(vol.weights, pos[missing], 0.0)
    # The ids are sorted, so each moved up by the new ids inserted before it.
    at = pos + np.cumsum(missing) - missing
    w_old = vol.weights[at]
    w_new = w_old + 1.0
    vol.tsdf[at] = (vol.tsdf[at] * w_old + sd) / w_new
    vol.weights[at] = w_new
    return vol


@dataclass(frozen=True)
class TriangleMesh:
    """Indexed triangle soup with optional per-vertex normals."""

    vertices: np.ndarray
    triangles: np.ndarray
    normals: np.ndarray | None = None

    def __post_init__(self) -> None:
        v = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        t = np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3)
        if len(t) and (t.min() < 0 or t.max() >= len(v)):
            raise ValueError("triangle index out of range")
        if len(t) and np.any(
            (t[:, 0] == t[:, 1]) | (t[:, 1] == t[:, 2]) | (t[:, 0] == t[:, 2])
        ):
            raise ValueError("degenerate triangle with a repeated vertex index")
        object.__setattr__(self, "vertices", _freeze(v))
        object.__setattr__(self, "triangles", _freeze(t))
        if self.normals is not None:
            n = np.asarray(self.normals, dtype=np.float64).reshape(-1, 3)
            if len(n) != len(v):
                raise ValueError("need one normal per vertex")
            object.__setattr__(self, "normals", _freeze(n))

    @cached_property
    def edges(self) -> np.ndarray:
        """Undirected unique edges as read-only ``(lo, hi)`` rows, sorted.

        Computed on first use and cached. The rows are sorted by the key
        ``lo * n_vertices + hi``, which orders them lexicographically.
        """
        t = self.triangles
        e = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
        n = len(self.vertices)
        keys = _unique_sorted(e.min(axis=1) * n + e.max(axis=1))
        return _freeze(np.column_stack(np.divmod(keys, n)))


def euler_characteristic(mesh: TriangleMesh) -> int:
    return len(mesh.vertices) - len(mesh.edges) + len(mesh.triangles)


def is_closed(mesh: TriangleMesh) -> bool:
    """True when every edge is shared by exactly two consistently wound triangles."""
    if len(mesh.triangles) == 0:
        return False
    directed = np.vstack(
        [mesh.triangles[:, [0, 1]], mesh.triangles[:, [1, 2]], mesh.triangles[:, [2, 0]]]
    )
    keys = np.sort(directed[:, 0] * len(mesh.vertices) + directed[:, 1])
    if np.any(keys[1:] == keys[:-1]):
        return False  # repeated directed edge: inconsistent winding
    # With no key repeated, every edge has its reverse exactly when the
    # reversed keys are the same set.
    swapped = np.sort(directed[:, 1] * len(mesh.vertices) + directed[:, 0])
    return bool(np.array_equal(keys, swapped))


def _vertex_normals(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    a, b, c = (vertices[triangles[:, i]] for i in range(3))
    face_n = np.cross(b - a, c - a)  # area-weighted
    # The faces of the first corners, then the second, then the third: the
    # order of np.add.at over the corners onto zeros, so the sums keep its bits.
    corners = triangles.T.ravel()
    out = np.column_stack(
        [np.bincount(corners, np.tile(column, 3), minlength=len(vertices)) for column in face_n.T]
    )
    norms = np.linalg.norm(out, axis=1, keepdims=True)
    return out / np.where(norms > 0.0, norms, 1.0)


def _component_labels(triangles: np.ndarray, n_vertices: int) -> np.ndarray:
    """Per vertex, the smallest vertex id of its connected component.

    Minimum-label propagation with pointer jumping: each round hooks the
    labels of a triangle's three corners onto the smallest of them, then
    follows labels to their fixed point.  Labels only fall and a label
    never exceeds its vertex id, so they form a forest whose roots are the
    components' smallest ids once every triangle's corners agree.
    """
    label = np.arange(n_vertices)
    corners = triangles.T.ravel()
    while True:
        ends = label[corners].reshape(3, -1)
        lowest = ends.min(axis=0)
        if (ends == lowest).all():
            return label
        np.minimum.at(label, ends.ravel(), np.tile(lowest, 3))
        while not np.array_equal(jumped := label[label], label):
            label = jumped


def _prune_components(vertices, triangles):
    """Drop connected components below ``MIN_COMPONENT_FRACTION`` of the triangles."""
    nv, nt = len(vertices), len(triangles)
    tri_labels = _component_labels(triangles, nv)[triangles[:, 0]]
    large = np.bincount(tri_labels) >= MIN_COMPONENT_FRACTION * nt
    triangles = triangles[large[tri_labels]]
    used = _unique_sorted(triangles)
    remap = np.full(nv, -1, dtype=np.int64)
    remap[used] = np.arange(len(used))
    return vertices[used], remap[triangles]


def extract_mesh(vol: TsdfVolume) -> TriangleMesh:
    """Marching cubes over the zero level set of the fused volume.

    Only cells whose eight corner voxels are all stored (observed) are
    polygonized; vertices are deduplicated across cells by global edge id
    and linearly interpolated along the crossing edge.  The mesh carries
    no normals: :func:`laplacian_smooth` computes them for the vertices it
    returns.
    """
    res = vol.resolution
    # Each observed voxel below the last slice on every axis anchors the
    # cell it is the low corner of; sorted keys visit cells in C order.
    # With key (i * res + j) * res + k the tests read k and j.  A cell on
    # the last i slice needs keys of res**3 and above, which no volume
    # stores, so it is never all observed.
    inner = vol.keys % res < res - 1
    inner &= vol.keys % (res * res) < (res - 1) * res
    cells = vol.keys[inner]
    case = np.zeros(len(cells), dtype=np.int32)
    all_observed = np.ones(len(cells), dtype=bool)
    for bit, (ox, oy, oz) in enumerate(CORNER_OFFSETS):
        pos, found = _find(vol.keys, cells + (ox * res + oy) * res + oz)
        all_observed &= found
        case[found] |= (vol.tsdf[pos[found]] < 0.0).astype(np.int32) << bit
    active = (case != 0) & (case != 255) & all_observed
    if not active.any():
        raise EmptyMeshError("no observed zero crossing in the volume")
    # Global id of a cell edge: its anchor grid point's linear id * 3 + axis.
    # The anchor's id is the cell's id plus the anchor offset's linear id.
    anchor = EDGE_ANCHORS[:, :3].astype(np.int64)
    anchor_ids = (anchor[:, 0] * res + anchor[:, 1]) * res + anchor[:, 2]
    axis = EDGE_ANCHORS[:, 3].astype(np.int64)

    tri_edges = TRI_TABLE[case[active]]  # (cells, 16), -1 padded
    rows, cols = np.nonzero(tri_edges >= 0)
    edge = tri_edges[rows, cols]
    face_ids = (cells[active][rows] + anchor_ids[edge]) * 3 + axis[edge]
    del tri_edges, rows, cols, edge  # before the sort's own arrays
    unique_ids, tri_flat = np.unique(face_ids, return_inverse=True)
    triangles = tri_flat.reshape(-1, 3)

    # Interpolate each unique crossing edge once, low corner toward high.
    # Both ends are corners of an all-observed cell, so both are stored.
    ax = unique_ids % 3
    lin = unique_ids // 3
    v_lo = vol.tsdf[np.searchsorted(vol.keys, lin)]
    v_hi = vol.tsdf[np.searchsorted(vol.keys, lin + np.array([res * res, res, 1])[ax])]
    t = v_lo / (v_lo - v_hi)
    step = np.zeros((len(t), 3))
    step[np.arange(len(t)), ax] = t
    vertices = vol.voxel_centers(vol.voxel_indices(lin)) + step * vol.voxel_size

    # The raw table winding faces the negative (inside) region; flip so
    # triangle normals point outward.
    triangles = triangles[:, ::-1]
    vertices, triangles = _prune_components(vertices, triangles)
    if len(triangles) == 0:
        raise EmptyMeshError("all surface components fell below the size threshold")
    return TriangleMesh(vertices, triangles)


def laplacian_smooth(mesh: TriangleMesh, iterations: int) -> TriangleMesh:
    """Uniform-weight Laplacian smoothing, with the smoothed vertices' normals.

    Each iteration moves every vertex by ``v <- v + SMOOTH_LAMBDA *
    (neighbor mean - v)``.  The returned mesh carries the area-weighted
    vertex normals of its own vertices, also after 0 iterations.
    """
    if iterations < 0:
        raise ValueError("iterations must be nonnegative")
    n = len(mesh.vertices)
    # Each edge's low end gathers its high end, then each high end its low
    # end: the order of np.add.at over the two columns onto zeros, so the
    # sums keep its bits.
    ends = mesh.edges.T.ravel()
    others = mesh.edges[:, ::-1].T.ravel()
    degree = np.bincount(ends, minlength=n).astype(np.float64)
    if np.any(degree == 0):
        raise ValueError("smoothing needs every vertex connected to an edge")
    verts = mesh.vertices.copy()
    for _ in range(iterations):
        acc = np.column_stack(
            [np.bincount(ends, verts[others, k], minlength=n) for k in range(3)]
        )
        verts += SMOOTH_LAMBDA * (acc / degree[:, None] - verts)
    del ends, others  # before the normals' arrays
    return TriangleMesh(verts, mesh.triangles, _vertex_normals(verts, mesh.triangles))


@dataclass(frozen=True)
class Probe:
    """One named measurement request against the final mesh.

    kinds: ``extent`` (size along ``axis``), ``slice_diameter`` (largest
    pairwise distance among surface points at ``position`` along ``axis``),
    ``volume`` (signed enclosed volume, requires a closed mesh).
    """

    name: str
    kind: str
    axis: int = 2
    position: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("extent", "slice_diameter", "volume"):
            raise ValueError(f"unknown probe kind {self.kind!r}")
        if self.axis not in (0, 1, 2):
            raise ValueError("axis must be 0, 1, or 2")


def _slice_points(mesh: TriangleMesh, axis: int, position: float) -> np.ndarray:
    """Edge/plane intersection points of the mesh with coordinate = position."""
    edges = mesh.edges
    a = mesh.vertices[edges[:, 0]]
    b = mesh.vertices[edges[:, 1]]
    da = a[:, axis] - position
    db = b[:, axis] - position
    crossing = (da * db) < 0.0
    a, b, da, db = a[crossing], b[crossing], da[crossing], db[crossing]
    t = da / (da - db)
    pts = a + t[:, None] * (b - a)
    exact = mesh.vertices[np.abs(mesh.vertices[:, axis] - position) == 0.0]
    return np.vstack([pts, exact])


def signed_volume(mesh: TriangleMesh) -> float:
    """Enclosed volume by signed tetrahedra; positive for outward winding."""
    if not is_closed(mesh):
        raise OpenMeshError("volume requires a closed, consistently wound mesh")
    a, b, c = (mesh.vertices[mesh.triangles[:, i]] for i in range(3))
    return float(np.einsum("ij,ij->", a, np.cross(b, c)) / 6.0)


def measure_dimensions(mesh: TriangleMesh, probe: Probe) -> float:
    """Evaluate one probe against the mesh, in millimeters or mm^3."""
    if len(mesh.vertices) == 0:
        raise EmptyInputError("cannot measure an empty mesh")
    if probe.kind == "extent":
        coords = mesh.vertices[:, probe.axis]
        return float(coords.max() - coords.min())
    if probe.kind == "volume":
        return signed_volume(mesh)
    pts = _slice_points(mesh, probe.axis, probe.position)
    if len(pts) < 2:
        raise EmptyInputError(f"probe {probe.name!r}: slice plane misses the mesh")
    # The farthest pair lies on the slice's hull.
    keep = np.delete(np.arange(3), probe.axis)
    try:
        pts = pts[ConvexHull(pts[:, keep]).vertices]
    except QhullError:
        pass  # nearly collinear slice: fall through to all pairs
    diff = pts[:, None, :] - pts[None, :, :]
    return float(np.sqrt((diff**2).sum(-1)).max())
