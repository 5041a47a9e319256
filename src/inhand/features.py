"""Sparse 3D features and correspondence sets.

Keypoints are Intrinsic Shape Signatures: points whose local scatter
eigenvalues are sufficiently anisotropic, surviving non-maximum
suppression on the smallest eigenvalue. :func:`describe_cloud` detects
them on a spread subsample of the cloud, which keeps no two points within
``SPREAD_SPACING_MM`` of each other (about a fifth of a scanned frame),
and describes each against the whole cloud. The same subsample, each
point lifted to the mean height of its neighbours, is what a frame fuses
(:attr:`inhand.preprocess.SegmentedFrame.spread_surface`). The
descriptor is a rigid-motion invariant histogram over a spherical
support: 4 radial shells x 8 bins of the angle between neighbor normals
and the keypoint normal, plus an optional 8-bin luminance histogram when
colors are present. A cloud is described once (:func:`describe_cloud`);
:func:`match_feat3d` pairs two descriptions by mutual nearest neighbor
with a Lowe-style ratio test.

2D feature matches (e.g. from an external image matcher) are pixel pairs
with a depth on each side; :func:`load_feat2d` back-projects them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .geometry import CameraIntrinsics, PointCloud, _freeze, back_project_many

CORRESPONDENCE_TAGS = ("feat2d", "feat3d", "contact", "detector")

# ISS detector: neighbourhood radius of the scatter matrix, radius of the
# non-maximum suppression, the eigenvalue-ratio bounds l2/l1 and l3/l2, and
# the fewest points (self included) a neighbourhood must hold.
SALIENT_RADIUS = 6.0
NONMAX_RADIUS = 4.0
GAMMA21 = 0.975
GAMMA32 = 0.975
MIN_NEIGHBORS = 10
# No two points of the spread subsample, which ISS runs on and fusion
# integrates, lie within this distance.
SPREAD_SPACING_MM = 1.5
# Descriptor support radius and the Lowe ratio of the matcher.
DESCRIBE_RADIUS = 8.0
MATCH_RATIO = 0.8


@dataclass(frozen=True)
class CorrespondenceSet:
    """Homogeneous set of 3D point pairs (source -> target) with one tag."""

    source: np.ndarray
    target: np.ndarray
    tag: str

    def __post_init__(self) -> None:
        if self.tag not in CORRESPONDENCE_TAGS:
            raise ValueError(f"unknown tag {self.tag!r}")
        src = np.asarray(self.source, dtype=np.float64).reshape(-1, 3)
        tgt = np.asarray(self.target, dtype=np.float64).reshape(-1, 3)
        if src.shape != tgt.shape:
            raise ValueError("source and target must pair up one-to-one")
        if not (np.all(np.isfinite(src)) and np.all(np.isfinite(tgt))):
            raise ValueError("correspondence endpoints must be finite")
        object.__setattr__(self, "source", _freeze(src))
        object.__setattr__(self, "target", _freeze(tgt))

    def __len__(self) -> int:
        return len(self.source)


def _neighbourhood_moments(
    pts: np.ndarray, tree: cKDTree
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Point counts, first and second moments of each point's neighbourhood.

    The neighbours are the pairs ``(i, j)``, ``i < j``, that ``tree`` (built
    on ``pts``) finds within ``SALIENT_RADIUS``. A point's own term comes
    first, then its pair terms in pair order, first as ``i`` and then as
    ``j``: the order of ``np.add.at`` over the pairs onto the own terms.
    ``np.bincount`` adds them one at a time in that order, but onto +0.0,
    so a first moment whose every term is -0.0 sums to +0.0 here and to
    -0.0 under ``np.add.at``. The covariance ``s2/c - mean mean^T`` cannot
    tell: ``s2`` is never -0.0, and ``x - (+-0.0)`` has the same bits for
    any ``x`` but -0.0.

    Only two arrays of one entry per term live while the sums run: the bin
    of each term, ``ii``, and one buffer that holds the current weights.
    """
    n = len(pts)
    pairs = tree.query_pairs(SALIENT_RADIUS, output_type="ndarray")
    p = len(pairs)
    ii = np.concatenate([np.arange(n), pairs[:, 0], pairs[:, 1]])
    del pairs  # the pair terms are read back through the two halves of ii
    w = np.empty(len(ii))

    def terms(f: np.ndarray) -> np.ndarray:
        """``f`` of each term's neighbour, in the order of ``ii``."""
        # The indices are in range; mode="clip" writes straight into w,
        # where the default mode would fill a temporary copy first.
        w[:n] = f
        np.take(f, ii[n + p :], out=w[n : n + p], mode="clip")
        np.take(f, ii[n : n + p], out=w[n + p :], mode="clip")
        return w

    counts = np.bincount(ii, minlength=n).astype(np.float64)
    s1 = np.column_stack([np.bincount(ii, terms(column), minlength=n) for column in pts.T])
    # Each term is the neighbour's own product x*y, so it is gathered, not
    # formed per term.
    s2 = np.empty((n, 3, 3))
    for a in range(3):
        for b in range(a, 3):
            s2[:, a, b] = s2[:, b, a] = np.bincount(
                ii, terms(pts[:, a] * pts[:, b]), minlength=n
            )
    return counts, s1, s2


def detect_iss_keypoints(cloud: PointCloud) -> np.ndarray:
    """Cloud rows of the ISS keypoints.

    A point qualifies when at least ``MIN_NEIGHBORS`` points lie within
    ``SALIENT_RADIUS``, its scatter eigenvalues l1 >= l2 >= l3 satisfy
    l2/l1 < ``GAMMA21`` and l3/l2 < ``GAMMA32`` with l3 > 0, and its l3 is
    maximal among neighbors within ``NONMAX_RADIUS``. The rows are sorted
    by position, so their points do not depend on the order of the cloud.

    The moment sums add each neighbourhood's terms in one fixed order, the
    order of ``np.add.at`` over the pairs of the position-sorted cloud
    (see :func:`_neighbourhood_moments`). That makes the result
    reproducible to the bit and independent of the input order.
    """
    n = len(cloud)
    # Work in a canonical point order so floating-point accumulation (and
    # therefore the result) is invariant under input reordering.
    canon = np.lexsort((cloud.points[:, 2], cloud.points[:, 1], cloud.points[:, 0]))
    pts = cloud.points[canon]
    tree = cKDTree(pts)
    counts, s1, s2 = _neighbourhood_moments(pts, tree)
    mean = s1 / counts[:, None]
    cov = s2 / counts[:, None, None] - np.einsum("ni,nj->nij", mean, mean)
    evals = np.linalg.eigvalsh(cov)  # ascending: l3, l2, l1
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
    # Non-maximum suppression on l3. A stable sort breaks ties by row, and
    # the rows are in position order, so the outcome does not depend on
    # input order.
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(l3, kind="stable")] = np.arange(n)
    a, b = tree.query_pairs(NONMAX_RADIUS, output_type="ndarray").T
    both = ok[a] & ok[b]
    a, b = a[both], b[both]
    ok[np.where(rank[a] < rank[b], a, b)] = False  # the lower of each pair
    return canon[ok]  # in position order, as canon is


N_SHELLS = 4
N_ANGLE_BINS = 8
N_LUM_BINS = 8


def _describe_all(cloud: PointCloud, rows: np.ndarray, tree: cKDTree) -> np.ndarray:
    """L2-normalized local histogram descriptors ``(k, d)`` of the cloud rows.

    Bins neighbors within ``DESCRIBE_RADIUS``, found in ``tree`` (built on
    ``cloud.points``), by (radial shell, angle between the neighbor normal
    and the keypoint normal); appends a luminance histogram when the cloud
    has colors.
    """
    if cloud.normals is None:
        raise ValueError("descriptor needs normals")
    size = N_SHELLS * N_ANGLE_BINS + (N_LUM_BINS if cloud.colors is not None else 0)
    k = len(rows)
    positions = cloud.points[rows]
    # Unsorted, each list keeps the order of a single-point query.
    nbrs = tree.query_ball_point(
        positions, DESCRIBE_RADIUS, return_sorted=False, workers=-1
    )
    sizes = np.fromiter(map(len, nbrs), dtype=np.int64, count=k)
    nbr = np.fromiter(chain.from_iterable(nbrs), dtype=np.int64, count=int(sizes.sum()))
    owner = np.repeat(np.arange(k), sizes)
    ends = np.cumsum(sizes)
    dist = np.linalg.norm(cloud.points[nbr] - positions[owner], axis=1)
    # One matrix-vector product per keypoint, as for a single keypoint: a
    # row-wise einsum sums some rows' dot products in another order.
    cosang = np.empty(len(nbr))
    for row, lo, hi in zip(rows, ends - sizes, ends):
        cosang[lo:hi] = cloud.normals[nbr[lo:hi]] @ cloud.normals[row]
    cosang = np.clip(cosang, -1.0, 1.0)
    # Soft (bilinear) assignment: hard bin edges make the histogram jump
    # when the support shifts by a fraction of a shell, which is exactly
    # what happens when the same physical feature is re-detected a
    # millimeter off in another view.
    sc = dist / (DESCRIBE_RADIUS / N_SHELLS) - 0.5
    ac = (cosang + 1.0) * 0.5 * N_ANGLE_BINS - 0.5
    s0 = np.floor(sc).astype(np.int64)
    a0 = np.floor(ac).astype(np.int64)
    fs = sc - s0
    fa = ac - a0
    base = owner * size
    bins, weights = [], []
    for ds, ws in ((0, 1.0 - fs), (1, fs)):
        s = np.clip(s0 + ds, 0, N_SHELLS - 1)
        for da, wa in ((0, 1.0 - fa), (1, fa)):
            a = np.clip(a0 + da, 0, N_ANGLE_BINS - 1)
            bins.append(base + s * N_ANGLE_BINS + a)
            weights.append(ws * wa)
    if cloud.colors is not None:
        lum = cloud.colors[nbr] @ np.array([0.2126, 0.7152, 0.0722])
        lbin = np.minimum((lum * N_LUM_BINS).astype(np.int64), N_LUM_BINS - 1)
        bins.append(base + N_SHELLS * N_ANGLE_BINS + lbin)
        weights.append(np.ones(len(nbr)))
    # One pass over the blocks in the order above, each block across all
    # keypoints: each bin's terms are added one at a time, in that order,
    # onto 0.0.  With no keypoints there are no bins, and bincount answers int64.
    desc = np.bincount(
        np.concatenate(bins), np.concatenate(weights), minlength=k * size
    ).reshape(k, size).astype(np.float64, copy=False)
    # Row by row: a norm along axis 1 would sum the squares in another order.
    # No row is zero, as each keypoint is its own neighbour.
    for row in desc:
        row /= np.linalg.norm(row)
    return desc


def _nn_with_ratio(dmat: np.ndarray, ratio: float) -> np.ndarray:
    """Per-row nearest column passing the Lowe ratio test; -1 otherwise."""
    out = np.full(dmat.shape[0], -1, dtype=np.int64)
    best = np.argmin(dmat, axis=1)
    d1 = dmat[np.arange(len(best)), best]
    if dmat.shape[1] == 1:
        out[:] = best  # ratio test is vacuous with a single candidate
        return out
    part = np.partition(dmat, 1, axis=1)
    d2 = part[:, 1]
    # d2 == 0 means duplicate descriptors: ambiguous, reject.
    with np.errstate(divide="ignore", invalid="ignore"):
        passed = (d2 > 0.0) & (d1 / d2 < ratio)
    out[passed] = best[passed]
    return out


def _spread_subsample(cloud: PointCloud, tree: cKDTree) -> tuple[np.ndarray, np.ndarray]:
    """Ascending cloud rows of the points with no higher-priority point
    within ``SPREAD_SPACING_MM``, and their neighbours: the cloud rows
    ``(kept, other)``, shape ``(m, 2)``, of every other point that lies as
    close to a kept one.  ``tree`` is built on ``cloud.points``.

    A point's priority is its rank by squared distance to the centroid,
    ties broken by position, under Knuth's multiplicative hash. The hash is
    a bijection of [0, 2**32), so no two points share a priority, and it
    scatters neighbouring ranks, so the kept points spread over the surface
    instead of gathering on the shells nearest the centroid. The centroid
    is summed over the position-sorted cloud, so the kept points do not
    depend on the order of the cloud, and they follow a rigid motion of it
    up to rounding.
    """
    pts = cloud.points
    n = len(pts)
    canon = np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0]))
    centroid = pts[canon].sum(axis=0) / max(n, 1)  # the mean; an empty cloud has none
    d2 = np.square(pts - centroid).sum(axis=1)
    rank = np.empty(n, dtype=np.int64)
    # A stable sort of the position-ordered points breaks ties by position.
    rank[canon[np.argsort(d2[canon], kind="stable")]] = np.arange(n)
    priority = rank * 2654435761 % 2**32
    a, b = tree.query_pairs(SPREAD_SPACING_MM, output_type="ndarray").T
    keep = np.ones(n, dtype=bool)
    keep[np.where(priority[a] < priority[b], a, b)] = False  # the lower of each pair
    # A pair holds at most one kept point.
    first = keep[a]
    near = first | keep[b]
    kept, other = np.where(first, a, b)[near], np.where(first, b, a)[near]
    return np.flatnonzero(keep), np.column_stack([kept, other])


def _spread_heights(cloud: PointCloud, rows: np.ndarray, neighbours: np.ndarray) -> np.ndarray:
    """For each of ``rows``, the mean offset of itself and of those of its
    ``neighbours`` (:func:`_spread_subsample`) whose normals face its own
    way (positive dot product).

    A point's offset is measured from the row's point along the bisector of
    the two normals.  That bisector is square to the chord between two
    points of a sphere or a cylinder, and of any smooth surface to second
    order, so the surface's curvature adds nothing to the mean: what is
    left is the mean of the points' noise along the normal, less the row's
    own.
    """
    kept, other = neighbours.T
    own, theirs = cloud.normals[kept], cloud.normals[other]
    facing = np.einsum("ij,ij->i", own, theirs) > 0.0
    kept, other, bisector = kept[facing], other[facing], own[facing] + theirs[facing]
    chord = cloud.points[other] - cloud.points[kept]
    offset = np.einsum("ij,ij->i", chord, bisector) / np.linalg.norm(bisector, axis=1)
    owner, k = np.searchsorted(rows, kept), len(rows)
    # The row itself adds one point at offset 0.
    return np.bincount(owner, offset, minlength=k) / (np.bincount(owner, minlength=k) + 1.0)


def describe_cloud(cloud: PointCloud) -> tuple[np.ndarray, ...]:
    """Read-only keypoint positions ``(k, 3)`` and their descriptors ``(k, d)``,
    then the rows of the spread subsample (:func:`_spread_subsample`) and
    their heights (:func:`_spread_heights`).

    The keypoints are the ISS keypoints of the spread subsample, in
    position order; each is described against the whole cloud.  One
    kd-tree of the whole cloud serves them all.
    """
    tree = cKDTree(cloud.points)
    spread, neighbours = _spread_subsample(cloud, tree)
    rows = spread[detect_iss_keypoints(PointCloud(cloud.points[spread]))]
    positions, descriptors = cloud.points[rows], _describe_all(cloud, rows, tree)
    heights = _spread_heights(cloud, spread, neighbours)
    return tuple(map(_freeze, (positions, descriptors, spread, heights)))


def match_feat3d(source: tuple, target: tuple) -> CorrespondenceSet:
    """Mutual-NN matches (tag ``feat3d``) of two ``(positions, descriptors)``
    keypoint sets, the first two items of :func:`describe_cloud`."""
    (ps, ds), (pt, dt) = source, target
    if len(ps) == 0 or len(pt) == 0:
        return CorrespondenceSet(np.empty((0, 3)), np.empty((0, 3)), "feat3d")
    dmat = cdist(ds, dt)
    fwd = _nn_with_ratio(dmat, MATCH_RATIO)
    bwd = _nn_with_ratio(dmat.T, MATCH_RATIO)
    i = np.flatnonzero(fwd >= 0)
    i = i[bwd[fwd[i]] == i]
    return CorrespondenceSet(ps[i], pt[fwd[i]], "feat3d")


def load_feat2d(
    pixel_pairs,
    source_depths,
    target_depths,
    intrinsics: CameraIntrinsics,
) -> CorrespondenceSet:
    """Back-project pixel matches into a 3D correspondence set (tag ``feat2d``).

    Pairs with a missing (NaN) or nonpositive depth on either side are
    dropped rather than raising.
    """
    pp = np.asarray(pixel_pairs, dtype=np.float64).reshape(-1, 4)
    sd = np.asarray(source_depths, dtype=np.float64).reshape(-1)
    td = np.asarray(target_depths, dtype=np.float64).reshape(-1)
    if not (len(pp) == len(sd) == len(td)):
        raise ValueError("pixel pairs and depth lists must align")
    with np.errstate(invalid="ignore"):
        valid = np.isfinite(sd) & np.isfinite(td) & (sd > 0.0) & (td > 0.0)
    pp, sd, td = pp[valid], sd[valid], td[valid]
    src = back_project_many(pp[:, :2], sd, intrinsics)
    tgt = back_project_many(pp[:, 2:], td, intrinsics)
    return CorrespondenceSet(src, tgt, "feat2d")
