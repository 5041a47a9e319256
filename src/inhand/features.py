"""Sparse 3D features and correspondence sets.

Keypoints are Intrinsic Shape Signatures: points whose local scatter
eigenvalues are sufficiently anisotropic, surviving non-maximum
suppression on the smallest eigenvalue. The descriptor is a rigid-motion
invariant histogram over a spherical support: 4 radial shells x 8 bins of
the angle between neighbor normals and the keypoint normal, plus an
optional 8-bin luminance histogram when colors are present. A cloud is
described once (:func:`describe_cloud`); :func:`match_feat3d` pairs two
descriptions by mutual nearest neighbor with a Lowe-style ratio test.

2D feature matches (e.g. from an external image matcher) arrive through a
plain-text sidecar, one match per line: ``u v depth u' v' depth'`` with
millimeter depths and ``#`` comments.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .errors import MatchFileParseError
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


@dataclass(frozen=True)
class Keypoint:
    position: np.ndarray
    saliency: float  # smallest scatter-matrix eigenvalue
    index: int  # index of the supporting point in its cloud

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "position", _freeze(np.asarray(self.position, dtype=np.float64).reshape(3))
        )


def _sum_in_order(index: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """Per-bin sums of ``weights``, as ``np.add.at`` onto each bin's first term.

    ``np.bincount`` adds the terms one at a time in input order, like
    ``np.add.at``, but onto +0.0: the two differ only in a bin whose every
    term is -0.0, which ``np.add.at`` sums to -0.0. Only the terms of the
    bins that sum to 0.0 are copied for that check.
    """
    total = np.bincount(index, weights, minlength=n)
    zero = total == 0.0
    if np.any(zero):
        in_zero = zero[index]
        zero_index, zero_weights = index[in_zero], weights[in_zero]
        del in_zero
        zero[zero_index[(zero_weights != 0.0) | ~np.signbit(zero_weights)]] = False
        total[zero] = -0.0
    return total


def _neighbourhood_moments(
    pts: np.ndarray, tree: cKDTree
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Point counts, first and second moments of each point's neighbourhood.

    The neighbours are the pairs ``(i, j)``, ``i < j``, that ``tree`` (built
    on ``pts``) finds within ``SALIENT_RADIUS``. A point's own term comes
    first, then its pair terms in pair order, first as ``i`` and then as
    ``j``: the order of ``np.add.at`` over the pairs onto the own terms.

    Only two arrays of one entry per term live while the sums run: the bin
    of each term, ``ii``, and one buffer that holds the current weights.
    :func:`_sum_in_order`'s -0.0 check adds one byte per term and a copy
    of the terms of the bins that sum to 0.0, if any.
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
    s1 = np.column_stack([_sum_in_order(ii, terms(column), n) for column in pts.T])
    # Unlike the first moments, these sums start at +0.0: the own term that
    # np.einsum("ni,nj->nij") gives is 0.0 + x*y, never -0.0. Each term is
    # the neighbour's own product x*y, so it is gathered, not formed per term.
    s2 = np.empty((n, 3, 3))
    for a in range(3):
        for b in range(a, 3):
            s2[:, a, b] = s2[:, b, a] = np.bincount(
                ii, terms(pts[:, a] * pts[:, b]), minlength=n
            )
    return counts, s1, s2


def detect_iss_keypoints(cloud: PointCloud) -> list[Keypoint]:
    """ISS keypoints of a cloud (which must carry normals for description).

    A point qualifies when at least ``MIN_NEIGHBORS`` points lie within
    ``SALIENT_RADIUS``, its scatter eigenvalues l1 >= l2 >= l3 satisfy
    l2/l1 < ``GAMMA21`` and l3/l2 < ``GAMMA32`` with l3 > 0, and its l3 is
    maximal among neighbors within ``NONMAX_RADIUS``. Output is sorted by
    position so the result is invariant under point reordering.

    The moment sums add each neighbourhood's terms in one fixed order, the
    order of ``np.add.at`` over the pairs of the position-sorted cloud
    (see :func:`_neighbourhood_moments`). That makes the result
    reproducible to the bit and independent of the input order.
    """
    if cloud.normals is None:
        raise ValueError("keypoint detection expects a cloud with normals")
    n = len(cloud)
    if n == 0:
        return []
    # Work in a canonical point order so floating-point accumulation (and
    # therefore the result) is invariant under input reordering.
    canon = np.lexsort((cloud.points[:, 2], cloud.points[:, 1], cloud.points[:, 0]))
    pts = cloud.points[canon]
    tree = cKDTree(pts)
    counts, s1, s2 = _neighbourhood_moments(pts, tree)
    mean = s1 / counts[:, None]
    cov = s2 / counts[:, None, None] - np.einsum("ni,nj->nij", mean, mean)
    cov = 0.5 * (cov + np.transpose(cov, (0, 2, 1)))
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
    if not np.any(ok):
        return []
    # Non-maximum suppression on l3, tie-broken by position so the outcome
    # does not depend on input order.
    rank = np.empty(n, dtype=np.int64)
    rank[np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0], l3))] = np.arange(n)
    keep = ok.copy()
    nms_pairs = tree.query_pairs(NONMAX_RADIUS, output_type="ndarray")
    if len(nms_pairs):
        a, b = nms_pairs[:, 0], nms_pairs[:, 1]
        both = ok[a] & ok[b]
        a, b = a[both], b[both]
        keep[np.where(rank[a] < rank[b], a, b)] = False
    idx = np.nonzero(keep)[0]  # already in position order thanks to canon
    return [Keypoint(pts[i], float(l3[i]), int(canon[i])) for i in idx]


N_SHELLS = 4
N_ANGLE_BINS = 8
N_LUM_BINS = 8


def _describe_all(cloud: PointCloud, keypoints: list[Keypoint]) -> np.ndarray:
    """L2-normalized local histogram descriptors ``(k, d)``, one per keypoint.

    Bins neighbors within ``DESCRIBE_RADIUS`` by (radial shell, angle
    between the neighbor normal and the keypoint normal); appends a
    luminance histogram when the cloud has colors. A keypoint with no
    neighbors gets the all-zero descriptor.
    """
    if cloud.normals is None:
        raise ValueError("descriptor needs normals")
    size = N_SHELLS * N_ANGLE_BINS + (N_LUM_BINS if cloud.colors is not None else 0)
    k = len(keypoints)
    if k == 0:
        return np.zeros((0, size))
    positions = np.array([kp.position for kp in keypoints])
    # Unsorted, each list keeps the order of a single-point query.
    nbrs = cKDTree(cloud.points).query_ball_point(
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
    for kp, lo, hi in zip(keypoints, ends - sizes, ends):
        cosang[lo:hi] = cloud.normals[nbr[lo:hi]] @ cloud.normals[kp.index]
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
    # onto 0.0.
    desc = np.bincount(
        np.concatenate(bins), np.concatenate(weights), minlength=k * size
    ).reshape(k, size)
    # Row by row: a norm along axis 1 would sum the squares in another order.
    for row in desc:
        norm = np.linalg.norm(row)
        if norm > 0.0:
            row /= norm
    return desc


def _nn_with_ratio(dmat: np.ndarray, ratio: float) -> np.ndarray:
    """Per-row nearest column passing the Lowe ratio test; -1 otherwise."""
    out = np.full(dmat.shape[0], -1, dtype=np.int64)
    if dmat.shape[1] == 0:
        return out
    best = np.argmin(dmat, axis=1)
    d1 = dmat[np.arange(len(best)), best]
    if dmat.shape[1] == 1:
        out[:] = best  # ratio test is vacuous with a single candidate
        return out
    part = np.partition(dmat, 1, axis=1)
    d2 = part[:, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        passed = np.where(d2 > 0.0, d1 / d2 < ratio, d1 == 0.0)
    # d1 == d2 == 0 means duplicate descriptors: ambiguous, reject.
    passed &= ~((d1 == 0.0) & (d2 == 0.0))
    out[passed] = best[passed]
    return out


def describe_cloud(cloud: PointCloud) -> tuple[np.ndarray, np.ndarray]:
    """Read-only keypoint positions ``(k, 3)`` and their descriptors ``(k, d)``."""
    keypoints = detect_iss_keypoints(cloud)
    positions = np.array([kp.position for kp in keypoints]).reshape(-1, 3)
    return _freeze(positions), _freeze(_describe_all(cloud, keypoints))


def match_feat3d(source: tuple, target: tuple) -> CorrespondenceSet:
    """Mutual-NN matches (tag ``feat3d``) of two :func:`describe_cloud` results."""
    (ps, ds), (pt, dt) = source, target
    if len(ps) == 0 or len(pt) == 0:
        return CorrespondenceSet(np.empty((0, 3)), np.empty((0, 3)), "feat3d")
    dmat = cdist(ds, dt)
    fwd = _nn_with_ratio(dmat, MATCH_RATIO)
    bwd = _nn_with_ratio(dmat.T, MATCH_RATIO)
    i = np.flatnonzero(fwd >= 0)
    i = i[bwd[fwd[i]] == i]
    return CorrespondenceSet(ps[i], pt[fwd[i]], "feat3d")


def parse_feat2d_file(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read a match sidecar: returns (pixel_pairs (N,4), src_depths, tgt_depths).

    Each data line is ``u v depth u' v' depth'``; ``#`` starts a comment.
    Malformed lines raise with the file name and their 1-based line number.
    """
    rows = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            u, v, depth, u2, v2, depth2 = map(float, line.split())
            if not np.isfinite([u, v, u2, v2]).all():
                raise ValueError("non-finite pixel")
        except ValueError:
            raise MatchFileParseError(
                f"{path}: expected u v depth u' v' depth', pixels finite, got {line!r}", lineno
            ) from None
        rows.append((u, v, u2, v2, depth, depth2))
    table = np.asarray(rows, dtype=np.float64).reshape(-1, 6)
    return table[:, :4], table[:, 4], table[:, 5]


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
    if len(pp) == 0:
        return CorrespondenceSet(np.empty((0, 3)), np.empty((0, 3)), "feat2d")
    src = back_project_many(pp[:, :2], sd, intrinsics)
    tgt = back_project_many(pp[:, 2:], td, intrinsics)
    return CorrespondenceSet(src, tgt, "feat2d")
