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
    term is -0.0, which ``np.add.at`` sums to -0.0.
    """
    total = np.bincount(index, weights, minlength=n)
    if np.any(total == 0.0):
        only_neg_zero = np.ones(n, dtype=bool)
        only_neg_zero[index[(weights != 0.0) | ~np.signbit(weights)]] = False
        total[only_neg_zero] = -0.0
    return total


def _neighbourhood_moments(
    pts: np.ndarray, pairs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Point counts, first and second moments of each point's neighbourhood.

    ``pairs`` holds the unordered neighbour pairs ``(i, j)``, ``i < j``. A
    point's own term comes first, then its pair terms in pair order, first
    as ``pairs[:, 0]`` and then as ``pairs[:, 1]``: the order of
    ``np.add.at`` over the pairs onto the own terms.
    """
    n = len(pts)
    own = np.arange(n)
    ii = np.concatenate([own, pairs[:, 0], pairs[:, 1]])
    jj = np.concatenate([own, pairs[:, 1], pairs[:, 0]])
    coords = [column[jj] for column in pts.T]
    counts = np.bincount(ii, minlength=n).astype(np.float64)
    s1 = np.column_stack([_sum_in_order(ii, c, n) for c in coords])
    # Unlike the first moments, these sums start at +0.0: the own term that
    # np.einsum("ni,nj->nij") gives is 0.0 + x*y, never -0.0.
    s2 = np.empty((n, 3, 3))
    for a in range(3):
        for b in range(a, 3):
            s2[:, a, b] = s2[:, b, a] = np.bincount(ii, coords[a] * coords[b], minlength=n)
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
    pairs = tree.query_pairs(SALIENT_RADIUS, output_type="ndarray")
    counts, s1, s2 = _neighbourhood_moments(pts, pairs)
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


def describe(
    cloud: PointCloud, keypoint: Keypoint, tree: cKDTree | None = None
) -> np.ndarray:
    """L2-normalized local histogram descriptor at a keypoint.

    Bins neighbors within ``DESCRIBE_RADIUS`` by (radial shell, angle
    between the neighbor normal and the keypoint normal); appends a
    luminance histogram when the cloud has colors. A keypoint with no neighbors gets
    the all-zero descriptor.
    """
    if cloud.normals is None:
        raise ValueError("descriptor needs normals")
    if tree is None:
        tree = cKDTree(cloud.points)
    nbr = np.asarray(
        tree.query_ball_point(keypoint.position, DESCRIBE_RADIUS), dtype=np.int64
    )
    size = N_SHELLS * N_ANGLE_BINS + (N_LUM_BINS if cloud.colors is not None else 0)
    if nbr.size == 0:
        return np.zeros(size)
    rel = cloud.points[nbr] - keypoint.position
    dist = np.linalg.norm(rel, axis=1)
    n_kp = cloud.normals[keypoint.index]
    cosang = np.clip(cloud.normals[nbr] @ n_kp, -1.0, 1.0)
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
    bins, weights = [], []
    for ds, ws in ((0, 1.0 - fs), (1, fs)):
        s = np.clip(s0 + ds, 0, N_SHELLS - 1)
        for da, wa in ((0, 1.0 - fa), (1, fa)):
            a = np.clip(a0 + da, 0, N_ANGLE_BINS - 1)
            bins.append(s * N_ANGLE_BINS + a)
            weights.append(ws * wa)
    if cloud.colors is not None:
        lum = cloud.colors[nbr] @ np.array([0.2126, 0.7152, 0.0722])
        lbin = np.minimum((lum * N_LUM_BINS).astype(np.int64), N_LUM_BINS - 1)
        bins.append(N_SHELLS * N_ANGLE_BINS + lbin)
        weights.append(np.ones(len(nbr)))
    # One pass over the blocks in the order above: each bin's terms are
    # added one at a time, in that order, onto 0.0.
    desc = np.bincount(np.concatenate(bins), np.concatenate(weights), minlength=size)
    norm = np.linalg.norm(desc)
    if norm > 0.0:
        desc /= norm
    return desc


def _describe_all(cloud: PointCloud, keypoints: list[Keypoint]) -> np.ndarray:
    tree = cKDTree(cloud.points)
    return np.array([describe(cloud, kp, tree) for kp in keypoints])


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
