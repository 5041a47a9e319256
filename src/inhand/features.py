"""Sparse 3D features and correspondence sets.

Keypoints are Intrinsic Shape Signatures: points whose local scatter
eigenvalues are sufficiently anisotropic, surviving non-maximum
suppression on the smallest eigenvalue. The descriptor is a rigid-motion
invariant histogram over a spherical support: 4 radial shells x 8 bins of
the angle between neighbor normals and the keypoint normal, plus an
optional 8-bin luminance histogram when colors are present. Matching is
mutual nearest neighbor with a Lowe-style ratio test.

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

from .errors import EmptyInputError, MatchFileParseError
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


def detect_iss_keypoints(cloud: PointCloud) -> list[Keypoint]:
    """ISS keypoints of a cloud (which must carry normals for description).

    A point qualifies when at least ``MIN_NEIGHBORS`` points lie within
    ``SALIENT_RADIUS``, its scatter eigenvalues l1 >= l2 >= l3 satisfy
    l2/l1 < ``GAMMA21`` and l3/l2 < ``GAMMA32`` with l3 > 0, and its l3 is
    maximal among neighbors within ``NONMAX_RADIUS``. Output is sorted by
    position so the result is invariant under point reordering.
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
    # Accumulate neighborhood first and second moments (self included).
    counts = np.ones(n)
    s1 = pts.copy()
    s2 = np.einsum("ni,nj->nij", pts, pts)
    if len(pairs):
        ii = np.concatenate([pairs[:, 0], pairs[:, 1]])
        jj = np.concatenate([pairs[:, 1], pairs[:, 0]])
        np.add.at(counts, ii, 1.0)
        np.add.at(s1, ii, pts[jj])
        np.add.at(s2, ii, np.einsum("ni,nj->nij", pts[jj], pts[jj]))
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
        lower = np.where(rank[a] < rank[b], a, b)
        np.minimum.at(keep, lower, False)
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
    desc = np.zeros(size)
    if nbr.size == 0:
        return desc
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


def match_feat3d(source: PointCloud, target: PointCloud) -> CorrespondenceSet:
    """Mutual-NN descriptor matches between two clouds (tag ``feat3d``)."""
    kps = detect_iss_keypoints(source)
    kpt = detect_iss_keypoints(target)
    if not kps or not kpt:
        return CorrespondenceSet(np.empty((0, 3)), np.empty((0, 3)), "feat3d")
    ds = _describe_all(source, kps)
    dt = _describe_all(target, kpt)
    dmat = cdist(ds, dt)
    fwd = _nn_with_ratio(dmat, MATCH_RATIO)
    bwd = _nn_with_ratio(dmat.T, MATCH_RATIO)
    src_pts, tgt_pts = [], []
    for i, j in enumerate(fwd):
        if j >= 0 and bwd[j] == i:
            src_pts.append(kps[i].position)
            tgt_pts.append(kpt[j].position)
    if not src_pts:
        return CorrespondenceSet(np.empty((0, 3)), np.empty((0, 3)), "feat3d")
    return CorrespondenceSet(np.array(src_pts), np.array(tgt_pts), "feat3d")


def parse_feat2d_file(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read a match sidecar: returns (pixel_pairs (N,4), src_depths, tgt_depths).

    Each data line is ``u v depth u' v' depth'``; ``#`` starts a comment.
    Malformed lines raise with their 1-based line number.
    """
    pairs, src_d, tgt_d = [], [], []
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 6:
            raise MatchFileParseError(
                f"expected 6 fields (u v depth u' v' depth'), got {len(fields)}", lineno
            )
        try:
            values = [float(f) for f in fields]
        except ValueError:
            raise MatchFileParseError(f"non-numeric field in {fields!r}", lineno) from None
        pairs.append([values[0], values[1], values[3], values[4]])
        src_d.append(values[2])
        tgt_d.append(values[5])
    return (
        np.asarray(pairs, dtype=np.float64).reshape(-1, 4),
        np.asarray(src_d, dtype=np.float64),
        np.asarray(tgt_d, dtype=np.float64),
    )


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
