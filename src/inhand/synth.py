"""Synthetic scanning sequences with exact ground truth.

Objects are surfaces of revolution sampled once into a canonical point
set; each frame re-poses that same sample rigidly, culls back-facing
points against a per-frame viewing direction, removes points shadowed by
the synthetic fingertips, and perturbs the surviving positions with
Gaussian noise.  Two fingertip vertex pads ride rigidly on the surface at
a 0.5 mm standoff and are emitted exactly (no culling, no noise), so
hand-contact correspondences are noise-free by construction while the
visual channel degrades with sigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np
from scipy.spatial import cKDTree

from .contact import PosedHand
from .errors import EmptyInputError
from .fusion import Probe
from .geometry import (
    CameraIntrinsics,
    PointCloud,
    RigidTransform,
    project,
    rotation_about_axis,
    rotation_angle_rad,
)
from .preprocess import DetectorBox, SegmentedFrame, estimate_normals

DEFAULT_CENTER = np.array([0.0, 0.0, 550.0])

# Tumble motion: rotation axis through the object center and per-frame
# translation drift (mm) of every generated sequence.
TUMBLE_AXIS = (1.0, 0.0, 0.0)
TUMBLE_DRIFT_MM = (0.3, -0.25, 0.2)
# Viewing directions sweep a full circle of azimuth.  That is what closes
# the fused surface: visibility uses a strict ``dot < 0`` test, so a half
# sweep never fires for normals pointing along the mid-sweep azimuth and
# leaves an uncovered crescent behind the object.
AZIMUTH_SWEEP_DEG = 360.0
# Small elevation oscillation of the viewing direction over the sequence.
ELEVATION_DEG = 3.0
ELEVATION_CYCLES = 3
# Annotated point pairs per annotated frame pair.
ANNOTATIONS_PER_PAIR = 6
# Detector boxes: side length and the largest seeded offset, in pixels.
BOX_SIZE_PX = 24
BOX_JITTER_PX = 1

# Bowling-pin revolve profile: raised-cosine bumps for belly and head,
# tapered to zero radius at both poles.
_PIN_BODY_T, _PIN_BODY_W = 0.35, 0.45
_PIN_HEAD_T, _PIN_HEAD_W = 0.82, 0.25
# Molding asymmetry of the pin: one shallow bulge on the neck flank.
# Real pins are nominally symmetric but never perfect surfaces of
# revolution; an exactly symmetric pin would leave rotation about its
# long axis unobservable to dense alignment, which no real scan does.
# The bulge is broad and shallow (3% of the body radius over a ~60 deg
# lobe) so local descriptors still see a featureless flank at sensor
# noise, while plenty of area moves coherently under an azimuth error.
_PIN_BULGE_AMP_REL = 0.03  # of body radius
_PIN_BULGE_T, _PIN_BULGE_WT = 0.62, 0.13  # axial center/width, fraction of height
_PIN_BULGE_PHI, _PIN_BULGE_WPHI = 0.0, 1.1  # azimuth center/half-width (rad)


def _bump(offset: np.ndarray, width: float) -> tuple[np.ndarray, np.ndarray]:
    """Raised cosine ``cos(pi/2 * offset/width)**2`` on ``|offset| < width`` and its slope."""
    x = offset / width
    inside = np.abs(x) < 1.0
    bump = np.where(inside, np.cos(0.5 * math.pi * x) ** 2, 0.0)
    slope = np.where(inside, -0.5 * math.pi / width * np.sin(math.pi * x), 0.0)
    return bump, slope


class _RevolvedSurface:
    """Surface of revolution about z from a dense (r(z), z) profile, with one
    shallow cosine-lobe bulge on its flank.

    The bulge displaces the radius by ``amp * Bz(z) * Bphi(phi)`` where
    both factors are raised-cosine bumps (axial center/width ``z0``/``wz``,
    azimuthal center/half-width ``phi0``/``wphi`` in radians).  At the
    default ``amp`` of 0 it is a plain surface of revolution.  ``sample``
    and ``project`` both return points on the displaced surface with its
    exact outward normals.  Where the bulge vanishes at both a query and
    its foot, ``project`` returns exactly the plain revolved surface's point
    and normal.
    """

    def __init__(self, profile_r: np.ndarray, profile_z: np.ndarray, amp: float = 0.0,
                 z0: float = 0.0, wz: float = 1.0, phi0: float = 0.0, wphi: float = 1.0):
        self.r = np.asarray(profile_r, dtype=np.float64)
        self.z = np.asarray(profile_z, dtype=np.float64)
        dr = np.diff(self.r)
        dz = np.diff(self.z)
        self.seg_len = np.hypot(dr, dz)
        # Lateral area of the frustum each profile segment sweeps.
        self.seg_area = math.pi * (self.r[:-1] + self.r[1:]) * self.seg_len
        # Outward 2D profile normal per segment: (dz, -dr), normalized.
        with np.errstate(invalid="ignore", divide="ignore"):
            self.seg_normal = np.column_stack([dz, -dr]) / self.seg_len[:, None]
        self.amp = float(amp)
        self.z0 = float(z0)
        self.wz = float(wz)
        self.phi0 = float(phi0)
        self.wphi = float(wphi)

    @property
    def area(self) -> float:
        return float(self.seg_area.sum())

    def sample(self, n: int, rng: np.random.Generator):
        """Area-uniform draws over the base profile, displaced by the bulge."""
        probs = self.seg_area / self.seg_area.sum()
        seg = rng.choice(len(probs), size=n, p=probs)
        t = rng.uniform(size=n)
        rho = self.r[seg] + t * (self.r[seg + 1] - self.r[seg])
        z = self.z[seg] + t * (self.z[seg + 1] - self.z[seg])
        phi = rng.uniform(0.0, 2.0 * math.pi, size=n)
        return self._displaced(seg, rho, z, phi)

    def _profile_foot(self, rho: np.ndarray, z: np.ndarray):
        """Closest profile segment and (r, z) foot for each (rho, z) query.

        No point of a segment is closer to a query than the segment's nearer
        endpoint less half its length, so the closest segment has an
        endpoint within the nearest vertex distance plus the longest
        half-length; a tree over the profile vertices finds those.  Each
        query is projected onto its candidate segments only, and the first
        closest in segment order wins, as an argmin over all segments picks.
        """
        q = np.column_stack([rho, z])
        vertices = np.column_stack([self.r, self.z])
        a = vertices[:-1]
        d = np.column_stack([np.diff(self.r), np.diff(self.z)])
        len2 = np.maximum((d**2).sum(1), 1e-300)
        tree = cKDTree(vertices)
        # The margin covers rounding, far below 1e-6 of the coordinates.
        scale = max(np.abs(q).max(initial=0.0), np.abs(vertices).max())
        reach = tree.query(q)[0] + 0.5 * self.seg_len.max() + 1e-6 * scale
        hits = tree.query_ball_point(q, reach)
        counts = np.fromiter(map(len, hits), dtype=np.intp, count=len(q))
        near = np.fromiter(chain.from_iterable(hits), dtype=np.intp, count=counts.sum())
        # Each vertex ends the segment before it and starts the one after it.
        qi = np.tile(np.repeat(np.arange(len(q)), counts), 2)
        seg = np.concatenate([near - 1, near])
        keep = (seg >= 0) & (seg < len(a))
        qi, seg = qi[keep], seg[keep]
        diff = q[qi] - a[seg]
        t = np.clip((diff * d[seg]).sum(-1) / len2[seg], 0.0, 1.0)
        foot = a[seg] + t[:, None] * d[seg]
        dist2 = ((q[qi] - foot) ** 2).sum(-1)
        order = np.lexsort((seg, dist2, qi))
        best = order[np.diff(qi[order], prepend=-1) != 0]
        return seg[best], foot[best, 0], foot[best, 1]

    def _axial(self, z: np.ndarray):
        return _bump(z - self.z0, self.wz)

    def _azimuthal(self, phi: np.ndarray):
        delta = np.arctan2(np.sin(phi - self.phi0), np.cos(phi - self.phi0))
        return _bump(delta, self.wphi)

    def _lift(self, z: np.ndarray, phi: np.ndarray) -> np.ndarray:
        """Radial displacement ``amp * Bz(z) * Bphi(phi)`` of the bulge."""
        return self.amp * self._axial(z)[0] * self._azimuthal(phi)[0]

    def _displaced(self, seg, rho0, z, phi):
        """Bulged-surface points and outward unit normals at base-profile
        parameters (segment, radius, z) and azimuth ``phi``."""
        bz, dbz = self._axial(z)
        bp, dbp = self._azimuthal(phi)
        rho = rho0 + self.amp * bz * bp
        # Unit tangent of the base profile: (dr, dz) / arc length.
        z_s = self.seg_normal[seg, 0]
        r_s = -self.seg_normal[seg, 1]
        rho_s = r_s + self.amp * dbz * bp * z_s
        rho_phi = self.amp * bz * dbp
        cos_p, sin_p = np.cos(phi), np.sin(phi)
        pts = np.column_stack([rho * cos_p, rho * sin_p, z])
        normals = np.column_stack(
            [
                z_s * (rho * cos_p + rho_phi * sin_p),
                z_s * (rho * sin_p - rho_phi * cos_p),
                -rho * rho_s,
            ]
        )
        length = np.linalg.norm(normals, axis=1, keepdims=True)
        fallback = np.column_stack(
            [self.seg_normal[seg, 0] * cos_p, self.seg_normal[seg, 0] * sin_p,
             self.seg_normal[seg, 1]]
        )
        normals = np.where(length > 1e-12, normals / np.maximum(length, 1e-300), fallback)
        return pts, normals

    def project(self, points: np.ndarray):
        """Surface point and outward normal per query.

        The bulge is taken off at the query's own (z, phi), the result is
        projected onto the base profile, and the bulge is put back at the
        foot's z along the query's azimuth.  A point on the surface maps to
        itself with the normal ``sample`` gives it.
        """
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        rho = np.hypot(pts[:, 0], pts[:, 1])
        phi = np.arctan2(pts[:, 1], pts[:, 0])
        base_rho = np.maximum(rho - self._lift(pts[:, 2], phi), 0.0)
        seg, foot_r, foot_z = self._profile_foot(base_rho, pts[:, 2])
        # Sweep the feet around z along each query's own azimuth.
        with np.errstate(invalid="ignore", divide="ignore"):
            cos_p = np.where(rho > 1e-12, pts[:, 0] / rho, 1.0)
            sin_p = np.where(rho > 1e-12, pts[:, 1] / rho, 0.0)
        surf = np.column_stack([foot_r * cos_p, foot_r * sin_p, foot_z])
        nr = self.seg_normal[seg, 0]
        nz = self.seg_normal[seg, 1]
        normals = np.column_stack([nr * cos_p, nr * sin_p, nz])
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        lobe = self._lift(foot_z, phi) != 0.0
        surf[lobe], normals[lobe] = self._displaced(
            seg[lobe], foot_r[lobe], foot_z[lobe], phi[lobe]
        )
        return surf, normals

    def volume_correction(self) -> float:
        """Exact volume added by the bulge over the base revolution."""
        bz, _ = self._axial(self.z)
        first = self.amp * self.wphi * float(np.trapezoid(self.r * bz, self.z))
        second = 0.5 * self.amp**2 * (0.75 * self.wz) * (0.75 * self.wphi)
        return first + second


class _SphereSurface:
    """Analytic sphere: exact radii and normals."""

    def __init__(self, radius: float):
        self.radius = radius

    @property
    def area(self) -> float:
        return 4.0 * math.pi * self.radius**2

    def sample(self, n: int, rng: np.random.Generator):
        dirs = rng.normal(size=(n, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        return self.radius * dirs, dirs

    def project(self, points: np.ndarray):
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        norms = np.linalg.norm(pts, axis=1, keepdims=True)
        dirs = np.where(norms > 1e-12, pts / norms, [[1.0, 0.0, 0.0]])
        return self.radius * dirs, dirs


@dataclass(frozen=True)
class SyntheticObjectSpec:
    """Scan target: its surface about the origin (mm), the probes that measure
    it at ``DEFAULT_CENTER`` with their true values (every dimension the
    constructors take is one), and its sample density in points per mm^2."""

    surface: _RevolvedSurface | _SphereSurface
    probes: tuple[Probe, ...]
    expected: dict[str, float]
    density: float = 1.0

    def __post_init__(self) -> None:
        if any(v <= 0.0 for v in self.expected.values()) or self.density <= 0.0:
            raise ValueError("dimensions and density must be positive")

    @classmethod
    def _round(cls, surface, diameter: float, height: float, volume: float, density: float):
        """An object measured by its height, volume and one diameter at its center."""
        probes = (
            Probe("height", "extent", axis=2),
            Probe("diameter", "slice_diameter", axis=2, position=float(DEFAULT_CENTER[2])),
            Probe("volume", "volume"),
        )
        return cls(surface, probes, {"height": height, "diameter": diameter, "volume": volume},
                   density)

    @classmethod
    def sphere(cls, diameter: float = 70.0, density: float = 1.0):
        d = float(diameter)
        return cls._round(_SphereSurface(d / 2.0), d, d, math.pi * d**3 / 6.0, density)

    @classmethod
    def capsule_bottle(cls, diameter: float, height: float, density: float = 1.0):
        if height <= diameter:
            raise ValueError("capsule height must exceed its diameter")
        d, h = float(diameter), float(height)
        r = d / 2.0
        z = np.linspace(-h / 2.0, h / 2.0, 3001)
        cap = np.clip(np.abs(z) - (h / 2.0 - r), 0.0, r)
        surface = _RevolvedSurface(np.sqrt(np.maximum(r**2 - cap**2, 0.0)), z)
        volume = math.pi * r**2 * (h - 2.0 * r) + 4.0 / 3.0 * math.pi * r**3
        return cls._round(surface, d, h, volume, density)

    @classmethod
    def bowling_pin(
        cls, head_diameter: float, body_diameter: float, height: float, density: float = 1.0
    ):
        """A pin whose body and head diameters are probed at their maxima."""
        if not head_diameter < body_diameter < height:
            raise ValueError("expected head diameter < body diameter < height")
        head_d, body_d, h = float(head_diameter), float(body_diameter), float(height)
        t = np.linspace(0.0, 1.0, 3001)
        r = (body_d / 2.0) * _bump(t - _PIN_BODY_T, _PIN_BODY_W)[0] + (
            head_d / 2.0
        ) * _bump(t - _PIN_HEAD_T, _PIN_HEAD_W)[0]
        z = (t - 0.5) * h
        # Close the revolve with flat discs at both ends.
        surface = _RevolvedSurface(
            np.concatenate([[0.0], r, [0.0]]),
            np.concatenate([[z[0]], z, [z[-1]]]),
            amp=_PIN_BULGE_AMP_REL * body_d / 2.0,
            z0=(_PIN_BULGE_T - 0.5) * h,
            wz=_PIN_BULGE_WT * h,
            phi0=_PIN_BULGE_PHI,
            wphi=_PIN_BULGE_WPHI,
        )
        cz = float(DEFAULT_CENTER[2])
        probes = (
            Probe("height", "extent", axis=2),
            Probe("body_diameter", "slice_diameter", axis=2,
                  position=cz + (_PIN_BODY_T - 0.5) * h),
            Probe("head_diameter", "slice_diameter", axis=2,
                  position=cz + (_PIN_HEAD_T - 0.5) * h),
            Probe("volume", "volume"),
        )
        volume = float(np.trapezoid(math.pi * surface.r**2, surface.z))
        volume += surface.volume_correction()
        expected = {"height": h, "body_diameter": body_d, "head_diameter": head_d,
                    "volume": volume}
        return cls(surface, probes, expected, density)


# The hand: two rigid fingertip pads gripping the object by its ends.
# Pads are hex-packed vertex discs of PAD_RADIUS_MM at PAD_SPACING_MM
# conformed to the surface around the top and bottom poles at
# PAD_STANDOFF_MM; each pad is one labeled end-effector bone.  A polar
# grip keeps part of every pad's under-surface camera-facing from any
# near-horizontal viewing direction, so contact stays detectable
# throughout an azimuth sweep.  Every pad vertex occludes a thin ray tube
# of radius OCCLUSION_RADIUS_MM (the hand is a sparse vertex set, not a
# solid), so shadow speckles move with the view direction and the surface
# beneath the pad is still seen across a sweep.
PAD_RADIUS_MM = 10.0
PAD_SPACING_MM = 0.9
PAD_STANDOFF_MM = 0.5
OCCLUSION_RADIUS_MM = 0.35
HAND_LABELS = ("thumb_tip", "index_tip")


def _hex_disc(radius: float, spacing: float) -> np.ndarray:
    """2D hex-lattice points covering a disc."""
    row_h = spacing * math.sqrt(3.0) / 2.0
    n_rows = int(math.floor(radius / row_h))
    pts = []
    for j in range(-n_rows, n_rows + 1):
        y = j * row_h
        x_off = 0.5 * spacing if j % 2 else 0.0
        n_cols = int(math.floor((math.sqrt(radius**2 - y**2) + x_off) / spacing)) + 1
        for i in range(-n_cols, n_cols + 1):
            x = i * spacing + x_off
            if x * x + y * y <= radius * radius:
                pts.append((x, y))
    return np.array(pts)


def _tangent_basis(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit vectors u, v that complete the unit vector n to a right-handed basis."""
    ref = np.eye(3)[np.argmin(np.abs(n))]
    u = np.cross(n, ref)
    u /= np.linalg.norm(u)
    return u, np.cross(n, u)


def build_hand(obj: SyntheticObjectSpec) -> PosedHand:
    """Canonical PosedHand: one pad on each pole, conformed to the surface."""
    disc = _hex_disc(PAD_RADIUS_MM, PAD_SPACING_MM)
    verts, labels = [], []
    for label, pole in zip(HAND_LABELS, (1.0, -1.0)):
        anchor, n = obj.surface.project(np.array([[0.0, 0.0, pole * 1e6]]))
        anchor, n = anchor[0], n[0]
        u, v = _tangent_basis(n)
        raw = anchor[None, :] + disc[:, :1] * u[None, :] + disc[:, 1:] * v[None, :]
        surf_pts, surf_n = obj.surface.project(raw)
        pad = surf_pts + PAD_STANDOFF_MM * surf_n + DEFAULT_CENTER
        verts.append(pad)
        labels.extend([label] * len(pad))
    return PosedHand(np.vstack(verts), tuple(labels), frozenset(HAND_LABELS))


@dataclass(frozen=True)
class MotionScript:
    """Ground-truth rigid motion plus per-frame visibility directions.

    ``transforms[k]`` maps canonical coordinates to frame-k coordinates;
    ``view_dirs[k]`` is the camera viewing direction expressed in the
    canonical frame (a point is visible when its normal opposes it).
    """

    transforms: tuple[RigidTransform, ...]
    view_dirs: tuple
    sigma: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if len(self.transforms) == 0:
            raise ValueError("need at least one frame")
        if len(self.transforms) != len(self.view_dirs):
            raise ValueError("one view direction per transform required")
        if self.sigma < 0.0:
            raise ValueError("sigma must be nonnegative")
        dirs = tuple(
            np.asarray(d, dtype=np.float64).reshape(3)
            / np.linalg.norm(np.asarray(d, dtype=np.float64))
            for d in self.view_dirs
        )
        object.__setattr__(self, "view_dirs", dirs)

    def __len__(self) -> int:
        return len(self.transforms)

    @classmethod
    def tumble(
        cls, n_frames: int, deg_per_frame: float = 6.0, sigma: float = 0.5, seed: int = 0
    ):
        """Rotation about ``TUMBLE_AXIS`` through the object center plus slow drift.

        View directions sweep ``AZIMUTH_SWEEP_DEG`` of azimuth with a small
        oscillating elevation.
        """
        drift = np.asarray(TUMBLE_DRIFT_MM, dtype=np.float64)
        transforms, dirs = [], []
        for k in range(n_frames):
            rot = rotation_about_axis(TUMBLE_AXIS, math.radians(deg_per_frame * k))
            trans = DEFAULT_CENTER - rot @ DEFAULT_CENTER + k * drift
            transforms.append(RigidTransform(rot, trans))
            theta = math.radians(AZIMUTH_SWEEP_DEG) * k / n_frames
            phi = math.radians(ELEVATION_DEG) * math.sin(
                2.0 * math.pi * ELEVATION_CYCLES * k / n_frames + 0.7
            )
            dirs.append(
                (
                    math.cos(theta) * math.cos(phi),
                    math.sin(theta) * math.cos(phi),
                    math.sin(phi),
                )
            )
        return cls(tuple(transforms), tuple(dirs), sigma, seed)


@dataclass(frozen=True)
class Annotation:
    """Hand-labeled 3D point pairs between two frames (both sides noisy)."""

    frame_a: int
    frame_b: int
    points_a: np.ndarray  # (m, 3) in frame_a coordinates
    points_b: np.ndarray  # (m, 3) in frame_b coordinates


@dataclass(frozen=True)
class GroundTruth:
    """Everything the generator knows that the pipeline must recover.

    :func:`generate_sequence` makes it; ``fileio.save_ground_truth``
    stores the first six fields and ``fileio.load_ground_truth`` reads
    them back into this same type.  ``center`` is the object center in
    canonical coordinates; ``motions[k]`` maps canonical coordinates to
    frame k, so frame k's world pose is ``pair_truth(anchor, k)``, with the
    chain's first frame as the anchor, as :meth:`pose_error` takes it.

    The last two fields are generator-only and empty when the truth is
    read from disk: ``visible_indices[k]`` lists, in ascending order, the
    canonical rows that frame k emits (``attach_feat2d`` pairs frames by
    them), and ``canonical_cloud`` is the sample every frame re-poses.
    """

    center: tuple[float, float, float]
    sigma: float
    motions: tuple[RigidTransform, ...]
    probes: tuple[Probe, ...]
    expected: dict[str, float]
    annotations: tuple[Annotation, ...]
    visible_indices: tuple[np.ndarray, ...] = ()
    canonical_cloud: PointCloud | None = None

    def pair_truth(self, frame_a: int, frame_b: int) -> RigidTransform:
        """Transform mapping frame_b coordinates onto frame_a coordinates."""
        return self.motions[frame_a].compose(self.motions[frame_b].inverse())

    def pose_error(self, anchor: int, frame: int, pose: RigidTransform) -> tuple[float, float]:
        """Rotation error (deg) and object-centre shift (mm) of ``pose``, an
        estimate of ``pair_truth(anchor, frame)``, frame ``frame``'s pose in the
        world of frame ``anchor``: the absolute trajectory error (Sturm et al., IROS 2012)."""
        truth = self.pair_truth(anchor, frame)
        seen = self.motions[frame].apply(np.asarray(self.center))
        turn = rotation_angle_rad(pose.rotation @ truth.rotation.T)
        return math.degrees(turn), float(np.linalg.norm(pose.apply(seen) - truth.apply(seen)))


def _occluded(points: np.ndarray, pad_vertices: np.ndarray, view_dir: np.ndarray,
              radius: float) -> np.ndarray:
    """True for points shadowed by any pad vertex along the view direction.

    A point is shadowed when a pad vertex lies ahead of it (``along > 0``)
    within lateral distance ``radius`` of its ray along the unit
    ``view_dir``.  Candidate (point, vertex) pairs come from a cKDTree over
    the pad vertices projected onto the plane normal to ``view_dir``,
    searched at ``radius`` plus a rounding margin.  The test applied to the
    candidates is the exact one, so the mask is the one testing every pair
    gives.
    """
    if radius <= 0.0 or len(pad_vertices) == 0:
        return np.zeros(len(points), dtype=bool)
    out = np.zeros(len(points), dtype=bool)
    r2 = radius * radius
    basis = np.column_stack(_tangent_basis(view_dir))
    flat = points @ basis
    pad_tree = cKDTree(pad_vertices @ basis)
    # The projected distance differs from the tested lateral distance by
    # rounding only, under 1e-7 of the coordinates' magnitude.
    scale = max(np.abs(points).max(initial=0.0), np.abs(pad_vertices).max())
    reach = radius + 1e-6 * scale
    near = np.flatnonzero(pad_tree.query(flat, distance_upper_bound=reach)[0] < np.inf)
    pairs = cKDTree(flat[near]).sparse_distance_matrix(pad_tree, reach, output_type="ndarray")
    rows = near[pairs["i"]]
    d = points[rows] - pad_vertices[pairs["j"]]
    # matmul takes a one-row product through a dot product, which rounds
    # differently from the matrix-vector product of more rows.  Give each
    # pair the kernel that the all-pairs (points, pads, 3) product used.
    if len(pad_vertices) == 1:
        along = (d[:, None, :] @ view_dir)[:, 0]
    elif len(d) == 1:
        along = (np.vstack([d, d]) @ view_dir)[:1]
    else:
        along = d @ view_dir
    lat2 = np.einsum("ij,ij->i", d, d) - along**2
    out[rows[(lat2 < r2) & (along > 0.0)]] = True
    return out


# Luminance values painted onto successive dents. They cycle through
# histogram-separated levels well away from the 0.55 base gray, so any
# two nearby dents land in different luminance bins of the descriptor.
_DENT_LUMINANCE = (0.0625, 0.9375, 0.1875, 0.8125, 0.3125, 0.6875)
_BASE_LUMINANCE = 0.55
# Per-dent depth and radius (mm) are drawn uniformly from these ranges.
DENT_DEPTH_RANGE_MM = (1.2, 3.0)
DENT_RADIUS_RANGE_MM = (2.0, 4.0)


def add_texture_features(cloud: PointCloud, count: int, seed: int = 0) -> PointCloud:
    """Press small seeded, individually painted dents into the cloud.

    Dents are applied to the canonical sample, so they stay rigidly
    consistent across every frame derived from it.  Depth and radius are
    randomized per dent, and each dent is painted its own gray level
    (like high-contrast stickers): identical dents would be
    interchangeable to a local descriptor, and interchangeable features
    match each other instead of their true counterparts.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if count == 0:
        return cloud
    if cloud.normals is None:
        raise ValueError("denting needs normals")
    rng = np.random.default_rng(seed)
    anchors = rng.choice(len(cloud.points), size=min(count, len(cloud.points)), replace=False)
    depths = rng.uniform(*DENT_DEPTH_RANGE_MM, size=len(anchors))
    radii = rng.uniform(*DENT_RADIUS_RANGE_MM, size=len(anchors))
    pts = cloud.points.copy()
    if cloud.colors is not None:
        colors = cloud.colors.copy()
    else:
        colors = np.full((len(pts), 3), _BASE_LUMINANCE)
    for i, (a, depth, radius) in enumerate(zip(anchors, depths, radii)):
        d2 = ((pts - cloud.points[a]) ** 2).sum(axis=1)
        near = d2 < radius**2
        w = np.exp(-d2[near] / (2.0 * (radius / 2.5) ** 2))
        pts[near] -= depth * w[:, None] * cloud.normals[a]
        colors[near] = _DENT_LUMINANCE[i % len(_DENT_LUMINANCE)]
    dented = estimate_normals(PointCloud(pts))
    # Re-orient the recomputed normals against the analytic originals.
    flip = np.einsum("ij,ij->i", dented.normals, cloud.normals) < 0.0
    normals = dented.normals.copy()
    normals[flip] *= -1.0
    return PointCloud(pts, normals=normals, colors=colors)


def generate_sequence(
    obj: SyntheticObjectSpec,
    motion: MotionScript,
    *,
    texture_count: int = 0,
    texture_seed: int = 0,
    annotate_every: int = 10,
    hand_sigma: float = 0.0,
) -> tuple[list[SegmentedFrame], GroundTruth]:
    """Produce one scanning sequence plus its complete ground truth.

    ``hand_sigma`` is the per-vertex Gaussian noise (mm) on the tracked
    hand.  It defaults to zero: the fingertip pads are emitted exactly, so
    hand-contact correspondences are noise-free while only the visual
    channel carries ``motion.sigma``.  Set it to model hand-tracking error.
    """
    if hand_sigma < 0.0:
        raise ValueError("hand_sigma must be nonnegative")
    rng = np.random.default_rng(motion.seed)
    n = max(int(round(obj.surface.area * obj.density)), 800)
    local_pts, local_nrm = obj.surface.sample(n, rng)
    canonical = PointCloud(local_pts + DEFAULT_CENTER, normals=local_nrm)
    if texture_count:
        canonical = add_texture_features(canonical, texture_count, texture_seed)
    hand_canonical = build_hand(obj)

    frames: list[SegmentedFrame] = []
    visible_indices = []
    for k, (pose, view_dir) in enumerate(zip(motion.transforms, motion.view_dirs)):
        facing = canonical.normals @ view_dir < 0.0
        idx = np.nonzero(facing)[0]
        shadowed = _occluded(
            canonical.points[idx], hand_canonical.vertices, view_dir, OCCLUSION_RADIUS_MM
        )
        idx = idx[~shadowed]
        if len(idx) == 0:
            raise EmptyInputError(f"frame {k}: no visible surface points")
        pts = pose.apply(canonical.points[idx])
        if motion.sigma > 0.0:
            pts = pts + rng.normal(scale=motion.sigma, size=pts.shape)
        normals = canonical.normals[idx] @ pose.rotation.T
        colors = canonical.colors[idx] if canonical.colors is not None else None
        hand_pts = pose.apply(hand_canonical.vertices)
        if hand_sigma > 0.0:
            hand_pts = hand_pts + rng.normal(scale=hand_sigma, size=hand_pts.shape)
        hand_k = PosedHand(
            hand_pts,
            hand_canonical.bone_labels,
            hand_canonical.end_effectors,
        )
        frames.append(
            SegmentedFrame(k, PointCloud(pts, normals=normals, colors=colors), hand_k)
        )
        visible_indices.append(idx)

    annotations = _make_annotations(canonical, hand_canonical, motion, rng, annotate_every)
    truth = GroundTruth(
        center=tuple(float(c) for c in DEFAULT_CENTER),
        sigma=motion.sigma,
        motions=tuple(motion.transforms),
        probes=obj.probes,
        expected=dict(obj.expected),
        annotations=annotations,
        visible_indices=tuple(visible_indices),
        canonical_cloud=canonical,
    )
    return frames, truth


def _nearest_to(points: np.ndarray, vertices: np.ndarray, count: int) -> np.ndarray:
    """Rows of the ``count`` points nearest any vertex, nearest first.

    Tree distances keep the few points within a rounding margin of the
    ``count``-th nearest; the squared distances to every vertex then rank
    those, as ranking all points would.
    """
    kth = min(count, len(points)) - 1
    margin = 1e-6 * max(np.abs(points).max(), np.abs(vertices).max())
    # The points nearest one vertex bound the count-th nearest distance from
    # above, which cuts the tree search short for every farther point.
    bound = math.sqrt(np.partition(((points - vertices[0]) ** 2).sum(1), kth)[kth])
    nearest = cKDTree(vertices).query(points, distance_upper_bound=bound + margin)[0]
    rows = np.flatnonzero(nearest <= np.partition(nearest, kth)[kth] + margin)
    d2 = ((points[rows, None, :] - vertices[None, :, :]) ** 2).sum(-1)
    return rows[np.argsort(d2.min(axis=1))[:count]]


def _make_annotations(canonical, hand_canonical, motion, rng, every):
    if every <= 0 or len(motion) <= 1:
        return ()
    # Annotated points sit near the fingertips, like hand-labeled pixels
    # around the grip would.
    order = _nearest_to(canonical.points, hand_canonical.vertices, ANNOTATIONS_PER_PAIR)
    out = []
    for k in range(every, len(motion), every):
        a, b = k - 1, k
        pts = canonical.points[order]
        pa = motion.transforms[a].apply(pts)
        pb = motion.transforms[b].apply(pts)
        if motion.sigma > 0.0:
            pa = pa + rng.normal(scale=motion.sigma, size=pa.shape)
            pb = pb + rng.normal(scale=motion.sigma, size=pb.shape)
        out.append(Annotation(a, b, pa, pb))
    return tuple(out)


def attach_feat2d(
    frames: list[SegmentedFrame],
    truth: GroundTruth,
    intrinsics: CameraIntrinsics,
    max_matches: int = 40,
    seed: int = 0,
) -> list[SegmentedFrame]:
    """Attach pixel-match sidecars between consecutive frames.

    Matches are projections of canonical points visible in both frames of
    a pair, so they are exact up to the position noise already in the
    emitted clouds.
    """
    rng = np.random.default_rng(seed)
    out = [frames[0]]
    for k in range(1, len(frames)):
        prev, curr = frames[k - 1], frames[k]
        prev_idx, curr_idx = truth.visible_indices[k - 1], truth.visible_indices[k]
        shared = np.intersect1d(prev_idx, curr_idx)
        if len(shared) > max_matches:
            shared = rng.choice(shared, size=max_matches, replace=False)
        # Visible indices are sorted, so a canonical index's row is its rank.
        pc = curr.object_cloud.points[np.searchsorted(curr_idx, shared)]
        pp = prev.object_cloud.points[np.searchsorted(prev_idx, shared)]
        px_c = project(pc, intrinsics)
        px_p = project(pp, intrinsics)
        matches = (np.hstack([px_c, px_p]), pc[:, 2].copy(), pp[:, 2].copy())
        out.append(replace(curr, feat2d_matches=matches))
    return out


def attach_detector_boxes(
    frames: list[SegmentedFrame], intrinsics: CameraIntrinsics, seed: int = 0
) -> list[SegmentedFrame]:
    """Attach per-fingertip detector boxes with z-buffered depth patches.

    Each box is ``BOX_SIZE_PX`` square, centred on the projected pad
    centroid up to a seeded jitter of at most ``BOX_JITTER_PX``.
    """
    box_size, jitter_px = BOX_SIZE_PX, BOX_JITTER_PX
    rng = np.random.default_rng(seed)
    out = []
    for frame in frames:
        scene = np.vstack([frame.object_cloud.points, frame.hand_pose.vertices])
        uv = project(scene, intrinsics)
        u, v = uv[:, 0], uv[:, 1]
        boxes = []
        for label in sorted(frame.hand_pose.end_effectors):
            pad = frame.hand_pose.vertices[frame.hand_pose.bone_vertex_indices(label)]
            cu, cv = project(pad.mean(axis=0), intrinsics)[0]
            x0 = int(round(cu)) - box_size // 2 + int(rng.integers(-jitter_px, jitter_px + 1))
            y0 = int(round(cv)) - box_size // 2 + int(rng.integers(-jitter_px, jitter_px + 1))
            cols = np.floor(u).astype(int) - x0
            rows = np.floor(v).astype(int) - y0
            in_box = (cols >= 0) & (cols < box_size) & (rows >= 0) & (rows < box_size)
            flat = rows[in_box] * box_size + cols[in_box]
            depth = np.full((box_size, box_size), np.inf)
            np.minimum.at(depth.reshape(-1), flat, scene[in_box, 2])
            depth[~np.isfinite(depth)] = 0.0
            boxes.append(DetectorBox(label, x0, y0, box_size, box_size, depth))
        out.append(replace(frame, detector_boxes=tuple(boxes)))
    return out
