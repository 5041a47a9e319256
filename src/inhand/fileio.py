"""On-disk interchange: PLY clouds/meshes, sidecar files, manifests.

A captured or generated sequence lives in a directory shaped like::

    manifest.json             versioned index of everything below, plus the
                              camera, working volume and TSDF settings
    hand_model.json           bone labels shared by all hand PLYs
    ground_truth.json         optional: the generator's truth (synth.GroundTruth)
    frames/frame_000_object.ply
    frames/frame_000_hand.ply
    frames/frame_001_feat2d.txt   optional per-frame pixel matches
    frames/frame_001_boxes.json   optional per-frame detector boxes

PLY files use float32 x/y/z with optional float32 normals and uchar RGB.
They are written binary little-endian, which round-trips bit-exactly, and
read in ASCII or binary little-endian form.  JSON files carry a
``schema`` field so stale layouts fail loudly instead of half-loading; a
document that does not fit its layout raises :class:`FileFormatError`
(:class:`ManifestError` for the manifest) naming the file.  Ground truth
is stored and read back as :class:`~inhand.synth.GroundTruth`, minus its
generator-only fields.

The manifest describes the sequence only.  How a run registers it (the
contact weight and the terms switched on) and where its outputs go are
set on the command line, never stored here.  A reconstruction's
trajectory is written here too, as JSON Lines (:func:`save_trajectory`).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .contact import PosedHand
from .errors import (
    DegenerateConfigurationError,
    FileFormatError,
    InsufficientPointsError,
    ManifestError,
    MatchFileParseError,
)
from .fusion import Probe, TriangleMesh, check_working_volume
from .geometry import CameraIntrinsics, PointCloud, RigidTransform
from .preprocess import DetectorBox, SegmentedFrame, estimate_normals
from .synth import Annotation, GroundTruth

MANIFEST_SCHEMA = "inhand-manifest/2"
HAND_SCHEMA = "inhand-hand/1"
BOXES_SCHEMA = "inhand-boxes/1"
TRUTH_SCHEMA = "inhand-truth/1"

__all__ = [
    "MANIFEST_SCHEMA",
    "ManifestFrame",
    "SequenceManifest",
    "read_ply",
    "write_ply",
    "save_hand_model",
    "load_hand_model",
    "save_detector_boxes",
    "load_detector_boxes",
    "save_feat2d",
    "parse_feat2d_file",
    "save_ground_truth",
    "load_ground_truth",
    "save_manifest",
    "load_manifest",
    "load_frames",
    "save_trajectory",
    "save_json",
    "write_atomic",
]


# --------------------------------------------------------------------------
# atomic writing


def write_atomic(path, data: bytes) -> None:
    """Write bytes via a sibling temp file and rename, never a partial file.

    The file gets the mode ``open(path, "wb")`` gives a new file.
    """
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path) or ".", f"tmp{os.urandom(8).hex()}.part")
    fh = open(tmp, "xb")  # outside the try: another writer's file is not ours to unlink
    try:
        with fh:
            fh.write(data)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def save_json(path, payload: dict) -> None:
    """Write a JSON document atomically with a stable layout."""
    write_atomic(path, (json.dumps(payload, indent=2) + "\n").encode())


def _load_json(path, schema: str) -> dict:
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise FileFormatError(f"{path}: {exc}") from None
    if not isinstance(payload, dict):
        kind = type(payload).__name__
        raise FileFormatError(f"{path}: expected a JSON object, got {kind}")
    if payload.get("schema") != schema:
        raise FileFormatError(
            f"{path}: expected schema {schema!r}, got {payload.get('schema')!r}"
        )
    return payload


# --------------------------------------------------------------------------
# PLY

_PLY_SCALARS = {
    "float": "<f4",
    "float32": "<f4",
    "double": "<f8",
    "float64": "<f8",
    "uchar": "u1",
    "uint8": "u1",
    "int": "<i4",
    "int32": "<i4",
}


def write_ply(path, data: PointCloud | TriangleMesh) -> None:
    """Write a point cloud or triangle mesh as binary little-endian PLY."""
    is_mesh = isinstance(data, TriangleMesh)
    vertices = data.points if isinstance(data, PointCloud) else data.vertices
    normals = data.normals
    colors = data.colors if isinstance(data, PointCloud) else None

    names = ["x", "y", "z"]
    columns = [vertices.astype("<f4")]
    if normals is not None:
        names += ["nx", "ny", "nz"]
        columns.append(normals.astype("<f4"))
    if colors is not None:
        names += ["red", "green", "blue"]
        columns.append(np.clip(np.rint(colors * 255.0), 0, 255).astype("u1"))

    header = ["ply", "format binary_little_endian 1.0"]
    header.append(f"element vertex {len(vertices)}")
    for name in names:
        kind = "uchar" if name in ("red", "green", "blue") else "float"
        header.append(f"property {kind} {name}")
    if is_mesh:
        header.append(f"element face {len(data.triangles)}")
        header.append("property list uchar int vertex_indices")
    header.append("end_header")

    vdtype = np.dtype(
        [(n, "u1" if n in ("red", "green", "blue") else "<f4") for n in names]
    )
    table = np.empty(len(vertices), dtype=vdtype)
    for block, block_names in zip(columns, (names[0:3], names[3:6], names[6:9])):
        for j, n in enumerate(block_names):
            table[n] = block[:, j]

    out = ["\n".join(header).encode() + b"\n", table.tobytes()]
    if is_mesh:
        fdtype = np.dtype([("n", "u1"), ("v", "<i4", (3,))])
        faces = np.empty(len(data.triangles), dtype=fdtype)
        faces["n"] = 3
        faces["v"] = data.triangles.astype("<i4")
        out.append(faces.tobytes())
    write_atomic(path, b"".join(out))


def _parse_ply_header(raw: bytes, path) -> tuple[str, list, bytes]:
    marker = b"end_header\n"
    cut = raw.find(marker)
    if not raw.startswith(b"ply") or cut < 0:
        raise FileFormatError(f"{path}: not a PLY file")
    fmt = None
    elements: list[dict] = []
    for line in raw[:cut].decode("ascii", errors="replace").splitlines()[1:]:
        parts = line.split()
        if not parts or parts[0] in ("comment", "obj_info"):
            continue
        if parts[0] == "format":
            if parts[1:2] not in (["ascii"], ["binary_little_endian"]):
                raise FileFormatError(f"{path}: unsupported PLY format {line!r}")
            fmt = parts[1]
        elif parts[0] == "element":
            if len(parts) != 3 or not parts[2].isdigit():
                raise FileFormatError(f"{path}: bad element line {line!r}")
            elements.append({"name": parts[1], "count": int(parts[2]), "props": []})
        elif parts[0] == "property":
            if not elements:
                raise FileFormatError(f"{path}: property before any element")
            if len(parts) != (5 if parts[1:2] == ["list"] else 3):
                raise FileFormatError(f"{path}: bad property line {line!r}")
            if parts[1] == "list":
                elements[-1]["props"].append(("list", parts[-1]))
            else:
                kind = _PLY_SCALARS.get(parts[1])
                if kind is None:
                    raise FileFormatError(
                        f"{path}: unsupported property type {parts[1]!r}"
                    )
                elements[-1]["props"].append((kind, parts[2]))
        else:
            raise FileFormatError(f"{path}: unexpected header line {line!r}")
    if fmt is None:
        raise FileFormatError(f"{path}: missing format line")
    return fmt, elements, raw[cut + len(marker):]


def _ascii_table(tokens, cursor, count, width, dtype, path, what) -> np.ndarray:
    """The ``count x width`` numbers of one ASCII PLY element, from ``tokens[cursor:]``."""
    block = tokens[cursor : cursor + count * width]
    if len(block) != count * width:
        raise FileFormatError(f"{path}: truncated {what} data")
    try:
        return np.array(block, dtype=dtype).reshape(count, width)
    except (ValueError, OverflowError) as exc:  # a token that is no number of dtype
        raise FileFormatError(f"{path}: bad {what} data ({exc})") from None


def read_ply(path) -> PointCloud | TriangleMesh:
    """Read a PLY file written by :func:`write_ply` or a compatible tool."""
    fmt, elements, body = _parse_ply_header(Path(path).read_bytes(), path)
    vertex_data: dict[str, np.ndarray] = {}
    faces: np.ndarray | None = None
    tokens = body.decode("ascii", errors="replace").split() if fmt == "ascii" else None
    cursor = 0
    for element in elements:
        count, props = element["count"], element["props"]
        if element["name"] == "vertex":
            if any(kind == "list" for kind, _ in props):
                raise FileFormatError(f"{path}: list property on vertex element")
            if fmt == "ascii":
                grid = _ascii_table(tokens, cursor, count, len(props), np.float64, path, "vertex")
                cursor += grid.size
                for j, (_, name) in enumerate(props):
                    vertex_data[name] = grid[:, j]
            else:
                dtype = np.dtype([(name, kind) for kind, name in props])
                if cursor + count * dtype.itemsize > len(body):
                    raise FileFormatError(f"{path}: truncated vertex data")
                table = np.frombuffer(body, dtype=dtype, count=count, offset=cursor)
                cursor += count * dtype.itemsize
                for _, name in props:
                    vertex_data[name] = table[name].astype(np.float64)
        elif element["name"] == "face":
            if fmt == "ascii":
                table = _ascii_table(tokens, cursor, count, 4, np.int64, path, "face")
                cursor += table.size
                sides, faces = table[:, 0], table[:, 1:]
            else:
                fdtype = np.dtype([("n", "u1"), ("v", "<i4", (3,))])
                if cursor + count * fdtype.itemsize > len(body):
                    raise FileFormatError(f"{path}: truncated face data")
                table = np.frombuffer(body, dtype=fdtype, count=count, offset=cursor)
                cursor += count * fdtype.itemsize
                sides, faces = table["n"], table["v"].astype(np.int64)
            if not (sides == 3).all():
                raise FileFormatError(f"{path}: only triangular faces supported")
        else:
            raise FileFormatError(f"{path}: unsupported element {element['name']!r}")

    missing = {"x", "y", "z"} - set(vertex_data)
    if missing:
        raise FileFormatError(f"{path}: vertex element lacks {sorted(missing)}")
    points = np.column_stack([vertex_data[n] for n in ("x", "y", "z")])
    normals = None
    if {"nx", "ny", "nz"} <= set(vertex_data):
        normals = np.column_stack([vertex_data[n] for n in ("nx", "ny", "nz")])
    colors = None
    if {"red", "green", "blue"} <= set(vertex_data):
        colors = (
            np.column_stack([vertex_data[n] for n in ("red", "green", "blue")]) / 255.0
        )
    try:
        if faces is not None:
            return TriangleMesh(points, faces, normals=normals)
        return PointCloud(points, normals=normals, colors=colors)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from None


# --------------------------------------------------------------------------
# hand model / detector boxes / feat2d sidecars


def save_hand_model(hand: PosedHand, path) -> None:
    """Store the per-vertex bone labels shared by every posed hand PLY."""
    save_json(
        path,
        {
            "schema": HAND_SCHEMA,
            "bone_labels": list(hand.bone_labels),
            "end_effectors": sorted(hand.end_effectors),
        },
    )


def load_hand_model(path) -> tuple[tuple[str, ...], frozenset[str]]:
    payload = _load_json(path, HAND_SCHEMA)
    try:
        return tuple(payload["bone_labels"]), frozenset(payload["end_effectors"])
    except (KeyError, TypeError) as exc:
        raise FileFormatError(f"{path}: bad hand model ({exc})") from None


def save_detector_boxes(boxes, path) -> None:
    save_json(
        path,
        {
            "schema": BOXES_SCHEMA,
            "boxes": [
                {
                    "label": b.label,
                    "x": b.x,
                    "y": b.y,
                    "width": b.width,
                    "height": b.height,
                    "depth": b.depth.tolist(),
                }
                for b in boxes
            ],
        },
    )


def load_detector_boxes(path) -> tuple[DetectorBox, ...]:
    """Boxes whose depths are finite and not negative; 0 marks no reading."""
    payload = _load_json(path, BOXES_SCHEMA)
    try:
        boxes = tuple(
            DetectorBox(
                b["label"],
                int(b["x"]),
                int(b["y"]),
                int(b["width"]),
                int(b["height"]),
                np.asarray(b["depth"], dtype=np.float64),
            )
            for b in payload["boxes"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"{path}: bad detector box ({exc})") from None
    for b in boxes:
        if not (np.isfinite(b.depth).all() and (b.depth >= 0.0).all()):
            raise FileFormatError(f"{path}: {b.label} box depths must be finite and >= 0")
    return boxes


def save_feat2d(matches: tuple, path) -> None:
    """Write a pixel-match sidecar readable by :func:`parse_feat2d_file`."""
    pairs, src_d, tgt_d = matches
    lines = ["# u v depth u' v' depth'"]
    for (u, v, u2, v2), d, d2 in zip(pairs, src_d, tgt_d):
        fields = (float(u), float(v), float(d), float(u2), float(v2), float(d2))
        lines.append(" ".join(repr(x) for x in fields))
    write_atomic(path, ("\n".join(lines) + "\n").encode())


def parse_feat2d_file(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read a match sidecar: returns (pixel_pairs (N,4), src_depths, tgt_depths).

    Each data line is one match, ``u v depth u' v' depth'`` with depths in
    millimeters; ``#`` starts a comment. Malformed lines raise with the
    file name and their 1-based line number.
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


# --------------------------------------------------------------------------
# ground truth


def save_ground_truth(truth: GroundTruth, path) -> None:
    """Store every field of the truth but the generator-only ones."""
    save_json(
        path,
        {
            "schema": TRUTH_SCHEMA,
            "center": list(truth.center),
            "sigma": float(truth.sigma),
            "motions": [
                {
                    "rotation": [float(v) for v in t.rotation.ravel()],
                    "translation": [float(v) for v in t.translation],
                }
                for t in truth.motions
            ],
            "probes": [
                {"name": p.name, "kind": p.kind, "axis": p.axis, "position": p.position}
                for p in truth.probes
            ],
            "expected": {k: float(v) for k, v in truth.expected.items()},
            "annotations": [
                {
                    "frame_a": a.frame_a,
                    "frame_b": a.frame_b,
                    "points_a": np.asarray(a.points_a).tolist(),
                    "points_b": np.asarray(a.points_b).tolist(),
                }
                for a in truth.annotations
            ],
        },
    )


def load_ground_truth(path) -> GroundTruth:
    """Read a truth file; the generator-only fields come back empty."""
    payload = _load_json(path, TRUTH_SCHEMA)
    try:
        motions = tuple(
            RigidTransform(
                np.asarray(m["rotation"], dtype=np.float64).reshape(3, 3),
                np.asarray(m["translation"], dtype=np.float64),
            )
            for m in payload["motions"]
        )
        probes = tuple(
            Probe(p["name"], p["kind"], axis=int(p["axis"]), position=float(p["position"]))
            for p in payload["probes"]
        )
        annotations = tuple(
            Annotation(
                int(a["frame_a"]),
                int(a["frame_b"]),
                np.asarray(a["points_a"], dtype=np.float64).reshape(-1, 3),
                np.asarray(a["points_b"], dtype=np.float64).reshape(-1, 3),
            )
            for a in payload["annotations"]
        )
        if any(a.points_a.shape != a.points_b.shape for a in annotations):
            raise ValueError("an annotation pairs point lists of different lengths")
        if any(len(a.points_a) == 0 for a in annotations):
            raise ValueError("an annotation has no point pairs")
        expected = {str(k): float(v) for k, v in dict(payload["expected"]).items()}
        for p in probes:
            if not 0.0 < expected.get(p.name, math.nan) < math.inf:
                raise ValueError(f"probe {p.name!r} needs a finite, positive expected value")
        return GroundTruth(
            center=tuple(float(c) for c in payload["center"]),
            sigma=float(payload["sigma"]),
            motions=motions,
            probes=probes,
            expected=expected,
            annotations=annotations,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"{path}: bad ground truth ({exc})") from None


# --------------------------------------------------------------------------
# manifest


@dataclass(frozen=True)
class ManifestFrame:
    """Per-frame file set; paths are absolute once loaded."""

    index: int
    object_path: Path
    hand_path: Path | None = None
    feat2d_path: Path | None = None
    boxes_path: Path | None = None


@dataclass(frozen=True)
class SequenceManifest:
    """Versioned index of a sequence directory: what was captured, and where.

    ``volume_center``/``volume_side_mm`` bound the working volume scanned
    by the TSDF, which ``tsdf_resolution`` voxels a side resolve; the
    extracted mesh is smoothed ``smooth_iterations`` times.
    """

    intrinsics: CameraIntrinsics
    frames: tuple[ManifestFrame, ...]
    volume_center: tuple[float, float, float]
    volume_side_mm: float
    tsdf_resolution: int
    smooth_iterations: int
    hand_model: Path | None = None
    ground_truth: Path | None = None

    def __post_init__(self) -> None:
        if not self.frames:
            raise ManifestError("manifest has an empty frame list")
        try:
            check_working_volume(
                self.volume_center, self.volume_side_mm, self.tsdf_resolution
            )
        except ValueError as exc:
            raise ManifestError(f"working volume: {exc}") from None
        if self.smooth_iterations < 0:
            raise ManifestError("smoothing iterations must be nonnegative")
        if self.hand_model is None and any(f.hand_path for f in self.frames):
            raise ManifestError("frames carry hand files but no hand model is set")
        for a, b in zip(self.frames, self.frames[1:]):
            if b.index <= a.index:
                raise ManifestError(
                    f"frame index {b.index} follows {a.index}; "
                    "frame indices must strictly increase"
                )


def _rel(path: Path | None, root: Path) -> str | None:
    return None if path is None else os.path.relpath(path, root)


def save_manifest(manifest: SequenceManifest, path) -> None:
    """Write the manifest with paths stored relative to its directory."""
    root = Path(path).resolve().parent
    intr = manifest.intrinsics
    save_json(
        path,
        {
            "schema": MANIFEST_SCHEMA,
            "intrinsics": {
                "fx": intr.fx,
                "fy": intr.fy,
                "cx": intr.cx,
                "cy": intr.cy,
                "width": intr.width,
                "height": intr.height,
            },
            "hand_model": _rel(manifest.hand_model, root),
            "ground_truth": _rel(manifest.ground_truth, root),
            "working_volume": {
                "center": list(manifest.volume_center),
                "side_mm": manifest.volume_side_mm,
            },
            "tsdf": {
                "resolution": manifest.tsdf_resolution,
                "smooth_iterations": manifest.smooth_iterations,
            },
            "frames": [
                {
                    "index": f.index,
                    "object": _rel(f.object_path, root),
                    "hand": _rel(f.hand_path, root),
                    "feat2d": _rel(f.feat2d_path, root),
                    "detector_boxes": _rel(f.boxes_path, root),
                }
                for f in manifest.frames
            ],
        },
    )


def load_manifest(path) -> SequenceManifest:
    """Load and validate a manifest; every referenced file must exist."""
    path = Path(path)
    if not path.exists():
        raise ManifestError(f"manifest not found: {path}")
    try:
        payload = _load_json(path, MANIFEST_SCHEMA)
    except FileFormatError as exc:
        raise ManifestError(str(exc)) from None
    root = path.resolve().parent

    def resolve(value, *, required_by: str, optional: bool = True) -> Path | None:
        if value is None:
            if optional:
                return None
            raise ManifestError(f"{required_by} names no object file")
        p = root / value
        if not p.exists():
            raise ManifestError(f"{required_by} references missing file: {p}")
        return p

    try:
        intr = payload["intrinsics"]
        intrinsics = CameraIntrinsics(
            float(intr["fx"]),
            float(intr["fy"]),
            float(intr["cx"]),
            float(intr["cy"]),
            int(intr["width"]),
            int(intr["height"]),
        )
        volume = payload["working_volume"]
        tsdf = payload["tsdf"]
        frames = tuple(
            ManifestFrame(
                int(f["index"]),
                resolve(f["object"], required_by=f"frame {f['index']}", optional=False),
                resolve(f.get("hand"), required_by=f"frame {f['index']}"),
                resolve(f.get("feat2d"), required_by=f"frame {f['index']}"),
                resolve(f.get("detector_boxes"), required_by=f"frame {f['index']}"),
            )
            for f in payload["frames"]
        )
        return SequenceManifest(
            intrinsics=intrinsics,
            frames=frames,
            volume_center=tuple(float(c) for c in volume["center"]),
            volume_side_mm=float(volume["side_mm"]),
            tsdf_resolution=int(tsdf["resolution"]),
            smooth_iterations=int(tsdf["smooth_iterations"]),
            hand_model=resolve(payload.get("hand_model"), required_by="hand_model"),
            ground_truth=resolve(
                payload.get("ground_truth"), required_by="ground_truth"
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ManifestError(f"{path}: bad manifest field ({exc})") from None
    except ManifestError as exc:
        raise ManifestError(f"{path}: {exc}") from None


def _empty_hand() -> PosedHand:
    return PosedHand(np.empty((0, 3)), (), frozenset({"none"}))


def _read_cloud(path) -> PointCloud:
    data = read_ply(path)
    if isinstance(data, TriangleMesh):
        raise FileFormatError(f"{path}: expected a point cloud, got a mesh")
    return data


def load_frames(manifest: SequenceManifest) -> list[SegmentedFrame]:
    """Materialize every frame of the manifest for registration.

    An object cloud missing stored normals gets PCA-estimated ones; one
    without points, or too small or too thin for normals, raises
    :class:`FileFormatError`.  Frames without a hand file carry an empty
    hand, which never satisfies the contact search; the reconstruct
    command refuses such frames up front when the contact term is active.
    """
    model = None
    if manifest.hand_model is not None:
        model = load_hand_model(manifest.hand_model)
    box_sizes: dict[str, tuple[int, int]] = {}
    frames = []
    for mf in manifest.frames:
        cloud = _read_cloud(mf.object_path)
        if len(cloud) == 0:
            raise FileFormatError(f"{mf.object_path}: object cloud has no points")
        if cloud.normals is None:
            try:
                cloud = estimate_normals(cloud)
            except (InsufficientPointsError, DegenerateConfigurationError) as exc:
                raise FileFormatError(
                    f"{mf.object_path}: cannot estimate normals ({exc})"
                ) from None
        if mf.hand_path is not None:
            hand_points = _read_cloud(mf.hand_path).points
            labels, effectors = model
            try:
                hand_pose = PosedHand(hand_points, labels, effectors)
            except ValueError as exc:
                raise FileFormatError(
                    f"{mf.hand_path}: does not fit {manifest.hand_model} ({exc})"
                ) from None
        else:
            hand_pose = _empty_hand()
        feat2d = (
            parse_feat2d_file(mf.feat2d_path) if mf.feat2d_path is not None else None
        )
        if feat2d is not None and len(feat2d[0]) == 0:
            feat2d = None
        boxes = (
            load_detector_boxes(mf.boxes_path) if mf.boxes_path is not None else None
        )
        for box in boxes or ():
            size = box_sizes.setdefault(box.label, (box.height, box.width))
            if (box.height, box.width) != size:
                raise FileFormatError(
                    f"{mf.boxes_path}: box {box.label!r} is not {size[0]}x{size[1]} as before"
                )
        frames.append(SegmentedFrame(mf.index, cloud, hand_pose, feat2d, boxes))
    return frames


def save_trajectory(poses, path) -> None:
    """Write one JSON record per registered frame (JSON Lines).

    ``poses`` are :class:`~inhand.register.FramePose` records; a NaN
    residual (no pairs, or no ICP) is written as ``null``, and so is
    ``icp_converged`` where no ICP ran.
    """

    def num(x: float):
        return None if math.isnan(x) else x

    lines = [
        json.dumps(
            {
                "frame": p.frame_index,
                "rotation": [float(v) for v in p.world_from_frame.rotation.ravel()],
                "translation": [float(v) for v in p.world_from_frame.translation],
                "sparse_rms": num(p.sparse_residual),
                "icp_rms": num(p.icp_residual),
                "icp_iterations": p.icp_iterations,
                "icp_converged": p.icp_converged,
                "counts": dict(p.correspondence_counts),
            }
        )
        for p in poses
    ]
    write_atomic(path, ("\n".join(lines) + "\n").encode())
