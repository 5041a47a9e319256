"""On-disk interchange: PLY clouds/meshes, sidecar files, manifests.

A captured or generated sequence lives in a directory shaped like::

    manifest.json             versioned index of everything below
    hand_model.json           bone labels shared by all hand PLYs
    ground_truth.json         optional: the generator's truth (synth.GroundTruth)
    frames/frame_000_object.ply
    frames/frame_000_hand.ply
    frames/frame_001_feat2d.txt   optional per-frame pixel matches
    frames/frame_001_boxes.json   optional per-frame detector boxes

PLY files use float32 x/y/z with optional float32 normals and uchar RGB,
in ASCII or binary little-endian form; binary files round-trip
bit-exactly.  JSON files carry a ``schema`` field so stale layouts fail
loudly instead of half-loading; a document that does not fit its layout
raises :class:`FileFormatError` (:class:`ManifestError` for the manifest)
naming the file.  Ground truth is stored and read back as
:class:`~inhand.synth.GroundTruth`, minus its generator-only fields.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .contact import PosedHand
from .errors import FileFormatError, ManifestError
from .features import parse_feat2d_file
from .fusion import Probe, TriangleMesh
from .geometry import CameraIntrinsics, PointCloud, RigidTransform
from .preprocess import DetectorBox, SegmentedFrame, estimate_normals
from .register import RegistrationConfig, pose_record
from .synth import Annotation, GroundTruth

MANIFEST_SCHEMA = "inhand-manifest/1"
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
    """Write bytes via a sibling temp file and rename, never a partial file."""
    path = os.fspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as fh:
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


def _items(value):
    """``value.items()`` of a JSON object; TypeError for any other value."""
    if not isinstance(value, dict):
        raise TypeError(f"expected a JSON object, got {type(value).__name__}")
    return value.items()


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


def write_ply(path, data: PointCloud | TriangleMesh, binary: bool = True) -> None:
    """Write a point cloud or triangle mesh as PLY (binary LE by default)."""
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

    header = ["ply", f"format {'binary_little_endian' if binary else 'ascii'} 1.0"]
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

    out = ["\n".join(header).encode() + b"\n"]
    if binary:
        out.append(table.tobytes())
        if is_mesh:
            fdtype = np.dtype([("n", "u1"), ("v", "<i4", (3,))])
            faces = np.empty(len(data.triangles), dtype=fdtype)
            faces["n"] = 3
            faces["v"] = data.triangles.astype("<i4")
            out.append(faces.tobytes())
    else:
        lines = []
        for row in table:
            lines.append(
                " ".join(
                    str(int(row[n])) if n in ("red", "green", "blue") else f"{row[n]:.9g}"
                    for n in names
                )
            )
        for tri in data.triangles if is_mesh else ():
            lines.append("3 " + " ".join(str(int(i)) for i in tri))
        out.append(("\n".join(lines) + "\n").encode())
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
            if parts[1] not in ("ascii", "binary_little_endian"):
                raise FileFormatError(f"{path}: unsupported PLY format {parts[1]!r}")
            fmt = parts[1]
        elif parts[0] == "element":
            elements.append({"name": parts[1], "count": int(parts[2]), "props": []})
        elif parts[0] == "property":
            if not elements:
                raise FileFormatError(f"{path}: property before any element")
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
    payload = _load_json(path, BOXES_SCHEMA)
    try:
        return tuple(
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


def save_feat2d(matches: tuple, path) -> None:
    """Write a pixel-match sidecar readable by ``parse_feat2d_file``."""
    pairs, src_d, tgt_d = matches
    lines = ["# u v depth u' v' depth'"]
    for (u, v, u2, v2), d, d2 in zip(pairs, src_d, tgt_d):
        fields = (float(u), float(v), float(d), float(u2), float(v2), float(d2))
        lines.append(" ".join(repr(x) for x in fields))
    write_atomic(path, ("\n".join(lines) + "\n").encode())


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
        return GroundTruth(
            center=tuple(float(c) for c in payload["center"]),
            sigma=float(payload["sigma"]),
            motions=motions,
            probes=probes,
            expected={str(k): float(v) for k, v in _items(payload["expected"])},
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
    """Versioned index of a sequence directory.

    ``volume_center``/``volume_side_mm`` bound the working volume scanned
    by the TSDF; ``outputs`` names where reconstruction artifacts go.
    """

    intrinsics: CameraIntrinsics
    frames: tuple[ManifestFrame, ...]
    volume_center: tuple[float, float, float]
    volume_side_mm: float
    tsdf_resolution: int
    smooth_iterations: int
    registration: RegistrationConfig
    outputs: dict[str, Path] = field(default_factory=dict)
    hand_model: Path | None = None
    ground_truth: Path | None = None

    def __post_init__(self) -> None:
        if not self.frames:
            raise ManifestError("manifest has an empty frame list")
        if self.volume_side_mm <= 0.0:
            raise ManifestError("working volume side must be positive")
        if self.tsdf_resolution < 2:
            raise ManifestError("TSDF resolution must be at least 2")
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
    reg = manifest.registration
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
            "registration": {
                "gamma_t": reg.gamma_t,
                "icp_max_dist": reg.icp_max_dist,
                "icp_max_iters": reg.icp_max_iters,
                "icp_convergence_eps": reg.icp_convergence_eps,
                "use_contact": reg.use_contact,
                "use_detector": reg.use_detector,
                "use_icp": reg.use_icp,
            },
            "outputs": {k: _rel(v, root) for k, v in manifest.outputs.items()},
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
            raise ManifestError(f"{path}: {required_by} names no object file")
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
        reg = payload["registration"]
        config = RegistrationConfig(
            gamma_t=float(reg["gamma_t"]),
            icp_max_dist=float(reg["icp_max_dist"]),
            icp_max_iters=int(reg["icp_max_iters"]),
            icp_convergence_eps=float(reg["icp_convergence_eps"]),
            use_contact=bool(reg["use_contact"]),
            use_detector=bool(reg["use_detector"]),
            use_icp=bool(reg["use_icp"]),
        )
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
        outputs = {
            str(k): root / v for k, v in _items(payload.get("outputs", {})) if v
        }
        return SequenceManifest(
            intrinsics=intrinsics,
            frames=frames,
            volume_center=tuple(float(c) for c in volume["center"]),
            volume_side_mm=float(volume["side_mm"]),
            tsdf_resolution=int(tsdf["resolution"]),
            smooth_iterations=int(tsdf["smooth_iterations"]),
            registration=config,
            outputs=outputs,
            hand_model=resolve(payload.get("hand_model"), required_by="hand_model"),
            ground_truth=resolve(
                payload.get("ground_truth"), required_by="ground_truth"
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ManifestError(f"{path}: bad manifest field ({exc})") from None


def _empty_hand() -> PosedHand:
    return PosedHand(np.empty((0, 3)), (), frozenset({"none"}))


def _read_cloud(path) -> PointCloud:
    data = read_ply(path)
    if isinstance(data, TriangleMesh):
        raise FileFormatError(f"{path}: expected a point cloud, got a mesh")
    return data


def load_frames(manifest: SequenceManifest) -> list[SegmentedFrame]:
    """Materialize every frame of the manifest for registration.

    Object clouds missing stored normals get PCA-estimated ones.  Frames
    without a hand file carry an empty hand, which never satisfies the
    contact search; the reconstruct command refuses such frames up front
    when the contact term is active.
    """
    model = None
    if manifest.hand_model is not None:
        model = load_hand_model(manifest.hand_model)
    frames = []
    for mf in manifest.frames:
        cloud = _read_cloud(mf.object_path)
        if cloud.normals is None:
            cloud = estimate_normals(cloud)
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
        frames.append(SegmentedFrame(mf.index, cloud, hand_pose, feat2d, boxes))
    return frames


def save_trajectory(poses, path) -> None:
    """Write one JSON record per registered frame (JSON Lines)."""
    lines = [json.dumps(pose_record(p)) for p in poses]
    write_atomic(path, ("\n".join(lines) + "\n").encode())
