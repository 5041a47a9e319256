"""PLY, sidecar, ground-truth, and manifest round trips."""

import functools
import json
import os
import stat
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import inhand
from inhand.contact import PosedHand
from inhand.errors import FileFormatError, ManifestError
from inhand.fileio import (
    ManifestFrame,
    SequenceManifest,
    load_detector_boxes,
    load_frames,
    load_ground_truth,
    load_hand_model,
    load_manifest,
    parse_feat2d_file,
    read_ply,
    save_detector_boxes,
    save_feat2d,
    save_ground_truth,
    save_hand_model,
    save_manifest,
    save_trajectory,
    write_atomic,
    write_ply,
)
from inhand.fusion import TriangleMesh
from inhand.geometry import CameraIntrinsics, PointCloud, RigidTransform
from inhand.preprocess import DetectorBox
from inhand.register import FramePose, IcpResult
from inhand.synth import MotionScript, SyntheticObjectSpec, generate_sequence

INTRINSICS = CameraIntrinsics(500.0, 500.0, 320.0, 240.0, 640, 480)


@functools.cache
def small_sequence():
    obj = SyntheticObjectSpec.sphere(30.0, density=0.25)
    motion = MotionScript.tumble(4, 6.0, sigma=0.5, seed=3)
    return generate_sequence(obj, motion, annotate_every=3)


def float32_cloud(n=57, seed=0, normals=True, colors=True):
    """A cloud whose values are exactly representable in float32."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(scale=40.0, size=(n, 3)).astype(np.float32).astype(np.float64)
    nrm = None
    if normals:
        raw = rng.normal(size=(n, 3))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        nrm = raw.astype(np.float32).astype(np.float64)
    col = rng.integers(0, 256, size=(n, 3)) / 255.0 if colors else None
    return PointCloud(pts, normals=nrm, colors=col)


class TestPlyCloudRoundTrip:
    def test_binary_preserves_values_and_bytes(self, tmp_path):
        cloud = float32_cloud()
        path = tmp_path / "cloud.ply"
        write_ply(path, cloud)
        first = path.read_bytes()
        loaded = read_ply(path)
        assert np.array_equal(loaded.points, cloud.points)
        assert np.array_equal(loaded.normals, cloud.normals)
        assert np.array_equal(loaded.colors, cloud.colors)
        write_ply(path, loaded)
        assert path.read_bytes() == first

    def test_write_quantizes_to_float32(self, tmp_path):
        pts = np.array([[1.0 / 3.0, 2.0 / 7.0, 550.123456789]])
        path = tmp_path / "cloud.ply"
        write_ply(path, PointCloud(pts))
        loaded = read_ply(path)
        assert np.array_equal(
            loaded.points, pts.astype(np.float32).astype(np.float64)
        )

    def test_optional_blocks_stay_absent(self, tmp_path):
        cloud = float32_cloud(normals=False, colors=False)
        path = tmp_path / "bare.ply"
        write_ply(path, cloud)
        loaded = read_ply(path)
        assert loaded.normals is None and loaded.colors is None


class TestPlyMeshRoundTrip:
    def mesh(self):
        v = np.array(
            [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        )
        t = np.array([[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]])
        return TriangleMesh(v, t)

    def test_binary_roundtrip_bit_exact(self, tmp_path):
        path = tmp_path / "mesh.ply"
        write_ply(path, self.mesh())
        first = path.read_bytes()
        loaded = read_ply(path)
        assert isinstance(loaded, TriangleMesh)
        assert np.array_equal(loaded.vertices, self.mesh().vertices)
        assert np.array_equal(loaded.triangles, self.mesh().triangles)
        write_ply(path, loaded)
        assert path.read_bytes() == first


# An ASCII PLY as another tool might write it: its header up to the face
# element, and its three vertex lines.
ASCII_HEADER = (
    "ply\nformat ascii 1.0\ncomment made by another tool\nelement vertex 3\n"
    "property float x\nproperty float y\nproperty float z\n"
    "property float nx\nproperty float ny\nproperty float nz\n"
    "property uchar red\nproperty uchar green\nproperty uchar blue\n"
)
ASCII_VERTICES = (
    "0 0 500 0 0 -1 255 0 0\n"
    "1.5 0 500 0 0 -1 0 255 0\n"
    "0 -2.25 500.5 0 0.6 -0.8 0 0 51\n"
)
ASCII_FACE_ELEMENT = "element face 1\nproperty list uchar int vertex_indices\n"


def test_reads_ascii_vertices_normals_colors_and_faces(tmp_path):
    header, vertices = ASCII_HEADER, ASCII_VERTICES
    points = [[0.0, 0.0, 500.0], [1.5, 0.0, 500.0], [0.0, -2.25, 500.5]]
    normals = [[0.0, 0.0, -1.0], [0.0, 0.0, -1.0], [0.0, 0.6, -0.8]]
    path = tmp_path / "cloud.ply"
    path.write_text(header + "end_header\n" + vertices)
    cloud = read_ply(path)
    assert isinstance(cloud, PointCloud)
    assert np.array_equal(cloud.points, points)
    assert np.array_equal(cloud.normals, normals)
    assert np.array_equal(cloud.colors, np.array([[255, 0, 0], [0, 255, 0], [0, 0, 51]]) / 255.0)
    path.write_text(header + ASCII_FACE_ELEMENT + "end_header\n" + vertices + "3 0 2 1\n")
    mesh = read_ply(path)
    assert isinstance(mesh, TriangleMesh)
    assert np.array_equal(mesh.vertices, points)
    assert np.array_equal(mesh.normals, normals)
    assert np.array_equal(mesh.triangles, [[0, 2, 1]])


def crlf_header(raw: bytes) -> bytes:
    """``raw`` with every line of its PLY header ended by CRLF instead of LF."""
    head, body = raw.split(b"end_header\n", 1)
    return head.replace(b"\n", b"\r\n") + b"end_header\r\n" + body


def test_crlf_header_reads_as_its_lf_form(tmp_path):
    ascii_mesh = (
        ASCII_HEADER + ASCII_FACE_ELEMENT + "end_header\n" + ASCII_VERTICES + "3 0 2 1\n"
    )
    lf = tmp_path / "lf.ply"
    forms = {
        "ascii": (ascii_mesh.encode(), ascii_mesh.replace("\n", "\r\n").encode()),
    }
    for name, data in (("cloud", float32_cloud()), ("mesh", TestPlyMeshRoundTrip().mesh())):
        write_ply(lf, data)
        forms[name] = (lf.read_bytes(), crlf_header(lf.read_bytes()))
    for name, (lf_bytes, crlf_bytes) in forms.items():
        assert b"\r\n" in crlf_bytes, name
        lf.write_bytes(lf_bytes)
        (tmp_path / "crlf.ply").write_bytes(crlf_bytes)
        want, got = read_ply(lf), read_ply(tmp_path / "crlf.ply")
        assert type(got) is type(want), name
        for field in fields(want):
            a, b = getattr(want, field.name), getattr(got, field.name)
            assert (a is None and b is None) or np.array_equal(a, b), (name, field.name)


class TestPlyErrors:
    def test_rejects_non_ply(self, tmp_path):
        path = tmp_path / "not.ply"
        path.write_bytes(b"OFF\n3 1 0\n")
        with pytest.raises(FileFormatError, match="not a PLY"):
            read_ply(path)

    def test_rejects_big_endian(self, tmp_path):
        path = tmp_path / "be.ply"
        path.write_bytes(
            b"ply\nformat binary_big_endian 1.0\nelement vertex 0\n"
            b"property float x\nproperty float y\nproperty float z\nend_header\n"
        )
        with pytest.raises(FileFormatError, match="unsupported PLY format"):
            read_ply(path)

    def test_rejects_truncated_binary(self, tmp_path):
        path = tmp_path / "cut.ply"
        write_ply(path, float32_cloud(colors=False, normals=False))
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(FileFormatError, match="truncated"):
            read_ply(path)

    def test_rejects_non_triangle_faces(self, tmp_path):
        path = tmp_path / "quad.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 4\n"
            "property float x\nproperty float y\nproperty float z\n"
            "element face 1\nproperty list uchar int vertex_indices\nend_header\n"
            "0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n"
        )
        with pytest.raises(FileFormatError, match="triangular"):
            read_ply(path)

    @pytest.mark.parametrize(
        "body, what",
        [
            ("1 2 abc\n0 1 0\n0 0 1\n3 0 1 2\n", "vertex"),
            ("1 0 0\n0 1 0\n0 0 1\n3 0 1 x\n", "face"),
            ("1 0 0\n0 1 0\n0 0 1\n3 0 1 2.5\n", "face"),
            ("1 0 0\n0 1 0\n0 0 1\n3 0 1 99999999999999999999\n", "face"),
        ],
    )
    def test_rejects_non_numeric_ascii_token(self, tmp_path, body, what):
        path = tmp_path / "word.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 3\n"
            "property float x\nproperty float y\nproperty float z\n"
            "element face 1\nproperty list uchar int vertex_indices\nend_header\n" + body
        )
        with pytest.raises(FileFormatError, match=f"word.ply: bad {what} data"):
            read_ply(path)

    @pytest.mark.parametrize(
        "line, bad",
        [
            (b"element vertex 57", b"element vertex ten"),
            (b"element vertex 57", b"element vertex"),
            (b"element vertex 57", b"element vertex -4"),
            (b"property float z", b"property float"),
            (b"format binary_little_endian 1.0", b"format"),
        ],
    )
    def test_rejects_malformed_header_line(self, tmp_path, line, bad):
        path = tmp_path / "hdr.ply"
        write_ply(path, float32_cloud(colors=False, normals=False))
        data = path.read_bytes()
        assert data.count(line) == 1
        path.write_bytes(data.replace(line, bad))
        with pytest.raises(FileFormatError, match=f"hdr.ply: .* '{bad.decode()}'"):
            read_ply(path)

    def test_requires_xyz(self, tmp_path):
        path = tmp_path / "uv.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float u\nproperty float v\nend_header\n0 0\n"
        )
        with pytest.raises(FileFormatError, match="lacks"):
            read_ply(path)


class TestSidecars:
    def test_hand_model_roundtrip(self, tmp_path):
        hand = PosedHand(
            np.zeros((4, 3)),
            ("thumb_tip", "thumb_tip", "index_tip", "index_tip"),
            frozenset({"thumb_tip", "index_tip"}),
        )
        path = tmp_path / "hand.json"
        save_hand_model(hand, path)
        labels, effectors = load_hand_model(path)
        assert labels == hand.bone_labels
        assert effectors == hand.end_effectors

    def test_hand_model_schema_checked(self, tmp_path):
        path = tmp_path / "hand.json"
        path.write_text(json.dumps({"schema": "other/9", "bone_labels": []}))
        with pytest.raises(FileFormatError, match="schema"):
            load_hand_model(path)

    def test_detector_boxes_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        boxes = (
            DetectorBox("thumb_tip", 10, 20, 4, 3, rng.uniform(500, 600, (3, 4))),
            DetectorBox("index_tip", 50, 60, 4, 3, np.zeros((3, 4))),
        )
        path = tmp_path / "boxes.json"
        save_detector_boxes(boxes, path)
        loaded = load_detector_boxes(path)
        assert len(loaded) == 2
        for a, b in zip(loaded, boxes):
            assert (a.label, a.x, a.y, a.width, a.height) == (
                b.label,
                b.x,
                b.y,
                b.width,
                b.height,
            )
            assert np.array_equal(a.depth, b.depth)

    @pytest.mark.parametrize("depth", [float("inf"), float("nan"), -1.0])
    def test_detector_box_depth_checked(self, tmp_path, depth):
        patch = np.zeros((3, 4))  # 0 is a pixel without a reading
        patch[1, 2] = depth
        path = tmp_path / "boxes.json"
        save_detector_boxes((DetectorBox("thumb_tip", 10, 20, 4, 3, patch),), path)
        with pytest.raises(FileFormatError, match="boxes.json: thumb_tip box depths"):
            load_detector_boxes(path)

    def test_feat2d_roundtrip_is_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        matches = (
            rng.uniform(0, 640, (9, 4)),
            rng.uniform(400, 700, 9),
            rng.uniform(400, 700, 9),
        )
        path = tmp_path / "matches.txt"
        save_feat2d(matches, path)
        pairs, src_d, tgt_d = parse_feat2d_file(path)
        assert np.array_equal(pairs, matches[0])
        assert np.array_equal(src_d, matches[1])
        assert np.array_equal(tgt_d, matches[2])


class TestFeat2d:
    def test_parse_error_reports_line(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("320 240 700 377 297 500\n1 2 3 4 5\n")
        with pytest.raises(FileFormatError) as info:
            parse_feat2d_file(f)
        assert str(info.value) == (
            f"line 2: {f}: expected u v depth u' v' depth', pixels finite, got '1 2 3 4 5'"
        )
        assert info.value.exit_code == 3

    def test_non_numeric_field(self, tmp_path):
        f = tmp_path / "bad2.txt"
        for line in ("a b c d e f", "nan 240 700 377 297 500", "320 240 700 377 inf 500"):
            f.write_text("# a comment line\n" + line + "\n")
            with pytest.raises(FileFormatError) as info:
                parse_feat2d_file(f)
            assert str(info.value).startswith(f"line 2: {f}: expected ")


class TestGroundTruthFile:
    def test_roundtrip_preserves_everything_evaluation_needs(self, tmp_path):
        _, truth = small_sequence()
        path = tmp_path / "truth.json"
        save_ground_truth(truth, path)
        loaded = load_ground_truth(path)
        assert loaded.center == tuple(truth.center)
        assert loaded.sigma == truth.sigma
        assert len(loaded.motions) == len(truth.motions)
        got = loaded.pair_truth(2, 3)
        want = truth.pair_truth(2, 3)
        assert np.allclose(got.rotation, want.rotation, atol=1e-15)
        assert np.allclose(got.translation, want.translation, atol=1e-12)
        assert [p.name for p in loaded.probes] == [p.name for p in truth.probes]
        assert loaded.expected == truth.expected
        assert len(loaded.annotations) == len(truth.annotations)
        ann, want_ann = loaded.annotations[0], truth.annotations[0]
        assert (ann.frame_a, ann.frame_b) == (want_ann.frame_a, want_ann.frame_b)
        assert np.array_equal(ann.points_a, want_ann.points_a)

    def test_schema_checked(self, tmp_path):
        path = tmp_path / "truth.json"
        path.write_text(json.dumps({"schema": "inhand-truth/0"}))
        with pytest.raises(FileFormatError, match="schema"):
            load_ground_truth(path)

    def test_expected_value_checked(self, tmp_path):
        # Every probe needs a finite, positive expected value; None drops it.
        _, truth = small_sequence()
        path = tmp_path / "truth.json"
        save_ground_truth(truth, path)
        name = truth.probes[0].name
        for value in (None, 0.0, -3.0, float("nan"), float("inf")):
            payload = json.loads(path.read_text())
            if value is None:
                del payload["expected"][name]
            else:
                payload["expected"][name] = value
            bad = tmp_path / "bad_truth.json"
            bad.write_text(json.dumps(payload))
            with pytest.raises(FileFormatError, match=f"bad_truth.json.*{name}"):
                load_ground_truth(bad)


def write_sequence_dir(tmp_path):
    """A minimal on-disk sequence: two frames with object and hand files."""
    frames, truth = small_sequence()
    (tmp_path / "frames").mkdir(exist_ok=True)
    manifest_frames = []
    for frame in frames[:2]:
        obj = tmp_path / "frames" / f"f{frame.frame_index}_object.ply"
        hand = tmp_path / "frames" / f"f{frame.frame_index}_hand.ply"
        write_ply(obj, frame.object_cloud)
        write_ply(hand, PointCloud(frame.hand_pose.vertices))
        manifest_frames.append(ManifestFrame(frame.frame_index, obj, hand))
    hand_model = tmp_path / "hand_model.json"
    save_hand_model(frames[0].hand_pose, hand_model)
    truth_path = tmp_path / "ground_truth.json"
    save_ground_truth(truth, truth_path)
    manifest = SequenceManifest(
        intrinsics=INTRINSICS,
        frames=tuple(manifest_frames),
        volume_center=tuple(float(c) for c in truth.center),
        volume_side_mm=120.0,
        tsdf_resolution=48,
        smooth_iterations=2,
        hand_model=hand_model,
        ground_truth=truth_path,
    )
    return manifest, frames


class TestManifest:
    def test_roundtrip_yields_equal_manifest(self, tmp_path):
        manifest, _ = write_sequence_dir(tmp_path)
        path = tmp_path / "manifest.json"
        save_manifest(manifest, path)
        assert load_manifest(path) == manifest

    def test_empty_frame_list_rejected(self):
        with pytest.raises(ManifestError, match="empty frame list"):
            SequenceManifest(
                intrinsics=INTRINSICS,
                frames=(),
                volume_center=(0.0, 0.0, 550.0),
                volume_side_mm=350.0,
                tsdf_resolution=128,
                smooth_iterations=3,
            )

    def test_hand_files_require_hand_model(self, tmp_path):
        manifest, _ = write_sequence_dir(tmp_path)
        with pytest.raises(ManifestError, match="hand model"):
            SequenceManifest(
                intrinsics=manifest.intrinsics,
                frames=manifest.frames,
                volume_center=manifest.volume_center,
                volume_side_mm=manifest.volume_side_mm,
                tsdf_resolution=manifest.tsdf_resolution,
                smooth_iterations=manifest.smooth_iterations,
                hand_model=None,
            )

    def test_missing_referenced_file_named(self, tmp_path):
        manifest, _ = write_sequence_dir(tmp_path)
        path = tmp_path / "manifest.json"
        save_manifest(manifest, path)
        manifest.frames[1].object_path.unlink()
        with pytest.raises(ManifestError, match="f1_object.ply"):
            load_manifest(path)

    def test_schema_checked(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"schema": "inhand-manifest/999"}))
        with pytest.raises(ManifestError, match="schema"):
            load_manifest(path)

    @pytest.mark.parametrize(
        "volume, resolution, fault",
        [
            ({"side_mm": float("nan")}, 48, "finite"),
            ({"center": [0.0, float("inf"), 550.0]}, 48, "finite"),
            ({"center": [0.0, 550.0]}, 48, "3D center"),
            ({"side_mm": 200.0}, 20, "6 mm cap"),
            ({"side_mm": 0.0}, 48, "positive"),
            ({}, 1, "resolution"),
        ],
    )
    def test_working_volume_checked(self, tmp_path, volume, resolution, fault):
        manifest, _ = write_sequence_dir(tmp_path)
        path = tmp_path / "manifest.json"
        save_manifest(manifest, path)
        payload = json.loads(path.read_text())
        payload["working_volume"].update(volume)
        payload["tsdf"]["resolution"] = resolution
        path.write_text(json.dumps(payload))
        with pytest.raises(ManifestError, match=f"manifest.json: working volume.*{fault}"):
            load_manifest(path)

    def test_missing_manifest_reported(self, tmp_path):
        with pytest.raises(ManifestError, match="not found"):
            load_manifest(tmp_path / "nope.json")


class TestLoadFrames:
    def test_frames_reload_with_hands_and_normals(self, tmp_path):
        manifest, original = write_sequence_dir(tmp_path)
        loaded = load_frames(manifest)
        assert [f.frame_index for f in loaded] == [0, 1]
        f32 = lambda a: a.astype(np.float32).astype(np.float64)
        assert np.array_equal(loaded[0].object_cloud.points, f32(original[0].object_cloud.points))
        assert np.array_equal(loaded[1].hand_pose.vertices, f32(original[1].hand_pose.vertices))
        assert loaded[0].hand_pose.bone_labels == original[0].hand_pose.bone_labels
        assert loaded[0].object_cloud.normals is not None

    def test_normals_estimated_when_absent(self, tmp_path):
        manifest, original = write_sequence_dir(tmp_path)
        bare = PointCloud(original[0].object_cloud.points)
        write_ply(manifest.frames[0].object_path, bare)
        loaded = load_frames(manifest)
        normals = loaded[0].object_cloud.normals
        assert normals is not None
        assert np.allclose(np.linalg.norm(normals, axis=1), 1.0)

    def test_frame_without_hand_has_no_hand(self, tmp_path, caplog):
        manifest, _ = write_sequence_dir(tmp_path)
        frames = tuple(
            ManifestFrame(f.index, f.object_path, None) for f in manifest.frames
        )
        no_hands = SequenceManifest(
            intrinsics=manifest.intrinsics,
            frames=frames,
            volume_center=manifest.volume_center,
            volume_side_mm=manifest.volume_side_mm,
            tsdf_resolution=manifest.tsdf_resolution,
            smooth_iterations=manifest.smooth_iterations,
        )
        loaded = load_frames(no_hands)
        assert loaded[0].hand_pose is None
        # No contact search runs, so none fails with a warning.
        assert loaded[0].contact is None
        assert caplog.records == []

    def test_detector_box_keeps_its_size(self, tmp_path):
        manifest, _ = write_sequence_dir(tmp_path)
        frames = []
        for f, side in zip(manifest.frames, (4, 5)):
            boxes = tmp_path / "frames" / f"f{f.index}_boxes.json"
            save_detector_boxes((DetectorBox("thumb", 0, 0, side, 3, np.ones((3, side))),), boxes)
            frames.append(ManifestFrame(f.index, f.object_path, f.hand_path, None, boxes))
        boxed = SequenceManifest(
            intrinsics=manifest.intrinsics,
            frames=tuple(frames),
            volume_center=manifest.volume_center,
            volume_side_mm=manifest.volume_side_mm,
            tsdf_resolution=manifest.tsdf_resolution,
            smooth_iterations=manifest.smooth_iterations,
            hand_model=manifest.hand_model,
        )
        with pytest.raises(FileFormatError, match="f1_boxes.json: box 'thumb' is not 3x4"):
            load_frames(boxed)

    def test_object_cloud_whose_colors_differ_from_the_first_rejected(self, tmp_path):
        manifest, original = write_sequence_dir(tmp_path)

        def paint(k):
            cloud = original[k].object_cloud
            grey = np.full((len(cloud), 3), 0.5)
            write_ply(manifest.frames[k].object_path, PointCloud(cloud.points, cloud.normals, grey))

        paint(1)
        with pytest.raises(FileFormatError, match="f1_object.ply: has colors, unlike .*f0_"):
            load_frames(manifest)
        paint(0)
        assert load_frames(manifest)[1].object_cloud.colors is not None

    def test_mesh_as_object_cloud_rejected(self, tmp_path):
        manifest, _ = write_sequence_dir(tmp_path)
        mesh = TriangleMesh(
            np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
            np.array([[0, 1, 2]]),
        )
        write_ply(manifest.frames[0].object_path, mesh)
        with pytest.raises(FileFormatError, match="point cloud"):
            load_frames(manifest)


ICP_KEYS = ("icp_rms", "icp_iterations", "icp_converged")


class TestTrajectory:
    def test_jsonl_one_record_per_pose(self, tmp_path):
        poses = [
            FramePose(0, RigidTransform.identity(), float("nan"), {}, icp=None),
            FramePose(
                1, RigidTransform.identity(), 0.5, {"feat3d": 7},
                icp=IcpResult(RigidTransform.identity(), (0.5, 0.25), 3, 40, True),
            ),
        ]
        path = tmp_path / "traj.jsonl"
        save_trajectory(poses, path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["frame"] for r in records] == [0, 1]
        assert records[0]["sparse_rms"] is None
        assert [records[0][k] for k in ICP_KEYS] == [None, 0, None]
        assert [records[1][k] for k in ICP_KEYS] == [0.25, 3, True]
        assert records[1]["counts"] == {"feat3d": 7}
        assert records[1]["rotation"] == [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["umask022", "umask077"])
def test_written_file_has_the_mode_of_a_plain_open(tmp_path, umask):
    atomic, plain = tmp_path / "atomic.json", tmp_path / "plain.json"
    old = os.umask(umask)
    try:
        write_atomic(atomic, b"{}\n")
        with open(plain, "wb") as fh:
            fh.write(b"{}\n")
    finally:
        os.umask(old)
    assert stat.S_IMODE(atomic.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)
    assert stat.S_IMODE(atomic.stat().st_mode) == 0o666 & ~umask
    assert atomic.read_bytes() == b"{}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["atomic.json", "plain.json"]


def test_fileio_does_not_load_register():
    # File formats must not depend on the registration code they feed.
    env = dict(os.environ, PYTHONPATH=str(Path(inhand.__file__).parents[1]))
    probe = "import sys, inhand.fileio; print('inhand.register' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
