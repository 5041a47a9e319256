"""End-to-end command-line coverage: synth, reconstruct, eval, exit codes."""

import csv
import hashlib
import json
import math
import shutil

import numpy as np
import pytest

from inhand import cli, errors
from inhand.errors import DivergenceError, InHandError
from inhand.fileio import (
    load_ground_truth,
    load_manifest,
    read_ply,
    save_ground_truth,
    save_manifest,
    write_ply,
)
from inhand.fusion import TriangleMesh
from inhand.geometry import PointCloud, RigidTransform, rotation_angle_rad


def run_cli(*argv) -> int:
    return cli.main([str(a) for a in argv])


def argparse_rejects(capsys, *argv) -> str:
    """Run the CLI, expect argparse to exit 2, and return its stderr."""
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


def synth_sphere(out, frames=6, extra=()):
    return run_cli(
        "synth",
        "--shape",
        "sphere",
        "--diameter",
        "30",
        "--density",
        "0.25",
        "--frames",
        frames,
        "--noise",
        "0.5",
        "--annotate-every",
        "3",
        "--detector-boxes",
        "--volume-side",
        "120",
        "--tsdf-resolution",
        "48",
        "--smooth-iterations",
        "2",
        "--seed",
        "7",
        "--out",
        out,
        *extra,
    )


@pytest.fixture(scope="module")
def seq_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("seq")
    assert synth_sphere(root) == 0
    return root


@pytest.fixture(scope="module")
def recon_dir(tmp_path_factory, seq_dir):
    out = tmp_path_factory.mktemp("recon")
    assert run_cli("reconstruct", seq_dir / "manifest.json", "--out", out) == 0
    return out


def tree_digest(root):
    """Relative path -> content hash for every file under root."""
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def truncate_object(work):
    bad = work / "frames" / "frame_001_object.ply"
    bad.write_bytes(bad.read_bytes()[:-20])
    return bad.name


def hand_with_faces(work):
    bad = work / "frames" / "frame_002_hand.ply"
    write_ply(bad, TriangleMesh([[0, 0, 500], [1, 0, 500], [0, 1, 500]], [[0, 1, 2]]))
    return bad.name


def hand_missing_a_vertex(work):
    bad = work / "frames" / "frame_002_hand.ply"
    write_ply(bad, PointCloud(read_ply(bad).points[:-1]))
    return bad.name


def hand_model_without_end_effectors(work):
    bad = work / "hand_model.json"
    payload = json.loads(bad.read_text())
    del payload["end_effectors"]
    bad.write_text(json.dumps(payload))
    return bad.name


def object_with_long_normals(work):
    bad = work / "frames" / "frame_001_object.ply"
    cloud = read_ply(bad)
    rows = [
        " ".join(f"{v:.9g}" for v in (*p, *(2.0 * n)))
        for p, n in zip(cloud.points, cloud.normals)
    ]
    header = [
        "ply",
        "format ascii 1.0",
        f"element vertex {len(rows)}",
        *(f"property float {c}" for c in ("x", "y", "z", "nx", "ny", "nz")),
        "end_header",
    ]
    bad.write_text("\n".join(header + rows) + "\n")
    return bad.name


ASCII_TRIANGLE = (
    "ply\nformat ascii 1.0\nelement vertex 3\n"
    "property float x\nproperty float y\nproperty float z\n"
    "element face 1\nproperty list uchar int vertex_indices\nend_header\n"
    "0 0 500\n1 0 500\n0 1 500\n"
)


def hand_faces_cut_short(work):
    bad = work / "frames" / "frame_001_hand.ply"
    bad.write_text(ASCII_TRIANGLE)  # the face line is missing
    return bad.name


def object_vertex_not_a_number(work):
    bad = work / "frames" / "frame_001_object.ply"
    rows = [" ".join(f"{v:.9g}" for v in p) for p in read_ply(bad).points]
    rows[0] = rows[0].rsplit(" ", 1)[0] + " abc"
    header = [
        "ply",
        "format ascii 1.0",
        f"element vertex {len(rows)}",
        *(f"property float {c}" for c in ("x", "y", "z")),
        "end_header",
    ]
    bad.write_text("\n".join(header + rows) + "\n")
    return bad.name


def hand_face_not_a_number(work):
    bad = work / "frames" / "frame_001_hand.ply"
    bad.write_text(ASCII_TRIANGLE + "3 0 1 x\n")
    return bad.name


def object_without_points(work):
    bad = work / "frames" / "frame_001_object.ply"
    write_ply(bad, PointCloud(np.empty((0, 3)), normals=np.empty((0, 3))))
    return bad.name


def object_too_small_for_normals(work):
    bad = work / "frames" / "frame_001_object.ply"
    write_ply(bad, PointCloud(read_ply(bad).points[:10]))  # fewer than k=16, no normals
    return bad.name


def object_collinear_without_normals(work):
    bad = work / "frames" / "frame_001_object.ply"
    line = np.column_stack([np.linspace(-10.0, 10.0, 20), np.zeros(20), np.full(20, 500.0)])
    write_ply(bad, PointCloud(line))
    return bad.name


def feat2d_line_cut_short(work):
    bad = work / "frames" / "frame_001_feat2d.txt"
    bad.write_text("0 0 500 1 1 500\n1 2 3\n")
    manifest = work / "manifest.json"
    payload = json.loads(manifest.read_text())
    payload["frames"][1]["feat2d"] = "frames/" + bad.name
    manifest.write_text(json.dumps(payload))
    return bad.name


def edit_json(path, mutate):
    payload = json.loads(path.read_text())
    mutate(payload)
    path.write_text(json.dumps(payload))


def truth_not_an_object(work):
    (work / "ground_truth.json").write_text("[]\n")
    return "ground_truth.json"


def manifest_not_an_object(work):
    (work / "manifest.json").write_text('"manifest"\n')
    return "manifest.json"


def hand_model_not_an_object(work):
    (work / "hand_model.json").write_text("3\n")
    return "hand_model.json"


def truth_expected_a_list(work):
    edit_json(work / "ground_truth.json", lambda p: p.update(expected=[]))
    return "ground_truth.json"


def frame_without_object(work):
    edit_json(work / "manifest.json", lambda p: p["frames"][1].update(object=None))
    return "frame 1"


def truth_without_expected_diameter(work):
    edit_json(work / "ground_truth.json", lambda p: p["expected"].pop("diameter"))
    return "ground_truth.json"


def truth_expects_zero_height(work):
    edit_json(work / "ground_truth.json", lambda p: p["expected"].update(height=0.0))
    return "ground_truth.json"


def manifest_side_not_a_number(work):
    nan_side = {"side_mm": float("nan")}
    edit_json(work / "manifest.json", lambda p: p["working_volume"].update(nan_side))
    return "manifest.json"


def manifest_voxels_too_large(work):
    edit_json(work / "manifest.json", lambda p: p["tsdf"].update(resolution=10))
    return "manifest.json"


def manifest_focal_length_not_a_number(work):
    edit_json(work / "manifest.json", lambda p: p["intrinsics"].update(fx=float("nan")))
    return "manifest.json"


def truth_without_probes(work):
    edit_json(work / "ground_truth.json", lambda p: p.update(probes=[], expected={}))
    return "ground_truth.json"


def truth_annotation_sides_differ(work):
    edit_json(work / "ground_truth.json", lambda p: p["annotations"][0]["points_b"].pop())
    return "ground_truth.json"


def annotation_without_points(work):
    blank = {"points_a": [], "points_b": []}
    edit_json(work / "ground_truth.json", lambda p: p["annotations"][0].update(blank))
    return "ground_truth.json"


def boxes_change_size(work):
    bad = work / "frames" / "frame_003_boxes.json"
    edit_json(bad, lambda p: p["boxes"][0].update(width=1, depth=[[500.0]], height=1))
    return bad.name


def box_depth_infinite(work):
    def infinite(payload):
        payload["boxes"][0]["depth"][0][0] = float("inf")

    bad = work / "frames" / "frame_003_boxes.json"
    edit_json(bad, infinite)
    return bad.name


def edited_copy(seq_dir, tmp_path, mutate):
    """Copy the sequence directory and rewrite its manifest JSON."""
    work = tmp_path / "seq_copy"
    shutil.copytree(seq_dir, work)
    manifest_path = work / "manifest.json"
    payload = json.loads(manifest_path.read_text())
    mutate(payload)
    manifest_path.write_text(json.dumps(payload))
    return work


class TestSynth:
    def test_sequence_directory_is_complete(self, seq_dir):
        manifest = load_manifest(seq_dir / "manifest.json")
        assert len(manifest.frames) == 6
        cloud = read_ply(manifest.frames[0].object_path)
        assert isinstance(cloud, PointCloud)
        assert cloud.normals is not None
        assert all(f.boxes_path is not None for f in manifest.frames)
        truth = load_ground_truth(manifest.ground_truth)
        assert len(truth.motions) == 6
        assert len(truth.annotations) == 1
        assert truth.expected["diameter"] == 30.0
        # Run settings come from the command line, not the manifest.
        payload = json.loads((seq_dir / "manifest.json").read_text())
        assert "registration" not in payload and "outputs" not in payload

    def test_truth_file_reloads_and_saves_byte_identical(self, seq_dir, tmp_path):
        written = seq_dir / "ground_truth.json"
        again = tmp_path / "ground_truth.json"
        save_ground_truth(load_ground_truth(written), again)
        assert again.read_bytes() == written.read_bytes()

    def test_manifest_reloads_and_saves_byte_identical(self, seq_dir, tmp_path):
        # Paths are stored relative to the manifest, so save next to it.
        work = tmp_path / "seq"
        shutil.copytree(seq_dir, work)
        again = work / "manifest_again.json"
        save_manifest(load_manifest(work / "manifest.json"), again)
        assert again.read_bytes() == (work / "manifest.json").read_bytes()

    def test_negative_dimension_rejected(self, tmp_path, capsys):
        out = tmp_path / "out"
        err = argparse_rejects(
            capsys, "synth", "--shape", "sphere", "--diameter", "-1", "--out", out
        )
        assert "--diameter" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--noise", "nan"),
            ("--hand-noise", "nan"),
            ("--density", "nan"),
            ("--deg-per-frame", "nan"),
            ("--texture-count", "-1"),
            ("--feat2d", "-1"),
            ("--volume-side", "0"),
            ("--volume-side", "nan"),
            ("--smooth-iterations", "-1"),
            ("--tsdf-resolution", "1"),
            ("--frames", "0"),
            ("--seed", "-1"),
        ],
    )
    def test_flag_out_of_range_rejected(self, tmp_path, capsys, flag, value):
        out = tmp_path / "out"
        err = argparse_rejects(capsys, "synth", "--diameter", "30", flag, value, "--out", out)
        assert f"argument {flag}: " in err
        assert not out.exists()

    def test_missing_dimension_rejected(self, tmp_path, capsys):
        code = run_cli("synth", "--shape", "pin", "--out", tmp_path / "out")
        assert code == 2
        assert "--head-diameter" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "flags, named",
        [
            ("--shape pin --head-diameter 90 --body-diameter 80 --height 150", "--shape pin"),
            ("--shape bottle --diameter 60 --height 50", "--shape bottle"),
            (
                "--shape bottle --diameter 60 --height 120 --volume-side 200 "
                "--tsdf-resolution 20",
                "--volume-side",
            ),
        ],
    )
    def test_flags_that_do_not_fit_rejected(self, tmp_path, capsys, flags, named):
        out = tmp_path / "out"
        assert run_cli("synth", *flags.split(), "--frames", "4", "--out", out) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_single_frame_sequence_reconstructs(self, tmp_path):
        out = tmp_path / "one"
        assert synth_sphere(out, frames=1) == 0
        assert run_cli("reconstruct", out / "manifest.json") == 0
        lines = (out / "trajectory.jsonl").read_text().splitlines()
        assert len(lines) == 1

    def test_same_seed_reproduces_every_file(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert synth_sphere(a) == 0
        assert synth_sphere(b) == 0
        assert tree_digest(a) == tree_digest(b)


class TestReconstruct:
    def test_outputs_written(self, seq_dir, recon_dir):
        mesh = read_ply(recon_dir / "mesh.ply")
        assert isinstance(mesh, TriangleMesh)
        assert len(mesh.triangles) > 0
        records = [
            json.loads(line)
            for line in (recon_dir / "trajectory.jsonl").read_text().splitlines()
        ]
        assert [r["frame"] for r in records] == list(range(6))
        report = json.loads((recon_dir / "report.json").read_text())
        assert report["frames"] == 6 and report["registered"] == 6
        assert report["skipped"] == []
        assert report["correspondence_counts"]["contact"] > 0
        assert report["mesh"]["vertices"] == len(mesh.vertices)
        # Frame 0 anchors the world and runs no ICP.
        assert (records[0]["icp_iterations"], records[0]["icp_converged"]) == (0, None)
        assert all(r["icp_iterations"] >= 2 and r["icp_converged"] for r in records[1:])
        assert report["icp"] == {
            "iterations": sum(r["icp_iterations"] for r in records),
            "not_converged": 0,
        }

    def test_accurate_when_contacts_enabled(self, recon_dir):
        report = json.loads((recon_dir / "report.json").read_text())
        assert report["ground_truth"]["collapse_suspected"] is False
        assert report["ground_truth"]["span_agreement"] > 0.5
        diameter = report["dimensions"]["diameter"]
        assert abs(diameter["measured"] - diameter["expected"]) < 2.0

    def test_short_sphere_scan_keeps_its_scripted_poses(self, tmp_path):
        # Only the contact pairs fix the pose of a sphere.  Point-to-point
        # ICP after them spun this scan to a 127.7 deg span (agreement
        # 0.141) and 123 deg of error; now the worst frame is off by
        # 0.0047 deg and 0.008 mm.  The mesh is not asserted: 18 deg of
        # views at the right poses leave a hole, so its volume is unmeasurable.
        seq, out = tmp_path / "seq", tmp_path / "out"
        assert synth_sphere(seq, frames=4) == 0
        assert run_cli("reconstruct", seq / "manifest.json", "--out", out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["registered"] == 4
        assert report["ground_truth"]["span_agreement"] >= 0.99
        assert report["ground_truth"]["collapse_suspected"] is False
        truth = load_ground_truth(seq / "ground_truth.json")
        for line in (out / "trajectory.jsonl").read_text().splitlines():
            record = json.loads(line)
            k = record["frame"]
            pose = RigidTransform(np.reshape(record["rotation"], (3, 3)), record["translation"])
            want = truth.pair_truth(0, k)
            assert math.degrees(rotation_angle_rad(pose.rotation @ want.rotation.T)) < 0.05
            centre = truth.motions[k].apply(np.asarray(truth.center))
            assert np.linalg.norm(pose.apply(centre) - want.apply(centre)) < 0.1

    def test_scan_that_does_not_turn_has_no_span_agreement(self, tmp_path, capsys):
        # The truth's span is 0, so no agreement ratio exists; an estimated
        # span of a hundredth of a degree is not a collapse.
        seq, out = tmp_path / "seq", tmp_path / "out"
        assert run_cli(
            "synth", "--shape", "sphere", "--diameter", "40", "--density", "0.3",
            "--frames", "3", "--deg-per-frame", "0", "--texture-count", "8",
            "--volume-side", "120", "--tsdf-resolution", "40", "--out", seq,
        ) == 0
        capsys.readouterr()
        assert run_cli("reconstruct", seq / "manifest.json", "--out", out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["registered"] == 3
        assert report["ground_truth"] == {
            "rotation_span_deg": 0.0,
            "span_agreement": None,
            "collapse_suspected": None,
        }
        assert "collapsed" not in capsys.readouterr().out

    def test_no_contact_suspects_collapse(self, seq_dir, tmp_path):
        out = tmp_path / "collapse"
        code = run_cli(
            "reconstruct", seq_dir / "manifest.json", "--gamma-t", "0", "--out", out
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["gamma_t"] == 0.0
        assert "contact" not in report["correspondence_counts"]
        assert report["ground_truth"]["collapse_suspected"] is True

    def test_detector_at_gamma_zero_refused_before_any_output(self, seq_dir, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(
            "reconstruct", seq_dir / "manifest.json", "--gamma-t", "0", "--use-detector",
            "--out", out,
        )
        assert code == 2
        assert "--use-detector" in capsys.readouterr().err
        assert not out.exists()

    def test_no_registered_pair_fails_without_mesh(
        self, seq_dir, tmp_path, monkeypatch, capsys
    ):
        def diverge(*args, **kwargs):
            raise DivergenceError("no ICP pairs")

        monkeypatch.setattr("inhand.register.register_pair", diverge)
        out = tmp_path / "diverged"
        code = run_cli("reconstruct", seq_dir / "manifest.json", "--out", out)
        assert code == 4
        assert not out.exists()
        assert "registration failed" in capsys.readouterr().err

    def test_frame_without_hand_refused(self, seq_dir, tmp_path, capsys):
        def drop_hand(payload):
            payload["frames"][2]["hand"] = None

        work = edited_copy(seq_dir, tmp_path, drop_hand)
        code = run_cli("reconstruct", work / "manifest.json")
        assert code == 3
        err = capsys.readouterr().err
        assert "frame 2" in err and "--gamma-t 0" in err

    def test_frame_without_boxes_refused_for_the_detector(self, seq_dir, tmp_path, capsys):
        def drop_boxes(payload):
            payload["frames"][1]["detector_boxes"] = None

        work = edited_copy(seq_dir, tmp_path, drop_boxes)
        out = work / "out"
        code = run_cli("reconstruct", work / "manifest.json", "--use-detector", "--out", out)
        assert code == 3
        err = capsys.readouterr().err
        assert "frame 1" in err and "--use-detector" in err
        assert not out.exists()

    def test_volume_missing_object_fails_meshing(self, seq_dir, tmp_path, capsys):
        def move_volume(payload):
            payload["working_volume"]["center"] = [0.0, 0.0, 0.0]

        work = edited_copy(seq_dir, tmp_path, move_volume)
        code = run_cli("reconstruct", work / "manifest.json")
        assert code == 5
        assert "meshing failed" in capsys.readouterr().err

    def test_corrupt_frame_file_reported(self, seq_dir, tmp_path, capsys):
        for corrupt in (
            truncate_object,
            hand_with_faces,
            hand_missing_a_vertex,
            hand_model_without_end_effectors,
            object_with_long_normals,
            hand_faces_cut_short,
            object_vertex_not_a_number,
            hand_face_not_a_number,
            object_without_points,
            object_too_small_for_normals,
            object_collinear_without_normals,
            feat2d_line_cut_short,
            truth_not_an_object,
            manifest_not_an_object,
            hand_model_not_an_object,
            truth_expected_a_list,
            frame_without_object,
            truth_without_expected_diameter,
            truth_expects_zero_height,
            manifest_side_not_a_number,
            manifest_voxels_too_large,
            manifest_focal_length_not_a_number,
            truth_annotation_sides_differ,
            annotation_without_points,
            boxes_change_size,
            box_depth_infinite,
        ):
            work = tmp_path / corrupt.__name__
            shutil.copytree(seq_dir, work)
            name = corrupt(work)
            out = work / "out"
            code = run_cli("reconstruct", work / "manifest.json", "--out", out)
            assert code == 3, corrupt.__name__
            assert name in capsys.readouterr().err, corrupt.__name__
            assert not out.exists(), corrupt.__name__

    def test_object_cloud_without_the_first_frames_colors_refused(self, tmp_path, capsys):
        seq = tmp_path / "textured"
        assert synth_sphere(seq, frames=3, extra=("--texture-count", "10")) == 0
        bad = seq / "frames" / "frame_001_object.ply"
        cloud = read_ply(bad)
        assert cloud.colors is not None
        write_ply(bad, PointCloud(cloud.points, normals=cloud.normals))
        code = run_cli("reconstruct", seq / "manifest.json", "--out", tmp_path / "out")
        assert code == 3
        assert "frame_001_object.ply: lacks colors" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_duplicate_frame_index_refused(self, seq_dir, tmp_path, capsys):
        def relabel(payload):
            payload["frames"][2]["index"] = 1

        work = edited_copy(seq_dir, tmp_path, relabel)
        code = run_cli("reconstruct", work / "manifest.json", "--out", tmp_path / "out")
        assert code == 3
        assert "strictly increase" in capsys.readouterr().err
        assert not (tmp_path / "out" / "mesh.ply").exists()

    def test_negative_gamma_override_rejected(self, seq_dir, tmp_path, capsys):
        manifest = seq_dir / "manifest.json"
        for command, flag, gamma in (
            ("reconstruct", "--gamma-t", "-1"),
            ("reconstruct", "--gamma-t", "nan"),
            ("reconstruct", "--gamma-t", "inf"),
            ("eval", "--sweep-gammas", "0,nan"),
            ("eval", "--sweep-gammas", "0,-1"),
            ("eval", "--sweep-gammas", "5,0"),
        ):
            out = tmp_path / gamma
            err = argparse_rejects(capsys, command, manifest, flag, gamma, "--out", out)
            assert f"argument {flag}: " in err, gamma
            assert not out.exists(), gamma

    def test_first_manifest_schema_refused(self, seq_dir, tmp_path, capsys):
        def first_schema(payload):
            payload["schema"] = "inhand-manifest/1"

        work = edited_copy(seq_dir, tmp_path, first_schema)
        code = run_cli("reconstruct", work / "manifest.json", "--out", tmp_path / "out")
        assert code == 3
        assert "inhand-manifest/1" in capsys.readouterr().err

    def test_overrides_reach_the_report(self, seq_dir, tmp_path):
        code = run_cli(
            "reconstruct",
            seq_dir / "manifest.json",
            "--gamma-t",
            "5",
            "--use-detector",
            "--no-icp",
            "--out",
            tmp_path,
        )
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["config"] == {
            "gamma_t": 5.0,
            "use_detector": True,
            "use_icp": False,
        }
        records = [
            json.loads(line)
            for line in (tmp_path / "trajectory.jsonl").read_text().splitlines()
        ]
        assert len(records) == 6
        assert all(r["icp_rms"] is None for r in records)
        assert all(r["icp_iterations"] == 0 and r["icp_converged"] is None for r in records)
        assert report["icp"] == {"iterations": 0, "not_converged": 0}


class TestEval:
    def test_gamma_sweep_csv(self, seq_dir, tmp_path):
        out = tmp_path / "sweep"
        code = run_cli(
            "eval",
            seq_dir / "manifest.json",
            "--sweep-gammas",
            "0,15",
            "--out",
            out,
        )
        assert code == 0
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        truth = load_ground_truth(seq_dir / "ground_truth.json")
        assert len(rows) == 2 * len(truth.probes)
        assert sorted({r["gamma"] for r in rows}) == ["0.0", "15.0"]
        by_gamma = {r["gamma"]: float(r["normalized_mean_error"]) for r in rows}
        assert by_gamma["15.0"] < by_gamma["0.0"]

    def test_sweep_uses_the_manifest_volume(self, seq_dir, tmp_path):
        # A working volume that misses the object leaves nothing to measure.
        def move_volume(payload):
            payload["working_volume"]["center"] = [0.0, 0.0, 0.0]

        work = edited_copy(seq_dir, tmp_path, move_volume)
        out = tmp_path / "sweep"
        code = run_cli("eval", work / "manifest.json", "--sweep-gammas", "15", "--out", out)
        assert code == 0
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(r["measured"] == "nan" for r in rows)

    def test_energy_comparison_csv(self, seq_dir, tmp_path):
        out = tmp_path / "energies"
        code = run_cli(
            "eval", seq_dir / "manifest.json", "--compare-energies", "--out", out
        )
        assert code == 0
        with open(out / "energies.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["config"] for r in rows] == [
            "contact+visual",
            "contact+visual",
            "contact",
            "contact",
            "detector+visual",
            "detector+visual",
            "detector",
            "detector",
        ]
        assert all(r["available"] == "1" for r in rows)
        means = {
            r["config"]: float(r["value"]) for r in rows if r["statistic"] == "mean"
        }
        assert means["contact"] <= means["detector"]

    def test_sweep_with_contact_refuses_frames_without_hands(self, seq_dir, tmp_path, capsys):
        def drop_hands(payload):
            payload["hand_model"] = None
            for frame in payload["frames"]:
                frame["hand"] = None

        work = edited_copy(seq_dir, tmp_path, drop_hands)
        out = tmp_path / "sweep"
        code = run_cli("eval", work / "manifest.json", "--sweep-gammas", "0,15", "--out", out)
        assert code == 3
        err = capsys.readouterr().err
        assert "frame 0" in err and "gamma 0" in err
        assert not out.exists()
        code = run_cli("eval", work / "manifest.json", "--sweep-gammas", "0", "--out", out)
        assert code == 0
        with open(out / "sweep.csv", newline="") as fh:
            assert {r["gamma"] for r in csv.DictReader(fh)} == {"0.0"}

    def test_empty_gamma_list_rejected(self, seq_dir, capsys):
        err = argparse_rejects(capsys, "eval", seq_dir / "manifest.json", "--sweep-gammas", ",")
        assert "--sweep-gammas" in err and "gamma" in err

    def test_non_numeric_gamma_rejected(self, seq_dir, capsys):
        err = argparse_rejects(
            capsys, "eval", seq_dir / "manifest.json", "--sweep-gammas", "0,abc"
        )
        assert "--sweep-gammas" in err and "abc" in err

    def test_requires_a_task_flag(self, seq_dir, capsys):
        code = run_cli("eval", seq_dir / "manifest.json")
        assert code == 2
        assert "nothing to do" in capsys.readouterr().err

    def test_requires_ground_truth(self, seq_dir, tmp_path, capsys):
        def drop_truth(payload):
            payload["ground_truth"] = None

        work = edited_copy(seq_dir, tmp_path, drop_truth)
        code = run_cli("eval", work / "manifest.json", "--sweep-gammas", "0")
        assert code == 3
        assert "ground_truth" in capsys.readouterr().err

    def test_requires_annotations_for_energies(self, tmp_path, capsys):
        out = tmp_path / "sparse_ann"
        assert synth_sphere(out, extra=("--annotate-every", "50")) == 0
        code = run_cli("eval", out / "manifest.json", "--compare-energies")
        assert code == 3
        assert "annotated" in capsys.readouterr().err

    def test_bad_truth_refused_before_any_output(self, seq_dir, tmp_path, capsys):
        def annotate_missing_frame(work):
            edit_json(work / "manifest.json", lambda p: p["frames"].pop(2))
            return "frame 2"

        for corrupt in (
            truth_without_expected_diameter,
            truth_expects_zero_height,
            truth_without_probes,
            truth_annotation_sides_differ,
            annotate_missing_frame,
        ):
            work = tmp_path / corrupt.__name__
            shutil.copytree(seq_dir, work)
            named = corrupt(work)
            out = work / "out"
            code = run_cli(
                "eval",
                work / "manifest.json",
                "--sweep-gammas",
                "0,5",
                "--compare-energies",
                "--out",
                out,
            )
            assert code == 3, corrupt.__name__
            err = capsys.readouterr().err
            assert "ground_truth.json" in err and named in err, corrupt.__name__
            assert not out.exists(), corrupt.__name__


class TestUsage:
    def test_unknown_shape_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("synth", "--shape", "cube", "--out", tmp_path)
        assert exc.value.code == 2

    def test_missing_out_rejected(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("synth", "--shape", "sphere", "--diameter", "30")
        assert exc.value.code == 2

    def test_missing_manifest_is_input_error(self, tmp_path, capsys):
        code = run_cli("reconstruct", tmp_path / "absent.json")
        assert code == 3
        assert "not found" in capsys.readouterr().err

    def test_unknown_log_level_rejected(self, seq_dir, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("INHAND_LOG", "verbose")
        out = tmp_path / "out"
        assert run_cli("reconstruct", seq_dir / "manifest.json", "--out", out) == 2
        assert "INHAND_LOG='verbose'" in capsys.readouterr().err
        assert not out.exists()

    def test_every_error_class_carries_an_exit_code(self):
        codes = {
            name: c.exit_code
            for name, c in vars(errors).items()
            if isinstance(c, type) and issubclass(c, InHandError)
        }
        assert set(codes.values()) <= {2, 3, 4, 5}
        assert codes == {
            "InHandError": 3,
            "UsageError": 2,
            "InvalidDepthError": 3,
            "EmptyInputError": 3,
            "InsufficientPointsError": 3,
            "UnderConstrainedError": 4,
            "DegenerateConfigurationError": 4,
            "NoContactError": 4,
            "DivergenceError": 4,
            "EmptyMeshError": 5,
            "OpenMeshError": 5,
            "DegenerateMotionError": 3,
            "FileFormatError": 3,
            "ManifestError": 3,
        }

    def test_value_error_reaching_main_is_a_fault(self, seq_dir, tmp_path, monkeypatch):
        # Only library errors are reported as failures; anything else is a bug.
        def fault(*args, **kwargs):
            raise ValueError("a program fault")

        monkeypatch.setattr("inhand.cli.reconstruct", fault)
        with pytest.raises(ValueError, match="a program fault"):
            run_cli("reconstruct", seq_dir / "manifest.json", "--out", tmp_path / "out")
        assert not (tmp_path / "out").exists()
