"""End-to-end command-line coverage: synth, reconstruct, eval, exit codes."""

import csv
import hashlib
import json
import shutil

import pytest

from inhand import cli
from inhand.errors import DivergenceError
from inhand.fileio import (
    load_ground_truth,
    load_manifest,
    read_ply,
    save_ground_truth,
    write_ply,
)
from inhand.fusion import TriangleMesh
from inhand.geometry import PointCloud


def run_cli(*argv) -> int:
    return cli.main([str(a) for a in argv])


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


def hand_faces_cut_short(work):
    bad = work / "frames" / "frame_001_hand.ply"
    mesh = TriangleMesh([[0, 0, 500], [1, 0, 500], [0, 1, 500]], [[0, 1, 2]])
    write_ply(bad, mesh, binary=False)
    bad.write_text(bad.read_text().rsplit("\n", 2)[0] + "\n")  # drop the face line
    return bad.name


def object_vertex_not_a_number(work):
    bad = work / "frames" / "frame_001_object.ply"
    write_ply(bad, read_ply(bad), binary=False)
    header, body = bad.read_text().split("end_header\n")
    first, rest = body.split("\n", 1)
    tokens = first.split()
    tokens[2] = "abc"
    bad.write_text(f"{header}end_header\n{' '.join(tokens)}\n{rest}")
    return bad.name


def hand_face_not_a_number(work):
    bad = work / "frames" / "frame_001_hand.ply"
    mesh = TriangleMesh([[0, 0, 500], [1, 0, 500], [0, 1, 500]], [[0, 1, 2]])
    write_ply(bad, mesh, binary=False)
    text = bad.read_text()
    assert text.endswith("\n3 0 1 2\n")
    bad.write_text(text[: -len("2\n")] + "x\n")
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


def manifest_outputs_a_list(work):
    edit_json(work / "manifest.json", lambda p: p.update(outputs=[]))
    return "manifest.json"


def frame_without_object(work):
    edit_json(work / "manifest.json", lambda p: p["frames"][1].update(object=None))
    return "frame 1"


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

    def test_truth_file_reloads_and_saves_byte_identical(self, seq_dir, tmp_path):
        written = seq_dir / "ground_truth.json"
        again = tmp_path / "ground_truth.json"
        save_ground_truth(load_ground_truth(written), again)
        assert again.read_bytes() == written.read_bytes()

    def test_negative_dimension_rejected(self, tmp_path, capsys):
        code = run_cli(
            "synth", "--shape", "sphere", "--diameter", "-1", "--out", tmp_path
        )
        assert code == cli.EXIT_USAGE
        assert "--diameter" in capsys.readouterr().err

    def test_missing_dimension_rejected(self, tmp_path, capsys):
        code = run_cli("synth", "--shape", "pin", "--out", tmp_path)
        assert code == cli.EXIT_USAGE
        assert "--head-diameter" in capsys.readouterr().err

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

    def test_accurate_when_contacts_enabled(self, recon_dir):
        report = json.loads((recon_dir / "report.json").read_text())
        assert report["ground_truth"]["collapse_suspected"] is False
        assert report["ground_truth"]["span_agreement"] > 0.5
        diameter = report["dimensions"]["diameter"]
        assert abs(diameter["measured"] - diameter["expected"]) < 2.0

    def test_no_contact_suspects_collapse(self, seq_dir, tmp_path):
        out = tmp_path / "collapse"
        code = run_cli(
            "reconstruct", seq_dir / "manifest.json", "--no-contact", "--out", out
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["use_contact"] is False
        assert report["ground_truth"]["collapse_suspected"] is True

    def test_no_registered_pair_fails_without_mesh(
        self, seq_dir, tmp_path, monkeypatch, capsys
    ):
        def diverge(*args, **kwargs):
            raise DivergenceError("no ICP pairs")

        monkeypatch.setattr("inhand.register.register_pair", diverge)
        out = tmp_path / "diverged"
        code = run_cli("reconstruct", seq_dir / "manifest.json", "--out", out)
        assert code == cli.EXIT_REGISTRATION
        assert not (out / "mesh.ply").exists()
        assert "registration failed" in capsys.readouterr().err

    def test_frame_without_hand_refused(self, seq_dir, tmp_path, capsys):
        def drop_hand(payload):
            payload["frames"][2]["hand"] = None

        work = edited_copy(seq_dir, tmp_path, drop_hand)
        code = run_cli("reconstruct", work / "manifest.json")
        assert code == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert "frame 2" in err and "--no-contact" in err

    def test_volume_missing_object_fails_meshing(self, seq_dir, tmp_path, capsys):
        def move_volume(payload):
            payload["working_volume"]["center"] = [0.0, 0.0, 0.0]

        work = edited_copy(seq_dir, tmp_path, move_volume)
        code = run_cli("reconstruct", work / "manifest.json")
        assert code == cli.EXIT_MESHING
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
            feat2d_line_cut_short,
            truth_not_an_object,
            manifest_not_an_object,
            hand_model_not_an_object,
            truth_expected_a_list,
            manifest_outputs_a_list,
            frame_without_object,
        ):
            work = tmp_path / corrupt.__name__
            shutil.copytree(seq_dir, work)
            name = corrupt(work)
            code = run_cli("reconstruct", work / "manifest.json")
            assert code == cli.EXIT_INPUT, corrupt.__name__
            assert name in capsys.readouterr().err, corrupt.__name__

    def test_duplicate_frame_index_refused(self, seq_dir, tmp_path, capsys):
        def relabel(payload):
            payload["frames"][2]["index"] = 1

        work = edited_copy(seq_dir, tmp_path, relabel)
        code = run_cli("reconstruct", work / "manifest.json", "--out", tmp_path / "out")
        assert code == cli.EXIT_INPUT
        assert "strictly increase" in capsys.readouterr().err
        assert not (tmp_path / "out" / "mesh.ply").exists()

    def test_negative_gamma_override_rejected(self, seq_dir, tmp_path, capsys):
        code = run_cli(
            "reconstruct", seq_dir / "manifest.json", "--gamma-t", "-1", "--out", tmp_path
        )
        assert code == cli.EXIT_USAGE
        assert "--gamma-t" in capsys.readouterr().err

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
            "use_contact": True,
            "use_detector": True,
            "use_icp": False,
        }
        records = [
            json.loads(line)
            for line in (tmp_path / "trajectory.jsonl").read_text().splitlines()
        ]
        assert len(records) == 6
        assert all(r["icp_rms"] is None for r in records)


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

    def test_empty_gamma_list_rejected(self, seq_dir, capsys):
        code = run_cli("eval", seq_dir / "manifest.json", "--sweep-gammas", ",")
        assert code == cli.EXIT_USAGE
        assert "gamma" in capsys.readouterr().err

    def test_non_numeric_gamma_rejected(self, seq_dir, capsys):
        code = run_cli("eval", seq_dir / "manifest.json", "--sweep-gammas", "0,abc")
        assert code == cli.EXIT_USAGE
        assert "non-numeric" in capsys.readouterr().err

    def test_requires_a_task_flag(self, seq_dir, capsys):
        code = run_cli("eval", seq_dir / "manifest.json")
        assert code == cli.EXIT_USAGE
        assert "nothing to do" in capsys.readouterr().err

    def test_requires_ground_truth(self, seq_dir, tmp_path, capsys):
        def drop_truth(payload):
            payload["ground_truth"] = None

        work = edited_copy(seq_dir, tmp_path, drop_truth)
        code = run_cli("eval", work / "manifest.json", "--sweep-gammas", "0")
        assert code == cli.EXIT_INPUT
        assert "ground_truth" in capsys.readouterr().err

    def test_requires_annotations_for_energies(self, tmp_path, capsys):
        out = tmp_path / "sparse_ann"
        assert synth_sphere(out, extra=("--annotate-every", "50")) == 0
        code = run_cli("eval", out / "manifest.json", "--compare-energies")
        assert code == cli.EXIT_INPUT
        assert "annotated" in capsys.readouterr().err


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
        assert code == cli.EXIT_INPUT
        assert "not found" in capsys.readouterr().err
