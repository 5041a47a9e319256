"""Gamma-sweep and sparse-energy evaluation protocols."""

import functools
import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from inhand import contact, features, synth
from inhand.errors import DivergenceError, EmptyInputError
from inhand.fusion import Probe
from inhand.geometry import CameraIntrinsics
from inhand.metrics import (
    ProbeCell,
    SweepResult,
    compare_energies,
    energies_to_csv,
    normalized_mean_error,
    run_gamma_sweep,
    sweep_to_csv,
)
from inhand.register import (
    RegistrationConfig,
    align_sparse,
    build_correspondences,
    run_sequence,
)
from inhand.synth import (
    Annotation,
    MotionScript,
    SyntheticObjectSpec,
    attach_detector_boxes,
    generate_sequence,
)

INTRINSICS = CameraIntrinsics(500.0, 500.0, 320.0, 240.0, 640, 480)
SMALL_SPHERE = SyntheticObjectSpec.sphere(30.0, density=0.25)


@functools.cache
def noiseless_sequence():
    motion = MotionScript.tumble(6, 6.0, sigma=0.0, seed=3)
    return generate_sequence(SMALL_SPHERE, motion, annotate_every=2)


@functools.cache
def noisy_sequence_with_boxes():
    motion = MotionScript.tumble(8, 6.0, sigma=0.5, seed=3)
    frames, truth = generate_sequence(SMALL_SPHERE, motion, annotate_every=3)
    return attach_detector_boxes(frames, INTRINSICS), truth


@functools.cache
def sweep_fixture():
    motion = MotionScript.tumble(6, 6.0, sigma=0.5, seed=7)
    frames, truth = generate_sequence(SMALL_SPHERE, motion)
    result = run_gamma_sweep(
        frames,
        truth.probes,
        truth.expected,
        (0.0, 15.0),
        volume_center=truth.center,
        tsdf_side_mm=120.0,
        tsdf_resolution=48,
        smooth_iterations=2,
    )
    return frames, truth, result


def count_calls(monkeypatch, original):
    """Record each call to ``original`` in every inhand module that binds its name."""
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "inhand" and getattr(module, original.__name__, None) is original:
            monkeypatch.setattr(module, original.__name__, counted)
    return calls


def assert_results_identical(a, b):
    assert a.gammas == b.gammas
    for x, y in zip(a.normalized_errors, b.normalized_errors):
        assert (math.isnan(x) and math.isnan(y)) or x == y
    assert len(a.cells) == len(b.cells)
    for ca, cb in zip(a.cells, b.cells):
        assert (ca.gamma, ca.probe, ca.kind, ca.expected) == (
            cb.gamma,
            cb.probe,
            cb.kind,
            cb.expected,
        )
        assert (math.isnan(ca.measured) and math.isnan(cb.measured)) or (
            ca.measured == cb.measured
        )


class TestProbeCell:
    def test_error_is_absolute_difference(self):
        cell = ProbeCell(15.0, "diameter", "slice_diameter", 30.0, 28.5)
        assert cell.error == pytest.approx(1.5)
        assert cell.normalized_error == pytest.approx(0.05)

    def test_failed_measurement_propagates_nan(self):
        cell = ProbeCell(0.0, "volume", "volume", 100.0, float("nan"))
        assert math.isnan(cell.error)
        assert math.isnan(cell.normalized_error)

    def test_expected_value_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            ProbeCell(0.0, "height", "extent", 0.0, 1.0)


class TestNormalizedMeanError:
    def test_averages_normalized_length_errors(self):
        cells = [
            ProbeCell(0.0, "height", "extent", 30.0, 33.0),
            ProbeCell(0.0, "diameter", "slice_diameter", 30.0, 36.0),
        ]
        assert normalized_mean_error(cells) == pytest.approx(0.15)

    def test_volume_probes_are_excluded(self):
        cells = [
            ProbeCell(0.0, "height", "extent", 30.0, 33.0),
            ProbeCell(0.0, "diameter", "slice_diameter", 30.0, 36.0),
            ProbeCell(0.0, "volume", "volume", 100.0, 900.0),
        ]
        assert normalized_mean_error(cells) == pytest.approx(0.15)

    def test_no_length_probes_gives_nan(self):
        assert math.isnan(normalized_mean_error([]))
        only_volume = [ProbeCell(0.0, "volume", "volume", 100.0, 101.0)]
        assert math.isnan(normalized_mean_error(only_volume))

    def test_failed_length_cell_poisons_the_mean(self):
        cells = [
            ProbeCell(0.0, "height", "extent", 30.0, 33.0),
            ProbeCell(0.0, "diameter", "slice_diameter", 30.0, float("nan")),
        ]
        assert math.isnan(normalized_mean_error(cells))


class TestSweepResult:
    def good_cells(self):
        return (
            ProbeCell(0.0, "height", "extent", 30.0, 33.0),
            ProbeCell(15.0, "height", "extent", 30.0, 30.3),
        )

    def test_gammas_must_strictly_increase(self):
        cells = self.good_cells()
        with pytest.raises(ValueError, match="strictly increasing"):
            SweepResult((15.0, 0.0), cells)
        with pytest.raises(ValueError, match="strictly increasing"):
            SweepResult((0.0, 0.0), cells)

    def test_needs_at_least_one_gamma(self):
        with pytest.raises(ValueError, match="at least one gamma"):
            SweepResult((), ())

    def test_cells_must_belong_to_the_grid(self):
        stray = (ProbeCell(7.0, "height", "extent", 30.0, 33.0),)
        with pytest.raises(ValueError, match="grid"):
            SweepResult((0.0,), stray)

    def test_lookup_helpers(self):
        cells = self.good_cells()
        result = SweepResult((0.0, 15.0), cells)
        assert [c.gamma for c in result.cells_at(0.0)] == [0.0]
        assert result.normalized_errors == (pytest.approx(0.1), pytest.approx(0.01))


class TestRunGammaSweep:
    def test_one_cell_per_gamma_and_probe(self):
        _, truth, result = sweep_fixture()
        assert result.gammas == (0.0, 15.0)
        assert len(result.cells) == 2 * len(truth.probes)
        seen = {(c.gamma, c.probe) for c in result.cells}
        assert len(seen) == len(result.cells)

    def test_contact_weight_shrinks_dimension_error(self):
        _, _, result = sweep_fixture()
        errors = dict(zip(result.gammas, result.normalized_errors))
        assert errors[15.0] < errors[0.0]

    def test_failed_volume_cell_recorded_and_sweep_continues(self):
        _, _, result = sweep_fixture()
        volume_at_zero = [c for c in result.cells_at(0.0) if c.kind == "volume"]
        assert math.isnan(volume_at_zero[0].measured)
        lengths_at_15 = [c for c in result.cells_at(15.0) if c.kind != "volume"]
        assert all(math.isfinite(c.measured) for c in lengths_at_15)

    def test_unmeasurable_probe_fails_its_cell_only(self):
        frames, truth, _ = sweep_fixture()
        phantom = Probe(
            "phantom", "slice_diameter", axis=2, position=float(truth.center[2]) + 500.0
        )
        expected = dict(truth.expected, phantom=30.0)
        result = run_gamma_sweep(
            frames,
            truth.probes + (phantom,),
            expected,
            (15.0,),
            volume_center=truth.center,
            tsdf_side_mm=120.0,
            tsdf_resolution=48,
            smooth_iterations=2,
        )
        by_name = {c.probe: c for c in result.cells_at(15.0)}
        assert math.isnan(by_name["phantom"].measured)
        assert math.isfinite(by_name["height"].measured)
        assert math.isnan(dict(zip(result.gammas, result.normalized_errors))[15.0])

    def test_no_registered_pair_fails_every_cell(self, monkeypatch):
        frames, truth, _ = sweep_fixture()

        def diverge(*args, **kwargs):
            raise DivergenceError("no ICP pairs")

        monkeypatch.setattr("inhand.register.register_pair", diverge)
        result = run_gamma_sweep(
            frames,
            truth.probes,
            truth.expected,
            (15.0,),
            volume_center=truth.center,
            tsdf_side_mm=120.0,
            tsdf_resolution=48,
            smooth_iterations=2,
        )
        assert all(math.isnan(c.measured) for c in result.cells)
        assert math.isnan(dict(zip(result.gammas, result.normalized_errors))[15.0])

    def test_each_frame_is_detected_once(self, monkeypatch):
        # replace() copies the frames without their cached per-frame data.
        frames = [replace(f) for f in sweep_fixture()[0]]
        truth = sweep_fixture()[1]
        keypoint_calls = count_calls(monkeypatch, features.detect_iss_keypoints)
        contact_calls = count_calls(monkeypatch, contact.detect_contacts)
        run_sequence(frames)
        run_gamma_sweep(
            frames,
            truth.probes,
            truth.expected,
            (0.0, 5.0, 15.0),
            volume_center=truth.center,
            tsdf_side_mm=120.0,
            tsdf_resolution=48,
            smooth_iterations=2,
        )
        clouds = sorted(id(f.object_cloud) for f in frames)
        assert sorted(id(cloud) for cloud, in keypoint_calls) == clouds
        assert sorted(id(cloud) for _, cloud in contact_calls) == clouds

    def test_sweep_is_deterministic(self):
        frames, truth, result = sweep_fixture()
        again = run_gamma_sweep(
            frames,
            truth.probes,
            truth.expected,
            (0.0, 15.0),
            volume_center=truth.center,
            tsdf_side_mm=120.0,
            tsdf_resolution=48,
            smooth_iterations=2,
        )
        assert_results_identical(result, again)

    def test_rejects_bad_gamma_grids(self):
        frames, truth, _ = sweep_fixture()
        args = frames, truth.probes, truth.expected
        with pytest.raises(ValueError, match="empty"):
            run_gamma_sweep(*args, (), volume_center=truth.center)
        with pytest.raises(ValueError, match="strictly increasing"):
            run_gamma_sweep(*args, (15.0, 5.0), volume_center=truth.center)
        with pytest.raises(ValueError, match="nonnegative"):
            run_gamma_sweep(*args, (-1.0, 5.0), volume_center=truth.center)

    def test_rejects_probes_without_ground_truth(self):
        frames, truth, _ = sweep_fixture()
        with pytest.raises(ValueError, match="phantom"):
            run_gamma_sweep(
                frames,
                truth.probes + (Probe("phantom", "extent"),),
                truth.expected,
                (15.0,),
                volume_center=truth.center,
            )

    def test_rejects_empty_inputs(self):
        frames, truth, _ = sweep_fixture()
        with pytest.raises(EmptyInputError):
            run_gamma_sweep(
                [], truth.probes, truth.expected, (15.0,), volume_center=truth.center
            )
        with pytest.raises(EmptyInputError):
            run_gamma_sweep(
                frames, (), truth.expected, (15.0,), volume_center=truth.center
            )


class TestCompareEnergies:
    def test_rows_cover_the_four_configs_in_order(self):
        frames, truth = noisy_sequence_with_boxes()
        rows = compare_energies(frames, truth.annotations, intrinsics=INTRINSICS)
        assert [r.config for r in rows] == [
            "contact+visual",
            "contact",
            "detector+visual",
            "detector",
        ]
        assert all(r.available for r in rows)
        assert all(r.mean >= 0.0 and r.stdev >= 0.0 for r in rows)

    def test_noiseless_contact_solve_is_exact(self):
        frames, truth = noiseless_sequence()
        rows = {r.config: r for r in compare_energies(frames, truth.annotations)}
        assert rows["contact"].mean < 1e-9

    def test_contact_beats_detector_under_noise(self):
        frames, truth = noisy_sequence_with_boxes()
        rows = {
            r.config: r
            for r in compare_energies(frames, truth.annotations, intrinsics=INTRINSICS)
        }
        assert rows["contact"].mean <= rows["detector"].mean
        assert rows["contact+visual"].mean <= rows["detector+visual"].mean

    def test_missing_boxes_mark_detector_rows_unavailable(self):
        frames, truth = noiseless_sequence()
        rows = {r.config: r for r in compare_energies(frames, truth.annotations)}
        for config in ("detector", "detector+visual"):
            assert not rows[config].available
            assert math.isnan(rows[config].mean)
            assert rows[config].pair_count == 0

    def test_boxes_without_intrinsics_stay_unavailable(self):
        frames, truth = noisy_sequence_with_boxes()
        rows = {r.config: r for r in compare_energies(frames, truth.annotations)}
        assert not rows["detector"].available
        assert rows["contact"].available

    def test_single_annotated_point_has_zero_stdev(self, monkeypatch):
        monkeypatch.setattr(synth, "ANNOTATIONS_PER_PAIR", 1)
        motion = MotionScript.tumble(4, 6.0, sigma=0.5, seed=5)
        frames, truth = generate_sequence(SMALL_SPHERE, motion, annotate_every=3)
        assert len(truth.annotations) == 1
        rows = {r.config: r for r in compare_energies(frames, truth.annotations)}
        assert rows["contact"].pair_count == 1
        assert rows["contact"].stdev == 0.0

    def test_pooled_stats_match_direct_computation(self):
        frames, truth = noisy_sequence_with_boxes()
        rows = {
            r.config: r
            for r in compare_energies(frames, truth.annotations, intrinsics=INTRINSICS)
        }
        config = RegistrationConfig(use_detector=True)
        errors = []
        for ann in truth.annotations:
            sets = build_correspondences(
                frames[ann.frame_a], frames[ann.frame_b], config, INTRINSICS
            )
            contact_only = [cs for cs in sets if cs.tag == "contact"]
            t = align_sparse(contact_only, config)
            errors.append(
                np.linalg.norm(ann.points_a - t.apply(ann.points_b), axis=1)
            )
        errors = np.concatenate(errors)
        assert rows["contact"].mean == pytest.approx(errors.mean(), abs=1e-12)
        assert rows["contact"].stdev == pytest.approx(errors.std(), abs=1e-12)
        assert rows["contact"].pair_count == len(errors)

    def test_requires_annotations(self):
        frames, _ = noiseless_sequence()
        with pytest.raises(EmptyInputError):
            compare_energies(frames, [])

    def test_annotation_must_reference_known_frames(self):
        frames, truth = noiseless_sequence()
        ann = truth.annotations[0]
        bad = Annotation(97, 98, ann.points_a, ann.points_b)
        with pytest.raises(ValueError, match="missing frame"):
            compare_energies(frames, [bad])


class TestCsvOutput:
    def test_sweep_rows_and_recomputable_normalized_column(self, tmp_path):
        _, truth, result = sweep_fixture()
        path = tmp_path / "sweep.csv"
        sweep_to_csv(result, path)
        lines = path.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:3] == ["gamma", "probe", "kind"]
        body = [line.split(",") for line in lines[1:]]
        assert len(body) == len(result.cells)
        for gamma in result.gammas:
            rows = [r for r in body if float(r[0]) == gamma]
            ratios = [
                float(r[5]) / float(r[3]) for r in rows if r[2] != "volume"
            ]
            stated = float(rows[0][6])
            recomputed = float(np.mean(ratios))
            assert (math.isnan(stated) and math.isnan(recomputed)) or (
                stated == pytest.approx(recomputed, abs=1e-15)
            )

    def test_energy_rows_one_per_config_statistic(self, tmp_path):
        frames, truth = noiseless_sequence()
        rows = compare_energies(frames, truth.annotations)
        path = tmp_path / "energies.csv"
        energies_to_csv(rows, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "config,statistic,value,available"
        body = [line.split(",") for line in lines[1:]]
        assert len(body) == 2 * len(rows)
        assert {(r[0], r[1]) for r in body} == {
            (row.config, stat) for row in rows for stat in ("mean", "stdev")
        }
        for r in body:
            if r[0].startswith("detector"):
                assert r[2] == "" and r[3] == "0"
            else:
                assert float(r[2]) >= 0.0 and r[3] == "1"

    def test_writes_are_deterministic_and_leave_no_temp_files(self, tmp_path):
        _, _, result = sweep_fixture()
        path = tmp_path / "sweep.csv"
        sweep_to_csv(result, path)
        first = path.read_bytes()
        sweep_to_csv(result, path)
        assert path.read_bytes() == first
        assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]
