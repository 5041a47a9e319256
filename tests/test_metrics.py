"""Gamma-sweep and sparse-energy evaluation protocols."""

import functools
import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from inhand import contact, features, metrics, preprocess, register, synth
from inhand.errors import DivergenceError, EmptyInputError, InHandError
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
    registrations,
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


def sweep_volume(truth):
    """The working volume the sweep tests reconstruct in."""
    return dict(volume_center=truth.center, side_mm=120.0, resolution=48, smooth_iterations=2)


@functools.cache
def sweep_fixture():
    motion = MotionScript.tumble(6, 6.0, sigma=0.5, seed=7)
    frames, truth = generate_sequence(SMALL_SPHERE, motion)
    result = run_gamma_sweep(
        frames,
        truth.probes,
        truth.expected,
        (0.0, 15.0),
        **sweep_volume(truth),
        intrinsics=INTRINSICS,
    )
    return frames, truth, result


def serial_sweep(frames, truth, gammas):
    """The loop ``run_gamma_sweep`` overlaps: each gamma reconstructed, then measured."""
    cells = []
    for gamma in gammas:
        try:
            _, mesh = metrics.reconstruct(
                frames, RegistrationConfig(gamma_t=gamma), INTRINSICS, **sweep_volume(truth)
            )
            measured = metrics.measure_probes(mesh, truth.probes)
        except InHandError:
            measured = {p.name: math.nan for p in truth.probes}
        cells.extend(
            ProbeCell(gamma, p.name, p.kind, float(truth.expected[p.name]), measured[p.name])
            for p in truth.probes
        )
    return SweepResult(tuple(gammas), tuple(cells))


def cell_bits(cells):
    """Each cell with its measured value as raw float64 bytes, NaN included."""
    return [
        (c.gamma, c.probe, c.kind, c.expected, np.float64(c.measured).tobytes())
        for c in cells
    ]


def chain_failing_at(gamma, error):
    """The worker's ``register.run_sequence`` that raises ``error`` for one gamma only."""
    real = register.run_sequence

    def run(frames, config, intrinsics, **kwargs):
        if config.gamma_t == gamma:
            raise error
        return real(frames, config, intrinsics, **kwargs)

    return run


def failing_for(real, failing, error):
    """``real`` that raises ``error`` when ``failing(*args)`` holds."""

    def run(*args):
        if failing(*args):
            raise error
        return real(*args)

    return run


def count_calls(monkeypatch, original):
    """Record each call to ``original`` in every inhand module that binds its name,
    as the calling thread's ident followed by the call's arguments."""
    calls = []

    def counted(*args):
        calls.append((threading.get_ident(), *args))
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "inhand" and getattr(module, original.__name__, None) is original:
            monkeypatch.setattr(module, original.__name__, counted)
    return calls


def own_thread_count():
    """Live threads, less the short-lived helpers that a ``cKDTree`` query with
    ``workers=-1`` starts and joins (scipy names them after ``_thread_func``)."""
    return sum(not t.name.endswith("(_thread_func)") for t in threading.enumerate())


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
            **sweep_volume(truth),
            intrinsics=INTRINSICS,
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
            **sweep_volume(truth),
            intrinsics=INTRINSICS,
        )
        assert all(math.isnan(c.measured) for c in result.cells)
        assert math.isnan(dict(zip(result.gammas, result.normalized_errors))[15.0])

    def test_each_frame_is_detected_once(self, monkeypatch):
        # replace() copies the frames without their cached per-frame data.
        frames = [replace(f) for f in sweep_fixture()[0]]
        truth = sweep_fixture()[1]
        keypoint_calls = count_calls(monkeypatch, features.detect_iss_keypoints)
        contact_calls = count_calls(monkeypatch, contact.detect_contacts)
        with registrations(frames, (RegistrationConfig(),), INTRINSICS) as (chain,):
            chain.result()
        run_gamma_sweep(
            frames,
            truth.probes,
            truth.expected,
            (0.0, 5.0, 15.0),
            **sweep_volume(truth),
            intrinsics=INTRINSICS,
        )
        clouds = sorted(id(f.object_cloud) for f in frames)
        assert sorted(id(cloud) for _, cloud in keypoint_calls) == clouds
        assert sorted(id(cloud) for _, _, cloud in contact_calls) == clouds

    def test_matches_the_serial_loop_to_the_bit(self, tmp_path):
        frames, truth, result = sweep_fixture()
        want = serial_sweep(frames, truth, result.gammas)
        assert result.gammas == want.gammas
        assert cell_bits(result.cells) == cell_bits(want.cells)
        sweep_to_csv(result, tmp_path / "got.csv")
        sweep_to_csv(want, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_frames_described_once_on_the_main_thread(self, monkeypatch):
        frames = [replace(f) for f in sweep_fixture()[0]]
        truth = sweep_fixture()[1]
        described = count_calls(monkeypatch, features.describe_cloud)
        pairs = count_calls(monkeypatch, register.register_pair)
        run_gamma_sweep(
            frames,
            truth.probes,
            truth.expected,
            (0.0, 5.0, 15.0),
            **sweep_volume(truth),
            intrinsics=INTRINSICS,
        )
        main = threading.main_thread().ident
        assert sorted(id(cloud) for _, cloud in described) == sorted(
            id(f.object_cloud) for f in frames
        )
        assert {ident for ident, _ in described} == {main}
        # Every pair of every gamma, in grid order, registers on one thread
        # that is not the caller's.
        gammas = [config.gamma_t for _, _, _, _, _, config, _ in pairs]
        assert gammas == [g for g in (0.0, 5.0, 15.0) for _ in frames[1:]]
        threads = {ident for ident, *_ in pairs}
        assert len(threads) == 1 and main not in threads

    def test_failed_middle_gamma_records_nan_and_the_sweep_goes_on(
        self, monkeypatch, caplog
    ):
        frames, truth, fixture = sweep_fixture()
        diverging = chain_failing_at(5.0, DivergenceError("scripted divergence"))
        monkeypatch.setattr(register, "run_sequence", diverging)
        result = run_gamma_sweep(
            frames,
            truth.probes,
            truth.expected,
            (0.0, 5.0, 15.0),
            **sweep_volume(truth),
            intrinsics=INTRINSICS,
        )
        assert all(math.isnan(c.measured) for c in result.cells_at(5.0))
        assert cell_bits(result.cells_at(15.0)) == cell_bits(fixture.cells_at(15.0))
        assert "gamma 5: pipeline failed (scripted divergence)" in caplog.text

    def test_worker_error_propagates_and_the_worker_stops(self, monkeypatch):
        frames, truth, _ = sweep_fixture()
        threads_before = threading.active_count()
        failing = chain_failing_at(5.0, RuntimeError("registration bug"))
        monkeypatch.setattr(register, "run_sequence", failing)
        with pytest.raises(RuntimeError, match="registration bug"):
            run_gamma_sweep(
                frames,
                truth.probes,
                truth.expected,
                (0.0, 5.0, 15.0),
                **sweep_volume(truth),
                intrinsics=INTRINSICS,
            )
        assert threading.active_count() == threads_before

    def test_every_gamma_registers_on_one_worker(self, monkeypatch):
        frames, truth, fixture = sweep_fixture()
        threads_before = own_thread_count()
        running = []
        real = register.register_pair

        def counted(*args):
            running.append(own_thread_count())
            return real(*args)

        monkeypatch.setattr(register, "register_pair", counted)
        result = run_gamma_sweep(
            frames,
            truth.probes,
            truth.expected,
            (0.0, 5.0, 15.0),
            **sweep_volume(truth),
            intrinsics=INTRINSICS,
        )
        assert len(running) == 3 * (len(frames) - 1)
        assert max(running) == threads_before + 1
        assert threading.active_count() == threads_before
        assert cell_bits(result.cells_at(15.0)) == cell_bits(fixture.cells_at(15.0))

    @pytest.mark.parametrize(
        "failing, message",
        [
            ("describe", "describe failed"),
            # The first gamma registers frame 2's pair before it meets frame 3.
            ("both", "pair failed"),
        ],
    )
    def test_value_error_propagates_and_the_worker_ends(self, monkeypatch, failing, message):
        frames = [replace(f) for f in sweep_fixture()[0]]
        truth = sweep_fixture()[1]
        frame_3 = frames[3].object_cloud
        monkeypatch.setattr(
            preprocess,
            "describe_cloud",
            failing_for(
                preprocess.describe_cloud,
                lambda cloud: cloud is frame_3,
                ValueError("describe failed"),
            ),
        )
        if failing == "both":
            monkeypatch.setattr(
                register,
                "register_pair",
                failing_for(
                    register.register_pair,
                    lambda prev, curr, *rest: curr.frame_index == frames[2].frame_index,
                    ValueError("pair failed"),
                ),
            )
        threads_before = threading.active_count()
        with pytest.raises(ValueError, match=message):
            run_gamma_sweep(
                frames,
                truth.probes,
                truth.expected,
                (0.0, 5.0, 15.0),
                **sweep_volume(truth),
                intrinsics=INTRINSICS,
            )
        # The worker ended, so no gamma waits on frame 3 or any later frame.
        assert threading.active_count() == threads_before

    def test_sweep_is_deterministic(self):
        frames, truth, result = sweep_fixture()
        again = run_gamma_sweep(
            frames,
            truth.probes,
            truth.expected,
            (0.0, 15.0),
            **sweep_volume(truth),
            intrinsics=INTRINSICS,
        )
        assert_results_identical(result, again)

    def test_rejects_bad_gamma_grids(self):
        frames, truth, _ = sweep_fixture()
        args = frames, truth.probes, truth.expected
        kwargs = dict(sweep_volume(truth), intrinsics=INTRINSICS)
        with pytest.raises(ValueError, match="at least one gamma"):
            run_gamma_sweep(*args, (), **kwargs)
        with pytest.raises(ValueError, match="strictly increasing"):
            run_gamma_sweep(*args, (15.0, 5.0), **kwargs)
        with pytest.raises(ValueError, match="nonnegative"):
            run_gamma_sweep(*args, (-1.0, 5.0), **kwargs)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                run_gamma_sweep(*args, (bad,), **kwargs)

    def test_bad_gamma_fails_before_any_gamma_runs(self, monkeypatch):
        frames, truth, _ = sweep_fixture()

        def must_not_run(*args):
            raise AssertionError("a gamma ran before the grid was checked")

        monkeypatch.setattr("inhand.metrics._measure_at_gamma", must_not_run)
        monkeypatch.setattr("inhand.metrics.registrations", must_not_run)
        with pytest.raises(ValueError, match="finite"):
            run_gamma_sweep(
                frames,
                truth.probes,
                truth.expected,
                (0.0, math.inf),
                **sweep_volume(truth),
                intrinsics=INTRINSICS,
            )

    def test_rejects_probes_without_ground_truth(self):
        frames, truth, _ = sweep_fixture()
        with pytest.raises(ValueError, match="phantom"):
            run_gamma_sweep(
                frames,
                truth.probes + (Probe("phantom", "extent"),),
                truth.expected,
                (15.0,),
                **sweep_volume(truth),
                intrinsics=INTRINSICS,
            )

    def test_rejects_empty_inputs(self):
        frames, truth, _ = sweep_fixture()
        with pytest.raises(EmptyInputError):
            run_gamma_sweep(
                [],
                truth.probes,
                truth.expected,
                (15.0,),
                **sweep_volume(truth),
                intrinsics=INTRINSICS,
            )
        with pytest.raises(EmptyInputError):
            run_gamma_sweep(
                frames,
                (),
                truth.expected,
                (15.0,),
                **sweep_volume(truth),
                intrinsics=INTRINSICS,
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
        rows = {
            r.config: r
            for r in compare_energies(frames, truth.annotations, intrinsics=INTRINSICS)
        }
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
        rows = {
            r.config: r
            for r in compare_energies(frames, truth.annotations, intrinsics=INTRINSICS)
        }
        for config in ("detector", "detector+visual"):
            assert not rows[config].available
            assert math.isnan(rows[config].mean)
            assert rows[config].pair_count == 0

    def test_single_annotated_point_has_zero_stdev(self, monkeypatch):
        monkeypatch.setattr(synth, "ANNOTATIONS_PER_PAIR", 1)
        motion = MotionScript.tumble(4, 6.0, sigma=0.5, seed=5)
        frames, truth = generate_sequence(SMALL_SPHERE, motion, annotate_every=3)
        assert len(truth.annotations) == 1
        rows = {
            r.config: r
            for r in compare_energies(frames, truth.annotations, intrinsics=INTRINSICS)
        }
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
            compare_energies(frames, [], intrinsics=INTRINSICS)

    def test_annotation_without_points_refused(self):
        frames, truth = noiseless_sequence()
        ann = truth.annotations[0]
        blank = Annotation(ann.frame_a, ann.frame_b, np.empty((0, 3)), np.empty((0, 3)))
        with pytest.raises(EmptyInputError, match="no point pairs"):
            compare_energies(frames, [*truth.annotations, blank], intrinsics=INTRINSICS)

    def test_annotation_must_reference_known_frames(self):
        frames, truth = noiseless_sequence()
        ann = truth.annotations[0]
        bad = Annotation(97, 98, ann.points_a, ann.points_b)
        with pytest.raises(ValueError, match="missing frame"):
            compare_energies(frames, [bad], intrinsics=INTRINSICS)


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
        rows = compare_energies(frames, truth.annotations, intrinsics=INTRINSICS)
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
