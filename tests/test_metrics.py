"""Gamma-sweep and sparse-energy evaluation protocols."""

import functools
import math
import sys
import threading
import weakref
from dataclasses import replace

import numpy as np
import pytest

from inhand import contact, features, fusion, metrics, preprocess, register, synth
from inhand.errors import DivergenceError, EmptyInputError, InHandError
from inhand.fusion import Probe
from inhand.geometry import CameraIntrinsics
from inhand.metrics import (
    SweepResult,
    compare_energies,
    energies_to_csv,
    run_gamma_sweep,
    sweep_configs,
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
    rows = []
    for gamma in gammas:
        try:
            _, mesh = metrics.reconstruct(
                frames, RegistrationConfig(gamma_t=gamma), INTRINSICS, **sweep_volume(truth)
            )
            rows.append(metrics.measure_probes(mesh, truth.probes))
        except InHandError:
            rows.append({p.name: math.nan for p in truth.probes})
    expected = {p.name: float(truth.expected[p.name]) for p in truth.probes}
    return SweepResult(tuple(gammas), truth.probes, expected, tuple(rows))


def measured_bits(result):
    """Per gamma, each probe's measured value as raw float64 bytes, NaN included."""
    return {
        gamma: [(name, np.float64(value).tobytes()) for name, value in row.items()]
        for gamma, row in zip(result.gammas, result.measured)
    }


def float_bits(values):
    return [np.float64(v).tobytes() for v in values]


PROBES = (
    Probe("height", "extent"),
    Probe("diameter", "slice_diameter", axis=2, position=0.0),
    Probe("volume", "volume"),
)


def hand_built(measured, probes=None):
    """A ``SweepResult`` at gammas 0, 15, ... with one row per entry of
    ``measured``, over ``probes`` (default ``PROBES``)."""
    probes = PROBES if probes is None else probes
    expected = {"height": 30.0, "diameter": 30.0, "volume": 100.0}
    return SweepResult(
        tuple(15.0 * i for i in range(len(measured))),
        probes,
        {p.name: expected[p.name] for p in probes},
        tuple(measured),
    )


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
    assert (a.gammas, a.probes, a.expected) == (b.gammas, b.probes, b.expected)
    assert float_bits(a.normalized_errors) == float_bits(b.normalized_errors)
    assert measured_bits(a) == measured_bits(b)


class TestReconstruct:
    def test_volume_is_each_frame_spread_surface_integrated_at_its_pose(self, monkeypatch):
        frames, truth = sweep_fixture()[:2]
        meshed = count_calls(monkeypatch, fusion.extract_mesh)
        cube = sweep_volume(truth)
        result, _ = metrics.reconstruct(frames, RegistrationConfig(), INTRINSICS, **cube)
        ((_, got),) = meshed
        by_index = {f.frame_index: f for f in frames}
        assert len(result.poses) == len(frames)
        want = fusion.TsdfVolume(cube["volume_center"], cube["side_mm"], cube["resolution"])
        for pose in result.poses:
            surface = by_index[pose.frame_index].spread_surface
            want = fusion.integrate(want, surface, pose.world_from_frame)
        assert got.keys.tobytes() == want.keys.tobytes()
        assert got.tsdf.tobytes() == want.tsdf.tobytes()
        assert got.weights.tobytes() == want.weights.tobytes()

    def test_lets_go_of_the_metascan_before_fusion(self, monkeypatch):
        frames, truth = sweep_fixture()[:2]
        real_run, real_volume = register.run_sequence, metrics._first_frame_volume
        metascans = []

        def run_sequence(*args, **kwargs):
            result = real_run(*args, **kwargs)
            metascans.append(weakref.ref(result.metascan))
            return result

        def first_frame_volume(*args):
            assert [ref() for ref in metascans] == [None]
            return real_volume(*args)

        monkeypatch.setattr(register, "run_sequence", run_sequence)
        monkeypatch.setattr(metrics, "_first_frame_volume", first_frame_volume)
        result, _ = metrics.reconstruct(
            frames, RegistrationConfig(), INTRINSICS, **sweep_volume(truth)
        )
        assert len(result.poses) == len(frames) and len(result.metascan) == 0


class TestNormalizedMeanError:
    def test_averages_normalized_length_errors(self):
        result = hand_built(
            [{"height": 33.0, "diameter": 36.0}, {"height": 30.3, "diameter": 30.0}],
            probes=PROBES[:2],
        )
        assert result.normalized_errors == (pytest.approx(0.15), pytest.approx(0.005))

    def test_volume_probes_are_excluded(self):
        result = hand_built([{"height": 33.0, "diameter": 36.0, "volume": 900.0}])
        assert result.normalized_errors == (pytest.approx(0.15),)

    def test_no_length_probes_gives_nan(self):
        assert math.isnan(hand_built([{}], probes=()).normalized_errors[0])
        only_volume = hand_built([{"volume": 101.0}], probes=PROBES[2:])
        assert math.isnan(only_volume.normalized_errors[0])

    def test_failed_length_cell_poisons_the_mean(self):
        result = hand_built([{"height": 33.0, "diameter": float("nan"), "volume": 100.0}])
        assert math.isnan(result.normalized_errors[0])


class TestSweepResult:
    def csv_rows(self, result, tmp_path):
        sweep_to_csv(result, tmp_path / "sweep.csv")
        return (tmp_path / "sweep.csv").read_text().splitlines()[1:]

    def test_error_is_absolute_difference(self, tmp_path):
        result = hand_built([{"height": 28.5}], probes=PROBES[:1])
        assert self.csv_rows(result, tmp_path) == ["0.0,height,extent,30.0,28.5,1.5,0.05"]
        assert result.normalized_errors == (pytest.approx(0.05),)

    def test_failed_measurement_propagates_nan(self, tmp_path):
        result = hand_built([{"height": 30.0, "diameter": 30.0, "volume": float("nan")}])
        assert self.csv_rows(result, tmp_path)[2] == "0.0,volume,volume,100.0,nan,nan,0.0"

    def test_gammas_must_strictly_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            sweep_configs((15.0, 0.0))
        with pytest.raises(ValueError, match="strictly increasing"):
            sweep_configs((0.0, 0.0))

    def test_needs_at_least_one_gamma(self):
        with pytest.raises(ValueError, match="at least one gamma"):
            sweep_configs(())


class TestRunGammaSweep:
    def test_one_cell_per_gamma_and_probe(self):
        _, truth, result = sweep_fixture()
        assert result.gammas == (0.0, 15.0)
        assert result.probes == truth.probes
        assert len(result.measured) == 2
        assert all(list(row) == [p.name for p in truth.probes] for row in result.measured)

    def test_contact_weight_shrinks_dimension_error(self):
        _, _, result = sweep_fixture()
        errors = dict(zip(result.gammas, result.normalized_errors))
        assert errors[15.0] < errors[0.0]

    def test_failed_volume_cell_recorded_and_sweep_continues(self):
        _, truth, result = sweep_fixture()
        at_zero, at_15 = result.measured
        assert [math.isnan(at_zero[p.name]) for p in truth.probes if p.kind == "volume"] == [True]
        assert all(math.isfinite(at_15[p.name]) for p in truth.probes if p.kind != "volume")

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
        (by_name,) = result.measured
        assert math.isnan(by_name["phantom"])
        assert math.isfinite(by_name["height"])
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
        assert all(math.isnan(v) for row in result.measured for v in row.values())
        assert math.isnan(dict(zip(result.gammas, result.normalized_errors))[15.0])

    def test_each_frame_is_detected_once(self, monkeypatch):
        # replace() copies the frames without their cached per-frame data.
        frames = [replace(f) for f in sweep_fixture()[0]]
        truth = sweep_fixture()[1]
        subsample_calls = count_calls(monkeypatch, features._spread_subsample)
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
        # ISS runs on each frame's subsample, built from the frame's cloud.
        assert sorted(id(cloud) for _, cloud, _ in subsample_calls) == clouds
        assert len(keypoint_calls) == len(frames)
        assert sorted(id(cloud) for _, _, cloud in contact_calls) == clouds

    def test_matches_the_serial_loop_to_the_bit(self, tmp_path):
        frames, truth, result = sweep_fixture()
        want = serial_sweep(frames, truth, result.gammas)
        assert result.gammas == want.gammas
        assert measured_bits(result) == measured_bits(want)
        assert float_bits(result.normalized_errors) == float_bits(want.normalized_errors)
        sweep_to_csv(result, tmp_path / "got.csv")
        sweep_to_csv(want, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_frame_zero_is_fused_once_per_sweep(self, monkeypatch):
        frames, truth, _ = sweep_fixture()
        gammas = (0.0, 5.0, 15.0)
        fused = count_calls(monkeypatch, fusion.integrate)
        result = run_gamma_sweep(
            frames,
            truth.probes,
            truth.expected,
            gammas,
            **sweep_volume(truth),
            intrinsics=INTRINSICS,
        )
        # Every frame registers at every gamma, and frame 0 is fused once.
        assert len(fused) == 1 + len(gammas) * (len(frames) - 1)
        # Each frame fuses its spread surface, points and normals, which
        # leaves points out.
        clouds = [(c.points.tobytes(), c.normals.tobytes()) for _, _, c, _ in fused]
        surfaces = [f.spread_surface for f in frames]
        spreads = [(c.points.tobytes(), c.normals.tobytes()) for c in surfaces]
        assert all(len(c) < len(f.object_cloud) for c, f in zip(surfaces, frames))
        assert clouds == spreads + 2 * spreads[1:]
        monkeypatch.undo()
        assert_results_identical(result, serial_sweep(frames, truth, gammas))

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
        assert all(math.isnan(v) for v in result.measured[1].values())
        assert measured_bits(result)[15.0] == measured_bits(fixture)[15.0]
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
        assert measured_bits(result)[15.0] == measured_bits(fixture)[15.0]

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

    def test_zero_expected_value_fails_before_any_gamma_runs(self, monkeypatch):
        frames, truth, _ = sweep_fixture()

        def must_not_run(*args):
            raise AssertionError("a pair registered before the expected values were checked")

        monkeypatch.setattr(register, "register_pair", must_not_run)
        with pytest.raises(ValueError, match="positive ground-truth value for probes: height"):
            run_gamma_sweep(
                frames,
                truth.probes,
                dict(truth.expected, height=0.0),
                (0.0, 15.0),
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

    def test_collinear_detector_pairs_mark_the_detector_row_unavailable(self):
        # Each frame keeps depth on one pixel row of its first box only, so
        # its detector points lie on one line and the detector-only solve is
        # degenerate; the visual pairs still fix the other solves.
        frames, truth = noisy_sequence_with_boxes()
        lined = []
        for frame in frames:
            first, *rest = frame.detector_boxes
            depth = np.zeros_like(first.depth)
            depth[5] = 500.0
            boxes = [replace(first, depth=depth)]
            boxes += [replace(box, depth=np.zeros_like(box.depth)) for box in rest]
            lined.append(replace(frame, detector_boxes=tuple(boxes)))
        rows = {
            r.config: r
            for r in compare_energies(lined, truth.annotations, intrinsics=INTRINSICS)
        }
        assert not rows["detector"].available
        assert math.isnan(rows["detector"].mean)
        assert all(rows[c].available for c in ("contact+visual", "contact", "detector+visual"))

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
        assert len(body) == len(result.gammas) * len(result.probes)
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
