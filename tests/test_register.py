"""Sparse alignment, ICP refinement, and sequence registration."""

import functools
import math
import signal
import threading
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree
from scipy.spatial.transform import Rotation

from inhand import metrics, preprocess, register
from inhand.contact import PosedHand
from inhand.errors import DivergenceError, EmptyInputError, UnderConstrainedError
from inhand.features import CorrespondenceSet
from inhand.geometry import (
    CameraIntrinsics,
    PointCloud,
    RigidTransform,
    rotation_about_axis,
    rotation_angle_rad,
    solve_weighted_rigid,
)
from inhand.preprocess import DetectorBox, SegmentedFrame
from inhand.register import (
    RegistrationConfig,
    align_sparse,
    detector_correspondences,
    merge_metascan,
    refine_icp,
    register_pair,
    registrations,
    sparse_energy,
)

INTRINSICS = CameraIntrinsics(500.0, 500.0, 320.0, 240.0, 640, 480)
NO_POINTS = np.empty((0, 3))


def register_all(frames, config):
    """``frames`` registered under the one ``config``, as ``registrations`` does it."""
    with registrations(frames, (config,), INTRINSICS) as (chain,):
        return chain.result()


def blob_cloud(n=1500, seed=3, radius=30.0):
    """Asymmetric closed blob with outward unit normals."""
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(n, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    bumps = 1.0 + 0.25 * dirs[:, 0] ** 2 + 0.15 * np.sin(4.0 * dirs[:, 1])
    return PointCloud(radius * bumps[:, None] * dirs, normals=dirs)


def rigid(axis, deg, trans):
    return RigidTransform(
        rotation_about_axis(axis, math.radians(deg)), np.asarray(trans, float)
    )


def transform_gap(a: RigidTransform, b: RigidTransform):
    """(rotation angle in degrees, translation distance) between two poses."""
    delta = a.compose(b.inverse())
    return math.degrees(rotation_angle_rad(delta.rotation)), float(
        np.linalg.norm(a.translation - b.translation)
    )


def make_pair_sets(rng, motion, n_visual=20, n_contact=100, noise=0.0):
    pts_v = rng.uniform(-50, 50, size=(n_visual, 3))
    pts_c = rng.uniform(-50, 50, size=(n_contact, 3))
    visual = CorrespondenceSet(pts_v, motion.apply(pts_v), "feat3d")
    contact = CorrespondenceSet(pts_c, motion.apply(pts_c), "contact")
    return visual, contact


class TestRegistrationConfig:
    def test_icp_limits_are_constants(self):
        config = RegistrationConfig(gamma_t=0.0)
        assert (config.icp_max_dist, config.icp_max_iters) == (5.0, 50)
        assert config.icp_convergence_eps == 1e-3
        with pytest.raises(TypeError):
            RegistrationConfig(icp_max_dist=2.5)


class TestAlignSparse:
    def test_contact_alone_recovers_motion(self):
        rng = np.random.default_rng(0)
        motion = rigid((0.2, 1.0, -0.4), 12.0, (4.0, -1.0, 2.5))
        _, contact = make_pair_sets(rng, motion)
        got = align_sparse([contact], RegistrationConfig(gamma_t=15.0))
        rot_err, trans_err = transform_gap(got, motion)
        assert rot_err < 1e-6 and trans_err < 1e-6

    def test_gamma_arbitrates_between_conflicting_sets(self):
        rng = np.random.default_rng(1)
        motion_a = rigid((0, 0, 1), 5.0, (1.0, 0.0, 0.0))
        motion_b = rigid((1, 0, 0), -8.0, (0.0, 3.0, -1.0))
        visual, _ = make_pair_sets(rng, motion_a)
        _, contact = make_pair_sets(rng, motion_b)
        sets = [visual, contact]

        got0 = align_sparse(sets, RegistrationConfig(gamma_t=0.0))
        rot_err, trans_err = transform_gap(got0, motion_a)
        assert rot_err < 1e-6 and trans_err < 1e-6

        big = align_sparse(sets, RegistrationConfig(gamma_t=1e9))
        rot_err, trans_err = transform_gap(big, motion_b)
        assert rot_err < 1e-3 and trans_err < 1e-3

    def test_returned_transform_minimizes_energy(self):
        rng = np.random.default_rng(2)
        motion_a = rigid((0, 1, 0), 7.0, (2.0, 0.0, 0.0))
        motion_b = rigid((0, 0, 1), -4.0, (0.0, -2.0, 1.0))
        visual, _ = make_pair_sets(rng, motion_a)
        _, contact = make_pair_sets(rng, motion_b)
        sets = [visual, contact]
        for gamma in (0.5, 15.0, 200.0):
            got = align_sparse(sets, RegistrationConfig(gamma_t=gamma))
            e_got = sparse_energy(sets, got, gamma)
            for candidate in (motion_a, motion_b, RigidTransform.identity()):
                assert e_got <= sparse_energy(sets, candidate, gamma) + 1e-9

    def test_all_sets_empty(self):
        empty = CorrespondenceSet(np.empty((0, 3)), np.empty((0, 3)), "contact")
        with pytest.raises(UnderConstrainedError):
            align_sparse([empty])

    def test_error_names_empty_sets(self):
        e3 = CorrespondenceSet(np.empty((0, 3)), np.empty((0, 3)), "feat3d")
        ec = CorrespondenceSet(np.empty((0, 3)), np.empty((0, 3)), "contact")
        pair = CorrespondenceSet([[0, 0, 0]], [[1, 0, 0]], "feat2d")
        with pytest.raises(UnderConstrainedError) as info:
            align_sparse([e3, ec, pair])
        assert "contact" in str(info.value) and "feat3d" in str(info.value)

    def test_two_pairs_not_enough(self):
        cs = CorrespondenceSet([[0, 0, 0], [1, 1, 1]], [[0, 0, 1], [1, 1, 2]], "contact")
        with pytest.raises(UnderConstrainedError):
            align_sparse([cs])


class TestRefineIcp:
    def make_metascan(self):
        return merge_metascan(NO_POINTS, blob_cloud(4000).points)

    def test_recovers_two_mm_translation(self):
        scan = self.make_metascan()
        shift = np.array([2.0, 0.0, 0.0])
        result = refine_icp(scan + shift, scan)
        assert len(result.rms_history) < 20
        err = np.linalg.norm(result.transform.translation + shift)
        assert err < 1e-3
        assert math.degrees(rotation_angle_rad(result.transform.rotation)) < 0.01

    def test_identity_on_exact_overlap(self):
        scan = self.make_metascan()
        result = refine_icp(scan.copy(), scan)
        assert result.rms_history[0] == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(result.transform.rotation, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(result.transform.translation, 0.0, atol=1e-12)

    def test_divergence_beyond_gate(self):
        # Far enough that every source point is > 5 mm from the metascan.
        scan = self.make_metascan()
        with pytest.raises(DivergenceError):
            refine_icp(scan + np.array([150.0, 0.0, 0.0]), scan)

    def test_rms_non_increasing(self):
        scan = self.make_metascan()
        rng = np.random.default_rng(7)
        for _ in range(15):
            axis = rng.normal(size=3)
            t = RigidTransform(
                rotation_about_axis(axis, math.radians(rng.uniform(0, 2.0))),
                rng.uniform(-1.5, 1.5, size=3),
            )
            result = refine_icp(t.apply(scan), scan)
            diffs = np.diff(result.rms_history)
            assert np.all(diffs <= 1e-9)

    def test_empty_metascan(self):
        with pytest.raises(EmptyInputError):
            refine_icp(np.zeros((5, 3)), NO_POINTS)


def row_order_icp(source, metascan, config=RegistrationConfig()):
    """``refine_icp`` as it was before the leaf-order query: one query of
    the moved points in row order per iteration."""
    pts = np.asarray(source, dtype=np.float64).reshape(-1, 3)
    index = cKDTree(metascan)
    t = RigidTransform.identity()
    history = []
    prev_rms = None
    pair_count = 0
    for iteration in range(config.icp_max_iters):
        moved = t.apply(pts)
        dist, idx = index.query(moved)
        in_range = dist <= config.icp_max_dist
        pair_count = int(in_range.sum())
        if pair_count < 3:
            raise DivergenceError(f"{pair_count} pairs at iteration {iteration}")
        targets = metascan[idx[in_range]]
        delta = solve_weighted_rigid(moved[in_range], targets)
        t = delta.compose(t)
        res = t.apply(pts[in_range]) - targets
        rms = math.sqrt(float(np.einsum("ij,ij->", res, res)) / pair_count)
        history.append(rms)
        if prev_rms is not None and abs(prev_rms - rms) < config.icp_convergence_eps:
            break
        prev_rms = rms
    return t, tuple(history), pair_count


@pytest.mark.parametrize("n_source", [3000, 12])
def test_icp_matches_row_order_to_the_bit(n_source):
    rng = np.random.default_rng(n_source)
    scan = merge_metascan(NO_POINTS, blob_cloud(8000).points)
    rows = rng.choice(len(scan), n_source, replace=False)  # a shuffled cloud
    source = rigid((1.0, 2.0, 0.5), 1.5, (1.2, -0.8, 0.4)).apply(scan[rows])
    # A tenth of the rows lie beyond the 5 mm gate, so each solve sees a
    # masked subset of the rows.
    far = rng.choice(n_source, n_source // 10, replace=False)
    source[far] *= 1.5
    want_t, want_history, want_count = row_order_icp(source, scan)
    got = refine_icp(source, scan)
    assert len(want_history) > 2
    assert got.transform.rotation.tobytes() == want_t.rotation.tobytes()
    assert got.transform.translation.tobytes() == want_t.translation.tobytes()
    assert got.rms_history == want_history
    assert got.pair_count == want_count


class TestMetascan:
    def test_keep_first_merge(self):
        first = np.array([[0.1, 0.1, 0.1], [5.0, 5.0, 5.0]])
        scan = merge_metascan(NO_POINTS, first)
        # A near-duplicate in an occupied voxel is discarded; a point in a
        # fresh voxel is kept.
        scan = merge_metascan(scan, np.array([[0.3, 0.2, 0.2], [9.0, 9.0, 9.0]]))
        assert len(scan) == 3
        assert any(np.array_equal(p, first[0]) for p in scan)
        assert any(np.array_equal(p, [9.0, 9.0, 9.0]) for p in scan)


def hand_on(cloud: PointCloud, seed=11, pad_size=45):
    """Two fingertip pads lying exactly on distinct parts of the cloud."""
    order = np.argsort(cloud.points[:, 0])
    a = order[:pad_size]
    b = order[-pad_size:]
    verts = np.vstack([cloud.points[a], cloud.points[b]])
    labels = ("thumb_tip",) * pad_size + ("index_tip",) * pad_size
    return PosedHand(verts, labels, frozenset({"thumb_tip", "index_tip"}))


def make_frame(index, motion, base_cloud, base_hand):
    cloud = PointCloud(
        motion.apply(base_cloud.points), normals=base_cloud.normals @ motion.rotation.T
    )
    hand = PosedHand(
        motion.apply(base_hand.vertices), base_hand.bone_labels, base_hand.end_effectors
    )
    return SegmentedFrame(index, cloud, hand)


def exact_sequence(n_frames=4, deg_per_frame=4.0):
    from inhand.geometry import voxel_downsample_indices

    # Pre-thin the canonical sample at the metascan voxel size so the
    # accumulation keeps every point and exact motions stay exact.
    canon = blob_cloud()
    keep = voxel_downsample_indices(canon.points, 2.0)
    base_cloud = PointCloud(canon.points[keep], normals=canon.normals[keep])
    base_hand = hand_on(base_cloud)
    frames, truth = [], []
    for k in range(n_frames):
        motion = rigid((0.3, 1.0, 0.2), deg_per_frame * k, (1.0 * k, -2.0 * k, 0.5 * k))
        frames.append(make_frame(k, motion, base_cloud, base_hand))
        truth.append(motion.inverse())
    return frames, truth


class TestRegisterPair:
    def test_identical_frames_give_identity(self):
        frames, _ = exact_sequence(n_frames=1)
        twin = SegmentedFrame(1, frames[0].object_cloud, frames[0].hand_pose)
        scan = merge_metascan(NO_POINTS, frames[0].object_cloud.points)
        pose = register_pair(
            frames[0], twin, scan, RigidTransform.identity(), RegistrationConfig(), INTRINSICS
        )
        rot_err, trans_err = transform_gap(pose.world_from_frame, RigidTransform.identity())
        assert rot_err < 1e-6 and trans_err < 1e-6
        assert pose.correspondence_counts["contact"] == 90

    def test_deterministic(self):
        frames, _ = exact_sequence(n_frames=2)
        poses = []
        for _ in range(2):
            scan = merge_metascan(NO_POINTS, frames[0].object_cloud.points)
            poses.append(
                register_pair(
                    frames[0],
                    frames[1],
                    scan,
                    RigidTransform.identity(),
                    RegistrationConfig(),
                    INTRINSICS,
                )
            )
        a, b = poses
        assert np.array_equal(a.world_from_frame.rotation, b.world_from_frame.rotation)
        assert np.array_equal(
            a.world_from_frame.translation, b.world_from_frame.translation
        )
        assert a.correspondence_counts == b.correspondence_counts

    def test_leaves_the_metascan_as_it_was(self):
        frames, _ = exact_sequence(n_frames=2)
        scan = merge_metascan(NO_POINTS, frames[0].object_cloud.points)
        before = scan.copy()
        register_pair(
            frames[0], frames[1], scan, RigidTransform.identity(), RegistrationConfig(), INTRINSICS
        )
        assert scan.shape == before.shape and scan.tobytes() == before.tobytes()


class TestRunSequence:
    def test_exact_motion_recovered(self):
        frames, truth = exact_sequence()
        result = register_all(frames, RegistrationConfig())
        assert result.skipped == ()
        assert len(result.poses) == len(frames)
        for pose, expected in zip(result.poses, truth):
            rot_err, trans_err = transform_gap(pose.world_from_frame, expected)
            # ICP stops on RMS *change*, not absolute residual, so exact
            # data recovers to roughly the convergence scale, not to zero.
            assert rot_err < 1e-5
            assert trans_err < 1e-4

    def test_metascan_composition_consistency(self):
        # Every metascan point, mapped back through the inverse of some
        # frame's pose, must coincide with an original point of that frame.
        frames, _ = exact_sequence()
        result = register_all(frames, RegistrationConfig())
        poses = {p.frame_index: p.world_from_frame for p in result.poses}
        matched = np.zeros(len(result.metascan), dtype=bool)
        for k, frame in enumerate(frames):
            back = poses[k].inverse().apply(result.metascan)
            dist, _ = cKDTree(frame.object_cloud.points).query(back)
            matched |= dist < 1e-9
        assert np.all(matched)

    def test_empty_sequence(self):
        with pytest.raises(EmptyInputError):
            register_all([], RegistrationConfig())


def flat_sequence(n_frames, touching, deg_per_frame=3.0):
    """Frames of a flat patch, which has no ISS keypoints, moving rigidly.

    Frame k's hand lies on the patch when ``touching(k)``; otherwise it
    hovers 100 mm off it and makes no contact, so a pair with that frame
    has no effective sparse pair at all.
    """
    xs, ys = np.meshgrid(np.arange(-15.0, 15.1, 1.0), np.arange(-15.0, 15.1, 1.0))
    pts = np.column_stack([xs.ravel(), ys.ravel(), np.full(xs.size, 500.0)])
    base_cloud = PointCloud(pts, normals=np.tile([0.0, 0.0, -1.0], (len(pts), 1)))
    base_hand = hand_on(base_cloud)
    away = PosedHand(
        base_hand.vertices + [0.0, 0.0, -100.0], base_hand.bone_labels, base_hand.end_effectors
    )
    frames, truth = [], []
    for k in range(n_frames):
        motion = rigid((0.0, 0.0, 1.0), deg_per_frame * k, (0.5 * k, -0.5 * k, 0.0))
        frames.append(make_frame(k, motion, base_cloud, base_hand if touching(k) else away))
        truth.append(motion.inverse())
    return frames, truth


class TestUnderConstrainedPair:
    """A pair with fewer than 3 effective sparse pairs is skipped, not guessed."""

    def test_every_frame_skipped_and_named(self, caplog):
        frames, _ = flat_sequence(4, touching=lambda k: False)
        with caplog.at_level("WARNING", logger="inhand.register"):
            result = register_all(frames, RegistrationConfig())
        assert result.skipped == (1, 2, 3)
        assert [p.frame_index for p in result.poses] == [0]
        skips = [r.getMessage() for r in caplog.records if "skipped" in r.getMessage()]
        assert len(skips) == 3
        for k, message in zip((1, 2, 3), skips):
            assert message.startswith(f"frame {k} skipped") and "effective pairs" in message

    def test_reconstruct_refuses_a_sequence_that_registers_nothing(self):
        frames, _ = flat_sequence(3, touching=lambda k: False)
        with pytest.raises(DivergenceError):
            metrics.reconstruct(
                frames,
                RegistrationConfig(),
                INTRINSICS,
                volume_center=(0.0, 0.0, 500.0),
                side_mm=64.0,
                resolution=16,
                smooth_iterations=0,
            )

    def test_next_frame_registers_against_the_last_registered(self):
        frames, truth = flat_sequence(4, touching=lambda k: k != 2)
        # ICP would slide a flat patch along itself; the sparse stage alone
        # pins each pose.
        result = register_all(frames, RegistrationConfig(use_icp=False))
        assert result.skipped == (2,)
        assert [p.frame_index for p in result.poses] == [0, 1, 3]
        # Frame 3's pose comes from its contact pairs with frame 1.
        rot_err, trans_err = transform_gap(result.poses[-1].world_from_frame, truth[3])
        assert rot_err < 1e-6 and trans_err < 1e-6


def serial_sequence(frames, config):
    """The loop ``run_sequence`` overlaps: each pair registered, then the next."""
    scan = merge_metascan(NO_POINTS, frames[0].object_cloud.points)
    identity = RigidTransform.identity()
    poses = [register.FramePose(frames[0].frame_index, identity, math.nan, math.nan, {})]
    skipped = []
    prev, world_prev = frames[0], identity
    for curr in frames[1:]:
        try:
            pose = register_pair(prev, curr, scan, world_prev, config, INTRINSICS)
        except DivergenceError:
            skipped.append(curr.frame_index)
            continue
        poses.append(pose)
        prev, world_prev = curr, pose.world_from_frame
        scan = merge_metascan(scan, world_prev.apply(curr.object_cloud.points))
    return register.SequenceResult(tuple(poses), scan, tuple(skipped))


def assert_same_registration(got, want):
    assert got.skipped == want.skipped
    assert len(got.poses) == len(want.poses)
    for a, b in zip(got.poses, want.poses):
        assert a.frame_index == b.frame_index
        assert a.world_from_frame.rotation.tobytes() == b.world_from_frame.rotation.tobytes()
        assert (
            a.world_from_frame.translation.tobytes() == b.world_from_frame.translation.tobytes()
        )
        residuals = np.array([a.sparse_residual, a.icp_residual])
        assert residuals.tobytes() == np.array([b.sparse_residual, b.icp_residual]).tobytes()
        assert a.correspondence_counts == b.correspondence_counts
    assert got.metascan.tobytes() == want.metascan.tobytes()


def record_threads(monkeypatch, module, name, fail_on=None, error=None):
    """Wrap ``module.name`` to record each call's thread; call ``fail_on`` raises ``error``."""
    real = getattr(module, name)
    threads = []

    def wrapper(*args, **kwargs):
        threads.append(threading.current_thread())
        if len(threads) == fail_on:
            raise error
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return threads


@contextmanager
def deadline(seconds):
    """Fail the test with ``TimeoutError`` if the block still runs after ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestOverlappedSequence:
    """``registrations`` registers every pair on a worker while it describes the next frame."""

    def test_fresh_and_described_frames_match_the_serial_loop(self):
        want = serial_sequence(exact_sequence(n_frames=5)[0], RegistrationConfig())
        frames, _ = exact_sequence(n_frames=5)
        assert_same_registration(register_all(frames, RegistrationConfig()), want)
        # Now every frame is described, so the worker's pairs overlap no
        # description.
        assert_same_registration(register_all(frames, RegistrationConfig()), want)

    def test_each_frame_described_once_on_the_main_thread(self, monkeypatch):
        main = threading.current_thread()
        frames, _ = exact_sequence(n_frames=5)
        described = record_threads(monkeypatch, preprocess, "describe_cloud")
        pairs = record_threads(monkeypatch, register, "register_pair")
        register_all(frames, RegistrationConfig())
        assert described == [main] * len(frames)
        assert all("features" in vars(frame) for frame in frames)
        # One worker, not the caller, registers every pair, the last included.
        assert len(pairs) == len(frames) - 1
        assert len(set(pairs)) == 1 and main not in pairs
        pairs.clear()
        register_all(frames, RegistrationConfig())
        assert len(described) == len(frames)
        # Described frames take the same path.
        assert len(pairs) == len(frames) - 1
        assert len(set(pairs)) == 1 and main not in pairs

    def test_divergence_on_the_worker_skips_the_frame(self, monkeypatch):
        divergence = DivergenceError("forced on frame 2")
        with monkeypatch.context() as patch:
            record_threads(patch, register, "refine_icp", fail_on=2, error=divergence)
            want = serial_sequence(exact_sequence(n_frames=5)[0], RegistrationConfig())
        icp = record_threads(monkeypatch, register, "refine_icp", fail_on=2, error=divergence)
        got = register_all(exact_sequence(n_frames=5)[0], RegistrationConfig())
        assert icp[1] is not threading.current_thread()
        assert got.skipped == (2,)
        # Frame 3 registered against frame 1, as in the serial loop.
        assert [p.frame_index for p in got.poses] == [0, 1, 3, 4]
        assert_same_registration(got, want)

    @pytest.mark.parametrize(
        "failing, message",
        [
            ("pair", "pair failed"),
            ("describe", "describe failed"),
            # Frame 0 has no pair of its own: its error stops frame 1's.
            ("first describe", "describe failed"),
            # The serial loop registers a pair before it describes the next frame.
            ("both", "pair failed"),
        ],
    )
    def test_value_error_propagates_and_the_worker_ends(self, monkeypatch, failing, message):
        frames, _ = exact_sequence(n_frames=5)
        if failing in ("pair", "both"):
            # Frame 2's pair registers on the worker while frame 3 is described.
            record_threads(
                monkeypatch, register, "refine_icp", fail_on=2, error=ValueError("pair failed")
            )
        if failing != "pair":
            record_threads(
                monkeypatch, preprocess, "describe_cloud",
                fail_on=1 if failing == "first describe" else 4,
                error=ValueError("describe failed"),
            )
        before = threading.active_count()
        with deadline(60), pytest.raises(ValueError, match=message):
            register_all(frames, RegistrationConfig())
        assert threading.active_count() == before

    def test_every_config_registers_on_one_worker_as_its_own_serial_loop(self, monkeypatch):
        configs = (RegistrationConfig(gamma_t=0.0), RegistrationConfig(use_icp=False))
        wants = [serial_sequence(exact_sequence(n_frames=5)[0], c) for c in configs]
        frames, _ = exact_sequence(n_frames=5)
        pairs = record_threads(monkeypatch, register, "register_pair")
        with registrations(frames, configs, INTRINSICS) as chains:
            got = [chain.result() for chain in chains]
        for result, want in zip(got, wants):
            assert_same_registration(result, want)
        assert len(pairs) == 2 * (len(frames) - 1)
        assert len(set(pairs)) == 1 and threading.current_thread() not in pairs

    def test_leaving_early_ends_the_worker(self):
        frames, _ = exact_sequence(n_frames=5)
        configs = [RegistrationConfig(gamma_t=g) for g in (0.0, 5.0, 15.0)]
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="left early"):
            with registrations(frames, configs, INTRINSICS) as chains:
                raise RuntimeError("left early")
        assert threading.active_count() == before
        assert all(chain.done() for chain in chains)


def plane_depth_patch(box_x, box_y, size, rotation_deg, center=(0.0, 0.0, 500.0)):
    """Depth of a rotated plane sampled over a pixel box (pinhole model)."""
    c = np.asarray(center)
    n = rotation_about_axis((0, 1, 0), math.radians(rotation_deg)) @ np.array(
        [0.0, 0.0, -1.0]
    )
    depth = np.zeros((size, size))
    for r in range(size):
        for col in range(size):
            ray = np.array(
                [
                    (box_x + col - INTRINSICS.cx) / INTRINSICS.fx,
                    (box_y + r - INTRINSICS.cy) / INTRINSICS.fy,
                    1.0,
                ]
            )
            depth[r, col] = float(n @ c) / float(n @ ray)
    return depth


class TestDetectorCorrespondences:
    def frame_with_box(self, index, box):
        cloud = PointCloud(np.zeros((1, 3)))
        hand = PosedHand(
            np.zeros((90, 3)),
            ("thumb_tip",) * 45 + ("index_tip",) * 45,
            frozenset({"thumb_tip", "index_tip"}),
        )
        return SegmentedFrame(index, cloud, hand, detector_boxes=(box,))

    def test_identical_boxes_zero_displacement(self):
        depth = np.full((8, 8), 500.0)
        box = DetectorBox("thumb", 100, 100, 8, 8, depth)
        a = self.frame_with_box(0, box)
        b = self.frame_with_box(1, box)
        cs = detector_correspondences(b, a, INTRINSICS)
        assert len(cs) == 64
        np.testing.assert_allclose(cs.source, cs.target, atol=1e-12)

    def test_camera_parallel_translation_recovered(self):
        # 2 mm of x-translation at 500 mm depth moves the image 2 px; the
        # detector tracks the finger, so the box shifts with it.
        depth = np.full((8, 8), 500.0)
        prev = self.frame_with_box(0, DetectorBox("thumb", 100, 100, 8, 8, depth))
        curr = self.frame_with_box(1, DetectorBox("thumb", 102, 100, 8, 8, depth))
        cs = detector_correspondences(curr, prev, INTRINSICS)
        disp = cs.source - cs.target
        np.testing.assert_allclose(disp, [[2.0, 0.0, 0.0]] * len(cs), atol=1e-9)

    def test_invalid_depths_skipped(self):
        depth_a = np.full((4, 4), 500.0)
        depth_b = depth_a.copy()
        depth_b[0, :] = 0.0
        prev = self.frame_with_box(0, DetectorBox("thumb", 50, 50, 4, 4, depth_a))
        curr = self.frame_with_box(1, DetectorBox("thumb", 50, 50, 4, 4, depth_b))
        assert len(detector_correspondences(curr, prev, INTRINSICS)) == 12

    def test_no_shared_labels(self):
        depth = np.full((4, 4), 500.0)
        prev = self.frame_with_box(0, DetectorBox("thumb", 50, 50, 4, 4, depth))
        curr = self.frame_with_box(1, DetectorBox("index", 50, 50, 4, 4, depth))
        assert len(detector_correspondences(curr, prev, INTRINSICS)) == 0

    def test_depth_rotation_violates_rigidity(self):
        # Box pairing associates whatever surface lands on the same pixel,
        # so out-of-plane rotation produces systematic residuals even at
        # the true transform.
        size = 24
        prev_depth = plane_depth_patch(308, 228, size, 0.0)
        curr_depth = plane_depth_patch(308, 228, size, 20.0)
        prev = self.frame_with_box(0, DetectorBox("thumb", 308, 228, size, size, prev_depth))
        curr = self.frame_with_box(1, DetectorBox("thumb", 308, 228, size, size, curr_depth))
        cs = detector_correspondences(curr, prev, INTRINSICS)
        rot = rotation_about_axis((0, 1, 0), math.radians(-20.0))
        center = np.array([0.0, 0.0, 500.0])
        gt = RigidTransform(rot, center - rot @ center)
        residual = np.linalg.norm(gt.apply(cs.source) - cs.target, axis=1)
        # A contact set under the same motion would sit at ~1e-12; the
        # pixel-offset pairing slides along the surface instead.
        assert residual.mean() > 0.25
        assert residual.max() > 0.6


# Registration commutes with a rigid motion G of its input: moving every
# frame by G turns each pose T into G T G^-1.  Over 3,000 random weighted
# sets and 200 motions of the sequence below, the largest departures were
# 1.6e-14 in ||R1 - R2||_F and 6.8e-12 mm in translation; the bounds leave
# a margin of about 100.  Rotations are compared in the Frobenius norm,
# since an angle from arccos((tr R - 1) / 2) cannot resolve 1e-8 rad.
ROTATION_ROUNDOFF = 1e-12
TRANSLATION_ROUNDOFF_MM = 1e-9


@st.composite
def rigid_motions(draw):
    """G: a uniform random rotation and a translation of up to 600 mm per axis."""
    rotation = Rotation.random(random_state=draw(st.integers(0, 2**32 - 1)))
    translation = draw(st.tuples(*[st.floats(-600.0, 600.0)] * 3))
    return RigidTransform(rotation.as_matrix(), np.array(translation))


def assert_conjugate(got: RigidTransform, pose: RigidTransform, g: RigidTransform):
    want = g.compose(pose).compose(g.inverse())
    assert np.linalg.norm(got.rotation - want.rotation) < ROTATION_ROUNDOFF
    assert np.linalg.norm(got.translation - want.translation) < TRANSLATION_ROUNDOFF_MM


@st.composite
def weighted_sets(draw):
    """Noisy pairs near the camera under one motion, in sets of every tag, and a gamma_t.

    Only ``feat3d`` is sure to hold 3 pairs; the gamma-weighted ``contact``
    and ``detector`` sets may be empty, and gamma_t may be 0.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    motion = RigidTransform(
        Rotation.random(random_state=rng).as_matrix(), rng.uniform(-30.0, 30.0, 3)
    )
    sets = []
    for tag in ("feat3d", "feat2d", "contact", "detector"):
        n = draw(st.integers(3 if tag == "feat3d" else 0, 40))
        source = rng.uniform(-50.0, 50.0, size=(n, 3)) + [0.0, 0.0, 500.0]
        target = motion.apply(source) + rng.normal(scale=1.0, size=(n, 3))
        sets.append(CorrespondenceSet(source, target, tag))
    return sets, RegistrationConfig(gamma_t=draw(st.floats(0.0, 1000.0)))


@settings(max_examples=100, deadline=None)
@given(sets_and_config=weighted_sets(), g=rigid_motions())
def test_align_sparse_commutes_with_a_rigid_motion(sets_and_config, g):
    sets, config = sets_and_config
    moved = [CorrespondenceSet(g.apply(cs.source), g.apply(cs.target), cs.tag) for cs in sets]
    assert_conjugate(align_sparse(moved, config), align_sparse(sets, config), g)


NO_ICP = RegistrationConfig(use_icp=False)


@functools.cache
def unmoved_sequence():
    return register_all(exact_sequence(n_frames=5)[0], NO_ICP)


@settings(max_examples=25, deadline=None)
@given(g=rigid_motions())
def test_run_sequence_without_icp_commutes_with_a_rigid_motion(g):
    frames = [
        make_frame(f.frame_index, g, f.object_cloud, f.hand_pose)
        for f in exact_sequence(n_frames=5)[0]
    ]
    got = register_all(frames, NO_ICP)
    unmoved = unmoved_sequence()
    assert got.skipped == unmoved.skipped == ()
    assert [p.frame_index for p in got.poses] == [p.frame_index for p in unmoved.poses]
    for pose, want in zip(got.poses, unmoved.poses):
        assert_conjugate(pose.world_from_frame, want.world_from_frame, g)
