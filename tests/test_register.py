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
    voxel_downsample_indices,
)
from inhand.preprocess import DetectorBox, SegmentedFrame, estimate_normals
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
from inhand.synth import MotionScript, SyntheticObjectSpec, generate_sequence

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

    def test_detector_needs_a_positive_gamma(self):
        # gamma_t weighs the detector pairs, so at 0 they would count for nothing.
        with pytest.raises(ValueError, match="gamma_t > 0"):
            RegistrationConfig(gamma_t=0.0, use_detector=True)
        assert RegistrationConfig(gamma_t=0.5, use_detector=True).contact_term_on


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

    def test_contact_alone_is_one_weighted_solve(self):
        # With no visual pair the robust rounds reweigh nothing.
        rng = np.random.default_rng(3)
        _, contact = make_pair_sets(rng, rigid((0.2, 1.0, -0.4), 12.0, (4.0, -1.0, 2.5)))
        noisy = CorrespondenceSet(
            contact.source, contact.target + rng.normal(scale=0.5, size=contact.target.shape),
            "contact",
        )
        got = align_sparse([noisy], RegistrationConfig(gamma_t=15.0))
        want = solve_weighted_rigid(noisy.source, noisy.target, np.full(len(noisy), 15.0))
        assert got.rotation.tobytes() == want.rotation.tobytes()
        assert got.translation.tobytes() == want.translation.tobytes()

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


def blob_scan(stretch):
    """The :func:`blob_cloud` scaled by ``stretch``, with PCA normals, thinned
    as the metascan is thinned.  The radial directions of the blob are not
    its surface normals."""
    blob = estimate_normals(PointCloud(blob_cloud(4000).points * stretch))
    keep = voxel_downsample_indices(blob.points, register.METASCAN_VOXEL_MM)
    return PointCloud(blob.points[keep], normals=blob.normals[keep])


class TestRefineIcp:
    @pytest.fixture(scope="class")
    def scan(self):
        # About its centroid the round blob's weakest direction lies near the
        # lambda_max / 30 cut and mixes turn and shift; a pure shift must
        # still come back without a turn.
        return blob_scan(np.ones(3))

    def test_recovers_two_mm_translation(self, scan):
        start = RigidTransform(np.eye(3), np.array([2.0, 0.0, 0.0]))
        result = refine_icp(scan, scan.points, start=start)
        assert len(result.rms_history) < 20
        assert np.linalg.norm(result.transform.translation) < 1e-3
        assert math.degrees(rotation_angle_rad(result.transform.rotation)) < 0.01

    def test_recovers_two_mm_translation_on_a_stretched_blob(self):
        # Every direction of this scan lies well inside the cut.
        self.test_recovers_two_mm_translation(blob_scan(np.array([1.0, 0.75, 0.55])))

    def test_identity_on_exact_overlap(self, scan):
        result = refine_icp(scan, scan.points)
        assert result.rms_history[0] == pytest.approx(0.0, abs=1e-12)
        assert result.converged
        np.testing.assert_allclose(result.transform.rotation, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(result.transform.translation, 0.0, atol=1e-12)

    def test_divergence_beyond_gate(self, scan):
        # Far enough that every source point is > 5 mm from the metascan.
        with pytest.raises(DivergenceError):
            refine_icp(scan, scan.points, start=RigidTransform(np.eye(3), np.array([150.0, 0, 0])))

    def test_rms_non_increasing(self, scan):
        rng = np.random.default_rng(7)
        for _ in range(15):
            axis = rng.normal(size=3)
            t = RigidTransform(
                rotation_about_axis(axis, math.radians(rng.uniform(0, 2.0))),
                rng.uniform(-1.5, 1.5, size=3),
            )
            result = refine_icp(scan, scan.points, start=t)
            diffs = np.diff(result.rms_history)
            assert np.all(diffs <= 1e-9)

    def test_stops_at_the_iteration_cap_on_its_last_rms(self, scan, monkeypatch):
        monkeypatch.setattr(RegistrationConfig, "icp_max_iters", 2)
        start = RigidTransform(np.eye(3), np.array([2.0, 0.0, 0.0]))
        result = refine_icp(scan, scan.points, start=start)
        assert len(result.rms_history) == 2 and not result.converged
        # The returned pose is the one the last RMS was measured at.
        dist, _ = cKDTree(scan.points).query(result.transform.apply(scan.points))
        dist = dist[dist <= RegistrationConfig.icp_max_dist]
        assert math.sqrt(float(dist @ dist) / len(dist)) == pytest.approx(
            result.rms_history[-1], rel=1e-12
        )

    def test_empty_metascan(self):
        with pytest.raises(EmptyInputError):
            refine_icp(PointCloud(np.zeros((5, 3))), NO_POINTS)

    def test_no_step_along_the_twist_of_a_surface_of_revolution(self):
        # The dense term cannot see a turn about the cylinder's axis: ICP
        # removes the shift and leaves the twist where the start put it.
        # With a step along every direction, the noisy normals turned the
        # twist from 3 deg to 0.30 deg here (0.19-0.85 deg over four seeds).
        cylinder = cylinder_cloud()
        noisy = cylinder.points + np.random.default_rng(10).normal(scale=0.5, size=(3000, 3))
        source = estimate_normals(PointCloud(noisy))
        start = rigid((0, 0, 1), 3.0, (1.0, -0.5, 0.8))
        result = refine_icp(source, cylinder.points, start=start)
        assert result.converged
        twist = rotation_about_axis((0, 0, 1), math.radians(3.0))
        assert math.degrees(rotation_angle_rad(result.transform.rotation @ twist.T)) < 0.05
        assert np.linalg.norm(result.transform.translation) < 0.05

    def test_contact_rows_fix_the_twist(self):
        cylinder = cylinder_cloud()
        hand = hand_on(cylinder)
        contact = CorrespondenceSet(hand.vertices, hand.vertices, "contact")
        start = rigid((0, 0, 1), 3.0, (1.0, -0.5, 0.8))
        result = refine_icp(cylinder, cylinder.points, start=start, contact=contact)
        assert result.converged
        rot_err, trans_err = transform_gap(result.transform, RigidTransform.identity())
        assert rot_err < 1e-4 and trans_err < 1e-3


@functools.cache
def stretched_blob_and_contact():
    """``TestRefineIcp``'s stretched blob and two contact pads lying on it."""
    scan = blob_scan(np.array([1.0, 0.75, 0.55]))
    hand = hand_on(scan)
    return scan, CorrespondenceSet(hand.vertices, hand.vertices, "contact")


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    turn=st.floats(-2.0, 2.0),
    shift=st.tuples(*[st.floats(-2.0, 2.0)] * 3),
)
def test_refine_icp_ignores_the_row_order_of_the_cloud(seed, turn, shift):
    # Each point's nearest metascan point is found alone, so the rows' order
    # moves the pose only through the order of the sums.
    scan, contact = stretched_blob_and_contact()
    order = np.random.default_rng(seed).permutation(len(scan.points))
    shuffled = PointCloud(scan.points[order], normals=scan.normals[order])
    start = rigid((0.3, 1.0, 0.2), turn, shift)
    want = refine_icp(scan, scan.points, start=start, contact=contact)
    got = refine_icp(shuffled, scan.points, start=start, contact=contact)
    assert transform_gap(got.transform, want.transform)[0] < 1e-9
    assert np.linalg.norm(got.transform.translation - want.transform.translation) < 1e-9
    assert len(got.rms_history) == len(want.rms_history)
    assert got.converged == want.converged


def cylinder_cloud(n=3000, seed=5, radius=30.0, height=80.0):
    """A capped cylinder about the z axis with outward unit normals.

    A surface of revolution: the dense term cannot see a turn about z.
    """
    rng = np.random.default_rng(seed)
    n_cap = n // 5
    phi = rng.uniform(0.0, 2.0 * math.pi, n - 2 * n_cap)
    side = np.column_stack(
        [radius * np.cos(phi), radius * np.sin(phi), rng.uniform(-height / 2, height / 2, len(phi))]
    )
    side_normals = np.column_stack([np.cos(phi), np.sin(phi), np.zeros(len(phi))])
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, 2 * n_cap))
    theta = rng.uniform(0.0, 2.0 * math.pi, 2 * n_cap)
    z = np.repeat([height / 2, -height / 2], n_cap)
    caps = np.column_stack([r * np.cos(theta), r * np.sin(theta), z])
    cap_normals = np.column_stack([np.zeros((2 * n_cap, 2)), np.sign(z)])
    return PointCloud(np.vstack([side, caps]), normals=np.vstack([side_normals, cap_normals]))


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


def test_pair_rms_adds_nothing_for_an_empty_set():
    visual, contact = make_pair_sets(np.random.default_rng(4), rigid((0, 0, 1), 3.0, (1, 0, 0)))
    empty = CorrespondenceSet(NO_POINTS, NO_POINTS, "feat2d")
    start = RigidTransform.identity()
    want = register._pair_rms([visual, contact], start)
    assert register._pair_rms([empty, visual, empty, contact], start) == want > 0.0
    assert math.isnan(register._pair_rms([empty], start))


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
        # Each frame keeps what it was described with, its spread surface too.
        for frame in frames:
            frame.features, frame.spread_surface
        assert len(described) == len(frames)
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
    def frame_with_box(self, index, *boxes):
        cloud = PointCloud(np.zeros((1, 3)))
        hand = PosedHand(
            np.zeros((90, 3)),
            ("thumb_tip",) * 45 + ("index_tip",) * 45,
            frozenset({"thumb_tip", "index_tip"}),
        )
        return SegmentedFrame(index, cloud, hand, detector_boxes=boxes)

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

    def test_shared_label_without_valid_depths_adds_nothing(self):
        depth = np.full((4, 4), 500.0)
        blank = DetectorBox("index", 50, 50, 4, 4, np.zeros((4, 4)))
        thumb = DetectorBox("thumb", 50, 50, 4, 4, depth)
        prev, curr = self.frame_with_box(0, blank, thumb), self.frame_with_box(1, blank, thumb)
        assert len(detector_correspondences(curr, prev, INTRINSICS)) == 16
        prev, curr = self.frame_with_box(0, blank), self.frame_with_box(1, blank)
        none = detector_correspondences(curr, prev, INTRINSICS)
        assert len(none) == 0 and none.tag == "detector"

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


@st.composite
def sets_with_outliers(draw):
    """Exact contact pairs and ``feat3d`` pairs under one motion, with up to
    half of the ``feat3d`` targets moved 20-200 mm away, and a gamma_t."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    motion = RigidTransform(
        Rotation.random(random_state=rng).as_matrix(), rng.uniform(-30.0, 30.0, 3)
    )
    visual = rng.uniform(-50.0, 50.0, size=(draw(st.integers(10, 40)), 3)) + [0.0, 0.0, 500.0]
    contact = rng.uniform(-50.0, 50.0, size=(draw(st.integers(10, 60)), 3)) + [0.0, 0.0, 500.0]
    target = motion.apply(visual)
    bad = rng.choice(len(visual), int(draw(st.floats(0.0, 0.5)) * len(visual)), replace=False)
    away = rng.normal(size=(len(bad), 3))
    away *= rng.uniform(20.0, 200.0, (len(bad), 1)) / np.linalg.norm(away, axis=1, keepdims=True)
    target[bad] += away
    sets = [
        CorrespondenceSet(visual, target, "feat3d"),
        CorrespondenceSet(contact, motion.apply(contact), "contact"),
    ]
    return sets, RegistrationConfig(gamma_t=draw(st.floats(1.0, 100.0))), motion


@settings(max_examples=100, deadline=None)
@given(case=sets_with_outliers())
def test_align_sparse_recovers_the_contact_pose_despite_outlying_features(case):
    # Over 3,000 cases the worst were 0.0054 deg and 0.0098 mm; over 1,000,
    # a least-squares solve of the same sets landed up to 27 deg off.
    sets, config, motion = case
    got = align_sparse(sets, config)
    assert transform_gap(got, motion)[0] < 0.02
    contact = sets[1].source
    assert np.linalg.norm(got.apply(contact) - motion.apply(contact), axis=1).max() < 0.05


def test_sparse_energy_caps_a_visual_pair_at_mu():
    far = CorrespondenceSet([[0.0, 0.0, 0.0]], [[1000.0, 0.0, 0.0]], "feat3d")
    near = CorrespondenceSet([[0.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]], "feat3d")
    contact = CorrespondenceSet([[0.0, 0.0, 0.0]], [[1000.0, 0.0, 0.0]], "contact")
    identity = RigidTransform.identity()
    assert sparse_energy([far], identity, 15.0) == pytest.approx(register.ROBUST_MU_MM2, rel=1e-4)
    assert sparse_energy([near], identity, 15.0) == pytest.approx(25.0 / 26.0)
    assert sparse_energy([contact], identity, 2.0) == pytest.approx(2.0e6)


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


def short_pin(seed, hand_sigma=0.0):
    """A 6-frame bowling pin at half the benchmark's point density, and its truth."""
    pin = SyntheticObjectSpec.bowling_pin(50.0, 82.0, 150.0, density=0.5)
    motion = MotionScript.tumble(6, 6.0, sigma=0.5, seed=seed)
    return generate_sequence(pin, motion, hand_sigma=hand_sigma)


def axial_error_deg(pose: RigidTransform, truth, k: int) -> float:
    """Twist about the pin's axis of frame k's rotation error (swing-twist)."""
    error = pose.rotation @ truth.pair_truth(0, k).rotation.T
    x, y, z, w = Rotation.from_matrix(error).as_quat()
    axis = truth.motions[0].rotation @ np.array([0.0, 0.0, 1.0])
    return math.degrees(2.0 * math.atan2(abs(np.dot([x, y, z], axis)), abs(w)))


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_pin_with_a_noisy_hand_keeps_its_twist(seed):
    # 1 mm of hand noise: 0.42-0.74 deg over these seeds, against 18.8 and
    # 22.9 deg (seeds 1 and 2) for point-to-point ICP after a
    # least-squares sparse solve.
    frames, truth = short_pin(seed, hand_sigma=1.0)
    result = register_all(frames, RegistrationConfig())
    assert result.skipped == ()
    assert max(axial_error_deg(p.world_from_frame, truth, p.frame_index) for p in result.poses) < 2.0


@pytest.mark.parametrize(
    "g",
    [
        rigid((1, 0, 0), 0.0, (0.7, 0.0, 0.0)),
        rigid((1, 0, 0), 20.0, (0.0, 0.0, 0.0)),
        rigid((0, 1, 0), 90.0, (3.0, -2.0, 1.5)),
    ],
    ids=["shift", "tilt", "turn"],
)
def test_registration_with_icp_commutes_with_a_rigid_motion(g):
    # Moving every input by G moves each pose T to G T G^-1, up to the
    # axis-aligned metascan grid and ISS roundoff.  Over these three and
    # eight random motions of seeds 1-3 the largest departures were
    # 0.00073 deg and 0.0072 mm; point-to-point ICP after a least-squares
    # sparse solve departed by 1.75-4.92 deg and 7.7-24.3 mm on seed 1.
    frames, _ = short_pin(1)
    moved = [make_frame(f.frame_index, g, f.object_cloud, f.hand_pose) for f in frames]
    got = register_all(moved, RegistrationConfig())
    want = register_all(frames, RegistrationConfig())
    assert got.skipped == want.skipped == ()
    for pose, unmoved in zip(got.poses, want.poses):
        rot_err, trans_err = transform_gap(
            pose.world_from_frame, g.compose(unmoved.world_from_frame).compose(g.inverse())
        )
        assert rot_err < 0.005 and trans_err < 0.05
