"""Sparse alignment, ICP refinement, and sequence registration."""

import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from inhand.contact import PosedHand
from inhand.errors import DivergenceError, EmptyInputError, UnderConstrainedError
from inhand.features import CorrespondenceSet
from inhand.geometry import (
    CameraIntrinsics,
    PointCloud,
    RigidTransform,
    rotation_about_axis,
    rotation_angle_rad,
)
from inhand.preprocess import DetectorBox, SegmentedFrame
from inhand.register import (
    Metascan,
    RegistrationConfig,
    align_sparse,
    detector_correspondences,
    refine_icp,
    register_pair,
    run_sequence,
    sparse_energy,
)

INTRINSICS = CameraIntrinsics(500.0, 500.0, 320.0, 240.0, 640, 480)


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
    def make_metascan(self, cloud=None, voxel=0.8):
        scan = Metascan(voxel_size=voxel)
        scan.append(cloud if cloud is not None else blob_cloud(4000))
        return scan

    def test_recovers_two_mm_translation(self):
        scan = self.make_metascan()
        shift = np.array([2.0, 0.0, 0.0])
        result = refine_icp(scan.points + shift, scan)
        assert len(result.rms_history) < 20
        err = np.linalg.norm(result.transform.translation + shift)
        assert err < 1e-3
        assert math.degrees(rotation_angle_rad(result.transform.rotation)) < 0.01

    def test_identity_on_exact_overlap(self):
        scan = self.make_metascan()
        result = refine_icp(scan.points.copy(), scan)
        assert result.rms_history[0] == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(result.transform.rotation, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(result.transform.translation, 0.0, atol=1e-12)

    def test_divergence_beyond_gate(self):
        # Far enough that every source point is > 5 mm from the metascan.
        scan = self.make_metascan()
        with pytest.raises(DivergenceError):
            refine_icp(scan.points + np.array([150.0, 0.0, 0.0]), scan)

    def test_rms_non_increasing(self):
        scan = self.make_metascan()
        rng = np.random.default_rng(7)
        for _ in range(15):
            axis = rng.normal(size=3)
            t = RigidTransform(
                rotation_about_axis(axis, math.radians(rng.uniform(0, 2.0))),
                rng.uniform(-1.5, 1.5, size=3),
            )
            result = refine_icp(t.apply(scan.points), scan)
            diffs = np.diff(result.rms_history)
            assert np.all(diffs <= 1e-9)

    def test_empty_metascan(self):
        with pytest.raises(EmptyInputError):
            refine_icp(np.zeros((5, 3)), Metascan())


class TestMetascan:
    def test_keep_first_merge(self):
        scan = Metascan(voxel_size=2.0)
        first = np.array([[0.1, 0.1, 0.1], [5.0, 5.0, 5.0]])
        scan.append(first)
        # A near-duplicate in an occupied voxel is discarded; a point in a
        # fresh voxel is kept.
        scan.append(np.array([[0.3, 0.2, 0.2], [9.0, 9.0, 9.0]]))
        assert len(scan) == 3
        assert any(np.array_equal(p, first[0]) for p in scan.points)
        assert any(np.array_equal(p, [9.0, 9.0, 9.0]) for p in scan.points)

    def test_index_consistent_after_append(self):
        scan = Metascan()
        scan.append(blob_cloud(500, seed=1))
        scan.append(blob_cloud(500, seed=2).points + 100.0)
        dist, idx = scan.index.query(scan.points)
        np.testing.assert_array_equal(idx, np.arange(len(scan)))
        assert np.all(dist == 0.0)


def hand_on(cloud: PointCloud, seed=11, pad_size=45):
    """Two fingertip pads lying exactly on distinct parts of the cloud."""
    order = np.argsort(cloud.points[:, 0])
    a = order[:pad_size]
    b = order[-pad_size:]
    verts = np.vstack([cloud.points[a], cloud.points[b]])
    labels = ("thumb_tip",) * pad_size + ("index_tip",) * pad_size
    return PosedHand(verts, labels, frozenset({"thumb_tip", "index_tip"}))


def make_frame(index, motion, base_cloud, base_hand):
    cloud = base_cloud.transformed(motion)
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
        scan = Metascan()
        scan.append(frames[0].object_cloud)
        pose = register_pair(frames[0], twin, scan, RigidTransform.identity())
        rot_err, trans_err = transform_gap(pose.world_from_frame, RigidTransform.identity())
        assert rot_err < 1e-6 and trans_err < 1e-6
        assert pose.correspondence_counts["contact"] == 90

    def test_deterministic(self):
        frames, _ = exact_sequence(n_frames=2)
        poses = []
        for _ in range(2):
            scan = Metascan()
            scan.append(frames[0].object_cloud)
            poses.append(
                register_pair(frames[0], frames[1], scan, RigidTransform.identity())
            )
        a, b = poses
        assert np.array_equal(a.world_from_frame.rotation, b.world_from_frame.rotation)
        assert np.array_equal(
            a.world_from_frame.translation, b.world_from_frame.translation
        )
        assert a.correspondence_counts == b.correspondence_counts


class TestRunSequence:
    def test_exact_motion_recovered(self):
        frames, truth = exact_sequence()
        result = run_sequence(frames)
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
        result = run_sequence(frames)
        poses = {p.frame_index: p.world_from_frame for p in result.poses}
        matched = np.zeros(len(result.metascan), dtype=bool)
        for k, frame in enumerate(frames):
            back = poses[k].inverse().apply(result.metascan.points)
            dist, _ = cKDTree(frame.object_cloud.points).query(back)
            matched |= dist < 1e-9
        assert np.all(matched)

    def test_empty_sequence(self):
        with pytest.raises(EmptyInputError):
            run_sequence([])


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
