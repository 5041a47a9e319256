"""Synthetic sequence generation and its ground-truth guarantees."""

import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from inhand import synth
from inhand.contact import detect_contacts
from inhand.errors import DegenerateMotionError
from inhand.features import describe_cloud, load_feat2d, match_feat3d
from inhand.geometry import (
    CameraIntrinsics,
    RigidTransform,
    rotation_about_axis,
    rotation_angle_rad,
    solve_weighted_rigid,
)
from inhand.synth import (
    DEFAULT_CENTER,
    MotionScript,
    SyntheticObjectSpec,
    add_texture_features,
    attach_detector_boxes,
    attach_feat2d,
    build_hand,
    generate_sequence,
)

INTRINSICS = CameraIntrinsics(500.0, 500.0, 320.0, 240.0, 640, 480)


def rotation_pair_script(deg=6.0, sigma=0.0, seed=7):
    """Two frames related by a rotation about x, seen from a fixed camera."""
    rot = rotation_about_axis(np.array([1.0, 0.0, 0.0]), math.radians(deg))
    second = RigidTransform(rot, DEFAULT_CENTER - rot @ DEFAULT_CENTER)
    return MotionScript(
        (RigidTransform.identity(), second),
        ((0.0, 0.0, 1.0), (0.0, 0.0, 1.0)),
        sigma=sigma,
        seed=seed,
    )


def static_script(n_frames):
    """``n_frames`` identical poses seen along +z, without noise."""
    return MotionScript(
        (RigidTransform.identity(),) * n_frames, ((0.0, 0.0, 1.0),) * n_frames, sigma=0.0
    )


TUMBLE_OBJECT = SyntheticObjectSpec.sphere(70.0)


def tumble_motion():
    return MotionScript.tumble(6, 6.0, sigma=0.5, seed=7)


@functools.cache
def tumble_sphere():
    return generate_sequence(TUMBLE_OBJECT, tumble_motion())


@functools.cache
def noiseless_tumble_sphere():
    obj = SyntheticObjectSpec.sphere(70.0)
    motion = MotionScript.tumble(6, 6.0, sigma=0.0, seed=7)
    return generate_sequence(obj, motion)


class TestObjectSpec:
    def test_nonpositive_dimensions_rejected(self):
        with pytest.raises(ValueError):
            SyntheticObjectSpec.sphere(-70.0)
        with pytest.raises(ValueError):
            SyntheticObjectSpec.sphere(70.0, density=0.0)

    def test_capsule_height_must_exceed_diameter(self):
        with pytest.raises(ValueError):
            SyntheticObjectSpec.capsule_bottle(diameter=60.0, height=60.0)

    def test_pin_dimensions_must_be_ordered(self):
        with pytest.raises(ValueError):
            SyntheticObjectSpec.bowling_pin(head_diameter=90.0, body_diameter=82.0, height=150.0)

    def test_sphere_samples_at_exact_radius(self):
        surface = SyntheticObjectSpec.sphere(70.0).surface
        pts, normals = surface.sample(2000, np.random.default_rng(0))
        radii = np.linalg.norm(pts, axis=1)
        assert np.allclose(radii, 35.0, atol=1e-9)
        assert np.allclose(normals, pts / 35.0, atol=1e-12)

    @pytest.mark.parametrize("name", ["bottle", "pin", "stepped"])
    def test_revolved_samples_lie_on_surface(self, name):
        surface = PROFILE_SURFACES[name]
        pts, normals = surface.sample(500, np.random.default_rng(1))
        foot, foot_normals = surface.project(pts)
        assert np.linalg.norm(pts - foot, axis=1).max() < 1e-6
        assert np.allclose(np.linalg.norm(normals, axis=1), 1.0, atol=1e-12)
        assert np.allclose(foot_normals, normals, atol=1e-12)

    def test_pin_probe_heights_hit_diameter_maxima(self):
        spec = SyntheticObjectSpec.bowling_pin(head_diameter=50.0, body_diameter=82.0, height=150.0)
        positions = {p.name: p.position for p in spec.probes if p.kind == "slice_diameter"}
        z_body = positions["body_diameter"] - DEFAULT_CENTER[2]
        z_head = positions["head_diameter"] - DEFAULT_CENTER[2]
        surface = spec.surface
        body_band = np.abs(surface.z - z_body) < 1.0
        head_band = np.abs(surface.z - z_head) < 1.0
        assert abs(surface.r[body_band].max() - 41.0) < 1e-6
        assert abs(surface.r[head_band].max() - 25.0) < 1e-6

    def test_surface_area_positive(self):
        for spec in (
            SyntheticObjectSpec.sphere(70.0),
            SyntheticObjectSpec.capsule_bottle(diameter=60.0, height=120.0),
            SyntheticObjectSpec.bowling_pin(head_diameter=50.0, body_diameter=82.0, height=150.0),
        ):
            assert spec.surface.area > 0.0


class TestBuildHand:
    def test_two_pads_with_generous_vertex_counts(self):
        for spec in (
            SyntheticObjectSpec.sphere(70.0),
            SyntheticObjectSpec.bowling_pin(head_diameter=50.0, body_diameter=82.0, height=150.0),
        ):
            hand = build_hand(spec)
            assert hand.end_effectors == frozenset({"thumb_tip", "index_tip"})
            for bone in hand.end_effectors:
                assert len(hand.bone_vertex_indices(bone)) > 40

    def test_standoff_is_exact(self):
        spec = SyntheticObjectSpec.sphere(70.0)
        hand = build_hand(spec)
        radii = np.linalg.norm(hand.vertices - DEFAULT_CENTER, axis=1)
        assert np.allclose(radii, 35.5, atol=1e-9)

    def test_standoff_on_revolved_surface(self):
        spec = SyntheticObjectSpec.bowling_pin(head_diameter=50.0, body_diameter=82.0, height=150.0)
        hand = build_hand(spec)
        surface = spec.surface
        foot, _ = surface.project(hand.vertices - DEFAULT_CENTER)
        gaps = np.linalg.norm(hand.vertices - DEFAULT_CENTER - foot, axis=1)
        assert np.allclose(gaps, 0.5, atol=1e-6)


class TestMotionScript:
    def test_validation(self):
        identity = RigidTransform.identity()
        with pytest.raises(ValueError):
            MotionScript((), ())
        with pytest.raises(ValueError):
            MotionScript((identity,), ())
        with pytest.raises(ValueError):
            MotionScript((identity,), ((0, 0, 1),), sigma=-0.1)

    def test_tumble_rotation_accumulates(self):
        script = MotionScript.tumble(5, deg_per_frame=6.0, sigma=0.0)
        for k, t in enumerate(script.transforms):
            assert abs(math.degrees(rotation_angle_rad(t.rotation)) - 6.0 * k) < 1e-9

    def test_view_dirs_are_normalized(self):
        script = MotionScript(
            (RigidTransform.identity(),), ((0.0, 0.0, 10.0),), sigma=0.0
        )
        assert np.allclose(np.linalg.norm(script.view_dirs[0]), 1.0, atol=1e-12)


class TestGenerateSequence:
    def test_static_noiseless_frames_identical_at_exact_radius(self):
        obj = SyntheticObjectSpec.sphere(70.0)
        frames, truth = generate_sequence(obj, static_script(3))
        first = frames[0].object_cloud.points
        for frame in frames[1:]:
            assert np.array_equal(frame.object_cloud.points, first)
        radii = np.linalg.norm(first - truth.center, axis=1)
        assert np.allclose(radii, 35.0, atol=1e-9)

    def test_noiseless_pair_consistency(self):
        frames, truth = noiseless_tumble_sphere()
        for j in range(len(frames)):
            for k in range(j + 1, len(frames)):
                shared, rj, rk = np.intersect1d(
                    truth.visible_indices[j],
                    truth.visible_indices[k],
                    return_indices=True,
                )
                if len(shared) == 0:
                    continue
                mapped = truth.pair_truth(j, k).apply(frames[k].object_cloud.points[rk])
                gap = np.linalg.norm(mapped - frames[j].object_cloud.points[rj], axis=1)
                assert gap.max() < 1e-9

    def test_noise_perturbs_but_respects_script(self):
        frames, truth = tumble_sphere()
        for k, frame in enumerate(frames):
            clean = truth.motions[k].apply(
                truth.canonical_cloud.points[truth.visible_indices[k]]
            )
            gap = frame.object_cloud.points - clean
            assert np.abs(gap).max() < 6.0 * truth.sigma
            assert np.abs(gap).max() > 0.0

    def test_visibility_culling_is_strict(self):
        frames, truth = tumble_sphere()
        motion = tumble_motion()
        for k, frame in enumerate(frames):
            camera_dir = truth.motions[k].rotation @ motion.view_dirs[k]
            facing = frame.object_cloud.normals @ camera_dir
            assert facing.max() < 0.0

    def test_hand_rides_rigidly_and_noise_free(self):
        frames, truth = tumble_sphere()
        hand = build_hand(TUMBLE_OBJECT)
        for k, frame in enumerate(frames):
            expected = truth.motions[k].apply(hand.vertices)
            assert np.array_equal(frame.hand_pose.vertices, expected)

    def test_hand_noise_perturbs_pads_only(self):
        exact_frames, exact_truth = tumble_sphere()
        frames, truth = generate_sequence(TUMBLE_OBJECT, tumble_motion(), hand_sigma=0.5)
        hand = build_hand(TUMBLE_OBJECT)
        for k, frame in enumerate(frames):
            expected = truth.motions[k].apply(hand.vertices)
            gap = frame.hand_pose.vertices - expected
            assert abs(gap.std() - 0.5) < 0.05
            assert np.abs(gap.mean()) < 0.05
            assert np.array_equal(truth.visible_indices[k], exact_truth.visible_indices[k])

    def test_negative_hand_noise_rejected(self):
        motion = MotionScript.tumble(2, 6.0, seed=7)
        with pytest.raises(ValueError, match="hand_sigma"):
            generate_sequence(SyntheticObjectSpec.sphere(70.0), motion, hand_sigma=-0.5)

    def test_total_occlusion_degenerates(self, monkeypatch):
        monkeypatch.setattr(synth, "OCCLUSION_RADIUS_MM", 1e6)
        with pytest.raises(DegenerateMotionError):
            generate_sequence(SyntheticObjectSpec.sphere(70.0), static_script(1))

    def test_contact_fires_every_frame_with_both_bones(self):
        frames, _ = tumble_sphere()
        for frame in frames:
            state = detect_contacts(frame.hand_pose, frame.object_cloud)
            assert state.contact_bones == frozenset({"thumb_tip", "index_tip"})
            assert state.threshold_used <= 2.5

    def test_annotations_on_schedule(self):
        _, truth = generate_sequence(TUMBLE_OBJECT, tumble_motion(), annotate_every=2)
        assert [(a.frame_a, a.frame_b) for a in truth.annotations] == [(1, 2), (3, 4)]
        for ann in truth.annotations:
            assert ann.points_a.shape == (synth.ANNOTATIONS_PER_PAIR, 3)
            assert ann.points_b.shape == (synth.ANNOTATIONS_PER_PAIR, 3)

    def test_bitwise_deterministic(self):
        obj = SyntheticObjectSpec.sphere(70.0)
        motion = MotionScript.tumble(3, 6.0, sigma=0.5, seed=11)
        first, _ = generate_sequence(obj, motion)
        second, _ = generate_sequence(obj, motion)
        for a, b in zip(first, second):
            assert np.array_equal(a.object_cloud.points, b.object_cloud.points)
            assert np.array_equal(a.object_cloud.normals, b.object_cloud.normals)
            assert np.array_equal(a.hand_pose.vertices, b.hand_pose.vertices)

    def test_visible_indices_align_with_emitted_rows(self):
        frames, truth = tumble_sphere()
        for k, frame in enumerate(frames):
            idx = truth.visible_indices[k]
            assert len(idx) == len(frame.object_cloud)
            assert np.all(np.diff(idx) > 0)

    def test_colors_only_with_texture(self):
        frames, _ = tumble_sphere()
        assert frames[0].object_cloud.colors is None
        obj = SyntheticObjectSpec.sphere(70.0)
        motion = MotionScript.tumble(2, 6.0, sigma=0.5, seed=7)
        textured, _ = generate_sequence(obj, motion, texture_count=10, texture_seed=3)
        colors = textured[0].object_cloud.colors
        assert colors is not None
        assert len(colors) == len(textured[0].object_cloud)
        assert not np.allclose(colors, colors[0])

    def test_small_objects_keep_a_minimum_sample(self):
        obj = SyntheticObjectSpec.sphere(5.0)
        _, truth = generate_sequence(obj, static_script(1))
        assert len(truth.canonical_cloud) >= 800


class TestAddTextureFeatures:
    def sphere_cloud(self):
        _, truth = noiseless_tumble_sphere()
        return truth.canonical_cloud

    def test_count_zero_returns_cloud_unchanged(self):
        cloud = self.sphere_cloud()
        assert add_texture_features(cloud, 0) is cloud

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            add_texture_features(self.sphere_cloud(), -1)

    def test_deterministic_for_fixed_seed(self):
        cloud = self.sphere_cloud()
        a = add_texture_features(cloud, 12, seed=5)
        b = add_texture_features(cloud, 12, seed=5)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.colors, b.colors)

    def test_dents_press_inward_and_carry_paint(self):
        cloud = self.sphere_cloud()
        dented = add_texture_features(cloud, 15, seed=5)
        radii = np.linalg.norm(dented.points - DEFAULT_CENTER, axis=1)
        moved = np.linalg.norm(dented.points - cloud.points, axis=1) > 1e-9
        assert moved.any()
        assert radii[moved].min() < 35.0 - 1.0
        assert radii.max() < 35.0 + 1e-6
        painted = dented.colors[moved, 0]
        assert len(np.unique(painted)) >= 2
        assert not np.any(painted == dented.colors[~moved, 0][0])

    def test_six_degree_pair_matches_recover_motion(self):
        obj = SyntheticObjectSpec.sphere(70.0)
        frames, truth = generate_sequence(
            obj, rotation_pair_script(deg=6.0, sigma=0.0), texture_count=20, texture_seed=3
        )
        matches = match_feat3d(
            describe_cloud(frames[1].object_cloud), describe_cloud(frames[0].object_cloud)
        )
        assert len(matches) >= 10
        recovered = solve_weighted_rigid(
            matches.source, matches.target, np.ones(len(matches))
        )
        actual = truth.pair_truth(0, 1)
        gap = recovered.rotation @ actual.rotation.T
        angle = math.degrees(rotation_angle_rad(gap))
        center = truth.motions[1].apply(truth.center)
        drift = np.linalg.norm(recovered.apply(center) - actual.apply(center))
        assert angle < 1.0
        assert drift < 1.0


class TestAttachFeat2d:
    def test_structure_and_limits(self):
        frames, truth = tumble_sphere()
        attached = attach_feat2d(frames, truth, INTRINSICS, max_matches=25)
        assert attached[0].feat2d_matches is None
        for frame in attached[1:]:
            pixel_pairs, src_d, tgt_d = frame.feat2d_matches
            assert pixel_pairs.shape[1] == 4
            assert 0 < len(pixel_pairs) <= 25
            assert src_d.shape == tgt_d.shape == (len(pixel_pairs),)

    def test_backprojected_pairs_satisfy_ground_truth(self):
        frames, truth = noiseless_tumble_sphere()
        attached = attach_feat2d(frames, truth, INTRINSICS, max_matches=30)
        for k, frame in enumerate(attached[1:], start=1):
            pixel_pairs, src_d, tgt_d = frame.feat2d_matches
            pairs = load_feat2d(pixel_pairs, src_d, tgt_d, INTRINSICS)
            mapped = truth.pair_truth(k - 1, k).apply(pairs.source)
            assert np.linalg.norm(mapped - pairs.target, axis=1).max() < 1e-9

    def test_deterministic(self):
        frames, truth = tumble_sphere()
        a = attach_feat2d(frames, truth, INTRINSICS, seed=2)
        b = attach_feat2d(frames, truth, INTRINSICS, seed=2)
        for fa, fb in zip(a[1:], b[1:]):
            assert np.array_equal(fa.feat2d_matches[0], fb.feat2d_matches[0])


class TestAttachDetectorBoxes:
    def test_boxes_track_fingertips(self):
        frames, _ = tumble_sphere()
        boxed = attach_detector_boxes(frames, INTRINSICS)
        from inhand.geometry import project

        for frame in boxed:
            assert [b.label for b in frame.detector_boxes] == ["index_tip", "thumb_tip"]
            for box in frame.detector_boxes:
                assert box.depth.shape == (24, 24)
                valid = box.depth[box.depth > 0.0]
                assert len(valid) > 0
                pad = frame.hand_pose.vertices[
                    frame.hand_pose.bone_vertex_indices(box.label)
                ]
                cu, cv = project(pad.mean(axis=0), INTRINSICS)[0]
                assert abs(box.x + 12 - cu) <= 3.0
                assert abs(box.y + 12 - cv) <= 3.0

    def test_depths_are_plausible_scene_depths(self):
        frames, _ = tumble_sphere()
        boxed = attach_detector_boxes(frames, INTRINSICS)
        for frame in boxed:
            scene_z = np.concatenate(
                [frame.object_cloud.points[:, 2], frame.hand_pose.vertices[:, 2]]
            )
            lo = scene_z.min() - 1.0
            hi = scene_z.max() + 1.0
            for box in frame.detector_boxes:
                valid = box.depth[box.depth > 0.0]
                assert valid.min() > lo
                assert valid.max() < hi

    def test_deterministic(self):
        frames, _ = tumble_sphere()
        a = attach_detector_boxes(frames, INTRINSICS, seed=4)
        b = attach_detector_boxes(frames, INTRINSICS, seed=4)
        for fa, fb in zip(a, b):
            for ba, bb in zip(fa.detector_boxes, fb.detector_boxes):
                assert (ba.x, ba.y) == (bb.x, bb.y)
                assert np.array_equal(ba.depth, bb.depth)


class TestStandardProbes:
    def test_sphere_probes(self):
        spec = SyntheticObjectSpec.sphere(70.0)
        probes, expected = spec.probes, spec.expected
        assert {p.name for p in probes} == {"height", "diameter", "volume"}
        assert expected["diameter"] == 70.0
        assert abs(expected["volume"] - math.pi * 70.0**3 / 6.0) < 1e-9

    def test_pin_probes(self):
        spec = SyntheticObjectSpec.bowling_pin(head_diameter=50.0, body_diameter=82.0, height=150.0)
        probes, expected = spec.probes, spec.expected
        assert {p.name for p in probes} == {"height", "body_diameter", "head_diameter", "volume"}
        assert expected["body_diameter"] == 82.0
        assert expected["head_diameter"] == 50.0
        # Less than the bounding cylinder over the body diameter.
        assert 0.0 < expected["volume"] < math.pi * 41.0**2 * 150.0
        z_body = (synth._PIN_BODY_T - 0.5) * 150.0
        z_head = (synth._PIN_HEAD_T - 0.5) * 150.0
        positions = {p.name: p.position for p in probes if p.kind == "slice_diameter"}
        assert positions["body_diameter"] == pytest.approx(DEFAULT_CENTER[2] + z_body)
        assert positions["head_diameter"] == pytest.approx(DEFAULT_CENTER[2] + z_head)


# Dense references: the all-pairs searches synth made before its candidate
# searches went through cKDTree.  The program must agree with them exactly.


def dense_occluded(points, pad_vertices, view_dir, radius):
    """True for points shadowed by any pad vertex along the view direction."""
    if radius <= 0.0 or len(pad_vertices) == 0:
        return np.zeros(len(points), dtype=bool)
    out = np.zeros(len(points), dtype=bool)
    r2 = radius * radius
    for start in range(0, len(points), 4096):
        block = points[start : start + 4096]
        d = block[:, None, :] - pad_vertices[None, :, :]
        along = d @ view_dir
        lat2 = np.einsum("ijk,ijk->ij", d, d) - along**2
        out[start : start + 4096] = np.any((lat2 < r2) & (along > 0.0), axis=1)
    return out


def dense_nearest_to(points, vertices, count):
    """Rows of the ``count`` points nearest any vertex, nearest first."""
    d2 = ((points[:, None, :] - vertices[None, :, :]) ** 2).sum(-1)
    return np.argsort(d2.min(axis=1))[:count]


def dense_profile_foot(surface, rho, z):
    """Closest profile segment and (r, z) foot for each (rho, z) query."""
    q = np.column_stack([rho, z])
    a = np.column_stack([surface.r[:-1], surface.z[:-1]])
    d = np.column_stack([np.diff(surface.r), np.diff(surface.z)])
    len2 = np.maximum((d**2).sum(1), 1e-300)
    diff = q[:, None, :] - a[None, :, :]
    t = np.clip((diff * d[None, :, :]).sum(-1) / len2[None, :], 0.0, 1.0)
    foot = a[None, :, :] + t[..., None] * d[None, :, :]
    dist2 = ((q[:, None, :] - foot) ** 2).sum(-1)
    best = np.argmin(dist2, axis=1)
    rows = np.arange(len(q))
    return best, foot[rows, best, 0], foot[rows, best, 1]


def unit_vectors():
    """Axis-aligned and random unit vectors."""
    axes = st.sampled_from([(0.0, 0.0, 1.0), (0.0, -1.0, 0.0), (1.0, 0.0, 0.0)])
    drawn = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 1e-3)
    return st.one_of(axes, drawn).map(lambda v: np.asarray(v) / np.linalg.norm(v))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_points=st.integers(0, 300),
    n_pads=st.integers(1, 40),
    view_dir=unit_vectors(),
    radius=st.sampled_from([0.0, 0.35, 2.0, 30.0, 1e6]),
    n_edge=st.integers(0, 40),
)
def test_occluded_matches_all_pairs(seed, n_points, n_pads, view_dir, radius, n_edge):
    rng = np.random.default_rng(seed)
    pads = DEFAULT_CENTER + rng.normal(scale=20.0, size=(n_pads, 3))
    points = DEFAULT_CENTER + rng.normal(scale=25.0, size=(n_points, 3))
    # Points at lateral distance radius, or radius +- 1e-9, from a pad
    # vertex, ahead of it, behind it or level with it (along = 0).
    u, v = synth._tangent_basis(view_dir)
    angle = rng.uniform(0.0, 2.0 * math.pi, size=(n_edge, 1))
    lateral = radius + rng.choice([-1e-9, 0.0, 1e-9], size=(n_edge, 1))
    along = rng.choice([-5.0, 0.0, 5.0], size=(n_edge, 1))
    edge = (
        pads[rng.integers(0, n_pads, size=n_edge)]
        + lateral * (np.cos(angle) * u + np.sin(angle) * v)
        - along * view_dir
    )
    points = np.vstack([points, edge])
    got = synth._occluded(points, pads, view_dir, radius)
    assert np.array_equal(got, dense_occluded(points, pads, view_dir, radius))


def test_occluded_matches_all_pairs_on_generated_pads():
    obj = SyntheticObjectSpec.bowling_pin(head_diameter=50.0, body_diameter=82.0, height=150.0)
    pads = build_hand(obj).vertices
    local, normals = obj.surface.sample(20000, np.random.default_rng(3))
    points = local + DEFAULT_CENTER
    for view_dir in MotionScript.tumble(4, 6.0).view_dirs:
        facing = points[normals @ view_dir < 0.0]
        got = synth._occluded(facing, pads, view_dir, synth.OCCLUSION_RADIUS_MM)
        want = dense_occluded(facing, pads, view_dir, synth.OCCLUSION_RADIUS_MM)
        assert want.any()
        assert np.array_equal(got, want)


def test_occluded_keeps_the_all_pairs_rounding():
    # A point level with a pad vertex (along is about 1e-18) and 0.28 mm
    # beside it.  On some BLAS builds matmul's dot kernel, used for a
    # one-row product, and its matrix-vector kernel disagree on the sign
    # of along here; the mask must follow the kernel the all-pairs product
    # used for one pad vertex and for several.
    view_dir = np.array([0.17131914886057245, 0.9852155482209423, -0.00026977286217680715])
    pad = np.array([-1.1383298296309583, 0.3940803789000021, 549.4968757560766])
    point = np.array([[-0.8799546912097358, 0.34912770651852854, 549.4099027260094]])
    radius = synth.OCCLUSION_RADIUS_MM
    for pads in (pad[None, :], np.vstack([pad, pad + 100.0])):
        got = synth._occluded(point, pads, view_dir, radius)
        assert np.array_equal(got, dense_occluded(point, pads, view_dir, radius))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_points=st.integers(1, 400),
    n_vertices=st.integers(1, 50),
    count=st.integers(1, 10),
)
def test_nearest_to_matches_full_ranking(seed, n_points, n_vertices, count):
    rng = np.random.default_rng(seed)
    points = DEFAULT_CENTER + rng.normal(scale=30.0, size=(n_points, 3))
    vertices = DEFAULT_CENTER + rng.normal(scale=30.0, size=(n_vertices, 3))
    # The full ranking sorts with an unstable argsort, so tied distances
    # have no one right order.
    nearest = ((points[:, None, :] - vertices[None, :, :]) ** 2).sum(-1).min(axis=1)
    assume(len(np.unique(nearest)) == len(nearest))
    got = synth._nearest_to(points, vertices, count)
    assert np.array_equal(got, dense_nearest_to(points, vertices, count))


def test_nearest_to_matches_full_ranking_on_generated_hand():
    _, truth = noiseless_tumble_sphere()
    points = truth.canonical_cloud.points
    vertices = build_hand(TUMBLE_OBJECT).vertices
    got = synth._nearest_to(points, vertices, synth.ANNOTATIONS_PER_PAIR)
    assert np.array_equal(got, dense_nearest_to(points, vertices, synth.ANNOTATIONS_PER_PAIR))


PROFILE_SURFACES = {
    "pin": SyntheticObjectSpec.bowling_pin(
        head_diameter=50.0, body_diameter=82.0, height=150.0
    ).surface,
    "bottle": SyntheticObjectSpec.capsule_bottle(diameter=60.0, height=120.0).surface,
    # A coarse stepped profile: near (15, -38) the closest segment is the
    # bottom disc, whose ends lie much farther away than the step corner.
    "stepped": synth._RevolvedSurface(
        np.array([0.0, 30.0, 30.0, 15.0, 15.0, 0.0]),
        np.array([-40.0, -40.0, -35.0, -35.0, 40.0, 40.0]),
    ),
}


def profile_queries(surface):
    """(rho, z) queries near the profile, at its vertices, beyond its end
    discs and far away, including the poles build_hand anchors at."""
    z_lo, z_hi = float(surface.z[0]), float(surface.z[-1])
    r_max = float(surface.r.max())
    near = st.tuples(st.floats(0.0, r_max + 20.0), st.floats(z_lo - 20.0, z_hi + 20.0))
    vertex = st.integers(0, len(surface.r) - 1).map(
        lambda i: (float(surface.r[i]), float(surface.z[i]))
    )
    end_disc = st.tuples(
        st.floats(0.0, float(max(surface.r[1], surface.r[-2]))),
        st.sampled_from([z_lo, z_hi]).flatmap(lambda e: st.floats(e - 5.0, e + 5.0)),
    )
    far = st.tuples(st.floats(0.0, 1e6), st.floats(-1e6, 1e6))
    poles = st.sampled_from([(0.0, 1e6), (0.0, -1e6)])
    return st.lists(st.one_of(near, vertex, end_disc, far, poles), min_size=1, max_size=40)


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(sorted(PROFILE_SURFACES)), data=st.data())
def test_profile_foot_matches_all_segments(name, data):
    surface = PROFILE_SURFACES[name]
    rho, z = np.array(data.draw(profile_queries(surface))).T
    got = surface._profile_foot(rho, z)
    want = dense_profile_foot(surface, rho, z)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
