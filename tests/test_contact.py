"""Contact-bone inference and per-vertex contact correspondences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from inhand.contact import ContactState, PosedHand, contact_correspondences, detect_contacts
from inhand.errors import EmptyInputError, NoContactError
from inhand.geometry import PointCloud, RigidTransform, rotation_about_axis


def plane_cloud(spacing=0.25, half=30.0, z=500.0):
    lin = np.arange(-half, half + 1e-9, spacing)
    xs, ys = np.meshgrid(lin, lin)
    return PointCloud(np.column_stack([xs.ravel(), ys.ravel(), np.full(xs.size, z)]))


def pad(center, count, height, spacing=0.25, z=500.0):
    """`count` vertices hovering `height` above grid nodes near `center`."""
    side = int(np.ceil(np.sqrt(count)))
    pts = []
    for i in range(side):
        for j in range(side):
            if len(pts) == count:
                break
            pts.append([center[0] + i * spacing, center[1] + j * spacing, z - height])
    return np.array(pts)


def two_finger_hand(h_a=0.5, h_b=2.2, n_a=45, n_b=45):
    va = pad((-10.0, 0.0), n_a, h_a)
    vb = pad((10.0, 0.0), n_b, h_b)
    verts = np.vstack([va, vb])
    labels = ("thumb_tip",) * n_a + ("index_tip",) * n_b
    return PosedHand(verts, labels, frozenset({"thumb_tip", "index_tip"}))


class TestDetectContacts:
    def test_threshold_growth_sequence(self):
        # Finger A hovers 0.5 mm off the surface, finger B 2.2 mm.
        # 1.0: only A. 1.5: only A. 2.0: only A (2.2 not < 2.0).
        # 2.5: both -> stop with threshold_used = 2.5.
        cloud = plane_cloud()
        state = detect_contacts(two_finger_hand(), cloud)
        assert state.threshold_used == pytest.approx(2.5)
        assert state.contact_bones == frozenset({"thumb_tip", "index_tip"})

    def test_immediate_contact_at_one_mm(self):
        cloud = plane_cloud()
        state = detect_contacts(two_finger_hand(h_b=0.5), cloud)
        assert state.threshold_used == pytest.approx(1.0)

    def test_more_than_forty_is_strict(self):
        cloud = plane_cloud()
        # Finger B has exactly 40 near vertices: never qualifies, and the
        # cap is exhausted with only one qualifying bone.
        hand = two_finger_hand(n_b=40)
        with pytest.raises(NoContactError):
            detect_contacts(hand, cloud)
        # 41 qualifies ("more than 40 vertices").
        state = detect_contacts(two_finger_hand(n_b=41), cloud)
        assert state.contact_bones == frozenset({"thumb_tip", "index_tip"})

    def test_distance_strictly_below_threshold(self):
        cloud = plane_cloud()
        # Vertices exactly at 1.0 mm are not candidates at threshold 1.0.
        state = detect_contacts(two_finger_hand(h_a=1.0, h_b=1.0), cloud)
        assert state.threshold_used == pytest.approx(1.5)

    def test_cap_exhaustion(self):
        cloud = plane_cloud()
        hand = two_finger_hand(h_b=50.0)  # finger B far beyond the 10 mm cap
        with pytest.raises(NoContactError):
            detect_contacts(hand, cloud)

    def test_empty_object_cloud_rejected(self):
        # Not NoContactError: a frame would silently drop its contact term.
        with pytest.raises(EmptyInputError, match="empty object cloud"):
            detect_contacts(two_finger_hand(), PointCloud(np.empty((0, 3))))

    def test_non_end_effector_bones_ignored(self):
        cloud = plane_cloud()
        base = two_finger_hand()
        palm = pad((0.0, 10.0), 60, 0.2)  # touching, but not an end effector
        hand = PosedHand(
            np.vstack([base.vertices, palm]),
            base.bone_labels + ("palm",) * 60,
            frozenset({"thumb_tip", "index_tip"}),
        )
        state = detect_contacts(hand, cloud)
        assert "palm" not in state.contact_bones
        assert state.contact_bones == frozenset({"thumb_tip", "index_tip"})

    def test_end_effector_without_vertices_never_qualifies(self):
        cloud = plane_cloud()
        base = two_finger_hand()
        hand = PosedHand(base.vertices, base.bone_labels, base.end_effectors | {"pinky_tip"})
        assert detect_contacts(hand, cloud) == detect_contacts(base, cloud)

    def test_threshold_on_grid(self):
        cloud = plane_cloud()
        for h_b in (0.5, 1.2, 3.4, 6.0):
            state = detect_contacts(two_finger_hand(h_b=h_b), cloud)
            steps = round((state.threshold_used - 1.0) / 0.5)
            assert state.threshold_used == pytest.approx(1.0 + 0.5 * steps)
            assert state.threshold_used >= 1.0


class TestContactCorrespondences:
    def test_bone_intersection(self):
        # Source in contact through {thumb, index}, target through
        # {thumb, middle}: only thumb vertices pair up.
        n = 50
        verts = np.arange(3 * n * 3, dtype=float).reshape(3 * n, 3)
        labels = ("thumb_tip",) * n + ("index_tip",) * n + ("middle_tip",) * n
        effectors = frozenset({"thumb_tip", "index_tip", "middle_tip"})
        src = PosedHand(verts, labels, effectors)
        tgt = PosedHand(verts + 5.0, labels, effectors)
        s_state = ContactState(frozenset({"thumb_tip", "index_tip"}), 1.0)
        t_state = ContactState(frozenset({"thumb_tip", "middle_tip"}), 1.0)
        cs = contact_correspondences(src, tgt, s_state, t_state)
        assert len(cs) == n
        np.testing.assert_array_equal(cs.source, verts[:n])
        np.testing.assert_array_equal(cs.target, verts[:n] + 5.0)
        assert cs.tag == "contact"

    def test_empty_intersection(self):
        n = 45
        verts = np.zeros((2 * n, 3))
        labels = ("thumb_tip",) * n + ("index_tip",) * n
        eff = frozenset({"thumb_tip", "index_tip"})
        hand = PosedHand(verts, labels, eff)
        a = ContactState(frozenset({"thumb_tip"}), 1.0)
        b = ContactState(frozenset({"index_tip"}), 1.0)
        assert len(contact_correspondences(hand, hand, a, b)) == 0

    def test_count_sums_per_bone_counts(self):
        na, nb = 47, 53
        verts = np.random.default_rng(1).normal(size=(na + nb, 3))
        labels = ("thumb_tip",) * na + ("index_tip",) * nb
        eff = frozenset({"thumb_tip", "index_tip"})
        hand = PosedHand(verts, labels, eff)
        both = ContactState(eff, 1.5)
        cs = contact_correspondences(hand, hand, both, both)
        assert len(cs) == na + nb

    def test_exact_under_rigid_motion(self):
        # Hand vertices move rigidly with the object: correspondences are
        # exact samples of the motion.
        hand0 = two_finger_hand()
        t = RigidTransform(rotation_about_axis((0, 1, 0), 0.1), np.array([3.0, -2.0, 1.0]))
        hand1 = PosedHand(t.apply(hand0.vertices), hand0.bone_labels, hand0.end_effectors)
        state = ContactState(hand0.end_effectors, 1.0)
        cs = contact_correspondences(hand1, hand0, state, state)
        np.testing.assert_allclose(t.inverse().apply(cs.source), cs.target, atol=1e-9)


@st.composite
def rigid_motions(draw):
    """G: a uniform random rotation and a translation of up to 600 mm per axis."""
    rotation = Rotation.random(random_state=draw(st.integers(0, 2**32 - 1)))
    translation = draw(st.tuples(*[st.floats(-600.0, 600.0)] * 3))
    return RigidTransform(rotation.as_matrix(), np.array(translation))


def moved_hand(hand: PosedHand, g: RigidTransform) -> PosedHand:
    return PosedHand(g.apply(hand.vertices), hand.bone_labels, hand.end_effectors)


# Two frames of one grasp: in the source, finger A hovers 0.5 mm off the
# plane and finger B 2.2 mm, so the search grows to 2.5 mm; the target is
# another hand at 1.2 and 0.5 mm (1.5 mm), on the plane moved by MOTION.
MOTION = RigidTransform(rotation_about_axis((0.3, 1.0, 0.2), 0.2), np.array([4.0, -2.0, 1.0]))
SOURCE_CLOUD = plane_cloud()
SOURCE_HAND = two_finger_hand()
TARGET_CLOUD = PointCloud(MOTION.apply(SOURCE_CLOUD.points))
TARGET_HAND = moved_hand(two_finger_hand(h_a=1.2, h_b=0.5), MOTION)


@settings(max_examples=30, deadline=None)
@given(g=rigid_motions())
def test_contacts_commute_with_a_rigid_motion(g):
    """Moving both frames by G keeps each contact state and the paired
    vertex rows, and moves each pair by G (to roundoff: 1e-9 mm)."""
    states = [
        detect_contacts(hand, cloud)
        for hand, cloud in ((SOURCE_HAND, SOURCE_CLOUD), (TARGET_HAND, TARGET_CLOUD))
    ]
    assert [s.threshold_used for s in states] == [2.5, 1.5]
    source, target = moved_hand(SOURCE_HAND, g), moved_hand(TARGET_HAND, g)
    moved_states = [
        detect_contacts(source, PointCloud(g.apply(SOURCE_CLOUD.points))),
        detect_contacts(target, PointCloud(g.apply(TARGET_CLOUD.points))),
    ]
    assert moved_states == states
    cs = contact_correspondences(SOURCE_HAND, TARGET_HAND, *states)
    moved = contact_correspondences(source, target, *moved_states)
    rows = [int(np.flatnonzero((SOURCE_HAND.vertices == v).all(axis=1))[0]) for v in cs.source]
    np.testing.assert_array_equal(moved.source, source.vertices[rows])
    np.testing.assert_array_equal(moved.target, target.vertices[rows])
    np.testing.assert_allclose(moved.source, g.apply(cs.source), rtol=0.0, atol=1e-9)
    np.testing.assert_allclose(moved.target, g.apply(cs.target), rtol=0.0, atol=1e-9)
