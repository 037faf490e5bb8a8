"""Chain model and forward kinematics tests.

Frame propagation is cross-checked against scipy's Rotation: yaw is a
rotation about the frame up axis, pitch a rotation about the yawed
lateral axis, and composing those rotations must reproduce advance_frame
exactly (to float64 roundoff).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from vofabrik.chain import (
    AngleOutOfLimits,
    ChainModel,
    ChainState,
    InconsistentPositions,
    JointFrame,
    JointLimits,
    advance_frame,
    angles_from_direction,
    fk,
    joint_frames,
    link_capsules,
    state_from_angles,
)

UNLIMITED = JointLimits.unlimited()


def straight_chain(n: int, length: float = 1.0, thickness: float = 0.02) -> ChainModel:
    return ChainModel(
        base=(0.0, 0.0, 0.0),
        base_direction=(1.0, 0.0, 0.0),
        links=[(length, thickness)] * n,
        limits=[UNLIMITED] * n,
    )


def oracle_advance(frame, pitch, yaw):
    """Reference frame propagation built from scipy rotations."""
    f, u = frame
    r_yaw = Rotation.from_rotvec(yaw * u)
    f1 = r_yaw.apply(f)
    lateral = np.cross(f1, u)
    r_pitch = Rotation.from_rotvec(pitch * lateral)
    return r_pitch.apply(f1), r_pitch.apply(u)


angle = st.floats(min_value=-1.4, max_value=1.4, allow_nan=False)
yaw_angle = st.floats(min_value=-math.pi + 0.05, max_value=math.pi - 0.05, allow_nan=False)


class TestFrameAdvance:
    def test_zero_angles_keep_frame(self):
        frame = JointFrame(np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0]))
        d, nxt = advance_frame(frame, 0.0, 0.0)
        np.testing.assert_allclose(d, [1.0, 0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(nxt.up, [0.0, 0.0, 1.0], atol=1e-15)

    def test_pure_yaw_quarter_turn(self):
        frame = JointFrame(np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0]))
        d, _ = advance_frame(frame, 0.0, math.pi / 2)
        np.testing.assert_allclose(d, [0.0, 1.0, 0.0], atol=1e-15)

    def test_pure_pitch_quarter_turn(self):
        frame = JointFrame(np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0]))
        d, nxt = advance_frame(frame, math.pi / 2, 0.0)
        np.testing.assert_allclose(d, [0.0, 0.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(nxt.up, [-1.0, 0.0, 0.0], atol=1e-15)

    @given(angle, yaw_angle)
    @settings(max_examples=300, deadline=None)
    def test_matches_rotation_composition(self, pitch, yaw):
        frame = JointFrame(np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0]))
        d, nxt = advance_frame(frame, pitch, yaw)
        d_ref, u_ref = oracle_advance((frame.forward, frame.up), pitch, yaw)
        assert np.linalg.norm(d - d_ref) < 1e-12
        assert np.linalg.norm(nxt.up - u_ref) < 1e-12

    @given(st.lists(st.tuples(angle, yaw_angle), min_size=1, max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_frames_stay_orthonormal(self, steps):
        frame = JointFrame(np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0]))
        for pitch, yaw in steps:
            _, frame = advance_frame(frame, pitch, yaw)
        assert abs(np.linalg.norm(frame.forward) - 1.0) < 1e-12
        assert abs(np.linalg.norm(frame.up) - 1.0) < 1e-12
        assert abs(float(np.dot(frame.forward, frame.up))) < 1e-12

    @given(angle, yaw_angle)
    @settings(max_examples=300, deadline=None)
    def test_angles_from_direction_inverts(self, pitch, yaw):
        frame = JointFrame(np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0]))
        d, _ = advance_frame(frame, pitch, yaw)
        rec = angles_from_direction(frame, d)
        assert abs(rec.pitch - pitch) < 1e-12
        assert abs(rec.yaw - yaw) < 1e-12


class TestForwardKinematics:
    def test_zero_angles_lie_along_base_direction(self):
        model = straight_chain(4, length=0.5)
        p = fk(model, np.zeros((4, 2)))
        expected = np.array([[0.5 * k, 0.0, 0.0] for k in range(5)])
        np.testing.assert_allclose(p, expected, atol=1e-15)

    def test_two_link_yaw_bend(self):
        model = straight_chain(2)
        p = fk(model, [[0.0, 0.0], [0.0, math.pi / 2]])
        np.testing.assert_allclose(p[2], [1.0, 1.0, 0.0], atol=1e-15)

    def test_two_link_pitch_bend(self):
        model = straight_chain(2)
        p = fk(model, [[0.0, 0.0], [math.pi / 2, 0.0]])
        np.testing.assert_allclose(p[2], [1.0, 0.0, 1.0], atol=1e-15)

    def test_matches_scipy_frame_chain(self):
        model = straight_chain(5, length=0.3)
        rng = np.random.default_rng(7)
        angles = np.column_stack(
            [rng.uniform(-1.2, 1.2, 5), rng.uniform(-2.5, 2.5, 5)]
        )
        p = fk(model, angles)
        pos = np.array(model.base)
        f, u = map(np.asarray, model.base_frame())
        for j in range(5):
            d, u = oracle_advance((f, u), angles[j, 0], angles[j, 1])
            f = d
            pos = pos + 0.3 * d
            assert np.linalg.norm(p[j + 1] - pos) < 1e-12

    def test_limit_violation_raises(self):
        model = ChainModel(
            base=(0.0, 0.0, 0.0),
            base_direction=(1.0, 0.0, 0.0),
            links=[(1.0, 0.02)] * 2,
            limits=[JointLimits.symmetric(0.5, 0.5)] * 2,
        )
        with pytest.raises(AngleOutOfLimits) as exc:
            fk(model, [[0.0, 0.0], [0.6, 0.0]])
        assert exc.value.joint == 1
        assert exc.value.axis == "pitch"

    def test_limit_tolerance_admits_boundary(self):
        model = ChainModel(
            base=(0.0, 0.0, 0.0),
            base_direction=(1.0, 0.0, 0.0),
            links=[(1.0, 0.02)] * 2,
            limits=[JointLimits.symmetric(0.5, 0.5)] * 2,
        )
        fk(model, [[0.0, 0.0], [0.5 + 5e-10, 0.0]])  # within 1e-9 slack

    @given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_tip_within_reach(self, n, seed):
        model = straight_chain(n, length=0.4)
        rng = np.random.default_rng(seed)
        angles = np.column_stack(
            [rng.uniform(-1.4, 1.4, n), rng.uniform(-3.0, 3.0, n)]
        )
        p = fk(model, angles)
        assert np.linalg.norm(p[-1] - model.base) <= model.total_length + 1e-9
        seg = np.linalg.norm(np.diff(p, axis=0), axis=1)
        np.testing.assert_allclose(seg, model.lengths, atol=1e-12)

    def test_deterministic_rerun(self):
        model = straight_chain(6)
        rng = np.random.default_rng(3)
        angles = np.column_stack([rng.uniform(-1, 1, 6), rng.uniform(-2, 2, 6)])
        p1 = fk(model, angles)
        p2 = fk(model, angles.copy())
        assert np.array_equal(p1, p2)


def recover_angles(model, positions):
    """Per-joint (pitch, yaw) from joint positions: each link direction is
    decomposed in the frame its parent's recovered angles carry, as the
    solver's forward sweep does."""
    angles = np.empty((model.n_links, 2))
    frame = model.base_frame()
    for j in range(model.n_links):
        d = positions[j + 1] - positions[j]
        angles[j] = angles_from_direction(frame, d / np.linalg.norm(d))
        _, frame = advance_frame(frame, angles[j, 0], angles[j, 1])
    return angles


class TestAngleRecovery:
    @given(
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_round_trip_through_positions(self, n, seed):
        model = straight_chain(n, length=0.25)
        rng = np.random.default_rng(seed)
        angles = np.column_stack(
            [rng.uniform(-1.4, 1.4, n), rng.uniform(-3.0, 3.0, n)]
        )
        recovered = recover_angles(model, fk(model, angles))
        assert float(np.max(np.abs(recovered - angles))) < 1e-9

    def test_near_fold_still_recovers(self):
        # 1e-6 rad off antiparallel
        model = straight_chain(2)
        angles = np.array([[0.0, 0.0], [0.0, math.pi - 1e-6]])
        rec = recover_angles(model, fk(model, angles))
        assert abs(rec[1, 1] - (math.pi - 1e-6)) < 1e-9


class TestChainModelValidation:
    def test_requires_two_links(self):
        with pytest.raises(ValueError, match="at least 2"):
            ChainModel(
                base=(0.0, 0.0, 0.0),
                base_direction=(1.0, 0.0, 0.0),
                links=[(1.0, 0.02)],
                limits=[UNLIMITED],
            )

    def test_limits_count_must_match(self):
        with pytest.raises(ValueError, match="limits count"):
            ChainModel(
                base=(0.0, 0.0, 0.0),
                base_direction=(1.0, 0.0, 0.0),
                links=[(1.0, 0.02)] * 3,
                limits=[UNLIMITED] * 2,
            )

    def test_base_direction_must_be_unit(self):
        with pytest.raises(ValueError, match="unit length"):
            ChainModel(
                base=(0.0, 0.0, 0.0),
                base_direction=(2.0, 0.0, 0.0),
                links=[(1.0, 0.02)] * 2,
                limits=[UNLIMITED] * 2,
            )

    def test_base_direction_not_along_world_up(self):
        with pytest.raises(ValueError, match="collinear"):
            ChainModel(
                base=(0.0, 0.0, 0.0),
                base_direction=(0.0, 0.0, 1.0),
                links=[(1.0, 0.02)] * 2,
                limits=[UNLIMITED] * 2,
            )

    def test_nonpositive_length_rejected(self):
        with pytest.raises(ValueError, match="length"):
            ChainModel(
                base=(0.0, 0.0, 0.0),
                base_direction=(1.0, 0.0, 0.0),
                links=[(1.0, 0.02), (0.0, 0.02)],
                limits=[UNLIMITED] * 2,
            )

    def test_bad_joint_limits_rejected(self):
        with pytest.raises(ValueError, match="pitch limits"):
            JointLimits(0.5, -0.5, -1.0, 1.0)

    def test_custom_world_up_frame(self):
        model = ChainModel(
            base=(0.0, 0.0, 0.0),
            base_direction=(0.0, 0.0, 1.0),
            links=[(1.0, 0.02)] * 2,
            limits=[UNLIMITED] * 2,
            world_up=(1.0, 0.0, 0.0),
        )
        f, u = model.base_frame()
        np.testing.assert_allclose(f, [0.0, 0.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(u, [1.0, 0.0, 0.0], atol=1e-15)


class TestChainState:
    def test_state_from_angles_is_consistent(self):
        model = straight_chain(4)
        rng = np.random.default_rng(11)
        angles = np.column_stack([rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4)])
        state = state_from_angles(model, angles)
        state.validate(model)

    def test_validate_catches_tampered_positions(self):
        model = straight_chain(4)
        state = state_from_angles(model, np.zeros((4, 2)))
        state.positions[2] += np.array([0.0, 1e-6, 0.0])
        with pytest.raises(InconsistentPositions):
            state.validate(model)

    def test_validate_catches_moved_base(self):
        model = straight_chain(4)
        state = state_from_angles(model, np.zeros((4, 2)))
        state.positions += np.array([1e-3, 0.0, 0.0])
        with pytest.raises(InconsistentPositions):
            state.validate(model)

    def test_validate_rejects_nan_positions(self):
        model = straight_chain(4)
        state = state_from_angles(model, np.zeros((4, 2)))
        state.positions[2, 1] = np.nan
        with pytest.raises(InconsistentPositions):
            state.validate(model)

    def test_validate_rejects_nan_angles(self):
        model = straight_chain(4)
        state = state_from_angles(model, np.zeros((4, 2)))
        state.angles[1, 0] = np.nan
        with pytest.raises(InconsistentPositions):
            state.validate(model)

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_validate_rejects_infinite_angles(self, value):
        model = straight_chain(4)
        state = state_from_angles(model, np.zeros((4, 2)))
        state.angles[2, 1] = value
        with pytest.raises(InconsistentPositions, match="finite"):
            state.validate(model)

    def test_copy_is_independent(self):
        model = straight_chain(3)
        state = state_from_angles(model, np.zeros((3, 2)))
        clone = state.copy()
        clone.positions[1, 0] = 99.0
        assert state.positions[1, 0] != 99.0

    def test_link_capsules_cover_links(self):
        model = straight_chain(3, thickness=0.05)
        state = state_from_angles(model, np.zeros((3, 2)))
        caps = link_capsules(model, state)
        assert len(caps) == 3
        assert caps[0].radius == 0.05
        np.testing.assert_allclose(caps[1].axis.a, state.positions[1], atol=1e-15)

    def test_joint_frames_align_with_links(self):
        model = straight_chain(4)
        rng = np.random.default_rng(5)
        angles = np.column_stack([rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4)])
        state = state_from_angles(model, angles)
        frames = joint_frames(model, angles)
        assert len(frames) == 4
        # frame j's forward is link j-1's direction
        for j in range(1, 4):
            d = state.positions[j] - state.positions[j - 1]
            d /= np.linalg.norm(d)
            assert np.linalg.norm(frames[j].forward - d) < 1e-12
