"""Planner tests: the angle chooser's safe region, virtual self-spheres
and rasterization, checked on the chooser plan() runs, and the outer
goal-stepping loop."""

import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

import vofabrik.planner
from chooser_oracle import ChooserCase
from chooser_reference import ReferenceNarrowPhase
from clearance_oracle import scalar_min_clearance
from vofabrik.chain import (
    ChainModel,
    JointAngles,
    JointLimits,
    LinkSpec,
    angles_from_direction,
    joint_frames,
    state_from_angles,
)
from vofabrik.fabrik import FabrikConfig, Phase, solve
from vofabrik.geometry import DegenerateSegment
from vofabrik.harness import load_scenario, scenario_path
from vofabrik.planner import (
    ConeConstraints,
    InitialStateInCollision,
    PlannerConfig,
    PlanStatus,
    SafeSetEmpty,
    SweepOrderError,
    ik_phase,
    min_clearance,
    plan,
)
from vofabrik.velocity_obstacles import SphereObstacle


def make_chain(n, length=0.1, thickness=0.01, limit=None):
    """thickness is one value or one per link."""
    limits = [limit or JointLimits.unlimited()] * n
    return ChainModel(
        base=np.zeros(3),
        base_direction=np.array([1.0, 0.0, 0.0]),
        links=[LinkSpec(length, float(t)) for t in np.broadcast_to(thickness, n)],
        limits=limits,
    )


def snake_chain(n=19, length=0.08, thickness=0.012, swing=1.2):
    """Alternating single-axis joints, a free first joint."""
    limits = [JointLimits.symmetric(1.4, 1.4)]
    for i in range(1, n):
        if i % 2 == 1:
            limits.append(JointLimits(-swing, swing, 0.0, 0.0))
        else:
            limits.append(JointLimits(0.0, 0.0, -swing, swing))
    return ChainModel(
        base=np.zeros(3),
        base_direction=np.array([1.0, 0.0, 0.0]),
        links=[LinkSpec(length, thickness)] * n,
        limits=limits,
    )


# every direction once: the chooser's windows assume |pitch| <= pi/2
FREE = JointLimits(-math.pi / 2, math.pi / 2, -math.pi, math.pi)


def sphere_toward(distance, pitch, yaw, radius):
    """Obstacle at `distance` from the origin along (pitch, yaw) of the
    base frame (forward +x, up +z)."""
    direction = [
        math.cos(pitch) * math.cos(yaw),
        math.cos(pitch) * math.sin(yaw),
        math.sin(pitch),
    ]
    return SphereObstacle(distance * np.array(direction), radius)


def two_link(limit=FREE):
    """Two straight 0.1 m links along +x, pivoting at the origin."""
    model = make_chain(2, limit=limit)
    return model, state_from_angles(model, np.zeros((2, 2)))


def folded_chain(thickness=0.01, limit=FREE):
    """Six 0.1 m links folded back on themselves in the xy-plane: links 0-1
    run along +x to (0.2, 0), link 2 along +y, links 3-5 back along -x at
    y = 0.1, ending at (-0.1, 0.1)."""
    model = make_chain(6, thickness=thickness, limit=limit)
    angles = np.zeros((6, 2))
    angles[2, 1] = angles[3, 1] = math.pi / 2
    return model, state_from_angles(model, angles)


def choose(model, obstacles, phase, joint, desired, state=None):
    """One chooser visit at `joint`, the sweep started as fabrik.solve does."""
    if state is None:
        state = state_from_angles(model, np.zeros((model.n_links, 2)))
    case = ChooserCase(model, state, obstacles, phase, joint, PlannerConfig())
    return tuple(float(v) for v in case.choose([desired[0]], [desired[1]])[0])


def aim(model, state, phase, joint, link_direction):
    """Desired angles that point the link at `joint` along link_direction,
    away from its pivot (the backward phase reverses the chosen direction)."""
    d = np.asarray(link_direction, dtype=float)
    d = d / np.linalg.norm(d)
    if phase is Phase.BACKWARD:
        d = -d
    return tuple(angles_from_direction(joint_frames(model, state.angles)[joint], d))


class TestAngularRegion:
    """The safe (pitch, yaw) region the planner's chooser picks from."""

    def test_desired_inside_returned_unchanged(self):
        model = make_chain(2)
        obstacle = SphereObstacle(np.array([0.08, 0.02, 0.0]), 0.02)
        got = choose(model, [obstacle], Phase.FORWARD, 0, (0.3, -0.7))
        assert got == (0.3, -0.7)

    def test_nearest_point_on_cut_rectangle(self):
        # a sphere dead ahead cuts a pitch band out of [-1, 1] x [0, 0];
        # desired (0.1, 0) inside the band projects straight up in pitch to
        # the band's upper edge
        model = make_chain(2, limit=JointLimits(-1.0, 1.0, 0.0, 0.0))
        obstacle = SphereObstacle(np.array([0.08, 0.0, 0.0]), 0.02)
        got = choose(model, [obstacle], Phase.FORWARD, 0, (0.1, 0.0))
        assert got[1] == 0.0 and got[0] > 0.1
        assert choose(model, [obstacle], Phase.FORWARD, 0, got) == got
        inside = (got[0] - 0.25 * PlannerConfig().angular_resolution, 0.0)
        assert choose(model, [obstacle], Phase.FORWARD, 0, inside) != inside

    def test_empty_region_raises(self):
        # yaw hemmed to +/-0.05 rad with a sphere on the link's tip
        model = make_chain(2, limit=JointLimits(0.0, 0.0, -0.05, 0.05))
        obstacle = SphereObstacle(np.array([0.1, 0.0, 0.0]), 0.04)
        with pytest.raises(SafeSetEmpty) as err:
            choose(model, [obstacle], Phase.FORWARD, 0, (0.0, 0.0))
        assert err.value.joint == 0
        assert err.value.phase is Phase.FORWARD

    def test_tie_breaks_prefer_smaller_pitch_then_yaw(self):
        # a sphere dead ahead forbids a band symmetric about the desired
        # angle, so both band edges are equally near
        obstacle = SphereObstacle(np.array([0.08, 0.0, 0.0]), 0.02)
        for limit, axis in (
            (JointLimits(-1.0, 1.0, 0.0, 0.0), 0),
            (JointLimits(0.0, 0.0, -1.0, 1.0), 1),
        ):
            model = make_chain(2, limit=limit)
            got = choose(model, [obstacle], Phase.FORWARD, 0, (0.0, 0.0))
            assert got[axis] < 0.0 and got[1 - axis] == 0.0
            mirrored = (-got[0] + 0.0, -got[1] + 0.0)
            assert choose(model, [obstacle], Phase.FORWARD, 0, mirrored) == mirrored

    def test_zero_width_rectangle_is_usable(self):
        model = make_chain(2, limit=JointLimits(0.0, 0.0, -1.0, 1.0))
        far = SphereObstacle(np.array([5.0, 0.0, 0.0]), 0.02)
        assert choose(model, [far], Phase.FORWARD, 0, (0.4, 0.2)) == (0.0, 0.2)
        ahead = SphereObstacle(np.array([0.08, 0.0, 0.0]), 0.02)
        got = choose(model, [ahead], Phase.FORWARD, 0, (0.4, 0.2))
        assert got[0] == 0.0 and got[1] > 0.2


class TestVirtualObstacles:
    """The chooser's virtual self-spheres: the closest point to the pivot of
    each link the sweep has not visited yet, other than the neighbour."""

    def test_backward_uses_links_toward_base_only(self):
        model, state = folded_chain()
        # joint 4 pivots at (0, 0.1): pointing -y it would reach link 0
        down = aim(model, state, Phase.BACKWARD, 4, (0.0, -1.0, 0.0))
        assert choose(model, [], Phase.BACKWARD, 4, down, state) != down
        # joint 2 pivots at (0.2, 0.1): pointing -x it would reach link 4,
        # which the backward sweep has already placed
        back = aim(model, state, Phase.BACKWARD, 2, (-1.0, 0.0, 0.0))
        assert choose(model, [], Phase.BACKWARD, 2, back, state) == back

    def test_forward_uses_links_toward_tip_only(self):
        model, state = folded_chain()
        # joint 1 pivots at (0.1, 0): pointing +y it would reach link 3
        up = aim(model, state, Phase.FORWARD, 1, (0.0, 1.0, 0.0))
        assert choose(model, [], Phase.FORWARD, 1, up, state) != up
        # joint 3 pivots at (0.2, 0.1): pointing -y it would reach link 1,
        # which the forward sweep has already placed
        down = aim(model, state, Phase.FORWARD, 3, (0.0, -1.0, 0.0))
        assert choose(model, [], Phase.FORWARD, 3, down, state) == down

    def test_adjacent_links_never_appear(self):
        # on a straight chain only the neighbours come within reach; as
        # spheres they would forbid the straight pose
        model = make_chain(5)
        for phase in (Phase.BACKWARD, Phase.FORWARD):
            for k in range(5):
                assert choose(model, [], phase, k, (0.0, 0.0)) == (0.0, 0.0)

    def test_sphere_sits_at_closest_point_with_link_thickness(self):
        model, state = folded_chain()
        res = PlannerConfig().angular_resolution
        for phase, joint in ((Phase.BACKWARD, 4), (Phase.FORWARD, 1)):
            case = ChooserCase(model, state, [], phase, joint, PlannerConfig())
            yaw = np.linspace(-math.pi, math.pi, 1201)
            pitch = np.zeros_like(yaw)
            picks = case.choose(pitch, yaw)
            moved = (picks[:, 0] != pitch) | (picks[:, 1] != yaw)
            gap = case.clearance(pitch, yaw)
            assert (gap <= 0.0).sum() >= 50, (phase, joint)
            assert np.all(moved[gap <= 0.0]), (phase, joint)
            assert np.all(gap[moved] <= 1.5 * res * case.length), (phase, joint)

    def test_zero_thickness_links_make_no_spheres(self):
        model, state = folded_chain(thickness=0.0)
        down = aim(model, state, Phase.BACKWARD, 4, (0.0, -1.0, 0.0))
        assert choose(model, [], Phase.BACKWARD, 4, down, state) == down


# Chooser visits with no dense oracle before: name -> (chain and pose,
# obstacles, phase, joint, pitch and yaw range sampled most densely). Yaw
# ranges past +/-pi wrap around.
CHOOSER_CASES = {
    "beside": (
        lambda: two_link(JointLimits.symmetric(math.pi / 2, math.pi / 2)),
        [SphereObstacle(np.array([0.08, 0.02, 0.0]), 0.02)],
        Phase.FORWARD, 0, (-0.8, 0.8), (-0.6, 1.0),
    ),
    "yaw_wrap": (
        two_link,
        [sphere_toward(0.08, 0.1, math.pi - 0.1, 0.02)],
        Phase.FORWARD, 0, (-0.8, 1.0), (math.pi - 1.0, math.pi + 0.8),
    ),
    # pitch reaches past pi/2, where the window's cosine turns negative and
    # only the pole branch (every yaw) marks cells
    "pole": (
        lambda: two_link(JointLimits(-math.pi / 2, 2.0, -math.pi, math.pi)),
        [sphere_toward(0.08, math.pi / 2, 0.0, 0.02)],
        Phase.FORWARD, 0, (0.6, 2.0), (-math.pi, math.pi),
    ),
    "widened_yaw": (
        two_link,
        [sphere_toward(0.08, 1.0, 0.3, 0.02)],
        Phase.FORWARD, 0, (0.4, 1.57), (-1.0, 1.6),
    ),
    "backward": (
        two_link,
        [SphereObstacle(np.array([0.12, 0.03, 0.01]), 0.02)],
        Phase.BACKWARD, 1, (-0.9, 0.7), (-1.2, 0.5),
    ),
    "two_spheres": (
        two_link,
        [sphere_toward(0.08, 0.2, 0.5, 0.02), sphere_toward(0.07, -0.3, -0.4, 0.015)],
        Phase.FORWARD, 0, (-0.9, 0.9), (-1.2, 1.3),
    ),
    "self_backward": (folded_chain, [], Phase.BACKWARD, 4, (-0.4, 0.4), (-2.2, -0.2)),
    "self_forward": (folded_chain, [], Phase.FORWARD, 1, (-0.4, 0.4), (0.6, 3.0)),
    # link 0 has no thickness but link 4 has: link 0 is still a virtual
    # sphere, of radius 0, and pointing at its end collides
    "self_thin_source": (
        lambda: folded_chain([0.0, 0.01, 0.01, 0.01, 0.01, 0.01]),
        [], Phase.BACKWARD, 4, (-0.3, 0.3), (-1.9, -1.2),
    ),
    # pitch limits past +-pi/2: (+-pi - pitch, yaw + pi) aims the link as
    # (pitch, yaw) does, so pitch near +-pi collides where pitch near 0 does
    "mirror_forward": (
        lambda: folded_chain(limit=JointLimits.unlimited()),
        [], Phase.FORWARD, 1, (2.6, math.pi), (-2.1, -1.0),
    ),
    "mirror_backward": (
        lambda: folded_chain(limit=JointLimits.unlimited()),
        [], Phase.BACKWARD, 4, (-math.pi, -2.6), (1.0, 2.1),
    ),
}


@pytest.fixture(scope="module")
def chooser_samples():
    """Per case: the oracle, desired samples, the chooser's picks, which
    samples it moved, and each sample's true clearance."""
    cfg = PlannerConfig()
    rng = np.random.default_rng(2024)
    out = {}
    for name, (build, obstacles, phase, joint, pitch_range, yaw_range) in CHOOSER_CASES.items():
        model, state = build()
        lim = model.limits[joint]
        pitch = np.concatenate(
            [rng.uniform(*pitch_range, 600), rng.uniform(lim.pitch_min, lim.pitch_max, 200)]
        )
        yaw = np.concatenate(
            [rng.uniform(*yaw_range, 600), rng.uniform(lim.yaw_min, lim.yaw_max, 200)]
        )
        yaw = (yaw + math.pi) % (2.0 * math.pi) - math.pi
        case = ChooserCase(model, state, obstacles, phase, joint, cfg)
        picks = case.choose(pitch, yaw)
        out[name] = SimpleNamespace(
            case=case,
            pitch=pitch,
            yaw=yaw,
            picks=picks,
            moved=(picks[:, 0] != pitch) | (picks[:, 1] != yaw),
            gap=case.clearance(pitch, yaw),
        )
    return out


class TestConeConstraints:
    """Dense oracle for ConeConstraints, the chooser plan() runs: samples
    of desired angles against margin-inclusive truth (see chooser_oracle)."""

    res = PlannerConfig().angular_resolution

    def test_forbidden_region_covers_exact_collisions(self, chooser_samples):
        for name, s in chooser_samples.items():
            colliding = s.gap <= 0.0
            assert colliding.sum() >= 50 and (~colliding).sum() >= 50, name
            assert np.all(s.moved[colliding]), name

    def test_forbidden_region_grows_with_radius(self):
        model, state = two_link(JointLimits.symmetric(math.pi / 2, math.pi / 2))
        rng = np.random.default_rng(3)
        pitch, yaw = rng.uniform(-0.8, 0.8, 600), rng.uniform(-0.6, 1.0, 600)
        moved = []
        for radius in (0.015, 0.03):
            obstacle = SphereObstacle(np.array([0.08, 0.02, 0.0]), radius)
            case = ChooserCase(model, state, [obstacle], Phase.FORWARD, 0, PlannerConfig())
            picks = case.choose(pitch, yaw)
            moved.append((picks[:, 0] != pitch) | (picks[:, 1] != yaw))
        small, large = moved
        assert small.any() and np.all(large[small])

    def test_far_obstacle_forbids_nothing(self):
        model, state = two_link(JointLimits.symmetric(math.pi / 2, math.pi / 2))
        far = SphereObstacle(np.array([5.0, 0.0, 0.0]), 0.02)
        case = ChooserCase(model, state, [far], Phase.FORWARD, 0, PlannerConfig())
        rng = np.random.default_rng(5)
        pitch, yaw = rng.uniform(-1.5, 1.5, 200), rng.uniform(-1.5, 1.5, 200)
        assert np.array_equal(case.choose(pitch, yaw), np.column_stack([pitch, yaw]))

    def test_overshoot_stays_near_true_boundary(self, chooser_samples):
        # a moved sample sits in a forbidden cell, whose center is within
        # touch + lip of a sphere; the sample is within half a cell
        # diagonal of that center, so within 1.5 cells of tip travel
        for name, s in chooser_samples.items():
            slack = 1.5 * self.res * s.case.length
            assert np.all(s.gap[s.moved] <= slack), (name, s.gap[s.moved].max() / slack)

    def test_nearest_safe_pick_is_clear_and_near(self, chooser_samples):
        # every pick is truly clear, and no farther from the desired angles
        # than the nearest sample the chooser left alone, plus one cell
        for name, s in chooser_samples.items():
            picks = s.picks[s.moved]
            assert np.all(s.case.clearance(picks[:, 0], picks[:, 1]) > 0.0), name
            kept_p, kept_y = s.pitch[~s.moved], s.yaw[~s.moved]
            for (p, y), (cp, cy) in zip(
                zip(s.pitch[s.moved], s.yaw[s.moved]), picks
            ):
                nearest = float(np.min(np.hypot(kept_p - p, kept_y - y)))
                assert math.hypot(cp - p, cy - y) <= nearest + self.res, (name, p, y)


class TestIkPhase:
    def test_reaches_target_while_clearing_obstacle(self):
        model = make_chain(3, length=0.1, thickness=0.01)
        state = state_from_angles(model, np.zeros((3, 2)))
        target = np.array([0.2, 0.12, 0.0])
        obstacle = SphereObstacle(np.array([0.16, 0.05, 0.0]), 0.03)
        cfg = PlannerConfig(ik=FabrikConfig(epsilon=1e-3, max_iterations=200))
        out = ik_phase(model, state, target, [obstacle], cfg)
        clearance = min_clearance(model, out.state.positions, [obstacle])
        assert clearance > 0.0
        plain = solve(model, state, target, cfg.ik)
        plain_clear = min_clearance(model, plain.state.positions, [obstacle])
        assert clearance > plain_clear

    def test_no_obstacles_matches_plain_solver_exactly(self):
        model = make_chain(5, thickness=0.0)
        state = state_from_angles(model, np.zeros((5, 2)))
        target = np.array([0.3, 0.2, 0.1])
        cfg = PlannerConfig()
        constrained = ik_phase(model, state, target, [], cfg)
        plain = solve(model, state, target, cfg.ik)
        assert constrained.iterations == plain.iterations
        assert np.array_equal(constrained.state.positions, plain.state.positions)
        assert np.array_equal(constrained.state.angles, plain.state.angles)

    def test_blocked_corridor_raises_safe_set_empty(self):
        # yaw hemmed to +/-0.05 rad and a sphere squatting on the only
        # corridor the tip link may occupy: every cell is forbidden
        model = make_chain(2, length=0.1, thickness=0.01, limit=JointLimits(0.0, 0.0, -0.05, 0.05))
        state = state_from_angles(model, np.zeros((2, 2)))
        obstacle = SphereObstacle(np.array([0.1, 0.0, 0.0]), 0.04)
        with pytest.raises(SafeSetEmpty) as err:
            ik_phase(model, state, np.array([0.2, 0.02, 0.0]), [obstacle], PlannerConfig())
        assert err.value.joint == 1
        assert err.value.phase is Phase.BACKWARD


class TestPlan:
    def test_reaches_goal_in_open_space(self):
        model = make_chain(6)
        state = state_from_angles(model, np.zeros((6, 2)))
        goal = np.array([0.35, 0.25, 0.1])
        out = plan(model, state, goal, [], PlannerConfig())
        assert out.status is PlanStatus.GOAL_REACHED
        err = np.linalg.norm(out.trajectory[-1].end_effector - goal)
        assert err <= PlannerConfig().goal_tolerance
        assert len(out.per_step_metrics) == len(out.trajectory) - 1

    def test_open_space_path_tracks_the_chord(self):
        model = make_chain(6, thickness=0.0)
        state = state_from_angles(model, np.zeros((6, 2)))
        start = state.end_effector.copy()
        goal = np.array([0.3, 0.3, 0.0])
        out = plan(model, state, goal, [], PlannerConfig())
        assert out.status is PlanStatus.GOAL_REACHED
        chord = goal - start
        chord /= np.linalg.norm(chord)
        for st in out.trajectory[1:]:
            off = st.end_effector - start
            cross_track = np.linalg.norm(off - np.dot(off, chord) * chord)
            assert cross_track < 2e-3

    def test_solver_paths_identical_without_obstacles(self):
        rng = np.random.default_rng(11)
        for _ in range(3):
            n = int(rng.integers(4, 9))
            model = make_chain(n, thickness=0.0)
            angles = np.zeros((n, 2))
            state = state_from_angles(model, angles)
            radius = 0.8 * model.total_length
            goal = rng.normal(size=3)
            goal = goal / np.linalg.norm(goal) * radius * 0.5
            a = plan(model, state, goal, [], solver="vofabrik")
            b = plan(model, state, goal, [], solver="fabrik")
            assert a.status == b.status
            assert len(a.trajectory) == len(b.trajectory)
            for sa, sb in zip(a.trajectory, b.trajectory):
                assert np.array_equal(sa.positions, sb.positions)
                assert np.array_equal(sa.angles, sb.angles)

    def test_avoids_blocking_obstacle_baseline_does_not(self):
        model = make_chain(6)
        state = state_from_angles(model, np.zeros((6, 2)))
        goal = np.array([0.25, 0.3, 0.0])
        obstacles = [SphereObstacle(np.array([0.3, 0.15, 0.0]), 0.05)]
        avoid = plan(model, state, goal, obstacles, solver="vofabrik")
        assert avoid.status is PlanStatus.GOAL_REACHED
        assert min(m.min_clearance for m in avoid.per_step_metrics) > 0.0
        through = plan(model, state, goal, obstacles, solver="fabrik")
        assert min(m.min_clearance for m in through.per_step_metrics) < 0.0

    def test_goal_at_entry_returns_single_zero_step(self):
        model = make_chain(4)
        state = state_from_angles(model, np.zeros((4, 2)))
        out = plan(model, state, state.end_effector.copy(), [], PlannerConfig())
        assert out.status is PlanStatus.GOAL_REACHED
        assert len(out.trajectory) == 2
        assert len(out.per_step_metrics) == 1
        assert np.array_equal(out.trajectory[0].angles, out.trajectory[1].angles)
        assert np.array_equal(out.trajectory[0].positions, out.trajectory[1].positions)

    def test_unreachable_goal_stalls(self):
        model = make_chain(3)
        state = state_from_angles(model, np.zeros((3, 2)))
        goal = np.array([1.0, 0.0, 0.0])  # over 3x the reach
        out = plan(model, state, goal, [], PlannerConfig(max_steps=200))
        assert out.status is PlanStatus.STALLED

    def test_step_limit_reported(self):
        model = make_chain(6)
        state = state_from_angles(model, np.zeros((6, 2)))
        goal = np.array([0.0, 0.45, 0.0])
        out = plan(model, state, goal, [], PlannerConfig(max_steps=3))
        assert out.status is PlanStatus.STEP_LIMIT
        assert len(out.trajectory) == 4

    def test_initial_collision_rejected(self):
        model = make_chain(4)
        state = state_from_angles(model, np.zeros((4, 2)))
        obstacles = [SphereObstacle(np.array([0.2, 0.0, 0.0]), 0.05)]
        with pytest.raises(InitialStateInCollision):
            plan(model, state, np.array([0.3, 0.1, 0.0]), obstacles)

    def test_fast_incoming_obstacle_blocks_every_velocity(self):
        model = make_chain(3)
        state = state_from_angles(model, np.zeros((3, 2)))
        goal = np.array([0.35, 0.1, 0.0])
        # large sphere far ahead, closing fast: every end-effector
        # velocity at planning speed leads to contact within the horizon
        obstacles = [
            SphereObstacle(
                np.array([1.5, 0.0, 0.0]), 0.5, velocity=np.array([-5.0, 0.0, 0.0])
            )
        ]
        out = plan(model, state, goal, obstacles, PlannerConfig())
        assert out.status is PlanStatus.NO_ADMISSIBLE_VELOCITY
        assert len(out.trajectory) == 1

    def test_rerun_is_bit_identical(self):
        model = snake_chain(n=9)
        state = state_from_angles(model, np.zeros((9, 2)))
        goal = np.array([0.4, 0.3, 0.05])
        obstacles = [SphereObstacle(np.array([0.35, 0.12, 0.0]), 0.05)]
        a = plan(model, state, goal, obstacles)
        b = plan(model, state, goal, obstacles)
        assert a.status == b.status
        assert len(a.trajectory) == len(b.trajectory)
        for sa, sb in zip(a.trajectory, b.trajectory):
            assert np.array_equal(sa.positions, sb.positions)
            assert np.array_equal(sa.angles, sb.angles)
        for ma, mb in zip(a.per_step_metrics, b.per_step_metrics):
            assert ma.min_clearance == mb.min_clearance

    def test_every_trajectory_state_is_consistent_and_within_limits(self):
        model = snake_chain(n=9)
        state = state_from_angles(model, np.zeros((9, 2)))
        goal = np.array([0.4, 0.3, 0.05])
        obstacles = [SphereObstacle(np.array([0.35, 0.12, 0.0]), 0.05)]
        out = plan(model, state, goal, obstacles)
        assert out.status is PlanStatus.GOAL_REACHED
        for st in out.trajectory:
            st.validate(model)
            for k, lim in enumerate(model.limits):
                assert lim.contains(st.angles[k, 0], st.angles[k, 1], tol=1e-9)

    def test_unknown_solver_rejected(self):
        model = make_chain(3)
        state = state_from_angles(model, np.zeros((3, 2)))
        with pytest.raises(ValueError):
            plan(model, state, np.array([0.2, 0.0, 0.0]), [], solver="rrt")


class TestMinClearance:
    def test_straight_chain_vs_offset_sphere(self):
        model = make_chain(3, length=0.1, thickness=0.01)
        state = state_from_angles(model, np.zeros((3, 2)))
        obstacle = SphereObstacle(np.array([0.15, 0.1, 0.0]), 0.04)
        got = min_clearance(model, state.positions, [obstacle])
        assert got == pytest.approx(0.1 - 0.01 - 0.04, abs=1e-12)

    def test_no_obstacles_reports_self_clearance_only(self):
        model = make_chain(4, length=0.1, thickness=0.01)
        angles = np.zeros((4, 2))
        angles[1, 1] = math.pi / 2
        angles[2, 1] = math.pi / 2
        state = state_from_angles(model, angles)
        # link 3 runs antiparallel to link 0 at 0.1 offset
        got = min_clearance(model, state.positions, [])
        assert got == pytest.approx(0.1 - 0.02, abs=1e-9)

    def test_batched_kernel_equals_scalar_on_random_chains(self):
        # every non-adjacent pair alone as links 0 and 2 of a three-link
        # polyline, then each whole chain with obstacles, compared with ==;
        # min_clearance reads only the thicknesses of the model, so random
        # link lengths need not match it
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(3, 20))
            steps = rng.normal(size=(n, 3))
            steps *= rng.uniform(0.02, 0.12, size=(n, 1)) / np.linalg.norm(steps, axis=1)[:, None]
            p = np.vstack([np.zeros(3), np.cumsum(steps, axis=0)])
            model = make_chain(n, thickness=rng.uniform(0.0, 0.015, size=n))
            obstacles = [
                SphereObstacle(rng.normal(scale=0.2, size=3), float(r))
                for r in rng.uniform(0.01, 0.05, size=int(rng.integers(0, 13)))
            ]
            for positions, obs in ((p, []), (p, obstacles)):
                got = min_clearance(model, positions, obs)
                assert got == scalar_min_clearance(model, positions, obs)
            pair_model = make_chain(3, thickness=0.0)
            for i in range(n):
                for j in range(i + 2, n):
                    q = np.array([p[i], p[i + 1], p[j], p[j + 1]])
                    assert min_clearance(pair_model, q, []) == scalar_min_clearance(pair_model, q, []), (i, j)

    def test_batched_kernel_equals_scalar_on_constructed_pairs(self):
        # links 0 and 2 of a three-link polyline [a1, b1, a2, b2]
        rng = np.random.default_rng(8)
        model = make_chain(3, thickness=0.0)
        cases = []
        for _ in range(150):
            a, b, c = rng.normal(scale=0.1, size=(3, 3))
            d = b - a
            s, t = rng.uniform(-1.5, 1.5, size=2)
            cases += [
                (a, b, a + c, a + c + s * d),  # parallel, offset
                (a, b, a + s * d, a + (s + 0.3 + abs(t)) * d),  # collinear
                (a, b, b + c, a),  # link 2 ends where link 0 starts
                (a, b, c, b),  # link 2 ends where link 0 ends
                (a, b, a, c),  # both start at one point: keys tie on x, y, z
                (a, b, np.array([a[0], a[1], c[2]]), c),  # keys tie on x and y
                (a, b, np.array([a[0], c[1], c[2]]), b + c),  # keys tie on x
            ]
        for q in cases:
            q = np.array(q)
            assert min_clearance(model, q, []) == scalar_min_clearance(model, q, []), q

    def test_bad_positions_raise_typed_errors_like_scalar_path(self):
        model = make_chain(4)
        p = state_from_angles(model, np.zeros((4, 2))).positions
        degenerate = p.copy()
        degenerate[2] = degenerate[1]
        nan = p.copy()
        nan[3, 1] = np.nan
        for positions, error in ((degenerate, DegenerateSegment), (nan, ValueError)):
            for clearance in (min_clearance, scalar_min_clearance):
                with pytest.raises(error):
                    clearance(model, positions, [])


def fma(x, y, z):
    """x * y + z rounded once, as a fused multiply-add."""
    return float(Fraction(x) * Fraction(y) + Fraction(z))


class TestFloatFacts:
    """The rounding facts that keep the chooser's narrow phase bit-equal to
    its numpy reference. A numpy build that breaks one fails here first,
    with the reason, before the golden digests move."""

    def test_einsum_rows_of_three_sum_middle_term_last(self):
        rng = np.random.default_rng(11)
        for rows in range(1, 31):
            x, y = rng.normal(size=(2, rows, 3))
            got = np.einsum("ij,ij->i", x, y).tolist()
            for g, (x0, x1, x2), (y0, y1, y2) in zip(got, x.tolist(), y.tolist()):
                assert g == (x0 * y0 + x2 * y2) + x1 * y1, (
                    "einsum no longer sums a row of three as (x0*y0 + x2*y2) + x1*y1, "
                    "the order ConeConstraints._touch_spheres repeats in plain floats"
                )

    def test_numpy_dot_products_are_fused(self):
        rng = np.random.default_rng(12)
        samples = plain = 0
        for _ in range(400):
            x, y = rng.normal(size=(2, 3))
            (x0, x1, x2), (y0, y1, y2) = x.tolist(), y.tolist()
            want = fma(x2, y2, fma(x1, y1, x0 * y0))
            triad = np.array([y, x, rng.normal(size=3)])
            got = (
                float(np.dot(x, y)),
                float(x @ y),
                float(np.vecdot(x, y)),
                float(np.vecdot(x[None, None, :], triad)[0, 0]),
                float(np.vecdot(np.array([x, x]), y)[1]),
            )
            assert got == (want,) * 5, (
                "np.dot, @ and np.vecdot must all compute fma(x2,y2, fma(x1,y1, x0*y0)): "
                "ConeConstraints._rasterize uses np.vecdot where its numpy reference "
                "uses np.dot and np.linalg.norm"
            )
            assert float(np.linalg.norm(x)) == math.sqrt(fma(x2, x2, fma(x1, x1, x0 * x0)))
            plain += want != (x0 * y0 + x1 * y1) + x2 * y2
            samples += 1
        # why those products stay numpy: plain floats round differently
        assert 0 < plain < samples

    def test_grid_trig_tables_equal_trig_of_each_window(self):
        res = PlannerConfig().angular_resolution
        rng = np.random.default_rng(13)
        for lo, hi in ((-math.pi, math.pi), (-1.4, 1.4), (-math.pi / 2, 2.0), (0.0, 0.0)):
            edges, _, cos, sin = vofabrik.planner._axis_grid(lo, hi, res)
            centers = 0.5 * (edges[:-1] + edges[1:])
            assert not (cos.flags.writeable or sin.flags.writeable or edges.flags.writeable)
            for _ in range(200):
                i, j = sorted(rng.integers(0, len(centers) + 1, size=2))
                assert np.array_equal(cos[i:j], np.cos(centers[i:j])) and np.array_equal(
                    sin[i:j], np.sin(centers[i:j])
                ), "np.cos / np.sin of a slice must equal the same slice of the whole table"


class CheckedChooser(ConeConstraints):
    """The planner's chooser, checking on every visit that its plain-float
    narrow phase gives the same spheres (==), the same inputs to each
    window's cell test (==, the trig tables against np.cos / np.sin of the
    window) and the same hit windows (array_equal) as the frozen numpy
    reference in chooser_reference, and that its grown-box search gives
    the same pick (==) as the reference's union box and outside regions."""

    visits = rejected = rasterized = outside = 0
    cell_tests = []

    @staticmethod
    def recording_hit_cells(*args, hit_cells=vofabrik.planner._hit_cells):
        """The planner's _hit_cells, recording its arguments."""
        CheckedChooser.cell_tests.append(args)
        return hit_cells(*args)

    def __init__(self, model, obstacles, cfg):
        super().__init__(model, obstacles, cfg)
        self.reference = ReferenceNarrowPhase(model, obstacles, cfg)

    def __call__(self, phase, joint, desired, limits, frame, pivot, positions):
        if joint == (self.model.n_links - 1 if phase is Phase.BACKWARD else 0):
            self.reference.enter_sweep(positions)
        self.positions = positions
        return super().__call__(phase, joint, desired, limits, frame, pivot, positions)

    def _touch_spheres(self, phase, joint, pivot):
        spheres = super()._touch_spheres(phase, joint, pivot)
        centers, touch = self.reference.touch_spheres(phase, joint, self.positions, pivot)
        expected = []
        if centers is not None:
            if phase is Phase.BACKWARD:
                centers = 2.0 * pivot - centers
            expected = [(*c, t) for c, t in zip(centers.tolist(), touch.tolist())]
        assert spheres == expected, (phase, joint)
        type(self).visits += 1
        type(self).rejected += not spheres
        return spheres

    def _rasterize(self, joint, frame, pivot, spheres):
        CheckedChooser.cell_tests.clear()
        hits = super()._rasterize(joint, frame, pivot, spheres)
        centers = np.array([s[:3] for s in spheres])
        touch = np.array([s[3] for s in spheres])
        want_tests = []
        expected = self.reference.rasterize(joint, frame, pivot, centers, touch, want_tests)
        assert len(CheckedChooser.cell_tests) == len(want_tests), joint
        for (cp, sp, cy, sy, *rest), (pitch, yaw, *want_rest) in zip(CheckedChooser.cell_tests, want_tests):
            assert rest == want_rest, joint
            for table, want in ((cp, np.cos(pitch)), (sp, np.sin(pitch)), (cy, np.cos(yaw)), (sy, np.sin(yaw))):
                assert np.array_equal(table, want), joint
        assert [h[:2] for h in hits] == [h[:2] for h in expected], joint
        for (_, _, hit), (_, _, want) in zip(hits, expected):
            assert np.array_equal(hit, want), joint
        type(self).rasterized += 1
        return hits

    def _nearest_safe(self, joint, limits, desired, hits):
        try:
            *want, outside = self.reference.nearest_safe(joint, limits, desired, hits)
        except SafeSetEmpty:
            with pytest.raises(SafeSetEmpty):
                super()._nearest_safe(joint, limits, desired, hits)
            raise
        got = super()._nearest_safe(joint, limits, desired, hits)
        assert got == tuple(want), (joint, desired)
        type(self).outside += outside
        return got


class TestBroadPhaseReject:
    """The chooser's plain-float narrow phase, which settles a visit with
    no sphere in reach before any array is built, against the frozen numpy
    reference on every visit of whole plans."""

    def run_checked(self, monkeypatch, model, state, goal, obstacles, cfg):
        """Share of the plan's visits that kept no sphere."""
        monkeypatch.setattr(vofabrik.planner, "ConeConstraints", CheckedChooser)
        monkeypatch.setattr(vofabrik.planner, "_hit_cells", CheckedChooser.recording_hit_cells)
        for counter in ("visits", "rejected", "rasterized", "outside"):
            monkeypatch.setattr(CheckedChooser, counter, 0)
        plan(model, state, goal, obstacles, cfg)
        assert CheckedChooser.visits > 0
        return CheckedChooser.rejected / CheckedChooser.visits

    @pytest.mark.parametrize("name", ["planar_2link", "planar_3link", "cavity_19dof_extended"])
    def test_reject_is_conservative_on_shipped_plans(self, monkeypatch, name):
        sc = load_scenario(scenario_path(name))
        share = self.run_checked(monkeypatch, sc.chain, sc.initial_state(), sc.goal, sc.obstacles, sc.planner)
        assert CheckedChooser.rasterized > 0
        if name == "cavity_19dof_extended":
            assert share > 0.5
        if name == "planar_2link":
            # the picks the reference found outside its union box, which
            # the grown box must find in its ring of cells
            assert CheckedChooser.outside > 0

    @pytest.mark.parametrize("thickness", [0.01, [0.0, 0.01, 0.01, 0.01, 0.01, 0.01]])
    def test_reject_is_conservative_on_folded_thick_chain(self, monkeypatch, thickness):
        # the fold keeps links within reach of one another, so some visits
        # keep spheres and some keep none
        model, state = folded_chain(thickness)
        obstacles = [SphereObstacle(np.array([0.05, 0.2, 0.0]), 0.03)]
        cfg = PlannerConfig(max_steps=5)
        share = self.run_checked(monkeypatch, model, state, np.array([0.0, 0.25, 0.05]), obstacles, cfg)
        assert 0.0 < share < 1.0

    @pytest.mark.parametrize("seed", range(4))
    def test_narrow_phase_matches_reference_on_seeded_snakes(self, monkeypatch, seed):
        # a random pose of a limited snake, with spheres strewn around it
        # but clear of it, stepping toward a random goal in reach
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 14))
        model = snake_chain(n=n, length=0.06, thickness=float(rng.uniform(0.004, 0.015)))
        angles = np.array([rng.uniform((l.pitch_min, l.yaw_min), (l.pitch_max, l.yaw_max)) for l in model.limits])
        state = state_from_angles(model, 0.5 * angles)
        while min_clearance(model, state.positions, []) <= 0.0:
            angles *= 0.5
            state = state_from_angles(model, 0.5 * angles)
        obstacles = []
        while len(obstacles) < 3:
            o = SphereObstacle(state.positions[int(rng.integers(1, n + 1))] + rng.normal(scale=0.06, size=3), 0.02)
            if min_clearance(model, state.positions, obstacles + [o]) > 0.01:
                obstacles.append(o)
        goal = state.positions[-1] + rng.normal(scale=0.05, size=3)
        self.run_checked(monkeypatch, model, state, goal, obstacles, PlannerConfig(max_steps=4))
        assert CheckedChooser.rasterized > 0

    def test_sweep_entered_midway_raises_typed_error(self):
        model, state = folded_chain()
        frames = joint_frames(model, state.angles)
        chooser = ConeConstraints(model, [], PlannerConfig())
        p = state.positions

        def visit(phase, joint):
            pivot = p[joint + 1] if phase is Phase.BACKWARD else p[joint]
            return chooser(
                phase, joint, JointAngles(*state.angles[joint]), model.limits[joint], frames[joint], pivot, p
            )

        with pytest.raises(SweepOrderError, match="must begin at joint 5"):
            visit(Phase.BACKWARD, 4)
        visit(Phase.BACKWARD, 5)
        visit(Phase.BACKWARD, 4)
        # a forward visit after a backward sweep needs its own start
        with pytest.raises(SweepOrderError, match="must begin at joint 0"):
            visit(Phase.FORWARD, 3)
        visit(Phase.FORWARD, 0)
        visit(Phase.FORWARD, 3)
