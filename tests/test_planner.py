"""Planner tests: the angle chooser's safe region, virtual self-spheres,
cell test and lazy search, checked on the chooser plan() runs, the outer
goal-stepping loop, and random small scenarios from load to validation."""

import collections
import dataclasses
import itertools
import math
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vofabrik.geometry
import vofabrik.planner
from chooser_oracle import ChooserCase, link_directions
from chooser_reference import ReferenceChooser, cell_d2
from clearance_oracle import scalar_min_clearance
from vofabrik.chain import (
    ChainModel,
    ChainState,
    JointAngles,
    JointFrame,
    JointLimits,
    LinkSpec,
    angles_from_direction,
    joint_frames,
    state_from_angles,
)
from vofabrik.fabrik import FabrikConfig, Phase, SafeSetEmpty, SolveStatus, clamp_to_limits, solve
from vofabrik.geometry import Capsule3, DegenerateSegment, Segment3, capsule_capsule_distance, capsule_sphere_distance
from vofabrik.harness import (
    ParseError,
    ValidationError,
    load_scenario,
    record_from_outcome,
    scenario_from_dict,
    scenario_path,
    validate_trajectory,
)
from vofabrik.planner import (
    ConeConstraints,
    InitialStateInCollision,
    PlannerConfig,
    PlanStatus,
    _end_effector_velocity,
    ik_phase,
    min_clearance,
    plan,
)
from vofabrik.velocity_obstacles import (
    AlreadyInCollision,
    NoAdmissibleVelocity,
    SphereObstacle,
    _cone,
    admissible_velocity,
    collision_cone,
)


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


# every direction once: pitch within +-pi/2, yaw all round
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
    """One chooser visit at `joint`, in a sweep started on the state's
    positions."""
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
        with pytest.raises(SafeSetEmpty):
            choose(model, [obstacle], Phase.FORWARD, 0, (0.0, 0.0))

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

    def test_tie_across_lines_prefers_smaller_pitch(self):
        # equal, symmetric pitch and yaw grids and a sphere dead ahead:
        # (0, -e) on the desired angles' own line and (-e, 0) on a line
        # farther out are equally near, so the search must not stop at a
        # line whose cross term only equals the best distance
        model = make_chain(2, limit=JointLimits.symmetric(math.radians(41.0), math.radians(41.0)))
        obstacle = SphereObstacle(np.array([0.065, 0.0, 0.0]), 0.02)
        got = choose(model, [obstacle], Phase.FORWARD, 0, (0.0, 0.0))
        assert got[0] < 0.0 and got[1] == 0.0
        swapped = (0.0, got[0])
        assert choose(model, [obstacle], Phase.FORWARD, 0, swapped) == swapped

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

    def test_sweeps_keep_their_own_links(self):
        # a forward sweep started on another pose between a backward
        # sweep's start and its visits leaves the backward picks alone
        model, state = folded_chain()
        angles = state.angles.copy()
        angles[0, 1] = 0.3
        turned = state_from_angles(model, angles)  # the same fold, turned about the base
        chooser = ConeConstraints(model, [], PlannerConfig())
        frames = joint_frames(model, state.angles)
        p = state.positions
        yaws = np.linspace(-math.pi, math.pi, 73).tolist()

        def picks(choose):
            return [
                choose(k, JointAngles(0.0, y), model.limits[k], frames[k], p[k + 1])
                for k in range(6)
                for y in yaws
            ]

        alone = picks(chooser(Phase.BACKWARD, p))
        backward = chooser(Phase.BACKWARD, p)
        chooser(Phase.FORWARD, turned.positions)
        assert picks(backward) == alone
        # the turned pose's links would move some picks
        assert picks(chooser(Phase.BACKWARD, turned.positions)) != alone

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
    # pitch reaches past pi/2, where cos(pitch) turns negative: a sphere
    # at the pole is hit at every yaw
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

    def test_blocked_corridor_ends_the_solve_blocked(self):
        # yaw hemmed to +/-0.05 rad and a sphere squatting on the only
        # corridor the tip link may occupy: every cell is forbidden in the
        # first sweep, so the solve returns the start state
        model = make_chain(2, length=0.1, thickness=0.01, limit=JointLimits(0.0, 0.0, -0.05, 0.05))
        state = state_from_angles(model, np.zeros((2, 2)))
        obstacle = SphereObstacle(np.array([0.1, 0.0, 0.0]), 0.04)
        target = np.array([0.2, 0.02, 0.0])
        out = ik_phase(model, state, target, [obstacle], PlannerConfig())
        assert out.status is SolveStatus.BLOCKED and out.iterations == 0
        assert np.array_equal(out.state.positions, state.positions)
        assert np.array_equal(out.state.angles, state.angles)
        assert out.residual == float(np.linalg.norm(state.positions[-1] - target))


class TestPlan:
    def test_a_plan_validates_its_start_once(self, monkeypatch):
        # each step solves from a state a solve returned, so a plan checks
        # only its start, however many steps it takes
        sc = load_scenario(scenario_path("planar_3link"))
        calls = []
        validate = ChainState.validate
        monkeypatch.setattr(ChainState, "validate", lambda state, model: calls.append(validate(state, model)))
        for max_steps in (1, 5):
            calls.clear()
            out = plan(sc.chain, sc.initial_state(), sc.goal, sc.obstacles, dataclasses.replace(sc.planner, max_steps=max_steps))
            assert len(out.per_step_metrics) == max_steps and len(calls) == 1

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
        # the baseline runs into the obstacle; plan stops before recording it
        assert through.status is PlanStatus.COLLISION
        assert min(m.min_clearance for m in through.per_step_metrics) > 0.0

    def test_goal_at_entry_returns_single_zero_step(self):
        model = make_chain(4)
        state = state_from_angles(model, np.zeros((4, 2)))
        out = plan(model, state, state.end_effector.copy(), [], PlannerConfig())
        assert out.status is PlanStatus.GOAL_REACHED
        assert len(out.trajectory) == 2
        assert len(out.per_step_metrics) == 1
        assert np.array_equal(out.trajectory[0].angles, out.trajectory[1].angles)
        assert np.array_equal(out.trajectory[0].positions, out.trajectory[1].positions)

    def test_blocked_corridor_stalls_the_plan(self):
        # the corridor of the blocked ik_phase, its sphere lifted to clear
        # the start by 0.5 mm: still within touch of every cell, so the
        # first solve is blocked and returns the start state after 0
        # iterations, and the plan records that step and stalls
        doc = {
            "schema_version": 1,
            "name": "corridor",
            "chain": {
                "base": [0.0, 0.0, 0.0],
                "base_direction": [1.0, 0.0, 0.0],
                "links": [{"length": 0.1, "thickness": 0.01}] * 2,
                "limits": [{"pitch": [0.0, 0.0], "yaw": [-0.05, 0.05]}] * 2,
            },
            "initial_angles": [[0.0, 0.0]] * 2,
            "goal": [0.15, 0.1, 0.0],
            "obstacles": [{"center": [0.1, 0.0, 0.0505], "radius": 0.04}],
        }
        scenario = scenario_from_dict(doc)
        state = scenario.initial_state()
        blocked = ik_phase(scenario.chain, state, np.array([0.2, 0.02, 0.0]), scenario.obstacles, scenario.planner)
        assert blocked.status is SolveStatus.BLOCKED and blocked.iterations == 0
        out = plan(scenario.chain, state, scenario.goal, scenario.obstacles, scenario.planner)
        assert out.status is PlanStatus.STALLED
        assert len(out.trajectory) == 2
        row = out.trajectory[1]
        assert np.array_equal(row.positions, state.positions) and np.array_equal(row.angles, state.angles)
        assert validate_trajectory(scenario.chain, record_from_outcome(scenario, out), scenario.obstacles) == []

    def test_solve_blocked_at_once_stalls_the_cavity_plan(self):
        # with 10 iterations per solve the plan's seventh solve is blocked
        # in its first iteration; the plan records that step and stalls
        # instead of repeating it until the stall window fills
        sc = load_scenario(scenario_path("cavity_19dof_extended"))
        cfg = dataclasses.replace(sc.planner, ik=dataclasses.replace(sc.planner.ik, max_iterations=10))
        out = plan(sc.chain, sc.initial_state(), sc.goal, sc.obstacles, cfg)
        assert out.status is PlanStatus.STALLED
        assert len(out.trajectory) == 8
        last, repeat = out.trajectory[-2:]
        assert np.array_equal(last.positions, repeat.positions) and np.array_equal(last.angles, repeat.angles)
        assert not any(np.array_equal(a.angles, b.angles) for a, b in zip(out.trajectory[:-2], out.trajectory[1:-1]))
        assert validate_trajectory(sc.chain, record_from_outcome(sc, out), sc.obstacles) == []

    def test_blocked_solve_no_longer_ends_the_cavity_plan(self):
        # with epsilon 2e-3 one solve of this plan is blocked: the plan
        # records its step and goes on to the goal
        sc = load_scenario(scenario_path("cavity_19dof_extended"))
        cfg = dataclasses.replace(sc.planner, ik=dataclasses.replace(sc.planner.ik, epsilon=2e-3))
        out = plan(sc.chain, sc.initial_state(), sc.goal, sc.obstacles, cfg)
        assert out.status is PlanStatus.GOAL_REACHED
        assert len(out.trajectory) == 28
        assert validate_trajectory(sc.chain, record_from_outcome(sc, out), sc.obstacles) == []

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

    def test_static_cage_blocks_every_velocity(self):
        model = make_chain(3)
        state = state_from_angles(model, np.zeros((3, 2)))
        tip = state.positions[-1]
        goal = np.array([0.35, 0.1, 0.0])
        # fixed spheres round the tip: one ahead, four large ones at the
        # sides and four small ones behind it, between the sides and the
        # last link, so every direction at planning speed leads to contact
        # within the horizon
        obstacles = [SphereObstacle(tip + (0.06, 0.0, 0.0), 0.04)]
        obstacles += [SphereObstacle(tip + s * 0.116 * axis, 0.1) for axis in np.eye(3)[1:] for s in (1.0, -1.0)]
        back = math.radians(31.0)
        for phi in np.radians([0.0, 90.0, 180.0, 270.0]):
            offset = (-math.cos(back), math.sin(back) * math.cos(phi), math.sin(back) * math.sin(phi))
            obstacles.append(SphereObstacle(tip + 0.03 * np.array(offset), 0.005))
        assert 0.0 < min_clearance(model, state.positions, obstacles) < 5e-4
        out = plan(model, state, goal, obstacles, PlannerConfig())
        assert out.status is PlanStatus.NO_ADMISSIBLE_VELOCITY
        assert len(out.trajectory) == 1

    @pytest.mark.parametrize("solver", ["vofabrik", "fabrik"])
    def test_underflowing_preferred_velocity_stalls(self, solver):
        # v_pref_speed / remaining * (goal - tip) is subnormal and its norm
        # underflows to zero: the step targets the tip, its solve takes 0
        # iterations and the plan ends Stalled on one repeated row
        sc = load_scenario(scenario_path("planar_3link"))
        cfg = dataclasses.replace(sc.planner, v_pref_speed=1e-320)
        out = plan(sc.chain, sc.initial_state(), sc.goal, sc.obstacles, cfg, solver=solver)
        assert out.status is PlanStatus.STALLED
        assert len(out.trajectory) == 2
        assert np.array_equal(out.trajectory[1].angles, out.trajectory[0].angles)

    @pytest.mark.parametrize("speed, tolerance", [(1e308, 5e-3), (1e73, 5e-3), (2e75, 2.0)])
    def test_preferred_speed_past_the_exact_range_fails_when_built(self, speed, tolerance):
        # the factor v_pref_speed / remaining (remaining > goal_tolerance)
        # or the velocity itself would leave 1e75, past which the filter's
        # products leave the range where geometry.fma is exact; 1e308
        # overflowed to inf there
        with pytest.raises(ValueError, match="v_pref_speed"):
            PlannerConfig(v_pref_speed=speed, goal_tolerance=tolerance)

    @pytest.mark.parametrize("name", ["planar_3link", "cavity_19dof_extended"])
    def test_fastest_accepted_preferred_speed_plans(self, name):
        sc = load_scenario(scenario_path(name))
        cfg = dataclasses.replace(sc.planner, v_pref_speed=0.999e75 * sc.planner.goal_tolerance, max_steps=3)
        out = plan(sc.chain, sc.initial_state(), sc.goal, sc.obstacles, cfg)
        assert out.status in (PlanStatus.GOAL_REACHED, PlanStatus.STEP_LIMIT, PlanStatus.STALLED)
        assert all(m.min_clearance > 0.0 for m in out.per_step_metrics)

    def test_angular_resolution_has_a_floor(self):
        # at most 10,000 cells over 2 pi per joint axis, checked when the
        # config is built, before any grid is; 1e-8 rad would ask for
        # 6.3e8 cells on each axis
        floor = 2.0 * math.pi / 10_000
        assert PlannerConfig(angular_resolution=floor).angular_resolution == floor
        for resolution in (math.nextafter(floor, 0.0), 1e-8, 5e-324):
            with pytest.raises(ValueError, match="angular_resolution must give at most 10000 cells"):
                PlannerConfig(angular_resolution=resolution)

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
            for (pitch, yaw), lim in zip(st.angles, model.limits):
                assert lim.pitch_min - 1e-9 <= pitch <= lim.pitch_max + 1e-9
                assert lim.yaw_min - 1e-9 <= yaw <= lim.yaw_max + 1e-9

    def test_unknown_solver_rejected(self):
        model = make_chain(3)
        state = state_from_angles(model, np.zeros((3, 2)))
        with pytest.raises(ValueError):
            plan(model, state, np.array([0.2, 0.0, 0.0]), [], solver="rrt")

    def test_goal_beyond_fma_range_rejected_at_entry(self):
        model = make_chain(3)
        state = state_from_angles(model, np.zeros((3, 2)))
        with pytest.raises(ValueError, match="goal must lie within"):
            plan(model, state, np.array([1e200, 0.0, 0.0]), [])


# three planar links folding back toward their base: the chooser's virtual
# self-spheres cover only the links a sweep has yet to place, so the plan
# reaches self-collision at step 24 unless plan stops it
FOLD3 = {
    "schema_version": 1,
    "name": "fold3",
    "chain": {
        "base": [0.0, 0.0, 0.0],
        "base_direction": [1.0, 0.0, 0.0],
        "links": [{"length": L, "thickness": 0.01} for L in (0.1, 0.08, 0.12)],
        "limits": [{"pitch": [0.0, 0.0], "yaw": [-2.5, 2.5]}] * 3,
    },
    "initial_angles": [[0.0, 0.0]] * 3,
    "goal": [0.0, -0.04, 0.1],
    "obstacles": [],
}


@st.composite
def scenario_docs(draw):
    """Small chains, some planar, 0-3 spheres and random solver settings."""
    n = draw(st.integers(2, 6))
    planar = draw(st.booleans())
    links, limits, angles = [], [], []
    for _ in range(n):
        links.append({"length": draw(st.floats(0.04, 0.15)), "thickness": draw(st.floats(0.0, 0.015))})
        pitch = 0.0 if planar else draw(st.floats(0.2, 1.4))
        yaw = draw(st.floats(1.0, 3.0))
        limits.append({"pitch": [-pitch, pitch], "yaw": [-yaw, yaw]})
        angles.append([draw(st.floats(-0.4, 0.4)) * pitch, draw(st.floats(-0.4, 0.4))])
    reach = sum(link["length"] for link in links)

    def point(lo, hi):
        r = draw(st.floats(lo, hi)) * reach
        el = 0.0 if planar else draw(st.floats(-1.2, 1.2))
        az = draw(st.floats(-math.pi, math.pi))
        return [r * math.cos(el) * math.cos(az), r * math.cos(el) * math.sin(az), r * math.sin(el)]

    spheres = draw(st.integers(0, 3))
    return {
        "schema_version": 1,
        "name": "fuzz",
        "chain": {"base": [0.0, 0.0, 0.0], "base_direction": [1.0, 0.0, 0.0], "links": links, "limits": limits},
        "initial_angles": angles,
        "goal": point(0.0, 0.8),
        "obstacles": [{"center": point(0.2, 1.0), "radius": draw(st.floats(0.01, 0.06))} for _ in range(spheres)],
        "planner": {
            "max_steps": 40,
            "angular_resolution": draw(st.floats(math.radians(0.5), math.radians(3.0))),
            "clearance_margin": draw(st.floats(0.0, 0.01)),
            "ik": {"max_iterations": draw(st.integers(5, 100))},
        },
    }


class TestStepFilter:
    """The planner's step filter against the public cone path."""

    def test_step_cones_match_public_cones_on_seeded_pairs(self, monkeypatch):
        """The step's cones are == to _cone of the public collision_cone of
        each obstacle inflated by the clearance margin, shrunk to half the
        gap when the tip is close, and the step velocity is array_equal to
        admissible_velocity over those cones, on seeded tips and obstacles.
        Gaps run from near contact through the shrunk-margin branch (under
        2 x margin) to well clear; where the public cone does not exist,
        the step raises CollisionCone's ValueError."""
        seen = []
        search = vofabrik.planner._search
        monkeypatch.setattr(vofabrik.planner, "_search", lambda v, cones, h: seen.append(cones) or search(v, cones, h))
        rng = np.random.default_rng(2311)
        counts = collections.Counter()
        for _ in range(3000):
            ee_radius = float(rng.choice([0.0, rng.uniform(1e-3, 0.05)]))
            model = ChainModel(
                base=rng.normal(size=3) * 10.0 ** rng.uniform(-1.0, 3.0),
                base_direction=np.array([1.0, 0.0, 0.0]),
                links=[LinkSpec(0.3, 0.01), LinkSpec(0.2, ee_radius)],
                limits=[JointLimits.unlimited()] * 2,
            )
            state = state_from_angles(model, rng.uniform(-3.0, 3.0, (2, 2)))
            tip = state.positions[-1]
            cfg = PlannerConfig(clearance_margin=float(rng.choice([0.0, 5e-3, rng.uniform(1e-4, 0.05)])))
            m = cfg.clearance_margin
            obstacles = []
            for _ in range(int(rng.integers(1, 6))):
                u = rng.normal(size=3)
                u /= np.linalg.norm(u)
                r = float(rng.uniform(0.01, 0.3))
                kind = rng.integers(3)
                gap = (10.0 ** rng.uniform(-16.0, -6.0), rng.uniform(0.0, 2.0 * m), rng.uniform(2.0 * m, 1.0))[kind]
                obstacles.append(SphereObstacle(tip + u * (ee_radius + r + gap), r))
            aim = obstacles[0].center - tip if rng.random() < 0.5 else rng.normal(size=3)
            goal = tip + aim * rng.uniform(0.5, 3.0)
            remaining = float(np.linalg.norm(goal - tip))
            v_pref = (cfg.v_pref_speed / remaining) * (goal - tip)
            spheres = [(o.center.tolist(), o.radius) for o in obstacles]
            cones = []
            try:
                for o in obstacles:
                    d = float(np.linalg.norm(o.center - tip))
                    margin = max(0.0, min(m, 0.5 * (d - ee_radius - o.radius)))
                    cones.append(collision_cone(tip, ee_radius, SphereObstacle(o.center, o.radius + margin)))
            except AlreadyInCollision:
                with pytest.raises(ValueError, match="truncation_distance must exceed combined_radius"):
                    _end_effector_velocity(model, state, goal, spheres, cfg, remaining)
                counts["no cone"] += 1
                continue
            seen.clear()
            try:
                want = admissible_velocity(v_pref, cones, cfg.vo)
            except NoAdmissibleVelocity:
                with pytest.raises(NoAdmissibleVelocity):
                    _end_effector_velocity(model, state, goal, spheres, cfg, remaining)
                counts["none admissible"] += 1
                continue
            got = _end_effector_velocity(model, state, goal, spheres, cfg, remaining)
            (step_cones,) = seen
            assert step_cones == [_cone(c.axis.tolist(), c.truncation_distance, c.combined_radius) for c in cones]
            assert np.array_equal(got, want)
            counts["kept" if want is v_pref else "turned"] += 1
        assert counts["kept"] >= 100 and counts["turned"] >= 100 and counts["no cone"] >= 10, counts


class TestRandomScenarios:
    def test_self_collision_ends_plan_before_it_is_recorded(self):
        scenario = scenario_from_dict(FOLD3)
        out = plan(scenario.chain, scenario.initial_state(), scenario.goal, [], scenario.planner)
        assert out.status is PlanStatus.COLLISION
        assert len(out.trajectory) == 24
        record = record_from_outcome(scenario, out)
        assert np.all(record.min_clearance > 0.0)
        assert validate_trajectory(scenario.chain, record, []) == []

    @example(FOLD3)
    @given(scenario_docs())
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_every_plan_ends_typed_and_validates_clean(self, doc):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                scenario = scenario_from_dict(doc)
            except (ParseError, ValidationError):
                return
            out = plan(scenario.chain, scenario.initial_state(), scenario.goal, scenario.obstacles, scenario.planner)
            assert isinstance(out.status, PlanStatus)
            record = record_from_outcome(scenario, out)
            assert np.all(np.isfinite(record.angles)) and np.all(np.isfinite(record.end_effector))
            assert validate_trajectory(scenario.chain, record, scenario.obstacles) == []


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

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_obstacles_given_as_a_one_shot_iterable(self, count):
        # read twice, a generator raised from inside numpy: ValueError
        # with obstacles, IndexError with none
        model = make_chain(3, length=0.1, thickness=0.01)
        state = state_from_angles(model, np.zeros((3, 2)))
        obstacles = [SphereObstacle(np.array([0.05 * k, 0.1, 0.0]), 0.04) for k in range(count)]
        want = min_clearance(model, state.positions, obstacles)
        assert min_clearance(model, state.positions, (o for o in obstacles)) == want

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


class TestCoordinateRange:
    """Every distance kernel stays finite and warns nothing for coordinates
    within geometry.COORDINATE_RANGE, and every entry point refuses one a
    step past it with a ValueError."""

    R = vofabrik.geometry.COORDINATE_RANGE
    PAST = math.nextafter(R, math.inf)
    CORNERS = [np.array(c) for c in itertools.product((-R, R), repeat=3)]

    def test_segment_kernels_are_finite_on_every_corner_quadruple(self):
        # the segment kernel's fourth powers peak with all ends on corners
        segments = [Segment3(a, b) for a in self.CORNERS for b in self.CORNERS if not np.array_equal(a, b)]
        for s1 in segments[::3]:
            for s2 in segments:
                assert math.isfinite(capsule_capsule_distance(Capsule3(s1, 0.0), Capsule3(s2, 0.0)))
            for c in self.CORNERS:
                assert math.isfinite(capsule_sphere_distance(Capsule3(s1, self.R), c, self.R))

    def test_min_clearance_and_solve_are_finite_at_the_range(self):
        # seven links through the eight corners, obstacles on every corner
        model = make_chain(7, length=self.R / 8, thickness=self.R / 100)
        obstacles = [SphereObstacle(c, self.R / 10) for c in self.CORNERS]
        got = min_clearance(model, self.CORNERS, obstacles)
        assert math.isfinite(got) and got == scalar_min_clearance(model, self.CORNERS, obstacles)
        # a chain reaching exactly the range, free and among obstacles
        model = make_chain(4, length=self.R / 4, thickness=self.R / 100)
        state = state_from_angles(model, np.full((4, 2), 0.3))
        for target in ((0.0, self.R / 2, 0.0), (-self.R, self.R, self.R)):
            for outcome in (
                solve(model, state, target),
                ik_phase(model, state, target, obstacles[:1], PlannerConfig(clearance_margin=self.R / 1000)),
            ):
                assert np.isfinite(outcome.state.positions).all() and math.isfinite(outcome.residual)
                assert math.isfinite(min_clearance(model, outcome.state.positions, obstacles))

    def test_a_step_past_the_range_raises_value_error(self):
        past = (self.PAST, 0.0, 0.0)
        model = make_chain(4, length=self.R / 4)
        state = state_from_angles(model, np.zeros((4, 2)))
        positions = state.positions.copy()
        positions[-1, 0] = self.PAST
        calls = (
            lambda: Segment3(past, (0.0, 0.0, 0.0)),
            lambda: capsule_sphere_distance(Capsule3(Segment3((0.0, 0.0, 0.0), (1.0, 0.0, 0.0)), 0.1), past, 0.1),
            lambda: SphereObstacle(past, 1.0),
            lambda: min_clearance(model, positions, []),
            lambda: solve(model, state, past),
            lambda: make_chain(4, length=self.PAST / 4),
        )
        for call in calls:
            with pytest.raises(ValueError, match="must lie within"):
                call()


def fma(x, y, z):
    """x * y + z rounded once, as a fused multiply-add."""
    return float(Fraction(x) * Fraction(y) + Fraction(z))


class TestFloatFacts:
    """The rounding facts that keep the float sweep and the chooser's
    narrow phase bit-equal to their numpy references. A numpy build that
    breaks one fails here first, with the reason, before the golden digests
    move."""

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
                "np.dot, @ and np.vecdot must all compute fma(x2,y2, fma(x1,y1, x0*y0)), "
                "the rounding geometry.fma repeats for the sweep and the rasterizer"
            )
            assert float(np.linalg.norm(x)) == math.sqrt(fma(x2, x2, fma(x1, x1, x0 * x0)))
            plain += want != (x0 * y0 + x1 * y1) + x2 * y2
            samples += 1
        # why the float code needs geometry.fma: unfused floats round differently
        assert 0 < plain < samples

    def test_fused_helper_is_exact_from_1e_minus_140_to_1e150(self):
        # geometry.fma is exact far past the largest coordinate it is given
        assert vofabrik.geometry.COORDINATE_RANGE <= 1e150
        rng = np.random.default_rng(14)
        for scale in [10.0**e for e in range(-140, 151, 10)]:
            for _ in range(50):
                a, b, c = (rng.normal(size=3) * scale).tolist()
                assert vofabrik.geometry.fma(a, b, c) == fma(a, b, c)
                assert vofabrik.geometry.fma(a, b, c * 1e-12) == fma(a, b, c * 1e-12)
                x, y = rng.normal(size=(2, 3)) * scale
                (x0, x1, x2), (y0, y1, y2) = x.tolist(), y.tolist()
                dot = vofabrik.geometry.fma(x2, y2, vofabrik.geometry.fma(x1, y1, x0 * y0))
                assert dot == fma(x2, y2, fma(x1, y1, x0 * y0)) == float(x @ y), scale
                norm2 = vofabrik.geometry.fma(x2, x2, vofabrik.geometry.fma(x1, x1, x0 * x0))
                assert math.sqrt(norm2) == float(np.linalg.norm(x)), scale

    def test_row_norms_sum_unfused_left_to_right(self):
        rng = np.random.default_rng(15)
        for scale in (1e-6, 1e-3, 1.0, 1e3):
            rows = rng.normal(size=(25_000, 3)) * scale
            want = [math.sqrt(x * x + y * y + z * z) for x, y, z in rows.tolist()]
            assert np.linalg.norm(rows, axis=1).tolist() == want, (
                "np.linalg.norm(axis=1) must sum a row of three as (x*x + y*y) + z*z, "
                "the rounding fabrik._entry_direction repeats for a degenerate link"
            )

    def test_grid_trig_tables_equal_trig_of_the_grid(self):
        res = PlannerConfig().angular_resolution
        for lo, hi in ((-math.pi, math.pi), (-1.4, 1.4), (-math.pi / 2, 2.0), (0.0, 0.0)):
            tables = vofabrik.planner._axis_grid(lo, hi, res)
            edges, centers, cos, sin = (np.array(t) for t in tables)
            assert all(type(t) is tuple and all(type(v) is float for v in t) for t in tables)
            assert np.array_equal(centers, 0.5 * (edges[:-1] + edges[1:]))
            assert np.array_equal(cos, np.cos(centers)) and np.array_equal(
                sin, np.sin(centers)
            ), "np.cos / np.sin of the grid's centers must equal the float tables"


def expand(test, grids, length, cells):
    """Whether the planner's cell test marks each (row, column) of cells."""
    (_, _, pcos, psin), (_, _, ycos, ysin) = grids
    return np.array([vofabrik.planner._hit(pcos[i], psin[i], ycos[j], ysin[j], test, length) for i, j in cells])


def cells_to_compare(hit, near):
    """The cells where the planner's cell test and the reference's could
    part: every cell of a one-axis grid; on a two-axis grid every cell of
    the forbidden cells' bounding box grown by one cell, every cell whose
    squared distance lies near the threshold (near), and every 7th row and
    column of the rest."""
    if min(hit.shape) == 1:
        return np.argwhere(np.ones_like(hit))
    check = near.copy()
    check[::7, ::7] = True
    rows, cols = np.flatnonzero(hit.any(axis=1)), np.flatnonzero(hit.any(axis=0))
    if rows.size:
        check[max(rows[0] - 1, 0) : rows[-1] + 2, max(cols[0] - 1, 0) : cols[-1] + 2] = True
    return np.argwhere(check)


def in_safe_cell(chooser, joint, pick, tests):
    """Whether a cell holding the pick (its edges included) is one that no
    test marks through the planner's cell test."""
    (pe, _, pcos, psin), (ye, _, ycos, ysin) = chooser.grids[joint]
    length = chooser._lengths[joint]
    rows = [i for i in range(len(pe) - 1) if pe[i] <= pick[0] <= pe[i + 1]]
    cols = [j for j in range(len(ye) - 1) if ye[j] <= pick[1] <= ye[j + 1]]
    return any(
        not any(vofabrik.planner._hit(pcos[i], psin[i], ycos[j], ysin[j], t, length) for t in tests)
        for i in rows
        for j in cols
    )


def beside_forbidden_box(grids, hits, pick):
    """Whether the pick lies on the edge of the forbidden cells' bounding
    box or beyond it."""
    (pe, _), (ye, _) = grids
    union = np.logical_or.reduce(hits)
    rows, cols = np.flatnonzero(union.any(axis=1)), np.flatnonzero(union.any(axis=0))
    return not (pe[rows[0]] < pick[0] < pe[rows[-1] + 1] and ye[cols[0]] < pick[1] < ye[cols[-1] + 1])


class CheckedChooser(ConeConstraints):
    """The planner's chooser, checking on every visit against the frozen
    numpy reference in chooser_reference: the same spheres (==), the same
    inputs to each sphere's cell test (==), each sphere's cells marked
    through the planner's cell test equal to the reference's (array_equal)
    on the cells of cells_to_compare, and the same pick (==) as the
    reference's dense search, with SafeSetEmpty in the same cases. A visit
    the plain-float certificate settles runs the checked exact path too,
    which must give the same clamped pick, so every visit that keeps a
    sphere is rasterized and compared."""

    visits = rejected = rasterized = outside = certified = 0

    def __init__(self, model, obstacles, cfg):
        super().__init__(model, obstacles, cfg)
        self.reference = ReferenceChooser(model, obstacles, cfg)

    def __call__(self, phase, positions):
        self.reference.enter_sweep(positions)
        # the sweep's working array: its unvisited rows stay the entry rows
        self.positions = positions
        return super().__call__(phase, positions)

    def _touch_spheres(self, phase, joint, pivot, links):
        spheres = super()._touch_spheres(phase, joint, pivot, links)
        pivot = np.asarray(pivot)
        centers, touch = self.reference.touch_spheres(phase, joint, np.asarray(self.positions), pivot)
        expected = []
        if centers is not None:
            if phase is Phase.BACKWARD:
                centers = 2.0 * pivot - centers
            expected = [(*c, t) for c, t in zip(centers.tolist(), touch.tolist())]
        assert spheres == expected, (phase, joint)
        type(self).visits += 1
        type(self).rejected += not spheres
        return spheres

    def _certify(self, joint, desired, limits, frame, pivot, spheres):
        got = super()._certify(joint, desired, limits, frame, pivot, spheres)
        if got is not None:
            type(self).certified += 1
            try:
                exact = self._nearest_safe(joint, limits, desired, self._cell_tests(joint, frame, pivot, spheres))
            except SafeSetEmpty:
                raise AssertionError(("certified a visit the exact path finds blocked", joint, desired)) from None
            assert got == exact == clamp_to_limits(desired.pitch, desired.yaw, limits), (joint, desired)
        return got

    def _cell_tests(self, joint, frame, pivot, spheres):
        want_tests = []
        self.expected = self.reference.rasterize(joint, frame, np.asarray(pivot), spheres, want_tests)
        type(self).rasterized += 1
        try:
            tests = super()._cell_tests(joint, frame, pivot, spheres)
        except SafeSetEmpty:
            # a sphere holds the pivot: the reference marks every cell
            assert any(hit.all() for hit in self.expected), joint
            raise
        length = self._lengths[joint]
        want = [(*proj, reach * reach, want_length) for proj, want_length, reach in want_tests]
        assert [(*test, length) for test in tests] == want, joint
        # cell by cell in plain Python, on the cells where rounding could
        # part the two: near the threshold, within one cell of a forbidden
        # one; and on a sample of the rest
        (_, pc), (_, yc) = self.reference.grids[joint]
        for test, hit, (proj, _, reach) in zip(tests, self.expected, want_tests):
            near = np.abs(cell_d2(pc, yc, proj, length) - reach * reach) <= 1e-9 * proj[3]
            cells = cells_to_compare(hit, near)
            assert np.array_equal(expand(test, self.grids[joint], length, cells), hit[tuple(cells.T)]), joint
        return tests

    def _nearest_safe(self, joint, limits, desired, tests):
        want = self.reference.pick(joint, desired, limits, self.expected)
        if want is None:
            with pytest.raises(SafeSetEmpty):
                super()._nearest_safe(joint, limits, desired, tests)
            raise SafeSetEmpty()
        got = super()._nearest_safe(joint, limits, desired, tests)
        assert got == tuple(want), (joint, desired)
        if got != clamp_to_limits(desired.pitch, desired.yaw, limits):
            type(self).outside += beside_forbidden_box(self.reference.grids[joint], self.expected, got)
        return got


class TestBroadPhaseReject:
    """The chooser's plain-float narrow phase, which settles a visit with
    no sphere in reach before any array is built, against the frozen numpy
    reference on every visit of whole plans."""

    def run_checked(self, monkeypatch, model, state, goal, obstacles, cfg):
        """Share of the plan's visits that kept no sphere."""
        monkeypatch.setattr(vofabrik.planner, "ConeConstraints", CheckedChooser)
        for counter in ("visits", "rejected", "rasterized", "outside", "certified"):
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
            assert CheckedChooser.certified > 0
        if name == "planar_2link":
            # searched picks on the edge of the forbidden cells' bounding
            # box or beyond it, where the lazy search must leave the run
            # of forbidden cells it starts in
            assert CheckedChooser.outside > 0
            # the certificate settles some visits and leaves others to the
            # exact path
            assert 0 < CheckedChooser.certified < CheckedChooser.rasterized

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

    def test_tied_picks_break_on_pitch_then_yaw(self, monkeypatch):
        # the first link on a grid of exact quarter-radian cells and a
        # sphere dead ahead: its forbidden cells are symmetric about the
        # desired angles (0, 0), so the nearest safe points, (+-0.25, 0)
        # and (0, +-0.25), tie four ways
        for counter in ("visits", "rejected", "rasterized", "outside", "certified"):
            monkeypatch.setattr(CheckedChooser, counter, 0)
        model = ChainModel(
            base=np.zeros(3),
            base_direction=np.array([1.0, 0.0, 0.0]),
            links=[LinkSpec(0.1, 0.0)] * 2,
            limits=[JointLimits.symmetric(1.0, 1.0)] * 2,
        )
        cfg = PlannerConfig(angular_resolution=0.25, clearance_margin=0.0)
        chooser = CheckedChooser(model, [SphereObstacle(np.array([0.1, 0.0, 0.0]), 0.02)], cfg)
        positions = [(0.0, 0.0, 0.0), (0.1, 0.0, 0.0), (0.2, 0.0, 0.0)]
        choose = chooser(Phase.FORWARD, positions)
        pitch, yaw = choose(0, JointAngles(0.0, 0.0), model.limits[0], model.base_frame(), positions[0])
        assert CheckedChooser.rasterized == 1
        assert (pitch, yaw) == (-0.25, 0.0)

    @pytest.mark.parametrize("base", [1e8, 1e12])
    def test_ball_pretest_keeps_what_the_keep_test_keeps_far_from_the_origin(self, base):
        # forward visits at joint 0 of a 3-link chain based far out: link 2
        # lies on a ray from the pivot, its near end (its closest point)
        # within 3e-8 m inside the keep bound, where the midpoint's
        # rounding exceeds a bound loosened without the chain's extent
        model = ChainModel(
            base=(base, base, base),
            base_direction=(1.0, 0.0, 0.0),
            links=[LinkSpec(0.1, 0.01)] * 3,
            limits=[JointLimits.unlimited()] * 3,
        )
        cfg = PlannerConfig()
        chooser = RecordingChooser(model, [], cfg)
        reference = ReferenceChooser(model, [], cfg)
        bound = 0.1 + 0.01 + cfg.clearance_margin + 0.01 + chooser._lips[0]
        rng = np.random.default_rng(0)
        kept = 0
        for _ in range(2000):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            pivot = model.base + rng.uniform(-1.0, 1.0, 3)
            near = bound - rng.uniform(0.0, 3e-8)
            positions = [pivot, pivot + 0.1 * u[[1, 2, 0]], pivot + near * u, pivot + (near + 0.1) * u]
            choose = chooser(Phase.FORWARD, [tuple(p.tolist()) for p in positions])
            choose(0, JointAngles(0.0, 0.0), model.limits[0], model.base_frame(), tuple(pivot.tolist()))
            positions = np.array(positions)
            reference.enter_sweep(positions)
            centers, touch = reference.touch_spheres(Phase.FORWARD, 0, positions, pivot)
            want = [] if centers is None else [(*c, t) for c, t in zip(centers.tolist(), touch.tolist())]
            assert chooser.spheres == want
            kept += bool(want)
        assert kept > 500


class RecordingChooser(ConeConstraints):
    """The planner's chooser, keeping the last visit's spheres and the
    inputs of their cell tests."""

    spheres = tests = ()

    def _touch_spheres(self, *args):
        self.spheres = super()._touch_spheres(*args)
        self.tests = ()
        return self.spheres

    def _cell_tests(self, *args):
        self.tests = super()._cell_tests(*args)
        return self.tests


def random_limits(kind, rng, n):
    if kind == "snake1":
        swing = [float(rng.uniform(0.3, 2.0)) for _ in range(n)]
        return [JointLimits(-s, s, 0.0, 0.0) if k % 2 else JointLimits(0.0, 0.0, -s, s) for k, s in enumerate(swing)]
    if kind == "snake2":
        return [JointLimits.symmetric(float(rng.uniform(0.2, 1.5)), float(rng.uniform(0.2, 3.1))) for _ in range(n)]
    return [JointLimits.unlimited()] * n


def lazy_visits(kind, chains):
    """The seeded chooser visits of one family: random chains and poses
    with random desired angles, within and past the limits. Each visit
    holds its chain, its config, the chooser (whose spheres and tests are
    the visit's), phase, joint, desired angles, limits, frame, pivot and
    pick, None where the chooser raised SafeSetEmpty."""
    rng = np.random.default_rng(sum(map(ord, kind)))
    grazing = kind.startswith("grazing")
    for _ in range(chains):
        n = int(rng.integers(2, 9))
        model = ChainModel(
            base=np.zeros(3),
            base_direction=np.array([1.0, 0.0, 0.0]),
            links=[LinkSpec(float(rng.uniform(0.04, 0.12)), float(rng.uniform(0.0, 0.015)))] * n,
            limits=random_limits(kind.removeprefix("grazing_"), rng, n),
        )
        cfg = PlannerConfig(clearance_margin=float(rng.choice([0.0, 5e-3])))
        angles = np.array([rng.uniform((l.pitch_min, l.yaw_min), (l.pitch_max, l.yaw_max)) for l in model.limits])
        state = state_from_angles(model, angles)
        p = state.positions
        frames = joint_frames(model, state.angles)
        obstacles, aims = [], {}
        for _ in range(int(rng.integers(1, 5))):
            k = int(rng.integers(0, n))
            radius = float(rng.uniform(0.005, 0.04))
            if grazing:
                # the touch sphere (reach R) reaches just past the tip
                # circle of link k at angles within its limits: seen from
                # forward joint k it spans half-angle
                # beta = acos((d^2 + L^2 - R^2) / (2 d L)), under a cell
                lim = model.limits[k]
                pitch, yaw = rng.uniform((lim.pitch_min, lim.yaw_min), (lim.pitch_max, lim.yaw_max))
                direction = link_directions(frames[k], [pitch], [yaw])[0]
                aims.setdefault(k, []).append((pitch, yaw))
                length = float(model.lengths[0])
                lip = length * 0.5 * cfg.angular_resolution * math.sqrt(2.0) * 1.0001
                reach = radius + cfg.clearance_margin + float(model.thicknesses[0]) + lip
                beta = float(rng.uniform(0.0, cfg.angular_resolution))
                dist = length * math.cos(beta) + math.sqrt(reach**2 - (length * math.sin(beta)) ** 2)
            else:
                direction = rng.normal(size=3)
                direction /= np.linalg.norm(direction)
                dist = float(rng.uniform(0.0, 0.15))
            obstacles.append(SphereObstacle(p[k] + dist * direction, radius))
        chooser = RecordingChooser(model, obstacles, cfg)
        for phase in (Phase.BACKWARD, Phase.FORWARD):
            choose = chooser(phase, list(map(tuple, p.tolist())))
            for k, lim in enumerate(model.limits):
                pivot = tuple(p[k + 1] if phase is Phase.BACKWARD else p[k])
                for _ in range(20):
                    if phase is Phase.FORWARD and k in aims and rng.random() < 0.5:
                        # within two cells of a grazing sphere's aim
                        aim = aims[k][int(rng.integers(len(aims[k])))]
                        pick = aim + rng.uniform(-2.0, 2.0, size=2) * cfg.angular_resolution
                    else:
                        pick = rng.uniform(
                            (lim.pitch_min - 0.3, lim.yaw_min - 0.3), (lim.pitch_max + 0.3, lim.yaw_max + 0.3)
                        )
                    desired = JointAngles(*np.clip(pick, -math.pi, math.pi).tolist())
                    try:
                        got = choose(k, desired, lim, frames[k], pivot)
                    except SafeSetEmpty:
                        got = None
                    yield SimpleNamespace(
                        model=model, cfg=cfg, chooser=chooser, phase=phase, joint=k,
                        desired=desired, limits=lim, frame=frames[k], pivot=pivot, pick=got,
                    )


LAZY_FAMILIES = [("snake1", 40), ("snake2", 25), ("unlimited", 4), ("grazing_snake1", 30), ("grazing_snake2", 20)]


def few_cells(hit):
    """Whether a sphere's forbidden cells are some, and fit in 3 x 3 cells."""
    rows, cols = np.flatnonzero(hit.any(axis=1)), np.flatnonzero(hit.any(axis=0))
    return rows.size > 0 and rows[-1] - rows[0] < 3 and cols[-1] - cols[0] < 3


class TestLazySearch:
    """The lazy search against the dense search of
    chooser_reference.ReferenceChooser, which marks every cell of the grid
    and takes the nearest point of a safe cell, on the seeded visits of
    lazy_visits: the pick must be ==, SafeSetEmpty must come in the same
    cases, and each pick must lie in a cell that no kept sphere's cell
    test marks. Seeded, so every run checks the same visits."""

    @pytest.mark.parametrize("kind, chains", LAZY_FAMILIES)
    def test_pick_matches_frozen_mask_chooser(self, kind, chains):
        visits = searched = empty = small = 0
        seen = None
        for v in lazy_visits(kind, chains):
            # the visits of one joint in one sweep share their spheres
            if seen != (v.chooser, v.phase, v.joint):
                if seen is None or seen[0] is not v.chooser:
                    mask = ReferenceChooser(v.model, [], v.cfg)
                seen = (v.chooser, v.phase, v.joint)
                hits = mask.rasterize(v.joint, v.frame, np.asarray(v.pivot), v.chooser.spheres)
                grazed = any(few_cells(hit) for hit in hits)
            want = mask.pick(v.joint, v.desired, v.limits, hits)
            assert v.pick == (None if want is None else tuple(want)), (v.phase, v.joint, v.desired)
            if v.pick is not None and v.chooser.tests:
                assert in_safe_cell(v.chooser, v.joint, v.pick, v.chooser.tests), (v.phase, v.joint, v.desired)
            visits += 1
            empty += v.pick is None
            searched += v.pick not in (None, clamp_to_limits(v.desired.pitch, v.desired.yaw, v.limits))
            small += grazed
        assert searched > 0.02 * visits and empty > 0, (visits, searched, empty)
        if kind.startswith("grazing"):
            assert small > 0.1 * visits, (visits, small)

    def test_pick_beside_a_wide_forbidden_region_is_safe(self):
        # a visit of the seeded snake2 family: the kept sphere's forbidden
        # cells reach farther in yaw than beta / cos(pitch) from its
        # direction (beta its angular radius from the pivot), so a search
        # bounded that way would take a forbidden cell for safe
        model = ChainModel(
            base=np.zeros(3),
            base_direction=np.array([1.0, 0.0, 0.0]),
            links=[LinkSpec(0.08191034313757478, 0.014636833744258131)] * 2,
            limits=[
                JointLimits.symmetric(0.2956284471739212, 0.34768876316293107),
                JointLimits.symmetric(0.6233863231228423, 0.22426098342162598),
            ],
        )
        angles = [[-0.05381794077597865, 0.19120680793674227], [-0.3728091350954864, 0.17836425547547002]]
        state = state_from_angles(model, np.array(angles))
        obstacles = [
            SphereObstacle(np.array(center), radius)
            for center, radius in (
                ([0.02095195550281849, 0.00783541702414504, 0.016989098665262096], 0.038896791508050865),
                ([0.12113338660885625, -0.001942876281051907, 0.025963727092120765], 0.03413966879382465),
                ([-0.01906832304394093, 0.016229723811280128, 0.030977131088593547], 0.013139401562172998),
                ([-0.07440972427010609, 0.059756258552236666, -0.10761603442495705], 0.029624872457647403),
            )
        ]
        chooser = RecordingChooser(model, obstacles, PlannerConfig(clearance_margin=5e-3))
        choose = chooser(Phase.BACKWARD, list(map(tuple, state.positions.tolist())))
        desired = JointAngles(-0.7902768990059019, 0.07783251967074101)
        pick = choose(1, desired, model.limits[1], joint_frames(model, state.angles)[1], tuple(state.positions[2]))
        assert chooser.tests and pick != clamp_to_limits(desired.pitch, desired.yaw, model.limits[1])
        assert in_safe_cell(chooser, 1, pick, chooser.tests), pick


class TestCertificate:
    """The chooser's plain-float certificate of the clamped cell against the
    exact path it stands in for: _cell_tests, then _nearest_safe."""

    def test_certifies_only_what_the_exact_path_picks_near_the_threshold(self):
        # one sphere per case, its center reach * (1 +- 10**-k), k = 3 ... 15,
        # from the link at the clamped cell's center, with random frames,
        # pivots, limits and desired angles
        rng = np.random.default_rng(25)
        outcomes = collections.Counter()
        for _ in range(60):
            bounds = rng.uniform(0.0, 1.5, size=4) * (rng.random() < 0.8, 1.0, rng.random() < 0.8, 1.0)
            limits = JointLimits(-bounds[0], bounds[1], -bounds[2], bounds[3])
            length = float(rng.uniform(0.04, 0.12))
            model = ChainModel(
                base=np.zeros(3),
                base_direction=np.array([1.0, 0.0, 0.0]),
                links=[LinkSpec(length, 0.01)] * 2,
                limits=[limits] * 2,
            )
            cfg = PlannerConfig(angular_resolution=float(rng.choice([math.radians(0.5), math.radians(2.0)])))
            chooser = ConeConstraints(model, [], cfg)
            forward, up = rng.normal(size=(2, 3))
            forward /= np.linalg.norm(forward)
            up -= np.dot(up, forward) * forward
            frame = JointFrame(tuple(forward.tolist()), tuple((up / np.linalg.norm(up)).tolist()))
            pivot = rng.uniform(-1.0, 1.0, size=3)
            desired = JointAngles(*rng.uniform(-1.8, 1.8, size=2).tolist())
            clamped = clamp_to_limits(desired.pitch, desired.yaw, limits)
            (pe, pc, _, _), (ye, yc, _, _) = chooser.grids[0]
            cell = (pc[vofabrik.planner._cell_of(pe, clamped[0])], yc[vofabrik.planner._cell_of(ye, clamped[1])])
            direction = link_directions(frame, [cell[0]], [cell[1]])[0]
            touch = float(rng.uniform(0.005, 0.05))
            reach = touch + chooser._lips[0]
            for k, side in itertools.product(range(3, 16), (1.0, -1.0)):
                normal = np.cross(direction, rng.normal(size=3))
                center = pivot + rng.uniform(0.05, 1.0) * length * direction
                center += reach * (1.0 + side * 10.0**-k) * normal / np.linalg.norm(normal)
                spheres = [(*center.tolist(), touch)]
                p = tuple(pivot.tolist())
                try:
                    exact = chooser._nearest_safe(0, limits, desired, chooser._cell_tests(0, frame, p, spheres))
                except SafeSetEmpty:
                    exact = None
                got = chooser._certify(0, desired, limits, frame, p, spheres)
                if got is not None:
                    assert got == exact == clamped, (k, side)
                    outcomes["certified"] += 1
                else:
                    # declined only because of the margin when the exact
                    # path picks the clamped angles all the same
                    outcomes["margin" if exact == clamped else "declined"] += 1
                if k <= 6:
                    assert (got is not None) == (side > 0), (k, side)
        assert min(outcomes["certified"], outcomes["declined"], outcomes["margin"]) > 0, outcomes
