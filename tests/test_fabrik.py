"""Solver tests.

The 2-link analytic oracle: with link lengths (a, b) and a target T, the
middle joint must land on the circle where the spheres of radius a around
the base and radius b around T intersect. Distance to that circle is the
solver's true positional error, independent of which of the infinitely
many valid elbows it picked.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fabrik_reference
import vofabrik.fabrik
from vofabrik.chain import ChainModel, ChainState, InconsistentPositions, JointLimits, state_from_angles
from vofabrik.fabrik import FabrikConfig, Phase, SafeSetEmpty, SolveOutcome, SolveStatus, clamp_to_limits, solve
from vofabrik.geometry import COORDINATE_RANGE
from vofabrik.planner import ConeConstraints, PlannerConfig, ik_phase
from vofabrik.velocity_obstacles import SphereObstacle

UNLIMITED = JointLimits.unlimited()


def chain(n, length=1.0, limits=None):
    return ChainModel(
        base=(0.0, 0.0, 0.0),
        base_direction=(1.0, 0.0, 0.0),
        links=[(length, 0.0)] * n,
        limits=[limits or UNLIMITED] * n,
    )


def distance_to_elbow_circle(p1, target, a, b):
    """Distance from p1 to the circle of exact 2-link solutions."""
    t = np.asarray(target, dtype=float)
    d = float(np.linalg.norm(t))
    axis = t / d
    along = (a * a - b * b + d * d) / (2.0 * d)
    radius = math.sqrt(max(a * a - along * along, 0.0))
    axial = float(np.dot(p1, axis))
    perp = float(np.linalg.norm(p1 - axial * axis))
    return math.hypot(axial - along, perp - radius)


class TestSolve:
    @pytest.mark.parametrize("kind", ["nan_positions", "nan_angles", "short_positions"])
    def test_unchecked_state_raises_before_any_sweep(self, kind):
        # unchecked, NaN ran the whole budget to a NaN state and a short
        # position array raised IndexError mid-sweep; ik_phase solves
        # through solve, so it raises as well
        model = chain(4, length=0.5)
        state = state_from_angles(model, np.full((4, 2), 0.1))
        if kind == "nan_positions":
            state.positions[2, 1] = np.nan
        elif kind == "nan_angles":
            state.angles[1, 0] = np.nan
        else:
            state = ChainState(state.positions[:-1], state.angles)
        swept = []

        def chooser(phase, positions):
            swept.append(phase)
            return lambda joint, desired, limits, frame, pivot: (desired.pitch, desired.yaw)

        target = (1.0, 0.5, 0.2)
        with pytest.raises(InconsistentPositions):
            solve(model, state, target, choose_angles=chooser)
        assert swept == []
        with pytest.raises(InconsistentPositions):
            ik_phase(model, state, target, [SphereObstacle((1.0, 1.0, 0.0), 0.1)], PlannerConfig())

    def test_target_already_reached(self):
        model = chain(3)
        state = state_from_angles(model, np.zeros((3, 2)))
        out = solve(model, state, state.positions[-1])
        assert out.status is SolveStatus.CONVERGED
        assert out.iterations == 0
        assert np.array_equal(out.state.positions, state.positions)

    def test_two_link_elbow_lands_on_solution_circle(self):
        model = chain(2)
        state = state_from_angles(model, np.zeros((2, 2)))
        cfg = FabrikConfig(epsilon=1e-4)
        out = solve(model, state, (1.0, 1.0, 0.0), cfg)
        assert out.status is SolveStatus.CONVERGED
        assert out.residual < 1e-4
        assert distance_to_elbow_circle(
            out.state.positions[1], (1.0, 1.0, 0.0), 1.0, 1.0
        ) < 1e-3

    def test_fully_extended_target(self):
        # full extension is the solver's singular direction: convergence is
        # linear with a rate that degrades to ~1 at the reach boundary, so
        # give it a generous budget and expect the straight-line pose
        model = chain(4, length=0.5)
        state = state_from_angles(
            model, np.column_stack([np.full(4, 0.2), np.full(4, -0.3)])
        )
        out = solve(model, state, (2.0, 0.0, 0.0), FabrikConfig(max_iterations=1000))
        assert out.status is SolveStatus.CONVERGED
        np.testing.assert_allclose(
            out.state.positions[-1], [2.0, 0.0, 0.0], atol=2e-3
        )

    def test_out_of_reach_is_infeasible_with_stretched_state(self):
        model = chain(3)
        state = state_from_angles(model, np.zeros((3, 2)))
        target = np.array([0.0, 5.0, 0.0])
        out = solve(model, state, target)
        assert out.status is SolveStatus.INFEASIBLE
        assert out.iterations == 1
        # cannot do better than the reach deficit, and one stretch iteration
        # should get close to it
        assert 5.0 - 3.0 - 1e-12 <= out.residual <= 5.0 - 3.0 + 0.1
        out.state.validate(model)

    def test_tight_limits_hit_iteration_budget(self):
        model = chain(2, limits=JointLimits.symmetric(0.1, 0.1))
        state = state_from_angles(model, np.zeros((2, 2)))
        out = solve(model, state, (0.0, 2.0, 0.0), FabrikConfig(max_iterations=25))
        assert out.status is SolveStatus.MAX_ITERATIONS
        assert out.iterations == 25
        out.state.validate(model)
        for (pitch, yaw), lim in zip(out.state.angles, model.limits):
            assert lim.pitch_min - 1e-9 <= pitch <= lim.pitch_max + 1e-9
            assert lim.yaw_min - 1e-9 <= yaw <= lim.yaw_max + 1e-9

    def test_deterministic_rerun_bit_identical(self):
        model = chain(6, length=0.4)
        state = state_from_angles(model, np.full((6, 2), 0.1))
        a = solve(model, state, (1.0, 0.8, 0.3))
        b = solve(model, state.copy(), np.array([1.0, 0.8, 0.3]))
        assert a.status == b.status and a.iterations == b.iterations
        assert a.state.positions.tobytes() == b.state.positions.tobytes()
        assert a.state.angles.tobytes() == b.state.angles.tobytes()

    def test_random_reachable_targets_converge(self):
        # convergence is statistical: rare awkward geometries run out of
        # iterations while still closing in, so allow a 1% budget and
        # require stragglers to be nearly there
        stragglers = []
        for seed in range(200):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(3, 8))
            model = chain(n, length=0.5)
            state = state_from_angles(model, np.zeros((n, 2)))
            # bias targets into the comfortably reachable shell
            radius = rng.uniform(0.3, 0.9) * model.total_length
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            target = model.base + radius * direction
            out = solve(model, state, target)
            out.state.validate(model)
            if out.status is not SolveStatus.CONVERGED:
                stragglers.append((seed, out.residual))
            else:
                assert out.residual < 1e-3
        assert len(stragglers) <= 2, stragglers
        assert all(residual < 1e-2 for _, residual in stragglers), stragglers

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_residual_monotone_without_limits(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 8))
        model = chain(n, length=0.5)
        angles = np.column_stack(
            [rng.uniform(-0.8, 0.8, n), rng.uniform(-0.8, 0.8, n)]
        )
        state = state_from_angles(model, angles)
        target = model.base + rng.uniform(0.2, 0.95) * model.total_length * _unit(rng)
        residuals = []
        lengths_ok = []

        def watch(iteration, backward_positions, st_after):
            residuals.append(float(np.linalg.norm(st_after.positions[-1] - target)))
            for pos in (backward_positions, st_after.positions):
                seg = np.linalg.norm(np.diff(pos, axis=0), axis=1)
                lengths_ok.append(float(np.max(np.abs(seg - model.lengths))))

        solve(model, state, target, FabrikConfig(max_iterations=30), on_iteration=watch)
        assert residuals, "solver took no iterations"
        for before, after in zip(residuals, residuals[1:]):
            assert after <= before + 1e-12
        assert max(lengths_ok) < 1e-9

    def test_limits_respected_every_iteration(self):
        limits = JointLimits.symmetric(0.6, 0.6)
        model = chain(4, limits=limits)
        state = state_from_angles(model, np.zeros((4, 2)))

        def watch(iteration, backward_positions, st_after):
            for pitch, yaw in st_after.angles:
                assert limits.pitch_min - 1e-9 <= pitch <= limits.pitch_max + 1e-9
                assert limits.yaw_min - 1e-9 <= yaw <= limits.yaw_max + 1e-9

        solve(model, state, (0.5, 2.0, 1.0), on_iteration=watch)

    def test_chooser_starts_each_sweep_from_its_entry_positions(self):
        model = chain(4, limits=JointLimits.symmetric(0.6, 0.6))
        state = state_from_angles(model, np.zeros((4, 2)))
        target = np.array([0.5, 2.0, 1.0])
        starts, visits, snapshots = [], [], []

        def chooser(phase, positions):
            starts.append((phase, positions.copy()))

            def choose(joint, desired, limits, frame, pivot):
                visits.append((phase, joint))
                return clamp_to_limits(desired.pitch, desired.yaw, limits)

            return choose

        def watch(iteration, backward_positions, st_after):
            snapshots.append((backward_positions, st_after.positions))

        cfg = FabrikConfig(max_iterations=5)
        out = solve(model, state, target, cfg, choose_angles=chooser, on_iteration=watch)
        assert np.array_equal(out.state.positions, solve(model, state, target, cfg).state.positions)
        assert out.iterations == len(snapshots) >= 2
        # one start per phase per iteration, backward first
        assert [phase for phase, _ in starts] == [Phase.BACKWARD, Phase.FORWARD] * out.iterations
        entry = state.positions
        for k, (backward, after) in enumerate(snapshots):
            (_, b_start), (_, f_start) = starts[2 * k], starts[2 * k + 1]
            # backward enters with the iteration's positions, tip on the target
            assert np.array_equal(b_start[:-1], entry[:-1])
            assert np.array_equal(b_start[-1], target)
            # forward enters with the base re-anchored and the backward result
            assert np.array_equal(f_start[0], model.base)
            assert np.array_equal(f_start[1:], backward[1:])
            entry = after
        n = model.n_links
        sweeps = [(Phase.BACKWARD, j) for j in range(n - 1, -1, -1)]
        sweeps += [(Phase.FORWARD, j) for j in range(n)]
        assert visits == sweeps * out.iterations


def _unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_case(seed):
    """A seeded chain of 2-19 links in a random in-limit pose, and a target:
    one in reach, one out of reach (INFEASIBLE), or, on every fourth seed,
    joint n-1 itself, which makes the backward phase's last link degenerate
    so it falls back on the link's entry direction."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 20))
    limits = [
        JointLimits.symmetric(float(rng.uniform(0.0, 1.5)), float(rng.uniform(0.0, math.pi)))
        for _ in range(n)
    ]
    lengths = rng.uniform(0.05, 0.2, n)
    thickness = rng.uniform(0.0, 0.01, n) * (rng.uniform(size=n) < 0.8)
    model = ChainModel(
        base=rng.normal(size=3),
        base_direction=_unit(rng),
        links=list(zip(lengths.tolist(), thickness.tolist())),
        limits=limits,
    )
    angles = [rng.uniform((l.pitch_min, l.yaw_min), (l.pitch_max, l.yaw_max)) for l in limits]
    state = state_from_angles(model, 0.8 * np.array(angles))
    if seed % 4 == 3:
        target = state.positions[-2]
    elif seed % 4 == 1:
        target = model.base + 1.5 * model.total_length * _unit(rng)
    else:
        target = model.base + rng.uniform(0.2, 0.9) * model.total_length * _unit(rng)
    obstacles = [
        SphereObstacle(state.positions[int(rng.integers(1, n + 1))] + rng.normal(scale=0.15, size=3), 0.03)
        for _ in range(3)
    ]
    return model, state, target, obstacles


def reference_outcome(model, state, target, cfg, chooser):
    """fabrik_reference.solve's outcome, with its blocked visit read as
    solve reports one: if the chooser raises SafeSetEmpty in iteration k
    (the k-th backward sweep), BLOCKED with the reference's state after
    k - 1 iterations, or the start state when k = 1."""
    if chooser is None:
        return fabrik_reference.solve(model, state, target, cfg)
    sweeps = []

    def counting(phase, positions):
        sweeps.append(phase)
        return chooser(phase, positions)

    try:
        return fabrik_reference.solve(model, state, target, cfg, counting)
    except SafeSetEmpty:
        k = sweeps.count(Phase.BACKWARD)
    if k == 1:
        residual = float(np.linalg.norm(state.positions[-1] - np.asarray(target, dtype=float)))
        return SolveOutcome(SolveStatus.BLOCKED, state.copy(), 0, residual)
    last = fabrik_reference.solve(model, state, target, dataclasses.replace(cfg, max_iterations=k - 1), chooser)
    assert last.iterations == k - 1
    return SolveOutcome(SolveStatus.BLOCKED, last.state, k - 1, last.residual)


class TestFrozenReference:
    """solve against the frozen numpy sweep in fabrik_reference."""

    @pytest.mark.parametrize("constrained", [False, True])
    def test_solve_matches_numpy_sweep_on_random_chains(self, monkeypatch, constrained):
        fallbacks = []
        entry_direction = vofabrik.fabrik._entry_direction
        monkeypatch.setattr(
            vofabrik.fabrik, "_entry_direction", lambda entry, i: fallbacks.append(1) or entry_direction(entry, i)
        )
        cfg = FabrikConfig(max_iterations=30)
        statuses = set()
        for seed in range(40):
            model, state, target, obstacles = random_case(seed)
            chooser = ConeConstraints(model, obstacles, PlannerConfig()) if constrained else None
            got = solve(model, state, target, cfg, chooser)
            want = reference_outcome(model, state, target, cfg, chooser)
            assert got.status == want.status and got.iterations == want.iterations, seed
            assert got.residual == want.residual, seed
            assert np.array_equal(got.state.positions, want.state.positions), seed
            assert np.array_equal(got.state.angles, want.state.angles), seed
            statuses.add(got.status)
        assert SolveStatus.INFEASIBLE in statuses and SolveStatus.MAX_ITERATIONS in statuses
        assert (SolveStatus.BLOCKED in statuses) == constrained
        # every target on joint n-1 drove the fallback once
        assert len(fallbacks) >= 10

    @pytest.mark.parametrize("scale", [1e154, 1e300])
    def test_coordinates_beyond_fma_range_rejected(self, scale):
        model = chain(3)
        state = state_from_angles(model, np.zeros((3, 2)))
        with pytest.raises(ValueError, match="target must lie within"):
            solve(model, state, (scale, 0.0, 0.0))
        # a base or a link past the range fails the input rule where it enters
        with pytest.raises(ValueError, match="base must lie within"):
            ChainModel(
                base=(0.0, scale, 0.0), base_direction=(1.0, 0.0, 0.0), links=[(1.0, 0.0)] * 3, limits=[UNLIMITED] * 3
            )
        with pytest.raises(ValueError, match="link 0 length must lie within"):
            chain(3, length=scale / 2)
        # links within the range whose sum is not: the chain's reach is the model's to check
        with pytest.raises(ValueError, match="chain reach .* must lie within"):
            chain(3, length=0.5 * COORDINATE_RANGE)
