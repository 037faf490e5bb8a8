"""End-to-end acceptance gate: one test per shipped guarantee.

Run with -v and each numbered criterion reads as a single pass/fail
line. Every oracle here is independent of the code it checks: collision
truth comes from a forward simulation, region truth from dense
point-to-segment sampling, and the two-link solutions from the
circle-intersection closed form. The two 19-DoF cavity scenarios are
planned once in a module fixture and shared by the first three tests and
the golden-digest test.
"""

import hashlib
import math
import time
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import geometry_reference
import validator_reference
import vo_reference
from chooser_oracle import ChooserCase
from clearance_oracle import scalar_min_clearance
from vofabrik import (
    Capsule3,
    ChainModel,
    JointLimits,
    Phase,
    PlanStatus,
    PlannerConfig,
    SolveStatus,
    SphereObstacle,
    VOConfig,
    admissible_velocity,
    capsule_capsule_distance,
    capsule_sphere_distance,
    collision_cone,
    link_capsules,
    load_scenario,
    make_report,
    min_clearance,
    plan,
    record_from_outcome,
    run_and_report,
    scenario_path,
    solve,
    state_from_angles,
    validate_trajectory,
)
from vofabrik.planner import _end_effector_velocity
from vofabrik.velocity_obstacles import _BOUNDARY_EPSILON, _blocked, _cone

UNLIMITED = JointLimits.unlimited()
CAVITY_NAMES = ("cavity_19dof", "cavity_19dof_extended")

# SHA-256 of each shipped scenario's trajectory CSV with the wall_time field
# cut from every line, lines joined by "\n" with no trailing newline
# (Python 3.11.7, numpy 2.4.6). An intended change of planning behaviour
# updates these and says why.
GOLDEN_DIGESTS = {
    "cavity_19dof": "332b90eebe176e776409e33160f26a5448c37ba274f545214f358ceb4e0bfd8f",
    "cavity_19dof_extended": "d1630e542dba7da2899b7ea6dd03df26b314fc0b9383cdc1f058a5f490e9fad8",
    "planar_2link": "e585cc03b1d85a3a945ab8609d5cece1b59fb17bf6b670323e2a1db20458fe4c",
    "planar_3link": "277386d81696a8283f46c9be10f8e2a43d18ceae60930bb3efc983c6c1265805",
}


def free_chain(rng, n, length_range=(0.05, 0.12)):
    """Random zero-thickness chain with unlimited joints."""
    lengths = rng.uniform(*length_range, size=n)
    return ChainModel(
        base=(0.0, 0.0, 0.0),
        base_direction=(1.0, 0.0, 0.0),
        links=[(float(length), 0.0) for length in lengths],
        limits=[UNLIMITED] * n,
    )


@pytest.fixture(scope="module")
def cavity_runs():
    runs = {}
    for name in CAVITY_NAMES:
        scenario = load_scenario(scenario_path(name))
        t0 = time.perf_counter()
        outcome = plan(
            scenario.chain,
            scenario.initial_state(),
            scenario.goal,
            scenario.obstacles,
            scenario.planner,
            solver="vofabrik",
        )
        elapsed = time.perf_counter() - t0
        record = record_from_outcome(scenario, outcome)
        runs[name] = SimpleNamespace(
            scenario=scenario,
            outcome=outcome,
            record=record,
            report=make_report(record, outcome.status),
            violations=validate_trajectory(scenario.chain, record, scenario.obstacles),
            elapsed=elapsed,
        )
    return runs


@pytest.fixture(scope="module")
def shipped_runs(cavity_runs):
    """(scenario, outcome) of all four shipped scenarios."""
    runs = {name: (run.scenario, run.outcome) for name, run in cavity_runs.items()}
    for name in ("planar_2link", "planar_3link"):
        scenario = load_scenario(scenario_path(name))
        runs[name] = (
            scenario,
            plan(scenario.chain, scenario.initial_state(), scenario.goal, scenario.obstacles, scenario.planner),
        )
    return runs


def filter_inputs(shipped_runs):
    """(name, k, scenario, state, remaining, v_pref, cones) for every state
    k of the shipped plans short of the goal: the velocity filter's input,
    with one public collision_cone per obstacle, the tip sphere against the
    obstacle inflated by the clearance margin (shrunk to half the gap when
    the tip is close)."""
    for name, (scenario, outcome) in shipped_runs.items():
        model, goal, cfg = scenario.chain, scenario.goal, scenario.planner
        ee_radius = float(model.thicknesses[-1])
        for k, state in enumerate(outcome.trajectory):
            tip = state.positions[-1]
            remaining = float(np.linalg.norm(goal - tip))
            if remaining <= cfg.goal_tolerance:
                continue
            v_pref = (cfg.v_pref_speed / remaining) * (goal - tip)
            cones = []
            for o in scenario.obstacles:
                d = float(np.linalg.norm(o.center - tip))
                margin = max(0.0, min(cfg.clearance_margin, 0.5 * (d - ee_radius - o.radius)))
                cones.append(collision_cone(tip, ee_radius, SphereObstacle(o.center, o.radius + margin)))
            yield name, k, scenario, state, remaining, v_pref, cones


class TestAcceptance:
    def test_criterion_1_cavity_scenarios_collision_free(self, cavity_runs):
        """Both 19-DoF cavity plans reach the goal with zero violations, < 60 s."""
        total = sum(run.elapsed for run in cavity_runs.values())
        for name, run in cavity_runs.items():
            assert run.outcome.status is PlanStatus.GOAL_REACHED, (
                name,
                run.outcome.status,
            )
            assert run.violations == [], (name, run.violations[:5])
        assert total < 60.0, total
        detail = ", ".join(
            f"{name}: {run.report.step_count} steps in {run.elapsed:.1f}s"
            for name, run in cavity_runs.items()
        )
        print(f"criterion 1 PASS - 0 violations ({detail}, total {total:.1f}s)")

    def test_criterion_2_joint_displacement_band(self, cavity_runs):
        """Mean per-step joint displacement stays within [0.001, 0.05] rad."""
        for name, run in cavity_runs.items():
            assert 0.001 <= run.report.joint_disp_mean <= 0.05, (
                name,
                run.report.joint_disp_mean,
            )
        detail = ", ".join(
            f"{name}: {run.report.joint_disp_mean:.4f} rad"
            for name, run in cavity_runs.items()
        )
        print(f"criterion 2 PASS - {detail}")

    def test_criterion_3_planner_step_time_budget(self, cavity_runs):
        """Mean planner step wall time stays at or below 50 ms."""
        for name, run in cavity_runs.items():
            assert run.report.time_per_step_mean <= 0.05, (
                name,
                run.report.time_per_step_mean,
            )
        detail = ", ".join(
            f"{name}: {1e3 * run.report.time_per_step_mean:.1f} ms"
            for name, run in cavity_runs.items()
        )
        print(f"criterion 3 PASS - {detail}")

    def test_criterion_4_reruns_byte_identical(self, tmp_path):
        """Two runs of a scenario yield identical files modulo wall-time columns."""

        def strip_wall(text):
            return "\n".join(
                ",".join(line.split(",")[:-1]) for line in text.splitlines()
            )

        for name in ("cavity_19dof_extended", "planar_3link"):
            texts = []
            for attempt in ("a", "b"):
                out_dir = tmp_path / f"{name}_{attempt}"
                run_and_report(
                    load_scenario(scenario_path(name)), solver="vofabrik", out_dir=out_dir
                )
                path = out_dir / f"{name}_vofabrik_trajectory.csv"
                texts.append(path.read_text(encoding="utf-8"))
            assert strip_wall(texts[0]) == strip_wall(texts[1]), name
        print("criterion 4 PASS - trajectories repeat byte-for-byte (wall column aside)")

    def test_shipped_trajectories_match_golden_digests(self, cavity_runs, tmp_path):
        """Every shipped scenario replans to the recorded trajectory, bit for bit."""
        records = {name: run.record for name, run in cavity_runs.items()}
        for name in ("planar_2link", "planar_3link"):
            scenario = load_scenario(scenario_path(name))
            outcome = plan(
                scenario.chain,
                scenario.initial_state(),
                scenario.goal,
                scenario.obstacles,
                scenario.planner,
                solver="vofabrik",
            )
            records[name] = record_from_outcome(scenario, outcome)
        for name, record in records.items():
            path = tmp_path / f"{name}.csv"
            record.write_csv(path)
            lines = path.read_text(encoding="utf-8").splitlines()
            stripped = "\n".join(line.rsplit(",", 1)[0] for line in lines)
            digest = hashlib.sha256(stripped.encode("utf-8")).hexdigest()
            assert digest == GOLDEN_DIGESTS[name], (name, digest)
        print("golden digests PASS - all four shipped trajectories unchanged")

    def test_batched_clearance_matches_scalar_on_shipped_plans(self, shipped_runs):
        """min_clearance equals the scalar reference exactly on every shipped state:
        link pairs against capsule_capsule_distance, obstacle rows against
        capsule_sphere_distance; obstacles set the minimum on some states."""
        states = binding = 0
        for name, (scenario, outcome) in shipped_runs.items():
            for k, state in enumerate(outcome.trajectory):
                # without obstacles the link pairs alone set the minimum
                links = min_clearance(scenario.chain, state.positions, ())
                got = min_clearance(scenario.chain, state.positions, scenario.obstacles)
                assert links == scalar_min_clearance(scenario.chain, state.positions, ()), (name, k)
                assert got == scalar_min_clearance(scenario.chain, state.positions, scenario.obstacles), (name, k)
                states += 1
                binding += got < links
        assert binding > 0
        print(
            "clearance kernel PASS - link pairs bit-equal to capsule_capsule_distance, "
            f"obstacle rows to capsule_sphere_distance, on {states} shipped states, obstacles closest on {binding}"
        )

    def test_obstacle_clearance_matches_capsule_oracle_on_shipped_plans(self, shipped_runs):
        """Where the obstacle rows can set min_clearance, they equal (==) the
        minimum of capsule_sphere_distance over link_capsules and the
        obstacles on every shipped state."""
        states = binding = 0
        for name, (scenario, outcome) in shipped_runs.items():
            for k, state in enumerate(outcome.trajectory):
                want = min(
                    capsule_sphere_distance(capsule, o.center, o.radius)
                    for capsule in link_capsules(scenario.chain, state)
                    for o in scenario.obstacles
                )
                # min_clearance is the smaller of the link-pair and obstacle
                # parts; the link pairs alone are checked bit for bit above
                links = min_clearance(scenario.chain, state.positions, ())
                got = min_clearance(scenario.chain, state.positions, scenario.obstacles)
                assert got == min(links, want), (name, k, got, want, links)
                states += 1
                binding += want < links
        assert binding > 0
        print(
            f"obstacle clearance PASS - == capsule_sphere_distance over link_capsules "
            f"on {states} shipped states, obstacles closest on {binding}"
        )

    def test_validator_matches_exhaustive_reference_on_shipped_plans(self, shipped_runs):
        """validate_trajectory, which skips the pairs whose bounding balls
        cannot touch, returns the frozen exhaustive validator's Violation
        lists (==, value bits included) on every shipped plan, and on the
        plans perturbed into collision by seeded angle noise."""
        rng = np.random.default_rng(16)
        kinds = Counter()
        for name, (scenario, outcome) in shipped_runs.items():
            record = record_from_outcome(scenario, outcome)
            for sigma in (0.0, 0.05, 0.3):
                perturbed = replace(record, angles=record.angles + rng.normal(0.0, sigma, record.angles.shape))
                got = validate_trajectory(scenario.chain, perturbed, scenario.obstacles)
                want = validator_reference.validate_trajectory(scenario.chain, perturbed, scenario.obstacles)
                assert got == want and validator_reference.bits(got) == validator_reference.bits(want), (name, sigma)
                assert sigma or got == [], name
                kinds.update(v.kind for v in got)
        assert min(kinds[k] for k in ("rigid_link", "obstacle_clearance", "self_clearance")) > 0, kinds
        print(f"validator PASS - == the exhaustive reference on 4 shipped plans, perturbed: {dict(kinds)}")

    def test_scalar_geometry_matches_numpy_reference_on_shipped_plans(self, shipped_runs):
        """Every link pair and every link-obstacle pair of every shipped state
        gives the frozen numpy geometry's distance (==): the validator's
        queries are bit-equal to the numpy code they replaced. Link pairs
        are compared as radius-0 capsules, exact since d - 0.0 - 0.0 == d.
        Both sides evaluate a pair in one canonical order, which
        test_geometry checks under argument swap."""
        pairs = 0
        for name, (scenario, outcome) in shipped_runs.items():
            for k, state in enumerate(outcome.trajectory):
                capsules = link_capsules(scenario.chain, state)
                for i, capsule in enumerate(capsules):
                    for o in scenario.obstacles:
                        want = geometry_reference.capsule_sphere_distance(capsule, o.center, o.radius)
                        assert capsule_sphere_distance(capsule, o.center, o.radius) == want, (name, k, i)
                    for other in capsules[i + 1 :]:
                        want = geometry_reference.segment_segment_distance(capsule.axis, other.axis)[0]
                        got = capsule_capsule_distance(Capsule3(capsule.axis, 0.0), Capsule3(other.axis, 0.0))
                        assert got == want, (name, k, i)
                        pairs += 1
        print(f"scalar geometry PASS - {pairs} link pairs and every obstacle pair == the numpy reference")

    def test_filter_cones_match_public_definition_on_shipped_plans(self, shipped_runs):
        """On every shipped state short of the goal, the planner's filtered
        velocity is array_equal to admissible_velocity over one public
        collision_cone per obstacle: the tip sphere against the obstacle
        inflated by the clearance margin, shrunk to half the gap when the
        tip is close (the step target that benchmarks/tracing.py replays).
        The planner reads each obstacle as (center float triple, radius)."""
        states = turned = 0
        for name, k, scenario, state, remaining, v_pref, cones in filter_inputs(shipped_runs):
            cfg = scenario.planner
            spheres = [(o.center.tolist(), o.radius) for o in scenario.obstacles]
            want = admissible_velocity(v_pref, cones, cfg.vo)
            got = _end_effector_velocity(scenario.chain, state, scenario.goal, spheres, cfg, remaining)
            assert np.array_equal(got, want), (name, k)
            states += 1
            turned += not np.array_equal(want, v_pref)
        assert turned > 0
        print(f"filter cones PASS - == the public collision_cone on {states} shipped states, {turned} turned")

    def test_filter_matches_frozen_reference_on_shipped_plans(self, shipped_runs):
        """On every shipped state short of the goal, admissible_velocity
        returns the same velocity (array_equal) as the frozen numpy filter
        in tests/vo_reference.py, turned steps included."""
        states = turned = 0
        for name, k, scenario, _, _, v_pref, cones in filter_inputs(shipped_runs):
            got = admissible_velocity(v_pref, cones, scenario.planner.vo)
            assert np.array_equal(got, vo_reference.admissible_velocity(v_pref, cones, scenario.planner.vo)), (name, k)
            states += 1
            turned += got is not v_pref
        assert states >= 130 and turned > 0, (states, turned)
        print(f"frozen filter PASS - == the numpy reference on {states} shipped states, {turned} turned")

    def test_criterion_5_reduces_to_plain_fabrik_without_obstacles(self):
        """No obstacles + unlimited joints: both solvers emit bit-identical states."""
        rng_master = np.random.default_rng(505)
        states_compared = 0
        for case in range(20):
            rng = np.random.default_rng(rng_master.integers(2**63))
            n = int(rng.integers(5, 20))
            model = free_chain(rng, n)
            state = state_from_angles(model, np.zeros((n, 2)))
            offset = rng.normal(size=3)
            offset *= rng.uniform(0.08, 0.15) / np.linalg.norm(offset)
            goal = state.positions[-1] + offset
            cfg = PlannerConfig(max_steps=60)
            filtered = plan(model, state, goal, [], cfg, solver="vofabrik")
            baseline = plan(model, state, goal, [], cfg, solver="fabrik")
            assert filtered.status is baseline.status, (case, n)
            assert len(filtered.trajectory) == len(baseline.trajectory), (case, n)
            for step, (sa, sb) in enumerate(
                zip(filtered.trajectory, baseline.trajectory)
            ):
                assert np.array_equal(sa.positions, sb.positions), (case, n, step)
                assert np.array_equal(sa.angles, sb.angles), (case, n, step)
                states_compared += 1
        print(
            f"criterion 5 PASS - {states_compared} per-step states bit-identical "
            "across 20 chains of 5-19 links"
        )

    def test_criterion_6_solver_convergence_rate(self):
        """>= 99% of 1000 random reachable targets converge; links never drift."""
        failures = []
        worst_drift = 0.0
        rng_master = np.random.default_rng(20260815)
        for case in range(1000):
            rng = np.random.default_rng(rng_master.integers(2**63))
            model = free_chain(rng, 10, length_range=(0.05, 0.15))
            state = state_from_angles(model, np.zeros((10, 2)))
            radius = rng.uniform(0.10, 0.95) * model.total_length
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            target = model.base + radius * direction

            drifts = []
            lengths = np.asarray(model.lengths)

            def watch(iteration, backward_positions, state_after, _drifts=drifts, _lengths=lengths):
                segments = np.linalg.norm(np.diff(state_after.positions, axis=0), axis=1)
                _drifts.append(float(np.max(np.abs(segments - _lengths))))

            out = solve(model, state, target, on_iteration=watch)
            if drifts:
                worst_drift = max(worst_drift, max(drifts))
            if out.status is not SolveStatus.CONVERGED or out.residual >= 1e-3:
                failures.append((case, out.status.name, out.residual))
        assert len(failures) <= 10, failures[:10]
        assert worst_drift < 1e-9, worst_drift
        print(
            f"criterion 6 PASS - {1000 - len(failures)}/1000 converged below 1e-3, "
            f"worst link drift {worst_drift:.2e}"
        )

    def test_criterion_7_cone_test_matches_forward_simulation(self):
        """The velocity filter's kernel, _blocked, agrees with a
        simulated-collision oracle on 1000 random pairs."""
        cfg = VOConfig()
        sim_steps = 2048
        dt = cfg.time_horizon / sim_steps
        ts = np.linspace(0.0, cfg.time_horizon, sim_steps + 1)

        rng_master = np.random.default_rng(777)
        agreements = 0
        stragglers = []
        for case in range(1000):
            rng = np.random.default_rng(rng_master.integers(2**63))
            agent_center = rng.normal(size=3) * 0.3
            agent_radius = rng.uniform(0.02, 0.15)
            obstacle_radius = rng.uniform(0.05, 0.4)
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            distance = agent_radius + obstacle_radius + rng.uniform(0.01, 1.8)
            obstacle = SphereObstacle(center=agent_center + axis * distance, radius=obstacle_radius)
            cone = collision_cone(agent_center, agent_radius, obstacle)

            speed = rng.uniform(0.2, 2.5)
            if rng.random() < 0.5:
                aim = axis + rng.normal(size=3) * rng.uniform(0.0, 0.6)
                aim /= np.linalg.norm(aim)
                velocity = aim * speed
            else:
                velocity = rng.normal(size=3) * rng.uniform(0.1, 1.5)

            kernel_cone = _cone(cone.axis.tolist(), cone.truncation_distance, cone.combined_radius)
            predicted = _blocked(velocity.tolist(), [kernel_cone], cfg.time_horizon)
            path = agent_center + np.outer(ts, velocity) - obstacle.center
            closest = float(np.min(np.linalg.norm(path, axis=1)))
            actual = closest <= agent_radius + obstacle_radius

            if predicted == actual:
                agreements += 1
                continue

            # disagreements must hug the cone surface or the horizon edge;
            # solve the contact quadratic here rather than trusting the
            # library's own version of it
            norm = float(np.linalg.norm(velocity))
            angle = math.acos(min(max(float(np.dot(velocity, cone.axis)) / norm, -1.0), 1.0))
            to_center = obstacle.center - agent_center
            a = norm**2
            b = float(np.dot(velocity, to_center))
            c = float(np.dot(to_center, to_center)) - (agent_radius + obstacle_radius) ** 2
            disc = b * b - a * c
            t_contact = (
                (b - math.sqrt(disc)) / a if (disc >= 0.0 and b > 0.0) else math.inf
            )
            window = 2.0 * math.sqrt(max(disc, 0.0)) / a if a > 0.0 else 0.0
            near_surface = abs(angle - cone.half_angle) <= _BOUNDARY_EPSILON
            near_horizon = abs(t_contact - cfg.time_horizon) <= 2.0 * dt
            unresolvable = window < 2.0 * dt
            assert near_surface or near_horizon or unresolvable, (
                case,
                predicted,
                actual,
                angle - cone.half_angle,
                t_contact,
            )
            stragglers.append(case)
        assert agreements >= 990, (agreements, stragglers)
        print(
            f"criterion 7 PASS - {agreements}/1000 agreements, "
            f"{len(stragglers)} boundary-grazing disagreements"
        )

    def test_criterion_8_forbidden_regions_match_dense_oracle(self):
        """Planar-toy forbidden sets: superset of truth, <= one extra cell deep."""
        samples = 3600
        checked = []
        for scenario_name, joint in (("planar_2link", 0), ("planar_3link", 1)):
            scenario = load_scenario(scenario_path(scenario_name))
            resolution = scenario.planner.angular_resolution
            limits = scenario.chain.limits[joint]
            lo, hi = limits.yaw_min, limits.yaw_max
            ys = np.linspace(lo, hi, samples)
            zeros = np.zeros_like(ys)
            spacing = (hi - lo) / (samples - 1)
            step = (hi - lo) / max(1, math.ceil((hi - lo) / resolution))
            for phase in (Phase.BACKWARD, Phase.FORWARD):
                where = (scenario_name, joint, phase.value)
                case = ChooserCase(
                    scenario.chain,
                    scenario.initial_state(),
                    scenario.obstacles,
                    phase,
                    joint,
                    scenario.planner,
                )
                # dense truth: the link's center line against the
                # margin-inclusive touch sphere; marked = moved by the chooser
                exact = case.clearance(zeros, ys) <= 0.0
                picks = case.choose(zeros, ys)
                marked = picks[:, 1] != ys
                assert exact.any() and np.all(picks[:, 0] == 0.0), where
                assert np.all(marked[exact]), where  # superset of truth

                def intervals(mask, _ys=ys):
                    out, i = [], 0
                    while i < len(mask):
                        if mask[i]:
                            j = i
                            while j + 1 < len(mask) and mask[j + 1]:
                                j += 1
                            out.append((float(_ys[i]), float(_ys[j])))
                            i = j + 1
                        else:
                            i += 1
                    return out

                exact_iv = intervals(exact)
                max_excess = 0.0
                for marked_lo, marked_hi in intervals(marked):
                    inside = [
                        iv
                        for iv in exact_iv
                        if iv[0] >= marked_lo - spacing and iv[1] <= marked_hi + spacing
                    ]
                    assert inside, (where, marked_lo, marked_hi)
                    max_excess = max(
                        max_excess, inside[0][0] - marked_lo, marked_hi - inside[-1][1]
                    )
                # the exact boundary lands inside a grid cell; the marked
                # region may cover the rest of that cell plus at most one more
                assert max_excess <= 2.0 * step + spacing, (where, max_excess / step)

                # every pick is truly clear, and no farther from the desired
                # yaw than the nearest unmarked sample, to within one grid
                # cell; distances, not positions, because both edges of a
                # band are equally near at its midpoint
                assert np.all(case.clearance(zeros[marked], picks[marked, 1]) > 0.0), where
                clear_ys = ys[~marked]
                worst_gap = 0.0
                for desired, chosen in zip(ys[marked], picks[marked, 1]):
                    nearest = float(np.min(np.abs(clear_ys - desired)))
                    worst_gap = max(worst_gap, abs(chosen - desired) - nearest)
                assert worst_gap <= resolution + spacing, (where, worst_gap)
                checked.append(
                    f"{scenario_name} joint {joint} {phase.value}: "
                    f"+{max_excess / step:.2f} cells, safe-pick gap {worst_gap:.4f} rad"
                )

        # a joint that cannot reach the obstacle is not constrained at all
        scenario = load_scenario(scenario_path("planar_3link"))
        case = ChooserCase(
            scenario.chain,
            scenario.initial_state(),
            scenario.obstacles,
            Phase.FORWARD,
            0,
            scenario.planner,
        )
        ys = np.linspace(scenario.chain.limits[0].yaw_min, scenario.chain.limits[0].yaw_max, samples)
        zeros = np.zeros_like(ys)
        assert np.array_equal(case.choose(zeros, ys), np.column_stack([zeros, ys]))
        print(f"criterion 8 PASS - {'; '.join(checked)}")

    def test_criterion_9_two_link_targets_match_closed_form(self):
        """100 random planar two-link targets land on the circle-intersection pose."""
        scenario = load_scenario(scenario_path("planar_2link"))
        model = scenario.chain
        l1, l2 = model.lengths
        rng = np.random.default_rng(909)
        worst_residual = 0.0
        worst_elbow = 0.0
        for _ in range(100):
            r = rng.uniform(0.05, 0.19)
            phi = rng.uniform(-1.5, 1.5)
            target = np.array([r * math.cos(phi), r * math.sin(phi), 0.0])
            out = solve(model, scenario.initial_state(), target)
            assert out.status is SolveStatus.CONVERGED, (target, out.status)
            assert out.residual < 1e-3, (target, out.residual)

            # closed form: elbow sits on the intersection of circles around
            # the base (radius l1) and the target (radius l2)
            d = float(np.linalg.norm(target))
            along = (l1 * l1 - l2 * l2 + d * d) / (2.0 * d)
            perp = math.sqrt(max(l1 * l1 - along * along, 0.0))
            t_hat = target / d
            n_hat = np.array([-t_hat[1], t_hat[0], 0.0])
            elbows = (along * t_hat + perp * n_hat, along * t_hat - perp * n_hat)
            for elbow in elbows:  # oracle self-check
                assert abs(np.linalg.norm(elbow) - l1) < 1e-9
                assert abs(np.linalg.norm(target - elbow) - l2) < 1e-9

            gap = min(
                float(np.linalg.norm(out.state.positions[1] - elbow))
                for elbow in elbows
            )
            worst_elbow = max(worst_elbow, gap)
            worst_residual = max(worst_residual, out.residual)
        assert worst_elbow < 1e-2, worst_elbow
        print(
            f"criterion 9 PASS - worst residual {worst_residual:.2e} m, "
            f"worst elbow gap {worst_elbow:.2e} m across 100 targets"
        )
