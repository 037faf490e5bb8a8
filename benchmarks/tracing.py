"""Traced runs: per-layer metrics from spans around public calls.

A traced round plans each scenario once and then replays every recorded
planner step through the public functions of each layer: the end-effector
velocity filter (collision_cone and admissible_velocity), the constrained
solve (ik_phase) and min_clearance. Each replayed step must reproduce the
recorded next state and clearance bit for bit; if one does not, the
workload's per-layer numbers are reported void. Each step is also solved
once more with the plain solver (solve) on the same target, so that the
chooser's cost per FABRIK iteration is the difference of the two.

On the ik workload there is no plan to replay. Each target is solved
one-shot, as in the untraced run, and then driven as one obstacle-free
planner step from the chain's home, so the planner layers are measured on
the same chains (the chooser sees only the chain's own links).

Spans are kept in memory and written out as JSON lines when the run ends.
"""

import json
import time
from contextlib import contextmanager

import numpy as np

import checks
import workloads
from workloads import Result


class Tracer:
    """In-memory spans: (name, start, end, parent index, step id, round)."""

    def __init__(self):
        self.spans = []
        self.round = 0
        self._open = []

    @contextmanager
    def span(self, name, step=None):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1] if self._open else None
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = (name, start, end, parent, step, self.round)

    def totals(self, round_):
        """name -> (seconds, calls) over the spans of one round."""
        out = {}
        for name, start, end, _, _, r in self.spans:
            if r == round_:
                seconds, calls = out.get(name, (0.0, 0))
                out[name] = (seconds + end - start, calls + 1)
        return out

    def write(self, path):
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as f:
            for name, start, end, parent, step, r in self.spans:
                f.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start - origin,
                            "end": end - origin,
                            "parent": parent,
                            "step": step,
                            "round": r,
                        }
                    )
                    + "\n"
                )


def traced(tr, res, name, step, fn, *args):
    """One operation, timed as a span."""
    res.attempted += 1
    with tr.span(name, step):
        return fn(*args)


def vo_target(vf, model, state, goal, obstacles, cfg):
    """The planner's step target rebuilt from public calls; returns
    (target, turned).

    The preferred velocity points at the goal with speed v_pref_speed /
    remaining distance; each obstacle gives one collision_cone for the tip
    sphere, the obstacle inflated by the clearance margin (shrunk to half
    the gap when the tip is close); admissible_velocity filters the
    preferred velocity; the target is the tip moved along the result for
    t_s or until the goal, whichever is shorter. Within goal_tolerance the
    target is the tip itself and no filter runs.
    """
    tip = state.positions[-1]
    remaining = float(np.linalg.norm(goal - tip))
    if remaining <= cfg.goal_tolerance:
        return tip, False
    v_pref = (cfg.v_pref_speed / remaining) * (goal - tip)
    ee_radius = float(model.thicknesses[-1])
    cones = []
    for o in obstacles:
        d = float(np.linalg.norm(o.center - tip))
        margin = max(0.0, min(cfg.clearance_margin, 0.5 * (d - ee_radius - o.radius)))
        inflated = vf.SphereObstacle(o.center, o.radius + margin, o.velocity)
        cones.append(vf.collision_cone(tip, ee_radius, inflated))
    v = vf.admissible_velocity(v_pref, cones, cfg.vo)
    speed = float(np.linalg.norm(v))
    return tip + v * min(cfg.t_s, remaining / speed), not np.array_equal(v, v_pref)


def replay_step(vf, tr, res, counts, sid, model, state, goal, obstacles, cfg):
    """VO filter -> ik_phase -> min_clearance for one planner step, each in
    its own span under a replay.step span; returns (target, ik, clearance)."""
    with tr.span("replay.step", sid):
        res.attempted += 1
        with tr.span("velocity_obstacles.filter", sid):
            target, turned = vo_target(vf, model, state, goal, obstacles, cfg)
        ik = traced(tr, res, "planner.ik_phase", sid, vf.ik_phase, model, state, target, obstacles, cfg)
        clearance = traced(
            tr, res, "planner.min_clearance", sid, vf.min_clearance, model, ik.state.positions, obstacles
        )
    counts["steps"] += 1
    counts["turned"] += turned
    counts["ik_iterations"] += ik.iterations
    counts["ik_capped"] += ik.status is vf.SolveStatus.MAX_ITERATIONS
    counts["chooser_visits"] += 2 * model.n_links * ik.iterations
    return target, ik, clearance


def count_solve(vf, counts, out):
    counts["solve_iterations"] += out.iterations
    counts["solve_capped"] += out.status is vf.SolveStatus.MAX_ITERATIONS


def new_counts():
    keys = (
        "steps", "turned", "ik_iterations", "ik_capped", "chooser_visits",
        "solve_iterations", "solve_capped", "reference_iterations", "states", "mismatched",
    )
    return dict.fromkeys(keys, 0)


def planner_round(vf, tr, res, cases, first):
    counts = new_counts()
    for case in cases:
        sc = traced(tr, res, "harness.load_scenario", case.name, vf.load_scenario, vf.scenario_path(case.name))
        model, cfg, obstacles = sc.chain, sc.planner, list(sc.obstacles)
        out = traced(tr, res, "planner.plan", case.name, vf.plan, model, case.initial_state, sc.goal, obstacles, cfg)
        record = vf.record_from_outcome(sc, out)
        violations = traced(
            tr, res, "harness.validate_trajectory", case.name, vf.validate_trajectory, model, record, obstacles
        )
        counts["states"] += len(out.trajectory)
        if case.name not in first:
            first[case.name] = record
            for text in checks.check_plan(vf, sc, out, record, violations):
                res.problem(f"{case.name}: {text}")
        elif not checks.same_record(first[case.name], record) or violations:
            res.problem(f"{case.name}: a later round differs from round 0")

        states = out.trajectory
        for k in range(len(states) - 1):
            sid = f"{case.name}:{k + 1}"
            target, ik, clearance = replay_step(
                vf, tr, res, counts, sid, model, states[k], sc.goal, obstacles, cfg
            )
            nxt = states[k + 1]
            if not (
                np.array_equal(ik.state.positions, nxt.positions)
                and np.array_equal(ik.state.angles, nxt.angles)
                and clearance == out.per_step_metrics[k].min_clearance
            ):
                counts["mismatched"] += 1
                res.lines.append(f"replay mismatch at {sid}")
            plain = traced(tr, res, "fabrik.solve", sid, vf.solve, model, states[k], target, cfg.ik)
            count_solve(vf, counts, plain)
            counts["reference_iterations"] += plain.iterations
            traced(tr, res, "chain.fk", sid, vf.fk, model, nxt.angles)
    return counts


def ik_round(vf, tr, res, chains, first):
    counts = new_counts()
    cfg = vf.PlannerConfig()
    round_out = []
    for chain in chains:
        if chain.planar:
            traced(tr, res, "harness.load_scenario", chain.name, vf.load_scenario, vf.scenario_path(chain.name))
        outcomes = []
        for i, target in enumerate(chain.targets):
            sid = f"{chain.name}:{i}"
            out = traced(tr, res, "fabrik.solve", sid, vf.solve, chain.model, chain.home, target)
            count_solve(vf, counts, out)
            outcomes.append(out)
            traced(tr, res, "chain.fk", sid, vf.fk, chain.model, out.state.angles)
            step_target, _, _ = replay_step(
                vf, tr, res, counts, sid, chain.model, chain.home, target, [], cfg
            )
            reference = traced(
                tr, res, "planner.reference_solve", sid, vf.solve, chain.model, chain.home, step_target, cfg.ik
            )
            counts["reference_iterations"] += reference.iterations
        record = workloads.solved_record(vf, chain, outcomes[: workloads.IK_VALIDATED_POSES])
        violations = traced(
            tr, res, "harness.validate_trajectory", chain.name, vf.validate_trajectory, chain.model, record, []
        )
        counts["states"] += min(len(outcomes), workloads.IK_VALIDATED_POSES)
        round_out.append((chain, outcomes, violations))
    if not first:
        first["ik"] = round_out
        checks.check_ik_round(vf, res, round_out)
    elif not all(checks.same_solves(a[1], b[1]) for a, b in zip(first["ik"], round_out)):
        res.problem("a later round differs from round 0")
    return counts


# per-layer metrics: name -> unit; "count" metrics come from round 0, the
# others are medians over the run's rounds
LAYER_UNITS = {
    "velocity_obstacles.filter_ms": "ms",
    "velocity_obstacles.turned_steps": "count",
    "planner.ik_phase_ms": "ms",
    "planner.ik_iterations": "count",
    "planner.ik_capped": "count",
    "planner.chooser_visits": "count",
    "planner.chooser_iter_us": "us",
    "planner.min_clearance_ms": "ms",
    "planner.min_clearance_calls": "count",
    "planner.unattributed_ms": "ms",
    "harness.validate_state_ms": "ms",
    "harness.load_scenario_ms": "ms",
    "fabrik.iter_us": "us",
    "fabrik.iterations": "count",
    "fabrik.capped": "count",
    "chain.fk_us": "us",
}


def layer_metrics(tot, c, reference):
    """One round's per-layer figures from its span totals and counts.
    reference names the plain solves made on the replayed step targets."""

    def secs(name):
        return tot.get(name, (0.0, 0))[0]

    def per_call(name):
        seconds, calls = tot.get(name, (0.0, 0))
        return seconds / calls

    steps = c["steps"]
    layers = secs("velocity_obstacles.filter") + secs("planner.ik_phase") + secs("planner.min_clearance")
    # time around the replayed layers: inside plan where there is one,
    # otherwise inside the replay's own step span
    outer = secs("planner.plan") if "planner.plan" in tot else secs("replay.step")
    return {
        "velocity_obstacles.filter_ms": 1e3 * secs("velocity_obstacles.filter") / steps,
        "velocity_obstacles.turned_steps": c["turned"],
        "planner.ik_phase_ms": 1e3 * secs("planner.ik_phase") / steps,
        "planner.ik_iterations": c["ik_iterations"],
        "planner.ik_capped": c["ik_capped"],
        "planner.chooser_visits": c["chooser_visits"],
        "planner.chooser_iter_us": 1e6
        * (secs("planner.ik_phase") / c["ik_iterations"] - secs(reference) / c["reference_iterations"]),
        "planner.min_clearance_ms": 1e3 * per_call("planner.min_clearance"),
        "planner.min_clearance_calls": tot["planner.min_clearance"][1],
        "planner.unattributed_ms": 1e3 * (outer - layers) / steps,
        "harness.validate_state_ms": 1e3 * secs("harness.validate_trajectory") / c["states"],
        "harness.load_scenario_ms": 1e3 * per_call("harness.load_scenario"),
        "fabrik.iter_us": 1e6 * secs("fabrik.solve") / c["solve_iterations"],
        "fabrik.iterations": c["solve_iterations"],
        "fabrik.capped": c["solve_capped"],
        "chain.fk_us": 1e6 * per_call("chain.fk"),
    }


def run_traced(vf, workload, inputs, seconds, out_dir, seed):
    """Traced rounds until the run's time is up; per-layer metrics."""
    res = Result()
    tr = Tracer()
    if workload == "ik":
        play, reference = ik_round, "planner.reference_solve"
    else:
        play, reference = planner_round, "fabrik.solve"
    first = {}
    rounds = []
    void = False
    deadline = time.perf_counter() + seconds
    while True:
        t_round = time.perf_counter()
        counts = play(vf, tr, res, inputs, first)
        rounds.append(layer_metrics(tr.totals(tr.round), counts, reference))
        if counts["mismatched"]:
            void = True
            res.problem(
                f"VOID: {counts['mismatched']} of {counts['steps']} replayed steps did not "
                "reproduce the recorded state; per-layer numbers are void"
            )
        tr.round += 1
        if not workloads.another_round_fits(t_round, deadline):
            break
    tr.write(out_dir / f"trace_{workload}_seed{seed}.jsonl")
    res.lines.append(f"traced rounds {len(rounds)}, spans {len(tr.spans)}")
    for name, unit in LAYER_UNITS.items():
        if void:
            value = None
        elif unit == "count":
            value = rounds[0][name]
        else:
            value = float(np.median([r[name] for r in rounds]))
        res.metrics[name] = (value, unit)
    return res
