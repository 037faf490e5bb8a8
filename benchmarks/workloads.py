"""Workload inputs and the timed, untraced rounds behind the end-to-end metrics.

A workload is built once (that is the set-up the benchmark times) and then
run in whole rounds until the run's time is up. Every round makes exactly
the same calls on exactly the same inputs, so a run's counts depend only on
how many rounds fit, never on the seed. Only calls into the package's
exported functions are timed.

Each timed unit (one one-step plan call, one validate_trajectory call on
one state, or one solve call) does the same work in every round, so the
run keeps its minimum over the rounds. Other processes on a shared machine
only ever add time to a unit; the minimum of a short unit is the steadiest
reading of what the code itself costs.
"""

import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

import checks

# workload -> (scenarios, stride): a round times the one-step plan from,
# and validates, every stride-th recorded state. The stride keeps a round
# short enough for a run to fit many rounds, so that each unit's minimum
# settles; cavity keeps 4 of its 28 steps, planar all 13.
PLANNER_SCENARIOS = {
    "cavity": (("cavity_19dof_extended",), 7),
    "planar": (("planar_2link", "planar_3link"), 1),
}

# ik workload make-up: for each link count in IK_LINK_COUNTS, IK_CHAINS_PER_COUNT
# random chains with IK_TARGETS_PER_CHAIN reachable targets each, plus
# IK_PLANAR_TARGETS targets for the shipped planar_2link chain
IK_LINK_COUNTS = range(6, 20)
IK_CHAINS_PER_COUNT = 4
IK_TARGETS_PER_CHAIN = 30
IK_PLANAR_TARGETS = 200
# the validator costs more per pose than a solve, so only the first
# IK_VALIDATED_POSES solved poses of each chain go through it
IK_VALIDATED_POSES = 5
IK_LINK_LENGTH = (0.05, 0.12)  # m
IK_LINK_THICKNESS = (0.004, 0.012)  # m
IK_LIMIT = 1.2  # rad, every pitch and yaw bound is +-IK_LIMIT
IK_PLANAR_RADIUS = (0.05, 0.19)  # m, inside the 0.2 m reach of planar_2link
IK_PLANAR_BEARING = (-1.5, 1.5)  # rad


@dataclass
class Result:
    """What one run prints: correctness, operation counts, metrics
    (name -> (value, unit)) and the lines printed before the result."""

    correct: bool = True
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    lines: list = field(default_factory=list)

    def problem(self, text):
        self.correct = False
        self.lines.append(f"CHECK FAILED: {text}")

    def skip(self, what):
        """An operation not attempted because the one it needs failed."""
        self.attempted += 1
        self.failed += 1
        self.lines.append(f"OPERATION FAILED: {what} skipped")

    def call(self, fn, *args, **kwargs):
        """One operation: a call into the package. An exception counts
        the operation as failed and returns None."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as e:  # noqa: BLE001 - the run must go on and report it
            self.failed += 1
            self.lines.append(f"OPERATION FAILED: {fn.__name__}: {type(e).__name__}: {e}")
            return None


@dataclass
class PlanCase:
    name: str
    scenario: object
    initial_state: object
    stride: int


@dataclass
class IkChain:
    name: str
    model: object
    home: object
    targets: list
    planar: bool


class Workload(NamedTuple):
    build: Callable  # (vf, seed) -> inputs; timed as set-up
    prepare: Callable  # (vf, inputs, seed) -> None; untimed input generation
    run: Callable  # (vf, inputs, seconds, out_dir) -> Result


# ---------------------------------------------------------------------------
# planner workloads: cavity and planar


def build_planner(vf, names, stride):
    cases = []
    for name in names:
        scenario = vf.load_scenario(vf.scenario_path(name))
        cases.append(PlanCase(name, scenario, scenario.initial_state(), stride))
    return cases


def another_round_fits(t_round, deadline):
    """Whether a round as long as the one begun at t_round still ends
    before the deadline, so that a run stays within its seconds."""
    now = time.perf_counter()
    return now + (now - t_round) <= deadline


def validate_rows(vf, res, model, record, obstacles, rows):
    """validate_trajectory on each of the given rows of the record as a
    call of its own, so that each row is a short unit whose minimum over
    the rounds is steady. Returns (violations, seconds per row);
    violations is None when a call raised."""
    violations, seconds = [], []
    for i in rows:
        one = slice(i, i + 1)
        row = vf.TrajectoryRecord(
            scenario=record.scenario,
            steps=record.steps[one],
            t=record.t[one],
            angles=record.angles[one],
            end_effector=record.end_effector[one],
            min_clearance=record.min_clearance[one],
            wall_time=record.wall_time[one],
        )
        t0 = time.perf_counter()
        found = res.call(vf.validate_trajectory, model, row, obstacles)
        seconds.append(time.perf_counter() - t0)
        if found is None or violations is None:
            violations = None
        else:
            violations += found
    return violations, seconds


def same_step(out, state, clearance):
    """A one-step plan reproduced the recorded next state and clearance."""
    return (
        len(out.trajectory) == 2
        and np.array_equal(out.trajectory[1].positions, state.positions)
        and np.array_equal(out.trajectory[1].angles, state.angles)
        and out.per_step_metrics[0].min_clearance == clearance
    )


def checked_plan(vf, res, case, out_dir):
    """Plan the scenario once, check it in full and print its digest.
    Returns the record and the plan's outcome, or None when a call raised."""
    sc = case.scenario
    t0 = time.perf_counter()
    outcome = res.call(vf.plan, sc.chain, case.initial_state, sc.goal, sc.obstacles, sc.planner)
    plan_s = time.perf_counter() - t0
    if outcome is None:
        res.skip(f"validate_trajectory of {case.name}")
        return None
    record = vf.record_from_outcome(sc, outcome)
    violations = res.call(vf.validate_trajectory, sc.chain, record, sc.obstacles)
    for text in checks.check_plan(vf, sc, outcome, record, violations):
        res.problem(f"{case.name}: {text}")
    digest = checks.trajectory_digest(record, out_dir)
    ref = checks.REFERENCE_DIGESTS.get(case.name)
    res.lines.append(
        f"digest {case.name} {digest} "
        + ("matches README" if digest == ref else f"DIFFERS from README {ref}")
    )
    walls = [m.wall_time for m in outcome.per_step_metrics]
    res.lines.append(
        f"plan {case.name}: status {outcome.status.value}, steps {len(walls)}, "
        f"one plan_s {plan_s:.4f}, criterion3_ms {1e3 * float(np.mean(walls)):.3f}"
    )
    return record, outcome


def step_round(vf, res, case, outcome, step_cfg):
    """One plan call for every stride-th recorded step, each from the
    recorded state before it and limited to that one step; returns the
    seconds of each call."""
    sc = case.scenario
    seconds = []
    for k in range(0, len(outcome.per_step_metrics), case.stride):
        metrics = outcome.per_step_metrics[k]
        t0 = time.perf_counter()
        out = res.call(vf.plan, sc.chain, outcome.trajectory[k], sc.goal, sc.obstacles, step_cfg)
        seconds.append(time.perf_counter() - t0)
        if out is not None and not same_step(out, outcome.trajectory[k + 1], metrics.min_clearance):
            res.problem(f"{case.name}: one-step plan from state {k} differs from the full plan")
    return seconds


def run_planner(vf, cases, seconds, out_dir):
    res = Result()
    deadline = time.perf_counter() + seconds
    plans = []
    for case in cases:
        got = checked_plan(vf, res, case, out_dir)
        if got is not None:
            step_cfg = vf.config_with_overrides(case.scenario.planner, {"max_steps": 1})
            plans.append((case, *got, step_cfg))
    # per plan: one list per round of step seconds, and of validate seconds
    times = [([], []) for _ in plans]
    rounds = 0
    while plans:
        t_round = time.perf_counter()
        for (case, record, outcome, step_cfg), (steps_s, validate_s) in zip(plans, times):
            steps_s.append(step_round(vf, res, case, outcome, step_cfg))
            rows = range(0, record.steps.shape[0], case.stride)
            violations, v_s = validate_rows(vf, res, case.scenario.chain, record, case.scenario.obstacles, rows)
            if violations:
                res.problem(f"{case.name}: validator found {violations} in a later round")
            validate_s.append(v_s)
        rounds += 1
        if not another_round_fits(t_round, deadline):
            break

    step_minima, validate_minima = [], []
    for (case, _, _, _), (steps_s, v_s) in zip(plans, times):
        minima = np.min(np.array(steps_s), axis=0)  # per-step minima
        v_minima = np.min(np.array(v_s), axis=0)  # per-state minima
        res.lines.append(
            f"scenario {case.name}: timed steps {len(minima)}, "
            f"step_ms {1e3 * float(np.mean(minima)):.3f}, "
            f"validate_ms {1e3 * float(np.mean(v_minima)):.3f}, rounds {rounds}"
        )
        step_minima.extend(minima)
        validate_minima.extend(v_minima)
    if step_minima:
        set_latency_metrics(res, step_minima, 1e3 * float(np.mean(validate_minima)))
    return res


def set_latency_metrics(res, step_seconds, validate_ms):
    """The end-to-end timing metrics of a run, all from per-unit minima."""
    step_ms = 1e3 * np.asarray(step_seconds)
    res.metrics["step_ms"] = (float(np.mean(step_ms)), "ms")
    res.metrics["step_ms_p50"] = (float(np.median(step_ms)), "ms")
    res.metrics["validate_ms"] = (validate_ms, "ms")


# ---------------------------------------------------------------------------
# ik workload: one-shot solves, no chooser, no obstacles


def build_ik(vf, seed):
    """Random limited chains and the planar_2link chain, each at its home
    (all angles zero). Targets are drawn after set-up, see ik_targets."""
    rng = np.random.default_rng([seed, 0])
    limits = vf.JointLimits.symmetric(IK_LIMIT, IK_LIMIT)
    chains = []
    for n in IK_LINK_COUNTS:
        for c in range(IK_CHAINS_PER_COUNT):
            links = list(
                zip(
                    rng.uniform(*IK_LINK_LENGTH, size=n).tolist(),
                    rng.uniform(*IK_LINK_THICKNESS, size=n).tolist(),
                )
            )
            model = vf.ChainModel(
                base=(0.0, 0.0, 0.0),
                base_direction=(1.0, 0.0, 0.0),
                links=links,
                limits=[limits] * n,
            )
            home = vf.state_from_angles(model, np.zeros((n, 2)))
            chains.append(IkChain(f"chain{n}_{c}", model, home, [], False))
    scenario = vf.load_scenario(vf.scenario_path("planar_2link"))
    chains.append(IkChain("planar_2link", scenario.chain, scenario.initial_state(), [], True))
    return chains


def ik_targets(vf, chains, seed):
    """Targets inside each chain's reach: the tip of random in-limit angles
    for the random chains, random points of the reachable annulus for
    planar_2link. Drawn from the seed, untimed."""
    rng = np.random.default_rng([seed, 1])
    for chain in chains:
        if chain.planar:
            r = rng.uniform(*IK_PLANAR_RADIUS, size=IK_PLANAR_TARGETS)
            phi = rng.uniform(*IK_PLANAR_BEARING, size=IK_PLANAR_TARGETS)
            chain.targets = [
                np.array([ri * np.cos(p), ri * np.sin(p), 0.0]) for ri, p in zip(r, phi)
            ]
        else:
            n = chain.model.n_links
            chain.targets = [
                vf.fk(chain.model, rng.uniform(-IK_LIMIT, IK_LIMIT, size=(n, 2)))[-1]
                for _ in range(IK_TARGETS_PER_CHAIN)
            ]


def solved_record(vf, chain, outcomes):
    """The chain's solved poses as a trajectory record, for the validator."""
    s = len(outcomes)
    return vf.TrajectoryRecord(
        scenario=chain.name,
        steps=np.arange(s),
        t=np.zeros(s),
        angles=np.stack([o.state.angles for o in outcomes]),
        end_effector=np.stack([o.state.end_effector for o in outcomes]),
        min_clearance=np.zeros(s),
        wall_time=np.zeros(s),
    )


def solve_chain(vf, res, chain, latencies):
    """Solve every target of one chain, then validate the first solved
    poses. Returns (outcomes, violations, validate seconds per pose)."""
    outcomes = []
    for target in chain.targets:
        t0 = time.perf_counter()
        out = res.call(vf.solve, chain.model, chain.home, target)
        latencies.append(time.perf_counter() - t0)
        outcomes.append(out)
    validated = [o for o in outcomes[:IK_VALIDATED_POSES] if o is not None]
    if len(validated) < min(len(outcomes), IK_VALIDATED_POSES):
        res.skip(f"validate_trajectory of {chain.name}")
        return outcomes, None, []
    record = solved_record(vf, chain, validated)
    violations, seconds = validate_rows(vf, res, chain.model, record, [], range(len(validated)))
    return outcomes, violations, seconds


def run_ik(vf, chains, seconds, out_dir):
    res = Result()
    first = None
    latencies, validate_s = [], []  # per round: per solve, per validated pose
    deadline = time.perf_counter() + seconds
    while True:
        t_round = time.perf_counter()
        round_lat, round_validate, round_out = [], [], []
        for chain in chains:
            outcomes, violations, v_s = solve_chain(vf, res, chain, round_lat)
            round_validate += v_s
            round_out.append((chain, outcomes, violations))
        if first is None:
            first = round_out
            checks.check_ik_round(vf, res, round_out)
        elif not all(checks.same_solves(a[1], b[1]) for a, b in zip(first, round_out)):
            res.problem("a later round differs from round 0")
        latencies.append(round_lat)
        validate_s.append(round_validate)
        if not another_round_fits(t_round, deadline):
            break

    solve_s = np.min(np.array(latencies), axis=0)  # per-solve minima
    validate_ms = 1e3 * float(np.mean(np.min(np.array(validate_s), axis=0)))
    set_latency_metrics(res, solve_s, validate_ms)
    res.lines.append(
        f"ik: {len(solve_s)} solves per round, {len(latencies)} rounds, "
        f"solves_per_s {len(solve_s) / float(np.sum(solve_s)):.1f}"
    )
    return res


def _no_prepare(vf, inputs, seed):
    """The shipped scenarios are the whole input; the seed changes nothing."""


WORKLOADS = {
    name: Workload(
        lambda vf, seed, names=names, stride=stride: build_planner(vf, names, stride),
        _no_prepare,
        run_planner,
    )
    for name, (names, stride) in PLANNER_SCENARIOS.items()
}
WORKLOADS["ik"] = Workload(build_ik, ik_targets, run_ik)
