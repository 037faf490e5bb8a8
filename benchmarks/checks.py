"""Correctness checks on the benchmark's outputs.

Every check is an independent computation or a property of the method,
never a comparison with a saved copy of an earlier output. The trajectory
digests are reported against README.md but never fail a run.
"""

import hashlib
import math

import numpy as np

# SHA-256 of each shipped scenario's trajectory CSV without its wall_time
# column, as README.md records them (Python 3.11.7, numpy 2.4.6)
REFERENCE_DIGESTS = {
    "cavity_19dof": "0e97c4dd6d03ad3456a7fccd3a4a448de92757efadeb1bc1a68c44b1ad5c7861",
    "cavity_19dof_extended": "1ea901857ef4f2593e79f624653b7b93c40ee64253e3f8b89f1c6809397ff186",
    "planar_2link": "900d75e8984af2fb54a6cec3016c11713ed2877f2ce86d5602c3fe859b066c0c",
    "planar_3link": "7d8fee4ccee03fa2fd0d6ae3419a367186a707b3971575946922e689e8a816b9",
}

CLEARANCE_TOL = 1e-12  # m, oracle against the reported min_clearance column
FK_TOL = 1e-9  # m, fk of the returned angles against the returned positions
RESIDUAL_TOL = 1e-12  # m, reported residual against the tip-to-target distance
ELBOW_TOL = 1e-2  # m, planar_2link elbow against the closed form


def trajectory_digest(record, out_dir):
    """SHA-256 of the record's CSV (TrajectoryRecord.write_csv) with the
    last field, wall_time, cut from every line, lines joined by "\\n"
    with no trailing newline."""
    path = out_dir / f"{record.scenario}_trajectory.csv"
    record.write_csv(path)
    lines = path.read_text().splitlines()
    stripped = "\n".join(line.rsplit(",", 1)[0] for line in lines)
    return hashlib.sha256(stripped.encode()).hexdigest()


def clearance_oracle(vf, model, angles, obstacles):
    """Minimum clearance of one pose from geometry's capsule distances:
    every link against every obstacle, every non-adjacent link pair."""
    positions = vf.fk(model, angles, check_limits=False)
    capsules = vf.link_capsules(model, vf.ChainState(positions, angles))
    best = math.inf
    for cap in capsules:
        for o in obstacles:
            best = min(best, vf.capsule_sphere_distance(cap, o.center, o.radius))
    for i in range(len(capsules)):
        for j in range(i + 2, len(capsules)):
            best = min(best, vf.capsule_capsule_distance(capsules[i], capsules[j]))
    return best


def check_plan(vf, scenario, outcome, record, violations):
    """Problems with one plan: it must reach the goal, fk of the last
    recorded angles must put the tip within goal_tolerance, the validator
    must find nothing, and the clearance oracle must agree with every row."""
    problems = []
    if outcome.status is not vf.PlanStatus.GOAL_REACHED:
        problems.append(f"status {outcome.status.value}, expected GoalReached")
    tip = vf.fk(scenario.chain, record.angles[-1])[-1]
    miss = float(np.linalg.norm(tip - scenario.goal))
    if not miss <= scenario.planner.goal_tolerance:
        problems.append(f"fk tip {miss:.3g} m from the goal")
    if violations is None or violations:
        problems.append(f"validator violations: {violations}")
    worst = 0.0
    for angles, reported in zip(record.angles, record.min_clearance):
        oracle = clearance_oracle(vf, scenario.chain, angles, scenario.obstacles)
        worst = max(worst, abs(oracle - float(reported)))
    if not worst <= CLEARANCE_TOL:
        problems.append(f"clearance oracle differs by {worst:.3g} m")
    return problems


def same_record(a, b):
    return (
        np.array_equal(a.angles, b.angles)
        and np.array_equal(a.end_effector, b.end_effector)
        and np.array_equal(a.min_clearance, b.min_clearance)
    )


def elbow_gap(lengths, target, elbow):
    """Distance from the solved elbow to the nearer closed-form elbow:
    the intersections of the circles of radius l1 about the base and l2
    about the target, in the z = 0 plane."""
    l1, l2 = (float(x) for x in lengths)
    d = math.hypot(float(target[0]), float(target[1]))
    along = (l1 * l1 - l2 * l2 + d * d) / (2.0 * d)
    perp = math.sqrt(max(l1 * l1 - along * along, 0.0))
    tx, ty = float(target[0]) / d, float(target[1]) / d
    return min(
        math.dist(elbow.tolist(), (along * tx - s * perp * ty, along * ty + s * perp * tx, 0.0))
        for s in (1.0, -1.0)
    )


def check_solve(vf, chain, target, out, epsilon):
    """Problems with one solve; a solve that raised (None) has none."""
    if out is None:
        return []
    if out.status is vf.SolveStatus.INFEASIBLE:
        return ["INFEASIBLE for a target inside reach"]
    problems = []
    model, angles, positions = chain.model, out.state.angles, out.state.positions
    for k, lim in enumerate(model.limits):
        pitch, yaw = float(angles[k, 0]), float(angles[k, 1])
        if not (lim.pitch_min <= pitch <= lim.pitch_max and lim.yaw_min <= yaw <= lim.yaw_max):
            problems.append(f"joint {k} ({pitch}, {yaw}) outside its limits")
    gap = float(np.max(np.linalg.norm(vf.fk(model, angles, check_limits=False) - positions, axis=1)))
    if not gap <= FK_TOL:
        problems.append(f"fk of the angles is {gap:.3g} m from the positions")
    tip_miss = math.dist(positions[-1].tolist(), np.asarray(target).tolist())
    if not abs(out.residual - tip_miss) <= RESIDUAL_TOL:
        problems.append(f"residual {out.residual} but the tip is {tip_miss} m from the target")
    if out.status is vf.SolveStatus.CONVERGED:
        if not out.residual < epsilon:
            problems.append(f"CONVERGED with residual {out.residual} >= {epsilon}")
        if chain.planar and not elbow_gap(model.lengths, target, positions[1]) < ELBOW_TOL:
            problems.append("planar_2link elbow off the closed form")
    return problems


def check_ik_round(vf, res, round_out):
    """Check round 0 of the ik workload and report its counts and digest.
    Self-clearance violations are counted, not failed: one-shot IK makes
    no self-collision promise."""
    epsilon = vf.FabrikConfig().epsilon
    counts = {"converged": 0, "capped": 0, "iterations": 0, "self_clearance": 0}
    digest = hashlib.sha256()
    for chain, outcomes, violations in round_out:
        for target, out in zip(chain.targets, outcomes):
            for text in check_solve(vf, chain, target, out, epsilon):
                res.problem(f"{chain.name}: {text}")
            if out is None:
                continue
            counts["converged"] += out.status is vf.SolveStatus.CONVERGED
            counts["capped"] += out.status is vf.SolveStatus.MAX_ITERATIONS
            counts["iterations"] += out.iterations
            digest.update(out.state.angles.tobytes())
        for v in violations or ():
            if v.kind == "self_clearance":
                counts["self_clearance"] += 1
            else:
                res.problem(f"{chain.name}: validator {v.kind} at pose {v.step}: {v.detail}")
    res.lines.append(
        "ik round 0: " + ", ".join(f"{k} {v}" for k, v in counts.items())
        + f"; digest of solved angles {digest.hexdigest()}"
    )


def same_solves(a, b):
    return all(
        (x is None and y is None)
        or (
            x is not None
            and y is not None
            and x.status == y.status
            and x.iterations == y.iterations
            and np.array_equal(x.state.positions, y.state.positions)
            and np.array_equal(x.state.angles, y.state.angles)
        )
        for x, y in zip(a, b)
    )
