"""Thread a 19-link arm through a ringed cavity, then validate the result.

This is the headline scenario: the chain starts hooked back on itself,
has to straighten out through a ring of spheres, and must keep positive
clearance the whole way. The same scenario planned without the velocity
filter heads straight through the obstacles; the planner stops it at the
first step whose clearance is not positive and reports Collision, so the
trajectory it records still validates clean.
"""

import numpy as np

from vofabrik import (
    load_scenario,
    make_report,
    plan,
    record_from_outcome,
    scenario_path,
    validate_trajectory,
)

np.set_printoptions(precision=4, suppress=True)

scenario = load_scenario(scenario_path("cavity_19dof"))
print(f"scenario: {scenario.name}")
print(f"  links: {len(scenario.chain.links)}, reach {scenario.chain.total_length:.2f} m")
print(f"  obstacles: {len(scenario.obstacles)}, goal {scenario.goal}")

records = {}
for solver in ("vofabrik", "fabrik"):
    outcome = plan(
        scenario.chain,
        scenario.initial_state(),
        scenario.goal,
        scenario.obstacles,
        scenario.planner,
        solver=solver,
    )
    record = record_from_outcome(scenario, outcome)
    report = make_report(record, outcome.status)
    violations = validate_trajectory(scenario.chain, record, scenario.obstacles)
    records[solver] = record
    print(f"\n[{solver}]")
    print(f"  status: {report.status} after {report.step_count} steps")
    print(f"  min clearance over the run: {report.min_clearance:+.4f} m")
    print(f"  mean joint displacement:    {report.joint_disp_mean:.4f} rad/step")
    print(f"  validator: {len(violations)} violations", end="")
    if violations:
        first = violations[0]
        print(f" (first: step {first.step}, {first.kind}: {first.detail})")
    else:
        print(" - trajectory certified collision-free")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    plt = None

if plt is not None:
    # top-down (x, y) view: tip paths and obstacle outlines
    fig, ax = plt.subplots(figsize=(7, 4))
    theta = np.linspace(0, 2 * np.pi, 64)
    for ob in scenario.obstacles:
        ax.plot(
            ob.center[0] + ob.radius * np.cos(theta),
            ob.center[1] + ob.radius * np.sin(theta),
            color="0.6",
        )
    for solver, color in (("vofabrik", "tab:blue"), ("fabrik", "tab:red")):
        ee = records[solver].end_effector
        ax.plot(ee[:, 0], ee[:, 1], color=color, label=f"{solver} tip path")
    ax.plot(*scenario.goal[:2], "k*", markersize=12, label="goal")
    ax.legend()
    ax.set_xlabel("x (m)")
    ax.set_ylabel("y (m)")
    ax.set_aspect("equal")
    fig.tight_layout()
    fig.savefig("cavity_tip_paths.png", dpi=120)
    print("\nwrote cavity_tip_paths.png")
