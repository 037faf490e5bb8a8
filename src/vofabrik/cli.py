"""Command-line front end: run scenarios, validate trajectories, compare solvers.

Exit code 0 means the run reached its goal and the independent validator
found no violations; anything else exits 1 (or 2 for unusable input).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .harness import (
    ParseError,
    TrajectoryRecord,
    ValidationError,
    config_with_overrides,
    load_scenario,
    run_and_report,
    validate_trajectory,
)

SOLVERS = ("vofabrik", "fabrik")


def _load(args):
    """The scenario with each --set key=value applied in order, as a one-key
    nested override ('ik.epsilon=1e-4' -> {'ik': {'epsilon': 1e-4}}), so a
    later pair on the same key wins."""
    scenario = load_scenario(args.scenario)
    planner = scenario.planner
    for pair in args.set:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ParseError(f"--set {pair!r}: expected key=value")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            raise ParseError(f"--set {pair!r}: {raw!r} is not a number") from None
        for part in reversed(key.split(".")):
            value = {part: value}
        planner = config_with_overrides(planner, value, "--set")
    return replace(scenario, planner=planner)


def _print_report(label, report, violations):
    print(f"{label}: {report.status}, {report.step_count} steps")
    print(f"  joint disp     {report.joint_disp_mean:.6f} +/- {report.joint_disp_std:.6f} rad")
    print(f"  time per step  {report.time_per_step_mean:.4f} +/- {report.time_per_step_std:.4f} s")
    print(f"  min clearance  {report.min_clearance:.4f} m")
    print(f"  violations     {len(violations)}")
    for v in violations[:10]:
        print(f"    step {v.step}: {v.kind}: {v.detail}")
    if len(violations) > 10:
        print(f"    ... and {len(violations) - 10} more")


def cmd_run(args) -> int:
    scenario = _load(args)
    record, report = run_and_report(scenario, solver=args.solver, out_dir=args.out_dir)
    violations = validate_trajectory(scenario.chain, record, scenario.obstacles)
    _print_report(f"{scenario.name} [{args.solver}]", report, violations)
    print(f"  wrote {Path(args.out_dir) / (scenario.name + '_' + args.solver + '_trajectory.csv')}")
    return 0 if report.status == "GoalReached" and not violations else 1


def cmd_validate(args) -> int:
    scenario = _load(args)
    record = TrajectoryRecord.read_csv(args.trajectory, scenario=scenario.name)
    violations = validate_trajectory(scenario.chain, record, scenario.obstacles)
    residual = float(np.linalg.norm(record.end_effector[-1] - scenario.goal))
    reached = residual <= scenario.planner.goal_tolerance
    for v in violations:
        print(f"step {v.step}: {v.kind}: {v.detail}")
    print(f"{scenario.name}: {len(violations)} violations, final goal distance {residual:.6g} m")
    return 0 if not violations and reached else 1


def cmd_compare(args) -> int:
    scenario = _load(args)
    results = {}
    for solver in SOLVERS:
        record, report = run_and_report(scenario, solver=solver, out_dir=args.out_dir)
        violations = validate_trajectory(scenario.chain, record, scenario.obstacles)
        results[solver] = (report, violations)

    rows = [
        ("status", lambda r, v: r.status),
        ("steps", lambda r, v: str(r.step_count)),
        ("joint disp [rad]", lambda r, v: f"{r.joint_disp_mean:.6f} +/- {r.joint_disp_std:.6f}"),
        ("time per step [s]", lambda r, v: f"{r.time_per_step_mean:.4f} +/- {r.time_per_step_std:.4f}"),
        ("min clearance [m]", lambda r, v: f"{r.min_clearance:.4f}"),
        ("validation", lambda r, v: "pass" if not v else f"FAIL ({len(v)} violations)"),
    ]
    width = max(len(s) for s in SOLVERS + ("value",)) + 24
    print(f"{scenario.name}")
    print(f"  {'':18s}" + "".join(s.rjust(width) for s in SOLVERS))
    for label, fmt in rows:
        print(f"  {label:18s}" + "".join(fmt(*results[s]).rjust(width) for s in SOLVERS))

    payload = {"scenario": scenario.name}
    for solver, (report, violations) in results.items():
        payload[solver] = {
            **report.to_dict(),
            "violations": len(violations),
            "validation": "pass" if not violations else "fail",
        }
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    compare_path = out / f"{scenario.name}_compare.json"
    compare_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"  wrote {compare_path}")

    report, violations = results["vofabrik"]
    return 0 if report.status == "GoalReached" and not violations else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vofabrik",
        description="Plan collision-free motions for hyper-redundant chains and audit the results.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a planner config field, e.g. --set ik.epsilon=1e-4",
        )

    p_run = sub.add_parser("run", help="run one solver on a scenario and validate the result")
    common(p_run)
    p_run.add_argument("--solver", choices=SOLVERS, default="vofabrik")
    p_run.add_argument("--out-dir", default=".", help="where trajectory and report files go")
    p_run.set_defaults(func=cmd_run)

    p_val = sub.add_parser("validate", help="audit a stored trajectory against a scenario")
    common(p_val)
    p_val.add_argument("--trajectory", required=True, help="trajectory CSV file")
    p_val.set_defaults(func=cmd_validate)

    p_cmp = sub.add_parser("compare", help="run both solvers and emit a side-by-side report")
    common(p_cmp)
    p_cmp.add_argument("--out-dir", default=".", help="where trajectory and report files go")
    p_cmp.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValidationError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
