"""Print the determinism digest of every shipped scenario.

    python3 benchmarks/digests.py

Plans each scenario once with its own planner settings and hashes its
trajectory the way checks.trajectory_digest does. Run from the root of a
source checkout, like run.py.
"""

import sys

import checks
import run


def main():
    if not (run.PACKAGE_DIR / "__init__.py").is_file():
        print(f"error: no package source at {run.PACKAGE_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.PACKAGE_DIR.parent))
    vf = run.import_package()
    run.OUT_DIR.mkdir(exist_ok=True)
    for name, reference in checks.REFERENCE_DIGESTS.items():
        sc = vf.load_scenario(vf.scenario_path(name))
        outcome = vf.plan(sc.chain, sc.initial_state(), sc.goal, sc.obstacles, sc.planner)
        digest = checks.trajectory_digest(vf.record_from_outcome(sc, outcome), run.OUT_DIR)
        verdict = "matches README" if digest == reference else "DIFFERS from README"
        print(f"{name} {digest} {outcome.status.value} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
