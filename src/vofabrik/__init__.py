"""Deterministic inverse kinematics and collision-aware path planning
for hyper-redundant serial arms.

The package layers up from geometric primitives (capsule and segment
distances) through a pitch/yaw chain model, FABRIK solving, velocity
obstacle cones, an obstacle-aware planner, and a scenario harness that
runs, validates, and reports on full trajectories.
"""

from .chain import (
    AngleOutOfLimits,
    ChainModel,
    ChainState,
    InconsistentPositions,
    JointAngles,
    JointLimits,
    LinkSpec,
    fk,
    link_capsules,
    state_from_angles,
)
from .fabrik import (
    FabrikConfig,
    Phase,
    SafeSetEmpty,
    SolveOutcome,
    SolveStatus,
    clamp_to_limits,
    solve,
)
from .geometry import (
    Capsule3,
    DegenerateSegment,
    Segment3,
    capsule_capsule_distance,
    capsule_sphere_distance,
)
from .harness import (
    ParseError,
    RunReport,
    Scenario,
    TrajectoryRecord,
    ValidationError,
    Violation,
    config_with_overrides,
    load_scenario,
    make_report,
    record_from_outcome,
    run_and_report,
    scenario_from_dict,
    scenario_path,
    validate_trajectory,
)
from .planner import (
    ConeConstraints,
    InitialStateInCollision,
    PlanOutcome,
    PlanStatus,
    PlannerConfig,
    StepMetrics,
    ik_phase,
    min_clearance,
    plan,
)
from .velocity_obstacles import (
    AlreadyInCollision,
    CollisionCone,
    NoAdmissibleVelocity,
    SphereObstacle,
    VOConfig,
    admissible_velocity,
    collision_cone,
)

__all__ = [
    "AlreadyInCollision",
    "AngleOutOfLimits",
    "Capsule3",
    "ChainModel",
    "ChainState",
    "CollisionCone",
    "ConeConstraints",
    "DegenerateSegment",
    "FabrikConfig",
    "InconsistentPositions",
    "InitialStateInCollision",
    "JointAngles",
    "JointLimits",
    "LinkSpec",
    "NoAdmissibleVelocity",
    "ParseError",
    "Phase",
    "PlanOutcome",
    "PlanStatus",
    "PlannerConfig",
    "RunReport",
    "SafeSetEmpty",
    "Scenario",
    "Segment3",
    "SolveOutcome",
    "SolveStatus",
    "SphereObstacle",
    "StepMetrics",
    "TrajectoryRecord",
    "VOConfig",
    "ValidationError",
    "Violation",
    "admissible_velocity",
    "capsule_capsule_distance",
    "capsule_sphere_distance",
    "clamp_to_limits",
    "collision_cone",
    "config_with_overrides",
    "fk",
    "ik_phase",
    "link_capsules",
    "load_scenario",
    "make_report",
    "min_clearance",
    "plan",
    "record_from_outcome",
    "run_and_report",
    "scenario_from_dict",
    "scenario_path",
    "solve",
    "state_from_angles",
    "validate_trajectory",
]

__version__ = "0.1.0"
