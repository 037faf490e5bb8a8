"""The one input rule: every public entry point that takes a 3-vector or a
size rejects NaN, inf and values past COORDINATE_RANGE (and a vector of
the wrong shape) with a ValueError, so none of them hands a NaN on."""

import numpy as np
import pytest

from vofabrik import (
    Capsule3,
    ChainModel,
    CollisionCone,
    JointLimits,
    PlannerConfig,
    Segment3,
    SphereObstacle,
    VOConfig,
    admissible_velocity,
    capsule_sphere_distance,
    collision_cone,
    plan,
    solve,
    state_from_angles,
)
from vofabrik.geometry import COORDINATE_RANGE


def chain(base=(0.0, 0.0, 0.0), direction=(1.0, 0.0, 0.0), up=(0.0, 0.0, 1.0), length=1.0, thickness=0.1):
    return ChainModel(
        base=base,
        base_direction=direction,
        links=[(length, thickness)] * 3,
        limits=[JointLimits.unlimited()] * 3,
        world_up=up,
    )


SEGMENT = Segment3((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))
CAPSULE = Capsule3(SEGMENT, 0.1)
OBSTACLE = SphereObstacle((0.0, 2.0, 0.0), 0.5)
CONE = collision_cone((0.0, 0.0, 0.0), 0.1, OBSTACLE)
MODEL = chain()
STATE = state_from_angles(MODEL, np.zeros((3, 2)))

VECTOR_ENTRIES = {
    "Segment3.a": lambda v: Segment3(v, (1.0, 0.0, 0.0)),
    "Segment3.b": lambda v: Segment3((0.0, 0.0, 0.0), v),
    "capsule_sphere_distance.center": lambda v: capsule_sphere_distance(CAPSULE, v, 0.1),
    "SphereObstacle.center": lambda v: SphereObstacle(v, 0.5),
    "SphereObstacle.velocity": lambda v: SphereObstacle((0.0, 2.0, 0.0), 0.5, v),
    "CollisionCone.axis": lambda v: CollisionCone(v, 2.0, 0.6),
    "collision_cone.agent_center": lambda v: collision_cone(v, 0.1, OBSTACLE),
    "admissible_velocity.v_pref": lambda v: admissible_velocity(v, [CONE], VOConfig()),
    "ChainModel.base": lambda v: chain(base=v),
    "ChainModel.base_direction": lambda v: chain(direction=v),
    "ChainModel.world_up": lambda v: chain(up=v),
    "solve.target": lambda v: solve(MODEL, STATE, v),
    "plan.goal": lambda v: plan(MODEL, STATE, v, [OBSTACLE], PlannerConfig(max_steps=1)),
}

SIZE_ENTRIES = {
    "Capsule3.radius": lambda x: Capsule3(SEGMENT, x),
    "capsule_sphere_distance.radius": lambda x: capsule_sphere_distance(CAPSULE, (0.0, 1.0, 0.0), x),
    "SphereObstacle.radius": lambda x: SphereObstacle((0.0, 2.0, 0.0), x),
    "CollisionCone.truncation_distance": lambda x: CollisionCone((0.0, 1.0, 0.0), x, 0.2),
    "CollisionCone.combined_radius": lambda x: CollisionCone((0.0, 1.0, 0.0), 2.0, x),
    "collision_cone.agent_radius": lambda x: collision_cone((0.0, 0.0, 0.0), x, OBSTACLE),
    "ChainModel.link_length": lambda x: chain(length=x),
    "ChainModel.link_thickness": lambda x: chain(thickness=x),
}

PAST = 2.0 * COORDINATE_RANGE
BAD_SIZES = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf, "past-range": PAST}
BAD_VECTORS = {
    **{name: (x, 0.0, 0.0) for name, x in BAD_SIZES.items()},
    "short": (0.0, 1.0),
    "row": ((0.0, 1.0, 0.0),),
}

CASES = [
    pytest.param(call, bad, id=f"{entry}-{label}")
    for table, bads in ((VECTOR_ENTRIES, BAD_VECTORS), (SIZE_ENTRIES, BAD_SIZES))
    for entry, call in table.items()
    for label, bad in bads.items()
]


def test_good_values_pass():
    # the table's other arguments are valid, so each case fails on its bad
    # value; an obstacle's velocity has one good value, zero (of either sign)
    for entry, call in VECTOR_ENTRIES.items():
        call((0.0, -0.0, 0.0) if entry == "SphereObstacle.velocity" else (0.0, 0.6, 0.8))
    for call in SIZE_ENTRIES.values():
        call(0.3)


@pytest.mark.parametrize("call, bad", CASES)
def test_bad_vector_or_size_raises_value_error(call, bad):
    with pytest.raises(ValueError, match="must lie within"):
        call(bad)
