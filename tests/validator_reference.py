"""Frozen exhaustive reference for harness.validate_trajectory.

The validator as it was before its bounding-ball reject: every link against
every obstacle and every non-adjacent link pair through the exact scalar
queries, on capsules built for every link. The package's validator must
return == Violation lists: same order, kinds, detail text and value bits.
"""

import struct

import numpy as np

from vofabrik.chain import ChainState, fk, link_capsules
from vofabrik.geometry import _segment_point_distances, as_vec3, capsule_capsule_distance
from vofabrik.harness import LIMIT_TOL, RIGID_TOL, Violation


def validate_trajectory(model, trajectory, obstacles):
    centers = [as_vec3(o.center, "obstacle center").tolist() for o in obstacles]
    out = []
    for i in range(trajectory.steps.shape[0]):
        step = int(trajectory.steps[i])
        angles = trajectory.angles[i]
        for k, lim in enumerate(model.limits):
            for axis, value, lo, hi in (
                ("pitch", float(angles[k, 0]), lim.pitch_min, lim.pitch_max),
                ("yaw", float(angles[k, 1]), lim.yaw_min, lim.yaw_max),
            ):
                if not lo - LIMIT_TOL <= value <= hi + LIMIT_TOL:
                    out.append(
                        Violation(
                            step,
                            "joint_limit",
                            f"joint {k} {axis} {value:.6g} outside [{lo:.6g}, {hi:.6g}]",
                            value,
                        )
                    )
        if not np.isfinite(angles).all():
            continue
        positions = fk(model, angles, check_limits=False)
        deviation = float(np.linalg.norm(positions[-1] - trajectory.end_effector[i]))
        if not deviation <= RIGID_TOL:
            out.append(
                Violation(
                    step,
                    "rigid_link",
                    f"link {model.n_links - 1} tip deviates from the recorded "
                    f"end effector by {deviation:.6g} m",
                    deviation,
                )
            )
        out.extend(clearance_violations(model, positions, angles, obstacles, centers, step))
    return out


def clearance_violations(model, positions, angles, obstacles, centers, step):
    capsules = link_capsules(model, ChainState(positions, angles))
    out = []
    for k, capsule in enumerate(capsules):
        gaps = _segment_point_distances(capsule.axis.a.tolist(), capsule.axis.b.tolist(), centers)
        for j, (obstacle, gap) in enumerate(zip(obstacles, gaps)):
            clearance = gap - capsule.radius - obstacle.radius
            if clearance <= 0.0:
                out.append(
                    Violation(
                        step,
                        "obstacle_clearance",
                        f"link {k} overlaps obstacle {j} (clearance {clearance:.6g} m)",
                        clearance,
                    )
                )
    for k in range(len(capsules)):
        for j in range(k + 2, len(capsules)):
            clearance = capsule_capsule_distance(capsules[k], capsules[j])
            if clearance <= 0.0:
                out.append(
                    Violation(
                        step,
                        "self_clearance",
                        f"link {k} overlaps link {j} (clearance {clearance:.6g} m)",
                        clearance,
                    )
                )
    return out


def bits(violations):
    """A Violation list as comparable keys, value bits included, so two
    lists match when == holds and a NaN value matches itself."""
    return [(type(v), v.step, v.kind, v.detail, struct.pack("<d", v.value)) for v in violations]
