"""Frozen numpy reference for the velocity filter.

A copy of first_contact_time, in_cone and admissible_velocity as they ran
on numpy arrays before the filter moved to one private kernel on Python
float triples: every velocity re-checked by as_vec3 in each call, norms by
np.linalg.norm, dot products by np.dot, and the cones iterated again for
every candidate velocity. The constants are the module's own.

velocity_obstacles.admissible_velocity must return the same velocity
(array_equal) or raise NoAdmissibleVelocity where this copy does, and its
kernel must give the same membership and contact time (==).
"""

import math

import numpy as np

from vofabrik.geometry import as_vec3
from vofabrik.velocity_obstacles import (
    _BOUNDARY_EPSILON,
    _DIRECTION_SAMPLES,
    _REFINEMENT_STEPS,
    _REST_SPEED,
    NoAdmissibleVelocity,
)


def first_contact_time(v, cone) -> float:
    v = as_vec3(v, "velocity")
    d_vec = cone.axis * cone.truncation_distance
    a = float(np.dot(v, v))
    if a < _REST_SPEED**2:
        return math.inf
    b = float(np.dot(v, d_vec))
    if b <= 0.0:
        return math.inf
    c = cone.truncation_distance**2 - cone.combined_radius**2
    disc = b * b - a * c
    if disc < 0.0:
        return math.inf
    return (b - math.sqrt(disc)) / a


def in_cone(v, cone, cfg) -> bool:
    v = as_vec3(v, "velocity")
    speed = float(np.linalg.norm(v))
    if speed < _REST_SPEED:
        return False
    cos_angle = float(np.dot(v, cone.axis)) / speed
    angle = math.acos(min(max(cos_angle, -1.0), 1.0))
    if angle >= cone.half_angle - _BOUNDARY_EPSILON:
        return False
    return first_contact_time(v, cone) <= cfg.time_horizon


def fibonacci_directions(n: int) -> np.ndarray:
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    theta = math.pi * (3.0 - math.sqrt(5.0)) * i
    return np.column_stack([r * np.cos(theta), r * np.sin(theta), z])


def admissible(v, cones, cfg) -> bool:
    return not any(in_cone(v, cone, cfg) for cone in cones)


def admissible_velocity(v_pref, cones, cfg) -> np.ndarray:
    v_pref = as_vec3(v_pref, "v_pref")
    speed = float(np.linalg.norm(v_pref))
    if not speed > 0.0:
        raise ValueError("v_pref must be nonzero")
    if admissible(v_pref, cones, cfg):
        return v_pref

    u_pref = v_pref / speed
    dirs = fibonacci_directions(_DIRECTION_SAMPLES)
    scores = dirs @ u_pref
    best_index = -1
    for idx in np.argsort(-scores, kind="stable"):
        if admissible(dirs[idx] * speed, cones, cfg):
            best_index = int(idx)
            break
    if best_index < 0:
        raise NoAdmissibleVelocity(f"all {_DIRECTION_SAMPLES} sampled directions are blocked")

    good = dirs[best_index]
    bad = u_pref
    for _ in range(_REFINEMENT_STEPS):
        mid = good + bad
        norm = float(np.linalg.norm(mid))
        if norm < 1e-12:
            break
        mid /= norm
        if admissible(mid * speed, cones, cfg):
            good = mid
        else:
            bad = mid
    return good * speed
