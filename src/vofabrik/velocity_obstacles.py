"""Velocity obstacles for a spherical agent among fixed spherical obstacles.

A collision cone is the set of agent velocities that lead to contact with
one obstacle when the agent moves at constant velocity. A velocity is
blocked when it lies inside a cone by the angular test and the exact time
its ray first touches the combined sphere, not the axial-distance
shortcut, is within the horizon, so the admissible set has no false
positives for off-axis velocities. One private kernel, _blocked, decides
this on Python float triples, every dot product through geometry's fma,
as np.dot rounds it (tests/vo_reference.py). It reads cones in one form,
built by _cone: admissible_velocity reads each CollisionCone through it,
and the planner's step builds its cones with it from checked obstacles.

Velocity re-selection preserves speed: one search, _search, scans a
Fibonacci sphere lattice for the admissible direction closest to the
preferred one, then a geodesic bisection tightens it toward the
preferred direction while staying admissible.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import DEGENERACY_THRESHOLD, _dot, as_length, as_vec3

_REST_SPEED = 1e-15  # m/s; a velocity slower than this never reaches an obstacle
_REFINEMENT_STEPS = 60
_BOUNDARY_EPSILON = 1e-3  # rad; a cone blocks only velocities this far inside its surface
_DIRECTION_SAMPLES = 256  # Fibonacci lattice directions scanned for a blocked v_pref


class AlreadyInCollision(ValueError):
    """Agent and obstacle spheres overlap; no cone exists."""


class NoAdmissibleVelocity(RuntimeError):
    """Every sampled direction is blocked by some cone."""


@dataclass(frozen=True)
class SphereObstacle:
    """A fixed sphere. velocity must be zero, since the chooser,
    min_clearance and the validator all hold obstacles where they are."""

    center: np.ndarray
    radius: float
    velocity: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        object.__setattr__(self, "center", as_vec3(self.center, "obstacle center"))
        object.__setattr__(self, "radius", as_length(self.radius, "obstacle radius", DEGENERACY_THRESHOLD))
        object.__setattr__(self, "velocity", as_vec3(self.velocity, "obstacle velocity"))
        if self.velocity.any():
            raise ValueError(f"obstacle velocity must be zero, got {self.velocity.tolist()}")


@dataclass(frozen=True)
class CollisionCone:
    """Truncated cone of colliding velocities for one agent/obstacle pair.

    Its apex is the zero velocity; axis points from the agent center to the
    obstacle center; truncation_distance is the center distance,
    combined_radius the sum of the two radii. half_angle,
    asin(combined_radius / truncation_distance), is derived from them.
    axis must be unit length, within 1e-12, as ChainModel's base_direction.
    """

    axis: np.ndarray
    truncation_distance: float
    combined_radius: float
    half_angle: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "axis", as_vec3(self.axis, "axis"))
        n = float(np.linalg.norm(self.axis))
        if not abs(n - 1.0) <= 1e-12:
            raise ValueError(f"axis must be unit length, norm is {n:.17g}")
        for name in ("truncation_distance", "combined_radius"):
            object.__setattr__(self, name, as_length(getattr(self, name), name))
        if self.truncation_distance <= self.combined_radius:
            raise ValueError(
                "truncation_distance must exceed combined_radius "
                f"({self.truncation_distance} <= {self.combined_radius})"
            )
        object.__setattr__(
            self, "half_angle", math.asin(self.combined_radius / self.truncation_distance)
        )


@dataclass(frozen=True)
class VOConfig:
    """Time horizon within which a collision counts."""

    time_horizon: float = 0.6

    def __post_init__(self):
        if not self.time_horizon > 0.0:
            raise ValueError(f"time_horizon must be > 0, got {self.time_horizon}")


def collision_cone(agent_center, agent_radius: float, obstacle: SphereObstacle) -> CollisionCone:
    """Cone of agent velocities whose ray passes within the combined radius.

    Raises AlreadyInCollision when the spheres overlap (center distance
    not greater than the radius sum).
    """
    agent_center = as_vec3(agent_center, "agent center")
    agent_radius = as_length(agent_radius, "agent radius")
    offset = obstacle.center - agent_center
    d = float(np.linalg.norm(offset))
    combined = agent_radius + obstacle.radius
    if d <= combined:
        raise AlreadyInCollision(
            f"center distance {d:.6g} m <= combined radius {combined:.6g} m"
        )
    return CollisionCone(axis=offset / d, truncation_distance=d, combined_radius=combined)


def _cone(axis, d: float, combined: float):
    # The cone as _blocked reads it, from its unit axis (a float triple),
    # center distance d and combined radius: the axis, the obstacle center
    # seen from the agent (axis * d), d**2 - combined**2 and the angular
    # limit, the half-angle asin(combined / d) less _BOUNDARY_EPSILON
    x, y, z = axis
    limit = math.asin(combined / d) - _BOUNDARY_EPSILON
    return (x, y, z), (x * d, y * d, z * d), d**2 - combined**2, limit


def _contact_time(v, a, center, c) -> float:
    # Smaller root t of ||t v - center|| = combined radius, for v at least
    # _REST_SPEED fast, a = v . v and c = center . center - combined**2;
    # +inf when the ray misses or recedes
    b = _dot(v, center)
    if b <= 0.0:
        return math.inf
    disc = b * b - a * c
    if disc < 0.0:
        return math.inf
    return (b - math.sqrt(disc)) / a


def _blocked(v, cones, horizon: float) -> bool:
    # Whether velocity v, at least _REST_SPEED fast, first touches the sphere
    # of one of the _cone cones within the horizon at an angle to its
    # axis below half_angle - _BOUNDARY_EPSILON
    a = _dot(v, v)
    speed = math.sqrt(a)
    if speed < _REST_SPEED:
        return False
    for axis, center, c, limit in cones:
        if _contact_time(v, a, center, c) <= horizon:
            if math.acos(min(max(_dot(v, axis) / speed, -1.0), 1.0)) < limit:
                return True
    return False


@functools.cache
def _lattice():
    # The Fibonacci lattice of unit directions, as an array and as float triples
    i = np.arange(_DIRECTION_SAMPLES)
    z = 1.0 - (2.0 * i + 1.0) / _DIRECTION_SAMPLES
    r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    theta = math.pi * (3.0 - math.sqrt(5.0)) * i
    dirs = np.column_stack([r * np.cos(theta), r * np.sin(theta), z])
    dirs.flags.writeable = False
    return dirs, dirs.tolist()


def admissible_velocity(v_pref, cones, cfg: VOConfig) -> np.ndarray:
    """Admissible velocity of the same speed closest in angle to v_pref.

    A cone blocks a velocity at least _REST_SPEED fast whose angle to the
    axis is below half_angle - _BOUNDARY_EPSILON and whose exact
    first-contact time is within cfg.time_horizon. Returns v_pref itself
    (the same array) when no cone blocks it. Otherwise scans the direction
    lattice for the admissible direction with the largest dot product to
    v_pref (ties: lowest lattice index), then bisects the great-circle arc
    toward v_pref, keeping the admissible endpoint.

    Raises NoAdmissibleVelocity when every lattice direction is blocked.
    """
    v_pref = as_vec3(v_pref, "v_pref")
    p = v_pref.tolist()
    if not _dot(p, p) > 0.0:
        raise ValueError("v_pref must be nonzero")
    cones = [_cone(c.axis.tolist(), c.truncation_distance, c.combined_radius) for c in cones]
    return _search(v_pref, cones, cfg.time_horizon)


def _search(v_pref, cones, horizon: float) -> np.ndarray:
    # admissible_velocity past its checks, on cones from _cone; a v_pref
    # slower than _REST_SPEED, zero included, is never blocked
    p = v_pref.tolist()
    if not _blocked(p, cones, horizon):
        return v_pref
    speed = math.sqrt(_dot(p, p))

    def scaled(u):
        return (u[0] * speed, u[1] * speed, u[2] * speed)

    bad = (p[0] / speed, p[1] / speed, p[2] / speed)
    dirs, triples = _lattice()
    for idx in np.argsort(-(dirs @ np.array(bad)), kind="stable").tolist():
        good = triples[idx]
        if not _blocked(scaled(good), cones, horizon):
            break
    else:
        raise NoAdmissibleVelocity(f"all {_DIRECTION_SAMPLES} sampled directions are blocked")

    # Walk the arc between the best admissible direction and the preferred
    # one; the preferred end is blocked, so bisection converges onto the
    # admissible side of the nearest cone surface.
    for _ in range(_REFINEMENT_STEPS):
        mid = (good[0] + bad[0], good[1] + bad[1], good[2] + bad[2])
        norm = math.sqrt(_dot(mid, mid))
        if norm < 1e-12:  # antipodal endpoints: arc midpoint undefined
            break
        mid = (mid[0] / norm, mid[1] / norm, mid[2] / norm)
        if _blocked(scaled(mid), cones, horizon):
            bad = mid
        else:
            good = mid
    return np.array(scaled(good))
