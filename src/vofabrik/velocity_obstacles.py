"""Velocity obstacles for a spherical agent among fixed spherical obstacles.

A collision cone is the set of agent velocities that lead to contact with
one obstacle when the agent moves at constant velocity. Membership
combines an angular test against the cone axis with a time-truncation
test: only collisions that would actually occur within the configured
horizon count. The truncation uses the exact first-contact time of the
agent's ray against the combined sphere, not the axial-distance shortcut,
so the admissible set has no false positives for off-axis velocities.

Velocity re-selection preserves speed: a deterministic Fibonacci sphere
lattice is scanned for the admissible direction closest to the preferred
one, then a geodesic bisection tightens it toward the preferred direction
while staying admissible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import DEGENERACY_THRESHOLD, as_length, as_vec3

_REST_SPEED = 1e-15  # m/s; a velocity slower than this never reaches an obstacle
_REFINEMENT_STEPS = 60
_BOUNDARY_EPSILON = 1e-3  # rad; in_cone's angular margin inside the cone surface
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
    """

    axis: np.ndarray
    truncation_distance: float
    combined_radius: float
    half_angle: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "axis", as_vec3(self.axis, "axis"))
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


def first_contact_time(v, cone: CollisionCone) -> float:
    """Exact time at which velocity v first touches the cone's sphere.

    Solves ||t * v - d_vec|| = combined_radius for the smaller root;
    returns +inf when the ray misses or recedes.
    """
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


def in_cone(v, cone: CollisionCone, cfg: VOConfig) -> bool:
    """Whether velocity v leads to contact within the time horizon.

    True iff v lies strictly inside the cone (angle to axis below
    half_angle - _BOUNDARY_EPSILON) and the exact first-contact time is
    within cfg.time_horizon.
    """
    v = as_vec3(v, "velocity")
    speed = float(np.linalg.norm(v))
    if speed < _REST_SPEED:
        return False
    cos_angle = float(np.dot(v, cone.axis)) / speed
    angle = math.acos(min(max(cos_angle, -1.0), 1.0))
    if angle >= cone.half_angle - _BOUNDARY_EPSILON:
        return False
    return first_contact_time(v, cone) <= cfg.time_horizon


def _fibonacci_directions(n: int) -> np.ndarray:
    """Deterministic unit-direction lattice, near-uniform on the sphere."""
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    theta = math.pi * (3.0 - math.sqrt(5.0)) * i
    return np.column_stack([r * np.cos(theta), r * np.sin(theta), z])


def _admissible(v: np.ndarray, cones, cfg: VOConfig) -> bool:
    return not any(in_cone(v, cone, cfg) for cone in cones)


def admissible_velocity(v_pref, cones, cfg: VOConfig) -> np.ndarray:
    """Admissible velocity of the same speed closest in angle to v_pref.

    Returns v_pref itself (the same array values, bit for bit) when it is
    already outside every cone. Otherwise scans the direction lattice for
    the admissible direction with the largest dot product to v_pref
    (ties: lowest lattice index), then bisects the great-circle arc toward
    v_pref, keeping the admissible endpoint.

    Raises NoAdmissibleVelocity when every lattice direction is blocked.
    """
    v_pref = as_vec3(v_pref, "v_pref")
    speed = float(np.linalg.norm(v_pref))
    if not speed > 0.0:
        raise ValueError("v_pref must be nonzero")
    if _admissible(v_pref, cones, cfg):
        return v_pref

    u_pref = v_pref / speed
    dirs = _fibonacci_directions(_DIRECTION_SAMPLES)
    scores = dirs @ u_pref
    best_index = -1
    for idx in np.argsort(-scores, kind="stable"):
        if _admissible(dirs[idx] * speed, cones, cfg):
            best_index = int(idx)
            break
    if best_index < 0:
        raise NoAdmissibleVelocity(f"all {_DIRECTION_SAMPLES} sampled directions are blocked")

    # Walk the arc between the best admissible direction and the preferred
    # one; the preferred end is blocked, so bisection converges onto the
    # admissible side of the nearest cone surface.
    good = dirs[best_index]
    bad = u_pref
    for _ in range(_REFINEMENT_STEPS):
        mid = good + bad
        norm = float(np.linalg.norm(mid))
        if norm < 1e-12:  # antipodal endpoints: arc midpoint undefined
            break
        mid /= norm
        if _admissible(mid * speed, cones, cfg):
            good = mid
        else:
            bad = mid
    return good * speed
