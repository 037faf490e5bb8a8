"""Velocity obstacles: which velocities lead to a collision, and how to dodge.

A fixed sphere induces a cone in velocity space. Any velocity that
points inside the cone and reaches the obstacle within the time horizon
is forbidden; everything else is admissible.
The filter, admissible_velocity, returns a safe preferred velocity as it
is, and otherwise the nearest admissible one of the same speed, picked
from a deterministic direction fan.
"""

import numpy as np

from vofabrik import (
    AlreadyInCollision,
    CollisionCone,
    NoAdmissibleVelocity,
    SphereObstacle,
    VOConfig,
    admissible_velocity,
    collision_cone,
)

np.set_printoptions(precision=4, suppress=True)
cfg = VOConfig()  # horizon 0.6 s by default

agent_center = np.zeros(3)
agent_radius = 0.05
obstacle = SphereObstacle(center=(0.5, 0.0, 0.0), radius=0.15)
cone = collision_cone(agent_center, agent_radius, obstacle)
gap = cone.truncation_distance - cone.combined_radius
print(f"cone axis {cone.axis}, half angle {np.degrees(cone.half_angle):.1f} deg, gap {gap:.2f} m")

# the same cone built from its fields, as the planner builds its own
direct = CollisionCone(axis=(1.0, 0.0, 0.0), truncation_distance=0.5, combined_radius=0.2)
print(f"built directly: half angle {np.degrees(direct.half_angle):.1f} deg")


def filtered(v):
    """The filter's verdict on velocity v against the one cone."""
    v = np.asarray(v, dtype=float)
    v_safe = admissible_velocity(v, [cone], cfg)
    return "ok" if v_safe is v else f"FORBIDDEN, steered to {v_safe}"


# head straight at it, veer off, approach slowly, move away
for v in [(1.0, 0.0, 0.0), (1.0, 0.45, 0.0), (0.2, 0.0, 0.0), (-1.0, 0.0, 0.0)]:
    print(f"v={v}: {filtered(v)}")

# slow approaches are fine: contact falls outside the horizon
print(f"\nslow approach ok because {gap:.1f} m of gap / 0.2 m/s > {cfg.time_horizon} s horizon")

# an agent walled in on all six sides has no admissible direction left
walls = [
    collision_cone(agent_center, agent_radius, SphereObstacle(0.5 * s * np.eye(3)[k], 0.4))
    for k in range(3)
    for s in (1.0, -1.0)
]
try:
    admissible_velocity((1.0, 0.0, 0.0), walls, cfg)
except NoAdmissibleVelocity as e:
    print("\nenclosed agent:", e)

# overlapping spheres have no cone at all: that's a collision, not a dodge
try:
    collision_cone(agent_center, agent_radius, SphereObstacle((0.1, 0.0, 0.0), 0.15))
except AlreadyInCollision as e:
    print("overlapping start rejected:", e)

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    plt = None

if plt is not None:
    # paint the z=0 slice of velocity space: a velocity is forbidden when
    # the filter does not return it as it is
    span = np.linspace(-1.5, 1.5, 121)
    vx, vy = np.meshgrid(span, span)
    forbidden = np.zeros_like(vx, dtype=bool)
    for i in range(vx.shape[0]):
        for j in range(vx.shape[1]):
            v = np.array([vx[i, j], vy[i, j], 0.0])
            forbidden[i, j] = v.any() and admissible_velocity(v, [cone], cfg) is not v
    fig, ax = plt.subplots(figsize=(5, 5))
    ax.contourf(vx, vy, forbidden, levels=[0.5, 1.5], colors=["#d62728"], alpha=0.35)
    ax.plot(0, 0, "k+", markersize=10)
    ax.set_xlabel("vx (m/s)")
    ax.set_ylabel("vy (m/s)")
    ax.set_title("forbidden velocities (z=0 slice)")
    ax.set_aspect("equal")
    fig.tight_layout()
    fig.savefig("velocity_obstacle_slice.png", dpi=120)
    print("\nwrote velocity_obstacle_slice.png")
