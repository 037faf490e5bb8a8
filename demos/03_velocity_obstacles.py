"""Velocity obstacles: which velocities lead to a collision, and how to dodge.

A fixed sphere induces a cone in velocity space. Any velocity that
points inside the cone and reaches the obstacle within the time horizon
is forbidden; everything else is admissible.
When the preferred velocity is forbidden, the filter picks the nearest
admissible one from a deterministic direction fan.
"""

import numpy as np

from vofabrik import (
    AlreadyInCollision,
    SphereObstacle,
    VOConfig,
    admissible_velocity,
    collision_cone,
    first_contact_time,
    in_cone,
)

np.set_printoptions(precision=4, suppress=True)
cfg = VOConfig()  # horizon 0.6 s by default

agent_center = np.zeros(3)
agent_radius = 0.05
obstacle = SphereObstacle(center=(0.5, 0.0, 0.0), radius=0.15)
cone = collision_cone(agent_center, agent_radius, obstacle)
print(f"cone axis {cone.axis}, half angle {np.degrees(cone.half_angle):.1f} deg")

# head straight at it vs. veer off
for v in [(1.0, 0.0, 0.0), (1.0, 0.45, 0.0), (0.2, 0.0, 0.0), (-1.0, 0.0, 0.0)]:
    t = first_contact_time(v, cone)
    verdict = "FORBIDDEN" if in_cone(v, cone, cfg) else "ok"
    when = f"contact in {t:.2f} s" if np.isfinite(t) else "never touches"
    print(f"v={v}: {when:>20} -> {verdict}")

# slow approaches are fine: contact falls outside the horizon
print("\nslow approach ok because 0.3 m of gap / 0.2 m/s > 0.6 s horizon")

# the filter returns the preferred velocity untouched when it is safe,
# otherwise the nearest safe velocity of the same magnitude
cones = [cone]
for v_pref in [(0.3, 0.3, 0.0), (1.0, 0.0, 0.0)]:
    v_safe = admissible_velocity(v_pref, cones, cfg)
    moved = "kept" if np.allclose(v_safe, v_pref) else "steered to"
    print(f"v_pref={np.asarray(v_pref)} -> {moved} {v_safe}")

# overlapping spheres have no cone at all: that's a collision, not a dodge
try:
    collision_cone(agent_center, agent_radius, SphereObstacle((0.1, 0.0, 0.0), 0.15))
except AlreadyInCollision as e:
    print("\noverlapping start rejected:", e)

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    plt = None

if plt is not None:
    # paint the z=0 slice of velocity space for the cone
    span = np.linspace(-1.5, 1.5, 301)
    vx, vy = np.meshgrid(span, span)
    forbidden = np.zeros_like(vx, dtype=bool)
    for i in range(vx.shape[0]):
        for j in range(vx.shape[1]):
            v = (float(vx[i, j]), float(vy[i, j]), 0.0)
            forbidden[i, j] = any(in_cone(v, c, cfg) for c in cones)
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
