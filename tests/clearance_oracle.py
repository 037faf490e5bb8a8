"""Scalar reference for planner.min_clearance.

Evaluates geometry.capsule_sphere_distance on every (link, obstacle) pair
and geometry.capsule_capsule_distance on every non-adjacent link pair's
center lines (radius-0 capsules, exact since d - 0.0 - 0.0 == d), one
validated Segment3 at a time, with the same thickness subtraction as the
batched kernel, so the two must agree bit for bit.
"""

import math

import numpy as np

from vofabrik.geometry import Capsule3, Segment3, capsule_capsule_distance, capsule_sphere_distance


def scalar_min_clearance(model, positions, obstacles):
    p = np.asarray(positions, dtype=float)
    th = model.thicknesses
    n = model.n_links
    segments = [Segment3(p[i], p[i + 1]) for i in range(n)]
    best = math.inf
    for seg, t in zip(segments, th):
        capsule = Capsule3(seg, float(t))
        for o in obstacles:
            best = min(best, capsule_sphere_distance(capsule, o.center, o.radius))
    axes = [Capsule3(seg, 0.0) for seg in segments]
    for i in range(n):
        for j in range(i + 2, n):
            best = min(best, capsule_capsule_distance(axes[i], axes[j]) - th[i] - th[j])
    return best
