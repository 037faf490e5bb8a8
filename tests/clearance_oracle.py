"""Scalar reference for planner.min_clearance.

The link-pair part evaluates geometry.segment_segment_distance on one
validated Segment3 pair at a time, in the same pair order and with the
same thickness subtraction as the batched kernel, so the two must agree
bit for bit. The link-obstacle part runs the planner's row arithmetic one
obstacle at a time, where the planner stacks every obstacle's rows into
one batch.
"""

import math

import numpy as np

from vofabrik.geometry import Segment3, segment_segment_distance


def scalar_min_clearance(model, positions, obstacles):
    p = np.asarray(positions, dtype=float)
    a, b = p[:-1], p[1:]
    d = b - a
    len2 = np.einsum("ij,ij->i", d, d)
    th = model.thicknesses
    best = math.inf
    for o in obstacles:
        t = np.clip(np.einsum("ij,ij->i", o.center[None, :] - a, d) / len2, 0.0, 1.0)
        gaps = np.linalg.norm(o.center[None, :] - (a + t[:, None] * d), axis=1) - th - o.radius
        best = min(best, float(np.min(gaps)))
    n = model.n_links
    for i in range(n):
        seg_i = Segment3(p[i], p[i + 1])
        for j in range(i + 2, n):
            dist, _, _ = segment_segment_distance(seg_i, Segment3(p[j], p[j + 1]))
            best = min(best, dist - th[i] - th[j])
    return best
