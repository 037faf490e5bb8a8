"""Frozen numpy reference for the scalar distance queries.

A copy of geometry's segment projection (now _project),
_segment_pair_closest, segment_segment_distance and capsule_sphere_distance
as they ran on numpy 3-vectors before the queries moved to Python float
triples: differences and witness points as numpy arrays, dot products by
np.dot and lengths by np.linalg.norm.

The geometry queries, which now return the distance alone, must give the
same distances (==) on the same segments; test_geometry checks that this
copy's witness points realize them.
"""

import numpy as np

from vofabrik.geometry import Segment3, as_vec3


def closest_point_on_segment(p, s: Segment3) -> np.ndarray:
    p = as_vec3(p)
    d = s.b - s.a
    t = float(np.dot(p - s.a, d) / np.dot(d, d))
    t = min(max(t, 0.0), 1.0)
    return s.a + t * d


def _segment_pair_closest(s1: Segment3, s2: Segment3):
    d1 = s1.b - s1.a
    d2 = s2.b - s2.a
    r = s1.a - s2.a
    a = float(np.dot(d1, d1))
    e = float(np.dot(d2, d2))
    f = float(np.dot(d2, r))
    c = float(np.dot(d1, r))
    b = float(np.dot(d1, d2))
    denom = a * e - b * b

    if denom > 0.0:
        s = min(max((b * f - c * e) / denom, 0.0), 1.0)
    else:
        s = 0.0
    t = (b * s + f) / e
    if t < 0.0:
        t = 0.0
        s = min(max(-c / a, 0.0), 1.0)
    elif t > 1.0:
        t = 1.0
        s = min(max((b - c) / a, 0.0), 1.0)

    p1 = s1.a + s * d1
    p2 = s2.a + t * d2

    best = (float(np.linalg.norm(p1 - p2)), p1, p2)
    for q1 in (s1.a, s1.b):
        q2 = closest_point_on_segment(q1, s2)
        d = float(np.linalg.norm(q1 - q2))
        if d < best[0]:
            best = (d, q1, q2)
    for q2 in (s2.a, s2.b):
        q1 = closest_point_on_segment(q2, s1)
        d = float(np.linalg.norm(q1 - q2))
        if d < best[0]:
            best = (d, q1, q2)
    return best


def _segment_key(s: Segment3):
    return (*s.a.tolist(), *s.b.tolist())


def segment_segment_distance(s1: Segment3, s2: Segment3):
    if _segment_key(s2) < _segment_key(s1):
        dist, p2, p1 = _segment_pair_closest(s2, s1)
    else:
        dist, p1, p2 = _segment_pair_closest(s1, s2)
    return dist, p1, p2


def capsule_sphere_distance(c, center, radius: float) -> float:
    if radius < 0.0:
        raise ValueError(f"sphere radius must be >= 0, got {radius}")
    center = as_vec3(center)
    cp = closest_point_on_segment(center, c.axis)
    return float(np.linalg.norm(center - cp)) - c.radius - radius
