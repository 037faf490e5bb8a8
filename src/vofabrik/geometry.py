"""Scalar 3D geometry primitives and distance queries.

Points and vectors are plain numpy arrays of shape (3,), dtype float64.
Segments and capsules are frozen dataclasses wrapping them; a segment keeps
read-only copies of its endpoints. Everything here is a pure function of
its inputs and safe to call concurrently.

Degenerate (near zero-length) segments are rejected when they are built
instead of silently collapsing to a point, so that NaNs never propagate
into the solvers downstream. A segment cannot change afterwards, so the
distance queries need not check again.

Every vector and size enters through as_vec3 or as_length, which hold one
rule: it lies within COORDINATE_RANGE, where every distance kernel stays
finite, and so is not NaN or inf. The distance queries compute on Python
float triples, read once per endpoint, and build no array. Each dot
product goes through fma, as np.dot rounds it, so every query returns the
same distance (==) as the numpy version it replaced
(tests/geometry_reference.py). Their kernels take the float triples, so
the validator, which checks its points as Segment3 would, builds none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Segments shorter than this have no usable direction.
DEGENERACY_THRESHOLD = 1e-12

# Largest coordinate magnitude R anywhere: the segment kernel's a * e is a
# fourth power of length, at most 144 R**4, finite while R < 3e76
COORDINATE_RANGE = 1e75


def fma(a: float, b: float, c: float) -> float:
    """a * b + c rounded once, as a fused multiply-add, in Python floats.

    numpy rounds a 3-term dot x . y as fma(x2, y2, fma(x1, y1, x0 * y0)).
    Dekker's TwoProduct (Veltkamp's split by 2**27 + 1) gives a * b = p + e
    exactly, and math.fsum rounds p + e + c once (Ogita, Rump & Oishi
    2005). Exact for operands from 1e-140 to 1e150 in magnitude.
    """
    p = a * b
    t = 134217729.0 * a
    ah = t - (t - a)
    t = 134217729.0 * b
    bh = t - (t - b)
    al, bl = a - ah, b - bh
    return math.fsum((p, ((ah * bh - p) + ah * bl + al * bh) + al * bl, c))


class DegenerateSegment(ValueError):
    """Raised when a segment is too short to define a direction."""


def as_vec3(v, name: str = "vector") -> np.ndarray:
    """Coerce an array-like to a float64 3-vector within COORDINATE_RANGE, tested
    in plain floats (several times faster than numpy on 3 values); NaN and inf fail."""
    a = np.asarray(v, dtype=float)
    if a.shape == (3,):
        x, y, z = a.tolist()
        if abs(x) <= COORDINATE_RANGE and abs(y) <= COORDINATE_RANGE and abs(z) <= COORDINATE_RANGE:
            return a
    raise ValueError(f"{name} must lie within +-{COORDINATE_RANGE:g} as a finite 3-vector, got {a.tolist()}")


def as_length(x, name: str, minimum: float = 0.0) -> float:
    """Coerce a size (a length or a radius) to a float within [minimum,
    COORDINATE_RANGE]; NaN and inf fail the range test too."""
    x = float(x)
    if not minimum <= x <= COORDINATE_RANGE:
        raise ValueError(f"{name} must lie within [{minimum!r}, {COORDINATE_RANGE:g}], got {x!r}")
    return x


def _loosen(bound, scale=1.0):
    """A distance bound widened past the rounding of float sums and of
    coordinates up to scale in magnitude: 1e-9 relative and 1e-12 * scale
    absolute, thousands of roundings of either. The planner's and the
    validator's bounding-ball tests both widen their bounds here."""
    return bound * (1.0 + 1e-9) + 1e-12 * scale


@dataclass(frozen=True)
class Segment3:
    """Directed segment from a to b, with read-only copies of both ends."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        for name in ("a", "b"):
            end = as_vec3(np.array(getattr(self, name), dtype=float), f"segment end {name}")
            end.flags.writeable = False
            object.__setattr__(self, name, end)
        if float(np.linalg.norm(self.b - self.a)) < DEGENERACY_THRESHOLD:
            raise DegenerateSegment(
                f"segment endpoints coincide within {DEGENERACY_THRESHOLD} m"
            )


@dataclass(frozen=True)
class Capsule3:
    """Segment swept by a sphere of the given radius (a volumetric link)."""

    axis: Segment3
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "radius", as_length(self.radius, "capsule radius"))


def _sub(x, y):
    return (x[0] - y[0], x[1] - y[1], x[2] - y[2])


def _dot(x, y) -> float:
    # x . y of float triples, rounded as np.dot rounds it
    return fma(x[2], y[2], fma(x[1], y[1], x[0] * y[0]))


def _norm(x) -> float:
    # length of a float triple, rounded as np.linalg.norm rounds it
    return math.sqrt(_dot(x, x))


def _project(p, a, d, dd):
    # Point of the segment a + t d, t in [0, 1], closest to p; dd = d . d
    t = min(max(_dot(_sub(p, a), d) / dd, 0.0), 1.0)
    return (a[0] + t * d[0], a[1] + t * d[1], a[2] + t * d[2])


def _segment_pair_distance(a1, b1, a2, b2) -> float:
    # Distance between segments a1b1 and a2b2, given as float triples of one
    # sequence type and checked as Segment3 checks them, from Ericson's
    # clamped closest points, "Real-Time Collision Detection", 5.1.9. The
    # segment with the smaller endpoint pair goes first, so swapping the
    # segments gives the same distance exactly.
    if (a2, b2) < (a1, b1):
        a1, b1, a2, b2 = a2, b2, a1, b1
    d1 = _sub(b1, a1)
    d2 = _sub(b2, a2)
    r = _sub(a1, a2)
    a = _dot(d1, d1)
    e = _dot(d2, d2)
    f = _dot(d2, r)
    c = _dot(d1, r)
    b = _dot(d1, d2)
    denom = a * e - b * b

    # Parallel segments: pick the first segment's end closest to the other line.
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

    p1 = (a1[0] + s * d1[0], a1[1] + s * d1[1], a1[2] + s * d1[2])
    p2 = (a2[0] + t * d2[0], a2[1] + t * d2[1], a2[2] + t * d2[2])

    # The interior critical point is ill-conditioned for nearly parallel
    # segments (denom cancels), but in that regime the minimum sits at an
    # endpoint projection, which is well-conditioned. Every candidate is a
    # realizable point pair, so the minimum never undershoots.
    best = _norm(_sub(p1, p2))
    for q1 in (a1, b1):
        d = _norm(_sub(q1, _project(q1, a2, d2, e)))
        if d < best:
            best = d
    for q2 in (a2, b2):
        d = _norm(_sub(_project(q2, a1, d1, a), q2))
        if d < best:
            best = d
    return best


def capsule_sphere_distance(c: Capsule3, center, radius: float) -> float:
    """Signed clearance between a capsule and a sphere.

    Negative values mean interpenetration by that depth.
    """
    radius = as_length(radius, "sphere radius")
    center = as_vec3(center, "sphere center").tolist()
    return _segment_point_distances(c.axis.a.tolist(), c.axis.b.tolist(), [center])[0] - c.radius - radius


def _segment_point_distances(a, b, points) -> list:
    # Distance from each float triple in points to the segment ab, given as
    # float triples checked as Segment3 checks them
    d = _sub(b, a)
    dd = _dot(d, d)
    return [_norm(_sub(p, _project(p, a, d, dd))) for p in points]


def capsule_capsule_distance(c1: Capsule3, c2: Capsule3) -> float:
    """Signed clearance between two capsules (negative when overlapping),
    the same value bits in either argument order."""
    s1, s2 = c1.axis, c2.axis
    return _segment_pair_distance(s1.a.tolist(), s1.b.tolist(), s2.a.tolist(), s2.b.tolist()) - c1.radius - c2.radius
