"""Scalar 3D geometry primitives and distance queries.

Points and vectors are plain numpy arrays of shape (3,), dtype float64.
Segments and capsules are frozen dataclasses wrapping them; a segment keeps
read-only copies of its endpoints. Everything here is a pure function of
its inputs and safe to call concurrently.

Degenerate (near zero-length) segments are rejected when they are built
instead of silently collapsing to a point, so that NaNs never propagate
into the solvers downstream. A segment cannot change afterwards, so the
distance queries need not check again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Segments shorter than this have no usable direction.
DEGENERACY_THRESHOLD = 1e-12

# Largest coordinate magnitude fma serves exactly (squares overflow past 1e154)
FMA_RANGE = 1e150


def fma(a: float, b: float, c: float) -> float:
    """a * b + c rounded once, as a fused multiply-add, in Python floats.

    numpy rounds a 3-term dot x . y as fma(x2, y2, fma(x1, y1, x0 * y0)).
    Dekker's TwoProduct (Veltkamp's split by 2**27 + 1) gives a * b = p + e
    exactly, and math.fsum rounds p + e + c once (Ogita, Rump & Oishi
    2005). Exact for operands from 1e-140 to FMA_RANGE in magnitude.
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


def as_vec3(v) -> np.ndarray:
    """Coerce an array-like to a finite float64 3-vector."""
    a = np.asarray(v, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"vector components must be finite, got {a}")
    return a


def as_point(v, name: str) -> np.ndarray:
    """Coerce a position to a float64 3-vector within the range fma serves.
    NaN and inf fail the range test too."""
    a = np.asarray(v, dtype=float)
    if a.shape != (3,) or not np.all(np.abs(a) <= FMA_RANGE):
        raise ValueError(f"{name} must lie within +-{FMA_RANGE:g} in each of 3 coordinates, got {a.tolist()}")
    return a


@dataclass(frozen=True)
class Segment3:
    """Directed segment from a to b, with read-only copies of both ends."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        for name in ("a", "b"):
            end = as_vec3(np.array(getattr(self, name), dtype=float))
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
        if self.radius < 0.0:
            raise ValueError(f"capsule radius must be >= 0, got {self.radius}")


def closest_point_on_segment(p, s: Segment3) -> np.ndarray:
    """Point of s minimizing the distance to p (clamped parametric projection)."""
    p = as_vec3(p)
    d = s.b - s.a
    t = float(np.dot(p - s.a, d) / np.dot(d, d))
    t = min(max(t, 0.0), 1.0)
    return s.a + t * d


def _segment_pair_closest(s1: Segment3, s2: Segment3):
    # Clamped closest points between two segments, after Ericson,
    # "Real-Time Collision Detection", 5.1.9.
    d1 = s1.b - s1.a
    d2 = s2.b - s2.a
    r = s1.a - s2.a
    a = float(np.dot(d1, d1))
    e = float(np.dot(d2, d2))
    f = float(np.dot(d2, r))
    c = float(np.dot(d1, r))
    b = float(np.dot(d1, d2))
    denom = a * e - b * b

    # Parallel segments: pick the s1 end closest to the s2 line.
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

    # The interior critical point is ill-conditioned for nearly parallel
    # segments (denom cancels), but in that regime the minimum sits at an
    # endpoint projection, which is well-conditioned. Every candidate is a
    # realizable point pair, so the minimum never undershoots.
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
    """Minimum distance between two segments and a witness point pair.

    Returns (distance, point_on_s1, point_on_s2). The evaluation is
    symmetrized: swapping the arguments returns the identical distance and
    the witness pair swapped.
    """
    # Evaluate in a canonical argument order so the result is exactly
    # symmetric under argument swap.
    if _segment_key(s2) < _segment_key(s1):
        dist, p2, p1 = _segment_pair_closest(s2, s1)
    else:
        dist, p1, p2 = _segment_pair_closest(s1, s2)
    return dist, p1, p2


def capsule_sphere_distance(c: Capsule3, center, radius: float) -> float:
    """Signed clearance between a capsule and a sphere.

    Negative values mean interpenetration by that depth.
    """
    if radius < 0.0:
        raise ValueError(f"sphere radius must be >= 0, got {radius}")
    center = as_vec3(center)
    cp = closest_point_on_segment(center, c.axis)
    return float(np.linalg.norm(center - cp)) - c.radius - radius


def capsule_capsule_distance(c1: Capsule3, c2: Capsule3) -> float:
    """Signed clearance between two capsules (negative when overlapping)."""
    dist, _, _ = segment_segment_distance(c1.axis, c2.axis)
    return dist - c1.radius - c2.radius
