"""Distance primitive tests.

The segment-segment and capsule distances are checked against a dense
parametric sampling oracle: evaluate the point-pair distance on a fine
grid over both parameters and take the minimum. The closed-form result
must never exceed the sampled minimum and must come within grid
resolution of it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geometry_reference
from vofabrik.geometry import (
    Capsule3,
    DegenerateSegment,
    Segment3,
    _dot,
    _project,
    _sub,
    capsule_capsule_distance,
    capsule_sphere_distance,
)


def closest_point(p, s: Segment3) -> np.ndarray:
    """geometry._project of p onto s: the clamped parametric projection
    every point-segment query runs."""
    a = s.a.tolist()
    d = _sub(s.b.tolist(), a)
    return np.array(_project(np.asarray(p, dtype=float).tolist(), a, d, _dot(d, d)))


def segment_distance(s1: Segment3, s2: Segment3) -> float:
    """The segment-segment distance: the clearance of radius-0 capsules,
    exact since d - 0.0 - 0.0 == d."""
    return capsule_capsule_distance(Capsule3(s1, 0.0), Capsule3(s2, 0.0))


def sampled_segment_distance(s1: Segment3, s2: Segment3, n: int = 1001) -> float:
    """Brute-force min distance over an n x n parameter grid."""
    t = np.linspace(0.0, 1.0, n)
    p1 = s1.a[None, :] + t[:, None] * (s1.b - s1.a)[None, :]
    p2 = s2.a[None, :] + t[:, None] * (s2.b - s2.a)[None, :]
    d2 = np.sum((p1[:, None, :] - p2[None, :, :]) ** 2, axis=2)
    return float(np.sqrt(d2.min()))


def reference_pairs(count: int, seed: int = 2024):
    """Seeded segment pairs at scales from 1e-3 to 1e3, cycling through six
    kinds: general, near-parallel, exactly parallel, collinear, touching
    (the second starts on the first) and sharing an endpoint. Exactly
    parallel and collinear pairs use small integers times a power of two,
    so their directions are exact multiples of each other."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        a1, b1, a2, b2 = rng.normal(size=(4, 3)) * scale
        kind = i % 6
        if kind == 1:
            b2 = a2 + (b1 - a1) * rng.uniform(-2.0, 2.0) + rng.normal(size=3) * scale * 1e-9
        elif kind in (2, 3):
            unit = 2.0 ** round(math.log2(scale)) / 8.0
            a1, d, a2 = rng.integers(-8, 9, size=(3, 3)) * unit
            if kind == 3:
                a2 = a1 + d * int(rng.integers(-3, 4))
            b1, b2 = a1 + d, a2 + d * int(rng.choice([-2, -1, 1, 3]))
        elif kind == 4:
            a2 = a1 + (b1 - a1) * rng.uniform(0.0, 1.0)
        elif kind == 5:
            a2 = (a1, b1)[i % 2].copy()
        yield a1, b1, a2, b2, rng.normal(size=3) * scale


class TestMatchesNumpyReference:
    """The float-triple queries against tests/geometry_reference.py, the
    numpy code they replaced."""

    def test_segment_pairs(self):
        # the distance, in both argument orders
        built = 0
        for a1, b1, a2, b2, _ in reference_pairs(3000):
            try:
                s1, s2 = Segment3(a1, b1), Segment3(a2, b2)
            except DegenerateSegment:
                continue
            for x, y in ((s1, s2), (s2, s1)):
                want = geometry_reference.segment_segment_distance(x, y)[0]
                assert segment_distance(x, y) == want, (x, y, want)
                assert capsule_capsule_distance(Capsule3(x, 0.25), Capsule3(y, 0.5)) == want - 0.25 - 0.5
            built += 1
        assert built > 2900

    def test_integer_pairs_are_exactly_parallel(self):
        # so they reach the parallel branch (denom == 0) of the kernel
        checked = 0
        for i, (a1, b1, a2, b2, _) in enumerate(reference_pairs(600)):
            if i % 6 in (2, 3) and np.linalg.norm(b2 - a2) > 0.0 and np.linalg.norm(b1 - a1) > 0.0:
                assert not np.cross(b1 - a1, b2 - a2).any()
                checked += 1
        assert checked > 150

    def test_points_and_spheres(self):
        for a1, b1, _, _, p in reference_pairs(1200):
            try:
                s = Segment3(a1, b1)
            except DegenerateSegment:
                continue
            # the point itself, an endpoint, and a point on the segment
            for q in (p, a1, 0.5 * (a1 + b1)):
                assert np.array_equal(
                    closest_point(q, s), geometry_reference.closest_point_on_segment(q, s)
                )
                cap = Capsule3(s, 0.125)
                for r in (0.0, 0.3):
                    got = capsule_sphere_distance(cap, q, r)
                    assert got == geometry_reference.capsule_sphere_distance(cap, q, r)

    def test_public_argument_checks_stay(self):
        s = Segment3((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="finite"):
            capsule_sphere_distance(Capsule3(s, 0.1), (np.nan, 0.0, 0.0), 0.1)
        with pytest.raises(ValueError, match="3-vector"):
            capsule_sphere_distance(Capsule3(s, 0.1), (0.0, 0.0), 0.1)
        with pytest.raises(ValueError, match="radius"):
            capsule_sphere_distance(Capsule3(s, 0.1), (0.0, 1.0, 0.0), -0.1)


finite_coord = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
point = st.tuples(finite_coord, finite_coord, finite_coord).map(np.array)


def segments(min_len: float = 1e-6):
    return (
        st.tuples(point, point)
        .filter(lambda ab: np.linalg.norm(ab[1] - ab[0]) > min_len)
        .map(lambda ab: Segment3(ab[0], ab[1]))
    )


class TestClosestPointOnSegment:
    def test_projects_onto_interior(self):
        s = Segment3((-1.0, 0.0, 0.0), (1.0, 0.0, 0.0))
        q = closest_point(np.array([0.25, 1.0, 0.0]), s)
        np.testing.assert_allclose(q, [0.25, 0.0, 0.0], atol=1e-15)

    def test_clamps_to_endpoint(self):
        s = Segment3((-1.0, 0.0, 0.0), (1.0, 0.0, 0.0))
        q = closest_point(np.array([5.0, 2.0, 0.0]), s)
        np.testing.assert_allclose(q, [1.0, 0.0, 0.0], atol=1e-15)

    def test_oblique_point_matches_sampling(self):
        s = Segment3((0.0, 0.0, 0.0), (1.0, 2.0, 2.0))
        p = np.array([1.0, 0.0, 1.0])
        q = closest_point(p, s)
        t = np.linspace(0.0, 1.0, 2_000_001)
        pts = s.a[None, :] + t[:, None] * (s.b - s.a)[None, :]
        best = pts[np.argmin(np.linalg.norm(pts - p, axis=1))]
        assert np.linalg.norm(q - best) < 1e-6

    @given(point, segments())
    @settings(max_examples=200, deadline=None)
    def test_result_is_global_minimum(self, p, s):
        q = closest_point(p, s)
        d = np.linalg.norm(p - q)
        for t in np.linspace(0.0, 1.0, 97):
            assert d <= np.linalg.norm(p - (s.a + t * (s.b - s.a))) + 1e-12

    @given(point, segments())
    @settings(max_examples=200, deadline=None)
    def test_projection_is_idempotent(self, p, s):
        q = closest_point(p, s)
        q2 = closest_point(q, s)
        assert np.linalg.norm(q - q2) <= 1e-12


class TestSegmentSegmentDistance:
    def test_crossing_perpendicular(self):
        s1 = Segment3((-1.0, 0.0, 0.0), (1.0, 0.0, 0.0))
        s2 = Segment3((0.0, -1.0, 1.0), (0.0, 1.0, 1.0))
        assert segment_distance(s1, s2) == pytest.approx(1.0, abs=1e-15)

    def test_parallel_offset(self):
        s1 = Segment3((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))
        s2 = Segment3((0.0, 2.0, 0.0), (1.0, 2.0, 0.0))
        assert segment_distance(s1, s2) == pytest.approx(2.0, abs=1e-15)

    def test_endpoint_to_endpoint(self):
        s1 = Segment3((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))
        s2 = Segment3((3.0, 4.0, 0.0), (5.0, 4.0, 0.0))
        assert segment_distance(s1, s2) == pytest.approx(math.sqrt(20.0), rel=1e-15)

    def test_intersecting_segments_give_zero(self):
        s1 = Segment3((-1.0, -1.0, 0.0), (1.0, 1.0, 0.0))
        s2 = Segment3((-1.0, 1.0, 0.0), (1.0, -1.0, 0.0))
        assert segment_distance(s1, s2) == pytest.approx(0.0, abs=1e-12)

    def test_skew_pair_matches_dense_sampling(self):
        s1 = Segment3((0.0, 0.0, 0.0), (2.0, 1.0, 0.5))
        s2 = Segment3((1.0, -1.0, 1.0), (0.5, 2.0, 1.5))
        d = segment_distance(s1, s2)
        ds = sampled_segment_distance(s1, s2)
        assert d <= ds + 1e-12
        assert abs(d - ds) < 1e-4

    @given(segments(), segments())
    @settings(max_examples=150, deadline=None)
    def test_never_exceeds_sampled_minimum(self, s1, s2):
        d = segment_distance(s1, s2)
        assert d >= 0.0
        assert d <= sampled_segment_distance(s1, s2, n=101) + 1e-9
        # the frozen reference gives the same distance, and its witnesses
        # realize it and lie on their segments
        want, w1, w2 = geometry_reference.segment_segment_distance(s1, s2)
        assert d == want
        assert np.linalg.norm(w1 - w2) == pytest.approx(d, abs=1e-12)
        assert np.linalg.norm(closest_point(w1, s1) - w1) < 1e-9
        assert np.linalg.norm(closest_point(w2, s2) - w2) < 1e-9

    @given(segments(), segments())
    @settings(max_examples=300, deadline=None)
    def test_symmetric_under_swap(self, s1, s2):
        assert segment_distance(s1, s2) == segment_distance(s2, s1)

    @given(segments())
    @settings(max_examples=100, deadline=None)
    def test_self_distance_is_zero(self, s):
        assert segment_distance(s, s) == 0.0

    def test_degenerate_segment_rejected(self):
        with pytest.raises(DegenerateSegment):
            Segment3((1.0, 1.0, 1.0), (1.0, 1.0, 1.0))


class TestCapsuleDistances:
    def test_sphere_beside_capsule(self):
        cap = Capsule3(Segment3((0.0, 0.0, 0.0), (1.0, 0.0, 0.0)), 0.1)
        d = capsule_sphere_distance(cap, np.array([0.5, 1.0, 0.0]), 0.25)
        assert d == pytest.approx(1.0 - 0.1 - 0.25, abs=1e-15)

    def test_overlap_is_negative(self):
        cap = Capsule3(Segment3((0.0, 0.0, 0.0), (1.0, 0.0, 0.0)), 0.3)
        d = capsule_sphere_distance(cap, np.array([0.5, 0.4, 0.0]), 0.2)
        assert d == pytest.approx(0.4 - 0.5, abs=1e-15)
        assert d < 0.0

    def test_capsule_capsule_matches_segment_distance(self):
        c1 = Capsule3(Segment3((0.0, 0.0, 0.0), (1.0, 0.0, 0.0)), 0.1)
        c2 = Capsule3(Segment3((0.0, 0.0, 1.0), (1.0, 0.0, 1.0)), 0.2)
        assert capsule_capsule_distance(c1, c2) == pytest.approx(0.7, abs=1e-15)

    @given(segments(), point, st.floats(min_value=0.0, max_value=2.0))
    @settings(max_examples=200, deadline=None)
    def test_sphere_distance_composes_from_point_distance(self, s, c, r):
        cap = Capsule3(s, 0.15)
        q = closest_point(c, s)
        expected = float(np.linalg.norm(c - q)) - 0.15 - r
        assert capsule_sphere_distance(cap, c, r) == pytest.approx(expected, abs=1e-9)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            Capsule3(Segment3((0.0, 0.0, 0.0), (1.0, 0.0, 0.0)), -0.1)
