"""Velocity obstacle tests.

The ground truth for cone membership is a time-stepped forward
simulation: move the agent at constant velocity past the fixed obstacle,
flag any sphere overlap within the horizon. The filter's kernel, _blocked,
must agree except within the membership tolerance of the cone surface.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vo_reference
from vofabrik.velocity_obstacles import (
    AlreadyInCollision,
    CollisionCone,
    NoAdmissibleVelocity,
    SphereObstacle,
    VOConfig,
    admissible_velocity,
    collision_cone,
)
from vofabrik.velocity_obstacles import (
    _BOUNDARY_EPSILON,
    _REST_SPEED,
    _blocked,
    _cone,
    _contact_time,
    _lattice,
)

ORIGIN = np.zeros(3)


def simulated_collision(agent_center, agent_radius, obstacle, v, horizon, steps=10_000):
    """Discrete constant-velocity rollout with sphere-overlap checks."""
    t = np.linspace(0.0, horizon, steps + 1)
    agent = np.asarray(agent_center)[None, :] + t[:, None] * np.asarray(v)[None, :]
    gap = np.linalg.norm(agent - obstacle.center[None, :], axis=1)
    return bool(np.any(gap <= agent_radius + obstacle.radius))


def kernel_cone(cone):
    """A CollisionCone in the kernel's form, read as admissible_velocity reads it."""
    return _cone(cone.axis.tolist(), cone.truncation_distance, cone.combined_radius)


def blocked(v, cone, cfg):
    """The filter's own membership test: whether cone blocks velocity v."""
    return _blocked(np.asarray(v, dtype=float).tolist(), [kernel_cone(cone)], cfg.time_horizon)


def enclosing_cones():
    """Six cones that leave an agent at the origin no direction to move in."""
    obstacles = [SphereObstacle(center=(0.5 * s * np.eye(3)[k]), radius=0.4) for k in range(3) for s in (+1.0, -1.0)]
    return [collision_cone(ORIGIN, 0.05, o) for o in obstacles]


def angle_to_axis(v, cone):
    c = float(np.dot(v, cone.axis)) / np.linalg.norm(v)
    return math.acos(min(max(c, -1.0), 1.0))


class TestCollisionCone:
    def test_closed_form_half_angle(self):
        obs = SphereObstacle(center=(2.0, 0.0, 0.0), radius=0.3)
        cone = collision_cone(ORIGIN, 0.1, obs)
        np.testing.assert_allclose(cone.axis, [1.0, 0.0, 0.0], atol=1e-15)
        assert cone.half_angle == pytest.approx(math.asin(0.2), abs=1e-12)
        assert cone.truncation_distance == pytest.approx(2.0, abs=1e-15)
        assert cone.combined_radius == pytest.approx(0.4, abs=1e-15)

    def test_half_angle_matches_ray_hit_boundary(self):
        # Independent check of the cone aperture: classify a dense fan of
        # ray directions by exact ray-sphere intersection and compare the
        # widest hitting angle with the stated half-angle.
        obs = SphereObstacle(center=(2.0, 0.0, 0.0), radius=0.3)
        cone = collision_cone(ORIGIN, 0.1, obs)
        phis = np.linspace(0.0, math.pi / 2, 10_000)
        dirs = np.column_stack(
            [np.cos(phis), np.sin(phis), np.zeros_like(phis)]
        )
        # ray origin 0, direction u hits sphere(c, R) iff the perpendicular
        # distance ||c - (c.u)u|| <= R with c.u > 0
        c = obs.center
        along = dirs @ c
        perp = np.linalg.norm(c[None, :] - along[:, None] * dirs, axis=1)
        hits = (along > 0.0) & (perp <= 0.4)
        widest = phis[hits].max()
        assert abs(widest - cone.half_angle) < phis[1] - phis[0] + 1e-12

    def test_small_radius_small_angle(self):
        obs = SphereObstacle(center=(2.0, 0.0, 0.0), radius=1e-6)
        cone = collision_cone(ORIGIN, 0.0, obs)
        assert cone.half_angle == pytest.approx(5e-7, rel=1e-3)

    def test_touching_distance_approaches_right_angle(self):
        obs = SphereObstacle(center=(0.4 + 1e-12, 0.0, 0.0), radius=0.3)
        cone = collision_cone(ORIGIN, 0.1, obs)
        assert cone.half_angle > math.pi / 2 - 1e-4

    def test_overlap_raises(self):
        obs = SphereObstacle(center=(0.3, 0.0, 0.0), radius=0.3)
        with pytest.raises(AlreadyInCollision):
            collision_cone(ORIGIN, 0.1, obs)

    def test_half_angle_derived_from_distance_and_radius(self):
        cone = CollisionCone(
            axis=np.array([1.0, 0.0, 0.0]),
            truncation_distance=2.0,
            combined_radius=0.4,
        )
        assert cone.half_angle == math.asin(0.2)
        with pytest.raises(TypeError):
            CollisionCone(np.array([1.0, 0.0, 0.0]), 2.0, 0.4, half_angle=0.5)

    @pytest.mark.parametrize(
        "axis", [(0.0, 0.0, 0.0), (0.5, 0.0, 0.0), (2.0, 0.0, 0.0), (1.0, 2e-6, 0.0)], ids=["zero", "half", "double", "off"]
    )
    def test_axis_not_unit_length_rejected(self, axis):
        # a zero or short axis would let a velocity aimed straight at the
        # obstacle pass unturned
        with pytest.raises(ValueError, match="axis must be unit length"):
            CollisionCone(axis, 0.5, 0.2)

    def test_collision_cone_axes_pass_the_unit_check(self):
        # the unit rule holds to 1e-12, as for ChainModel's base_direction;
        # collision_cone's axes, offset / d, are far within it
        rng = np.random.default_rng(12)
        worst = 0.0
        for _ in range(5000):
            agent = rng.normal(size=3) * 10.0 ** rng.uniform(-3.0, 6.0)
            offset = rng.normal(size=3) * 10.0 ** rng.uniform(-2.0, 3.0)
            cone = collision_cone(agent, 0.0, SphereObstacle(agent + offset, 1e-3 * float(np.linalg.norm(offset))))
            worst = max(worst, abs(float(np.linalg.norm(cone.axis)) - 1.0))
        assert worst <= 1e-15


class TestSphereObstacle:
    @pytest.mark.parametrize("velocity", [(0.0, 1.0, 0.0), (-5.0, 0.0, 0.0), (0.0, 0.0, 1e-300)])
    def test_nonzero_velocity_raises(self, velocity):
        # the chooser, min_clearance and the validator hold obstacles fixed
        with pytest.raises(ValueError, match="obstacle velocity must be zero"):
            SphereObstacle(center=(2.0, 0.0, 0.0), radius=0.3, velocity=velocity)

    @pytest.mark.parametrize(
        "kwargs", [{}, {"velocity": (0.0, 0.0, 0.0)}, {"velocity": [-0.0, 0, -0.0]}],
        ids=["absent", "zeros", "signed-zeros"],
    )
    def test_zero_velocity_accepted(self, kwargs):
        obstacle = SphereObstacle(center=(2.0, 0.0, 0.0), radius=0.3, **kwargs)
        assert obstacle.velocity.dtype == np.float64
        assert obstacle.velocity.shape == (3,)
        assert not obstacle.velocity.any()


class TestInCone:
    CFG = VOConfig(time_horizon=2.0)

    def cone(self):
        return collision_cone(
            ORIGIN, 0.1, SphereObstacle(center=(2.0, 0.0, 0.0), radius=0.3)
        )

    def test_center_ray_fast_enough(self):
        # speed * horizon = 2.0 >= d - combined = 1.6
        assert blocked(np.array([1.0, 0.0, 0.0]), self.cone(), self.CFG)

    def test_center_ray_too_slow(self):
        # speed * horizon = 1.0 < 1.6: never reaches within the horizon
        assert not blocked(np.array([0.5, 0.0, 0.0]), self.cone(), self.CFG)

    def test_perpendicular_velocity_misses(self):
        assert not blocked(np.array([0.0, 3.0, 0.0]), self.cone(), self.CFG)

    def test_zero_velocity_never_collides(self):
        assert not blocked(np.zeros(3), self.cone(), self.CFG)

    def test_first_contact_time_on_axis(self):
        _, center, c, _ = kernel_cone(self.cone())
        t = _contact_time([1.0, 0.0, 0.0], 1.0, center, c)
        assert t == pytest.approx(1.6, abs=1e-12)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_simulation_oracle(self, seed):
        rng = np.random.default_rng(seed)
        d = rng.uniform(0.5, 3.0)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        agent_r = rng.uniform(0.02, 0.2)
        obs_r = rng.uniform(0.05, min(0.6, d - agent_r - 0.05))
        obs = SphereObstacle(center=d * axis, radius=obs_r)
        cone = collision_cone(ORIGIN, agent_r, obs)
        cfg = self.CFG
        for _ in range(20):
            v = rng.normal(size=3) * rng.uniform(0.1, 2.0)
            member = blocked(v, cone, cfg)
            collides = simulated_collision(
                ORIGIN, agent_r, obs, v, cfg.time_horizon, steps=4000
            )
            if member != collides:
                assert abs(angle_to_axis(v, cone) - cone.half_angle) <= (
                    _BOUNDARY_EPSILON + 1e-9
                )


class TestAdmissibleVelocity:
    CFG = VOConfig(time_horizon=5.0)

    def test_no_cones_returns_vpref_bit_identical(self):
        v = np.array([0.3, -0.1, 0.2])
        out = admissible_velocity(v, [], self.CFG)
        assert out.tobytes() == v.tobytes()

    def test_admissible_vpref_passes_through(self):
        cone = collision_cone(
            ORIGIN, 0.1, SphereObstacle(center=(0.0, 2.0, 0.0), radius=0.3)
        )
        v = np.array([0.5, 0.0, 0.0])
        out = admissible_velocity(v, [cone], self.CFG)
        assert out.tobytes() == v.tobytes()

    def test_blocked_vpref_lands_on_cone_surface(self):
        cone = collision_cone(
            ORIGIN, 0.1, SphereObstacle(center=(1.0, 0.0, 0.0), radius=0.2)
        )
        v_pref = np.array([0.5, 0.0, 0.0])
        out = admissible_velocity(v_pref, [cone], self.CFG)
        assert np.linalg.norm(out) == pytest.approx(0.5, abs=1e-12)
        assert not blocked(out, cone, self.CFG)
        # sits just outside the membership boundary
        margin = _BOUNDARY_EPSILON
        assert abs(angle_to_axis(out, cone) - (cone.half_angle - margin)) < 1e-6

    def test_fully_enclosed_raises(self):
        with pytest.raises(NoAdmissibleVelocity):
            admissible_velocity(np.array([1.0, 0.0, 0.0]), enclosing_cones(), self.CFG)

    def test_zero_vpref_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            admissible_velocity(np.zeros(3), [], self.CFG)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_result_admissible_and_speed_preserving(self, seed):
        rng = np.random.default_rng(seed)
        cones = []
        for _ in range(rng.integers(1, 4)):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            d = rng.uniform(0.4, 2.0)
            obs = SphereObstacle(center=d * axis, radius=rng.uniform(0.05, 0.3 * d))
            cones.append(collision_cone(ORIGIN, 0.05, obs))
        v_pref = rng.normal(size=3)
        while np.linalg.norm(v_pref) < 1e-3:
            v_pref = rng.normal(size=3)
        try:
            out = admissible_velocity(v_pref, cones, self.CFG)
        except NoAdmissibleVelocity:
            return
        assert abs(np.linalg.norm(out) - np.linalg.norm(v_pref)) < 1e-12
        for cone in cones:
            assert not blocked(out, cone, self.CFG)

    def test_one_shot_cones_filtered_as_a_list(self):
        # a generator of cones is read once: every candidate velocity is
        # tested against all three cones, not only those left unread
        obstacles = [
            SphereObstacle(center=(0.5, 0.0, 0.0), radius=0.15),
            SphereObstacle(center=(0.45, 0.3, 0.0), radius=0.15),
            SphereObstacle(center=(0.45, -0.3, 0.0), radius=0.15),
        ]
        cones = [collision_cone(ORIGIN, 0.05, o) for o in obstacles]
        v_pref = np.array([1.0, 0.0, 0.0])
        want = admissible_velocity(v_pref, cones, self.CFG)
        got = admissible_velocity(v_pref, (cone for cone in cones), self.CFG)
        assert np.array_equal(got, want)
        assert not any(blocked(got, cone, self.CFG) for cone in cones)
        np.testing.assert_allclose(want, [0.917, 0.154, 0.368], atol=1e-3)

    def test_deterministic_across_calls(self):
        cone = collision_cone(
            ORIGIN, 0.1, SphereObstacle(center=(1.0, 0.2, -0.1), radius=0.25)
        )
        v = np.array([0.4, 0.1, 0.0])
        a = admissible_velocity(v, [cone], self.CFG)
        b = admissible_velocity(v.copy(), [cone], self.CFG)
        assert a.tobytes() == b.tobytes()


def filtered(v_pref, cones, cfg, filter_fn):
    """filter_fn's velocity, or the exception class it raised."""
    try:
        return filter_fn(v_pref, cones, cfg)
    except NoAdmissibleVelocity as e:
        return type(e)


def random_cones(rng, count):
    cones = []
    for _ in range(count):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        d = rng.uniform(0.3, 2.0)
        obs = SphereObstacle(center=d * axis, radius=rng.uniform(0.05, 0.9 * d - 0.05))
        cones.append(collision_cone(ORIGIN, 0.05, obs))
    return cones


class TestFrozenReference:
    """The float filter against the frozen numpy filter in vo_reference."""

    def assert_same(self, v_pref, cones, cfg):
        got = filtered(v_pref, cones, cfg, admissible_velocity)
        want = filtered(v_pref, cones, cfg, vo_reference.admissible_velocity)
        if isinstance(want, np.ndarray):
            assert isinstance(got, np.ndarray) and np.array_equal(got, want)
            return "kept" if got is v_pref else "turned"
        assert got is want
        return "none"

    def test_kernel_matches_reference_on_random_pairs(self):
        # velocities aimed near each cone's surface and horizon, random ones,
        # and ones slower than _REST_SPEED
        rng = np.random.default_rng(2024)
        outcomes = set()
        for _ in range(4000):
            (cone,) = random_cones(rng, 1)
            cfg = VOConfig(time_horizon=float(rng.uniform(0.2, 6.0)))
            aim = cone.axis + rng.normal(size=3) * rng.uniform(0.0, 1.5 * cone.half_angle)
            v = aim / np.linalg.norm(aim) * rng.uniform(0.01, 3.0)
            if rng.random() < 0.2:
                v = rng.normal(size=3) * 10.0 ** rng.uniform(-17.0, 0.5)
            member = blocked(v, cone, cfg)
            assert member == vo_reference.in_cone(v, cone, cfg)
            outcomes.add(member)
            a = float(np.dot(v, v))
            if math.sqrt(a) >= _REST_SPEED:
                _, center, c, _ = kernel_cone(cone)
                assert _contact_time(v.tolist(), a, center, c) == vo_reference.first_contact_time(v, cone)
        assert outcomes == {False, True}

    def test_filter_matches_reference_on_seeded_cone_sets(self):
        counts = {"kept": 0, "turned": 0, "none": 0}
        # every 50th set is walled in on six sides, every 100th (offset 1)
        # prefers a velocity slower than _REST_SPEED
        enclosed = enclosing_cones()
        for seed in range(3000):
            rng = np.random.default_rng(seed)
            cfg = VOConfig(time_horizon=float(rng.uniform(0.2, 6.0)))
            cones = random_cones(rng, int(rng.integers(1, 7)))
            if seed % 50 == 0:
                cones = enclosed + cones
            v_pref = rng.normal(size=3) * rng.uniform(0.1, 3.0)
            if seed % 100 == 1:
                v_pref *= 0.5 * _REST_SPEED / np.linalg.norm(v_pref)
            counts[self.assert_same(v_pref, cones, cfg)] += 1
        assert min(counts.values()) >= 50, counts

    @pytest.mark.parametrize("j", [0, 100, 255])
    def test_antipodal_bisection_endpoints(self, j):
        # every lattice direction but j is blocked on its cone's axis and the
        # preferred velocity points away from direction j, so the scan ends
        # on j and the first arc midpoint is undefined
        dirs, _ = _lattice()
        cones = [
            collision_cone(ORIGIN, 0.05, SphereObstacle(0.5 * u, 0.01))
            for u in [*np.delete(dirs, j, axis=0), -dirs[j]]
        ]
        v_pref = -1.5 * dirs[j]
        cfg = VOConfig(time_horizon=5.0)
        assert self.assert_same(v_pref, cones, cfg) == "turned"
        assert np.array_equal(admissible_velocity(v_pref, cones, cfg), dirs[j] * float(np.linalg.norm(v_pref)))
