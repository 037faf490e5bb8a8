"""Velocity obstacle tests.

The ground truth for cone membership is a time-stepped forward
simulation: move agent and obstacle at constant velocities, flag any
sphere overlap within the horizon. in_cone must agree except within the
membership tolerance of the cone surface.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vofabrik.velocity_obstacles import (
    AlreadyInCollision,
    CollisionCone,
    NoAdmissibleVelocity,
    SphereObstacle,
    VOConfig,
    admissible_velocity,
    collision_cone,
    first_contact_time,
    in_cone,
)

ORIGIN = np.zeros(3)


def simulated_collision(agent_center, agent_radius, obstacle, v, horizon, steps=10_000):
    """Discrete constant-velocity rollout with sphere-overlap checks."""
    t = np.linspace(0.0, horizon, steps + 1)
    agent = np.asarray(agent_center)[None, :] + t[:, None] * np.asarray(v)[None, :]
    obs = obstacle.center[None, :] + t[:, None] * obstacle.velocity[None, :]
    gap = np.linalg.norm(agent - obs, axis=1)
    return bool(np.any(gap <= agent_radius + obstacle.radius))


def angle_to_axis(v, cone):
    rel = np.asarray(v) - cone.apex_velocity_offset
    c = float(np.dot(rel, cone.axis)) / np.linalg.norm(rel)
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
            apex_velocity_offset=np.zeros(3),
            axis=np.array([1.0, 0.0, 0.0]),
            truncation_distance=2.0,
            combined_radius=0.4,
        )
        assert cone.half_angle == math.asin(0.2)
        with pytest.raises(TypeError):
            CollisionCone(np.zeros(3), np.array([1.0, 0.0, 0.0]), 2.0, 0.4, half_angle=0.5)


class TestInCone:
    CFG = VOConfig(time_horizon=2.0, boundary_epsilon=1e-3)

    def cone(self):
        return collision_cone(
            ORIGIN, 0.1, SphereObstacle(center=(2.0, 0.0, 0.0), radius=0.3)
        )

    def test_center_ray_fast_enough(self):
        # speed * horizon = 2.0 >= d - combined = 1.6
        assert in_cone(np.array([1.0, 0.0, 0.0]), self.cone(), self.CFG)

    def test_center_ray_too_slow(self):
        # speed * horizon = 1.0 < 1.6: never reaches within the horizon
        assert not in_cone(np.array([0.5, 0.0, 0.0]), self.cone(), self.CFG)

    def test_perpendicular_velocity_misses(self):
        assert not in_cone(np.array([0.0, 3.0, 0.0]), self.cone(), self.CFG)

    def test_zero_velocity_never_collides(self):
        assert not in_cone(np.zeros(3), self.cone(), self.CFG)

    def test_first_contact_time_on_axis(self):
        t = first_contact_time(np.array([1.0, 0.0, 0.0]), self.cone())
        assert t == pytest.approx(1.6, abs=1e-12)

    def test_moving_obstacle_shifts_apex(self):
        obs = SphereObstacle(
            center=(2.0, 0.0, 0.0), radius=0.3, velocity=(0.0, 1.0, 0.0)
        )
        cone = collision_cone(ORIGIN, 0.1, obs)
        chase = np.array([1.0, 1.0, 0.0])  # matches obstacle drift + closes in
        assert in_cone(chase, cone, self.CFG)
        assert simulated_collision(ORIGIN, 0.1, obs, chase, self.CFG.time_horizon)
        sidestep = np.array([1.0, 0.0, 0.0])  # obstacle slides out of the way
        assert not simulated_collision(ORIGIN, 0.1, obs, sidestep, self.CFG.time_horizon)
        assert not in_cone(sidestep, cone, self.CFG)

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
            member = in_cone(v, cone, cfg)
            collides = simulated_collision(
                ORIGIN, agent_r, obs, v, cfg.time_horizon, steps=4000
            )
            if member != collides:
                assert abs(angle_to_axis(v, cone) - cone.half_angle) <= (
                    cfg.boundary_epsilon + 1e-9
                )


class TestAdmissibleVelocity:
    CFG = VOConfig(time_horizon=5.0, boundary_epsilon=1e-3, direction_samples=256)

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
        assert not in_cone(out, cone, self.CFG)
        # sits just outside the membership boundary
        margin = self.CFG.boundary_epsilon
        assert abs(angle_to_axis(out, cone) - (cone.half_angle - margin)) < 1e-6

    def test_fully_enclosed_raises(self):
        obstacles = [
            SphereObstacle(center=(0.5 * s * np.eye(3)[k]), radius=0.4)
            for k in range(3)
            for s in (+1.0, -1.0)
        ]
        cones = [collision_cone(ORIGIN, 0.05, o) for o in obstacles]
        with pytest.raises(NoAdmissibleVelocity):
            admissible_velocity(np.array([1.0, 0.0, 0.0]), cones, self.CFG)

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
            assert not in_cone(out, cone, self.CFG)

    def test_deterministic_across_calls(self):
        cone = collision_cone(
            ORIGIN, 0.1, SphereObstacle(center=(1.0, 0.2, -0.1), radius=0.25)
        )
        v = np.array([0.4, 0.1, 0.0])
        a = admissible_velocity(v, [cone], self.CFG)
        b = admissible_velocity(v.copy(), [cone], self.CFG)
        assert a.tobytes() == b.tobytes()
