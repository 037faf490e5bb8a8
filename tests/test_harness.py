"""Scenario loading, trajectory CSV round-trips, and the independent validator."""

import collections
import json
import math
import re
import warnings
from dataclasses import asdict, fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import validator_reference as reference

from vofabrik import (
    ChainModel,
    ChainState,
    FabrikConfig,
    JointLimits,
    LinkSpec,
    ParseError,
    PlannerConfig,
    PlanStatus,
    RunReport,
    SphereObstacle,
    TrajectoryRecord,
    ValidationError,
    capsule_sphere_distance,
    config_with_overrides,
    fk,
    link_capsules,
    load_scenario,
    make_report,
    run_and_report,
    scenario_from_dict,
    scenario_path,
    validate_trajectory,
)
from vofabrik.geometry import DEGENERACY_THRESHOLD, DegenerateSegment
from vofabrik.harness import _clearance_violations


def toy_doc():
    """A small, valid 3-link planar scenario document."""
    return {
        "schema_version": 1,
        "name": "toy",
        "units": {"length": "m", "angle": "rad"},
        "chain": {
            "base": [0.0, 0.0, 0.0],
            "base_direction": [1.0, 0.0, 0.0],
            "links": [{"length": 0.1, "thickness": 0.01} for _ in range(3)],
            "limits": [{"pitch": [0.0, 0.0], "yaw": [-2.5, 2.5]} for _ in range(3)],
        },
        "initial_angles": [[0.0, 0.0]] * 3,
        "goal": [0.2, -0.1, 0.0],
        "obstacles": [{"center": [0.15, 0.09, 0.0], "radius": 0.04}],
        "planner": {"max_steps": 50},
    }


class TestLoadScenario:
    @pytest.mark.parametrize(
        "name, n_links",
        [
            ("cavity_19dof", 19),
            ("cavity_19dof_extended", 19),
            ("planar_3link", 3),
            ("planar_2link", 2),
        ],
    )
    def test_shipped_scenarios_load(self, name, n_links):
        scenario = load_scenario(scenario_path(name))
        assert scenario.name == name
        assert scenario.chain.n_links == n_links
        assert scenario.initial_angles.shape == (n_links, 2)
        assert all(ob.radius > 0 for ob in scenario.obstacles)

    def test_unknown_shipped_name(self):
        with pytest.raises(FileNotFoundError, match="planar_2link"):
            scenario_path("does_not_exist")

    def test_limits_count_mismatch(self):
        doc = toy_doc()
        doc["chain"]["limits"] = doc["chain"]["limits"][:2]
        with pytest.raises(ValidationError, match="limits count"):
            scenario_from_dict(doc)

    def test_initial_angles_count_mismatch(self):
        doc = toy_doc()
        doc["initial_angles"] = [[0.0, 0.0]] * 2
        with pytest.raises(ValidationError, match=r"initial_angles: expected 3 \(pitch, yaw\) pairs, got shape \(2, 2\)"):
            scenario_from_dict(doc)

    def test_initial_state_in_collision(self):
        doc = toy_doc()
        doc["obstacles"][0]["center"] = [0.15, 0.0, 0.0]  # sits on the straight chain
        with pytest.raises(ValidationError, match="initial state in collision"):
            scenario_from_dict(doc)

    def test_initial_angles_outside_limits(self):
        doc = toy_doc()
        doc["initial_angles"][1] = [0.0, 2.7]
        with pytest.raises(ValidationError, match="initial_angles"):
            scenario_from_dict(doc)

    def test_limits_ordering(self):
        doc = toy_doc()
        doc["chain"]["limits"][1]["yaw"] = [2.5, -2.5]
        with pytest.raises(ValidationError, match="joint 1 limits ordering"):
            scenario_from_dict(doc)

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "schema_version": 1,\n  oops\n}\n')
        with pytest.raises(ParseError, match=r"broken\.json:3:3"):
            load_scenario(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="nope.json"):
            load_scenario(tmp_path / "nope.json")

    def test_missing_field_names_path(self):
        doc = toy_doc()
        del doc["chain"]["links"][1]["thickness"]
        with pytest.raises(ParseError, match=r"chain\.links\[1\]"):
            scenario_from_dict(doc)

    def test_wrong_schema_version(self):
        doc = toy_doc()
        doc["schema_version"] = 2
        with pytest.raises(ParseError, match="schema_version"):
            scenario_from_dict(doc)

    def test_wrong_units(self):
        doc = toy_doc()
        doc["units"] = {"length": "cm", "angle": "rad"}
        with pytest.raises(ParseError, match="units"):
            scenario_from_dict(doc)

    def test_goal_must_be_vec3(self):
        doc = toy_doc()
        doc["goal"] = [0.2, -0.1]
        with pytest.raises(ParseError, match=r"goal: expected \[x, y, z\]"):
            scenario_from_dict(doc)

    def test_obstacle_radius_must_be_positive(self):
        # a well-formed radius out of range violates an invariant, as a
        # link length out of range does
        doc = toy_doc()
        doc["obstacles"][0]["radius"] = 0.0
        with pytest.raises(ValidationError, match=r"obstacles\[0\]: obstacle radius must lie within"):
            scenario_from_dict(doc)

    def test_link_degenerate_once_placed_rejected_at_load(self):
        # fk at a base 1e6 m out could round a 1e-12 m link shorter than
        # DEGENERACY_THRESHOLD, so the shortest link is 1e-12 + 4 eps extent
        doc = toy_doc()
        doc["chain"]["base"] = [1e6, 0.0, 0.0]
        doc["chain"]["links"][1] = {"length": 1e-12, "thickness": 0.0}
        doc["goal"] = [1e6 + 0.15, 0.01, 0.0]
        doc["obstacles"] = []
        with pytest.raises(ValidationError, match=r"link 1 length must lie within \[8\.89"):
            scenario_from_dict(doc)

    def test_loaded_model_never_degenerates(self):
        # a middle link within a few eps * extent of DEGENERACY_THRESHOLD,
        # at the origin and far out: loading rejects it, or every pose the
        # plan reaches keeps it intact and the validator audits them all
        rng = np.random.default_rng(17)
        eps = np.finfo(float).eps
        loaded = rejected = 0
        for case in range(40):
            base = rng.uniform(-1.0, 1.0, 3) * 10.0 ** (case % 7)
            extent = max(1.0, float(np.abs(base).max()) + 0.2)
            doc = toy_doc()
            doc["chain"]["base"] = base.tolist()
            doc["chain"]["links"] = [
                {"length": length, "thickness": 0.0}
                for length in (0.1, DEGENERACY_THRESHOLD + (0.0, 0.05, 2.0, 5.0, 8.0)[case % 5] * eps * extent, 0.1)
            ]
            doc["chain"]["limits"] = [{"pitch": [-1.5, 1.5], "yaw": [-1.5, 1.5]}] * 3
            doc["initial_angles"] = rng.uniform(-0.3, 0.3, (3, 2)).tolist()
            doc["goal"] = (base + [0.1, 0.1, rng.uniform(-0.05, 0.05)]).tolist()
            doc["obstacles"] = []
            doc["planner"] = {"max_steps": 25}
            try:
                scenario = scenario_from_dict(doc)
            except ValidationError as e:
                assert "link 1 length must lie within" in str(e)
                rejected += 1
                continue
            record, _ = run_and_report(scenario)
            validate_trajectory(scenario.chain, record, scenario.obstacles)
            loaded += 1
        assert loaded >= 10 and rejected >= 10, (loaded, rejected)

    def test_non_unit_base_direction(self):
        doc = toy_doc()
        doc["chain"]["base_direction"] = [1.0, 1.0, 0.0]
        with pytest.raises(ValidationError, match="unit length"):
            scenario_from_dict(doc)

    def test_planner_overrides_applied(self):
        doc = toy_doc()
        doc["planner"] = {"max_steps": 7, "ik": {"max_iterations": 11}, "vo": {"time_horizon": 0.9}}
        scenario = scenario_from_dict(doc)
        assert scenario.planner.max_steps == 7
        assert scenario.planner.ik.max_iterations == 11
        assert scenario.planner.vo.time_horizon == 0.9

    def test_velocity_defaults_to_zero(self):
        scenario = scenario_from_dict(toy_doc())
        assert np.array_equal(scenario.obstacles[0].velocity, np.zeros(3))

    def test_moving_obstacle_rejected(self):
        # the chooser, min_clearance and the validator hold obstacles fixed
        doc = toy_doc()
        doc["obstacles"].append({"center": [0.0, 0.2, 0.0], "radius": 0.02, "velocity": [0.0, 0.0, 0.0]})
        assert len(scenario_from_dict(doc).obstacles) == 2
        doc["obstacles"][1]["velocity"] = [0.0, -0.1, 0.0]
        with pytest.raises(ValidationError, match=r"obstacles\[1\]: obstacle velocity must be zero"):
            scenario_from_dict(doc)

    def test_malformed_velocity_rejected_by_parser(self):
        doc = toy_doc()
        doc["obstacles"][0]["velocity"] = [0.0, 0.0]
        with pytest.raises(ParseError, match=r"obstacles\[0\]\.velocity: expected \[x, y, z\]"):
            scenario_from_dict(doc)

    def test_out_of_range_velocity_fails_input_rule_first(self):
        # SphereObstacle coerces the velocity before its zero check
        doc = toy_doc()
        doc["obstacles"][0]["velocity"] = [1e80, 0.0, 0.0]
        with pytest.raises(ValidationError, match=r"obstacles\[0\]: obstacle velocity must lie within"):
            scenario_from_dict(doc)

    def test_removed_setting_rejected(self):
        doc = toy_doc()
        doc["planner"] = {"vo": {"boundary_epsilon": 0.01}}
        with pytest.raises(ParseError, match=r"scenario\.planner\.vo\.boundary_epsilon: unknown field"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize(
        "base, length",
        [
            ([0.0, 0.0, 0.0], 1e7),
            # past geometry.COORDINATE_RANGE, where the distance kernels overflow
            ([2e150, 0.0, 0.0], 1e149),
        ],
    )
    def test_inconsistent_initial_state_rejected_at_load(self, base, length):
        # ChainState.validate's tolerance grows with the chain's reach, as
        # fk's rounding does, so a 1e7 m chain loads at any pose; a base
        # past COORDINATE_RANGE is rejected whatever the pose
        doc = toy_doc()
        doc["chain"]["base"] = base
        doc["chain"]["links"] = [{"length": length, "thickness": 0.01} for _ in range(3)]
        doc["chain"]["limits"] = [{"pitch": [-1.0, 1.0], "yaw": [-1.0, 1.0]} for _ in range(3)]
        doc["goal"] = [base[0] + 2.0 * length, 0.1 * length, 0.0]
        doc["obstacles"] = []
        for angles in ((0.0, 0.0), (0.3, 0.2), (0.5, 0.5)):
            doc["initial_angles"] = [list(angles)] * 3
            if length < 1e8:
                scenario = scenario_from_dict(doc)
                scenario.initial_state().validate(scenario.chain)
            else:
                with pytest.raises(ValidationError, match="base must lie within"):
                    scenario_from_dict(doc)

    def test_goal_beyond_fma_range_rejected_at_load(self):
        doc = toy_doc()
        doc["goal"] = [1e200, 0.0, 0.0]
        with pytest.raises(ValidationError, match="goal must lie within"):
            scenario_from_dict(doc)

    def test_zero_world_up_rejected_at_load(self):
        doc = toy_doc()
        doc["chain"]["world_up"] = [0.0, 0.0, 0.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="world_up"):
                scenario_from_dict(doc)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "field, error",
        [
            ("planner.clearance_margin", ParseError),
            ("planner.angular_resolution", ParseError),
            ("planner.ik.epsilon", ParseError),
            ("chain.links.length", ValidationError),
            ("chain.links.thickness", ValidationError),
            ("goal", ValidationError),
        ],
    )
    def test_non_finite_number_rejected_at_load(self, field, error, value):
        doc = toy_doc()
        if field == "goal":
            doc["goal"][1] = value
        elif field == "planner.ik.epsilon":
            doc["planner"]["ik"] = {"epsilon": value}
        elif field.startswith("planner."):
            doc["planner"][field.split(".")[1]] = value
        else:
            doc["chain"]["links"][1] = dict(doc["chain"]["links"][1], **{field.split(".")[2]: value})
        with pytest.raises(error):
            scenario_from_dict(doc)


class TestConfigOverrides:
    def test_unknown_field(self):
        with pytest.raises(ParseError, match="planner.speed: unknown field"):
            config_with_overrides(PlannerConfig(), {"speed": 1.0})

    def test_unknown_nested_field(self):
        with pytest.raises(ParseError, match=r"planner\.ik\.foo"):
            config_with_overrides(PlannerConfig(), {"ik": {"foo": 1}})

    def test_int_field_rejects_float(self):
        with pytest.raises(ParseError, match="max_steps: expected an integer"):
            config_with_overrides(PlannerConfig(), {"max_steps": 2.5})

    @pytest.mark.parametrize("config, name", [(PlannerConfig, "max_steps"), (FabrikConfig, "max_iterations")])
    @pytest.mark.parametrize("value", [1.5, 2.0, True, "3"])
    def test_integer_settings_checked_when_built(self, config, name, value):
        # a count that is not an int would fail deep inside plan or solve
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            config(**{name: value})

    def test_rejected_value_carries_path(self):
        with pytest.raises(ParseError, match="planner"):
            config_with_overrides(PlannerConfig(), {"t_s": -1.0})

    def test_settable_keys_are_pinned(self):
        # the keys a scenario's "planner" block and --set accept, as listed
        # in the README
        def keys(config, prefix=""):
            for f in fields(config):
                value = getattr(config, f.name)
                yield from keys(value, f"{f.name}.") if is_dataclass(value) else [prefix + f.name]

        assert sorted(keys(PlannerConfig())) == [
            "angular_resolution",
            "clearance_margin",
            "goal_tolerance",
            "ik.epsilon",
            "ik.max_iterations",
            "max_steps",
            "t_s",
            "v_pref_speed",
            "vo.time_horizon",
        ]

    def test_base_untouched(self):
        base = PlannerConfig()
        config_with_overrides(base, {"goal_tolerance": 1e-2})
        assert base.goal_tolerance == 5e-3


class TestTrajectoryRecord:
    def make_record(self, s=3, n=2, seed=0):
        rng = np.random.default_rng(seed)
        return TrajectoryRecord(
            scenario="toy",
            steps=np.arange(s),
            t=np.arange(s) * 0.2,
            angles=rng.normal(size=(s, n, 2)),
            end_effector=rng.normal(size=(s, 3)),
            min_clearance=rng.uniform(0.01, 0.1, size=s),
            wall_time=np.concatenate([[0.0], rng.uniform(0, 0.01, size=s - 1)]),
        )

    def test_roundtrip_bit_identical(self, tmp_path):
        record = self.make_record(s=5, n=3, seed=7)
        path = tmp_path / "t.csv"
        record.write_csv(path)
        back = TrajectoryRecord.read_csv(path, scenario="toy")
        for field in ("steps", "t", "angles", "end_effector", "min_clearance", "wall_time"):
            assert np.array_equal(getattr(record, field), getattr(back, field)), field

    def test_header_layout(self):
        record = self.make_record(n=2)
        assert record.header() == [
            "step", "t",
            "alpha_0_pitch", "alpha_0_yaw", "alpha_1_pitch", "alpha_1_yaw",
            "ee_x", "ee_y", "ee_z", "min_clearance", "wall_time",
        ]

    def test_needs_one_row(self):
        with pytest.raises(ValueError, match="at least one row"):
            TrajectoryRecord(
                scenario="x", steps=np.array([], dtype=int), t=np.array([]),
                angles=np.zeros((0, 2, 2)), end_effector=np.zeros((0, 3)),
                min_clearance=np.array([]), wall_time=np.array([]),
            )

    def test_steps_must_increase(self):
        record = self.make_record(s=3)
        with pytest.raises(ValueError, match="strictly increasing"):
            TrajectoryRecord(
                scenario="x", steps=np.array([0, 2, 1]), t=record.t, angles=record.angles,
                end_effector=record.end_effector, min_clearance=record.min_clearance,
                wall_time=record.wall_time,
            )

    def test_read_rejects_renamed_column(self, tmp_path):
        record = self.make_record()
        path = tmp_path / "t.csv"
        record.write_csv(path)
        lines = path.read_text().splitlines()
        lines[0] = lines[0].replace("min_clearance", "clearance")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="clearance"):
            TrajectoryRecord.read_csv(path)

    def test_read_rejects_short_row(self, tmp_path):
        record = self.make_record()
        path = tmp_path / "t.csv"
        record.write_csv(path)
        lines = path.read_text().splitlines()
        lines[2] = ",".join(lines[2].split(",")[:-2])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="fields"):
            TrajectoryRecord.read_csv(path)

    @pytest.mark.parametrize("step", [1.7, math.nan, math.inf, -math.inf, 1e300, 2.0**63])
    def test_built_record_rejects_non_integral_step(self, step):
        record = self.make_record()
        steps = [0.0, step, 5.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="step indices must be finite integers"):
                replace(record, steps=steps)
            assert replace(record, steps=[0.0, 1.0, 5.0]).steps.tolist() == [0, 1, 5]

    @pytest.mark.parametrize("step", ["1.7", "nan", "1e300", "0", "-1", str(2**63)])
    def test_read_rejects_broken_step(self, tmp_path, step):
        record = self.make_record()
        path = tmp_path / "t.csv"
        record.write_csv(path)
        lines = path.read_text().splitlines()
        lines[2] = ",".join([step] + lines[2].split(",")[1:])
        path.write_text("\n".join(lines) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError, match="t.csv:3: "):
                TrajectoryRecord.read_csv(path)

    @given(
        s=st.integers(1, 4),
        n=st.integers(2, 4),
        data=st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_survives_awkward_floats(self, s, n, data, tmp_path_factory):
        finite = st.floats(
            allow_nan=False, allow_infinity=False, width=64, min_value=-1e12, max_value=1e12
        )
        def arr(shape):
            flat = data.draw(
                st.lists(finite, min_size=int(np.prod(shape)), max_size=int(np.prod(shape)))
            )
            return np.array(flat).reshape(shape)

        record = TrajectoryRecord(
            scenario="h",
            steps=np.arange(s),
            t=arr((s,)),
            angles=arr((s, n, 2)),
            end_effector=arr((s, 3)),
            min_clearance=arr((s,)),
            wall_time=arr((s,)),
        )
        path = tmp_path_factory.mktemp("rt") / "t.csv"
        record.write_csv(path)
        back = TrajectoryRecord.read_csv(path)
        assert np.array_equal(record.angles, back.angles)
        assert np.array_equal(record.t, back.t)
        assert np.array_equal(record.end_effector, back.end_effector)


class TestValidateTrajectory:
    def planar_model(self):
        return ChainModel(
            base=np.zeros(3),
            base_direction=np.array([1.0, 0.0, 0.0]),
            links=[LinkSpec(0.1, 0.01)] * 3,
            limits=[JointLimits(0.0, 0.0, -2.5, 2.5)] * 3,
        )

    def record_for(self, model, angles_per_step, clearance=1.0):
        angles = np.asarray(angles_per_step, dtype=float)
        s = angles.shape[0]
        ee = np.stack([fk(model, a, check_limits=False)[-1] for a in angles])
        return TrajectoryRecord(
            scenario="crafted", steps=np.arange(s), t=np.arange(s) * 0.2,
            angles=angles, end_effector=ee,
            min_clearance=np.full(s, clearance), wall_time=np.zeros(s),
        )

    def test_planner_output_validates_clean(self):
        scenario = load_scenario(scenario_path("planar_3link"))
        record, report = run_and_report(scenario, solver="vofabrik")
        assert report.status == "GoalReached"
        assert validate_trajectory(scenario.chain, record, scenario.obstacles) == []

    def test_link_inside_obstacle_is_exactly_one_violation(self):
        model = self.planar_model()
        record = self.record_for(model, [np.zeros((3, 2))])
        obstacle = SphereObstacle(np.array([0.15, 0.0, 0.0]), 0.03)
        violations = validate_trajectory(model, record, [obstacle])
        assert len(violations) == 1
        v = violations[0]
        assert v.kind == "obstacle_clearance"
        assert v.step == 0
        assert "link 1" in v.detail
        assert v.value < 0

    def test_obstacle_violation_values_are_capsule_sphere_distance(self):
        # the centers are read once per call, but every pair's value is
        # still capsule_sphere_distance's, bit for bit
        model = self.planar_model()
        rng = np.random.default_rng(21)
        angles = np.zeros((12, 3, 2))
        angles[:, :, 1] = rng.uniform(-1.0, 1.0, size=(12, 3))
        record = self.record_for(model, angles)
        obstacles = [
            SphereObstacle(rng.uniform((-0.1, -0.2, -0.02), (0.3, 0.2, 0.02)), float(rng.uniform(0.02, 0.08)))
            for _ in range(8)
        ]
        violations = validate_trajectory(model, record, obstacles)
        found = [v for v in violations if v.kind == "obstacle_clearance"]
        assert len(found) >= 5
        for v in found:
            k, j = map(int, re.fullmatch(r"link (\d+) overlaps obstacle (\d+) .*", v.detail).groups())
            state = ChainState(fk(model, record.angles[v.step]), record.angles[v.step])
            capsule = link_capsules(model, state)[k]
            assert v.value == capsule_sphere_distance(capsule, obstacles[j].center, obstacles[j].radius)

    def test_obstacles_given_as_a_one_shot_iterable_are_all_checked(self):
        # a sphere on link 1 of planar_3link's initial state; read twice,
        # a generator once left every obstacle pair unchecked
        scenario = load_scenario(scenario_path("planar_3link"))
        model, state = scenario.chain, scenario.initial_state()
        record = self.record_for(model, [state.angles])
        obstacles = [SphereObstacle(0.5 * (state.positions[1] + state.positions[2]), 0.02)]
        want = validate_trajectory(model, record, obstacles)
        assert [v.kind for v in want] == ["obstacle_clearance"]
        assert validate_trajectory(model, record, iter(obstacles)) == want
        assert validate_trajectory(model, record, (o for o in obstacles)) == want

    @pytest.mark.parametrize("joints", [2, 4])
    def test_joint_count_mismatch_raises_before_any_row(self, joints):
        # checked before any row: a record with fewer joints than the
        # model would index past its angles, one with more would reach
        # fk's ValueError only after the limit loop
        model = self.planar_model()
        record = TrajectoryRecord(
            scenario="crafted", steps=[0, 1], t=[0.0, 0.2], angles=np.full((2, joints, 2), 9.0),
            end_effector=np.zeros((2, 3)), min_clearance=[1.0, 1.0], wall_time=[0.0, 0.0],
        )
        with pytest.raises(ValidationError, match=f"^trajectory has {joints} joints, scenario has 3$"):
            validate_trajectory(model, record, [SphereObstacle(np.zeros(3), 0.1)])

    def test_rigid_link_violation_when_ee_edited(self):
        model = self.planar_model()
        record = self.record_for(model, [np.zeros((3, 2))])
        record.end_effector[0, 0] += 1e-6
        violations = validate_trajectory(model, record, [])
        assert [v.kind for v in violations] == ["rigid_link"]
        assert "link 2" in violations[0].detail

    def test_joint_limit_violation_names_joint_and_axis(self):
        model = self.planar_model()
        angles = np.zeros((1, 3, 2))
        angles[0, 1, 1] = 2.6
        record = self.record_for(model, angles)
        violations = validate_trajectory(model, record, [])
        kinds = {v.kind for v in violations}
        assert "joint_limit" in kinds
        limit = next(v for v in violations if v.kind == "joint_limit")
        assert "joint 1 yaw" in limit.detail

    def test_self_collision_detected(self):
        model = self.planar_model()
        angles = np.zeros((1, 3, 2))
        angles[0, 1, 1] = 2.5
        angles[0, 2, 1] = 2.5  # folds link 2 back across link 0
        record = self.record_for(model, angles)
        violations = validate_trajectory(model, record, [])
        assert [v.kind for v in violations] == ["self_clearance"]
        assert "link 0" in violations[0].detail and "link 2" in violations[0].detail

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_angle_is_a_joint_limit_violation(self, value):
        # the row has no pose: its limit check fails and it gets no other
        # check; the finite rows around it are checked as usual
        model = self.planar_model()
        record = self.record_for(model, np.zeros((3, 3, 2)))
        record.angles[1, 2, 1] = value
        record.end_effector[2, 1] += 1.0
        violations = validate_trajectory(model, record, [SphereObstacle(np.array([0.15, 0.0, 0.0]), 0.03)])
        by_step = {s: [v.kind for v in violations if v.step == s] for s in range(3)}
        assert by_step == {
            0: ["obstacle_clearance"],
            1: ["joint_limit"],
            2: ["rigid_link", "obstacle_clearance"],
        }
        limit = violations[1]
        assert "joint 2 yaw" in limit.detail
        assert np.array_equal(limit.value, value, equal_nan=True)

    def test_non_finite_end_effector_is_a_rigid_link_violation(self):
        model = self.planar_model()
        record = self.record_for(model, np.zeros((1, 3, 2)))
        record.end_effector[0, 2] = np.nan
        assert [v.kind for v in validate_trajectory(model, record, [])] == ["rigid_link"]

    def test_violation_step_uses_recorded_index(self):
        model = self.planar_model()
        angles = np.zeros((2, 3, 2))
        record = self.record_for(model, angles)
        record.end_effector[1, 1] += 1.0
        violations = validate_trajectory(model, record, [])
        assert [v.step for v in violations] == [1]


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def folded_chain(rng):
    """A random 2- to 12-link chain with yaw limits of +-2.8 rad, so its
    links fold back across each other, and thicknesses up to 3 cm."""
    n = int(rng.integers(2, 13))
    return ChainModel(
        base=rng.uniform(-0.5, 0.5, 3),
        base_direction=np.array([1.0, 0.0, 0.0]),
        links=[LinkSpec(float(rng.uniform(0.03, 0.15)), float(rng.uniform(0.0, 0.03))) for _ in range(n)],
        limits=[JointLimits(-2.0, 2.0, -2.8, 2.8)] * n,
    )


def touching_case(rng, gap, offset):
    """Positions, thicknesses and obstacles of a 4-link chain whose tight
    pairs touch to within rounding, plus gap: links 0 and 3 collinear end
    to end (their bounding balls tangent), a sphere end-on to link 3 (its
    ball tangent to link 3's) and a sphere tangent to link 0's side.
    Thicknesses are 0 on a third of the cases."""
    u = unit(rng.normal(size=3))
    v = unit(np.cross(u, rng.normal(size=3)))
    t = rng.uniform(0.0, 0.02, 4) * (rng.random() < 2 / 3)
    r = rng.uniform(0.005, 0.05, 2)
    lengths = rng.uniform(0.05, 0.2, 2)
    p0 = rng.uniform(-1.0, 1.0, 3) * offset
    p1 = p0 + lengths[0] * u
    p2 = p1 + rng.uniform(0.05, 0.2) * v
    p3 = p1 + (t[0] + t[3] + gap) * u
    p4 = p3 + lengths[1] * u
    positions = np.array([p0, p1, p2, p3, p4])
    obstacles = [
        SphereObstacle(p4 + (t[3] + r[0] + gap) * u, r[0]),
        SphereObstacle(0.5 * (p0 + p1) + (t[0] + r[1] + gap) * np.cross(u, v), r[1]),
    ]
    return positions, t, obstacles


class TestBoundingBallReject:
    """The validator skips the pairs whose bounding balls cannot touch, and
    returns the frozen exhaustive validator's Violation lists (==, value
    bits included) on every family here."""

    def check(self, model, positions, obstacles, step=0):
        centers = [o.center.tolist() for o in obstacles]
        got = _clearance_violations(model, positions, [(c, o.radius) for c, o in zip(centers, obstacles)], step)
        want = reference.clearance_violations(model, positions, np.zeros((model.n_links, 2)), obstacles, centers, step)
        assert got == want and reference.bits(got) == reference.bits(want)
        return got

    def test_random_folded_chains_with_obstacles(self):
        rng = np.random.default_rng(16)
        kinds = collections.Counter()
        for _ in range(150):
            model = folded_chain(rng)
            angles = rng.uniform(-1.0, 1.0, (6, model.n_links, 2)) * [2.1, 2.9]
            poses = [fk(model, a, check_limits=False) for a in angles]
            obstacles = []
            for _ in range(int(rng.integers(0, 12))):
                pose = poses[int(rng.integers(0, 6))]
                k = int(rng.integers(0, model.n_links))
                on_link = pose[k] + rng.random() * (pose[k + 1] - pose[k])
                obstacles.append(SphereObstacle(on_link + rng.normal(0.0, 0.05, 3), float(rng.uniform(0.005, 0.06))))
            record = TrajectoryRecord(
                scenario="folded", steps=np.arange(6), t=np.arange(6) * 0.2, angles=angles,
                end_effector=np.array([p[-1] for p in poses]) + rng.normal(0.0, 1e-9, (6, 3)),
                min_clearance=np.ones(6), wall_time=np.zeros(6),
            )
            got = validate_trajectory(model, record, obstacles)
            want = reference.validate_trajectory(model, record, obstacles)
            assert got == want and reference.bits(got) == reference.bits(want)
            kinds.update(v.kind for v in got)
        assert min(kinds[k] for k in ("joint_limit", "rigid_link", "obstacle_clearance", "self_clearance")) >= 100

    @pytest.mark.parametrize("offset", [1.0, 1e3, 1e6, 1e8])
    def test_touching_and_near_touching_pairs(self, offset):
        # at gap 0 about half of the tight pairs round to a violation, and
        # about half of those have bounding balls that round apart: only
        # the loosening keeps them on the exact path. Far out, a midpoint
        # rounds by eps/2 of its coordinates, which the loosening's scale
        # (model.extent) covers: at 1e8 m its relative part alone does not
        rng = np.random.default_rng(int(offset))
        found = collections.Counter()
        for case in range(300):
            gap = (0.0, 1e-12, -1e-12)[case % 3]
            positions, t, obstacles = touching_case(rng, gap, offset)
            lengths = np.linalg.norm(np.diff(positions, axis=0), axis=1)
            model = ChainModel(
                base=positions[0], base_direction=np.array([1.0, 0.0, 0.0]),
                links=[LinkSpec(float(l), float(w)) for l, w in zip(lengths, t)],
                limits=[JointLimits.unlimited()] * 4,
            )
            found.update((gap, v.kind, v.detail.split(" (")[0]) for v in self.check(model, positions, obstacles))
        for gap in (0.0, -1e-12):
            assert found[gap, "self_clearance", "link 0 overlaps link 3"] > 0, found
            assert found[gap, "obstacle_clearance", "link 3 overlaps obstacle 0"] > 0, found
            assert found[gap, "obstacle_clearance", "link 0 overlaps obstacle 1"] > 0, found

    @pytest.mark.parametrize("where", [0, 2, 4])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -2e75])
    def test_bad_position_raises_as_the_reference(self, where, value):
        model = ChainModel(
            base=np.zeros(3), base_direction=np.array([1.0, 0.0, 0.0]),
            links=[LinkSpec(0.1, 0.01)] * 4, limits=[JointLimits.unlimited()] * 4,
        )
        positions = fk(model, np.zeros((4, 2)))
        positions[where, 1] = value
        for obstacles in ([], [SphereObstacle(np.array([5.0, 5.0, 5.0]), 0.1)]):
            centers = [o.center.tolist() for o in obstacles]
            with pytest.raises(ValueError) as want:
                reference.clearance_violations(model, positions, np.zeros((4, 2)), obstacles, centers, 0)
            with pytest.raises(ValueError) as got:
                _clearance_violations(model, positions, [(c, o.radius) for c, o in zip(centers, obstacles)], 0)
            assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))

    @pytest.mark.parametrize("length", [0.0, 5e-13, 1.5e-12])
    def test_short_link_raises_as_the_reference(self, length):
        # below DEGENERACY_THRESHOLD a link is a DegenerateSegment wherever
        # it is and whatever pairs survive; up to twice the threshold the
        # capsule's own check decides
        model = ChainModel(
            base=np.zeros(3), base_direction=np.array([1.0, 0.0, 0.0]),
            links=[LinkSpec(0.1, 0.0)] * 4, limits=[JointLimits.unlimited()] * 4,
        )
        positions = fk(model, np.zeros((4, 2)))
        positions[3:] -= [0.1 - length, 0.0, 0.0]
        if length < DEGENERACY_THRESHOLD:
            with pytest.raises(DegenerateSegment, match="coincide"):
                reference.clearance_violations(model, positions, np.zeros((4, 2)), [], [], 0)
            with pytest.raises(DegenerateSegment, match="coincide"):
                _clearance_violations(model, positions, [], 0)
        else:
            assert self.check(model, positions, []) == []

    def test_nan_angle_row(self):
        model = folded_chain(np.random.default_rng(3))
        angles = np.zeros((3, model.n_links, 2))
        angles[1, 0, 0] = np.nan
        record = TrajectoryRecord(
            scenario="nan", steps=np.arange(3), t=np.zeros(3), angles=angles,
            end_effector=np.array([fk(model, a, check_limits=False)[-1] for a in angles]),
            min_clearance=np.ones(3), wall_time=np.zeros(3),
        )
        obstacles = [SphereObstacle(model.base + [0.1, 0.0, 0.0], 0.05)]
        got = validate_trajectory(model, record, obstacles)
        assert reference.bits(got) == reference.bits(reference.validate_trajectory(model, record, obstacles))
        assert [v.kind for v in got if v.step == 1] == ["joint_limit"]


class TestReports:
    def test_report_is_pure_function_of_record(self, tmp_path):
        scenario = load_scenario(scenario_path("planar_2link"))
        record, report = run_and_report(scenario, solver="vofabrik", out_dir=tmp_path)
        back = TrajectoryRecord.read_csv(
            tmp_path / "planar_2link_vofabrik_trajectory.csv", scenario=scenario.name
        )
        assert make_report(back, PlanStatus.GOAL_REACHED) == report

    def test_report_files_written(self, tmp_path):
        scenario = load_scenario(scenario_path("planar_2link"))
        _, report = run_and_report(scenario, solver="fabrik", out_dir=tmp_path)
        payload = json.loads((tmp_path / "planar_2link_fabrik_report.json").read_text())
        assert payload == {"scenario": "planar_2link", "solver": "fabrik", **asdict(report)}

    def test_single_row_record_reports_zeros(self):
        record = TrajectoryRecord(
            scenario="still", steps=np.array([0]), t=np.array([0.0]),
            angles=np.zeros((1, 2, 2)), end_effector=np.zeros((1, 3)),
            min_clearance=np.array([0.5]), wall_time=np.array([0.0]),
        )
        report = make_report(record, PlanStatus.GOAL_REACHED)
        assert report.step_count == 0
        assert report.joint_disp_mean == 0.0
        assert report.time_per_step_std == 0.0
        assert report.min_clearance == 0.5

    def test_same_scenario_twice_identical_minus_wall_time(self, tmp_path):
        scenario = load_scenario(scenario_path("planar_3link"))
        a, _ = run_and_report(scenario, solver="vofabrik", out_dir=tmp_path / "a")
        b, _ = run_and_report(scenario, solver="vofabrik", out_dir=tmp_path / "b")
        assert np.array_equal(a.angles, b.angles)
        assert np.array_equal(a.end_effector, b.end_effector)
        assert np.array_equal(a.min_clearance, b.min_clearance)
        text_a = (tmp_path / "a" / "planar_3link_vofabrik_trajectory.csv").read_text()
        text_b = (tmp_path / "b" / "planar_3link_vofabrik_trajectory.csv").read_text()
        strip = lambda text: ["," .join(line.split(",")[:-1]) for line in text.splitlines()]
        assert strip(text_a) == strip(text_b)

    def test_stds_cannot_be_negative(self):
        with pytest.raises(ValueError, match="negative"):
            RunReport(
                status="GoalReached", joint_disp_mean=0.0, joint_disp_std=-1.0,
                time_per_step_mean=0.0, time_per_step_std=0.0,
                min_clearance=0.0, step_count=0,
            )

    def test_non_goal_status_is_reported_not_raised(self):
        scenario = load_scenario(scenario_path("planar_3link"))
        tight = config_with_overrides(scenario.planner, {"max_steps": 2})
        import dataclasses

        scenario = dataclasses.replace(scenario, planner=tight)
        record, report = run_and_report(scenario, solver="vofabrik")
        assert report.status == "StepLimit"
        assert record.steps.shape[0] == 3
