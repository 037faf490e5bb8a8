"""Scenario loading, trajectory CSV round-trips, and the independent validator."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vofabrik import (
    ChainModel,
    JointLimits,
    LinkSpec,
    ParseError,
    PlannerConfig,
    PlanStatus,
    RunReport,
    SphereObstacle,
    TrajectoryRecord,
    ValidationError,
    config_with_overrides,
    fk,
    load_scenario,
    make_report,
    run_and_report,
    scenario_from_dict,
    scenario_path,
    validate_trajectory,
)


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
        with pytest.raises(ValidationError, match="initial_angles count"):
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
        doc = toy_doc()
        doc["obstacles"][0]["radius"] = 0.0
        with pytest.raises(ParseError, match=r"obstacles\[0\]"):
            scenario_from_dict(doc)

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
        with pytest.raises(ValidationError, match=r"obstacles\[1\]\.velocity: obstacle 1 must be static"):
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

    def test_rejected_value_carries_path(self):
        with pytest.raises(ParseError, match="planner"):
            config_with_overrides(PlannerConfig(), {"t_s": -1.0})

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

    def test_violation_step_uses_recorded_index(self):
        model = self.planar_model()
        angles = np.zeros((2, 3, 2))
        record = self.record_for(model, angles)
        record.end_effector[1, 1] += 1.0
        violations = validate_trajectory(model, record, [])
        assert [v.step for v in violations] == [1]


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
        run_and_report(scenario, solver="fabrik", out_dir=tmp_path)
        payload = json.loads((tmp_path / "planar_2link_fabrik_report.json").read_text())
        assert payload["scenario"] == "planar_2link"
        assert payload["solver"] == "fabrik"
        report = RunReport.from_dict(payload)
        assert report.step_count == payload["step_count"]

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
