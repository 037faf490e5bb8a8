"""Exit codes and file outputs of the command-line interface."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from vofabrik import scenario_path
from vofabrik.cli import _load, main

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def planar_2link():
    return str(scenario_path("planar_2link"))


@pytest.fixture(scope="module")
def planar_3link():
    return str(scenario_path("planar_3link"))


class TestRun:
    def test_successful_run_exits_zero(self, planar_2link, tmp_path, capsys):
        code = main(
            ["run", "--scenario", planar_2link, "--solver", "vofabrik", "--out-dir", str(tmp_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "GoalReached" in out
        assert (tmp_path / "planar_2link_vofabrik_trajectory.csv").is_file()
        assert (tmp_path / "planar_2link_vofabrik_report.json").is_file()

    def test_step_limit_exits_nonzero(self, planar_2link, tmp_path, capsys):
        code = main(
            ["run", "--scenario", planar_2link, "--out-dir", str(tmp_path), "--set", "max_steps=2"]
        )
        assert code == 1
        assert "StepLimit" in capsys.readouterr().out

    def test_set_overrides_nested_fields(self, planar_2link, tmp_path):
        code = main(
            [
                "run",
                "--scenario", planar_2link,
                "--out-dir", str(tmp_path),
                "--set", "ik.max_iterations=60",
                "--set", "vo.time_horizon=0.9",
            ]
        )
        assert code == 0

    def test_unknown_set_key_exits_two(self, planar_2link, tmp_path, capsys):
        code = main(
            ["run", "--scenario", planar_2link, "--out-dir", str(tmp_path), "--set", "warp=9"]
        )
        assert code == 2
        assert "unknown field" in capsys.readouterr().err

    def test_unknown_nested_set_key_exits_two(self, planar_2link, tmp_path, capsys):
        # no config has this field: setting it must fail, not be ignored
        code = main(
            ["run", "--scenario", planar_2link, "--out-dir", str(tmp_path), "--set", "ik.limit_tolerance=1e-6"]
        )
        assert code == 2
        assert "--set.ik.limit_tolerance: unknown field" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "pairs",
        [
            ("max_steps.x=1", "max_steps=5"),
            ("max_steps=5", "max_steps.x=1"),
            ("ik.epsilon=1e-4", "ik=5"),
            ("ik=5", "ik.epsilon=1e-4"),
        ],
    )
    def test_plain_and_nested_set_on_one_key_exits_two(self, planar_3link, tmp_path, capsys, pairs):
        # a nested key under a plain field, or a plain value on a nested
        # config, is an error in either order, never dropped unreported
        code = main(
            ["run", "--scenario", planar_3link, "--out-dir", str(tmp_path), "--set", pairs[0], "--set", pairs[1]]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_repeated_plain_set_last_wins(self, planar_3link):
        args = SimpleNamespace(scenario=planar_3link, set=["max_steps=1", "ik.epsilon=1", "max_steps=5", "ik.epsilon=2"])
        planner = _load(args).planner
        assert planner.max_steps == 5
        assert planner.ik.epsilon == 2.0

    @pytest.mark.parametrize("pair", ["stall_window=5", "vo.direction_samples=128"])
    def test_removed_setting_exits_two(self, planar_2link, tmp_path, capsys, pair):
        # these settings are module constants now; naming one is an error
        code = main(["run", "--scenario", planar_2link, "--out-dir", str(tmp_path), "--set", pair])
        assert code == 2
        assert f"--set.{pair.split('=')[0]}: unknown field" in capsys.readouterr().err

    def test_malformed_set_pair_exits_two(self, planar_2link, tmp_path, capsys):
        code = main(
            ["run", "--scenario", planar_2link, "--out-dir", str(tmp_path), "--set", "max_steps"]
        )
        assert code == 2
        assert "key=value" in capsys.readouterr().err

    def test_missing_scenario_exits_two(self, tmp_path, capsys):
        code = main(["run", "--scenario", str(tmp_path / "ghost.json"), "--out-dir", str(tmp_path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_degenerate_link_exits_two(self, planar_2link, tmp_path, capsys):
        # a link shorter than geometry.DEGENERACY_THRESHOLD has no direction
        doc = json.loads(Path(planar_2link).read_text())
        doc["chain"]["links"][0]["length"] = 1e-13
        scenario = tmp_path / "degenerate.json"
        scenario.write_text(json.dumps(doc))
        code = main(["run", "--scenario", str(scenario), "--out-dir", str(tmp_path)])
        assert code == 2
        assert "error: link 0 length must lie within" in capsys.readouterr().err

    def test_link_degenerate_once_placed_exits_two(self, planar_2link, tmp_path, capsys):
        # fk at a base 1e6 m out could round a 1e-12 m middle link shorter
        # than DEGENERACY_THRESHOLD, so the shortest link grows with extent
        doc = json.loads(Path(planar_2link).read_text())
        doc["chain"]["base"] = [1e6, 0.0, 0.0]
        doc["chain"]["links"] = [{"length": length, "thickness": 0.0} for length in (0.1, 1e-12, 0.1)]
        doc["chain"]["limits"] = [{"pitch": [-1.0, 1.0], "yaw": [-1.0, 1.0]}] * 3
        doc["initial_angles"] = [[0.0, 0.0]] * 3
        doc["goal"] = [1e6 + 0.15, 0.01, 0.0]
        doc["obstacles"] = []
        scenario = tmp_path / "degenerate.json"
        scenario.write_text(json.dumps(doc))
        code = main(["run", "--scenario", str(scenario), "--out-dir", str(tmp_path)])
        assert code == 2
        assert "error: link 1 length must lie within [8.89" in capsys.readouterr().err

    def test_link_degenerate_mid_plan_exits_two(self, planar_2link, tmp_path):
        # at the origin a 1e-12 m middle link is placed intact at the home
        # pose, but a later step's pose used to round it below
        # DEGENERACY_THRESHOLD, and min_clearance raised mid-plan
        doc = json.loads(Path(planar_2link).read_text())
        doc["chain"]["base"] = [0.0, 0.0, 0.0]
        doc["chain"]["links"] = [{"length": length, "thickness": 0.0} for length in (0.1, 1e-12, 0.1)]
        doc["chain"]["limits"] = [{"pitch": [-1.5, 1.5], "yaw": [-1.5, 1.5]}] * 3
        doc["initial_angles"] = [[0.0, 0.0]] * 3
        doc["goal"] = [0.1, 0.1, 0.0]
        doc["obstacles"] = []
        scenario = tmp_path / "degenerate.json"
        scenario.write_text(json.dumps(doc))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
        done = subprocess.run(
            [sys.executable, "-m", "vofabrik.cli", "run", "--scenario", str(scenario), "--out-dir", str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 2
        assert done.stderr.startswith("error: link 1 length must lie within [1.00088")
        assert "Traceback" not in done.stderr

    def test_underflowing_preferred_speed_stalls_without_a_traceback(self, planar_3link, tmp_path):
        # the preferred velocity's norm underflows to zero: the plan ends
        # Stalled, and the CLI reports it like any other status
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
        done = subprocess.run(
            [sys.executable, "-m", "vofabrik.cli", "run", "--scenario", planar_3link, "--out-dir", str(tmp_path),
             "--set", "v_pref_speed=1e-320"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 1
        assert "planar_3link [vofabrik]: Stalled, 1 steps" in done.stdout
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize("pair", ["v_pref_speed=1e308", "angular_resolution=1e-4"])
    def test_setting_past_its_range_exits_two_without_a_traceback(self, planar_3link, tmp_path, pair):
        # the preferred velocity would overflow inside the velocity filter;
        # the chooser's grids would take up to 62,832 cells per joint axis,
        # past the 10,000 allowed (a value small enough to build, were the
        # floor ever lost)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
        done = subprocess.run(
            [sys.executable, "-m", "vofabrik.cli", "run", "--scenario", planar_3link, "--out-dir", str(tmp_path),
             "--set", pair],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 2
        assert done.stderr.startswith(f"error: --set: {pair.partition('=')[0]}")
        assert "Traceback" not in done.stderr

    def test_obstacle_radius_out_of_range_exits_two(self, planar_2link, tmp_path, capsys):
        # a ValidationError since obstacles follow the links' error type
        doc = json.loads(Path(planar_2link).read_text())
        doc["obstacles"][0]["radius"] = 1e-13
        scenario = tmp_path / "tiny.json"
        scenario.write_text(json.dumps(doc))
        code = main(["run", "--scenario", str(scenario), "--out-dir", str(tmp_path)])
        assert code == 2
        assert "radius must lie within" in capsys.readouterr().err


class TestValidate:
    def test_fresh_trajectory_passes(self, planar_3link, tmp_path, capsys):
        assert main(["run", "--scenario", planar_3link, "--out-dir", str(tmp_path)]) == 0
        trajectory = tmp_path / "planar_3link_vofabrik_trajectory.csv"
        code = main(["validate", "--scenario", planar_3link, "--trajectory", str(trajectory)])
        assert code == 0
        assert "0 violations" in capsys.readouterr().out

    def test_corrupted_trajectory_fails(self, planar_3link, tmp_path, capsys):
        main(["run", "--scenario", planar_3link, "--out-dir", str(tmp_path)])
        trajectory = tmp_path / "planar_3link_vofabrik_trajectory.csv"
        rows = list(csv.reader(trajectory.read_text().splitlines()))
        rows[2][4] = "2.9"  # yaw of joint 1, step 1 -> limit + rigid-link breakage
        with open(trajectory, "w", newline="") as f:
            csv.writer(f, lineterminator="\n").writerows(rows)
        code = main(["validate", "--scenario", planar_3link, "--trajectory", str(trajectory)])
        out = capsys.readouterr().out
        assert code == 1
        assert "joint_limit" in out
        assert "rigid_link" in out

    def test_non_finite_angle_fails_without_a_traceback(self, planar_2link, tmp_path, capsys):
        main(["run", "--scenario", planar_2link, "--out-dir", str(tmp_path)])
        trajectory = tmp_path / "planar_2link_vofabrik_trajectory.csv"
        rows = list(csv.reader(trajectory.read_text().splitlines()))
        rows[2][2] = "nan"  # pitch of joint 0, step 1
        rows[3][5] = "-inf"  # yaw of joint 1, step 2
        with open(trajectory, "w", newline="") as f:
            csv.writer(f, lineterminator="\n").writerows(rows)
        code = main(["validate", "--scenario", planar_2link, "--trajectory", str(trajectory)])
        out = capsys.readouterr().out
        assert code == 1
        assert "step 1: joint_limit: joint 0 pitch nan" in out
        assert "step 2: joint_limit: joint 1 yaw -inf" in out
        assert "2 violations" in out

    @pytest.mark.parametrize("step", ["1.7", "nan", "1e300", "0"])
    def test_broken_step_column_exits_two(self, planar_2link, tmp_path, capsys, step):
        main(["run", "--scenario", planar_2link, "--out-dir", str(tmp_path)])
        trajectory = tmp_path / "planar_2link_vofabrik_trajectory.csv"
        rows = list(csv.reader(trajectory.read_text().splitlines()))
        rows[2][0] = step  # step 1; "0" repeats step 0
        with open(trajectory, "w", newline="") as f:
            csv.writer(f, lineterminator="\n").writerows(rows)
        code = main(["validate", "--scenario", planar_2link, "--trajectory", str(trajectory)])
        assert code == 2
        assert f"error: {trajectory}:3:" in capsys.readouterr().err

    def test_goal_miss_fails_even_without_violations(self, planar_3link, tmp_path, capsys):
        main(["run", "--scenario", planar_3link, "--out-dir", str(tmp_path), "--set", "max_steps=2"])
        trajectory = tmp_path / "planar_3link_vofabrik_trajectory.csv"
        code = main(["validate", "--scenario", planar_3link, "--trajectory", str(trajectory)])
        out = capsys.readouterr().out
        assert code == 1
        assert "0 violations" in out

    def test_wrong_chain_size_reported(self, tmp_path, capsys):
        # validate_trajectory owns the joint-count check, in both directions
        for ran, checked in ((3, 2), (2, 3)):
            main(["run", "--scenario", str(scenario_path(f"planar_{ran}link")), "--out-dir", str(tmp_path)])
            capsys.readouterr()
            trajectory = tmp_path / f"planar_{ran}link_vofabrik_trajectory.csv"
            code = main(["validate", "--scenario", str(scenario_path(f"planar_{checked}link")), "--trajectory", str(trajectory)])
            assert code == 2
            assert capsys.readouterr().err == f"error: trajectory has {ran} joints, scenario has {checked}\n"


class TestCompare:
    def test_compare_emits_side_by_side(self, planar_2link, tmp_path, capsys):
        code = main(["compare", "--scenario", planar_2link, "--out-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "vofabrik" in out and "fabrik" in out
        payload = json.loads((tmp_path / "planar_2link_compare.json").read_text())
        assert set(payload) == {"scenario", "vofabrik", "fabrik"}
        for solver in ("vofabrik", "fabrik"):
            assert payload[solver]["validation"] in ("pass", "fail")
            assert (tmp_path / f"planar_2link_{solver}_trajectory.csv").is_file()
            assert (tmp_path / f"planar_2link_{solver}_report.json").is_file()

    def test_exit_code_follows_cone_constrained_run(self, planar_2link, tmp_path):
        code = main(
            ["compare", "--scenario", planar_2link, "--out-dir", str(tmp_path), "--set", "max_steps=2"]
        )
        assert code == 1
