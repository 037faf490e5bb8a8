"""Exit codes and file outputs of the command-line interface."""

import csv
import json

import pytest

from vofabrik import scenario_path
from vofabrik.cli import main


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

    def test_goal_miss_fails_even_without_violations(self, planar_3link, tmp_path, capsys):
        main(["run", "--scenario", planar_3link, "--out-dir", str(tmp_path), "--set", "max_steps=2"])
        trajectory = tmp_path / "planar_3link_vofabrik_trajectory.csv"
        code = main(["validate", "--scenario", planar_3link, "--trajectory", str(trajectory)])
        out = capsys.readouterr().out
        assert code == 1
        assert "0 violations" in out

    def test_wrong_chain_size_reported(self, planar_2link, planar_3link, tmp_path, capsys):
        main(["run", "--scenario", planar_3link, "--out-dir", str(tmp_path)])
        trajectory = tmp_path / "planar_3link_vofabrik_trajectory.csv"
        code = main(["validate", "--scenario", planar_2link, "--trajectory", str(trajectory)])
        assert code == 2
        assert "joints" in capsys.readouterr().err


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
