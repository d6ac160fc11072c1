import csv
import json
from importlib import resources
from pathlib import Path

import pytest

from mpct_admm.cli import EXIT_INVALID_INPUT, EXIT_NOT_CONVERGED, EXIT_OK, main


def model_path(name):
    return str(resources.files("mpct_admm") / "models" / name)


@pytest.fixture
def integrator_problem():
    return model_path("double_integrator.json")


@pytest.fixture
def small_scenario(tmp_path, integrator_problem):
    obj = {
        "format": "mpct-scenario-v1",
        "problem": integrator_problem,
        "references": [
            {"label": "reachable", "x_r": [2.0, 0.0], "u_r": [0.0]},
            {"label": "unreachable", "x_r": [8.0, 0.0], "u_r": [0.0]},
        ],
        "initial_state": {"intervals": [[-2.0, 2.0], [-0.5, 0.5]]},
        "trials": 5,
        "steps": 12,
        "seed": 99,
        "sample_time": 0.1,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(obj))
    return str(path)


class TestSolve:
    def test_converged_solve_exits_zero(self, integrator_problem, capsys):
        code = main(["solve", integrator_problem, "--x0", "0.5,0.0", "--xr", "2.0,0.0"])
        out = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert out["status"] == "converged"
        assert len(out["control_action"]) == 1

    def test_not_converged_exit_code(self, integrator_problem, capsys):
        code = main(
            ["solve", integrator_problem, "--x0", "0.5,0.0", "--xr", "2.0,0.0", "--max-iter", "1"]
        )
        assert code == EXIT_NOT_CONVERGED
        assert json.loads(capsys.readouterr().out)["status"] == "max_iterations"

    def test_warm_state_roundtrip(self, integrator_problem, tmp_path, capsys):
        state = tmp_path / "state.json"
        code = main(
            ["solve", integrator_problem, "--x0", "0.5,0", "--xr", "2,0", "--save-state", str(state)]
        )
        assert code == EXIT_OK
        first = json.loads(capsys.readouterr().out)["iterations"]
        code = main(
            ["solve", integrator_problem, "--x0", "0.5,0", "--xr", "2,0", "--warm", str(state)]
        )
        assert code == EXIT_OK
        second = json.loads(capsys.readouterr().out)["iterations"]
        assert second <= first

    def test_warm_state_not_an_object_exits_three(self, integrator_problem, tmp_path, capsys):
        warm = tmp_path / "warm.json"
        warm.write_text("[1, 2]")
        code = main(["solve", integrator_problem, "--x0", "0.5,0", "--xr", "2,0", "--warm", str(warm)])
        assert code == EXIT_INVALID_INPUT
        assert str(warm) in capsys.readouterr().err

    def test_invalid_json_exits_three(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["solve", str(bad), "--x0", "0", "--xr", "0"]) == EXIT_INVALID_INPUT

    def test_wrong_dimensions_exit_three(self, integrator_problem, capsys):
        assert (
            main(["solve", integrator_problem, "--x0", "0.5", "--xr", "2.0,0.0"])
            == EXIT_INVALID_INPUT
        )

    def test_missing_format_key(self, tmp_path):
        path = tmp_path / "noformat.json"
        path.write_text(json.dumps({"model": {}, "params": {}}))
        assert main(["solve", str(path), "--x0", "0", "--xr", "0"]) == EXIT_INVALID_INPUT

    @pytest.mark.parametrize(
        "section, key, value",
        [("model", "x_lo", 5), ("params", "N", [30]), ("params", "rho", None), (None, "model", [])],
    )
    def test_wrongly_typed_field_exits_three(self, integrator_problem, tmp_path, capsys, section, key, value):
        obj = json.loads(Path(integrator_problem).read_text(encoding="utf-8"))
        (obj if section is None else obj[section])[key] = value
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(obj))
        assert main(["solve", str(path), "--x0", "0.5,0", "--xr", "2,0"]) == EXIT_INVALID_INPUT
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "check"])
    def test_infinite_rho_flag_exits_three(self, integrator_problem, command, capsys):
        extra = ["--x0", "0.5,0", "--xr", "2,0"] if command == "solve" else ["--samples", "1"]
        assert main([command, integrator_problem, *extra, "--rho", "inf"]) == EXIT_INVALID_INPUT
        assert "rho" in capsys.readouterr().err

    def test_infinite_rho_in_problem_file_exits_three(self, integrator_problem, tmp_path, capsys):
        obj = json.loads(Path(integrator_problem).read_text(encoding="utf-8"))
        obj["params"]["rho"] = float("inf")
        path = tmp_path / "infinite_rho.json"
        path.write_text(json.dumps(obj))  # written as the JSON token Infinity
        assert "Infinity" in path.read_text(encoding="utf-8")
        assert main(["solve", str(path), "--x0", "0.5,0", "--xr", "2,0"]) == EXIT_INVALID_INPUT
        assert "rho" in capsys.readouterr().err


class TestSimulate:
    def test_writes_trajectory_csv(self, small_scenario, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code = main(["simulate", small_scenario, "-o", str(out)])
        assert code == EXIT_OK
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 12
        assert "x0" in rows[0] and "u0" in rows[0] and "iterations" in rows[0]

    @pytest.mark.parametrize(
        "key, value",
        [
            ("references", 5),
            ("initial_state", []),
            ("trials", [5]),
            ("trials", 2.5),
            ("trials", 0),
            ("steps", 2.5),
            ("seed", 2.5),
            ("seed", -1),
            ("sample_time", -1),
            ("sample_time", 0),
            ("sample_time", float("nan")),
        ],
    )
    def test_wrongly_typed_field_exits_three(self, small_scenario, tmp_path, capsys, key, value):
        obj = json.loads(Path(small_scenario).read_text(encoding="utf-8"))
        obj[key] = value
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(obj))
        assert main(["simulate", str(path), "-o", str(tmp_path / "t.csv")]) == EXIT_INVALID_INPUT
        assert key in capsys.readouterr().err

    def test_unknown_reference_label(self, small_scenario, tmp_path):
        out = tmp_path / "traj.csv"
        code = main(["simulate", small_scenario, "-o", str(out), "--reference", "nope"])
        assert code == EXIT_INVALID_INPUT


class TestBench:
    def test_outputs_and_determinism(self, small_scenario, tmp_path, capsys):
        out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
        assert main(["bench", small_scenario, "-o", str(out1)]) == EXIT_OK
        assert main(["bench", small_scenario, "-o", str(out2)]) == EXIT_OK
        s1 = json.loads(out1.read_text())
        s2 = json.loads(out2.read_text())
        # timings are wall clock and may differ; iteration statistics must not
        assert [r["iterations"] for r in s1["results"]] == [r["iterations"] for r in s2["results"]]
        trials1 = (tmp_path / "s1_trials.csv").read_text()
        trials2 = (tmp_path / "s2_trials.csv").read_text()
        it1 = [r["iterations"] for r in csv.DictReader(trials1.splitlines())]
        it2 = [r["iterations"] for r in csv.DictReader(trials2.splitlines())]
        assert it1 == it2
        assert len(it1) == 10  # 5 trials x 2 references

    def test_trials_override(self, small_scenario, tmp_path, capsys):
        out = tmp_path / "s.json"
        assert main(["bench", small_scenario, "-o", str(out), "--trials", "2"]) == EXIT_OK
        stats = json.loads(out.read_text())
        assert all(r["trials"] == 2 for r in stats["results"])


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "problem.json", "--bogus"],
            ["check", "problem.json", "--samples", "x"],
            [],
        ],
        ids=["unknown-flag", "malformed-value", "missing-subcommand"],
    )
    def test_usage_error_exits_three(self, argv, capsys):
        # argparse's own code 2 would read as "did not converge"
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_INVALID_INPUT
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["check", "--help"]])
    def test_help_exits_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_OK
        assert "usage:" in capsys.readouterr().out


class TestCheck:
    @pytest.mark.parametrize("name", ["ball_plate_like.json", "double_integrator.json", "mass_spring.json"])
    def test_check_passes_on_bundled_model(self, name, capsys):
        code = main(["check", model_path(name), "--samples", "5"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "PASS" in out

    def test_check_passes_on_scaled_problem(self, capsys):
        # the ball-and-plate-like file carries a diagonal scaling; the oracle
        # comparison must happen in the effective problem space
        code = main(["check", model_path("ball_plate_like.json"), "--samples", "3"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "FAIL" not in out

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_samples_below_one_exit_three(self, integrator_problem, samples, capsys):
        assert main(["check", integrator_problem, "--samples", samples]) == EXIT_INVALID_INPUT
        assert "--samples" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value", [("--eps-primal", "1e-1"), ("--eps-dual", "1e-1"), ("--max-iter", "1")]
    )
    def test_solver_overrides_are_not_options(self, integrator_problem, flag, value, capsys):
        # the ADMM check runs at fixed tolerances and cap, so argparse rejects these
        with pytest.raises(SystemExit) as exc:
            main(["check", integrator_problem, "--samples", "1", flag, value])
        assert exc.value.code != EXIT_OK
