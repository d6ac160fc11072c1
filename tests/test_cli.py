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


def problem_copy(tmp_path, edit, name="double_integrator.json"):
    """A copy of the bundled problem ``name`` after ``edit`` has changed its mapping in place."""
    obj = json.loads(Path(model_path(name)).read_text(encoding="utf-8"))
    edit(obj)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(obj))
    return str(path)


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

    def test_not_converged_exit_code(self, tmp_path, capsys):
        problem = problem_copy(tmp_path, lambda obj: obj["params"].update(max_iter=1))
        code = main(["solve", problem, "--x0", "0.5,0.0", "--xr", "2.0,0.0"])
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

    def test_unversioned_warm_state_exits_three(self, integrator_problem, tmp_path, capsys):
        # a state file must declare its format, as problem and scenario files do
        warm = tmp_path / "warm.json"
        solve = ["solve", integrator_problem, "--x0", "0.5,0", "--xr", "2,0"]
        assert main(solve + ["--save-state", str(warm)]) == EXIT_OK
        state = json.loads(warm.read_text())
        state.pop("format", None)
        warm.write_text(json.dumps(state))
        capsys.readouterr()
        code = main(solve + ["--warm", str(warm)])
        assert code == EXIT_INVALID_INPUT
        assert str(warm) in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["v", "lam"])
    def test_warm_state_missing_key_exits_three(self, integrator_problem, tmp_path, capsys, key):
        warm = tmp_path / "warm.json"
        solve = ["solve", integrator_problem, "--x0", "0.5,0", "--xr", "2,0"]
        assert main(solve + ["--save-state", str(warm)]) == EXIT_OK
        state = json.loads(warm.read_text())
        del state[key]
        warm.write_text(json.dumps(state))
        capsys.readouterr()
        assert main(solve + ["--warm", str(warm)]) == EXIT_INVALID_INPUT
        err = capsys.readouterr().err
        assert str(warm) in err and repr(key) in err
        # a present but non-numeric array is reported the same way
        warm.write_text(json.dumps({**state, key: ["x"]}))
        assert main(solve + ["--warm", str(warm)]) == EXIT_INVALID_INPUT
        err = capsys.readouterr().err
        assert str(warm) in err and repr(key) in err

    @pytest.mark.parametrize("key, entry", [("v", "0.34"), ("lam", True)], ids=["string-v", "boolean-lam"])
    def test_warm_state_non_number_entry_exits_three(self, integrator_problem, tmp_path, capsys, key, entry):
        # a string that spells a number and a JSON boolean are not numbers,
        # as in the problem and scenario files
        warm = tmp_path / "warm.json"
        solve = ["solve", integrator_problem, "--x0", "0.5,0", "--xr", "2,0"]
        assert main(solve + ["--save-state", str(warm)]) == EXIT_OK
        state = json.loads(warm.read_text())
        state[key][0] = entry
        warm.write_text(json.dumps(state))
        capsys.readouterr()
        assert main(solve + ["--warm", str(warm)]) == EXIT_INVALID_INPUT
        err = capsys.readouterr().err
        assert str(warm) in err and repr(key) in err and "expected a number" in err

    def test_warm_state_unknown_key_exits_three(self, integrator_problem, tmp_path, capsys):
        warm = tmp_path / "warm.json"
        solve = ["solve", integrator_problem, "--x0", "0.5,0", "--xr", "2,0"]
        assert main(solve + ["--save-state", str(warm)]) == EXIT_OK
        state = json.loads(warm.read_text())
        warm.write_text(json.dumps({**state, "lambda": state["lam"]}))
        capsys.readouterr()
        assert main(solve + ["--warm", str(warm)]) == EXIT_INVALID_INPUT
        err = capsys.readouterr().err
        assert str(warm) in err and "unknown key" in err and "lambda" in err

    @pytest.mark.parametrize("key", ["v", "lam"])
    def test_warm_state_wrong_length_exits_three(self, integrator_problem, tmp_path, capsys, key):
        # double_integrator.json has n_z = 33
        warm = tmp_path / "warm.json"
        state = {"format": "mpct-state-v1", "v": [0.0] * 33, "lam": [0.0] * 33}
        warm.write_text(json.dumps({**state, key: [0.0]}))
        solve = ["solve", integrator_problem, "--x0", "0.5,0", "--xr", "2,0", "--warm", str(warm)]
        assert main(solve) == EXIT_INVALID_INPUT
        err = capsys.readouterr().err
        assert str(warm) in err and f"warm state {key}" in err and "33" in err

    def test_warm_state_without_z(self, integrator_problem, tmp_path, capsys):
        # a warm start reads v and lam only, so dropping z changes nothing
        with_z, without_z = tmp_path / "with_z.json", tmp_path / "without_z.json"
        capped = problem_copy(tmp_path, lambda obj: obj["params"].update(max_iter=5))
        first = ["solve", capped, "--x0", "0.5,0", "--xr", "2,0"]
        assert main(first + ["--save-state", str(with_z)]) == EXIT_NOT_CONVERGED
        state = json.loads(with_z.read_text())
        del state["z"]
        without_z.write_text(json.dumps(state))
        capsys.readouterr()
        iterations = []
        solve = ["solve", integrator_problem, "--x0", "0.5,0", "--xr", "2,0"]
        for warm in (with_z, without_z):
            assert main(solve + ["--warm", str(warm)]) == EXIT_OK
            iterations.append(json.loads(capsys.readouterr().out)["iterations"])
        assert iterations[0] == iterations[1]

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

    def test_boolean_penalty_exits_three(self, tmp_path, capsys):
        # "rho": true would otherwise solve at rho = 1
        path = problem_copy(tmp_path, lambda obj: obj["params"].update({"rho": True}))
        assert main(["solve", path, "--x0", "0.5,0", "--xr", "2,0"]) == EXIT_INVALID_INPUT
        assert "params.rho" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["rho", "eps_primal", "eps_dual"])
    def test_infinite_setting_in_problem_file_exits_three(self, tmp_path, capsys, key):
        # accepted, an infinite tolerance would report "converged" after one iteration
        path = problem_copy(tmp_path, lambda obj: obj["params"].update({key: float("inf")}))
        # written as the JSON token Infinity
        assert "Infinity" in Path(path).read_text(encoding="utf-8")
        assert main(["solve", path, "--x0", "0.5,0", "--xr", "2,0"]) == EXIT_INVALID_INPUT
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key, value",
        [
            (None, "scaling", {"state": [1.0, 1.0], "input": [1.0]}),
            ("model", "x_low", [-5.0, -2.0]),
            ("params", "max_iters", 1),
        ],
    )
    def test_unknown_key_exits_three(self, tmp_path, capsys, section, key, value):
        # neither is silently ignored: the file has no scaling feature, and
        # a misspelled setting would fall back to its default
        def edit(obj):
            (obj if section is None else obj[section])[key] = value

        path = problem_copy(tmp_path, edit)
        assert main(["solve", path, "--x0", "0.5,0", "--xr", "2,0"]) == EXIT_INVALID_INPUT
        where = "" if section is None else f"{section}."
        assert f"unknown key {where}{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key", [("model", "A"), ("params", "N")])
    def test_missing_field_exits_three(self, tmp_path, capsys, section, key):
        path = problem_copy(tmp_path, lambda obj: obj[section].pop(key))
        assert main(["solve", path, "--x0", "0.5,0", "--xr", "2,0"]) == EXIT_INVALID_INPUT
        assert f"missing {section}.{key}" in capsys.readouterr().err


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

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda obj: obj["references"][0].pop("x_r"), "missing references[0].x_r"),
            (lambda obj: obj.pop("initial_state"), "missing initial_state"),
            (lambda obj: obj.pop("problem"), "missing problem"),
        ],
        ids=["references[0].x_r", "initial_state", "problem"],
    )
    def test_missing_field_exits_three(self, small_scenario, tmp_path, capsys, edit, message):
        obj = json.loads(Path(small_scenario).read_text(encoding="utf-8"))
        edit(obj)
        path = tmp_path / "missing.json"
        path.write_text(json.dumps(obj))
        assert main(["simulate", str(path), "-o", str(tmp_path / "t.csv")]) == EXIT_INVALID_INPUT
        assert message in capsys.readouterr().err

    def test_null_reference_label_exits_three(self, small_scenario, tmp_path, capsys):
        obj = json.loads(Path(small_scenario).read_text(encoding="utf-8"))
        obj["references"][0]["label"] = None
        path = tmp_path / "label.json"
        path.write_text(json.dumps(obj))
        assert main(["simulate", str(path), "-o", str(tmp_path / "t.csv")]) == EXIT_INVALID_INPUT
        assert "references[0].label" in capsys.readouterr().err

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

    @pytest.mark.parametrize("interval", [[float("nan"), 1.0], [-2.0, float("inf")]], ids=["nan", "inf"])
    def test_non_finite_initial_interval_exits_three(self, small_scenario, tmp_path, capsys, interval):
        # rejected when the scenario loads, not by numpy's sampler mid-run
        obj = json.loads(Path(small_scenario).read_text(encoding="utf-8"))
        obj["initial_state"]["intervals"][0] = interval
        path = tmp_path / "interval.json"
        path.write_text(json.dumps(obj))
        assert main(["bench", str(path), "-o", str(tmp_path / "s.json")]) == EXIT_INVALID_INPUT
        assert "initial_state.intervals" in capsys.readouterr().err

    @pytest.mark.parametrize("command, output", [("bench", "s.json"), ("simulate", "t.csv")])
    def test_repeated_reference_label_exits_three(self, small_scenario, tmp_path, capsys, command, output):
        # rejected when the scenario loads, not written as rows that cannot
        # be told apart or run as whichever reference comes first
        obj = json.loads(Path(small_scenario).read_text(encoding="utf-8"))
        obj["references"][1]["label"] = "reachable"
        path = tmp_path / "repeated.json"
        path.write_text(json.dumps(obj))
        assert main([command, str(path), "-o", str(tmp_path / output)]) == EXIT_INVALID_INPUT
        assert "'reachable' appears more than once" in capsys.readouterr().err
        assert not (tmp_path / output).exists()

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

    def test_check_passes_on_half_bounded_state(self, tmp_path, capsys):
        # x_0 >= 1 with no upper bound: a current state of 0 would lie
        # outside the box, and the ADMM run would never converge
        def edit(obj):
            obj["model"]["x_lo"][0] = 1.0
            obj["model"]["x_hi"][0] = "inf"

        problem = problem_copy(tmp_path, edit)
        code = main(["check", problem, "--samples", "3"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "converged" in out and "FAIL" not in out

    def test_check_passes_at_a_large_penalty(self, tmp_path, capsys):
        # the dual exit gap |v+ - v| carries no rho: at rho = 30 a dual
        # tolerance of 1e-6 stopped the run 3e-4 from the dense solution
        problem = problem_copy(tmp_path, lambda obj: obj["params"].update(rho=30.0))
        code = main(["check", problem, "--samples", "3"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "eps_primal 1.0e-06, eps_dual 3.3e-08" in out and "FAIL" not in out

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_samples_below_one_exit_three(self, integrator_problem, samples, capsys):
        assert main(["check", integrator_problem, "--samples", samples]) == EXIT_INVALID_INPUT
        assert "--samples" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [("--rho", "1"), ("--eps-primal", "1e-1"), ("--eps-dual", "1e-1"), ("--max-iter", "1")],
    )
    @pytest.mark.parametrize("command", ["solve", "simulate", "bench", "check"])
    def test_solver_overrides_are_not_options(
        self, integrator_problem, small_scenario, tmp_path, command, flag, value, capsys
    ):
        # solver settings come from the problem file only, so argparse rejects these
        argv = {
            "solve": ["solve", integrator_problem, "--x0", "0.5,0", "--xr", "2,0"],
            "simulate": ["simulate", small_scenario, "-o", str(tmp_path / "t.csv")],
            "bench": ["bench", small_scenario, "-o", str(tmp_path / "s.json")],
            "check": ["check", integrator_problem, "--samples", "1"],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, value])
        assert exc.value.code == EXIT_INVALID_INPUT
        assert "unrecognized arguments" in capsys.readouterr().err
