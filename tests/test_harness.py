import csv
import importlib.util
import io
import json
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from mpct_admm import (
    Reference,
    SolveStatus,
    build_problem,
    emit_plot_data,
    load_scenario,
    optimal_steady_state,
    run_benchmark,
    sample_initial_states,
    simulate_closed_loop,
)
from mpct_admm import harness
from mpct_admm.errors import MpctError
from mpct_admm.harness import Trajectory, bench_stats_dict, scenario_from_dict, write_trials_csv


def models_dir():
    return resources.files("mpct_admm") / "models"


@pytest.fixture(scope="module")
def integrator_scenario():
    return load_scenario(str(models_dir() / "scenario_double_integrator.json"))


@pytest.fixture(scope="module")
def integrator_data(integrator_scenario):
    sc = integrator_scenario
    return build_problem(sc.model, sc.params, sc.scaling)


class TestScenarioLoading:
    def test_bundled_scenarios_load(self):
        sc = load_scenario(str(models_dir() / "scenario_ball_plate.json"))
        assert sc.trials == 500
        assert [r.label for r in sc.references] == ["reachable", "unreachable"]
        assert sc.model.n_x == 8
        # the penalty comes from the null-space rule, which needs no scaling
        assert sc.scaling is None

    @pytest.mark.parametrize(
        "name", ["ball_plate_like.json", "double_integrator.json", "mass_spring.json"]
    )
    def test_every_bundled_model_builds_and_solves(self, name):
        from mpct_admm import admm_solve, load_problem

        model, params, scaling = load_problem(str(models_dir() / name))
        data = build_problem(model, params, scaling)
        both = np.isfinite(model.x_lo) & np.isfinite(model.x_hi)
        x0 = np.zeros(model.n_x)
        x0[both] = 0.5 * (model.x_lo[both] + model.x_hi[both])
        report, _ = admm_solve(data, x0, x0, np.zeros(model.n_u))
        assert report.status is SolveStatus.CONVERGED

    def test_interval_validation(self, integrator_scenario):
        sc = integrator_scenario
        bad = np.array([[-100.0, 100.0], [-0.5, 0.5]])
        with pytest.raises(ValueError):
            replace(sc, x0_intervals=bad)

    def test_requires_reference(self, integrator_scenario):
        with pytest.raises(ValueError):
            replace(integrator_scenario, references=())

    @pytest.mark.parametrize(
        "x_r, u_r, message",
        [
            ([1.0], [0.0], "x_r must have length 2"),
            ([1.0, 0.0], [0.0, 0.0], "u_r must have length 1"),
            ([float("nan"), 0.0], [0.0], "x_r contains NaN"),
        ],
        ids=["x_r-too-short", "u_r-too-long", "x_r-nan"],
    )
    def test_reference_dimensions_validated(self, integrator_scenario, x_r, u_r, message):
        # rejected when the scenario is built, not at the first solve
        refs = (integrator_scenario.references[0], Reference("bad", x_r, u_r))
        with pytest.raises(MpctError, match=f"reference 'bad' {message}"):
            replace(integrator_scenario, references=refs)

    @pytest.mark.parametrize("sample_time", [-1.0, 0.0, float("nan"), float("inf")])
    def test_sample_time_must_be_positive_and_finite(self, integrator_scenario, sample_time):
        with pytest.raises(ValueError, match="sample_time"):
            replace(integrator_scenario, sample_time=sample_time)

    @pytest.mark.parametrize(
        "field, value",
        [("trials", 2.5), ("trials", 0), ("steps", 2.5), ("steps", -1), ("seed", -3), ("seed", 1.5)],
    )
    def test_whole_number_fields_validated(self, integrator_scenario, field, value):
        with pytest.raises(ValueError, match=field):
            replace(integrator_scenario, **{field: value})

    def test_whole_number_fields_stored_as_ints(self, integrator_scenario):
        sc = replace(integrator_scenario, trials=3.0, steps=4.0, seed=5.0)
        assert (sc.trials, sc.steps, sc.seed) == (3, 4, 5)
        assert all(type(x) is int for x in (sc.trials, sc.steps, sc.seed))

    def test_inline_problem(self):
        obj = {
            "format": "mpct-scenario-v1",
            "problem": {
                "format": "mpct-v1",
                "model": {
                    "A": [[0.5]],
                    "B": [[1.0]],
                    "x_lo": [-1.0],
                    "x_hi": [1.0],
                    "u_lo": [-1.0],
                    "u_hi": [1.0],
                },
                "params": {"Q": [1.0], "R": [1.0], "T": [1.0], "S": [1.0], "N": 3},
            },
            "references": [{"label": "r", "x_r": [0.5], "u_r": [0.25]}],
            "initial_state": {"intervals": [[-0.5, 0.5]]},
            "trials": 2,
            "steps": 5,
            "seed": 1,
        }
        sc = scenario_from_dict(obj)
        assert sc.model.n_x == 1 and sc.trials == 2


class TestSimulation:
    def test_constant_at_equilibrium(self, integrator_scenario, integrator_data):
        sc = integrator_scenario
        x_eq = np.array([1.0, 0.0])
        ref = Reference("eq", x_eq, np.zeros(1))
        traj = simulate_closed_loop(integrator_data, sc.model, x_eq, ref, steps=20)
        assert np.abs(traj.states - x_eq).max() <= 1e-3
        assert np.abs(traj.inputs).max() <= 1e-3

    def test_reachable_reference_is_tracked(self, integrator_scenario, integrator_data):
        sc = integrator_scenario
        ref = next(r for r in sc.references if r.label == "reachable")
        traj = simulate_closed_loop(
            integrator_data, sc.model, np.array([-1.0, 0.0]), ref, steps=80,
            eps_primal=1e-6, eps_dual=1e-6, max_iter=20000,
        )
        assert np.abs(traj.states[-1] - ref.x_r).max() <= 1e-3

    def test_unreachable_reference_settles_at_closest_equilibrium(self, integrator_scenario):
        # constraints ride the state bound at the limit; a stiffer penalty
        # keeps the per-step solves quick in that regime
        sc = integrator_scenario
        data = build_problem(sc.model, replace(sc.params, rho=4.0), sc.scaling)
        ref = next(r for r in sc.references if r.label == "unreachable")
        x_hat, _ = optimal_steady_state(sc.model, sc.params, ref.x_r, ref.u_r)
        traj = simulate_closed_loop(
            data, sc.model, np.array([0.0, 0.0]), ref, steps=120,
            eps_primal=1e-5, eps_dual=1e-5, max_iter=20000,
        )
        assert np.abs(traj.states[-1] - x_hat).max() <= 1e-3

    def test_benchmark_model_tracks_within_100_steps(self):
        # default tolerances, default penalty: position error under 1e-2 by
        # the end of the bundled scenario's own step budget
        sc = load_scenario(str(models_dir() / "scenario_ball_plate.json"))
        data = build_problem(sc.model, sc.params, sc.scaling)
        ref = next(r for r in sc.references if r.label == "reachable")
        x0 = np.array([0.5, 0, 0, 0, 1.5, 0, 0, 0])
        traj = simulate_closed_loop(data, sc.model, x0, ref, steps=100)
        assert np.abs(traj.states[-1] - ref.x_r).max() <= 1e-2

    def test_inputs_feasible_even_when_capped(self, integrator_scenario, integrator_data):
        sc = integrator_scenario
        ref = next(r for r in sc.references if r.label == "unreachable")
        traj = simulate_closed_loop(
            integrator_data, sc.model, np.array([0.0, 0.0]), ref, steps=30, max_iter=2
        )
        assert all(s is SolveStatus.MAX_ITERATIONS for s in traj.statuses)
        assert np.all(traj.inputs >= sc.model.u_lo - 1e-12)
        assert np.all(traj.inputs <= sc.model.u_hi + 1e-12)


    @pytest.mark.parametrize(
        "argument, value",
        [
            ("sample_time", -1.0),
            ("sample_time", 0.0),
            ("sample_time", float("nan")),
            ("sample_time", float("inf")),
            ("steps", -1),
            ("steps", 2.5),
            ("eps_primal", -1e-4),
            ("eps_dual", float("nan")),
            ("eps_primal", float("inf")),
            ("max_iter", 0),
            ("max_iter", 2.5),
        ],
    )
    def test_invalid_arguments_rejected_before_solving(
        self, integrator_scenario, integrator_data, monkeypatch, argument, value
    ):
        sc = integrator_scenario
        calls = []
        monkeypatch.setattr(harness, "admm_solve", lambda *a, **k: calls.append(a))
        kwargs = {"steps": 3, "sample_time": 0.1, argument: value}
        with pytest.raises(ValueError, match=argument):
            simulate_closed_loop(integrator_data, sc.model, np.zeros(2), sc.references[0], **kwargs)
        assert calls == []


class TestBenchmark:
    def test_deterministic_iterations(self, integrator_scenario):
        sc = replace(integrator_scenario, trials=8)
        r1 = run_benchmark(sc)
        r2 = run_benchmark(sc)
        for a, b in zip(r1, r2):
            np.testing.assert_array_equal(a.iterations, b.iterations)

    def test_seed_changes_samples(self, integrator_scenario):
        sc1 = replace(integrator_scenario, trials=4)
        sc2 = replace(sc1, seed=sc1.seed + 1)
        assert not np.array_equal(sample_initial_states(sc1, 0), sample_initial_states(sc2, 0))

    def test_draws_follow_list_position(self, integrator_scenario):
        # one child seed per position in the list, not per reference
        sc = replace(integrator_scenario, trials=5)
        first, second = sc.references[:2]
        draws = [sample_initial_states(sc, i) for i in range(2)]
        assert not np.array_equal(draws[0], draws[1])
        # appending keeps every earlier draw
        appended = replace(sc, references=(first, second, first))
        for i in range(2):
            np.testing.assert_array_equal(sample_initial_states(appended, i), draws[i])
        # removing the first moves the second into its draws
        alone = replace(sc, references=(second,))
        np.testing.assert_array_equal(sample_initial_states(alone, 0), draws[0])
        # and reordering swaps the two references' draws
        swapped = replace(sc, references=(second, first))
        for i in range(2):
            np.testing.assert_array_equal(sample_initial_states(swapped, i), draws[i])

    def test_samples_respect_intervals(self, integrator_scenario):
        sc = replace(integrator_scenario, trials=64)
        x0s = sample_initial_states(sc, 1)
        iv = sc.x0_intervals
        assert np.all(x0s >= iv[:, 0]) and np.all(x0s <= iv[:, 1])

    def test_aggregates_recompute_from_records(self, integrator_scenario):
        sc = replace(integrator_scenario, trials=6)
        results = run_benchmark(sc)
        for stats in results:
            agg = stats.iteration_stats()
            assert agg["average"] == pytest.approx(np.mean(stats.iterations))
            assert agg["median"] == pytest.approx(np.median(stats.iterations))
            assert agg["max"] == stats.iterations.max()
            assert agg["min"] == stats.iterations.min()
            assert agg["min"] <= agg["median"] <= agg["max"]

    def test_stats_dict_and_trials_csv(self, integrator_scenario):
        sc = replace(integrator_scenario, trials=3)
        results = run_benchmark(sc)
        obj = bench_stats_dict(results)
        assert obj["format"] == "mpct-bench-v1"
        assert len(obj["results"]) == 2
        buf = io.StringIO()
        write_trials_csv(results, buf)
        rows = list(csv.DictReader(io.StringIO(buf.getvalue())))
        assert len(rows) == 6
        # per-trial records reproduce the aggregates exactly
        reach = [int(r["iterations"]) for r in rows if r["label"] == "reachable"]
        assert float(np.median(reach)) == obj["results"][0]["iterations"]["median"]


class TestBundledPenalty:
    """The bundled ball-plate penalty is the null-space rule's value, and it serves the scenario."""

    def test_scenario_converges_at_its_own_defaults(self):
        sc = load_scenario(str(models_dir() / "scenario_ball_plate.json"))
        reach, unreach = run_benchmark(replace(sc, trials=20))
        assert (reach.label, unreach.label) == ("reachable", "unreachable")
        for stats in (reach, unreach):
            assert stats.converged == stats.completed == 20
        assert reach.iteration_stats()["average"] <= 90

    def test_file_rho_is_the_null_space_rule(self):
        script = Path(__file__).resolve().parents[1] / "scripts" / "make_models.py"
        spec = importlib.util.spec_from_file_location("make_models", script)
        make_models = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(make_models)
        obj = json.loads((models_dir() / "ball_plate_like.json").read_text(encoding="utf-8"))
        assert obj["params"]["rho"] == make_models.null_space_rho(obj["model"], obj["params"])


class TestPlotData:
    def _traj(self, steps, nx=2, nu=1):
        ref = Reference("r", np.zeros(nx), np.zeros(nu))
        return Trajectory(
            reference=ref,
            sample_time=0.1,
            states=np.arange((steps + 1) * nx, dtype=float).reshape(steps + 1, nx),
            inputs=np.arange(steps * nu, dtype=float).reshape(steps, nu),
            artificial_x=np.zeros((steps, nx)),
            artificial_u=np.zeros((steps, nu)),
            iterations=np.arange(steps),
            statuses=[SolveStatus.CONVERGED] * steps,
            solve_times=np.zeros(steps),
        )

    def test_empty_trajectory_writes_header_only(self):
        buf = io.StringIO()
        emit_plot_data(self._traj(0), buf)
        lines = buf.getvalue().strip().splitlines()
        assert len(lines) == 1

    def test_row_and_column_counts(self):
        buf = io.StringIO()
        emit_plot_data(self._traj(3), buf)
        rows = buf.getvalue().strip().splitlines()
        assert len(rows) == 4
        nx, nu = 2, 1
        assert len(rows[0].split(",")) == 1 + 1 + nx + nu + nx + nu + 1

    def test_roundtrip_values(self):
        traj = self._traj(3)
        buf = io.StringIO()
        emit_plot_data(traj, buf)
        rows = list(csv.DictReader(io.StringIO(buf.getvalue())))
        for t, row in enumerate(rows):
            assert float(row["time"]) == pytest.approx(t * traj.sample_time)
            assert float(row["x0"]) == pytest.approx(traj.states[t, 0])
            assert float(row["u0"]) == pytest.approx(traj.inputs[t, 0])
            assert int(row["iterations"]) == traj.iterations[t]
