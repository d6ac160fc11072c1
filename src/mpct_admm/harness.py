"""Closed-loop simulation and benchmarking.

A scenario bundles a problem definition with labeled reference pairs, a
per-coordinate uniform sampler for initial states, trial counts and an RNG
seed. Benchmarks replicate the random-current-state protocol: one cold-start
solve per sampled state, aggregated into average/median/max/min iteration
and timing statistics. Closed-loop simulation rolls the plant forward with
warm-started solves and records everything needed to regenerate trajectory
plots.

Randomness comes from numpy's PCG64 via ``default_rng``; one child seed is
spawned per position in the reference list, so results are reproducible,
appending a reference keeps the earlier references' draws, and removing or
reordering references changes them.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .admm_solver import AdmmState, SolveStatus, admm_solve
from .errors import SolverFailed
from .mpct_problem import (
    DiagonalScaling,
    LtiModel,
    MpctParams,
    PrecomputedData,
    _finite_vector,
    _matrix,
    _parse,
    _positive_finite,
    _section,
    _whole_number,
    build_problem,
    problem_from_dict,
)

__all__ = [
    "SCENARIO_FORMAT",
    "Reference",
    "Scenario",
    "Trajectory",
    "BenchStats",
    "load_scenario",
    "scenario_from_dict",
    "sample_initial_states",
    "simulate_closed_loop",
    "run_benchmark",
    "emit_plot_data",
    "write_trials_csv",
    "bench_stats_dict",
]

SCENARIO_FORMAT = "mpct-scenario-v1"


@dataclass(frozen=True)
class Reference:
    """A labeled steady-state target pair."""

    label: str
    x_r: np.ndarray
    u_r: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x_r", np.asarray(self.x_r, dtype=float))
        object.__setattr__(self, "u_r", np.asarray(self.u_r, dtype=float))


@dataclass(frozen=True)
class Scenario:
    """Benchmark/simulation recipe tied to one problem definition.

    ``trials`` (at least 1), ``steps`` and ``seed`` (at least 0) must be
    whole numbers and are stored as ints; anything else raises a ValueError
    that names the field. Each reference's ``x_r`` and ``u_r`` must match the
    model's dimensions and be finite; the error names the reference's label.
    """

    model: LtiModel
    params: MpctParams
    scaling: DiagonalScaling | None
    references: tuple[Reference, ...]
    x0_intervals: np.ndarray
    trials: int
    steps: int
    seed: int
    sample_time: float = 1.0

    def __post_init__(self):
        iv = np.asarray(self.x0_intervals, dtype=float)
        if iv.shape != (self.model.n_x, 2):
            raise ValueError(f"x0 intervals must have shape ({self.model.n_x}, 2)")
        if np.any(iv[:, 0] > iv[:, 1]):
            raise ValueError("x0 intervals must satisfy lo <= hi")
        if np.any(iv[:, 0] < self.model.x_lo) or np.any(iv[:, 1] > self.model.x_hi):
            raise ValueError("x0 intervals must lie within the state bounds")
        object.__setattr__(self, "references", tuple(self.references))
        if not self.references:
            raise ValueError("scenario needs at least one reference")
        for r in self.references:
            _finite_vector(r.x_r, self.model.n_x, f"reference {r.label!r} x_r")
            _finite_vector(r.u_r, self.model.n_u, f"reference {r.label!r} u_r")
        object.__setattr__(self, "trials", _whole_number(self.trials, "trials", 1))
        object.__setattr__(self, "steps", _whole_number(self.steps, "steps", 0))
        object.__setattr__(self, "seed", _whole_number(self.seed, "seed", 0))
        object.__setattr__(self, "sample_time", _positive_finite(self.sample_time, "sample_time"))
        object.__setattr__(self, "x0_intervals", iv)


def _references(entries) -> tuple[Reference, ...]:
    return tuple(Reference(label=r["label"], x_r=r["x_r"], u_r=r["u_r"]) for r in entries)


def scenario_from_dict(obj: dict, base_dir: Path | None = None) -> Scenario:
    """Parse a scenario mapping; a missing or wrongly-typed field raises a ValueError naming it."""
    if not isinstance(obj, dict) or obj.get("format") != SCENARIO_FORMAT:
        raise ValueError(f'scenario file must declare "format": "{SCENARIO_FORMAT}"')
    problem = _parse("problem", lambda value: value, obj, "problem")
    if isinstance(problem, str):
        path = Path(problem)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        with open(path, "r", encoding="utf-8") as fh:
            problem = json.load(fh)
    model, params, scaling = problem_from_dict(problem)
    references = _parse("references", _references, obj, "references")
    intervals = _parse("initial_state.intervals", _matrix, _section(obj, "initial_state"), "intervals")
    return Scenario(
        model=model,
        params=params,
        scaling=scaling,
        references=references,
        x0_intervals=intervals,
        trials=obj.get("trials", 1),
        steps=obj.get("steps", 0),
        seed=obj.get("seed", 0),
        sample_time=obj.get("sample_time", 1.0),
    )


def load_scenario(path) -> Scenario:
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    return scenario_from_dict(obj, base_dir=path.parent)


def sample_initial_states(scenario: Scenario, reference_index: int) -> np.ndarray:
    """All trial initial states for the reference at this position, shape (trials, n_x)."""
    seeds = np.random.SeedSequence(scenario.seed).spawn(len(scenario.references))
    rng = np.random.default_rng(seeds[reference_index])
    iv = scenario.x0_intervals
    return rng.uniform(iv[:, 0], iv[:, 1], size=(scenario.trials, iv.shape[0]))


@dataclass
class Trajectory:
    """Closed-loop record: states include the initial one, inputs one per step."""

    reference: Reference
    sample_time: float
    states: np.ndarray
    inputs: np.ndarray
    artificial_x: np.ndarray
    artificial_u: np.ndarray
    iterations: np.ndarray
    statuses: list[SolveStatus]
    solve_times: np.ndarray

    @property
    def steps(self) -> int:
        return self.inputs.shape[0]


def simulate_closed_loop(
    data: PrecomputedData,
    plant: LtiModel,
    x0: np.ndarray,
    reference: Reference,
    steps: int,
    sample_time: float = 1.0,
    *,
    eps_primal: float | None = None,
    eps_dual: float | None = None,
    max_iter: int | None = None,
) -> Trajectory:
    """Roll the plant under the tracking controller with warm-started solves.

    The applied input is always the projected iterate's first block, so it is
    box-feasible even when a step exits on the iteration cap. A numerical
    failure aborts the trial with :class:`SolverFailed`. ``steps`` must be a
    whole number of at least 0 and ``sample_time`` positive and finite.
    ``eps_primal``, ``eps_dual`` and ``max_iter``, when given, replace those
    of ``data.params`` for every step, and :class:`MpctParams` checks them.
    A bad argument raises a ValueError naming it before any solve.
    """
    steps = _whole_number(steps, "steps", 0)
    sample_time = _positive_finite(sample_time, "sample_time")
    overrides = {"eps_primal": eps_primal, "eps_dual": eps_dual, "max_iter": max_iter}
    overrides = {name: value for name, value in overrides.items() if value is not None}
    if overrides:
        data = replace(data, params=replace(data.params, **overrides))
    nx, nu = plant.n_x, plant.n_u
    x = np.asarray(x0, dtype=float).copy()
    states = np.empty((steps + 1, nx))
    inputs = np.empty((steps, nu))
    art_x = np.empty((steps, nx))
    art_u = np.empty((steps, nu))
    iters = np.empty(steps, dtype=int)
    times = np.empty(steps)
    statuses: list[SolveStatus] = []
    states[0] = x
    warm: AdmmState | None = None
    for t in range(steps):
        report, warm = admm_solve(data, x, reference.x_r, reference.u_r, warm=warm)
        if report.status is SolveStatus.NUMERICAL_ERROR:
            raise SolverFailed(t, "non-finite iterates")
        u = report.control_action
        inputs[t] = u
        art_x[t], art_u[t] = report.artificial_reference
        iters[t] = report.iterations
        times[t] = report.solve_time
        statuses.append(report.status)
        x = plant.A @ x + plant.B @ u
        states[t + 1] = x
    return Trajectory(
        reference=reference,
        sample_time=sample_time,
        states=states,
        inputs=inputs,
        artificial_x=art_x,
        artificial_u=art_u,
        iterations=iters,
        statuses=statuses,
        solve_times=times,
    )


@dataclass
class BenchStats:
    """Per-trial records for one reference plus recomputable aggregates."""

    label: str
    rho: float
    iterations: np.ndarray
    solve_times: np.ndarray
    statuses: list[SolveStatus]

    @property
    def completed(self) -> int:
        return len(self.statuses)

    @property
    def converged(self) -> int:
        return sum(s is SolveStatus.CONVERGED for s in self.statuses)

    @staticmethod
    def _aggregate(values: np.ndarray) -> dict:
        return {
            "average": float(np.mean(values)),
            "median": float(np.median(values)),
            "max": float(np.max(values)),
            "min": float(np.min(values)),
        }

    def iteration_stats(self) -> dict:
        return self._aggregate(self.iterations)

    def time_stats_ms(self) -> dict:
        return self._aggregate(1e3 * self.solve_times)


def run_benchmark(scenario: Scenario) -> list[BenchStats]:
    """One cold-start solve per sampled initial state, per reference.

    Deterministic in iteration counts for a fixed seed (timings are not).
    Timing covers the iteration loop only, never file I/O.
    """
    data = build_problem(scenario.model, scenario.params, scenario.scaling)
    results = []
    for ri, ref in enumerate(scenario.references):
        x0s = sample_initial_states(scenario, ri)
        iters = np.empty(scenario.trials, dtype=int)
        times = np.empty(scenario.trials)
        statuses: list[SolveStatus] = []
        for trial in range(scenario.trials):
            report, _ = admm_solve(data, x0s[trial], ref.x_r, ref.u_r)
            iters[trial] = report.iterations
            times[trial] = report.solve_time
            statuses.append(report.status)
        results.append(
            BenchStats(
                label=ref.label,
                rho=scenario.params.rho,
                iterations=iters,
                solve_times=times,
                statuses=statuses,
            )
        )
    return results


def emit_plot_data(trajectory: Trajectory, fp) -> None:
    """Tidy per-step CSV: step, time, states, inputs, artificial pair, iterations."""
    nx = trajectory.states.shape[1]
    nu = trajectory.inputs.shape[1]
    header = (
        ["step", "time"]
        + [f"x{i}" for i in range(nx)]
        + [f"u{i}" for i in range(nu)]
        + [f"xs{i}" for i in range(nx)]
        + [f"us{i}" for i in range(nu)]
        + ["iterations"]
    )
    writer = csv.writer(fp)
    writer.writerow(header)
    for t in range(trajectory.steps):
        row = (
            [t, t * trajectory.sample_time]
            + list(trajectory.states[t])
            + list(trajectory.inputs[t])
            + list(trajectory.artificial_x[t])
            + list(trajectory.artificial_u[t])
            + [int(trajectory.iterations[t])]
        )
        writer.writerow(row)


def write_trials_csv(results: list[BenchStats], fp) -> None:
    writer = csv.writer(fp)
    writer.writerow(["label", "trial", "iterations", "solve_time_s", "status"])
    for stats in results:
        for trial in range(stats.completed):
            writer.writerow(
                [
                    stats.label,
                    trial,
                    int(stats.iterations[trial]),
                    repr(float(stats.solve_times[trial])),
                    stats.statuses[trial].value,
                ]
            )


def bench_stats_dict(results: list[BenchStats]) -> dict:
    return {
        "format": "mpct-bench-v1",
        "results": [
            {
                "label": stats.label,
                "rho": stats.rho,
                "trials": stats.completed,
                "converged": stats.converged,
                "iterations": stats.iteration_stats(),
                "time_ms": stats.time_stats_ms(),
            }
            for stats in results
        ],
    }
