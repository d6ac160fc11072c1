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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .admm_solver import AdmmState, SolveStatus, admm_solve
from .errors import DimensionMismatch, SolverFailed
from .mpct_problem import (
    LtiModel,
    MpctParams,
    PrecomputedData,
    _finite_vector,
    _known_keys,
    _matrix,
    _parse,
    _positive_finite,
    _real,
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
_SCENARIO_KEYS = (
    "format", "description", "problem", "references", "initial_state",
    "trials", "steps", "seed", "sample_time",
)


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
    Labels must be distinct; a repeated one raises a ValueError naming it.
    """

    model: LtiModel
    params: MpctParams
    references: tuple[Reference, ...]
    x0_intervals: np.ndarray
    trials: int
    steps: int
    seed: int
    sample_time: float = 1.0
    # always None; read only by perfbench/run.py:276-279 and sweep.py:96 (ROADMAP item 1)
    scaling: None = None

    def __post_init__(self):
        iv = np.asarray(self.x0_intervals, dtype=float)
        if iv.shape != (self.model.n_x, 2):
            raise ValueError(f"x0 intervals must have shape ({self.model.n_x}, 2)")
        # NaN fails every comparison below, and an infinite end cannot be sampled
        if not np.all(np.isfinite(iv)):
            raise ValueError("initial_state.intervals must be finite")
        if np.any(iv[:, 0] > iv[:, 1]):
            raise ValueError("x0 intervals must satisfy lo <= hi")
        if np.any(iv[:, 0] < self.model.x_lo) or np.any(iv[:, 1] > self.model.x_hi):
            raise ValueError("x0 intervals must lie within the state bounds")
        object.__setattr__(self, "references", tuple(self.references))
        if not self.references:
            raise ValueError("scenario needs at least one reference")
        for i, r in enumerate(self.references):
            if any(r.label == q.label for q in self.references[:i]):
                raise ValueError(f"reference label {r.label!r} appears more than once")
            _finite_vector(r.x_r, self.model.n_x, f"reference {r.label!r} x_r")
            _finite_vector(r.u_r, self.model.n_u, f"reference {r.label!r} u_r")
        object.__setattr__(self, "trials", _whole_number(self.trials, "trials", 1))
        object.__setattr__(self, "steps", _whole_number(self.steps, "steps", 0))
        object.__setattr__(self, "seed", _whole_number(self.seed, "seed", 0))
        object.__setattr__(self, "sample_time", _positive_finite(self.sample_time, "sample_time"))
        object.__setattr__(self, "x0_intervals", iv)


def _label(value) -> str:
    """A JSON string as a label: ``null``, a number or a list is not one."""
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {type(value).__name__} {value!r}")
    return value


def _references(entries) -> tuple[Reference, ...]:
    refs = []
    for i, entry in enumerate(entries):
        where = f"references[{i}]"
        if not isinstance(entry, dict):
            raise ValueError(f"{where} must be a JSON object, got {type(entry).__name__}")
        _known_keys(entry, f"{where}.", ("label", "x_r", "u_r"))
        refs.append(Reference(
            label=_parse(f"{where}.label", _label, entry, "label"),
            x_r=_parse(f"{where}.x_r", _matrix, entry, "x_r"),
            u_r=_parse(f"{where}.u_r", _matrix, entry, "u_r"),
        ))
    return tuple(refs)


def scenario_from_dict(obj: dict, base_dir: Path | None = None) -> Scenario:
    """Parse a scenario mapping.

    A missing or wrongly-typed field, or an unknown key at the top level, in
    ``initial_state`` or in a reference, raises a ValueError naming it, such
    as ``missing references[0].u_r``. Numeric fields take JSON numbers only,
    not booleans or strings such as ``"5"``, and a label a JSON string only.
    """
    if not isinstance(obj, dict) or obj.get("format") != SCENARIO_FORMAT:
        raise ValueError(f'scenario file must declare "format": "{SCENARIO_FORMAT}"')
    _known_keys(obj, "", _SCENARIO_KEYS)
    problem = _parse("problem", lambda value: value, obj, "problem")
    if isinstance(problem, str):
        path = Path(problem)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        with open(path, "r", encoding="utf-8") as fh:
            problem = json.load(fh)
    model, params = problem_from_dict(problem)
    references = _references(_parse("references", list, obj, "references"))
    initial_state = _section(obj, "initial_state")
    _known_keys(initial_state, "initial_state.", ("intervals",))
    intervals = _parse("initial_state.intervals", _matrix, initial_state, "intervals")
    defaults = {"trials": 1, "steps": 0, "seed": 0, "sample_time": 1.0}
    settings = {key: _parse(key, _real, obj, key) if key in obj else value for key, value in defaults.items()}
    return Scenario(model=model, params=params, references=references, x0_intervals=intervals, **settings)


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
) -> Trajectory:
    """Roll the plant under the tracking controller with warm-started solves.

    The applied input is always the projected iterate's first block, so it is
    box-feasible even when a step exits on the iteration cap. A numerical
    failure aborts the trial with :class:`SolverFailed`. ``steps`` must be a
    whole number of at least 0 and ``sample_time`` positive and finite; a
    bad argument raises a ValueError naming it before any solve. ``plant``
    must have the dimensions of ``data.model`` and ``x0`` be a finite state
    of them; otherwise :class:`DimensionMismatch` or :class:`NonFiniteInput`
    names the argument before any solve. Every step solves at the settings
    of ``data.params`` (see :class:`PrecomputedData`).
    """
    steps = _whole_number(steps, "steps", 0)
    sample_time = _positive_finite(sample_time, "sample_time")
    nx, nu = data.n_x, data.n_u
    if (plant.n_x, plant.n_u) != (nx, nu):
        raise DimensionMismatch(f"plant must have the problem's {nx} states and {nu} inputs")
    x = _finite_vector(x0, nx, "x0").copy()
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
    data = build_problem(scenario.model, scenario.params)
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
