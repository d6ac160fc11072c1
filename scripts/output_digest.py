#!/usr/bin/env python3
"""One SHA-256 over the raw bytes of the solver's outputs on the bundled models.

A refactor that claims to keep the solver's arithmetic unchanged must print
the same digest before and after, on one machine. The digest covers:

- ``solve_kkt_system``'s ``(z, mu)`` for a seeded ``(p, b)``;
- a cold and a warm-started ``admm_solve``: ``z``, ``v``, ``lam``, the
  control action, the artificial reference, the iteration count, both
  residuals and the status;

on each of the three bundled models, at its own horizon and at N=240; and
40-step ``simulate_closed_loop`` runs on both references of both bundled
scenarios (states, inputs, artificial references, iteration counts and
statuses). Floats are hashed as their IEEE bytes, so the sign of a zero
counts; wall times are left out. Rounding may differ across CPUs and BLAS
builds, so compare digests taken on one machine only.

    PYTHONPATH=src python3 scripts/output_digest.py
"""

import hashlib
from dataclasses import replace
from importlib import resources

import numpy as np

from mpct_admm import admm_solve, build_problem, load_problem, load_scenario, simulate_closed_loop, solve_kkt_system
from mpct_admm.harness import sample_initial_states

MODELS = ("ball_plate_like.json", "double_integrator.json", "mass_spring.json")
SCENARIOS = ("scenario_ball_plate.json", "scenario_double_integrator.json")
LONG_HORIZON = 240
STEPS = 40
SEED = 20240915


def _update(digest, *values) -> None:
    """Feed each value's raw bytes: arrays and floats as float64, ints as int64, strings as UTF-8."""
    for value in values:
        if isinstance(value, str):
            digest.update(value.encode())
        elif isinstance(value, (int, np.integer)):
            digest.update(np.int64(value).tobytes())
        else:
            digest.update(np.ascontiguousarray(value, dtype=np.float64).tobytes())


def _near_middle(lo, hi, rng) -> np.ndarray:
    """The middle of a box, 0 where a side is unbounded, plus a normal draw of standard deviation 0.1."""
    both = np.isfinite(lo) & np.isfinite(hi)
    middle = 0.5 * (np.where(both, lo, 0.0) + np.where(both, hi, 0.0))
    return middle + 0.1 * rng.standard_normal(lo.shape)


def _solve_outputs(digest, report, state) -> None:
    xs, us = report.artificial_reference
    _update(digest, state.z, state.v, state.lam, report.control_action, xs, us)
    _update(digest, report.iterations, report.primal_residual, report.dual_residual, report.status.value)


def main() -> None:
    models = resources.files("mpct_admm") / "models"
    digest = hashlib.sha256()
    for name in MODELS:
        model, params = load_problem(models / name)
        for horizon in (params.N, LONG_HORIZON):
            data = build_problem(model, replace(params, N=horizon))
            rng = np.random.default_rng(SEED)
            _update(digest, *solve_kkt_system(data, rng.standard_normal(data.n_z), rng.standard_normal(data.m_z)))
            x_t = _near_middle(model.x_lo, model.x_hi, rng)
            x_r = _near_middle(model.x_lo, model.x_hi, rng)
            u_r = np.zeros(model.n_u)
            report, state = admm_solve(data, x_t, x_r, u_r)
            _solve_outputs(digest, report, state)
            report, state = admm_solve(data, model.A @ x_t + model.B @ report.control_action, x_r, u_r, warm=state)
            _solve_outputs(digest, report, state)
    for name in SCENARIOS:
        sc = load_scenario(models / name)
        data = build_problem(sc.model, sc.params)
        for ri, ref in enumerate(sc.references):
            x0 = sample_initial_states(sc, ri)[0]
            traj = simulate_closed_loop(data, sc.model, x0, ref, STEPS, sc.sample_time)
            _update(digest, traj.states, traj.inputs, traj.artificial_x, traj.artificial_u, traj.iterations)
            _update(digest, *(status.value for status in traj.statuses))
    print(digest.hexdigest())


if __name__ == "__main__":
    main()
