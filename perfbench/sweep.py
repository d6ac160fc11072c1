"""Horizon sweep: per-iteration cost against N, and the dense-map baseline.

Each horizon runs a fixed number of iterations under unattainable
tolerances (as acceptance test 5 does), so every solve does the same work.
The per-iteration times are fitted as ``a + b * N``: ``a`` is the fixed cost
of an iteration, ``b`` the cost per stage.

The baseline is the simplest alternative to the structured KKT chain: the
chain is affine in its inputs, ``z = K p + L x_t``, so ``K`` and ``L`` are
read off ``solve_kkt_system`` applied to unit vectors and the map is one
dense product. The crossover is the horizon at which the chain and the map
cost the same, interpolated between the swept horizons in log-log scale.
"""

from __future__ import annotations

import functools
import time
from dataclasses import replace

import numpy as np

from mpct_admm.admm_solver import admm_solve
from mpct_admm.mpct_problem import build_problem
from mpct_admm.semiband_solver import KktWorkspace, solve_kkt_system

HORIZONS = (30, 60, 120, 240)
SWEEP_ITERS = 200
ROUNDS = 9
X0 = np.array([0.5, 0, 0, 0, 1.5, 0, 0, 0])
MAP_TOL = 1e-8


def _batch_time(fn, repeats: int) -> float:
    """Mean seconds per call over ``repeats`` back-to-back calls."""
    t0 = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - t0) / repeats


def _apply_map(k: np.ndarray, l: np.ndarray, p: np.ndarray, x_t: np.ndarray) -> np.ndarray:
    return k @ p + l @ x_t


def _dense_map(data) -> tuple[np.ndarray, np.ndarray]:
    """``K`` and ``L`` with ``solve_kkt_system(p, b) = K p + L x_t`` for ``b = (x_t, 0)``."""
    n_z, m_z, nx = data.n_z, data.m_z, data.n_x
    work = KktWorkspace.for_problem(data)
    zero_b = np.zeros(m_z)
    zero_p = np.zeros(n_z)
    unit = np.zeros(n_z)
    k = np.empty((n_z, n_z))
    for j in range(n_z):
        unit[j] = 1.0
        k[:, j] = solve_kkt_system(data, unit, zero_b, work=work)[0]
        unit[j] = 0.0
    l = np.empty((n_z, nx))
    for i in range(nx):
        b = zero_b.copy()
        b[i] = 1.0
        l[:, i] = solve_kkt_system(data, zero_p, b, work=work)[0]
    return k, l


def _crossover(horizons, chain_us, map_us) -> float:
    """Horizon where ``map_us / chain_us`` crosses 1, log-log interpolated.

    Outside the swept range the nearest segment is extrapolated.
    """
    log_n = np.log(np.asarray(horizons, dtype=float))
    log_r = np.log(np.asarray(map_us) / np.asarray(chain_us))
    seg = len(log_n) - 2
    for i in range(len(log_n) - 1):
        if (log_r[i] <= 0.0) != (log_r[i + 1] <= 0.0):
            seg = i
            break
    else:
        if log_r[0] > 0.0:
            seg = 0
    slope = (log_r[seg + 1] - log_r[seg]) / (log_n[seg + 1] - log_n[seg])
    return float(np.exp(log_n[seg] - log_r[seg] / slope))


def horizon_sweep(scenario, reference, rng: np.random.Generator) -> tuple[dict[str, float], list[dict]]:
    """Per-layer sweep metrics plus the map-versus-chain checks.

    The horizons are timed round-robin, one sample each per round, and each
    reports its median over the rounds, so that a drift of machine speed
    during the sweep does not tilt the fit.
    """
    cases = []
    checks = []
    for n in HORIZONS:
        params = replace(scenario.params, N=n, eps_primal=1e-14, eps_dual=1e-14, max_iter=SWEEP_ITERS)
        data = build_problem(scenario.model, params, scenario.scaling)
        k, l = _dense_map(data)
        x_t = X0 if data.scaling is None else data.scaling.scale_state(X0)
        b = np.zeros(data.m_z)
        b[: data.n_x] = x_t
        p = rng.standard_normal(data.n_z)
        work = KktWorkspace.for_problem(data)
        z = solve_kkt_system(data, p, b, work=work)[0]
        err = float(np.abs(k @ p + l @ x_t - z).max() / (1.0 + np.abs(z).max()))
        checks.append({"kind": f"dense_map_N{n}", "value": err, "tol": MAP_TOL, "ok": bool(err <= MAP_TOL)})
        repeats = max(10, 1_000_000 // (data.n_z * data.n_z))
        cases.append((
            functools.partial(admm_solve, data, X0, reference.x_r, reference.u_r),
            functools.partial(solve_kkt_system, data, p, b, work=work),
            functools.partial(_apply_map, k, l, p, x_t),
            repeats,
        ))

    samples = np.empty((ROUNDS, len(HORIZONS), 3))
    for case in cases:
        case[0]()  # warm-up
    for r in range(ROUNDS):
        for i, (solve, chain, dense, repeats) in enumerate(cases):
            t0 = time.perf_counter()
            report, _ = solve()
            samples[r, i, 0] = (time.perf_counter() - t0) / report.iterations
            samples[r, i, 1] = _batch_time(chain, repeats)
            samples[r, i, 2] = _batch_time(dense, repeats)
    iter_us, chain_us, map_us = (np.median(samples, axis=0) * 1e6).T

    out: dict[str, float] = {}
    for n, it, ch, mp in zip(HORIZONS, iter_us, chain_us, map_us):
        out[f"admm_solver.iter_us.N{n}"] = float(it)
        out[f"baseline.kkt_chain_us.N{n}"] = float(ch)
        out[f"baseline.dense_map_us.N{n}"] = float(mp)
    a, slope = np.polynomial.polynomial.polyfit(HORIZONS, iter_us, 1)
    out["admm_solver.iter_fixed_us"] = float(a)
    out["admm_solver.iter_per_stage_us"] = float(slope)
    out["baseline.crossover_N"] = _crossover(HORIZONS, chain_us, map_us)
    return out, checks
