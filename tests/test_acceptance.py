"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete. Every tolerance is pinned here; none is tuned at runtime.
"""

import time
from dataclasses import replace
from importlib import resources

import numpy as np
from scipy.linalg import block_diag

from mpct_admm import (
    SolveStatus,
    SymBandedMatrix,
    admm_solve,
    assemble_online,
    banded_cholesky_factor,
    build_problem,
    certify_kkt,
    dense_instance,
    dense_kkt_solve,
    dense_qp_solve,
    load_problem,
    load_scenario,
    optimal_steady_state,
    run_benchmark,
    simulate_closed_loop,
    solve_kkt_system,
    solve_semibanded,
)
from mpct_admm.oracle import NotConverged, dense_bounds, dense_dynamics, dense_hessian
from mpct_admm.semiband_solver import SemiBandedSystem

from conftest import random_controllable_model, random_params, random_spd

from test_banded_linalg import random_spd_banded


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _random_dims(rng):
    n_x = int(rng.integers(1, 5))
    n_u = int(rng.integers(1, 4))
    horizon = int(rng.integers(max(2, n_x), 9))
    return n_x, n_u, horizon


def test_acceptance_1_structured_vs_dense_kkt():
    """>=200 random instances: structured KKT chain vs dense saddle solve, 1e-7."""
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    trials = 200
    for _ in range(trials):
        n_x, n_u, horizon = _random_dims(rng)
        model = random_controllable_model(rng, n_x, n_u)
        params = random_params(rng, n_x, n_u, horizon)
        data = build_problem(model, params)
        inst = dense_instance(model, params, np.zeros(n_x), np.zeros(n_x), np.zeros(n_u))
        p = rng.standard_normal(data.n_z)
        b = rng.standard_normal(data.m_z)
        z, _ = solve_kkt_system(data, p, b)
        z_ref, _ = dense_kkt_solve(inst, p, b)
        err = float(np.abs(z - z_ref).max() / (1.0 + np.abs(z_ref).max()))
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-7 and elapsed <= 60.0
    _report(1, ok, f"{trials} instances, worst relative error {worst:.2e}, {elapsed:.1f}s")


def test_acceptance_2_semibanded_solver():
    """>=500 random semi-banded systems vs dense solve (1e-8) + Woodbury identity (1e-9)."""
    rng = np.random.default_rng(1002)
    worst_solve = 0.0
    worst_identity = 0.0
    trials = 500
    for trial in range(trials):
        n = int(rng.integers(2, 201))
        m = int(rng.integers(1, 13))
        if rng.random() < 0.5:
            bw = int(rng.integers(0, min(8, n)))
            core = random_spd_banded(rng, n, bw)
            gamma_dense = core.to_dense()
            gamma = banded_cholesky_factor(core)
        else:
            sizes, left = [], n
            while left > 0:
                k = int(rng.integers(1, min(5, left) + 1))
                sizes.append(k)
                left -= k
            blocks = (random_spd(rng, k, 1.0, 4.0) for k in sizes)
            gamma_dense = block_diag(*(0.5 * (b + b.T) for b in blocks))
            gamma = banded_cholesky_factor(SymBandedMatrix.from_dense(gamma_dense, max(sizes) - 1))
        u = 0.4 * rng.standard_normal((n, m))
        v = 0.4 * rng.standard_normal((m, n))
        sys = SemiBandedSystem.build(gamma, u, v)
        d = rng.standard_normal(n)
        z = solve_semibanded(sys, d)
        expected = np.linalg.solve(gamma_dense + u @ v, d)
        err = float(np.abs(z - expected).max() / (1.0 + np.abs(expected).max()))
        worst_solve = max(worst_solve, err)
        if trial % 5 == 0:
            lhs = np.linalg.inv(gamma_dense + u @ v)
            ginv = np.linalg.inv(gamma_dense)
            rhs = ginv - ginv @ u @ np.linalg.solve(np.eye(m) + v @ ginv @ u, v @ ginv)
            ierr = float(np.abs(lhs - rhs).max() / (1.0 + np.abs(lhs).max()))
            worst_identity = max(worst_identity, ierr)
    ok = worst_solve <= 1e-8 and worst_identity <= 1e-9
    _report(
        2,
        ok,
        f"{trials} systems, worst solve error {worst_solve:.2e}, "
        f"worst inverse-identity error {worst_identity:.2e}",
    )


def test_acceptance_3_full_qp_optimality():
    """>=50 feasible instances: ADMM at 1e-6 within 1e-4 of the dense optimum + certified."""
    rng = np.random.default_rng(1003)
    worst_gap = 0.0
    worst_cert = 0.0
    done = 0
    attempts = 0
    while done < 50:
        attempts += 1
        assert attempts < 200, "instance generator kept producing unusable problems"
        n_x, n_u, horizon = _random_dims(rng)
        model = random_controllable_model(rng, n_x, n_u)
        params = random_params(
            rng, n_x, n_u, horizon, eps_primal=1e-6, eps_dual=1e-6, max_iter=20000
        )
        x_t = rng.uniform(-0.5, 0.5, n_x)
        x_r = rng.uniform(-1.0, 1.0, n_x)
        u_r = np.zeros(n_u)
        data = build_problem(model, params)
        report, state = admm_solve(data, x_t, x_r, u_r)
        if report.status is not SolveStatus.CONVERGED:
            continue  # unusable draw; the generator, not the solver, is at fault
        inst = dense_instance(model, params, x_t, x_r, u_r)
        try:
            ref = dense_qp_solve(inst)
        except NotConverged:
            continue
        gap = float(np.abs(state.v - ref.z).max())
        cert = certify_kkt(inst, state.v, state.lam).max_residual
        worst_gap = max(worst_gap, gap)
        worst_cert = max(worst_cert, cert)
        done += 1
    ok = worst_gap <= 1e-4 and worst_cert <= 1e-6
    _report(
        3,
        ok,
        f"{done} instances, worst distance to dense optimum {worst_gap:.2e}, "
        f"worst scaled KKT residual {worst_cert:.2e}",
    )


def test_acceptance_4_convergence_for_any_rho():
    """Fixed instance converges for rho over three decades; bundled benchmark stays quick."""
    rng = np.random.default_rng(1004)
    model = random_controllable_model(rng, 3, 2)
    iteration_counts = {}
    for rho in (0.05, 0.5, 5.0, 50.0):
        params = random_params(
            np.random.default_rng(7),  # same costs for every rho
            3, 2, 6, rho=rho, eps_primal=1e-6, eps_dual=1e-6, max_iter=20000,
        )
        data = build_problem(model, params)
        report, _ = admm_solve(data, np.array([0.4, -0.2, 0.1]), np.zeros(3), np.zeros(2))
        if report.status is not SolveStatus.CONVERGED:
            _report(4, False, f"rho={rho} did not converge within 20000 iterations")
        iteration_counts[rho] = report.iterations

    scenario = load_scenario(str(resources.files("mpct_admm") / "models" / "scenario_ball_plate.json"))
    scenario = replace(scenario, trials=25)
    medians = {}
    for rho in (0.1, 0.6, 2.0):
        sc = replace(scenario, params=replace(scenario.params, rho=rho))
        stats = run_benchmark(sc)
        reach = next(s for s in stats if s.label == "reachable")
        all_converged = reach.converged == reach.completed
        medians[rho] = (float(np.median(reach.iterations)), all_converged)
    best = min(m for m, conv in medians.values() if conv)
    ok = best <= 200.0
    detail = (
        "iterations per rho " + str(iteration_counts)
        + "; benchmark medians " + str({k: v[0] for k, v in medians.items()})
    )
    _report(4, ok, detail)


def test_acceptance_5_per_iteration_cost_scaling():
    """Doubling the horizon from 30 to 60 at n_x=8, n_u=2 costs at most 2.6x per iteration."""
    start = time.perf_counter()
    base = str(resources.files("mpct_admm") / "models" / "ball_plate_like.json")
    model, params = load_problem(base)

    def median_iter_time(horizon):
        p = replace(params, N=horizon, eps_primal=1e-14, eps_dual=1e-14, max_iter=300)
        data = build_problem(model, p)
        x0 = np.array([0.5, 0, 0, 0, 1.5, 0, 0, 0])
        times = []
        for _ in range(9):
            report, _ = admm_solve(data, x0, np.array([1.0, 0, 0, 0, 0.8, 0, 0, 0]), np.zeros(2))
            times.append(report.avg_iter_time)
        return float(np.median(times))

    t30 = median_iter_time(30)
    t60 = median_iter_time(60)
    elapsed = time.perf_counter() - start
    ratio = t60 / t30
    ok = ratio <= 2.6 and elapsed <= 120.0
    _report(
        5,
        ok,
        f"median per-iteration time {t30 * 1e6:.0f}us (N=30) -> {t60 * 1e6:.0f}us (N=60), "
        f"ratio {ratio:.2f}, {elapsed:.1f}s",
    )


def test_acceptance_6_closed_loop_semantics():
    """Reachable references are tracked; unreachable ones settle at the closest equilibrium."""
    scenario = load_scenario(str(resources.files("mpct_admm") / "models" / "scenario_ball_plate.json"))
    model, params = scenario.model, scenario.params
    x0 = np.array([0.5, 0, 0, 0, 1.5, 0, 0, 0])

    reachable = next(r for r in scenario.references if r.label == "reachable")
    data = build_problem(model, params)
    data = replace(data, params=replace(params, eps_primal=1e-5, eps_dual=1e-5, max_iter=20000))
    traj = simulate_closed_loop(data, model, x0, reachable, steps=150)
    err_reach = float(np.abs(traj.states[-1] - reachable.x_r).max())

    unreachable = next(r for r in scenario.references if r.label == "unreachable")
    # constraint-riding regime: the stiffer penalty keeps per-step solves quick
    data_u = build_problem(model, replace(params, rho=6.0))
    x_hat, _ = optimal_steady_state(model, params, unreachable.x_r, unreachable.u_r)
    traj_u = simulate_closed_loop(data_u, model, x0, unreachable, steps=250)
    err_unreach = float(np.abs(traj_u.states[-1] - x_hat).max())

    ok = err_reach <= 1e-3 and err_unreach <= 1e-3
    _report(
        6,
        ok,
        f"terminal error {err_reach:.2e} (reachable) / {err_unreach:.2e} "
        f"(unreachable vs closest admissible equilibrium)",
    )


def test_acceptance_7_transcription_fidelity():
    """>=100 random instances: structured reconstruction equals the oracle entrywise."""
    rng = np.random.default_rng(1007)
    worst = 0.0
    trials = 100
    for _ in range(trials):
        n_x, n_u, horizon = _random_dims(rng)
        model = random_controllable_model(rng, n_x, n_u)
        params = random_params(rng, n_x, n_u, horizon)
        data = build_problem(model, params)

        h_struct = data.p_system.to_dense() - params.rho * np.eye(data.n_z)
        h_oracle = dense_hessian(params)
        scale_h = 1.0 + np.abs(h_oracle).max()
        worst = max(worst, float(np.abs(h_struct - h_oracle).max() / scale_h))

        g_struct = data.g.to_dense()
        g_oracle = dense_dynamics(model, params.N)
        worst = max(worst, float(np.abs(g_struct - g_oracle).max() / (1.0 + np.abs(g_oracle).max())))

        x_t = rng.uniform(-1, 1, n_x)
        x_r = rng.uniform(-1, 1, n_x)
        u_r = rng.uniform(-1, 1, n_u)
        qp = assemble_online(data, x_t, x_r, u_r)
        inst = dense_instance(model, params, x_t, x_r, u_r)
        worst = max(worst, float(np.abs(qp.q - inst.q).max() / (1.0 + np.abs(inst.q).max())))
        worst = max(worst, float(np.abs(qp.b - inst.b).max() / (1.0 + np.abs(inst.b).max())))
        lo, hi = dense_bounds(model, params)
        worst = max(worst, float(np.abs(qp.v_lo - lo).max()))
        worst = max(worst, float(np.abs(qp.v_hi - hi).max()))
    ok = worst <= 1e-12
    _report(7, ok, f"{trials} instances, worst entrywise mismatch {worst:.2e}")


def test_acceptance_8_bench_determinism(tmp_path, capsys):
    """The bench command with a fixed seed reproduces per-trial iteration counts."""
    from mpct_admm.cli import EXIT_OK, main

    scenario_path = str(
        resources.files("mpct_admm") / "models" / "scenario_double_integrator.json"
    )
    out1, out2 = tmp_path / "b1.json", tmp_path / "b2.json"
    code1 = main(["bench", scenario_path, "-o", str(out1), "--trials", "10", "--seed", "123"])
    code2 = main(["bench", scenario_path, "-o", str(out2), "--trials", "10", "--seed", "123"])
    capsys.readouterr()
    it1 = [r.split(",")[2] for r in (tmp_path / "b1_trials.csv").read_text().splitlines()[1:]]
    it2 = [r.split(",")[2] for r in (tmp_path / "b2_trials.csv").read_text().splitlines()[1:]]
    ok = code1 == EXIT_OK and code2 == EXIT_OK and it1 == it2 and len(it1) == 20
    _report(8, ok, f"two runs, {len(it1)} per-trial records, iteration counts identical: {it1 == it2}")
