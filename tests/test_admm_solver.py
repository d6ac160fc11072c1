from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

from mpct_admm import (
    AdmmState,
    DimensionMismatch,
    KktWorkspace,
    LtiModel,
    MpctParams,
    NonFiniteInput,
    SolveStatus,
    admm_solve,
    assemble_online,
    build_problem,
    cold_start,
    load_problem,
    load_scenario,
    sample_initial_states,
    solve_kkt_system,
    tightened_bounds,
)
from mpct_admm.oracle import dense_instance, dense_qp_solve

from conftest import random_controllable_model, random_params, with_params


def small_tracking_instance(rho=1.0, eps=1e-6):
    model = LtiModel(A=[[1.0]], B=[[1.0]], x_lo=[-2.0], x_hi=[2.0], u_lo=[-1.0], u_hi=[1.0])
    params = MpctParams(
        Q=[[1.0]], R=[[1.0]], T=[[1.0]], S=[[1.0]], N=4,
        epsilon=1e-6, rho=rho, eps_primal=eps, eps_dual=eps, max_iter=20000,
    )
    return model, params


class TestAdmmSolve:
    def test_fixed_point_converges_in_one_iteration(self):
        model, params = small_tracking_instance()
        data = build_problem(model, params)
        # equilibrium of the integrator: any interior state with zero input
        x_eq = np.array([0.5])
        u_eq = np.array([0.0])
        z_star = np.concatenate([np.tile(np.concatenate([x_eq, u_eq]), params.N), x_eq, u_eq])
        warm = AdmmState(z=z_star.copy(), v=z_star.copy(), lam=np.zeros(data.n_z))
        report, state = admm_solve(data, x_eq, x_eq, u_eq, warm=warm)
        assert report.status is SolveStatus.CONVERGED
        assert report.iterations == 1
        assert report.primal_residual <= 1e-12
        assert report.dual_residual <= 1e-12

    def test_matches_dense_reference(self):
        model, params = small_tracking_instance()
        data = build_problem(model, params)
        report, state = admm_solve(data, [0.5], [0.8], [0.0])
        assert report.status is SolveStatus.CONVERGED
        inst = dense_instance(model, params, [0.5], [0.8], [0.0])
        ref = dense_qp_solve(inst)
        assert np.abs(state.v - ref.z).max() <= 1e-3

    def test_report_invariants_on_convergence(self):
        model, params = small_tracking_instance()
        data = build_problem(model, params)
        report, _ = admm_solve(data, [0.3], [0.9], [0.0])
        assert report.status is SolveStatus.CONVERGED
        assert report.primal_residual <= params.eps_primal
        assert report.dual_residual <= params.eps_dual
        assert report.solve_time >= 0.0
        assert report.avg_iter_time * report.iterations == pytest.approx(report.solve_time, rel=1e-6)

    def test_iteration_cap_keeps_iterates_feasible(self):
        model, params = small_tracking_instance()
        data = build_problem(model, replace(params, max_iter=3))
        report, state = admm_solve(data, [0.5], [5.0], [0.0])
        assert report.status is SolveStatus.MAX_ITERATIONS
        assert report.iterations == 3
        assert np.all(state.v >= data.v_lo - 1e-15)
        assert np.all(state.v <= data.v_hi + 1e-15)
        assert np.all(np.abs(report.control_action) <= 1.0 + 1e-15)

    def test_capped_report_reads_the_projected_reference(self):
        # stopped before convergence, z and v differ: the unreachable x_r
        # pulls z's x_s past the box. The reported (x_s, u_s) is the last
        # block of the projected v, inside the tightened box
        model, params = small_tracking_instance()
        data = build_problem(model, replace(params, max_iter=10))
        report, state = admm_solve(data, [0.5], [5.0], [0.0])
        assert report.status is SolveStatus.MAX_ITERATIONS
        w = data.n_x + data.n_u
        assert not np.array_equal(state.z[-w:], state.v[-w:])
        x_s, u_s = report.artificial_reference
        np.testing.assert_array_equal(np.concatenate([x_s, u_s]), state.v[-w:])
        v_lo, v_hi = tightened_bounds(model, params)
        assert np.all(v_lo[-w:] <= state.v[-w:]) and np.all(state.v[-w:] <= v_hi[-w:])

    def test_cold_start_lies_in_a_box_without_zero(self):
        # the state box excludes 0, so the zero iterate must be clipped into it
        model = LtiModel(A=[[1.0]], B=[[1.0]], x_lo=[0.5], x_hi=[2.0], u_lo=[-1.0], u_hi=[1.0])
        data = build_problem(model, small_tracking_instance()[1])
        v = cold_start(data).v
        assert np.all(data.v_lo <= v) and np.all(v <= data.v_hi)

    @pytest.mark.parametrize("reference", [0, 1])
    def test_loop_matches_public_pieces_bitwise(self, reference):
        # the loop runs the update in its own buffers, on the scaled dual
        # u = lam / rho; it must reproduce, bit for bit, k steps of the KKT
        # chain on p / rho = (u - v) + q / rho, the box projection of t = z +
        # u and the scaled dual step u = t - v+, from a cold start and then
        # from the warm state it returned, which holds lam = rho u and is
        # re-entered through u = lam / rho. The bundled scenario's box
        # constraints are active within these steps.
        scenario = load_scenario(str(resources.files("mpct_admm") / "models" / "scenario_ball_plate.json"))
        data = build_problem(scenario.model, scenario.params)
        ref = scenario.references[reference]
        x_t = sample_initial_states(scenario, reference)[0]
        rho = scenario.params.rho
        qp = assemble_online(data, x_t, ref.x_r, ref.u_r)
        work = KktWorkspace.for_problem(data)
        work.bind(qp.b)
        q = qp.q / rho
        cold = cold_start(data)
        z, v, u = cold.z, cold.v, cold.lam / rho
        warm = None
        for k in (120, 80):
            for _ in range(k):
                work.p[...] = (u - v) + q
                z = work.solve()
                t = z + u
                v_next = np.clip(t, qp.v_lo, qp.v_hi)
                u = t - v_next
                v = v_next
            capped = with_params(data, eps_primal=1e-300, eps_dual=1e-300, max_iter=k)
            report, warm = admm_solve(capped, x_t, ref.x_r, ref.u_r, warm)
            assert report.iterations == k
            np.testing.assert_array_equal(warm.z, z)
            np.testing.assert_array_equal(warm.v, v)
            np.testing.assert_array_equal(warm.lam, rho * u)
            u = warm.lam / rho
        assert np.count_nonzero(u) > 0

    def test_warm_start_preserves_limit(self):
        model, params = small_tracking_instance(eps=1e-8)
        data = build_problem(model, params)
        report_cold, state_cold = admm_solve(data, [0.4], [0.9], [0.0])
        report_warm, state_warm = admm_solve(data, [0.4], [0.9], [0.0], warm=state_cold)
        assert report_warm.iterations <= report_cold.iterations
        assert np.abs(state_cold.v - state_warm.v).max() <= 1e-6

    def test_rho_sweep_always_converges(self):
        model, _ = small_tracking_instance()
        for rho in (0.05, 0.5, 5.0, 50.0):
            params = MpctParams(
                Q=[[1.0]], R=[[1.0]], T=[[1.0]], S=[[1.0]], N=4,
                epsilon=1e-6, rho=rho, eps_primal=1e-6, eps_dual=1e-6, max_iter=20000,
            )
            data = build_problem(model, params)
            report, _ = admm_solve(data, [0.5], [1.5], [0.0])
            assert report.status is SolveStatus.CONVERGED, f"rho={rho}"

    def test_monotone_tail(self):
        # deterministic iteration: rerunning with a reduced cap reads off the
        # primal residual 10% of the way before the convergence point
        model, params = small_tracking_instance(rho=0.5)
        data = build_problem(model, params)
        report, _ = admm_solve(data, [0.5], [1.2], [0.0])
        assert report.status is SolveStatus.CONVERGED
        k = report.iterations
        earlier = max(1, int(0.9 * k))
        report_earlier, _ = admm_solve(with_params(data, max_iter=earlier), [0.5], [1.2], [0.0])
        assert report.primal_residual <= report_earlier.primal_residual + 1e-15

    @pytest.mark.parametrize("rho", [1.0, 0.5])
    def test_numerical_error_detection(self, rho):
        # a finite warm multiplier at the float limit overflows in the first
        # iteration; at rho < 1 it already overflows lam / rho on entry
        model, params = small_tracking_instance(rho=rho)
        data = build_problem(model, params)
        huge = np.finfo(float).max
        bad = AdmmState(z=np.zeros(data.n_z), v=np.zeros(data.n_z), lam=np.full(data.n_z, huge))
        report, _ = admm_solve(data, [0.5], [0.8], [0.0], warm=bad)
        assert report.status is SolveStatus.NUMERICAL_ERROR

    @pytest.mark.parametrize("field", ["v", "lam"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_warm_state_rejected(self, field, value):
        model, params = small_tracking_instance()
        data = build_problem(model, params)
        warm = cold_start(data)
        getattr(warm, field)[1] = value
        with pytest.raises(NonFiniteInput, match="warm state"):
            admm_solve(data, [0.5], [0.8], [0.0], warm=warm)

    @pytest.mark.parametrize("dtype", [int, bool, np.float32])
    def test_warm_state_of_another_dtype(self, dtype):
        # the warm state is converted to float once, on the way in, so the
        # loop never mixes it with its float buffers
        path = resources.files("mpct_admm") / "models" / "double_integrator.json"
        data = build_problem(*load_problem(path))
        zeros = np.zeros(data.n_z)
        args = (data, [0.5, 0.0], [0.2, 0.0], [0.0])
        expected, expected_state = admm_solve(*args, warm=AdmmState(z=zeros, v=zeros, lam=zeros))
        typed = zeros.astype(dtype)
        report, state = admm_solve(*args, warm=AdmmState(z=typed, v=typed, lam=typed))
        for name in ("status", "iterations", "primal_residual", "dual_residual"):
            assert getattr(report, name) == getattr(expected, name)
        np.testing.assert_array_equal(report.control_action, expected.control_action)
        for got, want in zip(report.artificial_reference, expected.artificial_reference):
            np.testing.assert_array_equal(got, want)
        assert state.v.dtype == np.float64
        for name in ("z", "v", "lam"):
            np.testing.assert_array_equal(getattr(state, name), getattr(expected_state, name))

    @pytest.mark.parametrize("field", ["v", "lam"])
    def test_warm_dimension_check(self, field):
        # one field of the wrong length at a time; the error names it and
        # the expected length
        model, params = small_tracking_instance()
        data = build_problem(model, params)
        warm = cold_start(data)
        setattr(warm, field, np.zeros(3))
        with pytest.raises(DimensionMismatch, match=rf"warm state {field} must have length {data.n_z}\b"):
            admm_solve(data, [0.5], [0.8], [0.0], warm=warm)

    def test_limits_match_oracle_on_random_instances(self):
        rng = np.random.default_rng(11)
        done = 0
        while done < 5:
            n_x = int(rng.integers(1, 4))
            n_u = int(rng.integers(1, 3))
            horizon = int(rng.integers(max(2, n_x), 9))
            model = random_controllable_model(rng, n_x, n_u)
            params = random_params(
                rng, n_x, n_u, horizon, eps_primal=1e-6, eps_dual=1e-6, max_iter=20000
            )
            data = build_problem(model, params)
            x_t = rng.uniform(-0.5, 0.5, n_x)
            x_r = rng.uniform(-0.5, 0.5, n_x)
            u_r = np.zeros(n_u)
            report, state = admm_solve(data, x_t, x_r, u_r)
            assert report.status is SolveStatus.CONVERGED
            ref = dense_qp_solve(dense_instance(model, params, x_t, x_r, u_r))
            assert np.abs(state.v - ref.z).max() <= 1e-4
            done += 1

    def test_precomputed_data_shared_across_threads(self):
        from concurrent.futures import ThreadPoolExecutor

        model, params = small_tracking_instance()
        data = build_problem(model, params)
        targets = [([0.1 * i], [0.8], [0.0]) for i in range(8)]

        def solve(args):
            report, state = admm_solve(data, *args)
            return report.iterations, state.v

        sequential = [solve(t) for t in targets]
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(pool.map(solve, targets))
        for (it_s, v_s), (it_p, v_p) in zip(sequential, parallel):
            assert it_s == it_p
            np.testing.assert_array_equal(v_s, v_p)
