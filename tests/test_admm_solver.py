from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpct_admm import (
    AdmmState,
    DimensionMismatch,
    LtiModel,
    MpctParams,
    NonFiniteInput,
    SolveStatus,
    admm_solve,
    assemble_online,
    build_problem,
    cold_start,
    load_scenario,
    sample_initial_states,
    solve_kkt_system,
    v_update,
)
from mpct_admm.oracle import dense_instance, dense_qp_solve

from conftest import random_controllable_model, random_params


def small_tracking_instance(rho=1.0, eps=1e-6):
    model = LtiModel(A=[[1.0]], B=[[1.0]], x_lo=[-2.0], x_hi=[2.0], u_lo=[-1.0], u_hi=[1.0])
    params = MpctParams(
        Q=[[1.0]], R=[[1.0]], T=[[1.0]], S=[[1.0]], N=4,
        epsilon=1e-6, rho=rho, eps_primal=eps, eps_dual=eps, max_iter=20000,
    )
    return model, params


class TestVUpdate:
    def test_interior_point_unchanged(self):
        z = np.array([0.1, -0.2])
        lam = np.zeros(2)
        np.testing.assert_array_equal(
            v_update(z, lam, 1.0, np.array([-1.0, -1.0]), np.array([1.0, 1.0])), z
        )

    def test_clipping_formula(self):
        out = v_update(np.array([0.5]), np.array([2.0]), 4.0, np.array([0.0]), np.array([1.0]))
        np.testing.assert_allclose(out, [1.0])

    def test_infinite_bound_never_clips(self):
        out = v_update(np.array([5.0]), np.array([100.0]), 1.0, np.array([0.0]), np.array([np.inf]))
        np.testing.assert_allclose(out, [105.0])

    def test_rho_must_be_positive(self):
        with pytest.raises(ValueError):
            v_update(np.zeros(1), np.zeros(1), 0.0, np.zeros(1), np.ones(1))

    def test_nan_rho_rejected(self):
        # NaN fails every comparison, so a rho <= 0 test would let it through
        with pytest.raises(ValueError, match="rho"):
            v_update(np.zeros(1), np.zeros(1), np.nan, np.zeros(1), np.ones(1))

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_result_lies_in_box(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 20))
        lo = rng.uniform(-3, 0, n)
        hi = rng.uniform(0.1, 3, n)
        out = v_update(rng.standard_normal(n) * 5, rng.standard_normal(n) * 5, rng.uniform(0.1, 10), lo, hi)
        assert np.all(out >= lo) and np.all(out <= hi)


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
        data = build_problem(model, params)
        report, state = admm_solve(data, [0.5], [5.0], [0.0], max_iter=3)
        assert report.status is SolveStatus.MAX_ITERATIONS
        assert report.iterations == 3
        assert np.all(state.v >= data.v_lo - 1e-15)
        assert np.all(state.v <= data.v_hi + 1e-15)
        assert np.all(np.abs(report.control_action) <= 1.0 + 1e-15)

    def test_max_iter_override_must_be_whole(self):
        model, params = small_tracking_instance()
        data = build_problem(model, params)
        with pytest.raises(ValueError, match="max_iter"):
            admm_solve(data, [0.5], [5.0], [0.0], max_iter=2.9)
        report, _ = admm_solve(data, [0.5], [5.0], [0.0], max_iter=3.0)
        assert report.iterations == 3

    @pytest.mark.parametrize("reference", [0, 1])
    def test_loop_matches_public_pieces_bitwise(self, reference):
        # the loop runs the update in its own buffers; it must reproduce, bit
        # for bit, k steps of solve_kkt_system and v_update from a cold start
        # and then from the warm state it returned. The bundled scenario is
        # scaled, and its box constraints are active within these steps.
        scenario = load_scenario(str(resources.files("mpct_admm") / "models" / "scenario_ball_plate.json"))
        data = build_problem(scenario.model, scenario.params, scenario.scaling)
        ref = scenario.references[reference]
        x_t = sample_initial_states(scenario, reference)[0]
        rho = scenario.params.rho
        qp = assemble_online(data, x_t, ref.x_r, ref.u_r)
        cold = cold_start(data)
        z, v, lam = cold.z, cold.v, cold.lam
        warm = None
        for k in (120, 80):
            for _ in range(k):
                p = qp.q + lam - rho * v
                z, _ = solve_kkt_system(data, p, qp.b)
                v_next = v_update(z, lam, rho, qp.v_lo, qp.v_hi)
                lam = lam + rho * (z - v_next)
                v = v_next
            report, warm = admm_solve(
                data, x_t, ref.x_r, ref.u_r, warm, eps_primal=1e-300, eps_dual=1e-300, max_iter=k
            )
            assert report.iterations == k
            np.testing.assert_array_equal(warm.z, z)
            np.testing.assert_array_equal(warm.v, v)
            np.testing.assert_array_equal(warm.lam, lam)
        assert np.count_nonzero(lam) > 0

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
        report_earlier, _ = admm_solve(data, [0.5], [1.2], [0.0], max_iter=earlier)
        assert report.primal_residual <= report_earlier.primal_residual + 1e-15

    def test_numerical_error_detection(self):
        # a finite warm multiplier at the float limit overflows in the first iteration
        model, params = small_tracking_instance()
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

    @pytest.mark.parametrize("override", ["eps_primal", "eps_dual"])
    @pytest.mark.parametrize("value", [np.nan, 0.0, -1e-4])
    def test_tolerance_override_must_be_positive(self, override, value):
        model, params = small_tracking_instance()
        data = build_problem(model, params)
        with pytest.raises(ValueError, match="tolerances"):
            admm_solve(data, [0.5], [0.8], [0.0], **{override: value})

    def test_warm_dimension_check(self):
        model, params = small_tracking_instance()
        data = build_problem(model, params)
        with pytest.raises(DimensionMismatch):
            admm_solve(data, [0.5], [0.8], [0.0], warm=AdmmState(z=np.zeros(3), v=np.zeros(3), lam=np.zeros(3)))

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

    def test_scaling_transparent_to_caller(self):
        model, params = small_tracking_instance()
        from mpct_admm import DiagonalScaling

        scaling = DiagonalScaling(state=[2.0], input=[0.5])
        plain = build_problem(model, params)
        scaled = build_problem(model, params, scaling)
        r1, _ = admm_solve(plain, [0.5], [0.8], [0.0], eps_primal=1e-8, eps_dual=1e-8)
        r2, _ = admm_solve(scaled, [0.5], [0.8], [0.0], eps_primal=1e-8, eps_dual=1e-8)
        assert r1.status is SolveStatus.CONVERGED and r2.status is SolveStatus.CONVERGED
        np.testing.assert_allclose(r1.control_action, r2.control_action, atol=1e-6)
        np.testing.assert_allclose(r1.artificial_reference[0], r2.artificial_reference[0], atol=1e-6)
