from importlib import resources

import numpy as np
import pytest

from mpct_admm import (
    DimensionMismatch,
    Infeasible,
    LtiModel,
    MpctParams,
    SingularKkt,
    certify_kkt,
    dense_instance,
    dense_kkt_solve,
    dense_qp_solve,
    load_problem,
    optimal_steady_state,
)
from conftest import random_controllable_model, random_params


def integrator_instance(x_t=0.5, x_r=2.0, n=3, bound=10.0):
    model = LtiModel(
        A=[[1.0]], B=[[1.0]], x_lo=[-bound], x_hi=[bound], u_lo=[-bound], u_hi=[bound]
    )
    params = MpctParams(Q=[[1.0]], R=[[1.0]], T=[[1.0]], S=[[1.0]], N=n, epsilon=1e-6, rho=1.0)
    return model, params, dense_instance(model, params, [x_t], [x_r], [0.0])


class TestDenseKkt:
    def test_homogeneous(self):
        _, _, inst = integrator_instance()
        z, mu = dense_kkt_solve(inst, np.zeros(inst.n), np.zeros(inst.m_eq))
        np.testing.assert_allclose(z, 0.0, atol=1e-14)
        np.testing.assert_allclose(mu, 0.0, atol=1e-14)

    def test_satisfies_both_equations(self):
        rng = np.random.default_rng(0)
        _, params, inst = integrator_instance()
        p = rng.standard_normal(inst.n)
        b = rng.standard_normal(inst.m_eq)
        z, mu = dense_kkt_solve(inst, p, b)
        p_mat = inst.h + inst.rho * np.eye(inst.n)
        np.testing.assert_allclose(inst.g @ z, b, atol=1e-10)
        np.testing.assert_allclose(p_mat @ z + inst.g.T @ mu + p, 0.0, atol=1e-10)

    def test_dimension_mismatch(self):
        _, _, inst = integrator_instance()
        with pytest.raises(DimensionMismatch):
            dense_kkt_solve(inst, np.zeros(inst.n + 1), np.zeros(inst.m_eq))

    def test_singular_saddle_detected(self):
        _, _, inst = integrator_instance()
        broken = type(inst)(
            h=inst.h,
            g=np.vstack([inst.g, inst.g[-1]]),  # duplicated row: rank deficient
            q=inst.q,
            b=np.concatenate([inst.b, [0.0]]),
            v_lo=inst.v_lo,
            v_hi=inst.v_hi,
            rho=inst.rho,
        )
        with pytest.raises(SingularKkt):
            dense_kkt_solve(broken, np.zeros(broken.n), np.zeros(broken.m_eq))


class TestDenseQpSolve:
    def test_equilibrium_instance_is_exact(self):
        # with the reference at an interior equilibrium the stacked equilibrium
        # is the unique optimum
        model = LtiModel(A=[[1.0]], B=[[1.0]], x_lo=[-1e6], x_hi=[1e6], u_lo=[-1e6], u_hi=[1e6])
        params = MpctParams(Q=[[1.0]], R=[[1.0]], T=[[1.0]], S=[[1.0]], N=3, epsilon=1e-6, rho=1.0)
        inst = dense_instance(model, params, [0.7], [0.7], [0.0])
        sol = dense_qp_solve(inst)
        expected = np.concatenate([np.tile([0.7, 0.0], 3), [0.7, 0.0]])
        np.testing.assert_allclose(sol.z, expected, atol=1e-8)

    def test_certificate_on_random_instances(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            n_x = int(rng.integers(1, 4))
            n_u = int(rng.integers(1, 3))
            model = random_controllable_model(rng, n_x, n_u, bound_scale=2.0)
            params = random_params(rng, n_x, n_u, int(rng.integers(max(2, n_x), 7)))
            x_t = rng.uniform(-0.5, 0.5, n_x)
            x_r = rng.uniform(-1.0, 1.0, n_x)
            inst = dense_instance(model, params, x_t, x_r, np.zeros(n_u))
            sol = dense_qp_solve(inst)
            cert = certify_kkt(inst, sol.z, sol.lam)
            assert cert.max_residual <= 1e-8

    def test_objective_matches_grid_refinement(self):
        # brute-force the two artificial-reference coordinates; every stage
        # variable is resolved by an inner equality-constrained solve
        model, params, inst = integrator_instance(x_t=0.5, x_r=2.0, n=3)
        n = params.N
        iy = slice(0, 2 * n)
        is_ = slice(2 * n, 2 * n + 2)
        h_yy = inst.h[iy, iy]
        h_ys = inst.h[iy, is_]
        h_ss = inst.h[is_, is_]
        q_y = inst.q[iy]
        q_s = inst.q[is_]
        rows = slice(0, (n + 1))
        g_y = inst.g[rows, iy]
        g_s = inst.g[rows, is_]
        b_y = inst.b[rows]
        eq_row = inst.g[n + 1 :, is_]  # the equilibrium condition on (x_s, u_s)

        kkt = np.block([[h_yy, g_y.T], [g_y, np.zeros((n + 1, n + 1))]])

        def objective(s):
            if np.abs(eq_row @ s).max() > 1e-12:
                return np.inf
            rhs = np.concatenate([-(q_y + h_ys @ s), b_y - g_s @ s])
            sol = np.linalg.solve(kkt, rhs)
            y = sol[: 2 * n]
            return (
                0.5 * y @ h_yy @ y
                + y @ (h_ys @ s)
                + q_y @ y
                + 0.5 * s @ h_ss @ s
                + q_s @ s
            )

        lo, hi = -4.0, 4.0
        best = np.inf
        center = 0.0
        width = hi - lo
        for _ in range(6):  # successive zoom
            xs_grid = np.linspace(center - width / 2, center + width / 2, 81)
            us_grid = np.linspace(-width / 2, width / 2, 21)
            us_grid[np.abs(us_grid).argmin()] = 0.0  # keep the feasible line on the grid
            values = np.array([[objective(np.array([xs, us])) for us in us_grid] for xs in xs_grid])
            i, j = np.unravel_index(np.argmin(values), values.shape)
            best = values[i, j]
            center = xs_grid[i]
            width /= 8.0
        ref = dense_qp_solve(inst)
        assert abs(best - ref.objective) <= 1e-4

    def test_size_guard(self):
        model = LtiModel(A=[[1.0]], B=[[1.0]], x_lo=[-1], x_hi=[1], u_lo=[-1], u_hi=[1])
        params = MpctParams(Q=[[1.0]], R=[[1.0]], T=[[1.0]], S=[[1.0]], N=500, epsilon=1e-3)
        with pytest.raises(ValueError):
            dense_instance(model, params, [0.0], [0.0], [0.0])

    def test_infeasible_instance_raises_before_iterating(self):
        # x_t lies outside the state box, so no trajectory is admissible; the
        # reference loop would otherwise run to its iteration cap
        model, params = load_problem(resources.files("mpct_admm") / "models" / "double_integrator.json")
        inst = dense_instance(model, params, [6.0, 0.0], [0.0, 0.0], [0.0])
        with pytest.raises(Infeasible, match="trajectory"):
            dense_qp_solve(inst)


class TestOptimalSteadyState:
    def test_admissible_reference_is_returned(self):
        model = LtiModel(A=[[0.5]], B=[[1.0]], x_lo=[-2.0], x_hi=[2.0], u_lo=[-2.0], u_hi=[2.0])
        params = MpctParams(Q=[[1.0]], R=[[1.0]], T=[[1.0]], S=[[1.0]], N=3, epsilon=1e-6)
        # x = 0.5 x + u at equilibrium: x_r = 1 pairs with u_r = 0.5
        x_hat, u_hat = optimal_steady_state(model, params, [1.0], [0.5])
        np.testing.assert_allclose(x_hat, [1.0], atol=1e-7)
        np.testing.assert_allclose(u_hat, [0.5], atol=1e-7)

    def test_out_of_range_reference_clips_to_tightened_bound(self):
        model = LtiModel(A=[[1.0]], B=[[1.0]], x_lo=[-1.0], x_hi=[1.0], u_lo=[-1.0], u_hi=[1.0])
        params = MpctParams(Q=[[1.0]], R=[[1.0]], T=[[1.0]], S=[[1.0]], N=3, epsilon=1e-3)
        x_hat, u_hat = optimal_steady_state(model, params, [5.0], [0.0])
        # the integrator's equilibria have zero input; the closest admissible
        # state to 5 is the tightened upper bound
        np.testing.assert_allclose(x_hat, [1.0 - 1e-3], atol=1e-7)
        np.testing.assert_allclose(u_hat, [0.0], atol=1e-7)

    def test_invariant_under_common_cost_scaling(self):
        model = LtiModel(A=[[0.8]], B=[[0.5]], x_lo=[-1.0], x_hi=[1.0], u_lo=[-1.0], u_hi=[1.0])
        base = dict(Q=[[1.0]], R=[[1.0]], N=3, epsilon=1e-6)
        p1 = MpctParams(T=[[2.0]], S=[[3.0]], **base)
        p2 = MpctParams(T=[[20.0]], S=[[30.0]], **base)
        x1, u1 = optimal_steady_state(model, p1, [4.0], [0.0])
        x2, u2 = optimal_steady_state(model, p2, [4.0], [0.0])
        np.testing.assert_allclose(x1, x2, atol=1e-7)
        np.testing.assert_allclose(u1, u2, atol=1e-7)

    def test_infeasible_set_detected(self):
        # integrator equilibria need zero input, but the input box excludes it
        model = LtiModel(A=[[1.0]], B=[[1.0]], x_lo=[-1.0], x_hi=[1.0], u_lo=[0.5], u_hi=[1.0])
        params = MpctParams(Q=[[1.0]], R=[[1.0]], T=[[1.0]], S=[[1.0]], N=3, epsilon=1e-3)
        with pytest.raises(Infeasible):
            optimal_steady_state(model, params, [0.0], [0.75])


class TestCertificate:
    def test_flags_bound_violation(self):
        _, _, inst = integrator_instance()
        sol = dense_qp_solve(inst)
        z_bad = sol.z.copy()
        z_bad[0] = inst.v_hi[0] + 1.0
        cert = certify_kkt(inst, z_bad, sol.lam)
        assert cert.bounds > 1e-3

    def test_flags_wrong_multiplier_sign(self):
        model = LtiModel(A=[[1.0]], B=[[1.0]], x_lo=[-1.0], x_hi=[1.0], u_lo=[-0.1], u_hi=[0.1])
        params = MpctParams(Q=[[1.0]], R=[[1.0]], T=[[1.0]], S=[[1.0]], N=3, epsilon=1e-6)
        inst = dense_instance(model, params, [0.5], [-5.0], [0.0])
        sol = dense_qp_solve(inst)
        cert_good = certify_kkt(inst, sol.z, sol.lam)
        assert cert_good.max_residual <= 1e-8
        cert_bad = certify_kkt(inst, sol.z, sol.lam + 0.5)
        assert cert_bad.max_residual > 1e-6
