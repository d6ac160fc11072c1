import dataclasses
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from mpct_admm import (
    DiagonalScaling,
    DimensionMismatch,
    EmptyTightenedBox,
    LtiModel,
    MpctParams,
    NonFiniteInput,
    NotPositiveDefinite,
    RankDeficientG,
    assemble_online,
    build_problem,
    load_scenario,
    problem_from_dict,
    problem_to_dict,
    tightened_bounds,
)
from mpct_admm.oracle import dense_bounds, dense_dynamics, dense_hessian

from conftest import random_instance

from test_semiband_solver import reachable_arrays


def split_primal_dense(data):
    """Dense primal matrix split into its block-diagonal core and the low-rank term.

    The low-rank term only couples stages to the reference block, so it is
    the part outside the diagonal blocks of width ``n_x + n_u``.
    """
    p = data.p_system.to_dense()
    block = np.arange(data.n_z) // (data.n_x + data.n_u)
    core = np.where(block[:, None] == block[None, :], p, 0.0)
    return core, p - core


class TestBuildProblem:
    def test_integrator_gamma_hat_diagonal(self, integrator_model, integrator_params):
        data = build_problem(integrator_model, integrator_params)
        gamma, _ = split_primal_dense(data)
        np.testing.assert_allclose(gamma, np.diag([2.0, 2.0, 2.0, 2.0, 4.0, 4.0]), atol=1e-12)

    def test_integrator_low_rank_pattern(self, integrator_model, integrator_params):
        data = build_problem(integrator_model, integrator_params)
        _, uv = split_primal_dense(data)
        expected = np.zeros((6, 6))
        # stage blocks couple to (x_s, u_s) through -Q and -R
        for i in range(2):
            expected[2 * i, 4] = -1.0
            expected[2 * i + 1, 5] = -1.0
            expected[4, 2 * i] = -1.0
            expected[5, 2 * i + 1] = -1.0
        np.testing.assert_allclose(uv, expected, atol=1e-14)

    def test_non_spd_cost_is_identified(self):
        with pytest.raises(NotPositiveDefinite) as exc:
            MpctParams(Q=[[0.0]], R=[[1.0]], T=[[1.0]], S=[[1.0]], N=2)
        assert exc.value.what == "Q"

    @pytest.mark.parametrize(
        "q, row",
        [([[1.0, 2.0], [2.0, 1.0]], 1), ([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, -1.0]], 2)],
        ids=["second-minor", "third-minor"],
    )
    def test_non_spd_cost_row_is_identified(self, q, row):
        # the index is the first row whose leading minor is not SPD
        with pytest.raises(NotPositiveDefinite) as exc:
            MpctParams(Q=q, R=[[1.0]], T=np.eye(len(q)), S=[[1.0]], N=2)
        assert exc.value.what == "Q"
        assert exc.value.index == row

    def test_hessian_reconstruction_matches_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(8):
            model, params = random_instance(rng)
            data = build_problem(model, params)
            p_dense = dense_hessian(params) + params.rho * np.eye(data.n_z)
            scale = np.abs(p_dense).max()
            assert np.abs(data.p_system.to_dense() - p_dense).max() <= 1e-12 * scale

    def test_dual_core_reconstruction(self):
        rng = np.random.default_rng(43)
        for _ in range(6):
            model, params = random_instance(rng)
            data = build_problem(model, params)
            # the dual system is formed for G with its pin row negated
            g = dense_dynamics(model, params.N)
            g[: model.n_x] *= -1.0
            p_dense = dense_hessian(params) + params.rho * np.eye(data.n_z)
            w_dense = g @ np.linalg.solve(p_dense, g.T)
            w = data.n_x + data.n_u
            # U of the primal split, and W = P^-1 U, rebuilt from the parameters
            d = block_diag(params.Q, params.R)
            zero = np.zeros((params.N * w, w))
            u_p = np.block([[np.tile(-d, (params.N, 1)), zero], [zero[:w], np.eye(w)]])
            u_dense = -g @ np.linalg.solve(p_dense, u_p)
            w_sys = data.w_system
            w_struct = w_sys.gamma.to_dense() @ w_sys.gamma.to_dense().T + u_dense @ (w_sys.v @ np.eye(data.m_z))
            assert np.abs(w_struct - w_dense).max() <= 1e-9 * (1.0 + np.abs(w_dense).max())

    def test_rank_deficient_dynamics(self):
        # A = I with B = 0 kills the equilibrium rows of the dynamics matrix
        model = LtiModel(A=[[1.0]], B=[[0.0]], x_lo=[-1.0], x_hi=[1.0], u_lo=[-1.0], u_hi=[1.0])
        params = MpctParams(Q=[[1.0]], R=[[1.0]], T=[[1.0]], S=[[1.0]], N=3)
        with pytest.raises(RankDeficientG):
            build_problem(model, params)

    @pytest.mark.parametrize("horizon, limit", [(30, 85472), (240, 508832)])
    def test_stored_bytes_do_not_grow(self, horizon, limit):
        # the distinct buffers the built data keeps alive, views counted as
        # their base: 83.47 and 496.91 KiB when this bound was set. A stored
        # view into a padded scratch buffer would count the whole buffer
        sc = load_scenario(resources.files("mpct_admm") / "models" / "scenario_ball_plate.json")
        data = build_problem(sc.model, dataclasses.replace(sc.params, N=horizon), sc.scaling)
        buffers = {id(a): a.nbytes for a in reachable_arrays(data)}
        assert sum(buffers.values()) <= limit

    def test_dimension_mismatch_between_model_and_params(self, integrator_model):
        params = MpctParams(Q=np.eye(2), R=[[1.0]], T=np.eye(2), S=[[1.0]], N=2)
        with pytest.raises(DimensionMismatch):
            build_problem(integrator_model, params)


class TestAssembleOnline:
    def test_zero_reference_gives_zero_cost_vector(self, integrator_model, integrator_params):
        data = build_problem(integrator_model, integrator_params)
        qp = assemble_online(data, [0.3], [0.0], [0.0])
        np.testing.assert_array_equal(qp.q, np.zeros(6))

    def test_last_block_formula(self):
        model = LtiModel(
            A=[[0.5, 0.1], [0.0, 0.4]], B=[[0.0], [1.0]], x_lo=[-5, -5], x_hi=[5, 5], u_lo=[-5], u_hi=[5]
        )
        params = MpctParams(Q=np.eye(2), R=[[1.0]], T=2.0 * np.eye(2), S=[[1.0]], N=2)
        data = build_problem(model, params)
        qp = assemble_online(data, [0.0, 0.0], [1.0, 0.0], [3.0])
        np.testing.assert_allclose(qp.q[-3:], [-2.0, 0.0, -3.0])

    def test_initial_state_lands_in_rhs(self):
        model = LtiModel(
            A=[[0.5, 0.1], [0.0, 0.4]], B=[[0.0], [1.0]], x_lo=[-5, -5], x_hi=[5, 5], u_lo=[-5], u_hi=[5]
        )
        params = MpctParams(Q=np.eye(2), R=[[1.0]], T=np.eye(2), S=[[1.0]], N=2)
        data = build_problem(model, params)
        qp = assemble_online(data, [0.7, -0.1], [0.0, 0.0], [0.0])
        np.testing.assert_allclose(qp.b[:2], [0.7, -0.1])
        np.testing.assert_array_equal(qp.b[2:], np.zeros(6))

    def test_non_finite_inputs_rejected(self, integrator_model, integrator_params):
        data = build_problem(integrator_model, integrator_params)
        with pytest.raises(NonFiniteInput):
            assemble_online(data, [np.nan], [0.0], [0.0])
        with pytest.raises(NonFiniteInput):
            assemble_online(data, [0.0], [np.inf], [0.0])

    def test_dimension_mismatch(self, integrator_model, integrator_params):
        data = build_problem(integrator_model, integrator_params)
        with pytest.raises(DimensionMismatch):
            assemble_online(data, [0.0, 1.0], [0.0], [0.0])

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_q_and_b_are_linear(self, seed):
        rng = np.random.default_rng(seed)
        model, params = random_instance(rng)
        data = build_problem(model, params)
        nx, nu = model.n_x, model.n_u
        xr1, xr2 = rng.standard_normal(nx), rng.standard_normal(nx)
        ur1, ur2 = rng.standard_normal(nu), rng.standard_normal(nu)
        xt1, xt2 = rng.standard_normal(nx), rng.standard_normal(nx)
        a, b = rng.uniform(-2, 2), rng.uniform(-2, 2)
        qp1 = assemble_online(data, xt1, xr1, ur1)
        qp2 = assemble_online(data, xt2, xr2, ur2)
        qp = assemble_online(data, a * xt1 + b * xt2, a * xr1 + b * xr2, a * ur1 + b * ur2)
        np.testing.assert_allclose(qp.q, a * qp1.q + b * qp2.q, atol=1e-10)
        np.testing.assert_allclose(qp.b, a * qp1.b + b * qp2.b, atol=1e-10)

    def test_bounds_match_oracle_stacking(self):
        rng = np.random.default_rng(77)
        model, params = random_instance(rng)
        data = build_problem(model, params)
        lo, hi = dense_bounds(model, params)
        np.testing.assert_array_equal(data.v_lo, lo)
        np.testing.assert_array_equal(data.v_hi, hi)


class TestTightenedBounds:
    def test_basic_tightening(self):
        model = LtiModel(A=[[0.5]], B=[[1.0]], x_lo=[-1.0], x_hi=[1.0], u_lo=[-1.0], u_hi=[1.0])
        params = MpctParams(Q=[[1.0]], R=[[1.0]], T=[[1.0]], S=[[1.0]], N=2, epsilon=0.1)
        lo, hi = tightened_bounds(model, params)
        np.testing.assert_allclose(lo[-2:], [-0.9, -0.9])
        np.testing.assert_allclose(hi[-2:], [0.9, 0.9])
        # stage blocks stay untightened
        np.testing.assert_allclose(lo[:4], [-1.0, -1.0, -1.0, -1.0])

    def test_infinite_bounds_pass_through(self):
        model = LtiModel(A=[[0.5]], B=[[1.0]], x_lo=[-1.0], x_hi=[np.inf], u_lo=[-1.0], u_hi=[1.0])
        params = MpctParams(Q=[[1.0]], R=[[1.0]], T=[[1.0]], S=[[1.0]], N=2, epsilon=0.1)
        lo, hi = tightened_bounds(model, params)
        assert hi[-2] == np.inf
        assert lo[-2] == -0.9

    def test_benchmark_input_tightening(self):
        # epsilon 1e-6 on the 0.2 input bound leaves 0.199999
        model = LtiModel(
            A=np.eye(2),
            B=np.eye(2),
            x_lo=[-1.0, -1.0],
            x_hi=[1.0, 1.0],
            u_lo=[-0.2, -0.2],
            u_hi=[0.2, 0.2],
        )
        params = MpctParams(Q=np.eye(2), R=np.eye(2), T=np.eye(2), S=np.eye(2), N=2, epsilon=1e-6)
        _, hi = tightened_bounds(model, params)
        np.testing.assert_allclose(hi[-2:], [0.199999, 0.199999])

    def test_empty_box_raises(self):
        model = LtiModel(A=[[0.5]], B=[[1.0]], x_lo=[-0.05], x_hi=[0.05], u_lo=[-1.0], u_hi=[1.0])
        params = MpctParams(Q=[[1.0]], R=[[1.0]], T=[[1.0]], S=[[1.0]], N=2, epsilon=0.1)
        with pytest.raises(EmptyTightenedBox):
            tightened_bounds(model, params)


class TestValidation:
    def test_horizon_minimum(self):
        with pytest.raises(ValueError):
            MpctParams(Q=[[1.0]], R=[[1.0]], T=[[1.0]], S=[[1.0]], N=1)

    def test_fractional_horizon_and_cap_rejected(self):
        costs = dict(Q=[[1.0]], R=[[1.0]], T=[[1.0]], S=[[1.0]])
        with pytest.raises(ValueError, match="horizon N"):
            MpctParams(**costs, N=2.9)
        with pytest.raises(ValueError, match="max_iter"):
            MpctParams(**costs, N=2, max_iter=10.7)
        params = MpctParams(**costs, N=3.0, max_iter=10.0)
        assert (params.N, params.max_iter) == (3, 10)
        assert isinstance(params.N, int) and isinstance(params.max_iter, int)

    @pytest.mark.parametrize("rho", [np.inf, "inf", np.nan, -np.inf])
    def test_rho_must_be_finite_and_positive(self, rho):
        with pytest.raises(ValueError, match="rho"):
            MpctParams(Q=[[1.0]], R=[[1.0]], T=[[1.0]], S=[[1.0]], N=2, rho=rho)

    @pytest.mark.parametrize("field", ["epsilon", "eps_primal", "eps_dual"])
    @pytest.mark.parametrize("value", [np.inf, "inf", np.nan, 0.0])
    def test_tolerances_must_be_finite_and_positive(self, field, value):
        with pytest.raises(ValueError, match=field):
            MpctParams(Q=[[1.0]], R=[[1.0]], T=[[1.0]], S=[[1.0]], N=2, **{field: value})

    def test_default_solver_parameters(self):
        params = MpctParams(Q=[[1.0]], R=[[1.0]], T=[[1.0]], S=[[1.0]], N=2)
        assert params.eps_primal == 1e-4
        assert params.eps_dual == 1e-4
        assert params.epsilon == 1e-6
        assert params.max_iter == 4000
        assert params.rho == 1.0

    def test_bounds_ordering(self):
        with pytest.raises(ValueError):
            LtiModel(A=[[1.0]], B=[[1.0]], x_lo=[1.0], x_hi=[-1.0], u_lo=[-1.0], u_hi=[1.0])

    def test_asymmetric_cost_rejected(self):
        with pytest.raises(ValueError):
            MpctParams(Q=[[1.0, 0.5], [0.0, 1.0]], R=[[1.0]], T=np.eye(2), S=[[1.0]], N=2)

    def test_symmetry_tolerance_boundary(self):
        # the tolerance is 1e-10 (1 + max |Q|) = 3e-10 here
        tol = 3e-10
        q = np.array([[2.0, 0.5], [0.5, 2.0]])
        q[0, 1] += 0.5 * tol
        params = MpctParams(Q=q, R=[[1.0]], T=np.eye(2), S=[[1.0]], N=2)
        np.testing.assert_array_equal(params.Q, params.Q.T)
        q[0, 1] += 1.5 * tol
        with pytest.raises(ValueError, match="Q"):
            MpctParams(Q=q, R=[[1.0]], T=np.eye(2), S=[[1.0]], N=2)


class TestScaling:
    def test_cost_energy_is_preserved(self):
        rng = np.random.default_rng(5)
        model, params = random_instance(rng)
        scaling = DiagonalScaling(
            state=rng.uniform(0.5, 2.0, model.n_x), input=rng.uniform(0.5, 2.0, model.n_u)
        )
        model_s, params_s = scaling.apply(model, params)
        x = rng.standard_normal(model.n_x)
        u = rng.standard_normal(model.n_u)
        xs, us = scaling.scale_state(x), scaling.scale_input(u)
        assert np.isclose(xs @ params_s.Q @ xs, x @ params.Q @ x)
        assert np.isclose(us @ params_s.S @ us, u @ params.S @ u)
        # dynamics commute with the change of variables
        x_next = model.A @ x + model.B @ u
        np.testing.assert_allclose(
            model_s.A @ xs + model_s.B @ us, scaling.scale_state(x_next), atol=1e-12
        )

    def test_positive_factors_required(self):
        with pytest.raises(ValueError):
            DiagonalScaling(state=[1.0, -1.0], input=[1.0])

    @pytest.mark.parametrize(
        "field",
        [f for f in dataclasses.fields(MpctParams) if f.name not in ("Q", "R", "T", "S")],
        ids=lambda f: f.name,
    )
    def test_scaling_keeps_every_setting(self, field):
        # scaling changes only the costs; half the default is a valid
        # non-default value for every positive setting
        value = 7 if field.default is dataclasses.MISSING else field.default / 2
        base = {"Q": [[1.0]], "R": [[1.0]], "T": [[1.0]], "S": [[1.0]], "N": 3}
        params = MpctParams(**{**base, field.name: value})
        model = LtiModel(A=[[1.0]], B=[[1.0]], x_lo=[-1.0], x_hi=[1.0], u_lo=[-1.0], u_hi=[1.0])
        _, params_s = DiagonalScaling(state=[2.0], input=[0.5]).apply(model, params)
        assert getattr(params_s, field.name) == getattr(params, field.name) == value


class TestJsonFormat:
    def test_roundtrip(self, integrator_model, integrator_params):
        obj = problem_to_dict(integrator_model, integrator_params)
        model, params, scaling = problem_from_dict(obj)
        np.testing.assert_array_equal(model.A, integrator_model.A)
        np.testing.assert_array_equal(params.Q, integrator_params.Q)
        assert params.N == integrator_params.N
        assert scaling is None

    def test_infinity_sentinels(self):
        model = LtiModel(
            A=[[0.5]], B=[[1.0]], x_lo=[-np.inf], x_hi=[np.inf], u_lo=[-1.0], u_hi=[1.0]
        )
        params = MpctParams(Q=[[1.0]], R=[[1.0]], T=[[1.0]], S=[[1.0]], N=2)
        obj = problem_to_dict(model, params)
        assert obj["model"]["x_lo"] == ["-inf"]
        assert obj["model"]["x_hi"] == ["inf"]
        back, _, _ = problem_from_dict(obj)
        assert back.x_hi[0] == np.inf

    def test_missing_format_key_rejected(self):
        with pytest.raises(ValueError):
            problem_from_dict({"model": {}, "params": {}})

    def test_scaling_roundtrip(self, integrator_model, integrator_params):
        scaling = DiagonalScaling(state=[2.0], input=[0.25])
        obj = problem_to_dict(integrator_model, integrator_params, scaling)
        _, _, back = problem_from_dict(obj)
        np.testing.assert_array_equal(back.state, scaling.state)
        np.testing.assert_array_equal(back.input, scaling.input)

    def test_diagonal_cost_shorthand(self):
        obj = {
            "format": "mpct-v1",
            "model": {
                "A": [[1.0]],
                "B": [[1.0]],
                "x_lo": [-1.0],
                "x_hi": [1.0],
                "u_lo": [-1.0],
                "u_hi": [1.0],
            },
            "params": {"Q": [2.0], "R": [1.0], "T": [1.0], "S": [1.0], "N": 3},
        }
        _, params, _ = problem_from_dict(obj)
        np.testing.assert_array_equal(params.Q, [[2.0]])
        assert params.N == 3
