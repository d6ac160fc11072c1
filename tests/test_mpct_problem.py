import dataclasses
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from mpct_admm import (
    DimensionMismatch,
    EmptyTightenedBox,
    LtiModel,
    MpctParams,
    NonFiniteInput,
    NotPositiveDefinite,
    PredictionSparseMatrix,
    RankDeficientG,
    assemble_online,
    build_problem,
    load_problem,
    load_scenario,
    problem_from_dict,
    problem_to_dict,
    tightened_bounds,
)
from mpct_admm.mpct_problem import _gamma_tilde_columns, _banded_from_block_columns
from mpct_admm.oracle import dense_bounds, dense_dynamics, dense_hessian
from mpct_admm.semiband_solver import KktWorkspace, _split_primal

from conftest import random_controllable_model, random_instance, random_spd

from test_banded_linalg import stage_sum_columns, stage_sum_pattern
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

def stacked_block_long_form(data):
    """The stacked block ``sums_block``, entry by entry, by its long form (see the test using it)."""
    params, model = data.params, data.model
    n, nx, w, rho = params.N, data.n_x, data.n_x + data.n_u, params.rho
    h = n // 2
    t = n + 2 - 2 * h
    system = data.p_system
    g_st, g_s, m = _split_primal(system.gamma_stage, system.gamma_ref, system.coupling, n)
    columns = _gamma_tilde_columns(data.g, g_st, g_s)
    d1, ls = columns[1, :nx], columns[0, nx:]
    q = np.linalg.inv(d1)
    u = [-blk.T for blk in stage_sum_columns(model, n)]
    u1 = u[1]
    # the reduced kinds: block 0, the heads, then the tail blocks 2h .. N+1
    kinds = [u[0] - (ls.T @ q) @ u1, u1 - (ls @ q) @ u1 - (ls.T @ q) @ u1] + [blk.copy() for blk in u[4 - t :]]
    kinds[2] -= (ls @ q) @ u1
    if h == 1:
        kinds[1][...] = 0.0
    # gt = [-E ; C] Gamma_st^-1: its halves, for mu_i and mu_{i+1}, swapped
    gt = np.vstack([-np.eye(nx, w), np.hstack([model.A, model.B])]) @ g_st
    gt_swapped = np.hstack([gt[nx:], gt[:nx]])
    # the chain's b is zero on the odd blocks, so no column reads their sum
    kept_cols = (2 + t) * nx
    right = np.zeros((2 * w, kept_cols + (t + 1) * w))
    for i, kind in enumerate(kinds):
        right[:, i * nx : (i + 1) * nx] = -kind.T
    right[:, kept_cols : kept_cols + 2 * w] = -rho * (u1.T @ q @ gt_swapped)
    for c in range(t):
        right[:w, kept_cols + c * w : kept_cols + (c + 1) * w] += rho * np.eye(w)
    right[w:, kept_cols + t * w :] = rho * np.eye(w)
    # A core^-1 from the kept rows of W = X core^-1
    u_kept = np.vstack([kinds[0]] + [kinds[1]] * (h - 1) + kinds[2:])
    odd = h * (u1.T @ q @ u1)
    a_core = np.linalg.solve(np.eye(2 * w) - odd @ m, -u_kept.T @ data.dual_w - odd)
    core_inv_m = (np.eye(2 * w) - m @ a_core) @ m
    h_m = m - block_diag(np.zeros((w, w)), g_s)
    c = h_m @ (np.eye(2 * w) - a_core @ m)
    delta = gt_swapped.T @ q @ u1 @ core_inv_m
    rows = [c[w:] @ right, m @ right, (c[:w] - delta[:w]) @ right, (c[:w] - delta[w:]) @ right]
    if t == 3:
        # z_{N-1} = (mu_{N-1}, mu_N) gt - rho Gamma_st^-1 p_{N-1} + c_st,
        # with mu_K = z1_K - W_K r
        z_last = (c[:w] - gt.T @ data.dual_w[h * nx : (h + 2) * nx] @ m) @ right
        z_last[:, 2 * nx : 4 * nx] += gt.T
        z_last[:, kept_cols + 2 * w : kept_cols + 3 * w] -= rho * g_st
        rows.insert(0, z_last)
    return np.vstack(rows)


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
            g = dense_dynamics(model, params.N)
            p_dense = dense_hessian(params) + params.rho * np.eye(data.n_z)
            w_dense = g @ np.linalg.solve(p_dense, g.T)
            # U = -G Y, with Y the stage-sum pattern of P^-1 = Lambda - Y M Y',
            # and V = M (G Y)', around the banded core the build reduces
            w = data.n_x + data.n_u
            y = stage_sum_pattern(params.N, w)
            u_dense = -g @ y
            system = data.p_system
            g_st, g_s, m = _split_primal(system.gamma_stage, system.gamma_ref, system.coupling, params.N)
            v_dense = m @ (g @ y).T
            core = _banded_from_block_columns(_gamma_tilde_columns(data.g, g_st, g_s), params.N).to_dense()
            w_struct = core + u_dense @ v_dense
            assert np.abs(w_struct - w_dense).max() <= 1e-9 * (1.0 + np.abs(w_dense).max())

    @pytest.mark.parametrize(
        "name, horizon",
        [(f, n) for f in ("ball_plate_like.json", "double_integrator.json", "mass_spring.json") for n in (None, 240)]
        + [(seed, None) for seed in range(6)]
        + [("ball_plate_like.json", n) for n in (3, 31)]
        + [("mass_spring.json", n) for n in (2, 3, 31)],
    )
    def test_stacked_block_matches_long_form(self, name, horizon):
        # The build forms the stacked block as left @ right with the
        # push-through identity. Its long form, entry by entry: the right
        # factor placed block by block from the Schur-reduced U~ kinds, with
        # D1^-1 from a dense inverse; A core^-1 = (G Y)' W from the stored
        # W_K, solved from -U~_red' W_K - h U1' D1^-1 U1 core^-1 with core^-1
        # = I - M A core^-1; then the rows M right (r), h (I - A core^-1 M)
        # right (c), c_st right less gt's swapped halves through D1^-1 U1
        # core^-1 M right (c_pair), and z's tail. An integer name seeds a
        # random model
        if isinstance(name, int):
            model, params = random_instance(np.random.default_rng(name))
        else:
            model, params = load_problem(resources.files("mpct_admm") / "models" / name)
            if horizon is not None:
                params = dataclasses.replace(params, N=horizon)
        data = build_problem(model, params)
        expected = stacked_block_long_form(data)
        assert data.sums_block.shape == expected.shape
        assert np.abs(data.sums_block - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize(
        "name, horizon",
        [(f, n) for f in ("ball_plate_like.json", "double_integrator.json", "mass_spring.json") for n in (None, 240)]
        + [(seed, None) for seed in range(6)],
    )
    def test_stacked_block_product_matches_dense(self, name, horizon):
        # one product with the stacked block gives z's tail, r and c_pair
        # from the kept sums of z1 and p's pair sums; each must equal its
        # long form from dense solves: r = M (S T(z1) + Y' p),
        # with T the four stage sums, c = h Y' (G' mu + p) with h = M -
        # blkdiag(0, Gamma_s^-1), c_pair = (c_st, c_st) - delta D1^-1 [gt_bot,
        # gt_top] with delta = U1 core^-1 r, and z's tail the saddle point's.
        # An integer name seeds a random model
        if isinstance(name, int):
            model, params = random_instance(np.random.default_rng(name))
        else:
            model, params = load_problem(resources.files("mpct_admm") / "models" / name)
            if horizon is not None:
                params = dataclasses.replace(params, N=horizon)
        data = build_problem(model, params)
        n, nx, w, rho = params.N, data.n_x, data.n_x + data.n_u, params.rho
        system = data.p_system
        g_st, g_s, m = _split_primal(system.gamma_stage, system.gamma_ref, system.coupling, n)
        g, y = dense_dynamics(model, n), stage_sum_pattern(n, w)
        lam = block_diag(np.kron(np.eye(n), g_st), g_s)
        gamma = g @ lam @ g.T
        s = (g @ y).T
        rng = np.random.default_rng(data.m_z)
        p, b = rng.standard_normal(data.n_z), rng.standard_normal(data.m_z)
        # the chain takes a b that is zero on the odd blocks
        b.reshape(n + 2, nx)[1 : 2 * (n // 2) : 2] = 0.0
        z1 = np.linalg.solve(gamma, -g @ lam @ p - b)
        r = m @ (s @ z1 + y.T @ p)
        u = -g @ y
        x = np.linalg.solve(gamma, u)
        core_inv = np.linalg.inv(np.eye(2 * w) + m @ s @ x)
        mu = z1 - x @ core_inv @ r
        h = m - block_diag(np.zeros((w, w)), g_s)
        c = h @ y.T @ (g.T @ mu + p)
        gt = np.vstack([-np.eye(nx, w), np.hstack([model.A, model.B])]) @ g_st
        d1 = gamma[nx : 2 * nx, nx : 2 * nx]
        delta = u[nx : 2 * nx] @ core_inv @ r
        c_pair = np.tile(c[:w], 2) - delta @ np.linalg.solve(d1, np.hstack([gt[nx:], gt[:nx]]))
        z_ref = -np.linalg.solve(dense_hessian(params) + rho * np.eye(data.n_z), g.T @ mu + p)
        live = (n + 1 - 2 * (n // 2)) * w

        work = KktWorkspace.for_problem(data)
        np.divide(p, rho, out=work.p)
        work.bind(b)
        work.solve()
        cells = dict(zip(work.solve.__code__.co_freevars, (c.cell_contents for c in work.solve.__closure__)))
        k = data.sums_block @ cells["sums"]
        parts = ((k[:live], z_ref[data.n_z - live :]), (k[live : live + 2 * w], r), (k[live + 2 * w :], c_pair))
        for got, expected in parts:
            assert np.abs(got - expected).max() <= 1e-9 * np.abs(expected).max()

    @pytest.mark.parametrize("n_x, n_u, horizon", [(1, 1, 2), (2, 1, 3), (3, 2, 5)])
    def test_dual_core_from_full_inverses(self, n_x, n_u, horizon):
        # Gamma_st^-1 and Gamma_s^-1 need not be block diagonal in (x, u)
        rng = np.random.default_rng(10 * n_x + n_u)
        model = random_controllable_model(rng, n_x, n_u)
        g = PredictionSparseMatrix(a=model.A, b=model.B, horizon=horizon)
        g_st, g_s = random_spd(rng, n_x + n_u), random_spd(rng, n_x + n_u)
        g_dense = g.to_dense()
        expected = g_dense @ block_diag(*[g_st] * horizon, g_s) @ g_dense.T
        got = _banded_from_block_columns(_gamma_tilde_columns(g, g_st, g_s), horizon).to_dense()
        assert np.abs(got - expected).max() <= 1e-12 * (1.0 + np.abs(expected).max())

    @pytest.mark.parametrize(
        "name, value",
        [("N", 40), ("rho", 3.0), ("epsilon", 1e-3), ("Q", 2.0), ("R", 2.0), ("T", 2.0), ("S", 2.0)],
    )
    def test_replacing_a_built_parameter_is_rejected(self, name, value):
        # the factors hold these: a replaced rho solved to a wrong answer
        # that still read converged, and a replaced N failed inside numpy
        data = build_problem(*load_problem(resources.files("mpct_admm") / "models" / "ball_plate_like.json"))
        old = getattr(data.params, name)
        new = value * old if name in ("rho", "Q", "R", "T", "S") else value
        with pytest.raises(ValueError, match=f"params.{name} "):
            dataclasses.replace(data, params=dataclasses.replace(data.params, **{name: new}))

    def test_replacing_loop_settings_keeps_the_factors(self):
        data = build_problem(*load_problem(resources.files("mpct_admm") / "models" / "ball_plate_like.json"))
        for params in (
            dataclasses.replace(data.params, eps_primal=1e-6, eps_dual=1e-7, max_iter=17),
            dataclasses.replace(data.params),
        ):
            replaced = dataclasses.replace(data, params=params)
            assert replaced.params is params and replaced.built_with is data.params

    def test_rank_deficient_dynamics(self):
        # A = I with B = 0 kills the equilibrium rows of the dynamics matrix
        model = LtiModel(A=[[1.0]], B=[[0.0]], x_lo=[-1.0], x_hi=[1.0], u_lo=[-1.0], u_hi=[1.0])
        params = MpctParams(Q=[[1.0]], R=[[1.0]], T=[[1.0]], S=[[1.0]], N=3)
        with pytest.raises(RankDeficientG):
            build_problem(model, params)

    @pytest.mark.parametrize("horizon, limit", [(30, 88800), (240, 512160)])
    def test_stored_bytes_do_not_grow(self, horizon, limit):
        # the distinct buffers the built data keeps alive, views counted as
        # their base: 86.72 and 500.16 KiB when this bound was set, the
        # arrays the KKT chain reads plus the model, the costs and the
        # bounds, and nothing else. A stored view into a padded scratch
        # buffer would count the whole buffer
        sc = load_scenario(resources.files("mpct_admm") / "models" / "scenario_ball_plate.json")
        data = build_problem(sc.model, dataclasses.replace(sc.params, N=horizon))
        buffers = {id(a): a.nbytes for a in reachable_arrays(data)}
        assert sum(buffers.values()) <= limit

    def test_data_keeps_only_what_the_chain_reads(self):
        # the fourteen fields, and no buffer beyond theirs: no second copy of
        # the primal blocks, no view kept beside the block it views and no
        # view into a larger buffer. built_with is params itself
        sc = load_scenario(resources.files("mpct_admm") / "models" / "scenario_ball_plate.json")
        data = build_problem(sc.model, sc.params)
        assert [f.name for f in dataclasses.fields(data)] == [
            "model", "params", "built_with", "g", "v_lo", "v_hi", "dual_factor", "dual_w",
            "head_window", "tail_window", "sums_block", "pair_block", "odd_block", "scaling",
        ]
        assert data.built_with is data.params
        model, params = data.model, data.params
        expected = [
            model.A, model.B, model.x_lo, model.x_hi, model.u_lo, model.u_hi,
            params.Q, params.R, params.T, params.S, data.g.window, data.v_lo, data.v_hi,
            data.dual_factor.bands, data.dual_w, data.head_window, data.tail_window, data.sums_block,
            data.pair_block, data.odd_block,
        ]
        buffers = reachable_arrays(data)
        assert sorted(map(id, buffers)) == sorted(map(id, reachable_arrays(expected)))
        assert sum(a.nbytes for a in buffers) == sum(a.nbytes for a in expected)

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


class TestJsonFormat:
    def test_roundtrip(self, integrator_model, integrator_params):
        obj = problem_to_dict(integrator_model, integrator_params)
        model, params = problem_from_dict(obj)
        np.testing.assert_array_equal(model.A, integrator_model.A)
        np.testing.assert_array_equal(params.Q, integrator_params.Q)
        assert params.N == integrator_params.N

    def test_infinity_sentinels(self):
        model = LtiModel(
            A=[[0.5]], B=[[1.0]], x_lo=[-np.inf], x_hi=[np.inf], u_lo=[-1.0], u_hi=[1.0]
        )
        params = MpctParams(Q=[[1.0]], R=[[1.0]], T=[[1.0]], S=[[1.0]], N=2)
        obj = problem_to_dict(model, params)
        assert obj["model"]["x_lo"] == ["-inf"]
        assert obj["model"]["x_hi"] == ["inf"]
        back, _ = problem_from_dict(obj)
        assert back.x_hi[0] == np.inf

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("params", "rho", True),
            ("params", "N", "12"),
            ("params", "max_iter", "4000"),
            ("params", "Q", [["1"]]),
            ("model", "x_lo", [True]),
            ("model", "A", [[True]]),
        ],
    )
    def test_booleans_and_numeric_strings_rejected(self, integrator_model, integrator_params, section, key, value):
        # float() takes True and "12"; the file format does not
        obj = problem_to_dict(integrator_model, integrator_params)
        obj[section][key] = value
        with pytest.raises(ValueError, match=rf"^{section}\.{key}: expected a number, got"):
            problem_from_dict(obj)

    def test_bound_tokens_still_accepted(self, integrator_model, integrator_params):
        obj = problem_to_dict(integrator_model, integrator_params)
        obj["model"]["x_lo"] = [" -INF "]
        obj["model"]["x_hi"] = ["+inf"]
        obj["model"]["u_hi"] = [5]
        model, _ = problem_from_dict(obj)
        assert (model.x_lo[0], model.x_hi[0], model.u_hi[0]) == (-np.inf, np.inf, 5.0)

    def test_missing_format_key_rejected(self):
        with pytest.raises(ValueError):
            problem_from_dict({"model": {}, "params": {}})

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
        _, params = problem_from_dict(obj)
        np.testing.assert_array_equal(params.Q, [[2.0]])
        assert params.N == 3
