from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from mpct_admm import (
    DimensionMismatch,
    KktWorkspace,
    NotPositiveDefinite,
    SemiBandedSystem,
    SingularSmallSystem,
    StageCoupledSystem,
    StageSumMatrix,
    SymBandedMatrix,
    assemble_online,
    banded_cholesky_factor,
    build_problem,
    load_problem,
    load_scenario,
    solve_kkt_system,
    solve_semibanded,
)
from mpct_admm.oracle import dense_dynamics, dense_hessian, dense_instance, dense_kkt_solve
from mpct_admm.semiband_solver import _spd_inverse

from conftest import random_controllable_model, random_instance, random_params, random_spd

from test_banded_linalg import random_spd_banded


def random_semibanded(rng, n, m, kind="banded", scale=0.4):
    """Random factored core plus a moderate low-rank perturbation."""
    if kind == "banded":
        bw = int(rng.integers(0, min(6, n)))
        core = random_spd_banded(rng, n, bw)
        gamma_dense = core.to_dense()
        gamma = banded_cholesky_factor(core)
    else:
        sizes = []
        left = n
        while left > 0:
            k = int(rng.integers(1, min(4, left) + 1))
            sizes.append(k)
            left -= k
        blocks = tuple(random_spd(rng, k, 1.0, 4.0) for k in sizes)
        gamma_dense = block_diag(*(0.5 * (b + b.T) for b in blocks))
        gamma = banded_cholesky_factor(SymBandedMatrix.from_dense(gamma_dense, max(sizes) - 1))
    u = scale * rng.standard_normal((n, m))
    v = scale * rng.standard_normal((m, n))
    return gamma, gamma_dense, u, v


class TestSolveSemibanded:
    def test_zero_low_rank_reduces_to_core_solve(self):
        rng = np.random.default_rng(1)
        core = random_spd_banded(rng, 8, 2)
        gamma = banded_cholesky_factor(core)
        sys = SemiBandedSystem.build(gamma, np.zeros((8, 3)), np.zeros((3, 8)))
        d = rng.standard_normal(8)
        np.testing.assert_allclose(solve_semibanded(sys, d), gamma.solve(d), atol=1e-14)

    def test_rank_one_analytic_case(self):
        # identity core with a rank-one bump: (I + e1 e1') z = e1 has z = e1 / 2
        n = 5
        gamma = banded_cholesky_factor(SymBandedMatrix(n=n, half_bandwidth=0, bands=np.ones((1, n))))
        e1 = np.zeros(n)
        e1[0] = 1.0
        sys = SemiBandedSystem.build(gamma, e1[:, None], e1[None, :])
        np.testing.assert_allclose(solve_semibanded(sys, e1), 0.5 * e1, atol=1e-14)

    def test_random_banded_matches_dense(self):
        rng = np.random.default_rng(2)
        gamma, gamma_dense, u, v = random_semibanded(rng, 10, 3)
        sys = SemiBandedSystem.build(gamma, u, v)
        d = rng.standard_normal(10)
        expected = np.linalg.solve(gamma_dense + u @ v, d)
        np.testing.assert_allclose(solve_semibanded(sys, d), expected, atol=1e-10)

    def test_random_blockdiag_matches_dense(self):
        rng = np.random.default_rng(3)
        gamma, gamma_dense, u, v = random_semibanded(rng, 12, 4, kind="blockdiag")
        sys = SemiBandedSystem.build(gamma, u, v)
        d = rng.standard_normal(12)
        expected = np.linalg.solve(gamma_dense + u @ v, d)
        np.testing.assert_allclose(solve_semibanded(sys, d), expected, atol=1e-10)

    def test_singular_small_system(self):
        # V U = -1 makes the core I + V solve(Gamma, U) vanish
        n = 4
        gamma = banded_cholesky_factor(SymBandedMatrix(n=n, half_bandwidth=0, bands=np.ones((1, n))))
        e1 = np.zeros(n)
        e1[0] = 1.0
        with pytest.raises(SingularSmallSystem):
            SemiBandedSystem.build(gamma, e1[:, None], -e1[None, :])

    def test_out_buffer(self):
        rng = np.random.default_rng(4)
        gamma, gamma_dense, u, v = random_semibanded(rng, 9, 2)
        sys = SemiBandedSystem.build(gamma, u, v)
        d = rng.standard_normal(9)
        out = np.empty(9)
        res = solve_semibanded(sys, d, out=out)
        assert res is out
        np.testing.assert_allclose(out, np.linalg.solve(gamma_dense + u @ v, d), atol=1e-10)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(5)
        gamma, _, u, v = random_semibanded(rng, 6, 2)
        sys = SemiBandedSystem.build(gamma, u, v)
        with pytest.raises(DimensionMismatch):
            solve_semibanded(sys, np.zeros(7))

    def test_dual_system_stores_only_what_a_solve_reads(self):
        rng = np.random.default_rng(13)
        model = random_controllable_model(rng, 4, 2)
        w_sys = build_problem(model, random_params(rng, 4, 2, 12)).w_system
        stored = sum(a.nbytes for a in reachable_arrays(w_sys))
        v_bytes = w_sys.v.blocks.nbytes + w_sys.v.offsets.nbytes
        assert stored == w_sys.gamma.bands.nbytes + v_bytes + w_sys.w.nbytes

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_woodbury_identity_dense(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        m = int(rng.integers(1, 6))
        gamma, gamma_dense, u, v = random_semibanded(rng, n, m)
        core = np.eye(m) + v @ np.linalg.solve(gamma_dense, u)
        if abs(np.linalg.det(core)) < 1e-6:
            return  # skip near-singular draws; conditioning is not under test here
        lhs = np.linalg.inv(gamma_dense + u @ v)
        ginv = np.linalg.inv(gamma_dense)
        rhs = ginv - ginv @ u @ np.linalg.solve(core, v @ ginv)
        assert np.abs(lhs - rhs).max() <= 1e-9 * (1.0 + np.abs(lhs).max())


def reachable_arrays(obj, seen=None):
    """Every numpy array reachable from ``obj`` through attributes and containers."""
    seen = set() if seen is None else seen
    if id(obj) in seen or obj is None or isinstance(obj, (str, int, float, bool)):
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        # a view counts as the buffer it keeps alive
        while isinstance(obj.base, np.ndarray):
            obj = obj.base
        return [obj]
    if isinstance(obj, (tuple, list)):
        children = obj
    elif isinstance(obj, dict):
        children = obj.values()
    else:
        children = vars(obj).values() if hasattr(obj, "__dict__") else ()
    return [a for child in children for a in reachable_arrays(child, seen)]


BUNDLED_MODELS = ["ball_plate_like.json", "double_integrator.json", "mass_spring.json"]
SCENARIO = "scenario_ball_plate.json"


def bundled_data(name):
    model, params, scaling = load_problem(resources.files("mpct_admm") / "models" / name)
    return build_problem(model, params, scaling)


def random_data(n_x, n_u, horizon):
    rng = np.random.default_rng(100 * n_x + 10 * n_u + horizon)
    return build_problem(random_controllable_model(rng, n_x, n_u), random_params(rng, n_x, n_u, horizon))


def dense_dual_v(data):
    """The dual ``V`` rebuilt densely: ``(G Gamma^-1 V_p^T)^T`` for the primal split ``Gamma + U_p V_p``."""
    n, w = data.params.N, data.n_x + data.n_u
    ps = data.p_system
    d = ps.coupling
    gamma = block_diag(*([ps.gamma_stage] * n), ps.gamma_ref)
    gamma_inv = block_diag(*([ps.gamma_stage_inv] * n), _spd_inverse(ps.gamma_ref, "reference core block"))
    u_p = np.block([[np.tile(-d, (n, 1)), np.zeros((n * w, w))], [np.zeros((w, w)), np.eye(w)]])
    v_p = np.block([[np.zeros((w, n * w)), np.eye(w)], [np.tile(-d, (1, n)), np.zeros((w, w))]])
    # the rebuilt split is the primal matrix the solver factors
    np.testing.assert_allclose(gamma + u_p @ v_p, ps.to_dense(), rtol=0.0, atol=1e-14)
    # the dual system is formed for G with its pin row negated
    g = dense_dynamics(data.model, n)
    g[: data.n_x] *= -1.0
    return (g @ gamma_inv @ v_p.T).T


class TestDualSystemStructure:
    @pytest.mark.parametrize(
        "source", [(3, 2, 2), (4, 1, 6), *BUNDLED_MODELS], ids=["horizon-2", "one-input", *BUNDLED_MODELS]
    )
    def test_v_products_match_dense(self, source):
        data = bundled_data(source) if isinstance(source, str) else random_data(*source)
        v = data.w_system.v
        v_dense = dense_dual_v(data)
        assert v.shape == v_dense.shape == (2 * (data.n_x + data.n_u), data.m_z)
        rng = np.random.default_rng(data.m_z)
        for operand in (rng.standard_normal(data.m_z), rng.standard_normal((data.m_z, 3))):
            expected = v_dense @ operand
            got = v @ operand
            assert got.shape == expected.shape
            np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12 * (1.0 + np.abs(expected).max()))

    @pytest.mark.parametrize(
        "horizon, blocks_shape", [(1, (3, 8)), (2, (3, 6)), (2, (8,))], ids=["horizon-1", "width-6", "1-d"]
    )
    def test_stage_sum_matrix_rejects_bad_shapes(self, horizon, blocks_shape):
        with pytest.raises(DimensionMismatch):
            StageSumMatrix(horizon=horizon, blocks=np.ones(blocks_shape))

    def test_v_footprint_independent_of_horizon(self):
        rng = np.random.default_rng(14)
        model = random_controllable_model(rng, 4, 2)
        sizes = []
        for horizon in (6, 24, 96):
            data = build_problem(model, random_params(rng, 4, 2, horizon))
            arrays = reachable_arrays(data.w_system.v)
            assert sorted(a.shape for a in arrays) == [(4,), (2 * 6, 4 * 4)]
            sizes.append(sum(a.nbytes for a in arrays))
        assert sizes[0] == sizes[1] == sizes[2]

    @pytest.mark.parametrize("name, expected", zip(BUNDLED_MODELS, [8, 2, 3]))
    def test_gamma_keeps_only_its_nonzero_bands(self, name, expected):
        data = bundled_data(name)
        gamma = data.w_system.gamma
        assert gamma.bands.flags["F_CONTIGUOUS"]
        core = gamma.to_dense() @ gamma.to_dense().T
        last = max(k for k in range(data.m_z) if np.any(np.diag(core, -k) != 0.0))
        assert gamma.half_bandwidth == last == expected
        assert gamma.half_bandwidth <= 2 * data.n_x - 1

    @pytest.mark.parametrize("n_x, n_u, horizon", [(1, 1, 2), (3, 1, 4), (4, 2, 9)])
    def test_gamma_band_within_block_tridiagonal_bound(self, n_x, n_u, horizon):
        gamma = random_data(n_x, n_u, horizon).w_system.gamma
        assert np.any(gamma.bands[-1] != 0.0)
        assert gamma.half_bandwidth <= 2 * n_x - 1


class TestStageCoupledSystem:
    @pytest.mark.parametrize("n_x, n_u, horizon", [(1, 1, 2), (3, 1, 2), (2, 1, 5), (3, 2, 4), (4, 2, 9)])
    def test_solve_matches_dense_on_random_models(self, n_x, n_u, horizon):
        rng = np.random.default_rng(100 * n_x + 10 * n_u + horizon)
        model = random_controllable_model(rng, n_x, n_u)
        params = random_params(rng, n_x, n_u, horizon)  # Q and R are not diagonal
        data = build_problem(model, params)
        p_dense = data.p_system.to_dense()
        for _ in range(3):
            d = rng.standard_normal(data.n_z)
            expected = np.linalg.solve(p_dense, d)
            np.testing.assert_allclose(data.p_system.solve(d), expected, atol=1e-12 * (1.0 + np.abs(expected).max()))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_random_blocks_match_dense(self, seed):
        rng = np.random.default_rng(seed)
        w = int(rng.integers(1, 7))
        horizon = int(rng.integers(1, 12))
        coupling = rng.standard_normal((w, w))
        coupling = coupling + coupling.T
        # Gamma_st >= I keeps the Schur complement Gamma_s - N D Gamma_st^-1 D >= I
        sys = StageCoupledSystem.build(
            random_spd(rng, w, 1.0, 4.0),
            random_spd(rng, w, 1.0, 4.0) + horizon * coupling @ coupling,
            coupling,
            horizon,
        )
        p_dense = sys.to_dense()
        d = rng.standard_normal(sys.n)
        expected = np.linalg.solve(p_dense, d)
        out = np.empty(sys.n)
        assert sys.solve(d, out=out) is out
        assert np.abs(out - expected).max() <= 1e-9 * (1.0 + np.abs(expected).max())

    def test_to_dense_is_core_plus_coupling(self):
        # two stages of width 1: core blocks 2, 2, 5 and coupling -3
        sys = StageCoupledSystem.build([[2.0]], [[5.0]], [[3.0]], 2)
        expected = np.array([[2.0, 0.0, -3.0], [0.0, 2.0, -3.0], [-3.0, -3.0, 5.0]])
        np.testing.assert_array_equal(sys.to_dense(), expected)

    def test_singular_core(self):
        # Gamma_s = N D Gamma_st^-1 D makes I + V Gamma^-1 U singular
        with pytest.raises(SingularSmallSystem):
            StageCoupledSystem.build([[1.0]], [[2.0]], [[1.0]], 2)
        d = np.array([[1.0, 0.5], [0.5, 2.0]])
        g_st = np.array([[3.0, 1.0], [1.0, 2.0]])
        with pytest.raises(SingularSmallSystem):
            StageCoupledSystem.build(g_st, 4 * d @ np.linalg.solve(g_st, d), d, 4)

    def test_non_spd_block(self):
        with pytest.raises(NotPositiveDefinite) as exc:
            StageCoupledSystem.build(np.eye(2), np.diag([1.0, -1.0]), np.eye(2), 3)
        assert exc.value.index == 1

    def test_dimension_mismatch(self):
        sys = StageCoupledSystem.build(np.eye(2), 4.0 * np.eye(2), np.eye(2), 3)
        with pytest.raises(DimensionMismatch):
            sys.solve(np.zeros(sys.n + 1))
        with pytest.raises(DimensionMismatch):
            sys.solve(np.zeros(sys.n), out=np.zeros(2 * sys.n)[::2])

    def test_footprint_independent_of_horizon(self):
        rng = np.random.default_rng(12)
        model = random_controllable_model(rng, 4, 2)
        sizes = []
        for horizon in (6, 24, 96):
            data = build_problem(model, random_params(rng, 4, 2, horizon))
            arrays = reachable_arrays(data.p_system)
            assert arrays
            assert all(data.n_z not in a.shape and a.size <= (2 * 6) ** 2 for a in arrays)
            # the window blocks of the G and G' products, and the stage-sum
            # block that folds G' into the second primal solve
            blocks = (data.g_window, data.gt_window, data.gt_sums)
            assert [blk.shape for blk in blocks] == [(2 * 6, 4), (2 * 4, 6), (2 * 6, 4 * 4)]
            sizes.append(sum(a.nbytes for a in arrays) + sum(blk.nbytes for blk in blocks))
        assert sizes[0] == sizes[1] == sizes[2]


class TestSolveKkt:
    def test_homogeneous_system(self, integrator_model, integrator_params):
        data = build_problem(integrator_model, integrator_params)
        z, mu = solve_kkt_system(data, np.zeros(data.n_z), np.zeros(data.m_z))
        np.testing.assert_allclose(z, np.zeros(data.n_z), atol=1e-14)
        np.testing.assert_allclose(mu, np.zeros(data.m_z), atol=1e-14)

    def test_integrator_against_dense_saddle(self, integrator_model, integrator_params):
        data = build_problem(integrator_model, integrator_params)
        qp = assemble_online(data, [0.5], [1.0], [0.0])
        p = -qp.q
        z, mu = solve_kkt_system(data, p, qp.b)
        inst = dense_instance(integrator_model, integrator_params, [0.5], [1.0], [0.0])
        z_ref, mu_ref = dense_kkt_solve(inst, p, qp.b)
        np.testing.assert_allclose(z, z_ref, atol=1e-12)
        np.testing.assert_allclose(mu, mu_ref, atol=1e-12)

    def test_kkt_residuals_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            model, params = random_instance(rng)
            data = build_problem(model, params)
            p = rng.standard_normal(data.n_z)
            b = rng.standard_normal(data.m_z)
            z, mu = solve_kkt_system(data, p, b)
            g = dense_dynamics(model, params.N)
            p_mat = dense_hessian(params) + params.rho * np.eye(data.n_z)
            assert np.abs(g @ z - b).max() <= 1e-7 * (1.0 + np.abs(b).max())
            stat = p_mat @ z + g.T @ mu + p
            assert np.abs(stat).max() <= 1e-7 * (1.0 + np.abs(p).max())

    def test_dimension_checks(self, integrator_model, integrator_params):
        data = build_problem(integrator_model, integrator_params)
        with pytest.raises(DimensionMismatch):
            solve_kkt_system(data, np.zeros(data.n_z + 1), np.zeros(data.m_z))
        with pytest.raises(DimensionMismatch):
            solve_kkt_system(data, np.zeros(data.n_z), np.zeros(data.m_z - 1))

    def test_workspace_of_another_size_rejected(self, integrator_model, integrator_params):
        data = build_problem(integrator_model, integrator_params)
        other = build_problem(integrator_model, replace(integrator_params, N=3))
        with pytest.raises(DimensionMismatch, match="work"):
            solve_kkt_system(data, np.zeros(data.n_z), np.zeros(data.m_z), work=KktWorkspace.for_problem(other))

    def test_results_land_in_the_workspace(self):
        data = bundled_data("double_integrator.json")
        rng = np.random.default_rng(8)
        p, b = rng.standard_normal(data.n_z), rng.standard_normal(data.m_z)
        z_fresh, mu_fresh = solve_kkt_system(data, p, b)
        work = KktWorkspace.for_problem(data)
        z, mu = solve_kkt_system(data, p, b, work=work)
        assert z is work.z and mu is work.mu
        np.testing.assert_array_equal(z, z_fresh)
        np.testing.assert_array_equal(mu, mu_fresh)

    @pytest.mark.parametrize(
        "source",
        [(1, 1, 2), (3, 1, 2), (2, 1, 5), (4, 2, 9), *BUNDLED_MODELS, SCENARIO],
        ids=["n_x-1-horizon-2", "one-input-horizon-2", "one-input", "4x2", *BUNDLED_MODELS, "scaled-scenario"],
    )
    def test_fused_chain_against_dense_oracle(self, source):
        # both outputs, z and mu, satisfy both rows of the KKT system, and
        # match the oracle's dense saddle-point solve
        if source == SCENARIO:
            sc = load_scenario(str(resources.files("mpct_admm") / "models" / SCENARIO))
            data = build_problem(sc.model, sc.params, sc.scaling)
        elif isinstance(source, str):
            data = bundled_data(source)
        else:
            data = random_data(*source)  # Q and R are not diagonal
        model, params = data.model, data.params  # already scaled
        rng = np.random.default_rng(data.n_z)
        g = dense_dynamics(model, params.N)
        p_mat = dense_hessian(params) + params.rho * np.eye(data.n_z)
        nx, nu = model.n_x, model.n_u
        inst = dense_instance(model, params, np.zeros(nx), np.zeros(nx), np.zeros(nu))
        work = KktWorkspace.for_problem(data)
        for _ in range(3):
            p = rng.standard_normal(data.n_z)
            b = rng.standard_normal(data.m_z)
            z, mu = solve_kkt_system(data, p, b, work=work)
            assert np.abs(g @ z - b).max() <= 1e-9 * (1.0 + np.abs(b).max())
            stat = p_mat @ z + g.T @ mu + p
            assert np.abs(stat).max() <= 1e-9 * (1.0 + np.abs(p).max())
            z_ref, mu_ref = dense_kkt_solve(inst, p, b)
            assert np.abs(z - z_ref).max() <= 1e-9 * (1.0 + np.abs(z_ref).max())
            assert np.abs(mu - mu_ref).max() <= 1e-9 * (1.0 + np.abs(mu_ref).max())

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_structured_equals_dense_across_shapes(self, seed):
        rng = np.random.default_rng(seed)
        model, params = random_instance(rng)
        data = build_problem(model, params)
        inst = dense_instance(model, params, np.zeros(model.n_x), np.zeros(model.n_x), np.zeros(model.n_u))
        p = rng.standard_normal(data.n_z)
        b = rng.standard_normal(data.m_z)
        z, _ = solve_kkt_system(data, p, b)
        z_ref, _ = dense_kkt_solve(inst, p, b)
        assert np.abs(z - z_ref).max() <= 1e-7 * (1.0 + np.abs(z_ref).max())
