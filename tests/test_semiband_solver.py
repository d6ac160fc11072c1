from dataclasses import fields, replace
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
    SymBandedMatrix,
    assemble_online,
    banded_cholesky_factor,
    build_problem,
    load_problem,
    solve_kkt_system,
    solve_semibanded,
)
from mpct_admm.oracle import dense_dynamics, dense_hessian, dense_instance, dense_kkt_solve
from mpct_admm.semiband_solver import _split_primal, stage_sums

from conftest import random_controllable_model, random_instance, random_params, random_spd

from test_banded_linalg import random_spd_banded, stage_sum_pattern


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

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(5)
        gamma, _, u, v = random_semibanded(rng, 6, 2)
        sys = SemiBandedSystem.build(gamma, u, v)
        with pytest.raises(DimensionMismatch):
            solve_semibanded(sys, np.zeros(7))

    def test_dual_system_stores_only_what_a_solve_reads(self):
        # the dual-space matrix is kept as the banded factor's bands and the
        # column-major W, each a buffer of its own size; V is read from the
        # KKT chain's stacked block, which the chain reads whole
        rng = np.random.default_rng(13)
        model = random_controllable_model(rng, 4, 2)
        data = build_problem(model, random_params(rng, 4, 2, 12))
        stored = reachable_arrays(data.dual_factor) + reachable_arrays(data.dual_w)
        assert [a.nbytes for a in stored] == [data.dual_factor.bands.nbytes, data.dual_w.nbytes]
        assert data.dual_w.shape == (data.m_z, 2 * 6) and data.dual_w.flags["F_CONTIGUOUS"]

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


def bundled_data(name):
    return build_problem(*load_problem(resources.files("mpct_admm") / "models" / name))


def arrays_in(obj):
    """Every ndarray reachable from ``obj`` through its attributes."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif hasattr(obj, "__dict__"):
        for item in vars(obj).values():
            yield from arrays_in(item)


def random_data(n_x, n_u, horizon):
    rng = np.random.default_rng(100 * n_x + 10 * n_u + horizon)
    return build_problem(random_controllable_model(rng, n_x, n_u), random_params(rng, n_x, n_u, horizon))


def dense_dual_v(data):
    """The dual ``V = M (G Y)'`` rebuilt densely, with ``M`` read off ``P^-1 = Lambda - Y M Y'``.

    ``Lambda`` is block diagonal, so off its diagonal blocks ``P^-1`` is
    ``-Y M Y'``: stage blocks 0 and 1 give ``M_11``, stage 0 and the
    reference ``M_12`` and ``M_21``. The reference block gives ``M_22 =
    Gamma_s^-1 - P^-1[s, s]``, with ``Gamma_s`` the reference block of
    ``P``.
    """
    n, w = data.params.N, data.n_x + data.n_u
    p = dense_hessian(data.params) + data.params.rho * np.eye(data.n_z)
    p_inv = np.linalg.inv(p)
    ref = slice(n * w, None)
    m = np.empty((2 * w, 2 * w))
    m[:w, :w] = -p_inv[:w, w : 2 * w]
    m[:w, w:] = -p_inv[:w, ref]
    m[w:, :w] = -p_inv[ref, :w]
    m[w:, w:] = np.linalg.inv(p[ref, ref]) - p_inv[ref, ref]
    g = dense_dynamics(data.model, n)
    return m @ (g @ stage_sum_pattern(n, w)).T


def dense_stage_sums(horizon, n_x):
    """The 0/1 matrix that :func:`stage_sums` applies: ``Y'``-style sums of the N+2 row blocks."""
    blocks = np.zeros((4, horizon + 2))
    blocks[0, 0] = blocks[2, horizon] = blocks[3, horizon + 1] = 1.0
    blocks[1, 1:horizon] = 1.0
    return np.kron(blocks, np.eye(n_x))


class TestDualSystemStructure:
    @pytest.mark.parametrize(
        "source", [(3, 2, 2), (4, 1, 6), *BUNDLED_MODELS], ids=["horizon-2", "one-input", *BUNDLED_MODELS]
    )
    def test_v_products_match_dense(self, source):
        # V is applied as its four distinct column blocks, the left part of
        # the stacked block's upper half, on the four stage sums
        data = bundled_data(source) if isinstance(source, str) else random_data(*source)
        n, nx, w = data.params.N, data.n_x, data.n_x + data.n_u
        v_blocks = data.sums_block[: 2 * w, : 4 * nx]
        v_dense = dense_dual_v(data)
        assert v_dense.shape == (2 * w, data.m_z)
        sums_dense = dense_stage_sums(n, nx)
        rng = np.random.default_rng(data.m_z)
        for operand in (rng.standard_normal(data.m_z), rng.standard_normal((data.m_z, 3))):
            sums = stage_sums(operand, n)
            expected_sums = sums_dense @ operand
            assert sums.shape == expected_sums.shape
            np.testing.assert_allclose(sums, expected_sums, rtol=0.0, atol=1e-12 * (1.0 + np.abs(expected_sums).max()))
            expected = v_dense @ operand
            got = v_blocks @ sums
            assert got.shape == expected.shape
            np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12 * (1.0 + np.abs(expected).max()))

    @pytest.mark.parametrize(
        "name, horizon",
        [
            ("double_integrator.json", 2),
            ("mass_spring.json", 2),
            *((name, None) for name in BUNDLED_MODELS),
            *((name, 240) for name in BUNDLED_MODELS),
        ],
    )
    def test_dual_inverse_maps_u_to_w(self, name, horizon):
        # W~^-1 U~ = W, with W~ = G P^-1 G' and U~ = -G Y formed densely: the
        # push-through identity that lets the KKT chain carry the first
        # primal solve's low-rank term on the Woodbury step. Ball-plate
        # cannot reach an equilibrium in 2 steps, so it builds at N >= 3 only
        model, params = load_problem(resources.files("mpct_admm") / "models" / name)
        if horizon is not None:
            params = replace(params, N=horizon)
        data = build_problem(model, params)
        n, w = params.N, data.n_x + data.n_u
        g = dense_dynamics(model, n)
        p = dense_hessian(params) + params.rho * np.eye(data.n_z)
        w_tilde = g @ np.linalg.solve(p, g.T)
        expected = np.linalg.solve(w_tilde, -g @ stage_sum_pattern(n, w))
        got = data.dual_w
        assert np.abs(got - expected).max() <= 1e-9 * (1.0 + np.abs(expected).max())

    def test_v_footprint_independent_of_horizon(self):
        # V lives in the stacked block; apart from the banded factor, W and
        # the bounds, no stored array depends on the horizon
        rng = np.random.default_rng(14)
        model = random_controllable_model(rng, 4, 2)
        footprints = []
        for horizon in (6, 24, 96):
            data = build_problem(model, random_params(rng, 4, 2, horizon))
            assert data.sums_block.shape == (4 * 6, 4 * 4 + 2 * 6)
            growing = reachable_arrays((data.dual_factor, data.dual_w, data.v_lo, data.v_hi))
            fixed = [a for a in reachable_arrays(data) if not any(a is g for g in growing)]
            footprints.append(sorted((a.shape, a.nbytes) for a in fixed))
        assert footprints[0] == footprints[1] == footprints[2]

    @pytest.mark.parametrize("name, expected", zip(BUNDLED_MODELS, [8, 2, 3]))
    def test_gamma_keeps_only_its_nonzero_bands(self, name, expected):
        data = bundled_data(name)
        gamma = data.dual_factor
        assert gamma.bands.flags["F_CONTIGUOUS"]
        core = gamma.to_dense() @ gamma.to_dense().T
        last = max(k for k in range(data.m_z) if np.any(np.diag(core, -k) != 0.0))
        assert gamma.half_bandwidth == last == expected
        assert gamma.half_bandwidth <= 2 * data.n_x - 1

    @pytest.mark.parametrize("n_x, n_u, horizon", [(1, 1, 2), (3, 1, 4), (4, 2, 9)])
    def test_gamma_band_within_block_tridiagonal_bound(self, n_x, n_u, horizon):
        gamma = random_data(n_x, n_u, horizon).dual_factor
        # the outermost band is the first row of the upper layout
        assert np.any(gamma.bands[0] != 0.0)
        assert gamma.half_bandwidth <= 2 * n_x - 1


def dense_inverse_from_factors(horizon, g_st, g_s, m):
    """``P^-1 = Lambda - Y M Y'`` rebuilt from the factors :func:`_split_primal` returns.

    ``Lambda = blkdiag(I_N (x) Gamma_st^-1, Gamma_s^-1)`` and ``Y`` is the
    stage-sum pattern.
    """
    y = stage_sum_pattern(horizon, g_st.shape[0])
    return block_diag(np.kron(np.eye(horizon), g_st), g_s) - y @ m @ y.T


class TestStageCoupledSystem:
    @pytest.mark.parametrize("n_x, n_u, horizon", [(1, 1, 2), (3, 1, 2), (2, 1, 5), (3, 2, 4), (4, 2, 9)])
    def test_solve_matches_dense_on_random_models(self, n_x, n_u, horizon):
        # the split of the built matrix, and the KKT chain's p-side blocks,
        # which are its stage inverse and M times rho
        rng = np.random.default_rng(100 * n_x + 10 * n_u + horizon)
        model = random_controllable_model(rng, n_x, n_u)
        params = random_params(rng, n_x, n_u, horizon)  # Q and R are not diagonal
        data = build_problem(model, params)
        system = data.p_system
        g_st, g_s, m = _split_primal(system.gamma_stage, system.gamma_ref, system.coupling, horizon)
        expected = np.linalg.inv(system.to_dense())
        got = dense_inverse_from_factors(horizon, g_st, g_s, m)
        np.testing.assert_allclose(got, expected, atol=1e-12 * (1.0 + np.abs(expected).max()))
        w = n_x + n_u
        np.testing.assert_array_equal(data.stage_inv, params.rho * g_st)
        np.testing.assert_array_equal(data.sums_block[: 2 * w, 4 * n_x :], params.rho * m)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_random_blocks_match_dense(self, seed):
        rng = np.random.default_rng(seed)
        w = int(rng.integers(1, 7))
        horizon = int(rng.integers(1, 12))
        coupling = rng.standard_normal((w, w))
        coupling = coupling + coupling.T
        # Gamma_st >= I keeps the Schur complement Gamma_s - N D Gamma_st^-1 D >= I
        system = StageCoupledSystem(
            horizon=horizon,
            coupling=coupling,
            gamma_stage=random_spd(rng, w, 1.0, 4.0),
            gamma_ref=random_spd(rng, w, 1.0, 4.0) + horizon * coupling @ coupling,
        )
        expected = np.linalg.inv(system.to_dense())
        got = dense_inverse_from_factors(
            horizon, *_split_primal(system.gamma_stage, system.gamma_ref, coupling, horizon)
        )
        assert np.abs(got - expected).max() <= 1e-9 * (1.0 + np.abs(expected).max())

    def test_to_dense_is_core_plus_coupling(self):
        # two stages of width 1: core blocks 2, 2, 5 and coupling -3
        system = StageCoupledSystem(
            horizon=2, coupling=np.array([[3.0]]), gamma_stage=np.array([[2.0]]), gamma_ref=np.array([[5.0]])
        )
        expected = np.array([[2.0, 0.0, -3.0], [0.0, 2.0, -3.0], [-3.0, -3.0, 5.0]])
        np.testing.assert_array_equal(system.to_dense(), expected)

    def test_singular_core(self):
        # Gamma_s = N D Gamma_st^-1 D leaves a zero Schur complement
        with pytest.raises(NotPositiveDefinite, match="reference Schur complement") as exc:
            _split_primal(np.array([[1.0]]), np.array([[2.0]]), np.array([[1.0]]), 2)
        assert exc.value.index == 0
        # Gamma_s = N D Gamma_st^-1 D + v v' leaves v v', singular from its
        # second row; every entry is exact in floating point
        d = np.array([[1.0, 0.5], [0.5, 2.0]])
        v = np.array([[1.0], [2.0]])
        with pytest.raises(NotPositiveDefinite, match="reference Schur complement") as exc:
            _split_primal(4.0 * np.eye(2), d @ d + v @ v.T, d, 4)
        assert exc.value.index == 1

    def test_non_spd_block(self):
        with pytest.raises(NotPositiveDefinite) as exc:
            _split_primal(np.eye(2), np.diag([1.0, -1.0]), np.eye(2), 3)
        assert exc.value.index == 1

    def test_footprint_independent_of_horizon(self):
        rng = np.random.default_rng(12)
        model = random_controllable_model(rng, 4, 2)
        sizes = []
        for horizon in (6, 24, 96):
            data = build_problem(model, random_params(rng, 4, 2, horizon))
            arrays = reachable_arrays(data.p_system)
            assert arrays
            assert all(data.n_z not in a.shape and a.size <= (2 * 6) ** 2 for a in arrays)
            # the blocks of the KKT chain: the window blocks of the G and G'
            # products, the p-side stage inverse and end window, and the
            # stacked block that folds G' into the second primal solve
            blocks = (data.g.window, data.gt_window, data.stage_inv, data.end_window, data.sums_block)
            assert [blk.shape for blk in blocks] == [
                (2 * 6, 4), (2 * 4, 6), (6, 6), (2 * 6, 2 * 4), (4 * 6, 4 * 4 + 2 * 6)
            ]
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

    def test_workspace_of_another_problem_rejected(self, integrator_model, integrator_params):
        # the chain reads the factors of work.data, so a workspace of the same
        # size but another penalty would solve the wrong system
        data = build_problem(integrator_model, integrator_params)
        other = build_problem(integrator_model, replace(integrator_params, rho=2.0 * integrator_params.rho))
        with pytest.raises(DimensionMismatch, match="another problem"):
            solve_kkt_system(data, np.zeros(data.n_z), np.zeros(data.m_z), work=KktWorkspace.for_problem(other))

    def test_workspace_holds_no_factor(self):
        # the chain reads the factors from data: apart from data itself, the
        # workspace holds only its own buffers and views, none of which
        # shares memory with an array of data
        data = bundled_data("double_integrator.json")
        work = KktWorkspace.for_problem(data)
        arrays = list(arrays_in(data))
        assert any(a is data.dual_factor.bands for a in arrays)
        for f in fields(work):
            value = getattr(work, f.name)
            if f.name == "data":
                assert value is data
                continue
            assert isinstance(value, np.ndarray), f.name
            assert not any(np.shares_memory(value, a) for a in arrays), f.name

    def test_results_land_in_the_workspace(self):
        data = bundled_data("double_integrator.json")
        rng = np.random.default_rng(8)
        p, b = rng.standard_normal(data.n_z), rng.standard_normal(data.m_z)
        b_before = b.copy()
        z_fresh, mu_fresh = solve_kkt_system(data, p, b)
        work = KktWorkspace.for_problem(data)
        z, mu = solve_kkt_system(data, p, b, work=work)
        assert z is work.z and mu is work.mu
        np.testing.assert_array_equal(z, z_fresh)
        np.testing.assert_array_equal(mu, mu_fresh)
        # b is only read
        np.testing.assert_array_equal(b, b_before)

    @pytest.mark.parametrize(
        "source",
        [(1, 1, 2), (3, 1, 2), (2, 1, 5), (4, 2, 9), *BUNDLED_MODELS],
        ids=["n_x-1-horizon-2", "one-input-horizon-2", "one-input", "4x2", *BUNDLED_MODELS],
    )
    def test_fused_chain_against_dense_oracle(self, source):
        # both outputs, z and mu, satisfy both rows of the KKT system, and
        # match the oracle's dense saddle-point solve
        if isinstance(source, str):
            data = bundled_data(source)
        else:
            data = random_data(*source)  # Q and R are not diagonal
        model, params = data.model, data.params
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
