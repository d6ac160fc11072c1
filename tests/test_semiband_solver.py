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
from mpct_admm.mpct_problem import _banded_from_block_columns, _gamma_tilde_columns
from mpct_admm.semiband_solver import _split_primal

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
        # column-major W, each a buffer of its own size, both on the kept
        # blocks only: N // 2 heads and two tail blocks at even N; V is read
        # from the KKT chain's stacked block, which the chain reads whole
        rng = np.random.default_rng(13)
        model = random_controllable_model(rng, 4, 2)
        data = build_problem(model, random_params(rng, 4, 2, 12))
        stored = reachable_arrays(data.dual_factor) + reachable_arrays(data.dual_w)
        assert [a.nbytes for a in stored] == [data.dual_factor.bands.nbytes, data.dual_w.nbytes]
        assert data.dual_factor.n == (6 + 2) * 4
        assert data.dual_w.shape == (data.dual_factor.n, 2 * 6) and data.dual_w.flags["F_CONTIGUOUS"]

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
    """The 0/1 matrix of the four stage sums ``(x_0, x_1 + .. + x_{N-1}, x_N, x_{N+1})`` of the N+2 row blocks."""
    blocks = np.zeros((4, horizon + 2))
    blocks[0, 0] = blocks[2, horizon] = blocks[3, horizon + 1] = 1.0
    blocks[1, 1:horizon] = 1.0
    return np.kron(blocks, np.eye(n_x))


def kept_rows(horizon, n_x):
    """The rows of the kept blocks of a dual-space vector: the heads 0, 2, .., 2h-2 and the tail 2h .. N+1."""
    h = horizon // 2
    blocks = [*range(0, 2 * h, 2), *range(2 * h, horizon + 2)]
    return (np.array(blocks)[:, None] * n_x + np.arange(n_x)).ravel()


def dense_gamma_tilde(data):
    """The banded core ``G Lambda G'`` of the dual-space matrix, dense, from the primal split."""
    n, w = data.params.N, data.n_x + data.n_u
    system = data.p_system
    g_st, g_s, _ = _split_primal(system.gamma_stage, system.gamma_ref, system.coupling, n)
    g = dense_dynamics(data.model, n)
    return g @ block_diag(np.kron(np.eye(n), g_st), g_s) @ g.T


def model_data(source, horizon):
    """A bundled model by name, or a random model with a dense A and two inputs by state dimension."""
    if isinstance(source, str):
        model, params = load_problem(resources.files("mpct_admm") / "models" / source)
        return build_problem(model, replace(params, N=horizon))
    rng = np.random.default_rng(source)
    return build_problem(random_controllable_model(rng, source, 2), random_params(rng, source, 2, horizon))


# ball-plate cannot reach an equilibrium in 2 steps, so it builds at N >= 3 only
REDUCTION_CASES = [
    *((name, horizon) for name in BUNDLED_MODELS for horizon in (2, 3, 4, 5, 30, 31)
      if (name, horizon) != ("ball_plate_like.json", 2)),
    *((n_x, horizon) for n_x in (1, 3, 4) for horizon in (2, 3, 4, 5, 30, 31)),
]


class TestDualSystemStructure:
    @pytest.mark.parametrize(
        "source", [(3, 2, 2), (4, 1, 6), *BUNDLED_MODELS], ids=["horizon-2", "one-input", *BUNDLED_MODELS]
    )
    def test_v_products_match_dense(self, source):
        # V z1 is read through the reduction: with p = 0 the Woodbury step's
        # r = V z1 + M Y' p is V z1, for z1 = Gamma~^-1 (-b), and the chain
        # takes it from the kept blocks' sums of z1 and b's odd sum through
        # the stacked block, never from z1's odd blocks
        data = bundled_data(source) if isinstance(source, str) else random_data(*source)
        w = data.n_x + data.n_u
        v_dense = dense_dual_v(data)
        assert v_dense.shape == (2 * w, data.m_z)
        # V = M S repeats one column block over the stage couplings, so it
        # reads the four stage sums
        system = data.p_system
        m = _split_primal(system.gamma_stage, system.gamma_ref, system.coupling, data.params.N)[2]
        v_blocks = m @ data.g.stage_sum_block() @ dense_stage_sums(data.params.N, data.n_x)
        np.testing.assert_allclose(v_blocks, v_dense, rtol=0.0, atol=1e-12 * (1.0 + np.abs(v_dense).max()))
        gamma = dense_gamma_tilde(data)
        work = KktWorkspace.for_problem(data)
        work.p[...] = 0.0
        rng = np.random.default_rng(data.m_z)
        for _ in range(2):
            b = rng.standard_normal(data.m_z)
            work.bind(b)
            work.solve()
            z1 = np.linalg.solve(gamma, -b)
            expected = v_dense @ z1
            assert work.r.shape == expected.shape
            np.testing.assert_allclose(work.r, expected, rtol=0.0, atol=1e-10 * (1.0 + np.abs(expected).max()))

    @pytest.mark.parametrize(
        "name, horizon",
        [
            ("double_integrator.json", 2),
            ("mass_spring.json", 2),
            *((name, None) for name in BUNDLED_MODELS),
            *((name, 240) for name in BUNDLED_MODELS),
            ("double_integrator.json", 31),
            *((n_x, horizon) for n_x in (1, 4) for horizon in (2, 30)),
            *((n_x, horizon) for n_x in (1, 4) for horizon in (3, 31)),
        ],
    )
    def test_dual_inverse_maps_u_to_w(self, name, horizon):
        # W~^-1 U~ = W, with W~ = G P^-1 G' and U~ = -G Y formed densely: the
        # push-through identity that lets the KKT chain carry the first
        # primal solve's low-rank term on the Woodbury step. Ball-plate
        # cannot reach an equilibrium in 2 steps, so it builds at N >= 3 only.
        # An integer name is the state dimension of a random model with a
        # dense A and two inputs (with one, four states cannot settle in 2
        # steps), whose dual core has the widest band, 2 n_x - 1: the build
        # sweeps the reference columns forward over the last 2 n_x rows
        # only, and at this width they begin inside the band. W is stored
        # on the kept blocks only, the heads and the tail of the odd-even
        # reduction
        if isinstance(name, int):
            rng = np.random.default_rng(name)
            model = random_controllable_model(rng, name, 2)
            params = random_params(rng, model.n_x, model.n_u, horizon)
        else:
            model, params = load_problem(resources.files("mpct_admm") / "models" / name)
            if horizon is not None:
                params = replace(params, N=horizon)
        data = build_problem(model, params)
        if isinstance(name, int):
            assert data.dual_factor.half_bandwidth == 2 * name - 1
        n, w = params.N, data.n_x + data.n_u
        g = dense_dynamics(model, n)
        p = dense_hessian(params) + params.rho * np.eye(data.n_z)
        w_tilde = g @ np.linalg.solve(p, g.T)
        expected = np.linalg.solve(w_tilde, -g @ stage_sum_pattern(n, w))[kept_rows(n, data.n_x)]
        got = data.dual_w
        assert got.shape == expected.shape
        assert np.abs(got - expected).max() <= 1e-9 * (1.0 + np.abs(expected).max())

    def test_v_footprint_independent_of_horizon(self):
        # V lives in the stacked block; apart from the banded factor, W and
        # the bounds, no stored array depends on the horizon
        rng = np.random.default_rng(14)
        model = random_controllable_model(rng, 4, 2)
        footprints = []
        for horizon in (6, 24, 96):
            data = build_problem(model, random_params(rng, 4, 2, horizon))
            # z_s, r and c_pair, on the kept sums, b's odd sum and p's pair sums
            assert data.sums_block.shape == (5 * 6, 5 * 4 + 3 * 6)
            growing = reachable_arrays((data.dual_factor, data.dual_w, data.v_lo, data.v_hi))
            fixed = [a for a in reachable_arrays(data) if not any(a is g for g in growing)]
            footprints.append(sorted((a.shape, a.nbytes) for a in fixed))
        assert footprints[0] == footprints[1] == footprints[2]

    @pytest.mark.parametrize("name, expected", zip(BUNDLED_MODELS, [11, 3, 3]))
    def test_gamma_keeps_only_its_nonzero_bands(self, name, expected):
        # the factor is the Schur complement S's, whose kept blocks couple
        # through -Ls D1^-1 Ls, wider than the core's own coupling Ls
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

    @pytest.mark.parametrize("source, horizon", REDUCTION_CASES)
    def test_schur_complement_matches_dense(self, source, horizon):
        # the factor is that of S = Gamma~_KK - Gamma~_KO Gamma~_OO^-1
        # Gamma~_OK, the odd blocks of the dense core eliminated, within the
        # block-tridiagonal band
        data = model_data(source, horizon)
        gamma = dense_gamma_tilde(data)
        kept = kept_rows(horizon, data.n_x)
        odd = np.setdiff1d(np.arange(data.m_z), kept)
        expected = gamma[np.ix_(kept, kept)] - gamma[np.ix_(kept, odd)] @ np.linalg.solve(
            gamma[np.ix_(odd, odd)], gamma[np.ix_(odd, kept)]
        )
        factor = data.dual_factor
        assert factor.n == len(kept) == (horizon // 2 + horizon + 2 - 2 * (horizon // 2)) * data.n_x
        assert factor.half_bandwidth <= 2 * data.n_x - 1
        lower = factor.to_dense()
        assert np.abs(lower @ lower.T - expected).max() <= 1e-12 * np.abs(expected).max()
        # the core the reduction starts from is the dense one
        columns = _gamma_tilde_columns(data.g, *_split_primal(
            data.p_system.gamma_stage, data.p_system.gamma_ref, data.p_system.coupling, horizon
        )[:2])
        core = _banded_from_block_columns(columns, horizon).to_dense()
        assert np.abs(core - gamma).max() <= 1e-12 * np.abs(gamma).max()


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
        # which carry rho: the odd multiplier reads (p_{o-1}, p_o) through
        # rho blkdiag(Gamma_st^-1, Gamma_st^-1) window D1^-1, and the
        # equilibrium row of the reduced right-hand side reads p_s through
        # rho Gamma_s^-1 (top + bot)
        rng = np.random.default_rng(100 * n_x + 10 * n_u + horizon)
        model = random_controllable_model(rng, n_x, n_u)
        params = random_params(rng, n_x, n_u, horizon)  # Q and R are not diagonal
        data = build_problem(model, params)
        system = data.p_system
        g_st, g_s, m = _split_primal(system.gamma_stage, system.gamma_ref, system.coupling, horizon)
        expected = np.linalg.inv(system.to_dense())
        got = dense_inverse_from_factors(horizon, g_st, g_s, m)
        np.testing.assert_allclose(got, expected, atol=1e-12 * (1.0 + np.abs(expected).max()))
        w, window = n_x + n_u, data.g.window
        d1 = dense_gamma_tilde(data)[n_x : 2 * n_x, n_x : 2 * n_x]
        v2 = params.rho * block_diag(g_st, g_st) @ window
        got = data.odd_block[2 * n_x : 2 * n_x + 2 * w] @ d1
        np.testing.assert_allclose(got, v2, rtol=0.0, atol=1e-12 * np.abs(v2).max())
        equilibrium = params.rho * g_s @ (window[:w] + window[w:])
        t = horizon + 2 - 2 * (horizon // 2)
        got = data.tail_window[t * w :, (t - 1) * n_x :]
        np.testing.assert_allclose(got, equilibrium, rtol=0.0, atol=1e-14 * np.abs(equilibrium).max())

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
            # the blocks of the KKT chain: G's window, the heads' and the
            # tail's windows of the reduced right-hand side, the stacked
            # block, z's pair block and the odd multipliers' block
            blocks = (
                data.g.window, data.head_window, data.tail_window, data.sums_block, data.pair_block, data.odd_block
            )
            assert [blk.shape for blk in blocks] == [
                (2 * 6, 4), (4 * 6, 4), (3 * 6, 2 * 4), (5 * 6, 5 * 4 + 3 * 6), (3 * 4 + 2 * 6, 2 * 6),
                (3 * 4 + 4 * 6, 4),
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
        # the chain binds data's factor arrays and its own buffers: every
        # array of the workspace, and every array its closures close over,
        # either is one of data's arrays or shares no memory with any of
        # them, so no factor is copied and no buffer aliases a factor
        data = bundled_data("double_integrator.json")
        arrays = list(arrays_in(data))
        assert any(a is data.dual_factor.bands for a in arrays)

        def split(work):
            assert [f.name for f in fields(work)] == ["data", "p", "z", "mu", "r", "bind", "solve", "multipliers"]
            assert work.data is data
            bound = (c.cell_contents for f in (work.bind, work.solve, work.multipliers) for c in f.__closure__)
            own = [work.p, work.z, work.mu, work.r, *(a for a in bound if isinstance(a, np.ndarray))]
            # a factor is bound as itself or as a view of it
            factors = [a for a in own if any(a is d or a.base is d for d in arrays)]
            buffers = [a for a in own if not any(a is d or a.base is d for d in arrays)]
            for a in buffers:
                assert not any(np.shares_memory(a, d) for d in arrays)
            return factors, buffers

        factors, buffers = split(KktWorkspace.for_problem(data))
        wanted = [data.head_window, data.tail_window, data.dual_factor.bands, data.sums_block,
                  data.dual_w, data.pair_block, data.odd_block]
        assert all(any(a is f or a.base is f for a in factors) for f in wanted)
        # two workspaces of one data share no buffer
        _, other = split(KktWorkspace.for_problem(data))
        assert not any(np.shares_memory(a, o) for a in buffers for o in other)

    def test_results_land_in_the_workspace(self):
        data = bundled_data("double_integrator.json")
        rng = np.random.default_rng(8)
        p, b = rng.standard_normal(data.n_z), rng.standard_normal(data.m_z)
        b_before = b.copy()
        z_fresh, mu_fresh = solve_kkt_system(data, p, b)
        work = KktWorkspace.for_problem(data)
        z, mu = solve_kkt_system(data, p, b, work=work)
        # mu is rebuilt from the kept blocks' multipliers, which stay in work.mu
        assert z is work.z and not np.shares_memory(mu, work.mu)
        np.testing.assert_array_equal(mu[kept_rows(data.params.N, data.n_x)], work.mu)
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

    @pytest.mark.parametrize("source, horizon", REDUCTION_CASES)
    def test_reduced_chain_against_dense_oracle(self, source, horizon):
        # even and odd horizons, one head or more, on a right-hand side b
        # that is non-zero in every block, the odd ones included: z from
        # work.solve and mu with its odd blocks rebuilt both match the dense
        # saddle-point solve
        data = model_data(source, horizon)
        model, params = data.model, data.params
        nx, nu = model.n_x, model.n_u
        inst = dense_instance(model, params, np.zeros(nx), np.zeros(nx), np.zeros(nu))
        rng = np.random.default_rng(data.m_z)
        work = KktWorkspace.for_problem(data)
        for _ in range(2):
            p = rng.standard_normal(data.n_z)
            b = rng.standard_normal(data.m_z) + np.sign(rng.standard_normal(data.m_z))
            z, mu = solve_kkt_system(data, p, b, work=work)
            z_ref, mu_ref = dense_kkt_solve(inst, p, b)
            assert np.abs(z - z_ref).max() <= 1e-10 * np.abs(z_ref).max()
            assert np.abs(mu - mu_ref).max() <= 1e-10 * np.abs(mu_ref).max()

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
