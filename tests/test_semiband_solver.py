import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpct_admm import (
    BlockDiagFactor,
    BlockDiagMatrix,
    DimensionMismatch,
    SemiBandedSystem,
    SingularSmallSystem,
    SymBandedMatrix,
    assemble_online,
    banded_cholesky_factor,
    build_problem,
    solve_kkt_system,
    solve_semibanded,
)
from mpct_admm.oracle import dense_dynamics, dense_hessian, dense_instance, dense_kkt_solve

from conftest import random_instance, random_spd

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
        mat = BlockDiagMatrix(blocks)
        gamma_dense = mat.to_dense()
        gamma = BlockDiagFactor(mat)
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
