import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpct_admm import (
    BlockDiagFactor,
    BlockDiagMatrix,
    DimensionMismatch,
    NotPositiveDefinite,
    PredictionSparseMatrix,
    SymBandedMatrix,
    banded_cholesky_factor,
    g_matvec,
    gt_matvec,
)
from mpct_admm.oracle import dense_dynamics

from conftest import random_controllable_model


def random_spd_banded(rng, n, bw, diag_boost=None):
    """Random SPD banded matrix via diagonal dominance."""
    bands = rng.standard_normal((bw + 1, n))
    if diag_boost is None:
        diag_boost = 2.0 * (bw + 1)
    bands[0] = np.abs(bands[0]) + diag_boost
    return SymBandedMatrix(n=n, half_bandwidth=bw, bands=bands)


class TestBandedCholesky:
    def test_identity_factor(self):
        m = SymBandedMatrix(n=5, half_bandwidth=0, bands=np.ones((1, 5)))
        factor = banded_cholesky_factor(m)
        assert np.allclose(factor.bands, 1.0)

    def test_tridiagonal_matches_dense_cholesky(self):
        dense = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
        m = SymBandedMatrix.from_dense(dense)
        assert m.half_bandwidth == 1
        factor = banded_cholesky_factor(m)
        np.testing.assert_allclose(factor.to_dense(), np.linalg.cholesky(dense), atol=1e-14)

    def test_negative_pivot_reports_row(self):
        cases = [
            (np.array([[1.0, -1.0, 1.0]]), 1),
            # tridiagonal: pivot 1 - 2^2 = -3 at row 1
            (np.array([[1.0, 1.0, 1.0], [2.0, 0.5, 0.0]]), 1),
            # tridiagonal: rows 0-1 fine, pivot 1 - 2^2 = -3 at row 2
            (np.array([[4.0, 2.0, 1.0, 1.0], [2.0, 2.0, 0.0, 0.0]]), 2),
        ]
        for bands, row in cases:
            m = SymBandedMatrix(n=bands.shape[1], half_bandwidth=bands.shape[0] - 1, bands=bands)
            with pytest.raises(NotPositiveDefinite) as exc:
                banded_cholesky_factor(m)
            assert exc.value.index == row

    def test_pivot_floor(self):
        # a pivot far below 1e-13 * max diagonal trips the floor, also when the
        # factorization could go on past it or fails only at a later row
        cases = [
            np.array([[1.0, 1e-16]]),
            np.array([[1.0, 1e-16, 1.0], [0.0, 0.0, 0.0]]),
            # the tiny pivot at row 1 makes row 2's pivot 1 - 1e16 < 0
            np.array([[1.0, 1e-16, 1.0], [0.0, 1.0, 0.0]]),
        ]
        for bands in cases:
            m = SymBandedMatrix(n=bands.shape[1], half_bandwidth=bands.shape[0] - 1, bands=bands)
            with pytest.raises(NotPositiveDefinite) as exc:
                banded_cholesky_factor(m)
            assert exc.value.index == 1

    def test_reconstruction_tolerance(self):
        rng = np.random.default_rng(3)
        m = random_spd_banded(rng, 30, 4)
        factor = banded_cholesky_factor(m)
        l = factor.to_dense()
        rel = np.abs(l @ l.T - m.to_dense()).max() / np.abs(m.to_dense()).max()
        assert rel <= 1e-12

    def test_factor_bandwidth_never_grows(self):
        rng = np.random.default_rng(4)
        m = random_spd_banded(rng, 17, 3)
        factor = banded_cholesky_factor(m)
        assert factor.half_bandwidth <= m.half_bandwidth


class TestBandedSolve:
    def test_identity(self):
        factor = banded_cholesky_factor(SymBandedMatrix(n=2, half_bandwidth=0, bands=np.ones((1, 2))))
        np.testing.assert_allclose(factor.solve(np.array([3.0, 4.0])), [3.0, 4.0])

    def test_diagonal(self):
        m = SymBandedMatrix(n=2, half_bandwidth=0, bands=np.array([[4.0, 9.0]]))
        factor = banded_cholesky_factor(m)
        np.testing.assert_allclose(factor.solve(np.array([8.0, 18.0])), [2.0, 2.0])

    def test_random_matches_dense_lu(self):
        rng = np.random.default_rng(12)
        m = random_spd_banded(rng, 12, 3)
        d = rng.standard_normal(12)
        x = banded_cholesky_factor(m).solve(d)
        np.testing.assert_allclose(x, np.linalg.solve(m.to_dense(), d), atol=1e-10)

    def test_dimension_mismatch(self):
        factor = banded_cholesky_factor(SymBandedMatrix(n=2, half_bandwidth=0, bands=np.ones((1, 2))))
        with pytest.raises(DimensionMismatch):
            factor.solve(np.ones(3))

    def test_matrix_rhs(self):
        rng = np.random.default_rng(5)
        m = random_spd_banded(rng, 9, 2)
        d = rng.standard_normal((9, 4))
        x = banded_cholesky_factor(m).solve(d)
        np.testing.assert_allclose(m.to_dense() @ x, d, atol=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=200),
        bw=st.integers(min_value=0, max_value=10),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_solve_matches_dense_property(self, n, bw, seed):
        bw = min(bw, n - 1)
        rng = np.random.default_rng(seed)
        m = random_spd_banded(rng, n, bw)
        d = rng.standard_normal(n)
        x = banded_cholesky_factor(m).solve(d)
        expected = np.linalg.solve(m.to_dense(), d)
        assert np.abs(x - expected).max() <= 1e-9 * (1.0 + np.abs(expected).max())

    def test_residual_contract(self):
        rng = np.random.default_rng(77)
        m = random_spd_banded(rng, 60, 6)
        d = rng.standard_normal(60)
        x = banded_cholesky_factor(m).solve(d)
        assert np.abs(m.to_dense() @ x - d).max() <= 1e-9 * (1.0 + np.abs(d).max())


class TestBlockDiag:
    def test_scalar_blocks(self):
        factored = BlockDiagFactor(BlockDiagMatrix((np.array([[2.0]]), np.array([[3.0]]))))
        np.testing.assert_allclose(factored.solve(np.array([4.0, 9.0])), [2.0, 3.0])

    def test_scaled_identity_blocks(self):
        rho = 0.5
        blocks = tuple(rho * np.eye(k) for k in (2, 3, 1))
        factored = BlockDiagFactor(BlockDiagMatrix(blocks))
        d = np.arange(6.0)
        np.testing.assert_allclose(factored.solve(d), 2.0 * d)

    def test_mixed_blocks_match_dense(self):
        rng = np.random.default_rng(8)
        q = np.array([[2.0, 1.0], [1.0, 2.0]]) + np.eye(2)
        r = np.array([[1.0]]) + 1.0
        mat = BlockDiagMatrix((q, r))
        d = rng.standard_normal(3)
        np.testing.assert_allclose(
            BlockDiagFactor(mat).solve(d),
            np.linalg.solve(mat.to_dense(), d),
            atol=1e-12,
        )

    def test_not_positive_definite_block_and_row(self):
        bad = np.array([[1.0, 0.0], [0.0, -2.0]])
        with pytest.raises(NotPositiveDefinite) as exc:
            BlockDiagFactor(BlockDiagMatrix((np.eye(2), bad)))
        assert exc.value.block == 1
        assert exc.value.index == 1

    def test_repeated_blocks_are_grouped(self):
        blk = np.array([[4.0, 1.0], [1.0, 3.0]])
        factored = BlockDiagFactor(BlockDiagMatrix((blk, blk, blk)))
        assert len(factored._groups) == 1
        rng = np.random.default_rng(0)
        d = rng.standard_normal(6)
        expected = np.concatenate([np.linalg.solve(blk, d[i : i + 2]) for i in range(0, 6, 2)])
        np.testing.assert_allclose(factored.solve(d), expected, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1), n=st.integers(min_value=1, max_value=25))
    def test_size_one_blocks_equal_banded_solve(self, seed, n):
        rng = np.random.default_rng(seed)
        diag = rng.uniform(0.5, 4.0, n)
        d = rng.standard_normal(n)
        banded = banded_cholesky_factor(SymBandedMatrix(n=n, half_bandwidth=0, bands=diag[None, :])).solve(d)
        blocks = tuple(np.array([[v]]) for v in diag)
        np.testing.assert_allclose(BlockDiagFactor(BlockDiagMatrix(blocks)).solve(d), banded, atol=1e-13)

    def test_matrix_rhs(self):
        rng = np.random.default_rng(21)
        blocks = (np.eye(2) * 3.0, np.array([[5.0]]), np.eye(2) * 3.0)
        mat = BlockDiagMatrix(blocks)
        d = rng.standard_normal((5, 3))
        np.testing.assert_allclose(
            BlockDiagFactor(mat).solve(d), np.linalg.solve(mat.to_dense(), d), atol=1e-12
        )


class TestPredictionMatrix:
    def test_zero_maps_to_zero(self):
        g = PredictionSparseMatrix(a=np.eye(2), b=np.ones((2, 1)), horizon=3)
        np.testing.assert_array_equal(g_matvec(g, np.zeros(g.n_cols)), np.zeros(g.n_rows))

    def test_integrator_hand_example(self):
        # scalar integrator, N=2, all-ones input: rows are x0, the two stage
        # couplings and the equilibrium row
        g = PredictionSparseMatrix(a=np.array([[1.0]]), b=np.array([[1.0]]), horizon=2)
        out = g_matvec(g, np.ones(6))
        np.testing.assert_allclose(out, [1.0, 1.0, 1.0, 1.0])

    def test_first_block_row_is_identity(self):
        rng = np.random.default_rng(10)
        g = PredictionSparseMatrix(a=rng.standard_normal((3, 3)), b=rng.standard_normal((3, 2)), horizon=4)
        x = rng.standard_normal(g.n_cols)
        np.testing.assert_array_equal(g_matvec(g, x)[:3], x[:3])

    def test_matches_dense_construction(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            model = random_controllable_model(rng, int(rng.integers(1, 4)), int(rng.integers(1, 3)))
            n = int(rng.integers(2, 6))
            g = PredictionSparseMatrix(a=model.A, b=model.B, horizon=n)
            dense = dense_dynamics(model, n)
            x = rng.standard_normal(g.n_cols)
            assert np.abs(g_matvec(g, x) - dense @ x).max() <= 1e-13 * (1.0 + np.abs(dense @ x).max())
            y = rng.standard_normal(g.n_rows)
            assert np.abs(gt_matvec(g, y) - dense.T @ y).max() <= 1e-13 * (1.0 + np.abs(dense.T @ y).max())

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_adjoint_property(self, seed):
        rng = np.random.default_rng(seed)
        nx, nu, n = int(rng.integers(1, 5)), int(rng.integers(1, 4)), int(rng.integers(1, 7))
        g = PredictionSparseMatrix(a=rng.standard_normal((nx, nx)), b=rng.standard_normal((nx, nu)), horizon=n)
        x = rng.standard_normal(g.n_cols)
        y = rng.standard_normal(g.n_rows)
        lhs = np.dot(g_matvec(g, x), y)
        rhs = np.dot(x, gt_matvec(g, y))
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))

    def test_dimension_mismatch(self):
        g = PredictionSparseMatrix(a=np.eye(2), b=np.ones((2, 1)), horizon=2)
        with pytest.raises(DimensionMismatch):
            g_matvec(g, np.zeros(g.n_cols + 1))
        with pytest.raises(DimensionMismatch):
            gt_matvec(g, np.zeros(g.n_rows - 1))
