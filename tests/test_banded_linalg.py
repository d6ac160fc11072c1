from contextlib import suppress
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag, cho_factor, cho_solve, cho_solve_banded, lu_factor, lu_solve

from mpct_admm import (
    DimensionMismatch,
    NotPositiveDefinite,
    PredictionSparseMatrix,
    RankDeficientG,
    SymBandedMatrix,
    banded_cholesky_factor,
    build_problem,
    load_problem,
)
from mpct_admm import mpct_problem
from mpct_admm.oracle import dense_dynamics
from mpct_admm.semiband_solver import _fold_core, _spd_inverse

from conftest import random_controllable_model


def random_spd_banded(rng, n, bw):
    """Random SPD banded matrix via strict diagonal dominance.

    Each diagonal entry exceeds by at least 1 the sum of the absolute
    off-diagonal entries in its row of the symmetric matrix, so every
    eigenvalue is at least 1 (Gershgorin). One ``(bw + 1, n)`` normal draw.
    """
    bands = rng.standard_normal((bw + 1, n))
    row_sums = np.zeros(n)
    for k in range(1, bw + 1):
        # entry (j + k, j) sits in rows j and j + k; slots past row n - 1 are unused
        off = np.abs(bands[k, : n - k])
        row_sums[: n - k] += off
        row_sums[k:] += off
    bands[0] = np.abs(bands[0]) + row_sums + 1.0
    return SymBandedMatrix(n=n, half_bandwidth=bw, bands=bands)


class TestBandedCholesky:
    def test_identity_factor(self):
        m = SymBandedMatrix(n=5, half_bandwidth=0, bands=np.ones((1, 5)))
        factor = banded_cholesky_factor(m)
        assert np.allclose(factor.bands, 1.0)

    def test_tridiagonal_matches_dense_cholesky(self):
        dense = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
        m = SymBandedMatrix.from_dense(dense, 1)
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


class TestRandomSpdBanded:
    # (198, 1, 1412) is a draw on which a generator without row dominance
    # gave a smallest eigenvalue of -0.08
    @pytest.mark.parametrize(
        "n, bw, seed",
        [(198, 1, 1412), (1, 0, 0), (2, 1, 3), (12, 3, 12), (60, 6, 77), (11, 10, 5), (200, 10, 2**31 - 1)],
    )
    def test_is_positive_definite(self, n, bw, seed):
        m = random_spd_banded(np.random.default_rng(seed), n, bw)
        assert np.linalg.eigvalsh(m.to_dense()).min() > 0.0

    def test_rows_strictly_dominant_over_many_draws(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            n = int(rng.integers(1, 201))
            bw = min(int(rng.integers(0, 11)), n - 1)
            dense = random_spd_banded(np.random.default_rng(int(rng.integers(2**31))), n, bw).to_dense()
            off = np.abs(dense).sum(axis=1) - np.abs(np.diag(dense))
            assert np.all(np.diag(dense) > off)


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

    def test_factor_is_column_major(self):
        # dpbtrs reads the bands column-major; a row-major factor is copied on every solve
        rng = np.random.default_rng(6)
        m = random_spd_banded(rng, 40, 4)
        factor = banded_cholesky_factor(m)
        assert factor.bands.flags["F_CONTIGUOUS"]
        row_major = np.ascontiguousarray(factor.bands)
        assert row_major.flags["C_CONTIGUOUS"] and not row_major.flags["F_CONTIGUOUS"]
        for d in (rng.standard_normal(40), rng.standard_normal((40, 3))):
            expected = cho_solve_banded((row_major, True), d, check_finite=False)
            np.testing.assert_array_equal(factor.solve(d), expected)

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


class TestPredictionMatrix:
    def test_zero_maps_to_zero(self):
        g = PredictionSparseMatrix(a=np.eye(2), b=np.ones((2, 1)), horizon=3)
        dense = g.to_dense()
        assert dense.shape == (5 * 2, 4 * 3)
        np.testing.assert_array_equal(dense @ np.zeros(dense.shape[1]), np.zeros(dense.shape[0]))

    def test_integrator_hand_example(self):
        # scalar integrator, N=2: rows are x0, the two stage couplings and
        # the equilibrium row, over columns (x0, u0, x1, u1, xs, us)
        g = PredictionSparseMatrix(a=np.array([[1.0]]), b=np.array([[1.0]]), horizon=2)
        expected = [
            [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [1.0, 1.0, -1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 1.0, -1.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
        ]
        np.testing.assert_array_equal(g.to_dense(), expected)
        np.testing.assert_array_equal(g.to_dense() @ np.ones(6), [1.0, 1.0, 1.0, 1.0])

    def test_first_block_row_is_identity(self):
        rng = np.random.default_rng(10)
        g = PredictionSparseMatrix(a=rng.standard_normal((3, 3)), b=rng.standard_normal((3, 2)), horizon=4)
        dense = g.to_dense()
        np.testing.assert_array_equal(dense[:3, :3], np.eye(3))
        np.testing.assert_array_equal(dense[:3, 3:], 0.0)

    def test_matches_dense_construction(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            model = random_controllable_model(rng, int(rng.integers(1, 4)), int(rng.integers(1, 3)))
            n = int(rng.integers(2, 6))
            g = PredictionSparseMatrix(a=model.A, b=model.B, horizon=n)
            np.testing.assert_array_equal(g.to_dense(), dense_dynamics(model, n))

    @pytest.mark.parametrize("name", ["double_integrator.json", "mass_spring.json", "ball_plate_like.json"])
    def test_solver_window_matches_dense_on_bundled_models(self, name):
        # data.g is the matrix the KKT chain applies; ball_plate_like is
        # scaled, so data.model is the scaled model
        data = build_problem(*load_problem(resources.files("mpct_admm") / "models" / name))
        np.testing.assert_array_equal(data.g.to_dense(), dense_dynamics(data.model, data.params.N))


class TestLapackCallsMatchScipy:
    """The kernels call LAPACK directly; they must equal, bit for bit, the
    scipy helpers they replaced."""

    @pytest.mark.parametrize("n, bw", [(1, 0), (7, 0), (12, 3), (60, 6), (250, 17)])
    def test_banded_solve_equals_cho_solve_banded(self, n, bw):
        rng = np.random.default_rng(n + bw)
        factor = banded_cholesky_factor(random_spd_banded(rng, n, bw))
        for d in (rng.standard_normal(n), rng.standard_normal((n, 3))):
            expected = cho_solve_banded((factor.bands, True), d, check_finite=False)
            np.testing.assert_array_equal(factor.solve(d), expected)

    @pytest.mark.parametrize("block", [1, 2, 10, "stage", "reference"])
    def test_spd_inverse_equals_cho_solve(self, block):
        if isinstance(block, int):
            a = np.random.default_rng(block).standard_normal((block, block))
            m = a @ a.T + block * np.eye(block)
        else:
            # the two SPD core blocks the bundled 8-state model inverts
            path = resources.files("mpct_admm") / "models" / "ball_plate_like.json"
            p_system = build_problem(*load_problem(path)).p_system
            m = p_system.gamma_stage if block == "stage" else p_system.gamma_ref
        inv = cho_solve(cho_factor(m, lower=True), np.eye(m.shape[0]))
        np.testing.assert_array_equal(_spd_inverse(m, "block"), 0.5 * (inv + inv.T))

    @pytest.mark.parametrize("w, n", [(1, 4), (2, 9), (10, 33)])
    def test_fold_core_equals_lu_solve(self, w, n):
        rng = np.random.default_rng(w + n)
        core = rng.standard_normal((2 * w, 2 * w)) + 2 * w * np.eye(2 * w)
        u = rng.standard_normal((n, 2 * w))
        expected = lu_solve(lu_factor(core), u.T, trans=1).T
        np.testing.assert_array_equal(_fold_core(u, core), expected)


def dense_from_block_columns(columns, horizon):
    """The symmetric block-tridiagonal matrix, assembled entry by entry.

    Block column ``i`` is ``columns[0]`` for ``i = 0``, ``columns[1]`` for
    ``i = 1 .. horizon - 1``, ``columns[2]`` for ``horizon`` and
    ``columns[3]`` for ``horizon + 1``; only entries on or below each
    diagonal block's diagonal are read.
    """
    _, two_nx, nx = columns.shape
    m = (horizon + 2) * nx
    dense = np.zeros((m, m))
    for i in range(horizon + 2):
        column = columns[0 if i == 0 else 1 if i < horizon else i - horizon + 2]
        for r in range(two_nx):
            for c in range(min(r + 1, nx)):
                row, col = i * nx + r, i * nx + c
                if row < m:
                    dense[row, col] = dense[col, row] = column[r, c]
    return dense


def assert_placed_exactly(columns, horizon, placed):
    """``placed`` holds the dense assembly's bands up to its last nonzero one, bit for bit."""
    nx = columns.shape[2]
    expected = SymBandedMatrix.from_dense(dense_from_block_columns(columns, horizon), 2 * nx - 1)
    last = max(k for k in range(2 * nx) if expected.bands[k].any())
    assert placed.half_bandwidth == last
    assert placed.bands.flags["F_CONTIGUOUS"]
    np.testing.assert_array_equal(placed.bands, expected.bands[: last + 1])


class TestLayoutsMatchReference:
    """The offline build writes blocks straight into their final arrays; the
    layouts must equal, bit for bit, a generic assembly of the same blocks."""

    @pytest.mark.parametrize("na, nb", [(1, 1), (3, 5), (8, 2)])
    def test_block_diag_equals_scipy(self, na, nb):
        rng = np.random.default_rng(10 * na + nb)
        a, b = rng.standard_normal((na, na)), rng.standard_normal((nb, nb))
        a[0, 0] = -0.0
        expected = block_diag(a, b)
        got = mpct_problem._block_diag(a, b)
        assert got.shape == expected.shape and got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name", ["double_integrator.json", "mass_spring.json", "ball_plate_like.json"])
    @pytest.mark.parametrize("horizon", [2, 30])
    def test_band_placement_on_bundled_models(self, name, horizon, monkeypatch):
        # the placement the build makes, on the block columns the build forms
        place = mpct_problem._banded_from_block_columns
        seen = []

        def spy(columns, h):
            seen.append((columns, h, place(columns, h)))
            return seen[-1][2]

        monkeypatch.setattr(mpct_problem, "_banded_from_block_columns", spy)
        model, params, scaling = load_problem(resources.files("mpct_admm") / "models" / name)
        # ball-plate cannot reach an equilibrium in 2 steps, so its build
        # stops at the factorization, after the placement
        with suppress(RankDeficientG):
            build_problem(model, replace(params, N=horizon), scaling)
        [(columns, h, placed)] = seen
        assert h == horizon
        assert_placed_exactly(columns, horizon, placed)

    @pytest.mark.parametrize("seed", range(12))
    def test_band_placement_on_random_columns(self, seed):
        rng = np.random.default_rng(seed)
        nx, horizon = int(rng.integers(1, 5)), int(rng.integers(2, 6))
        columns = rng.standard_normal((4, 2 * nx, nx)) * (rng.random((4, 2 * nx, nx)) < 0.6)
        # the equilibrium column's sub-diagonal half lies outside the matrix
        columns[3, nx:] = 0.0
        # and a diagonal without zeros, so that no row of the matrix is empty
        columns[:, np.arange(nx), np.arange(nx)] = 1.0 + rng.random((4, nx))
        if seed % 3 == 0:
            # bands that vanish past the diagonal blocks, to exercise the trim
            columns[:, nx:] = 0.0
        assert_placed_exactly(columns, horizon, mpct_problem._banded_from_block_columns(columns, horizon))
