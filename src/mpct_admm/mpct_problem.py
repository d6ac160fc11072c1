"""MPC-for-tracking transcription and offline precomputation.

Turns a discrete-time model plus cost/horizon parameters into the data the
per-sample solver consumes. The Hessian-plus-penalty matrix splits into a
block-diagonal core plus a rank-``2(n_x+n_u)`` completion that couples every
stage to the artificial reference through the same block ``-diag(Q, R)``;
it is kept as its distinct stage and reference blocks only. Its inverse is
``P^-1 = Lambda - Y M Y'``, with ``Lambda = blkdiag(Gamma_st^-1, ...,
Gamma_s^-1)``, a ``2(n_x+n_u)``-square ``M`` and the stage-sum pattern ``Y
= [[1_N (x) I_w, 0], [0, I_w]]``. So the dual-space matrix is ``W~ = Gamma~
- (G Y) M (G Y)'``: a banded core ``Gamma~ = G Lambda G'`` plus a completion
of the same rank, whose factors ``-G Y`` and ``M (G Y)'`` repeat one block
across the stage couplings. Every constraint row block ``i = 0 .. N+1`` of
the dynamics matrix reads ``E z_i - C z_{i-1}`` with ``C = [A B]``, ``E =
[I 0]``, ``z_{-1} = 0`` and ``z_N = z_{N+1} = (x_s, u_s)``, so the core is
block tridiagonal, and every odd block row ``o = 1, 3, ..`` below ``N`` is
the same. One level of block odd-even reduction eliminates those odd blocks
in closed form: the core is factored as its Schur complement on the kept
blocks, and the completion's Woodbury factor is kept on those rows only,
with the small Woodbury core folded in. The small blocks through which the
KKT chain forms the reduced right-hand side from ``p``, the stacked block
that carries both primal solves' low-rank terms, and the blocks that form
the decision vector's stage pairs with the odd multipliers substituted,
are formed here too, so that the online phase is vector assembly only.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg.blas import dgemm
from scipy.linalg.lapack import dpbtrs, dpotrf, dtbtrs

from .banded_linalg import BandedCholeskyFactor, PredictionSparseMatrix, SymBandedMatrix, banded_cholesky_factor
from .errors import (
    DimensionMismatch,
    EmptyTightenedBox,
    NonFiniteInput,
    NotPositiveDefinite,
    RankDeficientG,
)
from .semiband_solver import StageCoupledSystem, _core_inverse, _split_primal, _spd_inverse

__all__ = [
    "LtiModel",
    "MpctParams",
    "QpVectors",
    "PrecomputedData",
    "build_problem",
    "assemble_online",
    "tightened_bounds",
    "load_problem",
    "problem_from_dict",
    "problem_to_dict",
    "PROBLEM_FORMAT",
]

PROBLEM_FORMAT = "mpct-v1"


def _vector(x, n: int, name: str) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (n,):
        raise DimensionMismatch(f"{name} must have length {n}, got shape {x.shape}")
    return x


def _finite_vector(x, n: int, name: str) -> np.ndarray:
    x = _vector(x, n, name)
    if not np.all(np.isfinite(x)):
        raise NonFiniteInput(f"{name} contains NaN or infinity")
    return x


def _cost_matrix(m, n: int, name: str) -> np.ndarray:
    m = np.atleast_1d(np.asarray(m, dtype=float))
    if m.ndim == 1:
        m = np.diag(m)
    if m.shape != (n, n):
        raise DimensionMismatch(f"{name} must be {n}x{n}, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NonFiniteInput(f"{name} contains NaN or infinity")
    if np.abs(m - m.T).max() > 1e-10 * (1.0 + np.abs(m).max()):
        raise ValueError(f"{name} must be symmetric")
    m = 0.5 * (m + m.T)
    # info is the order of the first leading minor that is not SPD, 0 if none
    info = dpotrf(m, lower=1)[1]
    if info:
        raise NotPositiveDefinite(name, index=info - 1)
    return m


def _whole_number(value, name: str, least: int) -> int:
    """``value`` as an int, or a ValueError unless it is a whole number >= ``least``."""
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        x = float("nan")
    if not (x.is_integer() and x >= least):
        raise ValueError(f"{name} must be a whole number of at least {least}, got {value!r}")
    return int(x)


def _positive_finite(value, name: str) -> float:
    """``value`` as a float, or a ValueError naming ``name`` unless it is positive and finite."""
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    # written so that NaN fails too
    if not 0.0 < x < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return x


@dataclass(frozen=True)
class LtiModel:
    """Discrete-time system ``x(t+1) = A x(t) + B u(t)`` with box bounds.

    Bounds may contain ``+-inf`` entries; finite entries must satisfy
    ``lo < hi`` componentwise.
    """

    A: np.ndarray
    B: np.ndarray
    x_lo: np.ndarray
    x_hi: np.ndarray
    u_lo: np.ndarray
    u_hi: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.A, dtype=float)
        b = np.asarray(self.B, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatch("A must be square")
        if b.ndim != 2 or b.shape[0] != a.shape[0]:
            raise DimensionMismatch("B must have as many rows as A")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise NonFiniteInput("A and B must be finite")
        nx, nu = a.shape[0], b.shape[1]
        x_lo = _vector(self.x_lo, nx, "x_lo")
        x_hi = _vector(self.x_hi, nx, "x_hi")
        u_lo = _vector(self.u_lo, nu, "u_lo")
        u_hi = _vector(self.u_hi, nu, "u_hi")
        if np.any(np.isnan(x_lo)) or np.any(np.isnan(x_hi)) or np.any(np.isnan(u_lo)) or np.any(np.isnan(u_hi)):
            raise NonFiniteInput("bounds must not contain NaN")
        if not (np.all(x_lo < x_hi) and np.all(u_lo < u_hi)):
            raise ValueError("bounds must satisfy lo < hi componentwise")
        for name, val in (("A", a), ("B", b), ("x_lo", x_lo), ("x_hi", x_hi), ("u_lo", u_lo), ("u_hi", u_hi)):
            object.__setattr__(self, name, val)

    @property
    def n_x(self) -> int:
        return self.A.shape[0]

    @property
    def n_u(self) -> int:
        return self.B.shape[1]


@dataclass(frozen=True)
class MpctParams:
    """Cost matrices, horizon and solver parameters of the tracking problem.

    ``Q``/``R`` weigh stage deviation from the artificial reference, ``T``/``S``
    weigh the artificial reference's deviation from the user reference. All
    four must be SPD. ``epsilon`` tightens the artificial-reference box so
    that no constraint is active at the solved equilibrium.
    """

    Q: np.ndarray
    R: np.ndarray
    T: np.ndarray
    S: np.ndarray
    N: int
    epsilon: float = 1e-6
    rho: float = 1.0
    eps_primal: float = 1e-4
    eps_dual: float = 1e-4
    max_iter: int = 4000

    def __post_init__(self):
        q = np.atleast_1d(np.asarray(self.Q, dtype=float))
        nx = q.shape[0]
        r = np.atleast_1d(np.asarray(self.R, dtype=float))
        nu = r.shape[0]
        object.__setattr__(self, "Q", _cost_matrix(self.Q, nx, "Q"))
        object.__setattr__(self, "R", _cost_matrix(self.R, nu, "R"))
        object.__setattr__(self, "T", _cost_matrix(self.T, nx, "T"))
        object.__setattr__(self, "S", _cost_matrix(self.S, nu, "S"))
        object.__setattr__(self, "N", _whole_number(self.N, "horizon N", 2))
        # an infinite penalty leaves no finite core to factor, and an
        # infinite tolerance stops the iteration after one step
        for name in ("epsilon", "rho", "eps_primal", "eps_dual"):
            object.__setattr__(self, name, _positive_finite(getattr(self, name), name))
        object.__setattr__(self, "max_iter", _whole_number(self.max_iter, "max_iter", 1))

    @property
    def n_x(self) -> int:
        return self.Q.shape[0]

    @property
    def n_u(self) -> int:
        return self.R.shape[0]


@dataclass(frozen=True)
class QpVectors:
    """Per-sample QP vectors: linear cost, equality RHS and stacked bounds."""

    q: np.ndarray
    b: np.ndarray
    v_lo: np.ndarray
    v_hi: np.ndarray


def tightened_bounds(model: LtiModel, params: MpctParams) -> tuple[np.ndarray, np.ndarray]:
    """Stacked decision-variable bounds, artificial-reference block tightened.

    Blocks ``(x_lo, u_lo)`` repeat N times, then the last block is tightened
    by epsilon where finite; infinite entries pass through untouched.
    """
    nx, w, n = model.n_x, model.n_x + model.n_u, params.N
    v_lo, v_hi = np.empty((n + 1) * w), np.empty((n + 1) * w)
    eps = params.epsilon
    # x - eps is x + (-eps), exactly
    for v, x, u, shift in ((v_lo, model.x_lo, model.u_lo, eps), (v_hi, model.x_hi, model.u_hi, -eps)):
        blocks = v.reshape(n + 1, w)
        blocks[:, :nx] = x
        blocks[:, nx:] = u
        np.add(blocks[n], shift, out=blocks[n], where=np.isfinite(blocks[n]))
    if np.any(v_lo[n * w :] >= v_hi[n * w :]):
        raise EmptyTightenedBox("epsilon-tightened artificial-reference box is empty")
    return v_lo, v_hi


@dataclass(frozen=True)
class PrecomputedData:
    """Everything the per-iteration solver needs, factored once offline.

    One flat record of the arrays the KKT chain reads. The primal-space
    matrix has the inverse ``P^-1 = Lambda - Y M Y'``, with ``Lambda =
    blkdiag(Gamma_st^-1, ..., Gamma_s^-1)`` and ``Y`` the stage-sum
    pattern, so the dual-space matrix is ``W~ = Gamma~ - (G Y) M (G Y)'``.
    Its core ``Gamma~ = G Lambda G'`` is block tridiagonal, and one level of
    odd-even reduction eliminates its ``h = N // 2`` odd blocks ``1, 3, ..,
    2h-1``; the kept blocks are the ``h`` heads ``0, 2, .., 2h-2`` and the
    ``t = N+2-2h`` tail blocks ``2h .. N+1``, ``(h + t) n_x`` rows in all.
    ``dual_factor`` is the banded Cholesky factor of the Schur complement
    ``S`` of the odd blocks, trimmed to its nonzero bands, and ``dual_w`` the
    kept rows of the dense Woodbury factor ``W = Gamma~^-1 U~ (I + V
    Gamma~^-1 U~)^-1`` (``(h + t) n_x`` by ``2(n_x+n_u)``), with ``U~ = -G
    Y`` and ``V = M (G Y)'``. ``g`` is stored once, by its stage window
    ``g.window`` (``2(n_x+n_u)`` by ``n_x``).

    The KKT chain reads ``p / rho``, so its blocks on ``p``'s side carry
    ``rho``. ``head_window`` (``4(n_x+n_u)`` by ``n_x``) and
    ``tail_window`` (``(t+1)(n_x+n_u)`` by ``t n_x``) give the reduced
    right-hand side ``-(G Lambda p)_K + Gamma~_KO D1^-1 (G Lambda p)_O`` of
    a head from the window ``(p_{2j-2}, .., p_{2j+1})`` and of the tail from
    the last ``t+1`` stages. ``sums_block`` (``(t+3)(n_x+n_u)`` by ``(3+t)
    n_x + (t+1)(n_x+n_u)``) is the stacked block the chain applies to the
    kept blocks' sums of the banded solve's output, ``b``'s odd sum and
    ``p``'s pair sums: it gives ``z``'s tail, the Woodbury step's ``r`` and
    a constant for every stage pair of ``z``. ``pair_block`` (``3 n_x +
    2(n_x+n_u)`` by ``2(n_x+n_u)``) forms the stage pairs ``(z_{2j},
    z_{2j+1})`` from the kept multipliers ``(mu_{2j}, mu_{2j+2})``, from
    ``(p_{2j}, p_{2j+1})`` and from ``b_{2j+1}``, with the odd multiplier
    ``mu_{2j+1}`` substituted, and ``odd_block`` (``3 n_x + 4(n_x+n_u)`` by
    ``n_x``) gives that odd multiplier from ``(mu_{2j}, mu_{2j+2}, p_{2j},
    p_{2j+1}, b_{2j+1}, r)``, to rebuild it off the loop
    (:func:`build_problem` derives them all). None of these blocks grows
    with ``N``. The primal-space matrix itself is not stored:
    :attr:`p_system` forms it from ``params``.

    :func:`build_problem` writes each array in place in its final shape and
    memory order, and none is a view into a larger scratch buffer. The
    banded factor is column-major in LAPACK's upper layout, the order and
    layout ``dpbtrs`` reads fastest; ``dual_w`` is column-major, so it goes
    to ``dgemv`` without a copy. The rest is row-major.

    No factor depends on ``params.eps_primal``, ``eps_dual`` or
    ``max_iter``, which only steer the ADMM loop, so built data may have
    them replaced: ``replace(data, params=replace(data.params, ...))``.
    ``N``, ``rho``, ``epsilon`` and the costs are built into the factors and
    bounds: ``built_with`` keeps the params they were built with (at build
    time the same object as ``params``), and replacing any of them with
    another value raises a ValueError naming it.
    """

    model: LtiModel
    params: MpctParams
    built_with: MpctParams
    g: PredictionSparseMatrix
    v_lo: np.ndarray
    v_hi: np.ndarray
    dual_factor: BandedCholeskyFactor
    dual_w: np.ndarray
    head_window: np.ndarray
    tail_window: np.ndarray
    sums_block: np.ndarray
    pair_block: np.ndarray
    odd_block: np.ndarray
    # always None; read only by perfbench/checks.py:38 and sweep.py:98 (ROADMAP item 1)
    scaling: None = None

    def __post_init__(self):
        if self.params is not self.built_with:
            for name in ("N", "rho", "epsilon", "Q", "R", "T", "S"):
                if not np.array_equal(getattr(self.params, name), getattr(self.built_with, name)):
                    raise ValueError(f"params.{name} differs from the value the data was built with")

    @property
    def n_x(self) -> int:
        return self.model.n_x

    @property
    def n_u(self) -> int:
        return self.model.n_u

    @property
    def p_system(self) -> StageCoupledSystem:
        """The primal-space matrix by its blocks, formed from ``params`` (test helper)."""
        return _primal_blocks(self.params)

    @property
    def n_z(self) -> int:
        return (self.params.N + 1) * (self.n_x + self.n_u)

    @property
    def m_z(self) -> int:
        return (self.params.N + 2) * self.n_x


def _block_diag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``[[a, 0], [0, b]]`` for square ``a`` and ``b``."""
    k = a.shape[0]
    out = np.zeros((k + b.shape[0],) * 2)
    out[:k, :k] = a
    out[k:, k:] = b
    return out


def _primal_blocks(params: MpctParams) -> StageCoupledSystem:
    """The primal-space matrix's blocks: every stage couples to ``(x_s, u_s)`` through ``-diag(Q, R)``."""
    coupling = _block_diag(params.Q, params.R)
    rho_eye = params.rho * np.eye(coupling.shape[0])
    return StageCoupledSystem(
        horizon=params.N,
        coupling=coupling,
        gamma_stage=coupling + rho_eye,
        gamma_ref=_block_diag(params.N * params.Q + params.T, params.N * params.R + params.S) + rho_eye,
    )


def _banded_from_block_columns(columns: np.ndarray, heads: int) -> SymBandedMatrix:
    """The symmetric block-tridiagonal matrix with these block columns, in band storage.

    ``columns`` is ``(2 + t, 2 n_x, n_x)``: the distinct block columns, each
    its diagonal block stacked over its sub-diagonal one. The first is block
    column 0, the second is repeated over block columns ``1 .. heads-1``
    (none when ``heads`` is 1), and the ``t`` tail columns follow one each,
    so the matrix has ``heads + t`` block rows. The last tail column's
    sub-diagonal half lies outside the matrix and must be zero. Only entries
    on or below each diagonal block's diagonal are read.

    Column ``j = i n_x + c`` of the lower-band storage holds entries ``(c +
    k, c)`` of block column ``i``, for ``k = 0 .. bw``: a diagonal read of
    the zero-padded block column, taken for all of them at once by one
    strided view. The bands are written column-major, the order ``dpbtrf``
    reads, and those past the last one that is not all zero are dropped; a
    banded Cholesky factor has no fill outside its input band, so the trim
    is exact.
    """
    kinds, two_nx, nx = columns.shape
    blocks = heads + kinds - 2
    # rows past 2 n_x are zero, so the diagonal reads below run off no block
    padded = np.zeros((kinds, two_nx + nx, nx))
    padded[:, :two_nx] = columns
    s_col, s_row, s_item = padded.strides
    skew = np.ndarray((kinds, nx, two_nx), buffer=padded, strides=(s_col, s_row + s_item, s_row))
    nonzero = skew.any(axis=1)
    # with one head, the repeated column is placed nowhere
    nonzero[1] &= heads > 1
    bw = int(np.flatnonzero(nonzero.any(axis=0))[-1])
    bands = np.empty((bw + 1, blocks * nx), order="F")
    # row j of bands.T is matrix column j; split it into (block column, c)
    stages = bands.T.reshape(blocks, nx, bw + 1)
    skew = skew[:, :, : bw + 1]
    stages[0] = skew[0]
    stages[1:heads] = skew[1]
    stages[heads:] = skew[2:]
    return SymBandedMatrix(n=blocks * nx, half_bandwidth=bw, bands=bands)


def _gamma_tilde_columns(g: PredictionSparseMatrix, g_st: np.ndarray, g_s: np.ndarray) -> np.ndarray:
    """The four distinct block columns of the dual core ``G Lambda G'``, ``(4, 2 n_x, n_x)``.

    ``g_st`` and ``g_s`` are the symmetric ``Gamma_st^-1`` and
    ``Gamma_s^-1``. Row block ``i`` of ``-G z`` is ``[z_{i-1}, z_i]
    g.window``, so with ``top, bot`` the halves of ``g.window``, row block
    ``i`` of the core has the diagonal block ``top' Lambda_{i-1} top + bot'
    Lambda_i bot`` and the sub-diagonal one ``top' Lambda_i bot``, with no
    ``z_{-1}`` for the pin and ``z_s`` through ``top + bot`` for the
    equilibrium row. The columns are the pin's, the one shared by block
    columns ``1 .. N-1``, the handoff's and the equilibrium row's, laid out
    as :func:`_banded_from_block_columns` reads them: the core is
    ``_banded_from_block_columns(columns, N)``.
    """
    w, nx = g.window.shape[0] // 2, g.n_x
    top, bot = g.window[:w], g.window[w:]
    both = top + bot
    st_bot, s_bot = g_st @ bot, g_s @ bot
    top_st_top, bot_st_bot = top.T @ g_st @ top, bot.T @ st_bot
    columns = np.zeros((4, 2 * nx, nx))
    columns[0, :nx] = bot_st_bot
    columns[1, :nx] = top_st_top + bot_st_bot
    columns[2, :nx] = top_st_top + bot.T @ s_bot
    columns[3, :nx] = both.T @ g_s @ both
    columns[:2, nx:] = top.T @ st_bot
    columns[2, nx:] = both.T @ s_bot
    return columns


def build_problem(model: LtiModel, params: MpctParams, scaling: None = None) -> PrecomputedData:
    """Offline phase: transcribe and factor everything the iterations reuse.

    Raises :class:`NotPositiveDefinite` naming the failing cost matrix or
    core block, and :class:`RankDeficientG` when the dual core's odd blocks
    or its Schur complement on the kept blocks cannot be factored because
    the dynamics matrix lost full row rank.
    """
    if model.n_x != params.n_x or model.n_u != params.n_u:
        raise DimensionMismatch("model and params dimensions do not agree")
    # passed only by perfbench/run.py:276-279 and sweep.py:96 (ROADMAP item 1)
    if scaling is not None:
        raise TypeError("build_problem takes no scaling")

    nx, nu, n = model.n_x, model.n_u, params.N
    w, h = nx + nu, n // 2
    t = n + 2 - 2 * h
    kept = h + t

    v_lo, v_hi = tightened_bounds(model, params)

    rho = params.rho
    p_system = _primal_blocks(params)
    g_st, g_s, m = _split_primal(p_system.gamma_stage, p_system.gamma_ref, p_system.coupling, n)
    g = PredictionSparseMatrix(a=model.A, b=model.B, horizon=n)

    # One level of block odd-even reduction of Gamma~ = G Lambda G'. Every
    # odd block o = 1, 3, .., 2h-1 (h = N // 2) has the diagonal block D1
    # and couples to block o-1 through Gamma~[o, o-1] = Ls and to block o+1
    # through Gamma~[o, o+1] = Ls'. Eliminating them leaves the Schur
    # complement S on the kept blocks, the h heads 0, 2, .., 2h-2 and the t
    # = N+2-2h tail blocks 2h .. N+1. S is block tridiagonal: a kept block
    # loses Ls D1^-1 Ls' to its left odd neighbour and Ls' D1^-1 Ls to its
    # right one, and consecutive kept blocks couple through -Ls D1^-1 Ls.
    # The tail keeps Gamma~'s own columns from block 2h on. Row block i of
    # U~ = -G Y (see below) is U0 = -(E, 0) for the pin, U1 = (C - E, 0) for
    # every stage coupling, then the handoff's (C, -E) and the equilibrium
    # row's (0, C - E), with g.window = [C' ; -E'] = [top ; bot]. So every
    # odd row block is U1, and the reduced U~_K - Gamma~_KO D1^-1 U~_O has
    # S's first / repeated / tail pattern: u_red, by kind, with -D1^-1 U1
    # stacked after it for the right factor below
    columns = _gamma_tilde_columns(g, g_st, g_s)
    ls = columns[0, nx:]
    u_rows = np.zeros((4, nx, 2 * w))
    u_rows[0, :, :w] = g.window[w:].T
    np.add(g.window[:w].T, g.window[w:].T, out=u_rows[1, :, :w])
    u_rows[2] = g.window.T
    u_rows[3, :, w:] = u_rows[1, :, :w]
    u1 = u_rows[1]
    try:
        d1_inv = _spd_inverse(columns[1, :nx], "dual core odd block")
        # D1^-1 (Ls', Ls, U1), then (Ls ; Ls') times it: rows Ls give Ls
        # D1^-1 Ls' (from the left), Ls D1^-1 Ls (the coupling) and Ls
        # D1^-1 U1, rows Ls' give Ls' D1^-1 Ls (from the right) and Ls' D1^-1 U1
        d1_ls = d1_inv @ np.concatenate([ls.T, ls, u1], axis=1)
        via = np.concatenate([ls, ls.T]) @ d1_ls
        schur = np.concatenate([columns[:2], columns[4 - t :]])
        schur[:2, :nx] -= via[nx:, nx : 2 * nx]
        schur[1:3, :nx] -= via[:nx, :nx]
        schur[:2, nx:] = -via[:nx, nx : 2 * nx]
        dual_factor = banded_cholesky_factor(_banded_from_block_columns(schur, h))
    except NotPositiveDefinite as exc:
        raise RankDeficientG(
            f"dynamics matrix lost full row rank ({exc.what} pivot failed at row {exc.index})"
        ) from None
    u_red = np.concatenate([u_rows[:2], u_rows[4 - t :], -d1_ls[None, :, 2 * nx :]])
    u_red[:2] -= via[nx:, 2 * nx :]
    u_red[1:3] -= via[:nx, 2 * nx :]
    if h == 1:
        u_red[1] = 0.0

    # P^-1 = Lambda - Y M Y' makes the dual matrix Gamma~ - (G Y) M (G Y)',
    # so U~ = -G Y and V~ = M (G Y)'. X_K = S^-1 U~_red is solved in place,
    # column-major, the order LAPACK reads it in, written through the
    # row-major view of its transpose (info is nonzero only for an illegal
    # argument, which the shapes rule out). The reference columns, the last
    # w, are zero above the last two kept blocks, so the forward sweep L y =
    # U~ leaves those rows zero and runs on the trailing 2 n_x rows alone,
    # through the factor's trailing columns; the backward sweep L' x = y
    # then runs over every row
    u_kept = np.empty((kept * nx, 2 * w), order="F")
    u_cols = u_kept.T.reshape(2 * w, kept, nx)
    u_cols[:, 0] = u_red[0].T
    u_cols[:, 1:h] = u_red[1].T[:, None]
    u_cols[:, h:] = u_red[2 : 2 + t].transpose(2, 0, 1)
    x = u_kept.copy(order="F")
    bands, tail = dual_factor.bands, (kept - 2) * nx
    dpbtrs(bands, x[:, :w], lower=0, overwrite_b=1)
    x[tail:, w:] = dtbtrs(bands[:, tail:], x[tail:, w:], trans="T")[0]
    dtbtrs(bands, x[:, w:], overwrite_b=1)

    # (G Y)' reads the four stage sums of a dual-space vector x = Gamma~^-1
    # y and is -U~', and by the Schur complement -U~' x = -u_red' x_K - U1'
    # D1^-1 sum_o y_o: it reads the kept blocks' sums (block 0, heads 1 ..
    # h-1, each tail block; with one head the heads' slot reads a tail
    # block, which u_red's zero repeated kind drops) and the odd blocks'
    # summed right-hand side, and the odd rows of x are never formed: right_k
    # = -u_red' reads both. So V~ X = M A with A = (G Y)' X = -U~_red' X_K -
    # h U1' D1^-1 U1, U~_red the kept rows u_kept of the solve's right-hand
    # side, the Woodbury core is I + M A, and W_K = X_K core^-1 is one dgemm
    # that writes it column-major
    kept_cols, p_col = (2 + t) * nx, (3 + t) * nx
    right_k = -u_red.reshape(p_col, 2 * w).T
    a = -(u_kept.T @ x) - h * (right_k[:, kept_cols:] @ u1)
    core_inv = _core_inverse(np.eye(2 * w) + m @ a)
    dual_w = dgemm(1.0, x, core_inv)

    # The chain reads p / rho, so its blocks on p's side carry rho. Row block
    # i of -G Lambda p is (p_{i-1}, p_i) v2 between stages (rows as the
    # chain writes them), and the second primal solve's stage i reads the
    # multipliers' window, z_i = (mu_i, mu_{i+1}) gt - rho Gamma_st^-1 p_i +
    # c_st (see below): stage i of G' mu is mu_i E - mu_{i+1} C, so gt = [-E
    # ; C] Gamma_st^-1, whose halves are (Gamma_st^-1 bot)' and (Gamma_st^-1
    # top)' for g.window = [top ; bot]
    halves = g.window.reshape(2, w, nx)
    st_rho = rho * g_st
    v2 = (st_rho @ halves).reshape(2 * w, nx)
    st_halves = g_st @ halves
    gt = st_halves[::-1].transpose(0, 2, 1)

    # The odd multipliers. mu = z1 - W r with z1 = Gamma~^-1 rhs, and X_O =
    # D1^-1 (U1 - Gamma~_OK X_K), so mu_o = (rhs_o - delta - mu_{o-1} Ls' -
    # mu_{o+1} Ls) D1^-1 with delta = U1 core^-1 r, the same for every o.
    # rhs_o = (p_{o-1}, p_o) v2 - b_o, so odd_block maps (mu_{o-1}, mu_{o+1},
    # p_{o-1}, p_o, b_o, r) to mu_o; with D1^-1 symmetric, its rows are
    # those of -D1^-1 (Ls, Ls', -v2', I, U1 core^-1) transposed. mu_o enters
    # z's stage pair (z_{o-1}, z_o) through gt's halves swapped, so one
    # product gives the pair's terms in (mu_{o-1}, mu_{o+1}), (p_{o-1}, p_o),
    # b_o and r, and, on the p rows, v2 D1^-1 Ls' and v2 D1^-1 Ls, which the
    # reduced right-hand side below reads. pair_block adds the pair's own
    # terms: (mu_{2j}, mu_{2j+2}) through gt's halves and (p_{2j}, p_{2j+1})
    # through -rho Gamma_st^-1, on the diagonal blocks of its first 2 n_x
    # and next 2w rows, written through strided views. b_o's part is bound
    # once per b, and r's goes into the stacked block's per-pair constant
    odd_block = np.concatenate(
        [d1_ls[:, nx : 2 * nx].T, d1_ls[:, :nx].T, -(v2 @ d1_inv), d1_inv, (d1_ls[:, 2 * nx :] @ core_inv).T]
    )
    np.negative(odd_block, out=odd_block)
    via_odd = odd_block @ np.concatenate([st_halves[0].T, st_halves[1].T, ls.T, ls], axis=1)
    pair_rows = 3 * nx + 2 * w
    pair_block = via_odd[:pair_rows, : 2 * w].copy()
    item = pair_block.itemsize
    mu_diag = np.ndarray((2, nx, w), buffer=pair_block, strides=((2 * nx + 1) * w * item, 2 * w * item, item))
    p_diag = np.ndarray(
        (2, w, w), buffer=pair_block, offset=4 * nx * w * item, strides=((2 * w + 1) * w * item, 2 * w * item, item)
    )
    mu_diag += gt
    p_diag -= st_rho

    # The reduced right-hand side on the kept blocks, rhs_K - Gamma~_KO D1^-1
    # rhs_O: head j reads rhs_{2j} - rhs_{2j-1} D1^-1 Ls' - rhs_{2j+1} D1^-1
    # Ls, one product with the window (p_{2j-2}, .., p_{2j+1}) of p behind
    # two zero blocks. The tail reads q = (p_{2h-2}, .., p_{N-1}, p_s), the
    # last t+1 stages: its first block reads q_0 .. q_2 as a head would,
    # with rho Gamma_s^-1 in place of rho Gamma_st^-1 for p_s; tail block c
    # is rhs_{2h+c}, (q_{c+1}, q_{c+2}) v2 between stages, and q_t rho
    # Gamma_s^-1 (top + bot) for the equilibrium row
    v2_d1_ls = via_odd[2 * nx : 2 * nx + 2 * w, 2 * w :]
    head_window = np.empty((4 * w, nx))
    np.negative(v2_d1_ls.reshape(2 * w, 2, nx).transpose(1, 0, 2), out=head_window.reshape(2, 2 * w, nx))
    head_window[w : 3 * w] += v2
    s_rho = rho * (g_s @ halves)
    tail_window = np.zeros(((t + 1) * w, t * nx))
    tail_window[: 2 * w, :nx] = head_window[: 2 * w]
    by_stage = tail_window.reshape(t + 1, w, t, nx)
    if t == 3:
        by_stage[2, :, 0] = v2[w:]
        by_stage[2, :, 1] = v2[:w]
    by_stage[t, :, t - 2] = s_rho[1]
    np.add(s_rho[0], s_rho[1], out=by_stage[t, :, t - 1])

    # The stacked block acts on sigma = (kept sums of z1, sum_o b_o, sum_j
    # (p_{2j}, p_{2j+1}), the live part of the last pair) with p read as p /
    # rho: the last pair is (p_s, 0) for even N and (p_{N-1}, p_s) for odd
    # N. It gives z's tail, r and the per-pair constant c_pair at once, as
    # left @ right. The right factor (G Y)' z1 + rho Y' p reads sigma
    # through right = [right_k, right_p]: (G Y)' z1 is right_k on the kept
    # sums and on sum_o rhs_o = (sum_j (p_{2j}, p_{2j+1})) v2 - sum_o b_o,
    # so right_p is -right_k's last n_x columns times v2' on the pair sums,
    # plus rho I on every stage block of sigma's p part but p_s in the
    # stage half and on p_s in the reference half. The left factor's rows
    # are those of M for r, of C = h (I - A core^-1 M) for c, and of
    # (C_st, C_st) plus delta's per-pair term for c_pair: r = M right is
    # the Woodbury step's, and c = C right, with h = M - blkdiag(0,
    # Gamma_s^-1) and I - A core^-1 M = (I + A M)^-1 by the push-through
    # identity, is the second primal solve's c = h Y' (G' mu + p): z_i =
    # (mu_i, mu_{i+1}) gt - rho Gamma_st^-1 p_i + c_st and z_s = c_ref.
    # So left @ right_p is rho times left's stage half, once per stage
    # block, and its reference half, less (left @ right_k) v2' on the pair
    # sums
    h_m = m.copy()
    h_m[w:, w:] -= g_s
    c = h_m - h_m @ a @ (core_inv @ m)
    c_pair = (via_odd[pair_rows:, : 2 * w].T @ m).reshape(2, w, 2 * w) + c[:w]
    rows = [c[w:], m, c_pair.reshape(2 * w, 2 * w)]
    if t == 3:
        # z_{N-1} = (mu_{N-1}, mu_N) gt - rho Gamma_st^-1 p_{N-1} + c_st, on
        # the kept multipliers (z1 - W r) of the first two tail blocks
        gt_t = gt.transpose(2, 0, 1).reshape(w, 2 * nx)
        rows.insert(0, c[:w] - gt_t @ dual_w[h * nx : (h + 2) * nx] @ m)
    left = np.concatenate(rows)
    on_k = left @ right_k
    rho_left = rho * left
    on_p = np.concatenate([rho_left[:, :w]] * t + [rho_left[:, w:]], axis=1)
    on_p[:, : 2 * w] -= on_k[:, kept_cols:] @ v2.T
    sums_block = np.concatenate([on_k, on_p], axis=1)
    if t == 3:
        sums_block[:w, 2 * nx : 4 * nx] += gt_t
        sums_block[:w, p_col + 2 * w : p_col + 3 * w] -= st_rho

    return PrecomputedData(
        model=model,
        params=params,
        built_with=params,
        g=g,
        v_lo=v_lo,
        v_hi=v_hi,
        dual_factor=dual_factor,
        dual_w=dual_w,
        head_window=head_window,
        tail_window=tail_window,
        sums_block=sums_block,
        pair_block=pair_block,
        odd_block=odd_block,
    )


def assemble_online(
    data: PrecomputedData,
    x_t: np.ndarray,
    x_r: np.ndarray,
    u_r: np.ndarray,
) -> QpVectors:
    """Per-sample vector assembly; O(n_z) and factorization-free.

    ``q`` is zero except its last block, which is ``(-T x_r, -S u_r)``; ``b``
    is zero except its first block, which pins the current state.
    """
    nx, nu = data.n_x, data.n_u
    x_t = _finite_vector(x_t, nx, "x_t")
    x_r = _finite_vector(x_r, nx, "x_r")
    u_r = _finite_vector(u_r, nu, "u_r")
    q = np.zeros(data.n_z)
    q[data.n_z - nx - nu : data.n_z - nu] = -(data.params.T @ x_r)
    q[data.n_z - nu :] = -(data.params.S @ u_r)
    b = np.zeros(data.m_z)
    b[:nx] = x_t
    return QpVectors(q=q, b=b, v_lo=data.v_lo, v_hi=data.v_hi)


# --- problem-definition file format ("mpct-v1") -----------------------------

_INF_TOKENS = {"inf": np.inf, "+inf": np.inf, "-inf": -np.inf}
# the optional params entries, each a field of MpctParams with a default
_SETTINGS = ("epsilon", "rho", "eps_primal", "eps_dual", "max_iter")


def _real(value) -> float:
    """A JSON number as a float: a boolean or a string is not one, whatever it spells."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {type(value).__name__} {value!r}")
    return float(value)


def _bound_entry(value) -> float:
    if isinstance(value, str):
        token = value.strip().lower()
        if token in _INF_TOKENS:
            return _INF_TOKENS[token]
        raise ValueError(f"unrecognized bound token {value!r}")
    return _real(value)


def _encode_bound(value: float):
    if np.isposinf(value):
        return "inf"
    if np.isneginf(value):
        return "-inf"
    return float(value)


def _parse(where: str, convert, obj, key: str):
    """``convert(obj[key])``, or a ValueError naming ``where`` if the key is missing or mistyped."""
    if key not in obj:
        raise ValueError(f"missing {where}")
    try:
        return convert(obj[key])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{where}: {exc}") from None


def _known_keys(obj: dict, where: str, keys: tuple[str, ...]) -> None:
    """Raise a ValueError naming the first key of ``obj`` outside ``keys``, prefixed by ``where``."""
    for key in obj:
        if key not in keys:
            raise ValueError(f"unknown key {where}{key}; expected one of {', '.join(keys)}")


def _section(obj, key: str) -> dict:
    if key not in obj:
        raise ValueError(f"missing {key}")
    value = obj[key]
    if not isinstance(value, dict):
        raise ValueError(f"{key!r} must be a JSON object, got {type(value).__name__}")
    return value


def _reals(value):
    """``value``, a number or nested lists of them, with every number checked by :func:`_real`."""
    return [_reals(v) for v in value] if isinstance(value, list) else _real(value)


def _matrix(value) -> np.ndarray:
    return np.asarray(_reals(value), dtype=float)


def _bounds(values) -> list[float]:
    return [_bound_entry(v) for v in values]


def problem_from_dict(obj: dict) -> tuple[LtiModel, MpctParams]:
    """Parse the versioned problem-definition mapping.

    A missing field, one of the wrong type or an unknown key, at the top
    level or in ``model`` or ``params``, raises a ValueError that names it,
    such as ``missing model.A`` or ``unknown key params.max_iters``. Numeric
    fields take JSON numbers only, not booleans or strings such as ``"12"``;
    a bound entry may also be one of the tokens ``"inf"``, ``"+inf"`` and
    ``"-inf"``.
    """
    if not isinstance(obj, dict) or obj.get("format") != PROBLEM_FORMAT:
        raise ValueError(f'problem file must declare "format": "{PROBLEM_FORMAT}"')
    _known_keys(obj, "", ("format", "description", "model", "params"))
    mdl = _section(obj, "model")
    _known_keys(mdl, "model.", ("A", "B", "x_lo", "x_hi", "u_lo", "u_hi"))
    prm = _section(obj, "params")
    _known_keys(prm, "params.", ("Q", "R", "T", "S", "N", *_SETTINGS))
    model = LtiModel(
        A=_parse("model.A", _matrix, mdl, "A"),
        B=_parse("model.B", _matrix, mdl, "B"),
        x_lo=_parse("model.x_lo", _bounds, mdl, "x_lo"),
        x_hi=_parse("model.x_hi", _bounds, mdl, "x_hi"),
        u_lo=_parse("model.u_lo", _bounds, mdl, "u_lo"),
        u_hi=_parse("model.u_hi", _bounds, mdl, "u_hi"),
    )
    scalars = {
        key: _parse(f"params.{key}", _real, prm, key)
        for key in _SETTINGS
        if key in prm
    }
    params = MpctParams(
        Q=_parse("params.Q", _matrix, prm, "Q"),
        R=_parse("params.R", _matrix, prm, "R"),
        T=_parse("params.T", _matrix, prm, "T"),
        S=_parse("params.S", _matrix, prm, "S"),
        N=_parse("params.N", _real, prm, "N"),
        **scalars,
    )
    return model, params


def load_problem(path) -> tuple[LtiModel, MpctParams]:
    with open(Path(path), "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    return problem_from_dict(obj)


def problem_to_dict(
    model: LtiModel,
    params: MpctParams,
    description: str | None = None,
) -> dict:
    obj = {
        "format": PROBLEM_FORMAT,
        "model": {
            "A": model.A.tolist(),
            "B": model.B.tolist(),
            "x_lo": [_encode_bound(v) for v in model.x_lo],
            "x_hi": [_encode_bound(v) for v in model.x_hi],
            "u_lo": [_encode_bound(v) for v in model.u_lo],
            "u_hi": [_encode_bound(v) for v in model.u_hi],
        },
        "params": {
            "Q": params.Q.tolist(),
            "R": params.R.tolist(),
            "T": params.T.tolist(),
            "S": params.S.tolist(),
            "N": params.N,
            "epsilon": params.epsilon,
            "rho": params.rho,
            "eps_primal": params.eps_primal,
            "eps_dual": params.eps_dual,
            "max_iter": params.max_iter,
        },
    }
    if description:
        obj["description"] = description
    return obj
