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
across the stage couplings. Both are factored here, with their small
Woodbury cores folded in. Every constraint row block ``i = 0 .. N+1`` of
the dynamics matrix reads ``E z_i - C z_{i-1}`` with ``C = [A B]``, ``E =
[I 0]``, ``z_{-1} = 0`` and ``z_N = z_{N+1} = (x_s, u_s)``. The small
blocks through which the KKT chain applies that matrix and its transpose on
stage windows, and the stacked block that carries both primal solves'
low-rank terms, are formed here too, so that the online phase is vector
assembly only.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.linalg.lapack import dpotrf

from .banded_linalg import BandedCholeskyFactor, PredictionSparseMatrix, SymBandedMatrix, banded_cholesky_factor
from .errors import (
    DimensionMismatch,
    EmptyTightenedBox,
    NonFiniteInput,
    NotPositiveDefinite,
    RankDeficientG,
)
from .semiband_solver import StageCoupledSystem, _fold_core, _split_primal, stage_sums

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
    ``dual_factor`` is the banded Cholesky factor of its core ``Gamma~ = G
    Lambda G'``, trimmed to the core's nonzero bands, and ``dual_w`` the
    dense Woodbury factor ``W = Gamma~^-1 U~ (I + V Gamma~^-1 U~)^-1``
    (``(N+2) n_x`` by ``2(n_x+n_u)``), with ``U~ = -G Y`` and ``V = M (G
    Y)'``. ``g`` is stored once, by its stage window ``g.window``
    (``2(n_x+n_u)`` by ``n_x``), the block through which the KKT chain
    applies ``G``.

    The KKT chain reads ``p / rho``, so its blocks on ``p``'s side carry
    ``rho``: ``stage_inv`` is ``rho Gamma_st^-1`` (``n_x+n_u`` square) and
    ``end_window`` (``2(n_x+n_u)`` by ``2n_x``) gives the last two row
    blocks of ``-G Lambda p`` from ``(p_{N-1}, p_s)``. ``sums_block``
    (``4(n_x+n_u)`` by ``4n_x+2(n_x+n_u)``) is the stacked block the chain
    applies to the stage sums of the banded solve's output and of ``p``:
    its upper half is ``[V's four distinct column blocks, rho M]``, and its
    lower half folds the ``G'`` product into the second primal solve;
    ``gt_window`` (``2n_x`` by ``n_x+n_u``) is that solve's stage window
    (:func:`build_problem` derives both). None of these blocks grows with
    ``N``. The primal-space matrix itself is not stored:
    :attr:`p_system` forms its blocks from ``params`` on each access.

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
    stage_inv: np.ndarray
    end_window: np.ndarray
    sums_block: np.ndarray
    gt_window: np.ndarray
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


def _banded_from_block_columns(columns: np.ndarray, horizon: int) -> SymBandedMatrix:
    """The symmetric block-tridiagonal matrix with these block columns, in band storage.

    ``columns`` is ``(4, 2 n_x, n_x)``: the distinct block columns, each
    its diagonal block stacked over its sub-diagonal one, for the pin
    (block column 0), the stage couplings (``1 .. N-1``, one shared block),
    the handoff (``N``) and the equilibrium row (``N+1``, whose
    sub-diagonal half lies outside the matrix and must be zero). Only
    entries on or below each diagonal block's diagonal are read.

    Column ``j = i n_x + c`` of the lower-band storage holds entries ``(c +
    k, c)`` of block column ``i``, for ``k = 0 .. bw``: a diagonal read of
    the zero-padded block column, taken for all four at once by one strided
    view. The bands are written column-major, the order ``dpbtrf`` reads,
    and those past the last one that is not all zero are dropped; a banded
    Cholesky factor has no fill outside its input band, so the trim is
    exact.
    """
    _, two_nx, nx = columns.shape
    m_z = (horizon + 2) * nx
    # rows past 2 n_x are zero, so the diagonal reads below run off no block
    padded = np.zeros((4, two_nx + nx, nx))
    padded[:, :two_nx] = columns
    s_col, s_row, s_item = padded.strides
    skew = as_strided(padded, (4, nx, two_nx), (s_col, s_row + s_item, s_row), writeable=False)
    bw = int(np.flatnonzero(skew.any(axis=(0, 1)))[-1])
    bands = np.empty((bw + 1, m_z), order="F")
    # row j of bands.T is matrix column j; split it into (block column, c)
    stages = bands.T.reshape(horizon + 2, nx, bw + 1)
    for dst, src in zip((0, slice(1, horizon), horizon, horizon + 1), skew[:, :, : bw + 1]):
        stages[dst] = src
    return SymBandedMatrix(n=m_z, half_bandwidth=bw, bands=bands)


def _gamma_tilde_banded(g: PredictionSparseMatrix, g_st: np.ndarray, g_s: np.ndarray) -> SymBandedMatrix:
    """Banded core ``G Lambda G'`` of the dual-space matrix, from its four distinct block columns.

    ``g_st`` and ``g_s`` are the symmetric ``Gamma_st^-1`` and
    ``Gamma_s^-1``. Row block ``i`` of ``-G z`` is ``[z_{i-1}, z_i]
    g.window``, so with ``top, bot`` the halves of ``g.window``, row block
    ``i`` of the core has the diagonal block ``top' Lambda_{i-1} top + bot'
    Lambda_i bot`` and the sub-diagonal one ``top' Lambda_i bot``, with no
    ``z_{-1}`` for the pin and ``z_s`` through ``top + bot`` for the
    equilibrium row; block columns ``1 .. N-1`` are one shared column. See
    :func:`_banded_from_block_columns` for the placement and the trim.
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
    return _banded_from_block_columns(columns, g.horizon)


def build_problem(model: LtiModel, params: MpctParams, scaling: None = None) -> PrecomputedData:
    """Offline phase: transcribe and factor everything the iterations reuse.

    Raises :class:`NotPositiveDefinite` naming the failing cost matrix or
    core block, and :class:`RankDeficientG` when the banded dual core cannot
    be factored because the dynamics matrix lost full row rank.
    """
    if model.n_x != params.n_x or model.n_u != params.n_u:
        raise DimensionMismatch("model and params dimensions do not agree")
    # passed only by perfbench/run.py:276-279 and sweep.py:96 (ROADMAP item 1)
    if scaling is not None:
        raise TypeError("build_problem takes no scaling")

    nx, nu, n = model.n_x, model.n_u, params.N
    w, m_z = nx + nu, (n + 2) * nx

    v_lo, v_hi = tightened_bounds(model, params)

    rho = params.rho
    p_system = _primal_blocks(params)
    g_st, g_s, m = _split_primal(p_system.gamma_stage, p_system.gamma_ref, p_system.coupling, n)

    g = PredictionSparseMatrix(a=model.A, b=model.B, horizon=n)
    try:
        gamma_tilde_factor = banded_cholesky_factor(_gamma_tilde_banded(g, g_st, g_s))
    except NotPositiveDefinite as exc:
        raise RankDeficientG(
            f"dynamics matrix lost full row rank (dual core pivot failed at row {exc.index})"
        ) from None

    # P^-1 = Lambda - Y M Y' makes the dual matrix Gamma~ - (G Y) M (G Y)',
    # so U~ = -G Y and V~ = M S with S = (G Y)'. Row block i of U~ is minus
    # column block i of S, transposed, one block repeated over the stage
    # couplings; U~ is written column-major, the order dpbtrs reads it in.
    # V~ is applied as M S, the left of the stacked block's upper half [M S, rho M]
    s = g.stage_sum_block()
    u_tilde = np.empty((m_z, 2 * w), order="F")
    s_rows = s.T.reshape(4, nx, 2 * w)
    np.negative(np.repeat(s_rows, (1, n - 1, 1, 1), axis=0), out=u_tilde.reshape(n + 2, nx, 2 * w))
    sums_block = np.empty((4 * w, 4 * nx + 2 * w))
    upper = sums_block[: 2 * w]
    np.matmul(m, s, out=upper[:, : 4 * nx])
    np.multiply(m, rho, out=upper[:, 4 * nx :])
    gamma_inv_u = gamma_tilde_factor.solve(u_tilde)
    dual_w = _fold_core(gamma_inv_u, np.eye(2 * w) + upper[:, : 4 * nx] @ stage_sums(gamma_inv_u, n))

    # The upper half, on the stage sums (t, Y' p / rho) with t those of z1,
    # gives the Woodbury step's r = V z1 + M Y' p (see _solve_kkt). The
    # second primal solve z = -P^-1 (G' mu + p) is z_i = [mu_i, mu_{i+1}]
    # gt_window - Gamma_st^-1 p_i + c[:w] and z_s = c[w:], with c = h Y' (G'
    # mu + p) and h = M - blkdiag(0, Gamma_s^-1): stage i of G' mu is mu_i E
    # - mu_{i+1} C, so gt_window = [-E ; C] Gamma_st^-1. Y' G' mu = S (mu_0,
    # mu_1 + .. + mu_{N-1}, mu_N, mu_{N+1}) reads the stage sums of mu = z1 -
    # W r, t - T(W) r with T(W) those of W's rows, so c is the lower half h
    # ([S, rho I] - S T(W) [M S, rho M]) on the same stage sums
    h = m.copy()
    h[w:, w:] -= g_s
    right = -(s @ (stage_sums(dual_w, n) @ upper))
    right[:, : 4 * nx] += s
    right[:, 4 * nx :] += rho * np.eye(2 * w)
    np.dot(h, right, out=sums_block[2 * w :])
    gt_window = np.vstack([g.window[w:].T, g.window[:w].T]) @ g_st

    # the chain's p-side blocks carry rho, since it reads p / rho. Rows N and
    # N+1 of -G Lambda p are [Gamma_st^-1 p_{N-1}, Gamma_s^-1 p_s] g.window
    # and [Gamma_s^-1 p_s, Gamma_s^-1 p_s] g.window
    stage_inv = rho * g_st
    ends = np.zeros((2 * w, 2 * nx))
    ends[:, :nx] = g.window
    np.add(g.window[:w], g.window[w:], out=ends[w:, nx:])
    end_window = _block_diag(stage_inv, rho * g_s) @ ends

    return PrecomputedData(
        model=model,
        params=params,
        built_with=params,
        g=g,
        v_lo=v_lo,
        v_hi=v_hi,
        dual_factor=gamma_tilde_factor,
        dual_w=dual_w,
        stage_inv=stage_inv,
        end_window=end_window,
        sums_block=sums_block,
        gt_window=gt_window,
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


def _bound_entry(value) -> float:
    if isinstance(value, str):
        token = value.strip().lower()
        if token in _INF_TOKENS:
            return _INF_TOKENS[token]
        raise ValueError(f"unrecognized bound token {value!r}")
    return float(value)


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
    except (KeyError, TypeError, ValueError) as exc:
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


def _matrix(value) -> np.ndarray:
    return np.asarray(value, dtype=float)


def _bounds(values) -> list[float]:
    return [_bound_entry(v) for v in values]


def problem_from_dict(obj: dict) -> tuple[LtiModel, MpctParams]:
    """Parse the versioned problem-definition mapping.

    A missing field, one of the wrong type or an unknown key, at the top
    level or in ``model`` or ``params``, raises a ValueError that names it,
    such as ``missing model.A`` or ``unknown key params.max_iters``.
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
        key: _parse(f"params.{key}", float, prm, key)
        for key in _SETTINGS
        if key in prm
    }
    params = MpctParams(
        Q=_parse("params.Q", _matrix, prm, "Q"),
        R=_parse("params.R", _matrix, prm, "R"),
        T=_parse("params.T", _matrix, prm, "T"),
        S=_parse("params.S", _matrix, prm, "S"),
        N=_parse("params.N", float, prm, "N"),
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
