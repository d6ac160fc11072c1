"""MPC-for-tracking transcription and offline precomputation.

Turns a discrete-time model plus cost/horizon parameters into the data the
per-sample solver consumes. The Hessian-plus-penalty matrix splits into a
block-diagonal core plus a rank-``2(n_x+n_u)`` completion that couples every
stage to the artificial reference through the same block ``-diag(Q, R)``;
it is kept as its distinct stage and reference blocks only. The dual-space
matrix splits into a banded core plus a completion of the same rank whose
right factor repeats one column block across the stage couplings.
Both are factored here, with their small Woodbury cores folded in. The
dual-space matrix is formed for the dynamics matrix with its initial-state
pin row negated (``-x_0 = -x_t``), so that every constraint row block
``i = 0 .. N`` reads ``C z_{i-1} - E z_i`` with ``C = [A B]``, ``E = [I 0]``,
``z_{-1} = 0`` and ``z_N = (x_s, u_s)``. The three small blocks through
which the KKT chain applies that matrix and its transpose on stage windows
are formed here too, so that the online phase is vector assembly only.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.linalg.lapack import dpotrf

from .banded_linalg import PredictionSparseMatrix, SymBandedMatrix, banded_cholesky_factor
from .errors import (
    DimensionMismatch,
    EmptyTightenedBox,
    NonFiniteInput,
    NotPositiveDefinite,
    RankDeficientG,
)
from .semiband_solver import (
    SemiBandedSystem,
    StageCoupledSystem,
    StageSumMatrix,
    _split_primal,
    gt_fold_blocks,
)

__all__ = [
    "LtiModel",
    "MpctParams",
    "QpVectors",
    "DiagonalScaling",
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
class DiagonalScaling:
    """Optional diagonal change of variables ``x = state * x_scaled``.

    Applied to the model, bounds and costs before transcription; positive
    entries required so that inequality directions are preserved. The scaled
    problem is what the solver iterates on; reports are mapped back.
    """

    state: np.ndarray
    input: np.ndarray

    def __post_init__(self):
        s = _finite_vector(self.state, np.atleast_1d(np.asarray(self.state)).shape[0], "state scaling")
        u = _finite_vector(self.input, np.atleast_1d(np.asarray(self.input)).shape[0], "input scaling")
        if np.any(s <= 0.0) or np.any(u <= 0.0):
            raise ValueError("scaling factors must be positive")
        object.__setattr__(self, "state", s)
        object.__setattr__(self, "input", u)

    def scale_state(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float) / self.state

    def unscale_state(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float) * self.state

    def scale_input(self, u: np.ndarray) -> np.ndarray:
        return np.asarray(u, dtype=float) / self.input

    def unscale_input(self, u: np.ndarray) -> np.ndarray:
        return np.asarray(u, dtype=float) * self.input

    def apply(self, model: LtiModel, params: MpctParams) -> tuple[LtiModel, MpctParams]:
        dx, du = self.state, self.input
        if dx.shape != (model.n_x,) or du.shape != (model.n_u,):
            raise DimensionMismatch("scaling dimensions do not match the model")
        model_s = LtiModel(
            A=model.A * dx[None, :] / dx[:, None],
            B=model.B * du[None, :] / dx[:, None],
            x_lo=model.x_lo / dx,
            x_hi=model.x_hi / dx,
            u_lo=model.u_lo / du,
            u_hi=model.u_hi / du,
        )
        params_s = replace(
            params,
            Q=dx[:, None] * params.Q * dx[None, :],
            R=du[:, None] * params.R * du[None, :],
            T=dx[:, None] * params.T * dx[None, :],
            S=du[:, None] * params.S * du[None, :],
        )
        return model_s, params_s


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

    ``p_system`` is the primal-space matrix by its ``(n_x+n_u)``-wide stage
    and reference blocks, whatever the horizon. ``w_system`` is the
    dual-space matrix as the banded Cholesky factor of its core, trimmed to
    the core's nonzero bands, plus the Woodbury factors: ``v`` as its four
    distinct ``2(n_x+n_u)``-by-``n_x`` column blocks (a
    :class:`StageSumMatrix`) and the dense ``w``, ``(N+2) n_x`` by
    ``2(n_x+n_u)``. ``w_system`` is formed for ``g`` with its pin row
    negated. ``g`` is stored once, by its stage window ``g.window``
    (``2(n_x+n_u)`` by ``n_x``), the block through which the KKT chain
    applies that negated ``G``; :meth:`PredictionSparseMatrix.to_dense`
    restores the pin row's sign. ``gt_window`` (``2n_x`` by ``n_x+n_u``)
    and ``gt_sums`` (``2(n_x+n_u)`` by ``4n_x``) fold the ``G'`` product
    into the KKT chain's second primal solve (see
    :func:`~mpct_admm.semiband_solver.gt_fold_blocks`). None of the three
    blocks grows with ``N``.

    :func:`build_problem` writes each array in place in its final shape and
    memory order, and none is a view into a larger scratch buffer. The
    banded factor is column-major, the order ``dpbtrs`` reads it in; ``w``
    is the row-major transpose of ``dgetrs``'s column-major result, so its
    ``.T`` goes to ``dgemv`` without a copy. The rest is row-major.

    No factor depends on ``params.eps_primal``, ``eps_dual`` or
    ``max_iter``, which only steer the ADMM loop, so built data may have
    them replaced: ``replace(data, params=replace(data.params, ...))``.
    ``rho``, ``N``, the costs and ``epsilon`` are built into the factors and
    bounds, and must not be replaced that way.
    """

    model: LtiModel
    params: MpctParams
    scaling: DiagonalScaling | None
    g: PredictionSparseMatrix
    v_lo: np.ndarray
    v_hi: np.ndarray
    p_system: StageCoupledSystem
    w_system: SemiBandedSystem
    gt_window: np.ndarray
    gt_sums: np.ndarray

    @property
    def n_x(self) -> int:
        return self.model.n_x

    @property
    def n_u(self) -> int:
        return self.model.n_u

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


def _minus_g_blocks(window: np.ndarray, stage: np.ndarray, ref: np.ndarray) -> list[np.ndarray]:
    """The four distinct row blocks of ``-G X`` for the pin-negated ``G``.

    ``X`` repeats the row block ``stage`` over the N stages above ``ref``, so
    ``-G X`` takes four values, each ``[X_{i-1} ; X_i]`` read through the
    stage ``window`` of ``G``: the pin ``(0, stage)``, the stage couplings
    ``(stage, stage)``, the handoff ``(stage, ref)`` and the equilibrium row
    ``(ref, ref)``. These are consecutive windows of ``(0, stage, stage,
    ref, ref)``, so each product reads a contiguous slice of one array.
    """
    w, k = stage.shape
    x = np.zeros((5, w, k))
    x[1:3] = stage
    x[3:] = ref
    x = x.reshape(5 * w, k)
    return [window.T @ x[i * w : (i + 2) * w] for i in range(4)]


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


def _gamma_tilde_banded(
    model: LtiModel,
    params: MpctParams,
    d_x: np.ndarray,
    d_u: np.ndarray,
    d_xs: np.ndarray,
    d_us: np.ndarray,
) -> SymBandedMatrix:
    """Banded core of the dual-space matrix, from its four distinct block columns.

    The product of the pin-negated dynamics pattern with the inverted
    block-diagonal core is block tridiagonal; the blocks follow directly from
    which decision blocks each pair of constraint rows shares. Rows ``i`` and
    ``i+1`` share ``z_i``, read as ``-E z_i`` and ``C z_i``, for every
    ``i < N``, so all but the last sub-diagonal block are ``-A D_x``, and
    block columns ``1 .. N-1`` are one shared column. With ``n_x``-wide
    blocks the half-bandwidth is at most ``2 n_x - 1``; see
    :func:`_banded_from_block_columns` for the placement and the trim.
    """
    nx = model.n_x
    a, b = model.A, model.B

    ada = a @ d_x @ a.T
    bdb = b @ d_u @ b.T
    a_eye = a - np.eye(nx)
    columns = np.zeros((4, 2 * nx, nx))
    columns[0, :nx] = d_x
    columns[1, :nx] = ada + bdb + d_x
    columns[2, :nx] = ada + bdb + d_xs
    columns[3, :nx] = a_eye @ d_xs @ a_eye.T + b @ d_us @ b.T
    columns[:2, nx:] = -(a @ d_x)
    columns[2, nx:] = -(a_eye @ d_xs)
    return _banded_from_block_columns(columns, params.N)


def build_problem(
    model: LtiModel,
    params: MpctParams,
    scaling: DiagonalScaling | None = None,
) -> PrecomputedData:
    """Offline phase: transcribe and factor everything the iterations reuse.

    Raises :class:`NotPositiveDefinite` naming the failing cost matrix or
    core block, and :class:`RankDeficientG` when the banded dual core cannot
    be factored because the dynamics matrix lost full row rank.
    """
    if model.n_x != params.n_x or model.n_u != params.n_u:
        raise DimensionMismatch("model and params dimensions do not agree")
    if scaling is not None:
        model, params = scaling.apply(model, params)

    nx, nu, n = model.n_x, model.n_u, params.N
    w, m_z = nx + nu, (n + 2) * nx

    v_lo, v_hi = tightened_bounds(model, params)

    # every stage couples to (x_s, u_s) through -diag(Q, R)
    coupling = _block_diag(params.Q, params.R)
    rho_eye = params.rho * np.eye(w)
    p_system, g_s, w_rows = _split_primal(
        gamma_stage=coupling + rho_eye,
        gamma_ref=_block_diag(n * params.Q + params.T, n * params.R + params.S) + rho_eye,
        coupling=coupling,
        horizon=n,
    )
    # both core blocks are block diagonal in (x, u), and so are their inverses
    g_st = p_system.gamma_stage_inv

    g = PredictionSparseMatrix(a=model.A, b=model.B, horizon=n)

    gamma_tilde = _gamma_tilde_banded(
        model, params, g_st[:nx, :nx], g_st[nx:, nx:], g_s[:nx, :nx], g_s[nx:, nx:]
    )
    try:
        gamma_tilde_factor = banded_cholesky_factor(gamma_tilde)
    except NotPositiveDefinite as exc:
        raise RankDeficientG(
            f"dynamics matrix lost full row rank (dual core pivot failed at row {exc.index})"
        ) from None

    # u_tilde = -G W. W repeats one row block over the stages, so u_tilde
    # repeats one n_x-row block over the stage couplings; it is written
    # column-major, the order dpbtrs reads it in
    u_tilde = np.empty((m_z, 2 * w), order="F")
    rows = u_tilde.reshape(n + 2, nx, 2 * w)
    blocks = _minus_g_blocks(g.window, w_rows[:w], w_rows[w:])
    for dst, block in zip((0, slice(1, n), n, n + 1), blocks):
        rows[dst] = block
    # so does Gamma^-1 V^T in v_tilde = (G Gamma^-1 V^T)^T: its row blocks
    # are (0, -Gamma_st^-1 D) for the stages and (Gamma_s^-1, 0) for the
    # reference, and column block i of v_tilde is row block i of G Gamma^-1
    # V^T, transposed
    gamma_inv_vt = np.zeros((2 * w, 2 * w))
    gamma_inv_vt[:w, w:] = -g_st @ coupling
    gamma_inv_vt[w:, :w] = g_s
    v_blocks = np.empty((2 * w, 4 * nx))
    blocks = _minus_g_blocks(g.window, gamma_inv_vt[:w], gamma_inv_vt[w:])
    for i, block in enumerate(blocks):
        np.negative(block.T, out=v_blocks[:, i * nx : (i + 1) * nx])
    v_tilde = StageSumMatrix(horizon=n, blocks=v_blocks)

    w_system = SemiBandedSystem.build(gamma_tilde_factor, u_tilde, v_tilde)
    gt_window, gt_sums = gt_fold_blocks(p_system, w_system, g)

    return PrecomputedData(
        model=model,
        params=params,
        scaling=scaling,
        g=g,
        v_lo=v_lo,
        v_hi=v_hi,
        p_system=p_system,
        w_system=w_system,
        gt_window=gt_window,
        gt_sums=gt_sums,
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
    if data.scaling is not None:
        x_t = data.scaling.scale_state(x_t)
        x_r = data.scaling.scale_state(x_r)
        u_r = data.scaling.scale_input(u_r)
    q = np.zeros(data.n_z)
    q[data.n_z - nx - nu : data.n_z - nu] = -(data.params.T @ x_r)
    q[data.n_z - nu :] = -(data.params.S @ u_r)
    b = np.zeros(data.m_z)
    b[:nx] = x_t
    return QpVectors(q=q, b=b, v_lo=data.v_lo, v_hi=data.v_hi)


# --- problem-definition file format ("mpct-v1") -----------------------------

_INF_TOKENS = {"inf": np.inf, "+inf": np.inf, "-inf": -np.inf}


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


def problem_from_dict(obj: dict) -> tuple[LtiModel, MpctParams, DiagonalScaling | None]:
    """Parse the versioned problem-definition mapping.

    A missing field or one of the wrong type raises a ValueError that names
    it, such as ``missing model.A``.
    """
    if not isinstance(obj, dict) or obj.get("format") != PROBLEM_FORMAT:
        raise ValueError(f'problem file must declare "format": "{PROBLEM_FORMAT}"')
    mdl = _section(obj, "model")
    prm = _section(obj, "params")
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
        for key in ("epsilon", "rho", "eps_primal", "eps_dual", "max_iter")
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
    scaling = None
    if obj.get("scaling") is not None:
        scl = _section(obj, "scaling")
        scaling = DiagonalScaling(
            state=_parse("scaling.state", _matrix, scl, "state"),
            input=_parse("scaling.input", _matrix, scl, "input"),
        )
    return model, params, scaling


def load_problem(path) -> tuple[LtiModel, MpctParams, DiagonalScaling | None]:
    with open(Path(path), "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    return problem_from_dict(obj)


def problem_to_dict(
    model: LtiModel,
    params: MpctParams,
    scaling: DiagonalScaling | None = None,
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
    if scaling is not None:
        obj["scaling"] = {"state": scaling.state.tolist(), "input": scaling.input.tolist()}
    return obj
