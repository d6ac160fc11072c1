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
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import block_diag as _dense_block_diag

from .banded_linalg import (
    PredictionSparseMatrix,
    SymBandedMatrix,
    _spd_failure_row,
    banded_cholesky_factor,
)
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
    if not np.allclose(m, m.T, rtol=0.0, atol=1e-10 * (1.0 + np.abs(m).max())):
        raise ValueError(f"{name} must be symmetric")
    m = 0.5 * (m + m.T)
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite(name, index=_spd_failure_row(m)) from None
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
        for name in ("epsilon", "rho", "eps_primal", "eps_dual"):
            val = float(getattr(self, name))
            if not val > 0.0:
                raise ValueError(f"{name} must be positive")
            object.__setattr__(self, name, val)
        # an infinite penalty leaves no finite core to factor
        if not math.isfinite(self.rho):
            raise ValueError(f"rho must be finite, got {self.rho!r}")
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
        params_s = MpctParams(
            Q=dx[:, None] * params.Q * dx[None, :],
            R=du[:, None] * params.R * du[None, :],
            T=dx[:, None] * params.T * dx[None, :],
            S=du[:, None] * params.S * du[None, :],
            N=params.N,
            epsilon=params.epsilon,
            rho=params.rho,
            eps_primal=params.eps_primal,
            eps_dual=params.eps_dual,
            max_iter=params.max_iter,
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
    eps = params.epsilon
    x_lo_e = np.where(np.isfinite(model.x_lo), model.x_lo + eps, model.x_lo)
    x_hi_e = np.where(np.isfinite(model.x_hi), model.x_hi - eps, model.x_hi)
    u_lo_e = np.where(np.isfinite(model.u_lo), model.u_lo + eps, model.u_lo)
    u_hi_e = np.where(np.isfinite(model.u_hi), model.u_hi - eps, model.u_hi)
    if np.any(x_lo_e >= x_hi_e) or np.any(u_lo_e >= u_hi_e):
        raise EmptyTightenedBox("epsilon-tightened artificial-reference box is empty")
    stage_lo = np.concatenate([model.x_lo, model.u_lo])
    stage_hi = np.concatenate([model.x_hi, model.u_hi])
    v_lo = np.concatenate([np.tile(stage_lo, params.N), x_lo_e, u_lo_e])
    v_hi = np.concatenate([np.tile(stage_hi, params.N), x_hi_e, u_hi_e])
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
    negated; ``g`` itself keeps the sign of the dynamics. ``g_window``
    (``2(n_x+n_u)`` by ``n_x``) is ``[-C' ; E']``, so that row block ``i``
    of ``-G z`` for that negated ``G`` is ``[z_{i-1}, z_i] g_window``.
    ``gt_window`` (``2n_x`` by ``n_x+n_u``) and ``gt_sums`` (``2(n_x+n_u)``
    by ``4n_x``) fold the ``G'`` product into the KKT chain's second primal
    solve (see :func:`~mpct_admm.semiband_solver.gt_fold_blocks`). None of
    the three grows with ``N``.
    """

    model: LtiModel
    params: MpctParams
    scaling: DiagonalScaling | None
    g: PredictionSparseMatrix
    v_lo: np.ndarray
    v_hi: np.ndarray
    p_system: StageCoupledSystem
    w_system: SemiBandedSystem
    g_window: np.ndarray
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

    @property
    def low_rank_width(self) -> int:
        return 2 * (self.n_x + self.n_u)


def _minus_g_blocks(g_window: np.ndarray, stage: np.ndarray, ref: np.ndarray) -> list[np.ndarray]:
    """The four distinct row blocks of ``-G X`` for the pin-negated ``G``.

    ``X`` repeats the row block ``stage`` over the N stages above ``ref``, so
    ``-G X`` takes four values, each ``[X_{i-1} ; X_i]`` read through
    ``g_window``: the pin ``(0, stage)``, the stage couplings ``(stage,
    stage)``, the handoff ``(stage, ref)`` and the equilibrium row ``(ref,
    ref)``.
    """
    pairs = ((np.zeros_like(stage), stage), (stage, stage), (stage, ref), (ref, ref))
    return [g_window.T @ np.vstack(pair) for pair in pairs]


def _scatter_diag_block(bands: np.ndarray, offset: int, block: np.ndarray) -> None:
    k = block.shape[0]
    for c in range(k):
        bands[0 : k - c, offset + c] = block[c:, c]


def _scatter_sub_block(bands: np.ndarray, offset: int, n_x: int, block: np.ndarray) -> None:
    # block row (i+1, i): rows offset+n_x .. offset+2*n_x-1, cols offset .. offset+n_x-1
    for c in range(n_x):
        bands[n_x - c : 2 * n_x - c, offset + c] = block[:, c]


def _gamma_tilde_banded(
    model: LtiModel,
    params: MpctParams,
    d_x: np.ndarray,
    d_u: np.ndarray,
    d_xs: np.ndarray,
    d_us: np.ndarray,
) -> SymBandedMatrix:
    """Banded core of the dual-space matrix, assembled block by block.

    The product of the pin-negated dynamics pattern with the inverted
    block-diagonal core is block tridiagonal; the blocks follow directly from
    which decision blocks each pair of constraint rows shares. Rows ``i`` and
    ``i+1`` share ``z_i``, read as ``-E z_i`` and ``C z_i``, for every
    ``i < N``, so all but the last sub-diagonal block are ``-A D_x``. With
    ``n_x``-wide blocks the half-bandwidth is at most ``2 n_x - 1``; the
    bands past the last one that is not all zero are dropped. A banded
    Cholesky factor has no fill outside its input band, so the trim is exact.
    """
    nx = model.n_x
    n = params.N
    m_z = (n + 2) * nx
    a, b = model.A, model.B
    bands = np.zeros((2 * nx, m_z))

    ada = a @ d_x @ a.T
    bdb = b @ d_u @ b.T
    a_eye = a - np.eye(nx)
    t_mid = ada + bdb + d_x
    t_last = ada + bdb + d_xs
    t_s = a_eye @ d_xs @ a_eye.T + b @ d_us @ b.T

    _scatter_diag_block(bands, 0, d_x)
    for i in range(1, n):
        _scatter_diag_block(bands, i * nx, t_mid)
    _scatter_diag_block(bands, n * nx, t_last)
    _scatter_diag_block(bands, (n + 1) * nx, t_s)

    neg_adx = -(a @ d_x)
    for i in range(n):
        _scatter_sub_block(bands, i * nx, nx, neg_adx)
    _scatter_sub_block(bands, n * nx, nx, -(a_eye @ d_xs))

    bw = int(np.flatnonzero(bands.any(axis=1))[-1])
    return SymBandedMatrix(n=m_z, half_bandwidth=bw, bands=bands[: bw + 1])


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
    w = nx + nu
    rho = params.rho

    v_lo, v_hi = tightened_bounds(model, params)

    # every stage couples to (x_s, u_s) through -diag(Q, R)
    coupling = _dense_block_diag(params.Q, params.R)
    p_system, g_s, w_rows = _split_primal(
        gamma_stage=coupling + rho * np.eye(w),
        gamma_ref=_dense_block_diag(n * params.Q + params.T, n * params.R + params.S) + rho * np.eye(w),
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

    # [-C' ; E'] with C = [A B] and E = [I 0]
    g_window = np.vstack([-np.hstack([model.A, model.B]).T, np.eye(w, nx)])
    # u_tilde = -G W. W repeats one row block over the stages, and so does
    # Gamma^-1 V^T in v_tilde = (G Gamma^-1 V^T)^T
    zero = np.zeros((w, w))
    pin, coupled, handoff, equilibrium = _minus_g_blocks(g_window, w_rows[:w], w_rows[w:])
    u_tilde = np.vstack([pin, np.tile(coupled, (n - 1, 1)), handoff, equilibrium])
    stage = np.hstack([zero, -g_st @ coupling])
    ref = np.hstack([g_s, zero])
    v_tilde = StageSumMatrix(
        horizon=n, blocks=-np.vstack(_minus_g_blocks(g_window, stage, ref)).T
    )

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
        g_window=g_window,
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


def _parse(where: str, convert, value):
    """``convert(value)``, turning a wrongly-typed value into a named ValueError."""
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from None


def _section(obj, key: str) -> dict:
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

    A missing field raises KeyError; a field of the wrong type raises a
    ValueError that names it.
    """
    if not isinstance(obj, dict) or obj.get("format") != PROBLEM_FORMAT:
        raise ValueError(f'problem file must declare "format": "{PROBLEM_FORMAT}"')
    try:
        mdl = _section(obj, "model")
        prm = _section(obj, "params")
    except KeyError as exc:
        raise ValueError(f"problem file is missing the {exc.args[0]!r} object") from None
    model = LtiModel(
        A=_parse("model.A", _matrix, mdl["A"]),
        B=_parse("model.B", _matrix, mdl["B"]),
        x_lo=_parse("model.x_lo", _bounds, mdl["x_lo"]),
        x_hi=_parse("model.x_hi", _bounds, mdl["x_hi"]),
        u_lo=_parse("model.u_lo", _bounds, mdl["u_lo"]),
        u_hi=_parse("model.u_hi", _bounds, mdl["u_hi"]),
    )
    scalars = {
        key: _parse(f"params.{key}", float, prm[key])
        for key in ("epsilon", "rho", "eps_primal", "eps_dual", "max_iter")
        if key in prm
    }
    params = MpctParams(
        Q=_parse("params.Q", _matrix, prm["Q"]),
        R=_parse("params.R", _matrix, prm["R"]),
        T=_parse("params.T", _matrix, prm["T"]),
        S=_parse("params.S", _matrix, prm["S"]),
        N=_parse("params.N", float, prm["N"]),
        **scalars,
    )
    scaling = None
    if obj.get("scaling") is not None:
        scl = _section(obj, "scaling")
        scaling = DiagonalScaling(
            state=_parse("scaling.state", _matrix, scl["state"]),
            input=_parse("scaling.input", _matrix, scl["input"]),
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
