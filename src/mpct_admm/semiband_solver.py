"""Woodbury-split solves for banded-plus-low-rank systems, and the KKT chain.

A system ``(Gamma + U V) z = d`` with ``Gamma`` cheap to solve and ``U V`` of
small rank m is solved through the Woodbury identity

    (Gamma + U V)^-1 = Gamma^-1 - W V Gamma^-1,   W = Gamma^-1 U (I + V Gamma^-1 U)^-1

``W`` is an n-by-m matrix computed once at build time, so each call costs
one structured solve and two thin products:

    z1 = solve(Gamma, d)
    z  = z1 - W (V z1)

:class:`SemiBandedSystem` and :func:`solve_semibanded` are that solver for
a dense ``V``. The equality-constrained QP update chains three such solves:
two with the primal-space matrix, whose low-rank term couples every stage
to the artificial reference through one repeated block
(:class:`StageCoupledSystem`), and one with the dual-space matrix around its
banded core. With ``Lambda = blkdiag(Gamma_st^-1, ..., Gamma_s^-1)`` and the
stage-sum pattern ``Y = [[1_N (x) I_w, 0], [0, I_w]]``, the primal inverse
is ``P^-1 = Lambda - Y M Y'`` for one 2w-by-2w ``M`` in closed form (see
:func:`_split_primal`), so the dual matrix is ``W~ = Gamma~ - (G Y) M (G
Y)'`` with the banded core ``Gamma~ = G Lambda G'``. Its ``V = M (G Y)'``
repeats one column block across the stage couplings, so a product with it
reads four stage sums (:func:`stage_sums`).

:func:`solve_kkt_system` spreads only ``Lambda`` over the stages. The first
primal solve's low-rank term rides on the dual solve's Woodbury step,
because ``W~^-1 U~ = W`` with ``U~ = -G Y``, and the second primal solve's
reads the four stage sums the dual solve already takes; one product with a
stacked 4w-row block serves both (see :func:`_solve_kkt`). Every
constraint row block ``i = 0 .. N+1`` of ``G`` reads ``E z_i - C z_{i-1}``,
so the ``G`` product reads the windows ``(Gamma_st^-1 p_{i-1}, Gamma_st^-1
p_i)`` of the first solve's block-diagonal part, and the ``G'`` product
the windows ``(mu_i, mu_{i+1})`` of the multipliers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.linalg.blas import dgemv, dtrsm
from scipy.linalg.lapack import dgetrf, dpbtrs, dpotrf, dpotrs

from .banded_linalg import BandedCholeskyFactor
from .errors import DimensionMismatch, NotPositiveDefinite, SingularSmallSystem

if TYPE_CHECKING:  # pragma: no cover
    from .mpct_problem import PrecomputedData

__all__ = [
    "SemiBandedSystem",
    "StageCoupledSystem",
    "KktWorkspace",
    "solve_semibanded",
    "solve_kkt_system",
]


def _fold_core(gamma_inv_u: np.ndarray, core: np.ndarray) -> np.ndarray:
    """``gamma_inv_u core^-1`` for the m-by-m Woodbury core ``I + V Gamma^-1 U``, column-major.

    With ``core = P L U`` from ``dgetrf``, two right-side ``dtrsm`` take
    ``U^-1`` and ``L^-1`` off a column-major ``gamma_inv_u`` in place (the
    output of a banded solve), and one gather of its columns applies
    ``P' = P^-1``. Raises :class:`SingularSmallSystem` when the core is
    singular, which by the determinant identity means the full system
    matrix is singular. A column-major ``gamma_inv_u`` is overwritten.
    """
    m = core.shape[0]
    # an exactly zero pivot only sets info, which the pivot test below covers
    lu, piv, _ = dgetrf(core)
    u_diag = np.abs(np.diag(lu))
    if np.any(u_diag <= m * np.finfo(float).eps * max(1.0, float(u_diag.max(initial=0.0)))):
        raise SingularSmallSystem(f"{m}x{m} core matrix is singular")
    x = dtrsm(1.0, lu, gamma_inv_u, side=1, lower=0, overwrite_b=1)
    x = dtrsm(1.0, lu, x, side=1, lower=1, diag=1, overwrite_b=1)
    # P = P_0 P_1 ... with P_i swapping i and piv[i], so P^-1 swaps the
    # columns from the last pivot back
    cols = np.arange(m)
    for i in range(m - 1, -1, -1):
        j = piv[i]
        cols[i], cols[j] = cols[j], cols[i]
    # a row gather on the row-major transpose keeps the result column-major
    return x.T[cols].T


def _spd_inverse(m: np.ndarray, what: str) -> np.ndarray:
    """Symmetric inverse of an SPD block, or :class:`NotPositiveDefinite`."""
    # info is the order of the first leading minor that is not SPD, 0 if none
    c, info = dpotrf(m, lower=1)
    if info:
        raise NotPositiveDefinite(what, index=info - 1)
    inv = dpotrs(c, np.eye(m.shape[0]), lower=1)[0]
    return 0.5 * (inv + inv.T)


def stage_sums(x: np.ndarray, horizon: int) -> np.ndarray:
    """The four stage sums ``(x_0, x_1 + ... + x_{N-1}, x_N, x_{N+1})`` of ``(N+2) n_x`` rows.

    ``x`` is ``((N+2) n_x,)`` or ``((N+2) n_x, k)`` in row blocks of ``n_x``,
    and the result ``(4 n_x,)`` or ``(4 n_x, k)``: ``V x`` is ``V``'s four
    distinct column blocks ``M S`` times the sums, with ``S`` the stage-sum
    block of :meth:`~mpct_admm.banded_linalg.PredictionSparseMatrix.stage_sum_block`.
    """
    tail = x.shape[1:]
    offsets = np.array([0, 1, horizon, horizon + 1])
    return np.add.reduceat(x.reshape(horizon + 2, -1, *tail), offsets, axis=0).reshape(-1, *tail)


@dataclass(frozen=True)
class SemiBandedSystem:
    """A factored ``Gamma + U V`` system ready for repeated solves.

    ``gamma`` is the banded Cholesky factor of the core and ``w`` the
    precomputed Woodbury factor ``solve(Gamma, U) (I + V solve(Gamma, U))^-1``,
    column-major, so that ``W x`` is one ``dgemv`` on it without a copy.
    ``v`` is the dense m-by-n ``V``; ``U`` itself is not kept. The KKT chain
    reads the dual-space matrix's pieces from ``PrecomputedData`` instead.
    Immutable and safe to share across threads.
    """

    gamma: BandedCholeskyFactor
    v: np.ndarray
    w: np.ndarray

    @property
    def n(self) -> int:
        return self.w.shape[0]

    @classmethod
    def build(cls, gamma: BandedCholeskyFactor, u: np.ndarray, v: np.ndarray) -> "SemiBandedSystem":
        """Factor the m-by-m core ``I + V solve(Gamma, U)`` and fold it into ``w``.

        Raises :class:`SingularSmallSystem` when the core is singular.
        """
        # u is only solved with, and dpbtrs reads it column-major
        u = np.asarray(u, dtype=float)
        v = np.ascontiguousarray(v, dtype=float)
        if u.ndim != 2 or v.shape != u.shape[::-1]:
            raise DimensionMismatch("U and V must be (n, m) and (m, n)")
        if u.shape[0] != gamma.n:
            raise DimensionMismatch("low-rank factors do not match the core dimension")
        gamma_inv_u = gamma.solve(u)
        w = _fold_core(gamma_inv_u, np.eye(u.shape[1]) + v @ gamma_inv_u)
        return cls(gamma=gamma, v=v, w=w)


@dataclass(frozen=True)
class StageCoupledSystem:
    """The primal-space matrix by its distinct blocks.

    With the decision stack ``(z_0, ..., z_{N-1}, z_s)`` in blocks of width
    ``w = n_x + n_u``, the matrix is ``blkdiag(I_N (x) Gamma_st, Gamma_s) +
    U V``, where the rank-2w term couples every stage to the reference block
    ``z_s`` through the same ``-D``:

        P[i, i] = Gamma_st,   P[i, s] = P[s, i] = -D,   P[s, s] = Gamma_s

    Its inverse is ``P^-1 = Lambda - Y M Y'`` (see the module docstring),
    whose factors :func:`_split_primal` computes from the Schur complement
    ``Gamma_s - N D Gamma_st^-1 D`` on the reference block. The KKT chain
    reads them folded into the blocks of
    :class:`~mpct_admm.mpct_problem.PrecomputedData`, which does not keep
    this matrix but forms it from its parameters on request. Every array is
    w-by-w, whatever the horizon. Immutable and safe to share across
    threads.
    """

    horizon: int
    coupling: np.ndarray
    gamma_stage: np.ndarray
    gamma_ref: np.ndarray

    def to_dense(self) -> np.ndarray:
        """The full n-by-n matrix (test helper)."""
        n = self.horizon
        return np.block([
            [np.kron(np.eye(n), self.gamma_stage), np.tile(-self.coupling, (n, 1))],
            [np.tile(-self.coupling, (1, n)), self.gamma_ref],
        ])


def _split_primal(
    gamma_stage: np.ndarray, gamma_ref: np.ndarray, coupling: np.ndarray, horizon: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The factors of ``P^-1 = Lambda - Y M Y'`` for the blocks of a :class:`StageCoupledSystem`.

    ``coupling`` is ``D``, the block each stage shares with the reference
    (with a minus sign); the three blocks are float arrays. ``P`` is SPD, so
    is the Schur complement on its reference block, ``Sc = Gamma_s - N D
    Gamma_st^-1 D``, and block elimination gives, with ``K = Gamma_st^-1 D``
    and ``K^ = [K ; I]``,

        P^-1 = blkdiag(I_N (x) Gamma_st^-1, 0) - Y h Y',   h = -K^ Sc^-1 K^'

    so ``M = h + blkdiag(0, Gamma_s^-1)`` (see the module docstring).
    Returns ``Gamma_st^-1``, ``Gamma_s^-1`` and the 2w-by-2w ``M``. Raises
    :class:`NotPositiveDefinite` naming the block that is not SPD: a core
    block, or the Schur complement when ``P`` itself is not.
    """
    w = coupling.shape[0]
    g_st = _spd_inverse(gamma_stage, "stage core block")
    g_s = _spd_inverse(gamma_ref, "reference core block")
    k = g_st @ coupling
    sc_inv = _spd_inverse(gamma_ref - horizon * (coupling @ k), "reference Schur complement")
    k_hat = np.vstack([k, np.eye(w)])
    m = -(k_hat @ sc_inv @ k_hat.T)
    m[w:, w:] += g_s
    return g_st, g_s, m


def solve_semibanded(sys: SemiBandedSystem, d: np.ndarray) -> np.ndarray:
    """Solve ``(Gamma + U V) z = d`` through the precomputed split."""
    d = np.asarray(d, dtype=float)
    if d.shape != (sys.n,):
        raise DimensionMismatch(f"expected right-hand side of length {sys.n}")
    z1 = sys.gamma.solve(d)
    return z1 - sys.w @ (sys.v @ z1)


@dataclass
class KktWorkspace:
    """Buffers and stage views for the KKT chain of one problem.

    ``p`` receives the chain's linear term divided by the penalty ``rho``;
    ``p_stages`` and ``p_tail`` are its N stage blocks and its contiguous
    last two blocks ``(p_{N-1}, p_s)``. ``pad_stages`` are the N stage
    blocks of a buffer that starts with one zero block, and row ``i`` of
    ``pad_window`` is its window ``(pad_{i-1}, pad_i)`` for ``i = 0 ..
    N-1``, with ``pad_{-1} = 0``; row ``i`` of ``mu_window`` is ``(mu_i,
    mu_{i+1})`` for ``i = 0 .. N-1``. The two windows are read-only
    ``as_strided`` views with strides of ``(w, 1)`` and ``(n_x, 1)`` items
    over their contiguous buffers, so consecutive rows share a block.
    ``mu_head`` and ``mu_tail`` are ``mu``'s first N blocks and its last
    two. ``sums`` is one contiguous buffer: ``mu_sums`` receives the four
    stage sums of the banded solve's output (see :func:`stage_sums`) at the
    ``mu_offsets`` ``(0, 1, N, N+1)``, and ``p_sums`` the two sums ``(sum_i
    p_i, p_s)`` at the ``p_offsets`` ``(0, N)``; the two offset lists are
    slices of one index array. ``k`` receives the stacked block's product,
    whose parts ``r``, ``c_stage`` and ``c_ref`` the Woodbury step and the
    second primal solve read. ``z`` and ``mu`` receive the chain's results;
    the dual right-hand side and the banded solve's output pass through
    ``mu`` on the way. All of these are views, not copies, and the next
    call with the same workspace overwrites them.

    The chain reads its factors from ``data``, so a workspace serves only
    the ``data`` it was made for.
    """

    data: "PrecomputedData"
    p: np.ndarray
    p_blocks: np.ndarray
    p_stages: np.ndarray
    p_tail: np.ndarray
    p_offsets: np.ndarray
    mu_offsets: np.ndarray
    pad_stages: np.ndarray
    pad_window: np.ndarray
    mu: np.ndarray
    mu_blocks: np.ndarray
    mu_head: np.ndarray
    mu_tail: np.ndarray
    mu_window: np.ndarray
    sums: np.ndarray
    mu_sums: np.ndarray
    p_sums: np.ndarray
    k: np.ndarray
    r: np.ndarray
    c_stage: np.ndarray
    c_ref: np.ndarray
    z: np.ndarray
    z_stages: np.ndarray
    z_ref: np.ndarray

    @classmethod
    def for_problem(cls, data: "PrecomputedData") -> "KktWorkspace":
        n, nx, w = data.params.N, data.n_x, data.n_x + data.n_u
        p, mu, z = np.empty(data.n_z), np.empty(data.m_z), np.empty(data.n_z)
        padded = np.zeros((n + 1) * w)
        # sums and k share one allocation
        sums_k = np.empty(4 * nx + 6 * w)
        sums, k = sums_k[: 4 * nx + 2 * w], sums_k[4 * nx + 2 * w :]
        p_blocks, mu_blocks = p.reshape(n + 1, w), mu.reshape(n + 2, nx)
        # one index array for both: reduceat converts a list on every call
        offsets = np.array([0, n, 0, 1, n, n + 1])
        item = padded.itemsize
        return cls(
            data=data,
            p=p,
            p_blocks=p_blocks,
            p_stages=p_blocks[:n],
            p_tail=p[(n - 1) * w :],
            p_offsets=offsets[:2],
            mu_offsets=offsets[2:],
            pad_stages=padded[w:].reshape(n, w),
            pad_window=as_strided(padded, (n, 2 * w), (w * item, item), writeable=False),
            mu=mu,
            mu_blocks=mu_blocks,
            mu_head=mu_blocks[:n],
            mu_tail=mu[n * nx :],
            mu_window=as_strided(mu, (n, 2 * nx), (nx * item, item), writeable=False),
            sums=sums,
            mu_sums=sums[: 4 * nx].reshape(4, nx),
            p_sums=sums[4 * nx :].reshape(2, w),
            k=k,
            r=k[: 2 * w],
            c_stage=k[2 * w : 3 * w],
            c_ref=k[3 * w :],
            z=z,
            z_stages=z[: n * w].reshape(n, w),
            z_ref=z[n * w :],
        )


def solve_kkt_system(
    data: "PrecomputedData",
    p: np.ndarray,
    b: np.ndarray,
    work: KktWorkspace | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve the equality-constrained QP optimality system for given (p, b).

    Returns ``(z, mu)`` with ``G z = b`` and ``P z + G^T mu + p = 0``: the
    dual-space solve for the multipliers, with the first primal-space solve
    carried on its low-rank step, and the second primal-space solve fused
    with the ``G'`` product before it (see :func:`_solve_kkt`). The
    multipliers are returned for residual diagnostics even though the outer
    iteration discards them. With ``work`` given, ``z`` and ``mu`` are its
    buffers. ``G`` is ``data.g.to_dense()``, whose dynamics rows read ``x_i -
    A x_{i-1} - B u_{i-1}``; ``p`` and ``b`` are only read. The arguments
    are checked here, once; the ADMM loop runs the same chain on its own
    checked buffers.
    """
    p = np.asarray(p, dtype=float)
    b = np.asarray(b, dtype=float)
    if p.shape != (data.n_z,):
        raise DimensionMismatch(f"p must have length {data.n_z}")
    if b.shape != (data.m_z,):
        raise DimensionMismatch(f"b must have length {data.m_z}")
    if work is None:
        work = KktWorkspace.for_problem(data)
    elif work.data is not data:
        raise DimensionMismatch("work was made for another problem")
    # the chain's p-side factors carry rho, so it reads p / rho
    np.divide(p, data.params.rho, out=work.p)
    return _solve_kkt(work, b)


def _solve_kkt(work: KktWorkspace, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The chain of :func:`solve_kkt_system`, without its checks, on ``work.p = p / rho``.

    With ``P^-1 = Lambda - Y M Y'``, the first primal solve's low-rank term
    is ``G Y M Y' p = -U~ M Y' p``, and ``W~^-1 U~ = Gamma~^-1 U~ (I + V
    Gamma~^-1 U~)^-1 = W`` is the Woodbury factor the dual solve already
    applies. So the multipliers are

        mu = z1 - W (V z1 + M Y' p),   z1 = Gamma~^-1 (-G Lambda p - b)

    and only the block-diagonal ``Lambda`` is spread over the stages. One
    product with the stacked ``sums_block`` on the stage sums of ``z1`` and
    ``p`` gives the Woodbury step's ``r`` and the second solve's correction
    ``c``; :func:`~mpct_admm.mpct_problem.build_problem` derives ``z``.
    """
    data = work.data
    # -G Lambda p in mu's buffer. Rows 0 .. N-1 of -G z are [z_{i-1}, z_i]
    # g.window, on the zero-padded stages Gamma_st^-1 p_i (the inverse is
    # symmetric, so row i of p_i @ Gamma_st^-1 is Gamma_st^-1 p_i); rows N
    # and N+1 read only (p_{N-1}, p_s), through the end window. dot rather
    # than @ here and below: on operands this small the call overhead is
    # most of the cost, and dot's is smaller
    np.dot(work.p_stages, data.stage_inv, out=work.pad_stages)
    np.matmul(work.pad_window, data.g.window, out=work.mu_head)
    np.dot(work.p_tail, data.end_window, out=work.mu_tail)
    mu = work.mu
    mu -= b
    # z1 overwrites the right-hand side in the banded solve (info is nonzero
    # only for an illegal argument, which the shapes fixed at build time rule
    # out); the stage sums of z1 and p go into one buffer, one product gives
    # r and c, and one dgemv takes W r off z1 in place
    dpbtrs(data.dual_factor.bands, mu, lower=0, overwrite_b=1)
    np.add.reduceat(work.mu_blocks, work.mu_offsets, axis=0, out=work.mu_sums)
    np.add.reduceat(work.p_blocks, work.p_offsets, axis=0, out=work.p_sums)
    np.dot(data.sums_block, work.sums, out=work.k)
    dgemv(-1.0, data.dual_w, work.r, 1.0, mu, overwrite_y=1)
    # z = -P^-1 (G' mu + p) stage by stage: z_i = [mu_i, mu_{i+1}] gt_window
    # - Gamma_st^-1 p_i + c[:w] and z_s = c[w:]
    z_stages = work.z_stages
    np.matmul(work.mu_window, data.gt_window, out=z_stages)
    z_stages -= work.pad_stages
    z_stages += work.c_stage
    work.z_ref[...] = work.c_ref
    return work.z, mu
