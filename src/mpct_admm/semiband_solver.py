"""Woodbury-split solves for banded-plus-low-rank systems, and the KKT chain.

A system ``(Gamma + U V) z = d`` with ``Gamma`` cheap to solve and ``U V`` of
small rank m is solved through the Woodbury identity

    (Gamma + U V)^-1 = Gamma^-1 - W V Gamma^-1,   W = Gamma^-1 U (I + V Gamma^-1 U)^-1

``W`` is an n-by-m matrix computed once at build time, so each call costs
one structured solve and two thin products:

    z1 = solve(Gamma, d)
    z  = z1 - W (V z1)

The equality-constrained QP update chains three solves: two with the
primal-space matrix, whose low-rank term couples every stage to the
artificial reference through one repeated block (:class:`StageCoupledSystem`
holds its factors), and one with the dual-space matrix around its banded
core (:class:`SemiBandedSystem`). With ``Lambda = blkdiag(Gamma_st^-1, ...,
Gamma_s^-1)`` and the stage-sum pattern ``Y = [[1_N (x) I_w, 0], [0,
I_w]]``, the primal inverse is ``P^-1 = Lambda - Y M Y'`` for one 2w-by-2w
``M``, so the dual matrix is ``W~ = Gamma~ - (G Y) M (G Y)'`` with the
banded core ``Gamma~ = G Lambda G'``. Its ``V = M (G Y)'`` repeats one
column block across the stage couplings and is applied as a stage sum
(:class:`StageSumMatrix`). :func:`solve_kkt_system` runs the chain in one
stage-blocked pass, and the primal solves in it stage by stage. Every
constraint row block ``i = 0 .. N+1`` of ``G`` reads ``E z_i - C z_{i-1}``,
so each half of the chain is one product on overlapping stage windows: the
``G`` product after the first primal solve reads the windows ``(xi_{i-1},
xi_i)`` of the unconstrained step, and the second primal solve, with the
``G'`` product before it, reads the windows ``(mu_i, mu_{i+1})`` of the
multipliers plus one small product with the four stage sums the dual solve
already takes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.linalg.blas import dgemv
from scipy.linalg.lapack import dgetrf, dgetrs, dpbtrs, dpotrf, dpotrs

from .banded_linalg import BandedCholeskyFactor
from .errors import DimensionMismatch, NotPositiveDefinite, SingularSmallSystem

if TYPE_CHECKING:  # pragma: no cover
    from .mpct_problem import PrecomputedData

__all__ = [
    "SemiBandedSystem",
    "StageCoupledSystem",
    "StageSumMatrix",
    "KktWorkspace",
    "solve_semibanded",
    "solve_kkt_system",
]


def _fold_core(gamma_inv_u: np.ndarray, core: np.ndarray) -> np.ndarray:
    """``gamma_inv_u core^-1`` for the m-by-m Woodbury core ``I + V Gamma^-1 U``.

    Raises :class:`SingularSmallSystem` when the core is singular, which by
    the determinant identity means the full system matrix is singular.
    """
    m = core.shape[0]
    # an exactly zero pivot only sets info, which the pivot test below covers
    lu, piv, _ = dgetrf(core)
    u_diag = np.abs(np.diag(lu))
    if np.any(u_diag <= m * np.finfo(float).eps * max(1.0, float(u_diag.max(initial=0.0)))):
        raise SingularSmallSystem(f"{m}x{m} core matrix is singular")
    # (gamma_inv_u core^-1)^T = core^-T gamma_inv_u^T
    return dgetrs(lu, piv, gamma_inv_u.T, trans=1)[0].T


def _spd_inverse(m: np.ndarray, what: str) -> np.ndarray:
    """Symmetric inverse of an SPD block, or :class:`NotPositiveDefinite`."""
    # info is the order of the first leading minor that is not SPD, 0 if none
    c, info = dpotrf(m, lower=1)
    if info:
        raise NotPositiveDefinite(what, index=info - 1)
    inv = dpotrs(c, np.eye(m.shape[0]), lower=1)[0]
    return 0.5 * (inv + inv.T)


@dataclass(frozen=True)
class StageSumMatrix:
    """An m-by-(N+2)n_x matrix whose column blocks repeat across the stages.

    Its ``n_x``-wide column blocks are, in order, the initial-state pin, one
    block shared by the stage couplings ``1 .. N-1``, the handoff into the
    artificial reference and the equilibrium row; ``blocks`` holds these
    four side by side. A product sums the operand's row blocks over the
    stages that share a column block and applies one m-by-4n_x product:

        V z = V_0 z_0 + V_mid (z_1 + ... + z_{N-1}) + V_N z_N + V_eq z_{N+1}

    The stored arrays are the m-by-4n_x blocks and the four stage offsets at
    which the sums start, whatever the horizon. Immutable and safe to share
    across threads.
    """

    horizon: int
    blocks: np.ndarray
    offsets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        blocks = np.ascontiguousarray(self.blocks, dtype=float)
        if blocks.ndim != 2 or blocks.shape[1] % 4 or self.horizon < 2:
            raise DimensionMismatch("blocks must be m-by-4n_x and the horizon at least 2")
        object.__setattr__(self, "blocks", blocks)
        # kept as an index array: reduceat converts a tuple on every call
        n = self.horizon
        object.__setattr__(self, "offsets", np.array([0, 1, n, n + 1], dtype=np.intp))

    @property
    def shape(self) -> tuple[int, int]:
        m, four_nx = self.blocks.shape
        return m, (self.horizon + 2) * (four_nx // 4)

    def __matmul__(self, z: np.ndarray) -> np.ndarray:
        """``V z`` for ``z`` of shape ``(n,)`` or ``(n, k)``."""
        tail = z.shape[1:]
        sums = np.add.reduceat(z.reshape(self.horizon + 2, -1, *tail), self.offsets, axis=0)
        return self.blocks @ sums.reshape(-1, *tail)


@dataclass(frozen=True)
class SemiBandedSystem:
    """A factored ``Gamma + U V`` system ready for repeated solves.

    ``gamma`` is the banded Cholesky factor of the core and ``w`` the
    precomputed Woodbury factor ``solve(Gamma, U) (I + V solve(Gamma, U))^-1``.
    ``v`` is a dense m-by-n array or, for the dual-space matrix, a
    :class:`StageSumMatrix`; a solve only applies it with ``@``. ``U`` itself
    is not kept: a solve reads only ``gamma``, ``v`` and ``w``.
    Immutable and safe to share across threads.
    """

    gamma: BandedCholeskyFactor
    v: np.ndarray | StageSumMatrix
    w: np.ndarray

    @property
    def n(self) -> int:
        return self.w.shape[0]

    @classmethod
    def build(
        cls, gamma: BandedCholeskyFactor, u: np.ndarray, v: np.ndarray | StageSumMatrix
    ) -> "SemiBandedSystem":
        """Factor the m-by-m core ``I + V solve(Gamma, U)`` and fold it into ``w``.

        Raises :class:`SingularSmallSystem` when the core is singular.
        """
        # u is only solved with, and dpbtrs reads it column-major
        u = np.asarray(u, dtype=float)
        if not isinstance(v, StageSumMatrix):
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
    """The primal-space matrix, stored by its distinct blocks and factors.

    With the decision stack ``(z_0, ..., z_{N-1}, z_s)`` in blocks of width
    ``w = n_x + n_u``, the matrix is ``blkdiag(I_N (x) Gamma_st, Gamma_s) +
    U V``, where the rank-2w term couples every stage to the reference block
    ``z_s`` through the same ``-D``:

        P[i, i] = Gamma_st,   P[i, s] = P[s, i] = -D,   P[s, s] = Gamma_s

    The Woodbury factor ``W = Gamma^-1 U (I + V Gamma^-1 U)^-1`` has only two
    distinct row blocks, one shared by all stages and one for the reference.
    So ``P z = d`` is solved with ``Gamma_st^-1`` per stage plus one
    2w-by-2w matrix ``f`` applied to ``(sum_i d_i, d_s)``, which gives the
    stage correction ``y[:w]`` and ``z_s = y[w:]``:

        z_i = Gamma_st^-1 d_i - y[:w]

    Its column blocks come in that order because one ``np.add.reduceat`` on
    the ``(N+1, w)`` blocks of ``d`` takes both sums at once. The KKT chain
    (:func:`_solve_kkt`) runs this solve inline, and folds the second one
    into the ``G'`` product (:func:`gt_fold_blocks`).

    Only ``gamma_stage_inv`` and ``f`` are read by the chain; the three
    blocks of the matrix itself are kept for :meth:`to_dense`. Every stored
    array is w-by-w or 2w-by-2w, whatever the horizon. Immutable and safe to
    share across threads.
    """

    horizon: int
    coupling: np.ndarray
    gamma_stage: np.ndarray
    gamma_ref: np.ndarray
    gamma_stage_inv: np.ndarray
    f: np.ndarray

    def to_dense(self) -> np.ndarray:
        """The full n-by-n matrix (test helper)."""
        n = self.horizon
        return np.block([
            [np.kron(np.eye(n), self.gamma_stage), np.tile(-self.coupling, (n, 1))],
            [np.tile(-self.coupling, (1, n)), self.gamma_ref],
        ])


def _split_primal(
    gamma_stage: np.ndarray, gamma_ref: np.ndarray, coupling: np.ndarray, horizon: int
) -> tuple[StageCoupledSystem, np.ndarray, np.ndarray]:
    """Invert the two SPD core blocks and fold the 2w-by-2w Woodbury core.

    ``coupling`` is ``D``, the block each stage shares with the reference
    (with a minus sign); the three blocks are float arrays. Returns the
    system, ``Gamma_s^-1`` and the 2w-by-2w ``M`` of ``P^-1 = Lambda - Y M
    Y'`` (see the module docstring), which the dual-space build reads once.
    Raises :class:`NotPositiveDefinite` when a core block is not SPD and
    :class:`SingularSmallSystem` when the core ``I + V Gamma^-1 U = I +
    [[0, Gamma_s^-1], [N D Gamma_st^-1 D, 0]]`` is singular.
    """
    w = coupling.shape[0]
    g_st = _spd_inverse(gamma_stage, "stage core block")
    g_s = _spd_inverse(gamma_ref, "reference core block")
    # distinct row blocks of Gamma^-1 U: stages (-Gamma_st^-1 D, 0), reference (0, Gamma_s^-1)
    gamma_inv_u = np.zeros((2 * w, 2 * w))
    gamma_inv_u[:w, :w] = -g_st @ coupling
    gamma_inv_u[w:, w:] = g_s
    core = np.eye(2 * w)
    core[:w, w:] += g_s
    core[w:, :w] += horizon * coupling @ g_st @ coupling
    w_rows = _fold_core(gamma_inv_u, core)
    # V Gamma^-1 d = (Gamma_s^-1 d_s, -D Gamma_st^-1 sum_i d_i), read off
    # (sum_i d_i, d_s), so W V Gamma^-1 = Y M Y'
    v_gamma_inv = np.zeros((2 * w, 2 * w))
    v_gamma_inv[:w, w:] = g_s
    v_gamma_inv[w:, :w] = -coupling @ g_st
    m = w_rows @ v_gamma_inv
    # f = [M_st ; (0, Gamma_s^-1) - M_s]; 0 - x rather than -x, which would
    # turn a zero into -0.0
    f = m.copy()
    np.subtract(0.0, f[w:, :w], out=f[w:, :w])
    np.subtract(g_s, f[w:, w:], out=f[w:, w:])
    system = StageCoupledSystem(
        horizon=horizon,
        coupling=coupling,
        gamma_stage=gamma_stage,
        gamma_ref=gamma_ref,
        gamma_stage_inv=g_st,
        f=f,
    )
    return system, g_s, m


def solve_semibanded(sys: SemiBandedSystem, d: np.ndarray) -> np.ndarray:
    """Solve ``(Gamma + U V) z = d`` through the precomputed split."""
    d = np.asarray(d, dtype=float)
    if d.shape != (sys.n,):
        raise DimensionMismatch(f"expected right-hand side of length {sys.n}")
    z1 = sys.gamma.solve(d)
    return z1 - sys.w @ (sys.v @ z1)


def gt_fold_blocks(
    p_system: StageCoupledSystem, w_system: SemiBandedSystem, s: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The two blocks that fold ``G'`` into the KKT chain's second primal solve.

    ``s`` is the stage-sum block ``S = (G Y)'`` (see
    :meth:`~mpct_admm.banded_linalg.PredictionSparseMatrix.stage_sum_block`).
    With ``E = [I 0]`` and ``C = [A B]`` (``n_x``-by-``w``), stage ``i`` of
    ``G' mu`` is ``mu_i E - mu_{i+1} C`` for every ``i``. The returned
    ``window`` (2n_x-by-w) is ``[-E ; C] Gamma_st^-1``, so ``-[mu_i,
    mu_{i+1}] window`` is the stage block of ``Gamma_st^-1 G' mu``.

    The primal solve ``P^-1 = Lambda - Y M Y'`` reads ``G' mu`` beyond
    ``Lambda`` only through ``Y' G' mu = S (mu_0, mu_1 + .. + mu_{N-1},
    mu_N, mu_{N+1})``, the four stage sums of ``mu``. These follow from the
    stage sums ``t`` of ``z1`` in the dual solve ``mu = z1 - W (V z1)`` as
    ``(I - T(W) V_blocks) t``, with ``T(W)`` the stage sums of ``W``'s rows.
    The returned ``sums`` (2w-by-4n_x) is ``-f S`` times that map, so that
    the second solve's ``y`` is ``sums @ t - y1``, with ``y1`` the first
    solve's. Neither block depends on the horizon.
    """
    nx, w = s.shape[1] // 4, s.shape[0] // 2
    # the stage rows of S's pin and handoff column blocks are E' and -C'
    e_c = np.empty((2 * nx, w))
    np.negative(s[:w, :nx].T, out=e_c[:nx])
    np.negative(s[:w, 2 * nx : 3 * nx].T, out=e_c[nx:])
    window = e_c @ p_system.gamma_stage_inv
    v = w_system.v
    w_sums = np.add.reduceat(w_system.w.reshape(v.horizon + 2, nx, -1), v.offsets, axis=0).reshape(4 * nx, -1)
    mu_sums = np.eye(4 * nx) - w_sums @ v.blocks
    return window, -(p_system.f @ s @ mu_sums)


@dataclass
class KktWorkspace:
    """Buffers and stage views for the KKT chain of one problem.

    The unconstrained step ``xi`` lives in a buffer of ``N + 3`` blocks of
    width ``w``: a zero block, ``xi`` itself, and a second copy of its
    reference block ``xi_s``. ``xi_stages`` and ``xi_ref`` are its stage
    blocks and its last two blocks, so one assignment to ``xi_ref`` writes
    both copies of ``xi_s``. Row ``i`` of ``xi_window`` is then
    ``(xi_{i-1}, xi_i)`` for ``i = 0 .. N+1``, with ``xi_{-1} = 0`` and
    ``xi_N = xi_{N+1} = xi_s``, and row ``i`` of ``mu_window`` is ``(mu_i,
    mu_{i+1})`` for ``i = 0 .. N-1``; all are views, not copies. The two
    windows are read-only ``as_strided`` views with strides of ``(w, 1)``
    and ``(n_x, 1)`` items over their contiguous buffers, so consecutive
    rows share a block. ``p_sums`` and ``mu_sums`` receive the stage sums
    the chain takes, at the ``p_offsets`` and at the dual ``v.offsets``
    where they start. ``z`` and ``mu`` receive the chain's results; the dual
    right-hand side and the banded solve's output pass through ``mu`` on the
    way. The next call with the same workspace overwrites them.

    The chain reads its factors from ``data``, so a workspace serves only
    the ``data`` it was made for.
    """

    data: "PrecomputedData"
    p_offsets: np.ndarray
    p_sums: np.ndarray
    xi_stages: np.ndarray
    xi_ref: np.ndarray
    xi_window: np.ndarray
    mu: np.ndarray
    mu_blocks: np.ndarray
    mu_sums: np.ndarray
    mu_window: np.ndarray
    z: np.ndarray
    z_stages: np.ndarray
    z_ref: np.ndarray

    @classmethod
    def for_problem(cls, data: "PrecomputedData") -> "KktWorkspace":
        n, nx, w = data.params.N, data.n_x, data.n_x + data.n_u
        xi_padded = np.zeros((n + 3) * w)
        mu, z = np.empty(data.m_z), np.empty(data.n_z)
        item = xi_padded.itemsize
        return cls(
            data=data,
            p_offsets=np.array([0, n]),
            p_sums=np.empty((2, w)),
            xi_stages=xi_padded[w : (n + 1) * w].reshape(n, w),
            xi_ref=xi_padded[(n + 1) * w :].reshape(2, w),
            xi_window=as_strided(xi_padded, (n + 2, 2 * w), (w * item, item), writeable=False),
            mu=mu,
            mu_blocks=mu.reshape(n + 2, nx),
            mu_sums=np.empty((4, nx)),
            mu_window=as_strided(mu, (n, 2 * nx), (nx * item, item), writeable=False),
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
    primal-space solve for the unconstrained step ``xi`` and the ``G``
    product after it, the dual-space solve for the multipliers, and the
    second primal-space solve fused with the ``G'`` product before it (see
    :func:`gt_fold_blocks`). The multipliers are returned for residual
    diagnostics even though the outer iteration discards them. With ``work``
    given, ``z`` and ``mu`` are its buffers. ``G`` is ``data.g.to_dense()``,
    whose dynamics rows read ``x_i - A x_{i-1} - B u_{i-1}``; ``b`` is only
    read. The arguments are checked here, once; the ADMM loop runs the same
    chain on its own checked buffers.
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
    return _solve_kkt(work, p.reshape(-1, data.n_x + data.n_u), b)


def _solve_kkt(work: KktWorkspace, p_blocks: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The chain of :func:`solve_kkt_system`, without its checks, on the
    ``(N+1, w)`` blocks of ``p``."""
    data = work.data
    xi_stages, xi_ref = work.xi_stages, work.xi_ref
    w = xi_ref.shape[1]
    # xi = P^-1 p stage by stage (see StageCoupledSystem), straight into the
    # padded buffer, both copies of xi_s at once: y = f (sum_i p_i, p_s),
    # xi_i = Gamma_st^-1 p_i - y[:w] and xi_s = y[w:]. dot rather than @
    # here and below: on operands this small the call overhead is most of
    # the cost, and dot's is smaller
    p_sys = data.p_system
    np.add.reduceat(p_blocks, work.p_offsets, axis=0, out=work.p_sums)
    y = p_sys.f.dot(work.p_sums.reshape(-1))
    # row i of p_i @ Gamma_st^-1 is Gamma_st^-1 p_i, the inverse being symmetric
    np.dot(p_blocks[:-1], p_sys.gamma_stage_inv, out=xi_stages)
    xi_stages -= y[:w]
    xi_ref[...] = y[w:]

    # mu = W~^-1 rhs with rhs = -(G xi + b), all in mu's buffer: row i of
    # -G xi is [xi_{i-1}, xi_i] g.window. z1 overwrites rhs in the banded
    # solve (info is nonzero only for an illegal argument, which the shapes
    # fixed at build time rule out), the stage sums of z1 serve both V z1
    # and the G' fold, and one dgemv takes W (V z1) off z1 in place
    w_sys = data.w_system
    mu, sums = work.mu, work.mu_sums
    np.matmul(work.xi_window, data.g.window, out=work.mu_blocks)
    mu -= b
    dpbtrs(w_sys.gamma.bands, mu, lower=1, overwrite_b=1)
    np.add.reduceat(work.mu_blocks, w_sys.v.offsets, axis=0, out=sums)
    sums = sums.reshape(-1)
    # w.T is a Fortran-ordered view, which dgemv reads without a copy
    dgemv(-1.0, w_sys.w.T, w_sys.v.blocks.dot(sums), 1.0, mu, trans=1, overwrite_y=1)

    # z = P^-1 (-(G' mu + p)) stage by stage. The second solve's correction
    # is gs - y1 with gs = gt_sums @ sums, and Gamma_st^-1 p_i - y1[:w] =
    # xi_i, so z_i = [mu_i, mu_{i+1}] gt_window - xi_i - gs[:w] and z_s =
    # gs[w:] - xi_s
    z_stages = work.z_stages
    np.matmul(work.mu_window, data.gt_window, out=z_stages)
    gs = data.gt_sums.dot(sums)
    z_stages -= xi_stages
    z_stages -= gs[:w]
    np.subtract(gs[w:], xi_ref[0], out=work.z_ref)
    return work.z, mu
