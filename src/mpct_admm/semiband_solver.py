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
artificial reference through one repeated block and is solved stage by stage
(:class:`StageCoupledSystem`), and one with the dual-space matrix around its
banded core (:class:`SemiBandedSystem`), whose ``V`` repeats one column
block across the stage couplings and is applied as a stage sum
(:class:`StageSumMatrix`). :func:`solve_kkt_system` runs the chain in one
stage-blocked pass, for ``G`` with its initial-state pin row negated so that
every constraint row block ``i = 0 .. N`` reads ``C z_{i-1} - E z_i``. Each
half of the chain is then one product on overlapping stage windows: the
``G`` product after the first primal solve reads the windows
``(xi_{i-1}, xi_i)`` of the unconstrained step, and the second primal solve,
with the ``G'`` product before it, reads the windows ``(mu_i, mu_{i+1})`` of
the multipliers plus one small product with the four stage sums the dual
solve already takes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import LinAlgWarning, cho_factor, cho_solve, lu_factor, lu_solve
from scipy.linalg.lapack import dpbtrs

from .banded_linalg import BandedCholeskyFactor, PredictionSparseMatrix, _spd_failure_row
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
    with warnings.catch_warnings():
        # singularity is detected from the factor below, not from the warning
        warnings.simplefilter("ignore", LinAlgWarning)
        lu, piv = lu_factor(core, check_finite=False)
    u_diag = np.abs(np.diag(lu))
    if np.any(u_diag <= m * np.finfo(float).eps * max(1.0, float(u_diag.max(initial=0.0)))):
        raise SingularSmallSystem(f"{m}x{m} core matrix is singular")
    # (gamma_inv_u core^-1)^T = core^-T gamma_inv_u^T
    return lu_solve((lu, piv), gamma_inv_u.T, trans=1, check_finite=False).T


def _spd_inverse(m: np.ndarray, what: str) -> np.ndarray:
    """Symmetric inverse of an SPD block, or :class:`NotPositiveDefinite`."""
    try:
        fac = cho_factor(m, lower=True, check_finite=False)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite(what, index=_spd_failure_row(m)) from None
    inv = cho_solve(fac, np.eye(m.shape[0]), check_finite=False)
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
        u = np.ascontiguousarray(u, dtype=float)
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
    """The primal-space matrix, stored by its distinct blocks.

    With the decision stack ``(z_0, ..., z_{N-1}, z_s)`` in blocks of width
    ``w = n_x + n_u``, the matrix is ``blkdiag(I_N (x) Gamma_st, Gamma_s) +
    U V``, where the rank-2w term couples every stage to the reference block
    ``z_s`` through the same ``-D``:

        P[i, i] = Gamma_st,   P[i, s] = P[s, i] = -D,   P[s, s] = Gamma_s

    The Woodbury factor ``W = Gamma^-1 U (I + V Gamma^-1 U)^-1`` has only two
    distinct row blocks, one shared by all stages and one for the reference.
    A solve needs ``Gamma_st^-1`` per stage plus one 2w-by-2w matrix ``f``
    applied to ``(d_s, sum_i d_i)``, which gives the stage correction
    ``y[:w]`` and ``z_s = y[w:]``:

        z_i = Gamma_st^-1 d_i - y[:w]

    Only ``gamma_stage_inv`` and ``f`` are read by a solve; the three blocks
    of the matrix itself are kept for :meth:`to_dense`. Every stored array
    is w-by-w or 2w-by-2w, whatever the horizon. Immutable and safe to share
    across threads.
    """

    horizon: int
    coupling: np.ndarray
    gamma_stage: np.ndarray
    gamma_ref: np.ndarray
    gamma_stage_inv: np.ndarray
    f: np.ndarray

    @property
    def width(self) -> int:
        return self.coupling.shape[0]

    @property
    def n(self) -> int:
        return (self.horizon + 1) * self.width

    @classmethod
    def build(
        cls,
        gamma_stage: np.ndarray,
        gamma_ref: np.ndarray,
        coupling: np.ndarray,
        horizon: int,
    ) -> "StageCoupledSystem":
        """Invert the two SPD core blocks and fold the 2w-by-2w Woodbury core.

        ``coupling`` is ``D``, the block each stage shares with the reference
        (with a minus sign). Raises :class:`NotPositiveDefinite` when a core
        block is not SPD and :class:`SingularSmallSystem` when the core
        ``I + V Gamma^-1 U = I + [[0, Gamma_s^-1], [N D Gamma_st^-1 D, 0]]``
        is singular.
        """
        return _split_primal(gamma_stage, gamma_ref, coupling, horizon)[0]

    def solve(self, d: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Solve ``P z = d`` in O(N w^2); ``out``, when given, receives ``z``."""
        d = np.asarray(d, dtype=float)
        if d.shape != (self.n,):
            raise DimensionMismatch(f"expected right-hand side of length {self.n}")
        if out is None:
            out = np.empty(self.n)
        elif out.shape != (self.n,) or not out.flags["C_CONTIGUOUS"]:
            # a reshaped slice of a strided buffer would detach from it silently
            raise DimensionMismatch("out must be a contiguous vector of the right length")
        self._solve(d, out[: self.horizon * self.width].reshape(self.horizon, -1), out)
        return out

    def _solve(self, d: np.ndarray, a: np.ndarray, out: np.ndarray) -> np.ndarray:
        """:meth:`solve` without its checks; returns ``y``.

        ``a``, of shape ``(N, w)``, receives the rows ``Gamma_st^-1 d_i``; it
        may be the stage view of ``out``.
        """
        n, w = a.shape
        stages = d[: n * w].reshape(n, w)
        y = self.f @ np.concatenate((d[n * w :], stages.sum(axis=0)))
        # row i of stages @ Gamma_st^-1 is Gamma_st^-1 d_i, the inverse being symmetric
        np.matmul(stages, self.gamma_stage_inv, out=a)
        np.subtract(a, y[:w], out=out[: n * w].reshape(n, w))
        out[n * w :] = y[w:]
        return y

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
    """:meth:`StageCoupledSystem.build`, plus ``Gamma_s^-1`` and the two row
    blocks of ``W`` stacked, which the dual-space build reads once."""
    gamma_stage, gamma_ref, coupling = (
        np.asarray(b, dtype=float) for b in (gamma_stage, gamma_ref, coupling)
    )
    w = coupling.shape[0]
    g_st = _spd_inverse(gamma_stage, "stage core block")
    g_s = _spd_inverse(gamma_ref, "reference core block")
    zero = np.zeros((w, w))
    # distinct row blocks of Gamma^-1 U: stages (-Gamma_st^-1 D, 0), reference (0, Gamma_s^-1)
    gamma_inv_u = np.block([[-g_st @ coupling, zero], [zero, g_s]])
    core = np.eye(2 * w) + np.block([[zero, g_s], [horizon * coupling @ g_st @ coupling, zero]])
    w_rows = _fold_core(gamma_inv_u, core)
    # V Gamma^-1 d = blkdiag(Gamma_s^-1, -D Gamma_st^-1) (d_s, sum_i d_i)
    v_gamma_inv = np.block([[g_s, zero], [zero, -coupling @ g_st]])
    correction = w_rows @ v_gamma_inv
    f = np.vstack([correction[:w], np.hstack([g_s, zero]) - correction[w:]])
    system = StageCoupledSystem(
        horizon=horizon,
        coupling=coupling,
        gamma_stage=gamma_stage,
        gamma_ref=gamma_ref,
        gamma_stage_inv=g_st,
        f=f,
    )
    return system, g_s, w_rows


def solve_semibanded(
    sys: SemiBandedSystem, d: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Solve ``(Gamma + U V) z = d`` through the precomputed split.

    ``out``, when given, receives the result so steady-state callers can keep
    the large per-iteration buffers preallocated.
    """
    d = np.asarray(d, dtype=float)
    if d.shape != (sys.n,):
        raise DimensionMismatch(f"expected right-hand side of length {sys.n}")
    z1 = sys.gamma.solve(d)
    if out is None:
        return z1 - sys.w @ (sys.v @ z1)
    if out.shape != (sys.n,):
        raise DimensionMismatch("out has the wrong shape")
    np.matmul(sys.w, sys.v @ z1, out=out)
    np.subtract(z1, out, out=out)
    return out


def gt_fold_blocks(
    p_system: StageCoupledSystem, w_system: SemiBandedSystem, g: PredictionSparseMatrix
) -> tuple[np.ndarray, np.ndarray]:
    """The two blocks that fold ``G'`` into the KKT chain's second primal solve.

    ``G`` here has its pin row negated, as in ``w_system``. With ``E = [I
    0]`` and ``C = [A B]`` (``n_x``-by-``w``), stage ``i`` of ``G' mu`` is
    then ``-mu_i E + mu_{i+1} C`` for every ``i``. The returned ``window``
    (2n_x-by-w) is ``[E ; -C] Gamma_st^-1``, so ``-[mu_i, mu_{i+1}] window``
    is the stage block of ``Gamma_st^-1 G' mu``.

    The sums the primal solve needs, ``((G' mu)_s, sum_i (G' mu)_i)``, are
    linear in the four stage sums ``(mu_0, mu_1 + .. + mu_{N-1}, mu_N,
    mu_{N+1})``, and these follow from the stage sums ``s`` of ``z1`` in the
    dual solve ``mu = z1 - W (V z1)`` as ``(I - S(W) V_blocks) s``, with
    ``S(W)`` the stage sums of ``W``'s rows. The returned ``sums``
    (2w-by-4n_x) is ``-f`` times both maps, so that the second solve's
    ``y`` is ``sums @ s - y1``. Neither block depends on the horizon.
    """
    nx, nu, n = g.n_x, g.n_u, g.horizon
    w = nx + nu
    e = np.eye(nx, w)
    c = np.hstack([g.a, g.b])
    window = np.vstack([e, -c]) @ p_system.gamma_stage_inv
    zero = np.zeros((w, nx))
    # (G' mu)_s = mu_{N+1} (C - E) - mu_N E; sum_i (G' mu)_i = -s_0 E + s_1 (C - E) + s_2 C
    gt_sums = np.block([
        [zero, zero, -e.T, (c - e).T],
        [-e.T, (c - e).T, c.T, zero],
    ])
    v = w_system.v
    w_sums = np.add.reduceat(w_system.w.reshape(n + 2, nx, -1), v.offsets, axis=0).reshape(4 * nx, -1)
    mu_sums = np.eye(4 * nx) - w_sums @ v.blocks
    return window, -(p_system.f @ gt_sums @ mu_sums)


@dataclass
class KktWorkspace:
    """Buffers and stage views for the KKT chain of one problem size.

    The unconstrained step ``xi`` lives in a buffer of ``N + 3`` blocks of
    width ``w``: a zero block, ``xi`` itself, and a second copy of its
    reference block ``xi_s``. Row ``i`` of ``xi_window`` is then ``(xi_{i-1},
    xi_i)`` for ``i = 0 .. N+1``, with ``xi_{-1} = 0`` and ``xi_N = xi_{N+1}
    = xi_s``, and row ``i`` of ``mu_window`` is ``(mu_i, mu_{i+1})`` for ``i
    = 0 .. N-1``; both are overlapping views, not copies. ``z`` and ``mu``
    receive the chain's results, ``mu`` with the sign of the pin-negated
    ``G``; the next call with the same workspace overwrites them.
    """

    a: np.ndarray
    xi: np.ndarray
    xi_tail: np.ndarray
    xi_window: np.ndarray
    rhs: np.ndarray
    mu: np.ndarray
    z: np.ndarray
    rhs_blocks: np.ndarray
    mu_window: np.ndarray
    z_stages: np.ndarray

    @classmethod
    def for_problem(cls, data: "PrecomputedData") -> "KktWorkspace":
        n, nx, w = data.params.N, data.n_x, data.n_x + data.n_u
        xi_padded = np.zeros((n + 3) * w)
        rhs, mu, z = np.empty(data.m_z), np.empty(data.m_z), np.empty(data.n_z)
        return cls(
            a=np.empty((n, w)),
            xi=xi_padded[w : (n + 2) * w],
            xi_tail=xi_padded[(n + 2) * w :],
            xi_window=sliding_window_view(xi_padded, 2 * w)[::w],
            rhs=rhs,
            mu=mu,
            z=z,
            rhs_blocks=rhs.reshape(n + 2, nx),
            mu_window=sliding_window_view(mu, 2 * nx)[::nx][:n],
            z_stages=z[: n * w].reshape(n, w),
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
    given, ``z`` and ``mu`` are its buffers. The arguments are checked here,
    once; the ADMM loop runs the same chain on its own checked buffers.

    The chain runs with the pin row of ``G`` negated; this boundary negates
    the pin block of a copy of ``b`` on the way in and that of ``mu`` on the
    way out, so ``b`` and ``(z, mu)`` keep the sign of ``data.g``.
    """
    p = np.asarray(p, dtype=float)
    b = np.array(b, dtype=float)
    if p.shape != (data.n_z,):
        raise DimensionMismatch(f"p must have length {data.n_z}")
    if b.shape != (data.m_z,):
        raise DimensionMismatch(f"b must have length {data.m_z}")
    if work is None:
        work = KktWorkspace.for_problem(data)
    elif work.a.shape != (data.params.N, data.n_x + data.n_u) or work.mu.shape != (data.m_z,):
        raise DimensionMismatch("work was made for a problem of another size")
    nx = data.n_x
    np.negative(b[:nx], out=b[:nx])
    z, mu = _solve_kkt(data, p, b, work)
    np.negative(mu[:nx], out=mu[:nx])
    return z, mu


def _solve_kkt(
    data: "PrecomputedData", p: np.ndarray, b: np.ndarray, work: KktWorkspace
) -> tuple[np.ndarray, np.ndarray]:
    """The chain of :func:`solve_kkt_system`, without its checks, for ``G``
    with its pin row negated: the pin blocks of ``b`` and of the returned
    ``mu`` are those of the public convention, negated."""
    w_sys, a, z_stages = data.w_system, work.a, work.z_stages
    w = a.shape[1]
    # xi = P^-1 p, keeping a_i = Gamma_st^-1 p_i for the second primal solve
    y1 = data.p_system._solve(p, a, work.xi)
    work.xi_tail[:] = y1[w:]

    # mu = W~^-1 rhs with rhs = -(G xi + b): row i of -G xi is [xi_{i-1},
    # xi_i] g_window. z1 overwrites rhs in the banded solve (info is nonzero
    # only for an illegal argument, which the shapes fixed at build time rule
    # out), and the stage sums of z1 serve both V z1 and the G' fold
    rhs = work.rhs
    np.matmul(work.xi_window, data.g_window, out=work.rhs_blocks)
    rhs -= b
    dpbtrs(w_sys.gamma.bands, rhs, lower=1, overwrite_b=1)
    sums = np.add.reduceat(work.rhs_blocks, w_sys.v.offsets, axis=0).ravel()
    np.matmul(w_sys.w, w_sys.v.blocks @ sums, out=work.mu)
    np.subtract(rhs, work.mu, out=work.mu)

    # z = P^-1 (-(G' mu + p)) stage by stage: z_i = [mu_i, mu_{i+1}] gt_window
    # - a_i - y2[:w] and z_s = y2[w:]
    np.matmul(work.mu_window, data.gt_window, out=z_stages)
    y2 = data.gt_sums @ sums
    y2 -= y1
    z_stages -= a
    z_stages -= y2[:w]
    work.z[a.size :] = y2[w:]
    return work.z, work.mu
