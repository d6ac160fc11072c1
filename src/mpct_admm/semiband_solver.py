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
reads four stage sums.

:func:`solve_kkt_system` spreads only ``Lambda`` over the stages. The first
primal solve's low-rank term rides on the dual solve's Woodbury step,
because ``W~^-1 U~ = W`` with ``U~ = -G Y``, and the second primal solve's
reads the same stage sums; one product with a stacked block serves both
(see :class:`KktWorkspace`). The banded solve runs on half the rows: one
level of block odd-even reduction eliminates the odd stage blocks of
``Gamma~`` in closed form, so the chain solves with their Schur complement
``S`` on the kept blocks and applies only the kept rows of ``W``. Every
constraint row block ``i = 0 .. N+1`` of ``G`` reads ``E z_i - C z_{i-1}``,
so the reduced right-hand side reads windows of four stages of ``p``, and
the ``G'`` product forms ``z``'s stages in pairs from pairs of kept
multipliers, with the odd multiplier between them substituted into both.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.linalg.blas import dgemm, dgemv
from scipy.linalg.lapack import dgetrf, dgetri, dpbtrs, dposv

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


def _core_inverse(core: np.ndarray) -> np.ndarray:
    """The inverse of the m-by-m Woodbury core ``I + V Gamma^-1 U``, from its LU factors.

    ``dgetrf``, then ``dgetri``. Raises :class:`SingularSmallSystem` when
    the core is singular, which by the determinant identity means the full
    system matrix is singular.
    """
    m = core.shape[0]
    # an exactly zero pivot only sets info, which the pivot test below covers
    lu, piv, _ = dgetrf(core)
    u_diag = np.abs(np.diag(lu))
    if np.any(u_diag <= m * np.finfo(float).eps * max(1.0, float(u_diag.max(initial=0.0)))):
        raise SingularSmallSystem(f"{m}x{m} core matrix is singular")
    return dgetri(lu, piv, overwrite_lu=1)[0]


def _spd_inverse(m: np.ndarray, what: str) -> np.ndarray:
    """Symmetric inverse of an SPD block, or :class:`NotPositiveDefinite`."""
    # dposv is dpotrf, then dpotrs on the identity; info is the order of the
    # first leading minor that is not SPD, 0 if none
    inv, info = dposv(m, np.eye(m.shape[0]), lower=1)[1:]
    if info:
        raise NotPositiveDefinite(what, index=info - 1)
    return 0.5 * (inv + inv.T)


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
        w = dgemm(1.0, gamma_inv_u, _core_inverse(np.eye(u.shape[1]) + v @ gamma_inv_u))
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
    k_hat = np.concatenate([k, np.eye(w)])
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
    """The KKT chain of one problem, bound to its buffers.

    :meth:`for_problem` binds ``data``'s factor arrays once and returns the
    unchecked chain as closures. ``bind(b)`` forms what the chain reads of
    the dual right-hand side ``b``: its reduced form on the kept blocks, its
    odd blocks' sum and its term in each of ``z``'s stage pairs; they hold
    until the next ``bind``, and ``b`` is only read. ``solve()`` reads ``p /
    rho`` from the buffer ``p`` and returns ``z`` in the buffer ``z``. The
    kept blocks' multipliers ``mu_K`` are left in ``mu`` and the Woodbury
    step's ``r`` in ``r``; the next call overwrites them. After a
    ``solve()``, ``multipliers(b)``, with the ``b`` last bound, returns all
    of ``mu`` as a new array: the kept blocks' and the odd ones, rebuilt by
    one product with ``data.odd_block``. The ADMM loop never calls it. The
    chain copies no factor, so a workspace serves only the ``data`` it was
    made for.

    With ``P^-1 = Lambda - Y M Y'``, the first primal solve's low-rank term
    is ``G Y M Y' p = -U~ M Y' p``, and ``W~^-1 U~ = Gamma~^-1 U~ (I + V
    Gamma~^-1 U~)^-1 = W`` is the Woodbury factor the dual solve already
    applies. So the multipliers are

        mu = z1 - W (V z1 + M Y' p),   z1 = Gamma~^-1 (-G Lambda p - b)

    and only the block-diagonal ``Lambda`` is spread over the stages. One
    level of odd-even reduction halves the banded solve: ``z1`` is solved
    on the kept blocks only, through the Schur complement ``S`` of the odd
    blocks of ``Gamma~``, and only the kept rows ``W_K`` of ``W`` are
    applied. The stage sums the Woodbury step reads come from the kept
    blocks' sums and ``p``'s stage-pair sums in closed form, and one product
    with the stacked ``sums_block`` gives ``r``, the per-pair constant and
    ``z``'s tail. ``z``'s stage pairs ``(z_{2j}, z_{2j+1})`` read the kept
    multipliers ``(mu_{2j}, mu_{2j+2})`` and ``(p_{2j}, p_{2j+1})``, with
    the odd multiplier ``mu_{2j+1}`` substituted into both blocks, so the
    chain never forms it. :func:`~mpct_admm.mpct_problem.build_problem`
    derives the blocks.
    """

    data: "PrecomputedData"
    p: np.ndarray
    z: np.ndarray
    mu: np.ndarray
    r: np.ndarray
    bind: Callable[[np.ndarray], None]
    solve: Callable[[], np.ndarray]
    multipliers: Callable[[np.ndarray], np.ndarray]

    @classmethod
    def for_problem(cls, data: "PrecomputedData") -> "KktWorkspace":
        # Buffers and views of them, no copies. There are h = N // 2 heads
        # and t tail blocks, kept = h + t blocks of n_x in mu. p sits behind
        # two zero blocks and is padded to whole pairs: row j of p_window is
        # (p_{2j-2}, .., p_{2j+1}) and row j of mu_window (mu_j, mu_{j+1}) of
        # the kept blocks, read-only as_strided views whose consecutive rows
        # overlap. sums receives the kept blocks' sums (block 0, heads 1 ..
        # h-1, each tail block), b's odd sum, set by bind, and the sums of
        # p's pairs before the last and its last pair, whose padding, past
        # the end of sums for even N, the stacked block does not read. k, in
        # the same allocation as z, receives the stacked block's product:
        # z's tail, then r and the per-pair constant c_pair.
        n, nx, w, n_z = data.params.N, data.n_x, data.n_x + data.n_u, data.n_z
        h = n // 2
        t = n + 2 - 2 * h
        kept, live = h + t, (t - 1) * w
        p_buf = np.zeros((2 * h + 4) * w)
        p, item = p_buf[2 * w : 2 * w + n_z], p_buf.itemsize
        p_window = as_strided(p_buf, (h, 4 * w), (2 * w * item, item), writeable=False)
        p_tail, p_pairs = p[n_z - (t + 1) * w :], p_buf[2 * w :].reshape(h + 1, 2 * w)
        mu_blocks, b_red = np.empty((2, kept, nx))
        mu = mu_blocks.reshape(-1)
        mu_heads, mu_tail = mu_blocks[:h], mu[h * nx :]
        mu_window = as_strided(mu, (h, 2 * nx), (nx * item, item), writeable=False)
        sums_buf = np.empty((3 + t) * nx + 4 * w)
        sums, kept_sums = sums_buf[: (3 + t) * nx + 2 * w + live], sums_buf[: (2 + t) * nx].reshape(2 + t, nx)
        odd_b_sum, p_sums = sums_buf[(2 + t) * nx : (3 + t) * nx], sums_buf[(3 + t) * nx :].reshape(2, 2 * w)
        zk = np.empty(n_z + 4 * w)
        z, k = zk[:n_z], zk[n_z - live :]
        r, c_pair = k[live : live + 2 * w], k[live + 2 * w :]
        z_pairs, b_pairs = z[: 2 * h * w].reshape(h, 2 * w), np.empty((h, 2 * w))
        # one index array for both: reduceat converts a list on every call
        offsets = np.array([0, 1, *range(h, kept), 0, h])
        kept_offsets, pair_offsets = offsets[: 2 + t], offsets[2 + t :]
        head_window, tail_window, sums_block = data.head_window, data.tail_window, data.sums_block
        bands, dual_w, pair_block, odd_block = data.dual_factor.bands, data.dual_w, data.pair_block, data.odd_block
        pair_mu, pair_b = pair_block[: 2 * nx], pair_block[2 * nx + 2 * w :]
        # the column-major views dgemm takes without a copy: z_pairs' += p_pairs pair_p
        pair_p_t, p_pairs_t, z_pairs_t = pair_block[2 * nx : 2 * nx + 2 * w].T, p_pairs[:h].T, z_pairs.T
        # the reduction of b is the transpose of the odd elimination: kept
        # block j takes -b_o D1^-1 Ls from its right odd neighbour o = 2j+1,
        # and kept block j+1 -b_o D1^-1 Ls' from its left one
        from_right, from_left = odd_block[:nx].T, odd_block[nx : 2 * nx].T

        def bind(b: np.ndarray) -> None:
            b_blocks = b.reshape(n + 2, nx)
            odd = b_blocks[1 : 2 * h : 2]
            b_red[:h] = b_blocks[0 : 2 * h : 2]
            b_red[h:] = b_blocks[2 * h :]
            b_red[:h] += odd @ from_right
            b_red[1 : h + 1] += odd @ from_left
            np.sum(odd, axis=0, out=odd_b_sum)
            np.dot(odd, pair_b, out=b_pairs)

        def solve() -> np.ndarray:
            # The reduced right-hand side -(G Lambda p)_red - b_red in mu's
            # buffer: one product for the heads, one for the tail. dot rather
            # than @ here and below: on operands this small the call overhead
            # is most of the cost, and dot's is smaller. The in-place updates
            # are ufunc calls with out=, since an augmented assignment would
            # rebind the name
            np.matmul(p_window, head_window, out=mu_heads)
            np.dot(p_tail, tail_window, out=mu_tail)
            np.subtract(mu_blocks, b_red, out=mu_blocks)
            # z1_K overwrites the right-hand side in the banded solve on S
            # (info is nonzero only for an illegal argument, which the shapes
            # fixed at build time rule out); the kept sums of z1 and the pair
            # sums of p go into one buffer, one product gives z's tail, r and
            # c_pair, and one dgemv takes W_K r off z1_K in place
            dpbtrs(bands, mu, lower=0, overwrite_b=1)
            np.add.reduceat(mu_blocks, kept_offsets, axis=0, out=kept_sums)
            np.add.reduceat(p_pairs, pair_offsets, axis=0, out=p_sums)
            np.dot(sums_block, sums, out=k)
            dgemv(-1.0, dual_w, r, 1.0, mu, overwrite_y=1)
            # z's stage pairs: (mu_j, mu_{j+1}) pair_mu + (p_{2j}, p_{2j+1})
            # pair_p + c_pair + b's per-pair term
            np.matmul(mu_window, pair_mu, out=z_pairs)
            dgemm(1.0, pair_p_t, p_pairs_t, 1.0, z_pairs_t, overwrite_c=1)
            np.add(z_pairs, c_pair, out=z_pairs)
            np.add(z_pairs, b_pairs, out=z_pairs)
            return z

        def multipliers(b: np.ndarray) -> np.ndarray:
            # the kept blocks' mu in place, and the odd ones by one product
            # with odd_block: row j of odd_in is what it maps to mu_{2j+1},
            # (mu_{2j}, mu_{2j+2}, p_{2j}, p_{2j+1}, b_{2j+1}, r). The ADMM
            # loop never calls this, so its buffers are made here
            odd_in, mu_all = np.empty((h, 3 * nx + 4 * w)), np.empty((n + 2, nx))
            odd_in[:, : 2 * nx] = mu_window
            odd_in[:, 2 * nx : 2 * nx + 2 * w] = p_pairs[:h]
            odd_in[:, 2 * nx + 2 * w : 3 * nx + 2 * w] = b[nx : (2 * h + 1) * nx].reshape(h, 2 * nx)[:, :nx]
            odd_in[:, 3 * nx + 2 * w :] = r
            mu_all[0 : 2 * h : 2] = mu_heads
            mu_all[2 * h :] = mu_blocks[h:]
            np.matmul(odd_in, odd_block, out=mu_all[1 : 2 * h : 2])
            return mu_all.reshape(-1)

        return cls(data=data, p=p, z=z, mu=mu, r=r, bind=bind, solve=solve, multipliers=multipliers)


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
    with the ``G'`` product before it (see :class:`KktWorkspace`). The
    multipliers are returned for residual diagnostics even though the outer
    iteration discards them: the chain forms those of the kept blocks only,
    and ``work.multipliers`` rebuilds the odd ones. With ``work`` given,
    ``z`` is its buffer. ``G`` is ``data.g.to_dense()``, whose dynamics rows
    read ``x_i - A x_{i-1} - B u_{i-1}``; ``p`` and ``b`` are only read. The
    arguments are checked here, once, and ``work`` runs the chain; the ADMM
    loop binds its ``b`` once and calls ``work.solve`` directly on its own
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
    work.bind(b)
    return work.solve(), work.multipliers(b)
