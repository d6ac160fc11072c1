"""Woodbury-split solves for banded-plus-low-rank systems, and the KKT chain.

A system ``(Gamma + U V) z = d`` with ``Gamma`` cheap to solve and ``U V`` of
small rank m is solved through the Woodbury identity

    (Gamma + U V)^-1 = Gamma^-1 - W V Gamma^-1,   W = Gamma^-1 U (I + V Gamma^-1 U)^-1

``W`` is an n-by-m matrix computed once at build time, so each call costs
one structured solve and two thin products:

    z1 = solve(Gamma, d)
    z  = z1 - W (V z1)

The equality-constrained QP update chains three such solves through the
primal-space and dual-space systems.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve

from .banded_linalg import g_matvec, gt_matvec
from .errors import DimensionMismatch, SingularSmallSystem

if TYPE_CHECKING:  # pragma: no cover
    from .mpct_problem import PrecomputedData

__all__ = ["SemiBandedSystem", "KktWorkspace", "solve_semibanded", "solve_kkt_system"]


class _StructuredFactor(Protocol):
    n: int

    def solve(self, d: np.ndarray) -> np.ndarray: ...


@dataclass(frozen=True)
class SemiBandedSystem:
    """A factored ``Gamma + U V`` system ready for repeated solves.

    ``gamma`` is any factored core exposing ``solve`` (block-diagonal or
    banded Cholesky) and ``w`` the precomputed Woodbury factor
    ``solve(Gamma, U) (I + V solve(Gamma, U))^-1``. Immutable and safe to
    share across threads.
    """

    gamma: _StructuredFactor
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray

    @property
    def n(self) -> int:
        return self.u.shape[0]

    @property
    def m(self) -> int:
        return self.u.shape[1]

    @classmethod
    def build(cls, gamma: _StructuredFactor, u: np.ndarray, v: np.ndarray) -> "SemiBandedSystem":
        """Factor the m-by-m core ``I + V solve(Gamma, U)`` and fold it into ``w``.

        Raises :class:`SingularSmallSystem` when the core is singular, which
        by the determinant identity means the full system matrix is singular.
        """
        u = np.ascontiguousarray(u, dtype=float)
        v = np.ascontiguousarray(v, dtype=float)
        if u.ndim != 2 or v.ndim != 2 or u.shape != v.T.shape:
            raise DimensionMismatch("U and V must be (n, m) and (m, n)")
        if u.shape[0] != gamma.n:
            raise DimensionMismatch("low-rank factors do not match the core dimension")
        m = u.shape[1]
        gamma_inv_u = gamma.solve(u)
        with warnings.catch_warnings():
            # singularity is detected from the factor below, not from the warning
            warnings.simplefilter("ignore", LinAlgWarning)
            lu, piv = lu_factor(np.eye(m) + v @ gamma_inv_u, check_finite=False)
        u_diag = np.abs(np.diag(lu))
        if np.any(u_diag <= m * np.finfo(float).eps * max(1.0, float(u_diag.max(initial=0.0)))):
            raise SingularSmallSystem(f"{m}x{m} core matrix is singular")
        # w^T = (I + V Gamma^-1 U)^-T (Gamma^-1 U)^T
        w = lu_solve((lu, piv), gamma_inv_u.T, trans=1, check_finite=False).T
        return cls(gamma=gamma, u=u, v=v, w=w)


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


@dataclass
class KktWorkspace:
    """Reusable buffers for the three-solve KKT chain."""

    p_rhs: np.ndarray
    w_rhs: np.ndarray

    @classmethod
    def for_problem(cls, data: "PrecomputedData") -> "KktWorkspace":
        return cls(p_rhs=np.empty(data.n_z), w_rhs=np.empty(data.m_z))


def solve_kkt_system(
    data: "PrecomputedData",
    p: np.ndarray,
    b: np.ndarray,
    work: KktWorkspace | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve the equality-constrained QP optimality system for given (p, b).

    Returns ``(z, mu)`` with ``G z = b`` and ``P z + G^T mu + p = 0``: first the
    primal-space solve for the unconstrained step, then the dual-space solve
    for the multipliers, then the primal-space solve for the final iterate.
    The multipliers are returned for residual diagnostics even though the
    outer iteration discards them.
    """
    p = np.asarray(p, dtype=float)
    b = np.asarray(b, dtype=float)
    if p.shape != (data.n_z,):
        raise DimensionMismatch(f"p must have length {data.n_z}")
    if b.shape != (data.m_z,):
        raise DimensionMismatch(f"b must have length {data.m_z}")
    if work is None:
        work = KktWorkspace.for_problem(data)

    xi = solve_semibanded(data.p_system, p)

    g_matvec(data.g, xi, out=work.w_rhs)
    work.w_rhs += b
    np.negative(work.w_rhs, out=work.w_rhs)
    mu = solve_semibanded(data.w_system, work.w_rhs)

    gt_matvec(data.g, mu, out=work.p_rhs)
    work.p_rhs += p
    np.negative(work.p_rhs, out=work.p_rhs)
    z = solve_semibanded(data.p_system, work.p_rhs)
    return z, mu
