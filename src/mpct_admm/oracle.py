"""Independent dense reference implementations, for verification only.

Everything here rebuilds the QP data explicitly from the model and
parameters and solves with plain dense factorizations (or a dense
high-accuracy first-order loop for the box-constrained problem). It shares
no code path with the structured solver, so transcription bugs on either
side cannot cancel. Dense work is capped at a few hundred decision
variables; this module is not built for performance.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgWarning, block_diag, lu_factor, lu_solve
from scipy.optimize import linprog

from .errors import DimensionMismatch, Infeasible, NotConverged, SingularKkt
from .mpct_problem import LtiModel, MpctParams

__all__ = [
    "DENSE_SIZE_LIMIT",
    "DenseQpInstance",
    "DenseQpSolution",
    "KktCertificate",
    "dense_instance",
    "dense_kkt_solve",
    "dense_qp_solve",
    "optimal_steady_state",
    "certify_kkt",
]

DENSE_SIZE_LIMIT = 800

# Fixed settings of the dense reference solves: their own penalty, the
# residual at which both stop, and their iteration cap.
REFERENCE_RHO = 1.0
REFERENCE_TOL = 1e-10
REFERENCE_MAX_ITER = 10**6


def dense_hessian(params: MpctParams) -> np.ndarray:
    nx, nu, n = params.n_x, params.n_u, params.N
    w = nx + nu
    nz = (n + 1) * w
    d = block_diag(params.Q, params.R)
    h = np.zeros((nz, nz))
    h[: n * w, : n * w] = np.kron(np.eye(n), d)
    h[n * w :, n * w :] = block_diag(n * params.Q + params.T, n * params.R + params.S)
    for i in range(n):
        h[i * w : (i + 1) * w, n * w :] = -d
        h[n * w :, i * w : (i + 1) * w] = -d
    return h


def dense_dynamics(model: LtiModel, n: int) -> np.ndarray:
    nx, nu = model.n_x, model.n_u
    w = nx + nu
    g = np.zeros(((n + 2) * nx, (n + 1) * w))
    g[:nx, :nx] = np.eye(nx)
    for i in range(1, n + 1):
        rows = slice(i * nx, (i + 1) * nx)
        g[rows, (i - 1) * w : (i - 1) * w + nx] = -model.A
        g[rows, (i - 1) * w + nx : i * w] = -model.B
        g[rows, i * w : i * w + nx] = np.eye(nx)
    rows = slice((n + 1) * nx, (n + 2) * nx)
    g[rows, n * w : n * w + nx] = np.eye(nx) - model.A
    g[rows, n * w + nx :] = -model.B
    return g


def dense_bounds(model: LtiModel, params: MpctParams) -> tuple[np.ndarray, np.ndarray]:
    eps = params.epsilon
    lo_parts, hi_parts = [], []
    for _ in range(params.N):
        lo_parts += [model.x_lo, model.u_lo]
        hi_parts += [model.x_hi, model.u_hi]
    lo_parts += [
        np.where(np.isfinite(model.x_lo), model.x_lo + eps, model.x_lo),
        np.where(np.isfinite(model.u_lo), model.u_lo + eps, model.u_lo),
    ]
    hi_parts += [
        np.where(np.isfinite(model.x_hi), model.x_hi - eps, model.x_hi),
        np.where(np.isfinite(model.u_hi), model.u_hi - eps, model.u_hi),
    ]
    return np.concatenate(lo_parts), np.concatenate(hi_parts)


@dataclass(frozen=True)
class DenseQpInstance:
    """Explicit dense QP data: 0.5 z'Hz + q'z s.t. Gz = b, lo <= z <= hi."""

    h: np.ndarray
    g: np.ndarray
    q: np.ndarray
    b: np.ndarray
    v_lo: np.ndarray
    v_hi: np.ndarray
    rho: float

    @property
    def n(self) -> int:
        return self.h.shape[0]

    @property
    def m_eq(self) -> int:
        return self.g.shape[0]


def dense_instance(
    model: LtiModel,
    params: MpctParams,
    x_t: np.ndarray,
    x_r: np.ndarray,
    u_r: np.ndarray,
) -> DenseQpInstance:
    """Explicit reconstruction of the tracking QP for one sample time."""
    nx, nu, n = model.n_x, model.n_u, params.N
    nz = (n + 1) * (nx + nu)
    if nz > DENSE_SIZE_LIMIT:
        raise ValueError(f"dense oracle is limited to {DENSE_SIZE_LIMIT} decision variables")
    x_t = np.asarray(x_t, dtype=float)
    x_r = np.asarray(x_r, dtype=float)
    u_r = np.asarray(u_r, dtype=float)
    if x_t.shape != (nx,) or x_r.shape != (nx,) or u_r.shape != (nu,):
        raise DimensionMismatch("x_t / x_r / u_r dimensions do not match the model")
    q = np.concatenate([np.zeros(n * (nx + nu)), -(params.T @ x_r), -(params.S @ u_r)])
    b = np.concatenate([x_t, np.zeros((n + 1) * nx)])
    lo, hi = dense_bounds(model, params)
    return DenseQpInstance(
        h=dense_hessian(params),
        g=dense_dynamics(model, n),
        q=q,
        b=b,
        v_lo=lo,
        v_hi=hi,
        rho=params.rho,
    )


def _factor_square(mat: np.ndarray):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LinAlgWarning)
        lu, piv = lu_factor(mat, check_finite=False)
    diag = np.abs(np.diag(lu))
    tol = mat.shape[0] * np.finfo(float).eps * max(1.0, float(diag.max(initial=0.0)))
    if np.any(diag <= tol):
        raise SingularKkt("saddle-point matrix is singular")
    return lu, piv


def _factor_saddle(h: np.ndarray, g: np.ndarray, rho: float):
    """LU factors of the saddle-point matrix ``[[h + rho I, g'], [g, 0]]``."""
    n, m = h.shape[0], g.shape[0]
    return _factor_square(np.block([[h + rho * np.eye(n), g.T], [g, np.zeros((m, m))]]))


def dense_kkt_solve(
    instance: DenseQpInstance, p: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Direct factorization solve of the equality-constrained QP system.

    Ground truth for the structured three-solve chain: returns ``(z, mu)``
    with ``G z = b`` and ``(H + rho I) z + G' mu + p = 0``.
    """
    p = np.asarray(p, dtype=float)
    b = np.asarray(b, dtype=float)
    n, m = instance.n, instance.m_eq
    if p.shape != (n,):
        raise DimensionMismatch(f"p must have length {n}")
    if b.shape != (m,):
        raise DimensionMismatch(f"b must have length {m}")
    lu = _factor_saddle(instance.h, instance.g, instance.rho)
    sol = lu_solve(lu, np.concatenate([-p, b]), check_finite=False)
    return sol[:n], sol[n:]


@dataclass(frozen=True)
class DenseQpSolution:
    z: np.ndarray
    objective: float
    lam: np.ndarray
    mu: np.ndarray
    iterations: int


def _box_qp_admm(h, q, g, b, lo, hi):
    """Dense consensus splitting on a box-constrained equality QP.

    Same mathematics as the structured solver but dense linear algebra and a
    single cached factorization; used only to manufacture reference answers.
    """
    rho, tol, max_iter = REFERENCE_RHO, REFERENCE_TOL, REFERENCE_MAX_ITER
    n, m = h.shape[0], g.shape[0]
    lu = _factor_saddle(h, g, rho)
    rhs = np.empty(n + m)
    rhs[n:] = b
    v = np.clip(np.zeros(n), lo, hi)
    lam = np.zeros(n)
    mu = np.zeros(m)
    k = 0
    converged = False
    for k in range(1, max_iter + 1):
        rhs[:n] = -(q + lam - rho * v)
        sol = lu_solve(lu, rhs, check_finite=False)
        z = sol[:n]
        mu = sol[n:]
        v_next = np.clip(z + lam / rho, lo, hi)
        lam += rho * (z - v_next)
        primal = float(np.linalg.norm(z - v_next, np.inf))
        dual = float(np.linalg.norm(v_next - v, np.inf))
        v = v_next
        if primal <= tol and dual <= tol:
            converged = True
            break
    return v, lam, mu, k, converged


def _require_feasible(g, b, lo, hi, what: str) -> None:
    """Raise :class:`Infeasible` naming ``what`` when HiGHS proves ``{z : g z = b,
    lo <= z <= hi}`` empty, before any iteration can stall on it."""
    probe = linprog(
        c=np.zeros(g.shape[1]), A_eq=g, b_eq=b, bounds=np.column_stack([lo, hi]), method="highs"
    )
    if probe.status == 2:
        raise Infeasible(f"no admissible {what}")


def dense_qp_solve(instance: DenseQpInstance) -> DenseQpSolution:
    """High-accuracy reference solution of the full box-constrained QP.

    The penalty here is independent of the structured solver's (the minimizer
    does not depend on it). Raises :class:`Infeasible` when the constraint
    set is empty and :class:`NotConverged` instead of returning a doubtful
    answer.
    """
    _require_feasible(
        instance.g, instance.b, instance.v_lo, instance.v_hi, "trajectory from x_t inside the box"
    )
    v, lam, mu, k, ok = _box_qp_admm(
        instance.h, instance.q, instance.g, instance.b, instance.v_lo, instance.v_hi
    )
    if not ok:
        raise NotConverged(f"dense reference solve stalled after {k} iterations")
    objective = float(0.5 * v @ instance.h @ v + instance.q @ v)
    return DenseQpSolution(z=v, objective=objective, lam=lam, mu=mu, iterations=k)


@dataclass(frozen=True)
class KktCertificate:
    """Optimality residuals of a candidate primal/dual pair, relative form.

    Each residual is divided by the infinity norms of the problem data and
    candidate magnitudes entering it: stationarity by
    ``1 + max(|H|(1 + |z|), |q|, |lam|, |G' mu|)``, equality by
    ``1 + |G|(1 + |z|) + |b|``, bounds by ``1 + |z|`` and complementarity by
    ``(1 + |lam|)(1 + |z|)``, with ``|H|``/``|G|`` the induced infinity norms.
    """

    stationarity: float
    equality: float
    bounds: float
    complementarity: float

    @property
    def max_residual(self) -> float:
        return max(self.stationarity, self.equality, self.bounds, self.complementarity)


def certify_kkt(instance: DenseQpInstance, z: np.ndarray, lam: np.ndarray) -> KktCertificate:
    """Check a candidate solution with box multipliers against the KKT system.

    The equality multipliers are recomputed independently by least squares,
    so the certificate does not trust any solver internals. Positive parts of
    ``lam`` act on upper bounds, negative parts on lower bounds.
    """
    z = np.asarray(z, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if z.shape != (instance.n,) or lam.shape != (instance.n,):
        raise DimensionMismatch("candidate dimensions do not match the instance")
    hz = instance.h @ z
    grad = hz + instance.q + lam
    mu, *_ = np.linalg.lstsq(instance.g.T, -grad, rcond=None)
    gt_mu = instance.g.T @ mu
    stat = float(np.linalg.norm(grad + gt_mu, np.inf))
    z_mag = 1.0 + float(np.abs(z).max())
    h_norm = float(np.abs(instance.h).sum(axis=1).max())
    g_norm = float(np.abs(instance.g).sum(axis=1).max())
    stat_scale = 1.0 + max(
        h_norm * z_mag,
        float(np.abs(instance.q).max()),
        float(np.abs(lam).max()),
        float(np.abs(gt_mu).max()),
    )
    eq = float(np.linalg.norm(instance.g @ z - instance.b, np.inf))
    eq_scale = 1.0 + g_norm * z_mag + float(np.abs(instance.b).max())
    viol_lo = np.maximum(instance.v_lo - z, 0.0)
    viol_hi = np.maximum(z - instance.v_hi, 0.0)
    bnd = float(max(viol_lo.max(initial=0.0), viol_hi.max(initial=0.0)))
    bnd_scale = 1.0 + float(np.abs(z).max())
    lam_up = np.maximum(lam, 0.0)
    lam_dn = np.maximum(-lam, 0.0)
    # unbounded coordinates have no complementarity product; the multiplier
    # itself is the violation there
    hi_fin = np.isfinite(instance.v_hi)
    lo_fin = np.isfinite(instance.v_lo)
    comp_up = np.where(hi_fin, lam_up * np.abs(np.where(hi_fin, instance.v_hi, z) - z), lam_up)
    comp_dn = np.where(lo_fin, lam_dn * np.abs(z - np.where(lo_fin, instance.v_lo, z)), lam_dn)
    comp = float(max(comp_up.max(initial=0.0), comp_dn.max(initial=0.0)))
    comp_scale = (1.0 + float(np.abs(lam).max())) * (1.0 + float(np.abs(z).max()))
    return KktCertificate(
        stationarity=stat / stat_scale,
        equality=eq / eq_scale,
        bounds=bnd / bnd_scale,
        complementarity=comp / comp_scale,
    )


def optimal_steady_state(
    model: LtiModel,
    params: MpctParams,
    x_r: np.ndarray,
    u_r: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Admissible equilibrium closest to the reference in the terminal metric.

    Minimizes the terminal-cost distance over pairs with ``x = A x + B u``
    inside the epsilon-tightened box. This is the limit the closed loop
    settles at when the reference itself is not admissible.
    """
    nx, nu = model.n_x, model.n_u
    x_r = np.asarray(x_r, dtype=float)
    u_r = np.asarray(u_r, dtype=float)
    if x_r.shape != (nx,) or u_r.shape != (nu,):
        raise DimensionMismatch("reference dimensions do not match the model")
    # the tightened box of the reference block, the last n_x + n_u entries
    lo, hi = (bound[-(nx + nu) :] for bound in dense_bounds(model, params))
    # the equilibrium row block of the dynamics matrix, [I - A, -B]
    g_eq = dense_dynamics(model, 0)[nx:]
    b_eq = np.zeros(nx)
    _require_feasible(g_eq, b_eq, lo, hi, "steady state inside the tightened box")

    h = block_diag(2.0 * params.T, 2.0 * params.S)
    q = np.concatenate([-2.0 * (params.T @ x_r), -2.0 * (params.S @ u_r)])
    v, _, _, k, ok = _box_qp_admm(h, q, g_eq, b_eq, lo, hi)
    if not ok:
        raise NotConverged(f"steady-state solve stalled after {k} iterations")
    return v[:nx], v[nx:]
