"""The full ADMM iteration for the tracking QP.

Each pass solves the equality-constrained QP for the unprojected iterate,
projects the relaxed point onto the (tightened) box, and takes a dual ascent
step on the consensus constraint. Exit when both the consensus gap and the
projected-iterate change drop below their tolerances in the infinity norm.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionMismatch, NonFiniteInput
from .mpct_problem import PrecomputedData, _whole_number, assemble_online
from .semiband_solver import KktWorkspace, _solve_kkt

__all__ = [
    "SolveStatus",
    "AdmmState",
    "SolveReport",
    "admm_solve",
    "v_update",
    "cold_start",
]


class SolveStatus(str, Enum):
    CONVERGED = "converged"
    MAX_ITERATIONS = "max_iterations"
    NUMERICAL_ERROR = "numerical_error"


@dataclass
class AdmmState:
    """Iterates carried across iterations and across sample times (warm start)."""

    z: np.ndarray
    v: np.ndarray
    lam: np.ndarray
    k: int = 0


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one solve: status, residuals, timings and extracted action.

    ``control_action`` is read off the projected iterate's first input block,
    so it respects the input box even when the iteration cap is hit.
    """

    status: SolveStatus
    iterations: int
    primal_residual: float
    dual_residual: float
    control_action: np.ndarray
    artificial_reference: tuple[np.ndarray, np.ndarray]
    solve_time: float
    avg_iter_time: float


def v_update(
    z_next: np.ndarray,
    lam: np.ndarray,
    rho: float,
    v_lo: np.ndarray,
    v_hi: np.ndarray,
) -> np.ndarray:
    """Componentwise box projection of the relaxed point ``z + lam / rho``.

    This is the exact minimizer of the projection subproblem, which separates
    per coordinate; infinite bounds never clip.
    """
    # written so that NaN fails too
    if not rho > 0.0:
        raise ValueError(f"rho must be positive, got {rho!r}")
    z_next = np.asarray(z_next, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if not (z_next.shape == lam.shape == np.shape(v_lo) == np.shape(v_hi)):
        raise DimensionMismatch("v_update operands must share one shape")
    return np.clip(z_next + lam / rho, v_lo, v_hi)


def cold_start(data: PrecomputedData) -> AdmmState:
    """Zero iterates, with the projected copy clipped into the box."""
    v = np.clip(np.zeros(data.n_z), data.v_lo, data.v_hi)
    return AdmmState(z=v.copy(), v=v, lam=np.zeros(data.n_z))


def admm_solve(
    data: PrecomputedData,
    x_t: np.ndarray,
    x_r: np.ndarray,
    u_r: np.ndarray,
    warm: AdmmState | None = None,
    *,
    eps_primal: float | None = None,
    eps_dual: float | None = None,
    max_iter: int | None = None,
) -> tuple[SolveReport, AdmmState]:
    """Run the ADMM iteration for the current state and reference.

    Returns the report and the final iterates; feeding those iterates back as
    ``warm`` at the next sample time shortens the solve without changing the
    limit point. Tolerance/iteration arguments override the precomputed
    parameter values for this call only.
    """
    qp = assemble_online(data, x_t, x_r, u_r)
    params = data.params
    rho = params.rho
    eps_p = params.eps_primal if eps_primal is None else float(eps_primal)
    eps_d = params.eps_dual if eps_dual is None else float(eps_dual)
    cap = params.max_iter if max_iter is None else _whole_number(max_iter, "max_iter", 1)
    # written so that NaN fails too
    if not (eps_p > 0.0 and eps_d > 0.0):
        raise ValueError("tolerances must be positive")

    if warm is None:
        state = cold_start(data)
    else:
        if warm.v.shape != (data.n_z,) or warm.lam.shape != (data.n_z,):
            raise DimensionMismatch("warm state does not match the problem size")
        if not (np.isfinite(warm.v).all() and np.isfinite(warm.lam).all()):
            raise NonFiniteInput("warm state contains NaN or infinity")
        state = AdmmState(z=warm.z.copy(), v=warm.v.copy(), lam=warm.lam.copy())

    v = state.v
    lam = state.lam
    z = state.z
    work = KktWorkspace.for_problem(data)
    # the chain runs with the pin row of G negated, and so with b's pin block
    b = qp.b.copy()
    np.negative(b[: data.n_x], out=b[: data.n_x])
    # per-solve buffers; v and v_next swap roles every iteration, and the
    # rows of gaps receive z - v_next and v_next - v
    p = np.empty(data.n_z)
    v_next = np.empty(data.n_z)
    gaps = np.empty((2, data.n_z))
    step, change = gaps
    status = SolveStatus.MAX_ITERATIONS
    primal = np.inf
    dual = np.inf
    k = 0

    start = time.perf_counter()
    # non-finite iterates are detected explicitly below; keep numpy quiet
    with np.errstate(invalid="ignore", over="ignore"):
        for k in range(1, cap + 1):
            # the operation order of q + lam - rho * v, solve_kkt_system,
            # v_update and lam += rho * (z - v_next), so iterates match them
            # bit for bit; the operands were checked above
            np.add(qp.q, lam, out=p)
            np.multiply(rho, v, out=step)
            p -= step
            z, _ = _solve_kkt(data, p, b, work)
            np.divide(lam, rho, out=v_next)
            np.add(z, v_next, out=v_next)
            np.clip(v_next, qp.v_lo, qp.v_hi, out=v_next)
            np.subtract(z, v_next, out=step)
            np.subtract(v_next, v, out=change)
            primal, dual = np.abs(gaps).max(axis=1).tolist()
            step *= rho
            lam += step
            v, v_next = v_next, v
            if not (math.isfinite(primal) and math.isfinite(dual)):
                status = SolveStatus.NUMERICAL_ERROR
                break
            if primal <= eps_p and dual <= eps_d:
                status = SolveStatus.CONVERGED
                break
    elapsed = time.perf_counter() - start

    nx, nu = data.n_x, data.n_u
    u_t = v[nx : nx + nu].copy()
    xs = v[data.n_z - nx - nu : data.n_z - nu].copy()
    us = v[data.n_z - nu :].copy()
    if data.scaling is not None:
        u_t = data.scaling.unscale_input(u_t)
        xs = data.scaling.unscale_state(xs)
        us = data.scaling.unscale_input(us)

    report = SolveReport(
        status=status,
        iterations=k,
        primal_residual=primal,
        dual_residual=dual,
        control_action=u_t,
        artificial_reference=(xs, us),
        solve_time=elapsed,
        avg_iter_time=elapsed / max(k, 1),
    )
    return report, AdmmState(z=z, v=v, lam=lam, k=k)
