"""The full ADMM iteration for the tracking QP.

Each pass solves the equality-constrained QP for the unprojected iterate,
projects the relaxed point onto the (tightened) box, and takes a dual ascent
step on the consensus constraint. Exit when both the consensus gap and the
projected-iterate change drop below their tolerances in the infinity norm.

The loop runs on the scaled dual ``u = lam / rho`` (Boyd et al., "ADMM",
2011, section 3.1.1): the QP's linear term is ``rho (u - v) + q``, the
relaxed point is ``z + u`` and the dual step is ``u += z - v``. The KKT
chain's factors carry ``rho`` on the linear term's side, so it reads the
term divided by ``rho``, ``(u - v) + q / rho``, and no iteration divides or
multiplies by ``rho``. Warm states and returned states hold ``lam`` itself,
converted once on the way in and once on the way out.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .mpct_problem import PrecomputedData, _finite_vector, assemble_online
from .semiband_solver import KktWorkspace

__all__ = [
    "SolveStatus",
    "AdmmState",
    "SolveReport",
    "admm_solve",
    "cold_start",
]


class SolveStatus(str, Enum):
    CONVERGED = "converged"
    MAX_ITERATIONS = "max_iterations"
    NUMERICAL_ERROR = "numerical_error"


@dataclass
class AdmmState:
    """Iterates carried across iterations and across sample times (warm start).

    A warm start reads ``v`` and ``lam``; ``z`` is returned for inspection.
    """

    z: np.ndarray
    v: np.ndarray
    lam: np.ndarray


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
) -> tuple[SolveReport, AdmmState]:
    """Run the ADMM iteration for the current state and reference.

    Returns the report and the final iterates; feeding those iterates back as
    ``warm`` at the next sample time shortens the solve without changing the
    limit point. The penalty, the exit tolerances and the iteration cap are
    read from ``data.params``; to solve with other tolerances or another cap,
    pass data whose params were replaced (see :class:`PrecomputedData`).
    """
    qp = assemble_online(data, x_t, x_r, u_r)
    params = data.params
    rho, eps_p, eps_d = params.rho, params.eps_primal, params.eps_dual

    # warm.z is not read, since every iteration computes z before it uses it
    if warm is None:
        # fresh, finite buffers of the right length: nothing to check
        cold = cold_start(data)
        v, lam = cold.v, cold.lam
    else:
        # float, whatever the caller's dtype; both are only read, since the
        # loop copies them into its own state
        v = _finite_vector(warm.v, data.n_z, "warm state v")
        lam = _finite_vector(warm.lam, data.n_z, "warm state lam")

    work = KktWorkspace.for_problem(data)
    work.bind(qp.b)
    solve, v_lo, v_hi = work.solve, qp.v_lo, qp.v_hi
    # per-solve buffers. The chain reads p / rho from work.p, which is u - v
    # + q / rho. The state (u, v) and the next one are stacked (2, n_z)
    # rows and swap roles every iteration, so one subtract writes both gaps,
    # u+ - u (z - v+ up to rounding) and v+ - v, into the rows of gaps
    p = work.p
    s0, s1, gaps = np.empty((3, 2, data.n_z))
    state, nxt = (s0, s0[0], s0[1]), (s1, s1[0], s1[1])
    status = SolveStatus.MAX_ITERATIONS
    primal = dual = inf = math.inf
    k = 0

    # non-finite iterates are detected explicitly below; keep numpy quiet,
    # also where a huge warm lam overflows lam / rho or rho * u
    with np.errstate(invalid="ignore", over="ignore"):
        q = qp.q / rho
        state[1][...] = lam / rho
        state[2][...] = v
        start = time.perf_counter()
        for k in range(1, params.max_iter + 1):
            # the operation order of p = (u - v) + q / rho, work.solve,
            # v+ = clip(z + u, v_lo, v_hi) and u+ = (z + u) - v+, so
            # iterates match them bit for bit; the operands were checked above
            s, u, v = state
            s_next, u_next, v_next = nxt
            np.subtract(u, v, out=p)
            p += q
            z = solve()
            np.add(z, u, out=u_next)
            np.minimum(u_next, v_hi, out=v_next)
            np.maximum(v_next, v_lo, out=v_next)
            u_next -= v_next
            np.subtract(s_next, s, out=gaps)
            np.abs(gaps, out=gaps)
            primal, dual = np.maximum.reduce(gaps, axis=1).tolist()
            state, nxt = nxt, state
            # NaN fails both comparisons, so this needs no call
            if not (primal < inf and dual < inf):
                status = SolveStatus.NUMERICAL_ERROR
                break
            if primal <= eps_p and dual <= eps_d:
                status = SolveStatus.CONVERGED
                break
        elapsed = time.perf_counter() - start
        _, u, v = state
        lam = rho * u

    nx, nu = data.n_x, data.n_u
    u_t = v[nx : nx + nu].copy()
    xs = v[data.n_z - nx - nu : data.n_z - nu].copy()
    us = v[data.n_z - nu :].copy()

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
    return report, AdmmState(z=z, v=v, lam=lam)
