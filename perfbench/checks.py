"""Output checks against the dense oracle, run outside the timed regions.

The oracle knows nothing about diagonal scaling, so every comparison is made
in the scaled variables the solver iterates on, as ``mpct check`` does. The
dense instance is assembled here from the oracle's own builders because
``oracle.dense_instance`` refuses problems above 800 variables.

Tolerances follow from the solver's exit tolerances ``eps = max(eps_primal,
eps_dual)`` with the same ratios the acceptance tests apply:

* KKT certificate: the largest relative residual may not exceed ``eps``
  (acceptance 3 asks for 1e-6 at 1e-6 exit tolerances). A solve that stopped
  on the iteration cap is held to its own reported residuals instead.
* Distance to ``dense_qp_solve``: at most ``100 * eps`` in the infinity norm
  (acceptance 3 asks for 1e-4 at 1e-6).
* Closed loop: the final state lies within ``10 * eps`` of
  ``optimal_steady_state`` (acceptance 6 asks for 1e-3 at 1e-4).
"""

from __future__ import annotations

import numpy as np

from mpct_admm import oracle
from mpct_admm.admm_solver import SolveStatus

CERT_RATIO = 1.0
GAP_RATIO = 100.0
STEADY_RATIO = 10.0


def exit_eps(params) -> float:
    return max(params.eps_primal, params.eps_dual)


def scaled_instance(data, x_t, x_r, u_r) -> oracle.DenseQpInstance:
    """The dense QP ``data`` encodes, in the scaled variables ``data`` already holds."""
    model, params, scaling = data.model, data.params, data.scaling
    if scaling is not None:
        x_t, x_r, u_r = scaling.scale_state(x_t), scaling.scale_state(x_r), scaling.scale_input(u_r)
    n, nx = params.N, model.n_x
    q = np.concatenate([np.zeros(n * (nx + model.n_u)), -(params.T @ x_r), -(params.S @ u_r)])
    b = np.concatenate([x_t, np.zeros((n + 1) * nx)])
    lo, hi = oracle.dense_bounds(model, params)
    return oracle.DenseQpInstance(
        h=oracle.dense_hessian(params),
        g=oracle.dense_dynamics(model, n),
        q=q,
        b=b,
        v_lo=lo,
        v_hi=hi,
        rho=params.rho,
    )


def check_solve(data, x_t, x_r, u_r, report, state, *, against_dense: bool) -> list[dict]:
    """Certify one solve's ``(v, lam)``; optionally compare with the dense solution."""
    eps = exit_eps(data.params)
    tol = CERT_RATIO * eps
    if report.status is not SolveStatus.CONVERGED:
        tol = max(tol, report.primal_residual, report.dual_residual)
    instance = scaled_instance(data, x_t, x_r, u_r)
    cert = oracle.certify_kkt(instance, state.v, state.lam).max_residual
    results = [_result("kkt_certificate", cert, tol)]
    if against_dense:
        gap = float(np.abs(state.v - oracle.dense_qp_solve(instance).z).max())
        results.append(_result("dense_qp_gap", gap, GAP_RATIO * eps))
    return results


def check_steady_state(model, params, reference, final_state) -> dict:
    """The closed loop's last state against the closest admissible equilibrium.

    ``model`` and ``params`` are the unscaled ones the plant runs on.
    """
    x_hat, _ = oracle.optimal_steady_state(model, params, reference.x_r, reference.u_r)
    err = float(np.abs(final_state - x_hat).max())
    return _result("steady_state_gap", err, STEADY_RATIO * exit_eps(params))


def _result(kind: str, value: float, tol: float) -> dict:
    return {"kind": kind, "value": float(value), "tol": float(tol), "ok": bool(value <= tol)}
