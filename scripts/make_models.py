#!/usr/bin/env python3
"""Regenerate the bundled model and scenario JSON files.

The 8-state/2-input model is ball-and-plate-like: two decoupled chains
(position, velocity, plate angle, plate angular velocity) per axis, with a
rolling-ball coupling of 5g/7 between angle and acceleration, discretized
exactly under zero-order hold at 0.2 s. Bounds, cost diagonals, horizon and
tightening follow the published benchmark configuration for this system
class; the A/B matrices themselves are a generic textbook linearization, not
taken from any specific rig. Its ADMM penalty is not picked by hand:
``null_space_rho`` evaluates the rule of Ghadimi et al., "Optimal parameter
selection for the ADMM: quadratic problems" (IEEE TAC 2015), at the file's
own horizon. The double integrator and the mass-spring-damper keep rho = 1:
at its rule value, 0.165, the double integrator's unreachable reference,
where the solution rides a bound, stops at the iteration cap on 2 of its 50
cold starts.

It imports ``mpct_admm`` from this checkout's ``src``, so it needs no
PYTHONPATH:

    python3 scripts/make_models.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import scipy.linalg

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from mpct_admm import problem_from_dict  # noqa: E402
from mpct_admm.oracle import dense_dynamics, dense_hessian  # noqa: E402

MODELS_DIR = ROOT / "src" / "mpct_admm" / "models"


def zoh(a_c: np.ndarray, b_c: np.ndarray, ts: float) -> tuple[np.ndarray, np.ndarray]:
    n, m = b_c.shape
    blk = np.zeros((n + m, n + m))
    blk[:n, :n] = a_c
    blk[:n, n:] = b_c
    exp = scipy.linalg.expm(blk * ts)
    return exp[:n, :n], exp[:n, n:]


def null_space_rho(model: dict, params: dict) -> float:
    """``sqrt(lambda_min lambda_max)`` of the QP Hessian reduced to the null space of ``G``.

    ``model`` and ``params`` are the sections of an ``mpct-v1`` file; only
    the costs and the horizon of ``params`` are read. ``G`` is the
    dynamics-constraint matrix at that horizon. The value is rounded to 3
    significant digits, so that the written file does not depend on the
    LAPACK build.
    """
    lti, mpct = problem_from_dict({"format": "mpct-v1", "model": model, "params": params})
    basis = scipy.linalg.null_space(dense_dynamics(lti, mpct.N))
    eig = np.linalg.eigvalsh(basis.T @ dense_hessian(mpct) @ basis)
    return float(f"{np.sqrt(eig[0] * eig[-1]):.3g}")


def ball_plate_like() -> dict:
    ts = 0.2
    k = 5.0 * 9.81 / 7.0  # rolling solid ball on a tilted plane
    a_axis = np.array([[0, 1, 0, 0], [0, 0, k, 0], [0, 0, 0, 1], [0, 0, 0, 0]], dtype=float)
    b_axis = np.array([[0.0], [0.0], [0.0], [1.0]])
    ad, bd = zoh(a_axis, b_axis, ts)
    a = scipy.linalg.block_diag(ad, ad)
    b = np.zeros((8, 2))
    b[:4, 0:1] = bd
    b[4:, 1:2] = bd
    model = {
        "A": a.tolist(),
        "B": b.tolist(),
        "x_lo": [0.0, -1.0, -0.785, "-inf", 0.0, -1.0, -0.785, "-inf"],
        "x_hi": [2.0, 1.0, 0.785, "inf", 2.0, 1.0, 0.785, "inf"],
        "u_lo": [-0.2, -0.2],
        "u_hi": [0.2, 0.2],
    }
    weights = {
        "Q": [10.0, 0.05, 0.05, 0.05, 10.0, 0.05, 0.05, 0.05],
        "R": [0.5, 0.5],
        "T": [200.0, 50.0, 50.0, 50.0, 200.0, 50.0, 50.0, 50.0],
        "S": [0.3, 0.3],
        "N": 30,
    }
    return {
        "format": "mpct-v1",
        "description": (
            "Ball-and-plate-like example: 8 states (position, velocity, plate angle, "
            "plate angular velocity per axis), 2 inputs (angular accelerations), "
            "zero-order hold at 0.2 s with a 5g/7 rolling-ball coupling. The A/B "
            "matrices are a generic textbook linearization, not measured plant data."
        ),
        "model": model,
        "params": {
            **weights,
            "epsilon": 1e-6,
            "rho": null_space_rho(model, weights),
            "eps_primal": 1e-4,
            "eps_dual": 1e-4,
            "max_iter": 4000,
        },
    }


def double_integrator() -> dict:
    ts = 0.1
    a = [[1.0, ts], [0.0, 1.0]]
    b = [[0.5 * ts * ts], [ts]]
    return {
        "format": "mpct-v1",
        "description": "Double integrator (position, velocity) sampled at 0.1 s.",
        "model": {
            "A": a,
            "B": b,
            "x_lo": [-5.0, -2.0],
            "x_hi": [5.0, 2.0],
            "u_lo": [-1.0],
            "u_hi": [1.0],
        },
        "params": {
            "Q": [1.0, 0.1],
            "R": [0.1],
            "T": [20.0, 2.0],
            "S": [0.2],
            "N": 10,
            "epsilon": 1e-5,
            "rho": 1.0,
            "eps_primal": 1e-4,
            "eps_dual": 1e-4,
            "max_iter": 4000,
        },
    }


def mass_spring() -> dict:
    # unit mass, stiffness 2, damping 0.3, force input, zero-order hold at 0.1 s
    ts = 0.1
    a_c = np.array([[0.0, 1.0], [-2.0, -0.3]])
    b_c = np.array([[0.0], [1.0]])
    ad, bd = zoh(a_c, b_c, ts)
    return {
        "format": "mpct-v1",
        "description": "Mass-spring-damper (m=1, k=2, c=0.3) sampled at 0.1 s.",
        "model": {
            "A": ad.tolist(),
            "B": bd.tolist(),
            "x_lo": [-3.0, -4.0],
            "x_hi": [3.0, 4.0],
            "u_lo": [-2.0],
            "u_hi": [2.0],
        },
        "params": {
            "Q": [2.0, 0.2],
            "R": [0.2],
            "T": [30.0, 3.0],
            "S": [0.5],
            "N": 12,
            "epsilon": 1e-5,
            "rho": 1.0,
            "eps_primal": 1e-4,
            "eps_dual": 1e-4,
            "max_iter": 4000,
        },
    }


def ball_plate_scenario() -> dict:
    return {
        "format": "mpct-scenario-v1",
        "description": (
            "Random-initial-state benchmark: ball positions uniform in [0.3, 1.8], "
            "velocities in [-0.2, 0.2], plate states at zero. The unreachable "
            "reference violates the position bounds."
        ),
        "problem": "ball_plate_like.json",
        "references": [
            {"label": "reachable", "x_r": [1.0, 0, 0, 0, 0.8, 0, 0, 0], "u_r": [0.0, 0.0]},
            {"label": "unreachable", "x_r": [2.15, 0, 0, 0, 2.2, 0, 0, 0], "u_r": [0.0, 0.0]},
        ],
        "initial_state": {
            "intervals": [
                [0.3, 1.8],
                [-0.2, 0.2],
                [0.0, 0.0],
                [0.0, 0.0],
                [0.3, 1.8],
                [-0.2, 0.2],
                [0.0, 0.0],
                [0.0, 0.0],
            ]
        },
        "trials": 500,
        "steps": 100,
        "seed": 20240915,
        "sample_time": 0.2,
    }


def double_integrator_scenario() -> dict:
    return {
        "format": "mpct-scenario-v1",
        "description": "Small closed-loop scenario for the double integrator.",
        "problem": "double_integrator.json",
        "references": [
            {"label": "reachable", "x_r": [2.0, 0.0], "u_r": [0.0]},
            {"label": "unreachable", "x_r": [8.0, 0.0], "u_r": [0.0]},
        ],
        "initial_state": {"intervals": [[-2.0, 2.0], [-0.5, 0.5]]},
        "trials": 50,
        "steps": 80,
        "seed": 7,
        "sample_time": 0.1,
    }


def main() -> None:
    MODELS_DIR.mkdir(parents=True, exist_ok=True)
    outputs = {
        "ball_plate_like.json": ball_plate_like(),
        "double_integrator.json": double_integrator(),
        "mass_spring.json": mass_spring(),
        "scenario_ball_plate.json": ball_plate_scenario(),
        "scenario_double_integrator.json": double_integrator_scenario(),
    }
    for name, obj in outputs.items():
        path = MODELS_DIR / name
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2)
            fh.write("\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
