"""Command-line interface.

Subcommands: ``solve``, ``simulate``, ``bench`` and ``check``.
Exit codes: 0 on success, 2 when a solve did not converge, 3 on invalid
input (bad files, schema violations, dimension errors, and usage errors
such as an unknown flag or a malformed option value).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .admm_solver import AdmmState, SolveStatus, admm_solve
from .errors import MpctError
from .harness import (
    bench_stats_dict,
    emit_plot_data,
    load_scenario,
    run_benchmark,
    sample_initial_states,
    simulate_closed_loop,
    write_trials_csv,
)
from .mpct_problem import _finite_vector, build_problem, load_problem
from .oracle import certify_kkt, dense_instance, dense_kkt_solve, dense_qp_solve
from .semiband_solver import solve_kkt_system

EXIT_OK = 0
EXIT_NOT_CONVERGED = 2
EXIT_INVALID_INPUT = 3
STATE_FORMAT = "mpct-state-v1"


def _float_list(text: str) -> np.ndarray:
    return np.asarray([float(tok) for tok in text.replace(",", " ").split()], dtype=float)


def _warm_vector(obj: dict, key: str, path: str, n: int) -> np.ndarray:
    try:
        value = np.asarray(obj[key], dtype=float)
    except (KeyError, TypeError, ValueError):
        raise ValueError(f"{path}: warm state needs a numeric {key!r} array") from None
    return _finite_vector(value, n, f"{path}: warm state {key}")


def cmd_solve(args) -> int:
    data = build_problem(*load_problem(args.problem))
    x0 = _float_list(args.x0)
    xr = _float_list(args.xr)
    ur = _float_list(args.ur) if args.ur else np.zeros(data.n_u)
    warm = None
    if args.warm:
        with open(args.warm, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        if not isinstance(obj, dict) or obj.get("format") != STATE_FORMAT:
            raise ValueError(f"{args.warm}: not an {STATE_FORMAT} warm state with v and lam")
        v, lam = (_warm_vector(obj, key, args.warm, data.n_z) for key in ("v", "lam"))
        # a warm start reads v and lam only, so a saved z is ignored
        warm = AdmmState(z=v, v=v, lam=lam)
    report, state = admm_solve(data, x0, xr, ur, warm=warm)
    out = {
        "status": report.status.value,
        "iterations": report.iterations,
        "primal_residual": report.primal_residual,
        "dual_residual": report.dual_residual,
        "control_action": report.control_action.tolist(),
        "artificial_reference": {
            "x_s": report.artificial_reference[0].tolist(),
            "u_s": report.artificial_reference[1].tolist(),
        },
        "solve_time_s": report.solve_time,
        "avg_iter_time_s": report.avg_iter_time,
    }
    print(json.dumps(out, indent=2))
    if args.save_state:
        with open(args.save_state, "w", encoding="utf-8") as fh:
            json.dump({"format": STATE_FORMAT, **{k: a.tolist() for k, a in vars(state).items()}}, fh)
    return EXIT_OK if report.status is SolveStatus.CONVERGED else EXIT_NOT_CONVERGED


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    labels = [r.label for r in scenario.references]
    if args.reference is None:
        ref_index = 0
    elif args.reference in labels:
        ref_index = labels.index(args.reference)
    else:
        raise ValueError(f"unknown reference {args.reference!r}; scenario has {labels}")
    if not 0 <= args.trial < scenario.trials:
        raise ValueError(f"trial index must be in [0, {scenario.trials})")
    data = build_problem(scenario.model, scenario.params)
    x0 = sample_initial_states(scenario, ref_index)[args.trial]
    trajectory = simulate_closed_loop(
        data,
        scenario.model,
        x0,
        scenario.references[ref_index],
        scenario.steps,
        scenario.sample_time,
    )
    with open(args.output, "w", encoding="utf-8", newline="") as fh:
        emit_plot_data(trajectory, fh)
    not_converged = sum(s is not SolveStatus.CONVERGED for s in trajectory.statuses)
    print(
        f"simulated {trajectory.steps} steps ({not_converged} not converged); "
        f"trajectory written to {args.output}"
    )
    return EXIT_OK if not_converged == 0 else EXIT_NOT_CONVERGED


def cmd_bench(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    if args.trials is not None:
        scenario = replace(scenario, trials=args.trials)
    results = run_benchmark(scenario)
    stats = bench_stats_dict(results)
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(stats, fh, indent=2)
    trials_path = args.per_trial or str(Path(args.output).with_suffix("")) + "_trials.csv"
    with open(trials_path, "w", encoding="utf-8", newline="") as fh:
        write_trials_csv(results, fh)
    for row in stats["results"]:
        print(
            f"{row['label']}: rho={row['rho']}, trials={row['trials']}, "
            f"converged={row['converged']}, median iterations={row['iterations']['median']:.1f}"
        )
    print(f"aggregates written to {args.output}, per-trial records to {trials_path}")
    all_converged = all(row["converged"] == row["trials"] for row in stats["results"])
    return EXIT_OK if all_converged else EXIT_NOT_CONVERGED


def cmd_check(args) -> int:
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    model, params = load_problem(args.problem)
    # 1e-6 whatever the file's settings; the dual gap |v+ - v| carries no rho
    params = replace(params, eps_primal=1e-6, eps_dual=1e-6 / max(1.0, params.rho), max_iter=200000)
    data = build_problem(model, params)
    rng = np.random.default_rng(args.seed if args.seed is not None else 0)
    nx, nu = model.n_x, model.n_u
    # x_t lies strictly inside the state box: 1 inside the finite bound of a
    # half-bounded coordinate, midway between two finite ones, else 0
    lo, hi = model.x_lo, model.x_hi
    x_t = np.where(np.isfinite(hi), hi - 1.0, np.where(np.isfinite(lo), lo + 1.0, 0.0))
    both_finite = np.isfinite(lo) & np.isfinite(hi)
    x_t[both_finite] = 0.5 * (lo[both_finite] + hi[both_finite])
    x_r = rng.uniform(-1.0, 1.0, nx)
    u_r = np.zeros(nu)
    instance = dense_instance(model, params, x_t, x_r, u_r)

    worst = 0.0
    for _ in range(args.samples):
        p = rng.standard_normal(data.n_z)
        b = rng.standard_normal(data.m_z)
        z_struct, _ = solve_kkt_system(data, p, b)
        z_dense, _ = dense_kkt_solve(instance, p, b)
        err = np.linalg.norm(z_struct - z_dense, np.inf) / (1.0 + np.linalg.norm(z_dense, np.inf))
        worst = max(worst, float(err))
    kkt_ok = worst <= 1e-7
    print(f"structured vs dense KKT ({args.samples} samples): worst relative error {worst:.2e} "
          f"-> {'PASS' if kkt_ok else 'FAIL'}")

    report, state = admm_solve(data, x_t, x_r, u_r)
    admm_ok = report.status is SolveStatus.CONVERGED
    print(f"ADMM at eps_primal {params.eps_primal:.1e}, eps_dual {params.eps_dual:.1e}: "
          f"{report.status.value} in {report.iterations} iterations")
    if admm_ok:
        reference = dense_qp_solve(instance)
        gap = float(np.linalg.norm(state.v - reference.z, np.inf))
        cert = certify_kkt(instance, state.v, state.lam)
        sol_ok = gap <= 1e-4 and cert.max_residual <= 1e-6
        print(f"distance to dense reference solution: {gap:.2e}; "
              f"scaled KKT residual {cert.max_residual:.2e} -> {'PASS' if sol_ok else 'FAIL'}")
    else:
        sol_ok = False

    return EXIT_OK if (kkt_ok and admm_ok and sol_ok) else EXIT_NOT_CONVERGED


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with the invalid-input code.

    argparse exits 2 on a usage error, the code reserved here for a solve
    that did not converge. Subcommand parsers inherit the class.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mpct",
        description="Tracking-MPC ADMM solver, simulator and benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one tracking QP")
    p.add_argument("problem", help="problem definition JSON (mpct-v1)")
    p.add_argument("--x0", required=True, help="current state, comma/space separated")
    p.add_argument("--xr", required=True, help="state reference")
    p.add_argument("--ur", default=None, help="input reference (default zeros)")
    p.add_argument("--warm", default=None, help="warm-start state JSON from --save-state")
    p.add_argument("--save-state", default=None, help="write the final iterates as JSON")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("simulate", help="closed-loop simulation to CSV")
    p.add_argument("scenario", help="scenario JSON (mpct-scenario-v1)")
    p.add_argument("-o", "--output", required=True, help="trajectory CSV to write")
    p.add_argument("--reference", default=None, help="reference label (default: first)")
    p.add_argument("--trial", type=int, default=0, help="which sampled initial state to use")
    p.add_argument("--seed", type=int, default=None, help="override scenario seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bench", help="random-initial-state benchmark")
    p.add_argument("scenario", help="scenario JSON (mpct-scenario-v1)")
    p.add_argument("-o", "--output", required=True, help="aggregate stats JSON to write")
    p.add_argument("--per-trial", default=None, help="per-trial CSV path (default: derived)")
    p.add_argument("--trials", type=int, default=None, help="override trial count")
    p.add_argument("--seed", type=int, default=None, help="override scenario seed")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("check", help="cross-validate against the dense oracle")
    p.add_argument("problem", help="problem definition JSON (mpct-v1)")
    p.add_argument("--samples", type=int, default=25, help="random KKT right-hand sides")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MpctError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
