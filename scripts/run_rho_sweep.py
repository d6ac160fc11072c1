#!/usr/bin/env python3
"""Penalty-parameter sweep on the bundled ball-and-plate-like benchmark.

Runs the random-initial-state benchmark on both references of the bundled
scenario at the problem file's own penalty times 1/4, 1/2, 1, 2 and 4, and
prints iteration/time statistics as one table row per (rho, reference)
pair; a ``*`` marks the file's own penalty. Unreachable references, where
the solution rides the position bound, favor stiffer penalties than
reachable ones.

    PYTHONPATH=src python3 scripts/run_rho_sweep.py --trials 100
"""

import argparse
from dataclasses import replace
from importlib import resources

from mpct_admm import load_scenario, run_benchmark

RHO_FACTORS = (0.25, 0.5, 1.0, 2.0, 4.0)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=100, help="random initial states per row")
    parser.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    args = parser.parse_args()

    scenario = load_scenario(str(resources.files("mpct_admm") / "models" / "scenario_ball_plate.json"))
    scenario = replace(scenario, trials=args.trials)
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)

    header = (
        f"{'rho':>7} {'reference':>12} {'conv':>5} "
        f"{'it avg':>8} {'it med':>8} {'it max':>8} {'it min':>8} "
        f"{'ms avg':>8} {'ms med':>8} {'ms max':>8} {'ms min':>8}"
    )
    print(header)
    print("-" * len(header))
    # every reference in one run, so each row solves the initial states that
    # `mpct bench` draws for that reference
    runs = [
        run_benchmark(replace(scenario, params=replace(scenario.params, rho=factor * scenario.params.rho)))
        for factor in RHO_FACTORS
    ]
    for ri in range(len(scenario.references)):
        for factor, results in zip(RHO_FACTORS, runs):
            stats = results[ri]
            it = stats.iteration_stats()
            ms = stats.time_stats_ms()
            mark = "*" if factor == 1.0 else " "
            print(
                f"{stats.rho:>6.3g}{mark} {stats.label:>12} {stats.converged:>4}/{stats.completed:<4}"
                f"{it['average']:>7.1f} {it['median']:>8.1f} {it['max']:>8.0f} {it['min']:>8.0f} "
                f"{ms['average']:>8.2f} {ms['median']:>8.2f} {ms['max']:>8.2f} {ms['min']:>8.2f}"
            )


if __name__ == "__main__":
    main()
