#!/usr/bin/env python3
"""Minimum and median wall time of ``build_problem`` on the bundled ball-plate model.

Builds the model's data ``--builds`` times at each horizon, after ten
untimed builds, and prints one line per horizon:

    PYTHONPATH=src python3 scripts/build_time.py --horizons 30 240 --builds 200

Wall times depend on the machine and its load; compare them only with
runs on one machine.
"""

import argparse
import statistics
import time
from dataclasses import replace
from importlib import resources

from mpct_admm import build_problem, load_problem


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--horizons", type=int, nargs="+", default=[30, 240])
    parser.add_argument("--builds", type=int, default=200)
    args = parser.parse_args()
    model, params = load_problem(resources.files("mpct_admm") / "models" / "ball_plate_like.json")
    for horizon in args.horizons:
        p = replace(params, N=horizon)
        for _ in range(10):
            build_problem(model, p)
        times = []
        for _ in range(args.builds):
            t0 = time.perf_counter()
            build_problem(model, p)
            times.append(time.perf_counter() - t0)
        print(
            f"build_problem N={horizon}: min {min(times) * 1e3:.3f} ms, "
            f"median {statistics.median(times) * 1e3:.3f} ms over {args.builds} builds"
        )


if __name__ == "__main__":
    main()
