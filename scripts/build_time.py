#!/usr/bin/env python3
"""Build time and stored size of ``build_problem`` on the bundled ball-plate model.

Builds the model's data ``--builds`` times at each horizon, after ten
untimed builds, and prints two lines per horizon: the minimum and median
wall time, then the KiB of the distinct numpy buffers the built data keeps
alive (views counted once, the walk ``perfbench``'s ``data_kib`` takes), and
the rows and half-bandwidth of the banded factor of the dual core's Schur
complement:

    PYTHONPATH=src python3 scripts/build_time.py --horizons 30 240 --builds 200

Wall times depend on the machine and its load; compare them only with
runs on one machine. The stored size and the band are exact.
"""

import argparse
import statistics
import time
from dataclasses import replace
from importlib import resources

import numpy as np

from mpct_admm import build_problem, load_problem


def stored_kib(data) -> float:
    """KiB of the distinct numpy buffers reachable from ``data`` through attributes and containers."""
    seen: set[int] = set()
    buffers: dict[int, int] = {}
    stack = [data]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or obj is None or isinstance(obj, (str, int, float, bool)):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            buffers[id(obj)] = obj.nbytes
        elif isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
    return sum(buffers.values()) / 1024


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
            data = build_problem(model, p)
            times.append(time.perf_counter() - t0)
        print(
            f"build_problem N={horizon}: min {min(times) * 1e3:.3f} ms, "
            f"median {statistics.median(times) * 1e3:.3f} ms over {args.builds} builds"
        )
        factor = data.dual_factor
        print(
            f"stored N={horizon}: {stored_kib(data):.2f} KiB, "
            f"Schur complement {factor.n} rows, half-bandwidth {factor.half_bandwidth}"
        )


if __name__ == "__main__":
    main()
