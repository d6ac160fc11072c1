"""Self-checks of the benchmark itself. Run from the root of a checkout:

    python3 perfbench/selfcheck.py

* Two runs with the same seed give identical per-solve iteration counts,
  ``fail_frac``, ``data_kib`` and ``calls_per_iter``.
* A different seed changes the sampled initial states of every workload.
* After a traced run no wrapper is left on any patched name.
* ``BENCHMARK.json`` lists exactly the metrics and units the runs report.

Exits non-zero when a check fails. Takes about a minute.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace

import run  # sets the BLAS thread variables and the import path first

import numpy as np
import tracing

WORKLOAD = run.WORKLOADS["cold-n30"]
SEED = 7


def _patched_objects() -> list[object]:
    return [tracing.resolve(run.MODULES, m, path)[2] for _, m, path in tracing.PATCH_POINTS]


def main() -> int:
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    a = run.run_workload(WORKLOAD, SEED, 0.0, trace=False)
    b = run.run_workload(WORKLOAD, SEED, 0.0, trace=False)
    expect(a["iterations"] == b["iterations"], "same seed: identical per-solve iteration counts")
    for key in ("fail_frac", "data_kib"):
        expect(a["metrics"][key]["value"] == b["metrics"][key]["value"], f"same seed: identical {key}")

    before = _patched_objects()
    ta = run.run_workload(WORKLOAD, SEED, 0.0, trace=True)
    expect(all(x is y for x, y in zip(before, _patched_objects())), "traced run restores every patched name")
    expect(not tracing.leftover_wrappers(run.MODULES), "no tracing wrapper left after a traced run")
    tb = run.run_workload(WORKLOAD, SEED, 0.0, trace=True)
    calls = [k for k in ta["metrics"] if k.endswith(".calls_per_iter")]
    expect(
        bool(calls) and all(ta["metrics"][k]["value"] == tb["metrics"][k]["value"] for k in calls),
        "same seed: identical calls_per_iter",
    )

    scenario = run.load_scenario(run.SCENARIO)
    for w in run.WORKLOADS.values():
        idx = next(i for i, r in enumerate(scenario.references) if r.label == w.reference)
        s1 = run.sample_initial_states(replace(scenario, seed=SEED), idx)
        s2 = run.sample_initial_states(replace(scenario, seed=SEED + 1), idx)
        expect(not np.array_equal(s1[0], s2[0]), f"{w.name}: another seed changes the initial states")
    c = run.run_workload(WORKLOAD, SEED + 1, 0.0, trace=False)
    expect(c["iterations"] != a["iterations"], "another seed changes the iteration counts")

    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    expect(e2e == {k: run.END_TO_END_UNITS[k] for k in run.END_TO_END_REPORTED}, "BENCHMARK.json end_to_end matches")
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(layers == {k: ta["metrics"][k]["unit"] for k in run.per_layer_units()}, "BENCHMARK.json per_layer matches")
    expect({w["name"] for w in spec["workloads"]} == set(run.WORKLOADS), "BENCHMARK.json workloads match")

    print(f"{len(failures)} self-check(s) failed" if failures else "all self-checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
