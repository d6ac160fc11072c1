#!/usr/bin/env python3
"""Run the committed mutants against the tests named for them and print a kill matrix.

Each mutant replaces one piece of text in one program file with another,
a change that breaks what its entry says. Each mutant runs on its own copy
of the tree, made without ``.git``: the script applies the edit there and
runs pytest on each test target named for the mutant, one run per target,
with ``-x`` and a time limit. A mutant is killed when a run fails a test.
It survives when every run passes, and it is also not killed when a run
times out, errors out (the pytest exit code is not 1), or when its old
text is not found exactly once. The unmutated tree must first pass every
target.

    python3 scripts/mutants.py

The matrix is a Markdown table with one row per mutant and one column per
test target; a cell names the first test that failed. The script exits 2
if the unmutated tree fails a target, and 1 unless every mutant was
killed.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", "out")
# seconds per pytest run: one test file runs in seconds, so the limit only
# stops a mutant that makes a test loop or stall
TIMEOUT = 300


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    breaks: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        name="plot-csv-xs-us-swapped",
        path="src/mpct_admm/harness.py",
        old="            + list(trajectory.artificial_x[t])\n            + list(trajectory.artificial_u[t])\n",
        new="            + list(trajectory.artificial_u[t])\n            + list(trajectory.artificial_x[t])\n",
        breaks="the plot CSV writes u_s under the xs headers and x_s under the us ones",
        tests=("tests/test_harness.py",),
    ),
    Mutant(
        name="reference-read-from-z",
        path="src/mpct_admm/admm_solver.py",
        old="    xs = v[data.n_z - nx - nu : data.n_z - nu].copy()\n    us = v[data.n_z - nu :].copy()\n",
        new="    xs = z[data.n_z - nx - nu : data.n_z - nu].copy()\n    us = z[data.n_z - nu :].copy()\n",
        breaks="a capped solve reports an (x_s, u_s) outside the tightened box",
        tests=("tests/test_admm_solver.py",),
    ),
    Mutant(
        name="cold-start-unclipped",
        path="src/mpct_admm/admm_solver.py",
        old="    v = np.clip(np.zeros(data.n_z), data.v_lo, data.v_hi)\n",
        new="    v = np.zeros(data.n_z)\n",
        breaks="the cold start lies outside a box that excludes 0",
        tests=("tests/test_admm_solver.py",),
    ),
    Mutant(
        name="stacked-block-no-woodbury-term",
        path="src/mpct_admm/mpct_problem.py",
        old="    c = h_m - h_m @ a @ (core_inv @ m)\n",
        new="    c = h_m\n",
        breaks="the second primal solve ignores the multipliers' Woodbury step",
        tests=("tests/test_mpct_problem.py", "tests/test_semiband_solver.py"),
    ),
    Mutant(
        name="stacked-block-m-for-h",
        path="src/mpct_admm/mpct_problem.py",
        old="    h_m = m.copy()\n    h_m[w:, w:] -= g_s\n",
        new="    h_m = m.copy()\n",
        breaks="the second primal solve's correction keeps Gamma_s^-1 on the reference block",
        tests=("tests/test_mpct_problem.py", "tests/test_semiband_solver.py"),
    ),
    Mutant(
        name="schur-heads-no-left-term",
        path="src/mpct_admm/mpct_problem.py",
        old="        schur[1:3, :nx] -= via[:nx, :nx]\n",
        new="        schur[2, :nx] -= via[:nx, :nx]\n",
        breaks="the heads' diagonal block of S drops Ls D1^-1 Ls' from the left odd neighbour",
        tests=("tests/test_semiband_solver.py",),
    ),
    Mutant(
        name="pair-block-neighbours-swapped",
        path="src/mpct_admm/mpct_problem.py",
        old="    pair_block = via_odd[:pair_rows, : 2 * w].copy()\n",
        new="    pair_block = via_odd[np.r_[nx : 2 * nx, :nx, 2 * nx : pair_rows], : 2 * w]\n",
        breaks="z's stage pairs read the odd multiplier's two kept neighbours through each other's terms",
        tests=("tests/test_semiband_solver.py",),
    ),
    Mutant(
        name="odd-tail-shifted",
        path="src/mpct_admm/mpct_problem.py",
        old="        sums_block[:w, 2 * nx : 4 * nx] += gt_t\n",
        new="        sums_block[:w, 3 * nx : 5 * nx] += gt_t\n",
        breaks="at odd N, z_{N-1} reads the tail's kept blocks one block further on",
        tests=("tests/test_semiband_solver.py",),
    ),
    Mutant(
        name="b-shift-no-a-term",
        path="src/mpct_admm/semiband_solver.py",
        old="    b_shifted[2 : 2 * h + 1 : 2] += b_odd @ data.model.A.T\n",
        new="",
        breaks="b's odd blocks move into z, but the kept row after each keeps b without its A b_o",
        tests=("tests/test_semiband_solver.py",),
    ),
    Mutant(
        name="p-shift-no-reference-term",
        path="src/mpct_admm/semiband_solver.py",
        old="    p_shifted[n, :nx] -= q @ b_odd.sum(axis=0)\n",
        new="",
        breaks="b's odd blocks move into z, but p + P d lacks P d's -Q sum_o b_o on x_s",
        tests=("tests/test_semiband_solver.py",),
    ),
)


def _pytest(tree: Path, target: str) -> str:
    """Run one target in ``tree``: ``pass``, ``killed by <test>``, ``timeout`` or ``error <code>``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-rf", "-p", "no:cacheprovider", target]
    try:
        run = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timeout"
    if run.returncode != 1:
        return {0: "pass"}.get(run.returncode, f"error {run.returncode}")
    # -rf ends the output with "FAILED <node id> - <message>"
    failed = [line.split()[1] for line in run.stdout.splitlines() if line.startswith("FAILED ")]
    return f"killed by {failed[0].rpartition('::')[2] if failed else '?'}"


def _run(mutant: Mutant | None, targets: tuple[str, ...]) -> dict[str, str]:
    """Each target's outcome on a fresh copy of the tree, with ``mutant`` applied if given."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORED)
        if mutant is not None:
            path = tree / mutant.path
            text = path.read_text()
            if text.count(mutant.old) != 1:
                return {target: "stale" for target in targets}
            path.write_text(text.replace(mutant.old, mutant.new))
        return {target: _pytest(tree, target) for target in targets}


def main() -> int:
    targets = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
    baseline = _run(None, targets)
    if any(outcome != "pass" for outcome in baseline.values()):
        print(f"the unmutated tree does not pass: {baseline}", file=sys.stderr)
        return 2

    print("| mutant | " + " | ".join(targets) + " | verdict | seconds |")
    print("|---" * (len(targets) + 3) + "|")
    survivors = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        outcomes = _run(mutant, mutant.tests)
        killed = any(outcome.startswith("killed") for outcome in outcomes.values())
        survivors += not killed
        cells = [outcomes.get(target, "-") for target in targets]
        verdict = "killed" if killed else "SURVIVED"
        print(f"| {mutant.name} | " + " | ".join(cells) + f" | {verdict} | {time.perf_counter() - start:.0f} |")
    print()
    for mutant in MUTANTS:
        print(f"- `{mutant.name}` ({mutant.path}): {mutant.breaks}")
    print(f"\n{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
