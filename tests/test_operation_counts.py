"""Deterministic operation counts of the ADMM loop, gated against budgets.

At the bundled horizons an iteration's cost is mostly per-call overhead, so
the number of operations it runs is the quantity a faster loop must cut, and
unlike wall time it can be counted exactly. The counter traces
:func:`admm_solve` opcode by opcode and counts, in frames whose code lives
in the ``mpct_admm`` package, every ``CALL`` and ``CALL_FUNCTION_EX`` (each
one numpy or LAPACK call, or one cheap builtin) and every ``BINARY_OP``
with an in-place operator. Python 3.11's ``PRECALL``, which precedes every
``CALL``, is not counted.

The opcodes, and so the budgets, are CPython 3.11's: 3.10 has no
``BINARY_OP`` and later versions compile the same source to other
sequences, so the module is skipped on any other version.

Run as a script to print the counts on the bundled ball-plate model.
"""

import dis
import os
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import mpct_admm
from mpct_admm import admm_solve, build_problem, load_problem

if sys.version_info[:2] != (3, 11):
    pytest.skip("the operation budgets are CPython 3.11 opcode counts", allow_module_level=True)

# budgets, in CPython 3.11 opcodes: a change that lowers a count lowers its
# budget with it, and one that raises a count says why in CHANGES.md
ITERATION_BUDGET = 23
SOLVE_BUDGET = 62
# even and odd horizons: the odd-even reduction keeps two or three tail blocks
HORIZONS = (12, 30, 31, 240)

_PACKAGE = os.path.join(Path(mpct_admm.__file__).parent, "")
_CALLS = {dis.opmap["CALL"], dis.opmap["CALL_FUNCTION_EX"]}
_BINARY_OP = dis.opmap["BINARY_OP"]
# BINARY_OP's arguments 13 .. 25 are the in-place operators, += to ^=
_INPLACE = range(13, 26)


def count_operations(data) -> tuple[int, int]:
    """``(calls, in-place operations)`` of one cold :func:`admm_solve` on ``data``.

    The previous trace function is restored afterwards.
    """
    calls = inplace = 0
    code_bytes = {}

    def trace_opcodes(frame, event, arg):
        nonlocal calls, inplace
        if event == "opcode":
            code = frame.f_code
            raw = code_bytes.get(code)
            if raw is None:
                raw = code_bytes[code] = code.co_code
            op = raw[frame.f_lasti]
            if op in _CALLS:
                calls += 1
            elif op == _BINARY_OP and raw[frame.f_lasti + 1] in _INPLACE:
                inplace += 1
        return trace_opcodes

    def trace_calls(frame, event, arg):
        if not frame.f_code.co_filename.startswith(_PACKAGE):
            return None
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return trace_opcodes

    x = data.model.x_hi.clip(-1.0, 1.0)
    previous = sys.gettrace()
    sys.settrace(trace_calls)
    try:
        admm_solve(data, 0.3 * x, 0.5 * x, np.zeros(data.n_u))
    finally:
        sys.settrace(previous)
    return calls, inplace


def operation_counts(data, k: int = 4) -> dict:
    """Operations per iteration and per cold solve outside the loop.

    One cold solve is capped at ``k`` iterations and one at ``2k``, with
    tolerances that never stop them; the difference over ``k`` is the count
    per iteration, and the rest the count per solve.
    """
    counts = []
    for cap in (k, 2 * k):
        params = replace(data.params, max_iter=cap, eps_primal=1e-300, eps_dual=1e-300)
        counts.append(count_operations(replace(data, params=params)))
    (calls_k, inplace_k), (calls_2k, inplace_2k) = counts
    calls, inplace = (calls_2k - calls_k) // k, (inplace_2k - inplace_k) // k
    assert (calls_2k - calls_k, inplace_2k - inplace_k) == (k * calls, k * inplace)
    return {
        "calls_per_iter": calls,
        "inplace_per_iter": inplace,
        "per_iter": calls + inplace,
        "per_solve": calls_k + inplace_k - k * (calls + inplace),
    }


def ball_plate(horizon: int):
    model, params = load_problem(resources.files("mpct_admm") / "models" / "ball_plate_like.json")
    return build_problem(model, replace(params, N=horizon))


@pytest.fixture(scope="module")
def counts_by_horizon():
    return {n: operation_counts(ball_plate(n)) for n in HORIZONS}


def test_counts_independent_of_horizon(counts_by_horizon):
    # no per-stage work runs in Python, in the loop or around it: the
    # structural half of the claim that an iteration's cost is linear in N
    per_horizon = list(counts_by_horizon.values())
    assert all(counts == per_horizon[0] for counts in per_horizon)


def test_counts_within_budget(counts_by_horizon):
    for counts in counts_by_horizon.values():
        assert counts["per_iter"] <= ITERATION_BUDGET
        assert counts["per_solve"] <= SOLVE_BUDGET


def test_counter_restores_previous_trace():
    def outer(frame, event, arg):
        return None

    previous = sys.gettrace()
    sys.settrace(outer)
    try:
        count_operations(ball_plate(12))
        assert sys.gettrace() is outer
    finally:
        sys.settrace(previous)


if __name__ == "__main__":
    for n in HORIZONS:
        print(f"ball_plate_like N={n}:", operation_counts(ball_plate(n)))
