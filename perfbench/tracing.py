"""Span recording from outside the solver: timing wrappers on the names the
program looks up at call time.

Every span holds its name, start, end, parent span and solve id. Spans live
in flat in-memory arrays (a traced closed loop records about two million of
them) and are written out once, when the run ends. A span's solve id is the
index of the enclosing ``admm_solve`` span, or -1 outside any solve, so that
per-iteration counts can exclude the kernel calls the offline build makes.
"""

from __future__ import annotations

import functools
import time
from array import array
from pathlib import Path

import numpy as np

# (metric prefix, module that owns the looked-up name, owner attribute path)
# The owner is the module (or class) whose attribute the program reads when
# it calls; the prefix names the module that defines the function.
PATCH_POINTS = (
    ("admm_solver.admm_solve", "harness", "admm_solve"),
    ("mpct_problem.assemble_online", "admm_solver", "assemble_online"),
    ("semiband_solver.solve_kkt_system", "admm_solver", "solve_kkt_system"),
    ("admm_solver.v_update", "admm_solver", "v_update"),
    ("semiband_solver.solve_semibanded", "semiband_solver", "solve_semibanded"),
    ("banded_linalg.g_matvec", "semiband_solver", "g_matvec"),
    ("banded_linalg.gt_matvec", "semiband_solver", "gt_matvec"),
    ("banded_linalg.BlockDiagFactor.solve", "banded_linalg", "BlockDiagFactor.solve"),
    ("banded_linalg.BandedCholeskyFactor.solve", "banded_linalg", "BandedCholeskyFactor.solve"),
    ("banded_linalg.SmallDense.solve", "banded_linalg", "SmallDense.solve"),
    ("banded_linalg.banded_cholesky_factor", "mpct_problem", "banded_cholesky_factor"),
    ("semiband_solver.SemiBandedSystem.build", "semiband_solver", "SemiBandedSystem.build"),
)

SOLVE = "admm_solver.admm_solve"
BUILD = "mpct_problem.build_problem"
CLOSED_LOOP = "harness.simulate_closed_loop"

# The kernels one ADMM iteration calls, in the order of the KKT chain, with
# the per-call statistic reported for each: the two semiband_solver
# functions only orchestrate kernels, so their own (self) time is the cost.
ITERATION_STATS = {
    "semiband_solver.solve_kkt_system": "self_us_per_call",
    "semiband_solver.solve_semibanded": "self_us_per_call",
    "banded_linalg.BlockDiagFactor.solve": "us_per_call",
    "banded_linalg.SmallDense.solve": "us_per_call",
    "banded_linalg.g_matvec": "us_per_call",
    "banded_linalg.BandedCholeskyFactor.solve": "us_per_call",
    "banded_linalg.gt_matvec": "us_per_call",
    "admm_solver.v_update": "us_per_call",
}


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("B")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._solve = array("i")
        self._stack = [-1]
        self._current_solve = -1
        self._patched: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int, is_solve: bool) -> int:
        idx = len(self._name)
        self._name.append(nid)
        self._parent.append(self._stack[-1])
        if is_solve:
            self._current_solve = idx
        self._solve.append(self._current_solve)
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, is_solve: bool) -> None:
        self._end[idx] = time.perf_counter()
        self._stack.pop()
        if is_solve:
            self._current_solve = -1

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span; the benchmark's own calls go through here."""
        nid = self._id(name)
        is_solve = name == SOLVE
        idx = self._open(nid, is_solve)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx, is_solve)

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        is_solve = name == SOLVE
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(nid, is_solve)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx, is_solve)

        traced.__perfbench_traced__ = True
        return traced

    def install(self, modules: dict[str, object]) -> None:
        """Wrap every patch point; names that no longer exist are recorded as absent."""
        for name, module_name, path in PATCH_POINTS:
            owner, attr, raw = resolve(modules, module_name, path)
            if raw is None:
                self.absent.append(name)
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(name, raw.__func__))
            else:
                wrapped = self._wrap(name, raw)
            setattr(owner, attr, wrapped)
            self._patched.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self._name, dtype=np.uint8).copy(),
            "start": np.frombuffer(self._start, dtype=float).copy(),
            "end": np.frombuffer(self._end, dtype=float).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int32).copy(),
            "solve": np.frombuffer(self._solve, dtype=np.int32).copy(),
        }

    def write(self, path: Path) -> None:
        np.savez(path, names=np.asarray(self.names), **self.spans())


def resolve(modules: dict[str, object], module_name: str, path: str) -> tuple[object, str, object]:
    """``(owner, attribute, raw value)`` of a patch point; the value is None when absent."""
    owner = modules[module_name]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    return owner, attr, None if owner is None else vars(owner).get(attr)


def leftover_wrappers(modules: dict[str, object]) -> list[str]:
    """Patch points that still hold a tracing wrapper."""
    left = []
    for name, module_name, path in PATCH_POINTS:
        raw = resolve(modules, module_name, path)[2]
        if getattr(getattr(raw, "__func__", raw), "__perfbench_traced__", False):
            left.append(name)
    return left


def layer_metrics(tracer: Tracer, iterations: int, steps: int) -> dict[str, float]:
    """Per-layer numbers from the recorded spans.

    ``iterations`` is the total iteration count of the traced solves and
    ``steps`` the number of closed-loop steps traced (0 when none ran).
    Kernel statistics count only spans inside a solve; build statistics are
    medians over the traced ``build_problem`` calls.
    """
    s = tracer.spans()
    ids = {n: i for i, n in enumerate(tracer.names)}
    dur = s["end"] - s["start"]
    has_parent = s["parent"] >= 0
    child = np.bincount(s["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
    self_time = dur - child
    in_solve = s["solve"] >= 0
    out: dict[str, float] = {}

    def mask(name):
        nid = ids.get(name)
        return np.zeros(dur.size, bool) if nid is None else s["name"] == nid

    def per_call(values, m):
        return float(values[m].mean() * 1e6) if m.any() else 0.0

    for name, stat in ITERATION_STATS.items():
        m = mask(name) & in_solve
        out[f"{name}.{stat}"] = per_call(self_time if stat.startswith("self") else dur, m)
        out[f"{name}.calls_per_iter"] = float(m.sum() / iterations)
    out["mpct_problem.assemble_online.us_per_call"] = per_call(
        dur, mask("mpct_problem.assemble_online") & in_solve
    )
    out[f"{SOLVE}.self_us_per_iter"] = float(self_time[mask(SOLVE)].sum() / iterations * 1e6)

    builds = np.flatnonzero(mask(BUILD))
    for name in ("banded_linalg.banded_cholesky_factor", "semiband_solver.SemiBandedSystem.build"):
        m = mask(name)
        per_build = [dur[m & (s["parent"] == b)].sum() * 1e3 for b in builds]
        out[f"{name}.ms"] = float(np.median(per_build)) if per_build else 0.0
    out[f"{BUILD}.self_ms"] = float(np.median(self_time[builds]) * 1e3) if builds.size else 0.0

    if steps:
        loop = mask(CLOSED_LOOP)
        out[f"{CLOSED_LOOP}.self_us_per_step"] = float(self_time[loop].sum() / steps * 1e6)
    return out
