"""Structure-exploiting matrix storage and factorization/solve kernels.

Three matrix families cover everything the solver touches:

* symmetric banded matrices in packed lower-band storage, with a LAPACK
  banded Cholesky factorization and triangular solves,
* block-diagonal matrices made of small SPD blocks, factored per block and
  solved with identical blocks batched into one call,
* the sparse prediction-dynamics matrix, stored only by its pattern
  (A, B, horizon) and applied through dedicated matvec kernels.

No full dense matrix is ever materialized here; the ``to_dense`` helpers
exist for tests and small-scale verification only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag as _dense_block_diag
from scipy.linalg import cho_factor, cho_solve, cho_solve_banded
from scipy.linalg.lapack import dpbtrf

from .errors import DimensionMismatch, NotPositiveDefinite

__all__ = [
    "SymBandedMatrix",
    "BandedCholeskyFactor",
    "BlockDiagMatrix",
    "BlockDiagFactor",
    "PredictionSparseMatrix",
    "banded_cholesky_factor",
    "g_matvec",
    "gt_matvec",
]


def _band_mask(half_bandwidth: int, n: int) -> np.ndarray:
    """Boolean mask of the valid slots in packed (bw+1, n) band storage."""
    rows = np.arange(half_bandwidth + 1)[:, None]
    cols = np.arange(n)[None, :]
    return rows + cols < n


@dataclass(frozen=True)
class SymBandedMatrix:
    """Symmetric banded matrix in packed lower-band column storage.

    ``bands[k, j]`` holds entry ``M[j + k, j]`` for ``k = 0 .. half_bandwidth``.
    Only the lower triangle is stored; symmetry is implicit. Slots with
    ``j + k >= n`` are unused and kept at zero.
    """

    n: int
    half_bandwidth: int
    bands: np.ndarray

    def __post_init__(self):
        if not 0 <= self.half_bandwidth < self.n:
            raise ValueError(
                f"half_bandwidth must satisfy 0 <= bw < n, got bw={self.half_bandwidth}, n={self.n}"
            )
        bands = np.array(self.bands, dtype=float)
        if bands.shape != (self.half_bandwidth + 1, self.n):
            raise ValueError(
                f"bands must have shape {(self.half_bandwidth + 1, self.n)}, got {bands.shape}"
            )
        mask = _band_mask(self.half_bandwidth, self.n)
        if not np.all(np.isfinite(bands[mask])):
            raise ValueError("banded entries must be finite")
        bands[~mask] = 0.0
        object.__setattr__(self, "bands", bands)

    @classmethod
    def from_dense(cls, m: np.ndarray, half_bandwidth: int | None = None) -> "SymBandedMatrix":
        m = np.asarray(m, dtype=float)
        n = m.shape[0]
        if m.shape != (n, n):
            raise DimensionMismatch("matrix must be square")
        if half_bandwidth is None:
            half_bandwidth = 0
            for k in range(n - 1, 0, -1):
                if np.any(np.diag(m, -k) != 0.0):
                    half_bandwidth = k
                    break
        bands = np.zeros((half_bandwidth + 1, n))
        for k in range(half_bandwidth + 1):
            bands[k, : n - k] = np.diag(m, -k)
        return cls(n=n, half_bandwidth=half_bandwidth, bands=bands)

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        for k in range(self.half_bandwidth + 1):
            idx = np.arange(self.n - k)
            out[idx + k, idx] = self.bands[k, : self.n - k]
            if k > 0:
                out[idx, idx + k] = self.bands[k, : self.n - k]
        return out


@dataclass(frozen=True)
class BandedCholeskyFactor:
    """Lower-triangular banded Cholesky factor, same packed layout as its source."""

    n: int
    half_bandwidth: int
    bands: np.ndarray

    def __post_init__(self):
        bands = np.ascontiguousarray(self.bands, dtype=float)
        if bands.shape != (self.half_bandwidth + 1, self.n):
            raise ValueError("factor bands have the wrong shape")
        if not np.all(bands[0] > 0.0):
            raise ValueError("factor diagonal must be strictly positive")
        object.__setattr__(self, "bands", bands)

    def solve(self, d: np.ndarray) -> np.ndarray:
        """Solve ``M x = d`` (forward + backward pass); ``d`` is ``(n,)`` or ``(n, k)``."""
        d = np.asarray(d, dtype=float)
        if d.ndim not in (1, 2) or d.shape[0] != self.n:
            raise DimensionMismatch(f"right-hand side must have leading dimension {self.n}")
        return cho_solve_banded((self.bands, True), d, check_finite=False)

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        for k in range(self.half_bandwidth + 1):
            idx = np.arange(self.n - k)
            out[idx + k, idx] = self.bands[k, : self.n - k]
        return out


# Pivots below this fraction of the largest diagonal entry count as failures:
# the floor separates "semidefinite within rounding" from positive definite.
_PIVOT_FLOOR = 1e-13


def banded_cholesky_factor(m: SymBandedMatrix) -> BandedCholeskyFactor:
    """Banded Cholesky ``L L^T = M`` in packed storage (LAPACK ``dpbtrf``).

    A pivot ``L_jj^2`` that is non-positive or below ``_PIVOT_FLOOR *
    max(diag(M))`` raises :class:`NotPositiveDefinite` with the first such
    row. The factor bandwidth equals the input bandwidth.
    """
    bands, info = dpbtrf(m.bands, lower=1)
    # rows before LAPACK's failure row (all rows when it succeeded) are final
    done = info - 1 if info > 0 else m.n
    low = np.flatnonzero(bands[0, :done] ** 2 < _PIVOT_FLOOR * m.bands[0].max())
    if low.size or info > 0:
        raise NotPositiveDefinite("banded matrix", index=int(low[0]) if low.size else done)
    return BandedCholeskyFactor(n=m.n, half_bandwidth=m.half_bandwidth, bands=bands)


def _spd_failure_row(block: np.ndarray) -> int:
    """First row at which the leading minors of ``block`` stop being SPD."""
    for k in range(1, block.shape[0] + 1):
        try:
            np.linalg.cholesky(block[:k, :k])
        except np.linalg.LinAlgError:
            return k - 1
    return block.shape[0] - 1


@dataclass(frozen=True)
class BlockDiagMatrix:
    """Block-diagonal matrix built from small symmetric blocks."""

    blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        blocks = []
        for i, blk in enumerate(self.blocks):
            blk = np.asarray(blk, dtype=float)
            if blk.ndim != 2 or blk.shape[0] != blk.shape[1]:
                raise ValueError(f"block {i} is not square")
            if not np.all(np.isfinite(blk)):
                raise ValueError(f"block {i} has non-finite entries")
            if not np.allclose(blk, blk.T, rtol=0.0, atol=1e-12 * (1.0 + np.abs(blk).max())):
                raise ValueError(f"block {i} is not symmetric")
            blocks.append(0.5 * (blk + blk.T))
        object.__setattr__(self, "blocks", tuple(blocks))

    @property
    def n(self) -> int:
        return sum(b.shape[0] for b in self.blocks)

    def offsets(self) -> list[int]:
        out, acc = [], 0
        for b in self.blocks:
            out.append(acc)
            acc += b.shape[0]
        return out

    def to_dense(self) -> np.ndarray:
        return _dense_block_diag(*self.blocks)


class BlockDiagFactor:
    """Per-block Cholesky factors of a :class:`BlockDiagMatrix`.

    Blocks with identical contents share one factor and are solved as a
    single batched triangular solve, so the repeated stage blocks of an MPC
    horizon cost a handful of LAPACK calls regardless of the horizon length.
    """

    def __init__(self, matrix: BlockDiagMatrix):
        self.n = matrix.n
        self._groups: list[tuple[tuple[np.ndarray, bool], np.ndarray]] = []
        factors: dict[bytes, int] = {}
        members: list[list[int]] = []
        facs: list[tuple[np.ndarray, bool]] = []
        offsets = matrix.offsets()
        for bi, blk in enumerate(matrix.blocks):
            key = blk.tobytes()
            slot = factors.get(key)
            if slot is None:
                try:
                    fac = cho_factor(blk, lower=True, check_finite=False)
                except np.linalg.LinAlgError:
                    raise NotPositiveDefinite(
                        "block-diagonal matrix", index=_spd_failure_row(blk), block=bi
                    ) from None
                factors[key] = len(facs)
                facs.append(fac)
                members.append([offsets[bi]])
            else:
                members[slot].append(offsets[bi])
        for fac, offs in zip(facs, members):
            k = fac[0].shape[0]
            idx = np.asarray(offs)[:, None] + np.arange(k)[None, :]
            self._groups.append((fac, idx))

    def to_dense(self) -> np.ndarray:
        """Rebuild the factored matrix from its per-block factors (test helper)."""
        out = np.zeros((self.n, self.n))
        for (c, lower), idx in self._groups:
            l = np.tril(c) if lower else np.triu(c).T
            block = l @ l.T
            for offs in idx[:, 0]:
                k = c.shape[0]
                out[offs : offs + k, offs : offs + k] = block
        return out

    def solve(self, d: np.ndarray) -> np.ndarray:
        """Solve against the factored matrix; ``d`` is ``(n,)`` or ``(n, k)``."""
        d = np.asarray(d, dtype=float)
        if d.ndim not in (1, 2) or d.shape[0] != self.n:
            raise DimensionMismatch(f"right-hand side must have leading dimension {self.n}")
        out = np.empty_like(d)
        if d.ndim == 1:
            for fac, idx in self._groups:
                out[idx] = cho_solve(fac, d[idx].T, check_finite=False).T
        else:
            r = d.shape[1]
            for fac, idx in self._groups:
                count, k = idx.shape
                seg = d[idx].transpose(1, 0, 2).reshape(k, count * r)
                sol = cho_solve(fac, seg, check_finite=False)
                out[idx] = sol.reshape(k, count, r).transpose(1, 0, 2)
        return out


@dataclass(frozen=True)
class PredictionSparseMatrix:
    """Equality-constraint matrix of the horizon-stacked dynamics, by pattern.

    Row blocks of ``n_x`` rows each: the initial-state pin ``x_0``, the stage
    couplings ``A x_{i-1} + B u_{i-1} - x_i`` for ``i = 1 .. N-1``, the handoff
    into the artificial reference ``A x_{N-1} + B u_{N-1} - x_s``, and the
    equilibrium row ``(A - I) x_s + B u_s``. Columns follow the decision stack
    ``(x_0, u_0, ..., x_{N-1}, u_{N-1}, x_s, u_s)``. The matrix itself is never
    stored; matvecs run on the pattern.
    """

    a: np.ndarray
    b: np.ndarray
    horizon: int

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatch("A must be square")
        if b.ndim != 2 or b.shape[0] != a.shape[0]:
            raise DimensionMismatch("B must have as many rows as A")
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "_a_minus_eye", a - np.eye(a.shape[0]))

    @property
    def n_x(self) -> int:
        return self.a.shape[0]

    @property
    def n_u(self) -> int:
        return self.b.shape[1]

    @property
    def n_rows(self) -> int:
        return (self.horizon + 2) * self.n_x

    @property
    def n_cols(self) -> int:
        return (self.horizon + 1) * (self.n_x + self.n_u)

    def to_dense(self) -> np.ndarray:
        """Dense reconstruction derived from the matvec kernel (test helper)."""
        eye = np.eye(self.n_cols)
        return np.column_stack([g_matvec(self, eye[:, j]) for j in range(self.n_cols)])


def g_matvec(g: PredictionSparseMatrix, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Product of the dynamics matrix with a decision-stack vector."""
    x = np.asarray(x, dtype=float)
    if x.shape != (g.n_cols,):
        raise DimensionMismatch(f"expected vector of length {g.n_cols}, got {x.shape}")
    nx, nu, n = g.n_x, g.n_u, g.horizon
    w = nx + nu
    stages = x[: n * w].reshape(n, w)
    xs = x[n * w : n * w + nx]
    us = x[n * w + nx :]
    states = stages[:, :nx]
    inputs = stages[:, nx:]
    if out is None:
        out = np.empty(g.n_rows)
    elif out.shape != (g.n_rows,):
        raise DimensionMismatch("out has the wrong shape")
    out[:nx] = states[0]
    nxt = np.vstack([states[1:], xs[None, :]])
    out[nx : (n + 1) * nx] = (states @ g.a.T + inputs @ g.b.T - nxt).ravel()
    out[(n + 1) * nx :] = g._a_minus_eye @ xs + g.b @ us
    return out


def gt_matvec(g: PredictionSparseMatrix, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Product of the transposed dynamics matrix with a multiplier vector."""
    y = np.asarray(y, dtype=float)
    if y.shape != (g.n_rows,):
        raise DimensionMismatch(f"expected vector of length {g.n_rows}, got {y.shape}")
    nx, nu, n = g.n_x, g.n_u, g.horizon
    w = nx + nu
    blocks = y.reshape(n + 2, nx)
    y0 = blocks[0]
    mid = blocks[1 : n + 1]
    last = blocks[n + 1]
    if out is None:
        out = np.empty(g.n_cols)
    elif out.shape != (g.n_cols,) or not out.flags["C_CONTIGUOUS"]:
        # a reshaped slice of a strided buffer would detach from it silently
        raise DimensionMismatch("out must be a contiguous vector of the right length")
    stages = out[: n * w].reshape(n, w)
    stages[:, :nx] = mid @ g.a
    stages[0, :nx] += y0
    stages[1:, :nx] -= mid[:-1]
    stages[:, nx:] = mid @ g.b
    out[n * w : n * w + nx] = g._a_minus_eye.T @ last - mid[-1]
    out[n * w + nx :] = g.b.T @ last
    return out
