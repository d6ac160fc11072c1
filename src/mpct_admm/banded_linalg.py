"""Structure-exploiting matrix storage and factorization/solve kernels.

Two matrix families cover the structured solves and products:

* symmetric banded matrices in packed lower-band storage, with a LAPACK
  banded Cholesky factorization and triangular solves,
* the sparse prediction-dynamics matrix, stored only by its pattern
  (A, B, horizon) and applied through a dedicated matvec kernel. The
  matvec serves the offline build and the tests; the KKT chain applies the
  matrix and its transpose as products on stage windows instead (see
  ``semiband_solver``).

No full dense matrix is ever materialized here; the ``to_dense`` helpers
exist for tests and small-scale verification only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs

from .errors import DimensionMismatch, NotPositiveDefinite

__all__ = [
    "SymBandedMatrix",
    "BandedCholeskyFactor",
    "PredictionSparseMatrix",
    "banded_cholesky_factor",
    "g_matvec",
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
    """Lower-triangular banded Cholesky factor, same packed layout as its source.

    The bands are stored column-major, the order LAPACK reads them in, so a
    solve hands them to ``dpbtrs`` without a copy.
    """

    n: int
    half_bandwidth: int
    bands: np.ndarray

    def __post_init__(self):
        bands = np.asfortranarray(self.bands, dtype=float)
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
        x, info = dpbtrs(self.bands, d, lower=1)
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of LAPACK dpbtrs")
        return x

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
    if out is None:
        out = np.empty(g.n_rows)
    elif out.shape != (g.n_rows,) or not out.flags["C_CONTIGUOUS"]:
        # a reshaped slice of a strided buffer would detach from it silently
        raise DimensionMismatch("out must be a contiguous vector of the right length")
    nx, nu, n = g.n_x, g.n_u, g.horizon
    w = nx + nu
    stages = x[: n * w].reshape(n, w)
    xs = x[n * w : n * w + nx]
    us = x[n * w + nx :]
    states = stages[:, :nx]
    inputs = stages[:, nx:]
    out[:nx] = states[0]
    # the A and B products stay separate: one [A B] product would re-associate
    # each row's sum and change the last bits
    couplings = out[nx : (n + 1) * nx].reshape(n, nx)
    np.matmul(states, g.a.T, out=couplings)
    couplings += inputs @ g.b.T
    couplings[:-1] -= states[1:]
    couplings[-1] -= xs
    out[(n + 1) * nx :] = g._a_minus_eye @ xs + g.b @ us
    return out
