"""Structure-exploiting matrix storage and factorization/solve kernels.

Two matrix families cover the structured solves and products:

* symmetric banded matrices in packed lower-band storage, with a LAPACK
  banded Cholesky factorization and triangular solves in the upper layout,
* the sparse prediction-dynamics matrix ``G``, stored by its stage window:
  the one horizon-independent block through which the KKT chain applies
  ``G`` and from which the offline build forms ``G'``, the stage-sum block
  ``(G Y)'`` and the dual-space matrix (see ``semiband_solver``).

No full dense matrix is ever materialized here; the ``to_dense`` helpers
exist for tests and small-scale verification only.
"""

from __future__ import annotations

import functools
from dataclasses import InitVar, dataclass, field

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs

from .errors import DimensionMismatch, NotPositiveDefinite

__all__ = [
    "SymBandedMatrix",
    "BandedCholeskyFactor",
    "PredictionSparseMatrix",
    "banded_cholesky_factor",
]


def _band_mask(half_bandwidth: int, n: int) -> np.ndarray:
    """Boolean mask of the valid slots in packed (bw+1, n) band storage."""
    rows = np.arange(half_bandwidth + 1)[:, None]
    cols = np.arange(n)[None, :]
    return rows + cols < n


@functools.lru_cache(maxsize=64)
def _unused_tail_slots(half_bandwidth: int) -> np.ndarray:
    """The unused slots of the last ``bw`` columns of packed band storage, read-only."""
    unused = ~_band_mask(half_bandwidth, half_bandwidth)
    unused.flags.writeable = False
    return unused


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
        # the unused slots all lie in the last bw columns
        bw = self.half_bandwidth
        bands[:, self.n - bw :][_unused_tail_slots(bw)] = 0.0
        if not np.isfinite(bands).all():
            raise ValueError("banded entries must be finite")
        object.__setattr__(self, "bands", bands)

    @classmethod
    def from_dense(cls, m: np.ndarray, half_bandwidth: int) -> "SymBandedMatrix":
        m = np.asarray(m, dtype=float)
        n = m.shape[0]
        if m.shape != (n, n):
            raise DimensionMismatch("matrix must be square")
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
    """Banded Cholesky factor ``M = L L^T``, stored as ``U = L^T`` in LAPACK's upper layout.

    ``bands[bw - k, j]`` holds ``U[j - k, j] = L[j, j - k]`` for ``k = 0 ..
    half_bandwidth``, so the diagonal is the last row and the first ``bw -
    k`` slots of row ``bw - k`` are unused. ``dpbtrs`` solves faster in this
    layout than in the lower one. The bands are stored column-major, the
    order LAPACK reads them in, so a solve hands them to ``dpbtrs`` without
    a copy. :meth:`to_dense` returns ``L``.
    """

    n: int
    half_bandwidth: int
    bands: np.ndarray

    def __post_init__(self):
        bands = np.asfortranarray(self.bands, dtype=float)
        if bands.shape != (self.half_bandwidth + 1, self.n):
            raise ValueError("factor bands have the wrong shape")
        if not np.all(bands[-1] > 0.0):
            raise ValueError("factor diagonal must be strictly positive")
        object.__setattr__(self, "bands", bands)

    def solve(self, d: np.ndarray) -> np.ndarray:
        """Solve ``M x = d`` (forward + backward pass); ``d`` is ``(n,)`` or ``(n, k)``."""
        d = np.asarray(d, dtype=float)
        if d.ndim not in (1, 2) or d.shape[0] != self.n:
            raise DimensionMismatch(f"right-hand side must have leading dimension {self.n}")
        x, info = dpbtrs(self.bands, d, lower=0)
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of LAPACK dpbtrs")
        return x

    def to_dense(self) -> np.ndarray:
        """The lower factor ``L`` (test helper)."""
        out = np.zeros((self.n, self.n))
        bw = self.half_bandwidth
        for k in range(bw + 1):
            idx = np.arange(self.n - k)
            out[idx + k, idx] = self.bands[bw - k, k:]
        return out


# Pivots below this fraction of the largest diagonal entry count as failures:
# the floor separates "semidefinite within rounding" from positive definite.
_PIVOT_FLOOR = 1e-13


def banded_cholesky_factor(m: SymBandedMatrix) -> BandedCholeskyFactor:
    """Banded Cholesky ``L L^T = M`` in packed storage (LAPACK ``dpbtrf``).

    ``L`` is factored in the lower layout, where ``dpbtrf`` runs faster,
    and its bands are then moved to the upper layout of ``U = L^T``, where
    ``dpbtrs`` runs faster (see :class:`BandedCholeskyFactor`). A pivot
    ``L_jj^2`` that is non-positive or below ``_PIVOT_FLOOR * max(diag(M))``
    raises :class:`NotPositiveDefinite` with the first such row. The factor
    bandwidth equals the input bandwidth.
    """
    bw, n = m.half_bandwidth, m.n
    # L is factored in place behind bw zero columns, so that every read of
    # the layout move below stays inside one buffer
    padded = np.zeros((bw + 1, bw + n), order="F")
    lower = padded[:, bw:]
    lower[...] = m.bands
    info = dpbtrf(lower, lower=1, overwrite_ab=1)[1]
    # rows before LAPACK's failure row (all rows when it succeeded) are final
    done = info - 1 if info > 0 else n
    low = np.flatnonzero(lower[0, :done] ** 2 < _PIVOT_FLOOR * m.bands[0].max())
    if low.size or info > 0:
        raise NotPositiveDefinite("banded matrix", index=int(low[0]) if low.size else done)
    # U[j, j + k] = L[j + k, j]: column-major, entry (bw - k, j) of the upper
    # layout reads entry (k, j - k) of the lower one, bw + (bw - k) bw + j
    # (bw + 1) items into the padded buffer. So the move is one strided
    # copy, and the slots with j < k, unused in the upper layout, read the
    # zero padding
    item = padded.itemsize
    upper = np.empty((bw + 1, n), order="F")
    upper[...] = np.ndarray((bw + 1, n), buffer=padded, offset=bw * item, strides=(bw * item, (bw + 1) * item))
    return BandedCholeskyFactor(n=n, half_bandwidth=bw, bands=upper)


@dataclass(frozen=True)
class PredictionSparseMatrix:
    """Equality-constraint matrix of the horizon-stacked dynamics, by its stage window.

    Row blocks of ``n_x`` rows each: the initial-state pin ``x_0``, the stage
    couplings ``x_i - A x_{i-1} - B u_{i-1}`` for ``i = 1 .. N-1``, the
    handoff into the artificial reference ``x_s - A x_{N-1} - B u_{N-1}``,
    and the equilibrium row ``x_s - A x_s - B u_s``. Columns follow the
    decision stack ``(x_0, u_0, ..., x_{N-1}, u_{N-1}, x_s, u_s)``.

    Every row block ``i = 0 .. N+1`` of ``G`` thus reads ``E z_i - C z_{i-1}``
    with ``C = [A B]``, ``E = [I 0]``, ``z_{-1} = 0`` and ``z_N = z_{N+1} =
    (x_s, u_s)``. The matrix is stored only as ``window = [C' ; -E']``
    (``2(n_x+n_u)`` by ``n_x``), formed from ``a`` and ``b`` at
    construction, so that row block ``i`` of ``-G z`` is ``[z_{i-1}, z_i]
    window``: the product the KKT chain takes, whatever the horizon.
    """

    a: InitVar[np.ndarray]
    b: InitVar[np.ndarray]
    horizon: int
    window: np.ndarray = field(init=False)

    def __post_init__(self, a, b):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatch("A must be square")
        if b.ndim != 2 or b.shape[0] != a.shape[0]:
            raise DimensionMismatch("B must have as many rows as A")
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        nx, w = a.shape[0], a.shape[0] + b.shape[1]
        window = np.zeros((2 * w, nx))
        window[:nx] = a.T
        window[nx:w] = b.T
        np.fill_diagonal(window[w:], -1.0)
        object.__setattr__(self, "window", window)

    @property
    def n_x(self) -> int:
        return self.window.shape[1]

    @property
    def n_u(self) -> int:
        return self.window.shape[0] // 2 - self.n_x

    def to_dense(self) -> np.ndarray:
        """Dense reconstruction from ``window`` (test helper).

        Row block ``i`` is ``-window'`` on the column blocks of ``(z_{i-1},
        z_i)`` in the padded stack ``(z_{-1}, z_0, ..., z_{N-1}, z_s, z_s)``.
        Dropping ``z_{-1}`` and folding the second copy of ``z_s`` onto the
        first gives ``G``.
        """
        nx, n = self.n_x, self.horizon
        w = nx + self.n_u
        padded = np.zeros(((n + 2) * nx, (n + 3) * w))
        # subtractions from zero rather than negations, so no zero turns -0.0
        for i in range(n + 2):
            padded[i * nx : (i + 1) * nx, i * w : (i + 2) * w] -= self.window.T
        g = padded[:, w : (n + 2) * w]
        g[:, n * w :] += padded[:, (n + 2) * w :]
        return g
