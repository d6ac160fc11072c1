"""Shared instance generators for the test suite.

Random problems are drawn from seeded generators so every failure is
reproducible; conditioning is kept moderate on purpose (eigenvalue ranges,
spectral-radius caps) because the numerical contracts under test assume
sanely scaled data.
"""

from dataclasses import replace

import numpy as np
import pytest

from mpct_admm import LtiModel, MpctParams


def random_spd(rng: np.random.Generator, n: int, eig_lo: float = 0.5, eig_hi: float = 3.0) -> np.ndarray:
    """Random SPD matrix with eigenvalues uniform in [eig_lo, eig_hi]."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eig = rng.uniform(eig_lo, eig_hi, n)
    return q @ np.diag(eig) @ q.T


def _controllable(a: np.ndarray, b: np.ndarray) -> bool:
    nx = a.shape[0]
    ctrb = np.hstack([np.linalg.matrix_power(a, k) @ b for k in range(nx)])
    if np.linalg.matrix_rank(ctrb) < nx:
        return False
    # the equilibrium rows need [A - I, B] at full rank as well
    return np.linalg.matrix_rank(np.hstack([a - np.eye(nx), b])) == nx


def random_controllable_model(
    rng: np.random.Generator,
    n_x: int,
    n_u: int,
    bound_scale: float = 4.0,
) -> LtiModel:
    """Random controllable model with comfortable symmetric box bounds."""
    while True:
        a = rng.standard_normal((n_x, n_x))
        radius = max(np.abs(np.linalg.eigvals(a)))
        a = a / max(radius / 1.05, 1.0)  # keep the spectral radius near or below one
        b = rng.standard_normal((n_x, n_u))
        if _controllable(a, b):
            break
    x_hi = np.full(n_x, bound_scale)
    u_hi = np.full(n_u, bound_scale)
    return LtiModel(A=a, B=b, x_lo=-x_hi, x_hi=x_hi, u_lo=-u_hi, u_hi=u_hi)


def random_params(
    rng: np.random.Generator,
    n_x: int,
    n_u: int,
    horizon: int,
    rho: float | None = None,
    **overrides,
) -> MpctParams:
    if rho is None:
        rho = float(np.exp(rng.uniform(np.log(0.1), np.log(5.0))))
    kwargs = dict(
        Q=random_spd(rng, n_x),
        R=random_spd(rng, n_u),
        T=random_spd(rng, n_x),
        S=random_spd(rng, n_u),
        N=horizon,
        epsilon=1e-6,
        rho=rho,
        eps_primal=1e-4,
        eps_dual=1e-4,
        max_iter=4000,
    )
    kwargs.update(overrides)
    return MpctParams(**kwargs)


def random_instance(rng: np.random.Generator, **param_overrides):
    """Random controllable model + params with dimensions in the small range.

    The horizon is drawn at or above n_x: a controllable pair can then reach
    any equilibrium within the horizon, which keeps the stacked dynamics
    matrix at full row rank (shorter horizons make the problem structurally
    degenerate, which the builder rejects).
    """
    n_x = int(rng.integers(1, 5))
    n_u = int(rng.integers(1, 4))
    horizon = int(rng.integers(max(2, n_x), 9))
    model = random_controllable_model(rng, n_x, n_u)
    params = random_params(rng, n_x, n_u, horizon, **param_overrides)
    return model, params


def with_params(data, **updates):
    """``data`` with tolerances or cap replaced; no factor depends on them."""
    return replace(data, params=replace(data.params, **updates))


def interior_point(model: LtiModel, rng: np.random.Generator, margin: float = 0.5) -> np.ndarray:
    """A state strictly inside the box (bounds here are always finite)."""
    return rng.uniform(model.x_lo * margin, model.x_hi * margin)


@pytest.fixture
def integrator_model() -> LtiModel:
    """The 1-state, 1-input integrator used throughout the worked examples."""
    return LtiModel(A=[[1.0]], B=[[1.0]], x_lo=[-10.0], x_hi=[10.0], u_lo=[-10.0], u_hi=[10.0])


@pytest.fixture
def integrator_params() -> MpctParams:
    return MpctParams(Q=[[1.0]], R=[[1.0]], T=[[1.0]], S=[[1.0]], N=2, rho=1.0)
