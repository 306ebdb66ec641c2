"""Synthetic twin-experiment construction: forecast model, covariances, observations.

Everything built here is deterministic given its inputs; observation noise is
drawn from an explicitly seeded generator so whole experiments can be replayed
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class TestbedError(ValueError):
    """Unusable testbed inputs: bad dimensions or a failed factorization."""


# Largest deviation of the propagator's row sums from 1 that build_model_instance
# accepts; measured deviations are <= 6e-5 up to diffusivity 1e10 and 1.0 from 1e20.
ROW_SUM_TOL = 1e-3


@dataclass(frozen=True)
class ModelInstance:
    """One-step linear forecast model on a periodic 1-D grid."""

    np: int                 # number of spatial grid points
    n_steps: int            # number of time points on [0, T]
    T: float
    h: float                # time step, T / (n_steps - 1)
    time_grid: np.ndarray   # t_k = k * h
    M: np.ndarray           # one-step propagator, np x np
    p: int                  # formal order of the time discretization

    def propagate(self, u, steps=1):
        """Apply the one-step propagator `steps` times."""
        for _ in range(steps):
            u = self.M @ u
        return u


@dataclass(frozen=True)
class CovarianceFactorPair:
    """Background covariance B with lower-triangular factor V (B = V V^T),
    plus the observation covariance R = sigma_r^2 I, kept as sigma_r alone."""

    B: np.ndarray
    V: np.ndarray
    sigma_b: float
    sigma_r: float
    L: float                # correlation length in grid units


@dataclass(frozen=True)
class ObservationSet:
    """Pointwise observations of a known truth, one batch per time; the
    operator H_k is the row selection x -> x[obs_indices[k]]."""

    nobs: int
    obs_indices: tuple      # per-time integer index arrays
    v: tuple                # per-time observation vectors
    seed: int
    u_truth: np.ndarray


def _freeze(a, dtype=float):
    a = np.asarray(a, dtype=dtype)
    a.flags.writeable = False
    return a


def build_model_instance(n_grid, n_steps, T, velocity, diffusivity):
    """Implicit upwind advection-diffusion propagator on a periodic grid.

    The semi-discrete operator combines first-order upwinding for the
    advection term (direction follows the sign of the velocity) with a
    centred second difference for diffusion.  One implicit Euler step gives
    M = (I + h A)^-1, which is unconditionally stable and dissipative:
    I + h A has unit row sums and is an M-matrix, so ||M||_inf = 1.
    """
    if n_grid < 2:
        raise TestbedError(f"need at least 2 grid points, got {n_grid}")
    if n_steps < 2:
        raise TestbedError(f"need at least 2 time points, got {n_steps}")
    if T <= 0:
        raise TestbedError(f"time horizon must be positive, got {T}")
    if diffusivity < 0:
        raise TestbedError(f"diffusivity must be nonnegative, got {diffusivity}")

    h = T / (n_steps - 1)
    dx = 1.0 / n_grid
    idx = np.arange(n_grid)
    left = (idx - 1) % n_grid
    right = (idx + 1) % n_grid

    A = np.zeros((n_grid, n_grid))
    a, nu = float(velocity), float(diffusivity)
    if a >= 0:
        A[idx, idx] += a / dx
        A[idx, left] -= a / dx
    else:
        A[idx, idx] -= a / dx
        A[idx, right] += a / dx
    A[idx, idx] += 2.0 * nu / dx**2
    A[idx, left] -= nu / dx**2
    A[idx, right] -= nu / dx**2

    # I + hA has unit row sums, so M must too.  An inverse that fails or loses
    # them is singular in float64: the larger transport term swamps the
    # identity, and the message names its field.
    key, value = ("diffusivity", nu) if 2.0 * nu / dx >= abs(a) else ("velocity", a)
    singular = f"{key}: {value:g} makes the propagator (I + hA)^-1 singular in float64"
    try:
        M = np.linalg.inv(np.eye(n_grid) + h * A)
    except np.linalg.LinAlgError as err:
        raise TestbedError(f"{singular}: {err}") from err
    row_error = float(np.abs(M.sum(axis=1) - 1.0).max())
    if not row_error <= ROW_SUM_TOL:
        raise TestbedError(f"{singular}: its row sums are off by {row_error:.3g}, "
                           f"more than {ROW_SUM_TOL:g}")
    time_grid = np.linspace(0.0, T, n_steps)
    return ModelInstance(np=n_grid, n_steps=n_steps, T=float(T), h=h,
                         time_grid=_freeze(time_grid), M=_freeze(M), p=1)


def build_covariance(n_grid, sigma_b, sigma_r, L):
    """Squared-exponential background covariance and diagonal observation covariance.

    B_jl = sigma_b^2 exp(-|j - l|^2 / (2 L^2)) plus a diagonal jitter of
    1e-10 sigma_b^2 that keeps the Cholesky factorization safe; L = 0 is the
    uncorrelated limit.  V is the lower Cholesky factor.  The observation
    covariance R = sigma_r^2 I is never materialized; its consumers read
    sigma_r.  Both variances must be normal float64 numbers, so that
    they and their inverses are finite and nonzero, and a nonzero L must
    have a finite, nonzero square.
    """
    if sigma_b <= 0 or sigma_r <= 0:
        raise TestbedError("sigma_b and sigma_r must be positive")
    for name, sigma in (("sigma_b", sigma_b), ("sigma_r", sigma_r)):
        if not np.finfo(float).tiny <= sigma * sigma < np.inf:
            raise TestbedError(
                f"{name}^2 = {sigma * sigma:g} is outside the normal float64 range")
    if L < 0:
        raise TestbedError(f"correlation length must be nonnegative, got {L}")
    # exp(-d^2 / (2 L^2)) needs a finite, nonzero L^2: Python's L**2 raises
    # OverflowError past float64, and an L^2 rounded to 0 makes d^2 / 0 NaN
    if L > 0 and not 0.0 < L * L < np.inf:
        raise TestbedError(f"L: {L:g} squared is outside the float64 range")

    idx = np.arange(n_grid)
    if L == 0:
        B = sigma_b**2 * np.eye(n_grid)
    else:
        d2 = (idx[:, None] - idx[None, :]).astype(float) ** 2
        B = sigma_b**2 * np.exp(-d2 / (2.0 * L**2))
    B = B + 1e-10 * sigma_b**2 * np.eye(n_grid)

    try:
        V = np.linalg.cholesky(B)
    except np.linalg.LinAlgError as err:
        raise TestbedError(f"background covariance is not SPD: {err}") from err

    return CovarianceFactorPair(B=_freeze(B), V=_freeze(V),
                                sigma_b=float(sigma_b), sigma_r=float(sigma_r),
                                L=float(L))


def _normalize_obs_indices(obs_indices, n_steps):
    """Accept one index list (reused at every time) or one list per time."""
    first = obs_indices[0] if len(obs_indices) else None
    if first is None or np.isscalar(first):
        per_time = [np.asarray(obs_indices, dtype=int)] * n_steps
    else:
        if len(obs_indices) != n_steps:
            raise TestbedError(
                f"need one index list per time point ({n_steps}), got {len(obs_indices)}")
        per_time = [np.asarray(ix, dtype=int) for ix in obs_indices]
    return per_time


def build_observations(instance, covpair, obs_indices, u_truth, seed, noise=True):
    """Observe the propagated truth at the given grid indices.

    v_k = H_k M^k u_truth + eta_k with eta_k ~ N(0, sigma_r^2 I) drawn from a
    generator seeded with `seed`; pass noise=False for exact-recovery tests.
    """
    n_grid, n_steps = instance.np, instance.n_steps
    per_time = _normalize_obs_indices(obs_indices, n_steps)

    nobs = len(per_time[0])
    for ix in per_time:
        if len(ix) != nobs:
            raise TestbedError("all time points must carry the same number of observations")
        if len(ix) and (ix.min() < 0 or ix.max() >= n_grid):
            raise TestbedError(f"observation index out of range [0, {n_grid})")
    if nobs >= n_grid:
        raise TestbedError(f"nobs must be < np ({n_grid}), got {nobs}")

    u_truth = np.asarray(u_truth, dtype=float)
    if u_truth.shape != (n_grid,):
        raise TestbedError(f"u_truth must have shape ({n_grid},)")

    rng = np.random.default_rng(seed)
    v = []
    x = u_truth
    for k in range(n_steps):
        if k > 0:
            x = instance.M @ x
        vk = x[per_time[k]]
        if noise:
            vk = vk + covpair.sigma_r * rng.standard_normal(nobs)
        v.append(_freeze(vk))

    return ObservationSet(nobs=nobs,
                          obs_indices=tuple(_freeze(ix, dtype=int) for ix in per_time),
                          v=tuple(v), seed=int(seed), u_truth=_freeze(u_truth))


def assemble_G(observations, instance):
    """Diagonal blocks of the space-time observation operator, one per time.

    The space-time operator is block diagonal, so only its blocks are kept:
    the leading block observes the initial state directly, G_0 = I[ix_0];
    every later block selects rows of the one-step propagator, G_k = M[ix_k].
    """
    n_steps = instance.n_steps
    per_time = observations.obs_indices
    if len(per_time) != n_steps:
        raise TestbedError(
            f"observation set has {len(per_time)} times, model has {n_steps}")
    for ix in per_time:
        if len(ix) and (ix.min() < 0 or ix.max() >= instance.np):
            raise TestbedError(
                f"observation index out of range [0, {instance.np})")

    blocks = [np.eye(instance.np)[per_time[0]]]
    blocks += [instance.M[per_time[k]] for k in range(1, n_steps)]
    return tuple(_freeze(b) for b in blocks)
