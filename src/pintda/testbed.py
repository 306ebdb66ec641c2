"""Synthetic twin-experiment construction: forecast model, covariances, observations.

Everything built here is deterministic given its inputs; observation noise is
drawn from an explicitly seeded generator so whole experiments can be replayed
bit for bit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np


class TestbedError(ValueError):
    """Unusable testbed inputs: bad dimensions or a failed factorization."""


def require_integer(name, value, error):
    """Raise `error` naming `name` unless value is an integer: a Python or
    NumPy int, not a bool and not a float of integral value."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} {value} is not an integer")


def gemv_rows(A, x):
    """A @ x[i] for every row i of x, as one stacked gemv.

    Each row has the bits of A @ x[i] computed alone, for any number of rows,
    provided x is C-ordered: a gemm (x @ A.T) makes no such promise, since
    BLAS may sum a blocked product in another order.
    """
    return np.matmul(A, x[..., None])[..., 0]


# Largest deviation of the propagator's row sums from 1 that build_model_instance
# accepts; measured deviations are <= 6e-5 up to diffusivity 1e10 and 1.0 from 1e20.
ROW_SUM_TOL = 1e-3


@dataclass(frozen=True)
class ModelInstance:
    """One-step linear forecast model on a periodic 1-D grid.

    M = (I + h A)^-1, so ||M^-1||_inf = ||I + h A||_inf, which
    build_model_instance reads off the stencil in closed form, beside
    ||M||_inf, the largest absolute row sum of the computed M; the analysis
    layer takes mu(M) = ||M||_inf ||M^-1||_inf from them without inverting M.
    """

    np: int                 # number of spatial grid points
    n_steps: int            # number of time points on [0, T]
    h: float                # time step T / (n_steps - 1); t_k = k h
    M: np.ndarray           # one-step propagator, np x np
    M_norm: float           # ||M||_inf, the largest absolute row sum of M
    M_inv_norm: float       # ||M^-1||_inf = ||I + h A||_inf, from the stencil


@dataclass(frozen=True)
class CovarianceFactorPair:
    """Background covariance B with lower-triangular factor V (B = V V^T),
    plus the observation covariance R = sigma_r^2 I, kept as sigma_r alone;
    sigma_b and L are B's parameters."""

    B: np.ndarray
    V: np.ndarray
    sigma_b: float
    sigma_r: float
    L: float


@dataclass(frozen=True)
class ObservationSet:
    """Pointwise observations of a known truth at the same grid points at
    every time; the operator H is the row selection x -> x[obs]."""

    obs: np.ndarray         # observed grid points, one frozen index array
    v: np.ndarray           # (n_steps, nobs), row k observes time k; frozen
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
    n_grid and n_steps must be integers (a bool is not); T, velocity and
    diffusivity must be finite.

    ||M^-1||_inf = ||I + h A||_inf is read off the stencil.  Every row has
    the diagonal 1 + h (|a|/dx + 2 nu/dx^2); its off-diagonals are <= 0 and
    sum to -h (|a|/dx + 2 nu/dx^2), the upwind neighbour's -h |a|/dx plus
    -h nu/dx^2 on each side.  So every absolute row sum is
    1 + 2 h (|a|/dx + 2 nu/dx^2).  At n_grid = 2 left and right are the same
    neighbour, whose one entry is the whole off-diagonal sum, so the same
    value holds.
    """
    for name, value in (("n_grid", n_grid), ("n_steps", n_steps)):
        require_integer(name, value, TestbedError)
    if n_grid < 2:
        raise TestbedError(f"need at least 2 grid points, got {n_grid}")
    if n_steps < 2:
        raise TestbedError(f"need at least 2 time points, got {n_steps}")
    for name, value in (("T", T), ("velocity", velocity),
                        ("diffusivity", diffusivity)):
        if not math.isfinite(value):
            raise TestbedError(f"{name}: must be finite, got {value}")
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
    # them is singular in float64: the larger transport term, over the time
    # step, swamps the identity, and the message names its field and h.
    key, value = ("diffusivity", nu) if 2.0 * nu / dx >= abs(a) else ("velocity", a)
    singular = (f"{key}: {value:g} with h = T/(n_steps - 1) = {h:g} makes the "
                f"propagator (I + hA)^-1 singular in float64")
    # I + hA in place, with no n_grid^2 temporaries.  Adding 0.0 turns a
    # -0.0 (an entry of hA that underflowed) into 0.0, as the formula
    # np.eye(n_grid) + h * A does, so inv reads that formula's bits.
    A *= h
    A += 0.0
    A[idx, idx] += 1.0
    try:
        M = np.linalg.inv(A)
    except np.linalg.LinAlgError as err:
        raise TestbedError(f"{singular}: {err}") from err
    row_error = float(np.abs(M.sum(axis=1) - 1.0).max())
    if not row_error <= ROW_SUM_TOL:
        raise TestbedError(f"{singular}: its row sums are off by {row_error:.3g}, "
                           f"more than {ROW_SUM_TOL:g}")
    M_inv_norm = 1.0 + 2.0 * h * (abs(a) / dx + 2.0 * nu / dx**2)
    return ModelInstance(np=n_grid, n_steps=n_steps, h=h, M=_freeze(M),
                         M_norm=float(np.abs(M).sum(axis=1).max()),
                         M_inv_norm=M_inv_norm)


def build_covariance(n_grid, sigma_b, sigma_r, L):
    """Squared-exponential background covariance and diagonal observation covariance.

    B_jl = sigma_b^2 exp(-|j - l|^2 / (2 L^2)) plus a diagonal jitter of
    1e-10 sigma_b^2 that keeps the Cholesky factorization safe; L = 0 is the
    uncorrelated limit.  V is the lower Cholesky factor.  The observation
    covariance R = sigma_r^2 I is never materialized; its consumers read
    sigma_r.  Both variances must be normal float64 numbers, so that
    they and their inverses are finite and nonzero.  L must be nonnegative
    (NaN is not), a nonzero L must have a finite, nonzero square, and
    n_grid must be an integer.
    """
    require_integer("n_grid", n_grid, TestbedError)
    if sigma_b <= 0 or sigma_r <= 0:
        raise TestbedError("sigma_b and sigma_r must be positive")
    for name, sigma in (("sigma_b", sigma_b), ("sigma_r", sigma_r)):
        if not np.finfo(float).tiny <= sigma * sigma < np.inf:
            raise TestbedError(
                f"{name}^2 = {sigma * sigma:g} is outside the normal float64 range")
    if not L >= 0:              # NaN fails this too
        raise TestbedError(f"L: correlation length must be nonnegative, got {L}")
    # exp(-d^2 / (2 L^2)) needs a finite, nonzero L^2: Python's L**2 raises
    # OverflowError past float64, and an L^2 rounded to 0 makes d^2 / 0 NaN
    if L > 0 and not 0.0 < L * L < np.inf:
        raise TestbedError(f"L: {L:g} squared is outside the float64 range")

    # B is built in place, in one n_grid^2 array, each step rounding as in
    # sigma_b^2 exp(-d^2 / (2 L^2)) + 1e-10 sigma_b^2 I
    if L == 0:
        B = np.eye(n_grid)
    else:
        x = np.arange(n_grid, dtype=float)
        B = np.subtract.outer(x, x)
        np.square(B, out=B)
        np.negative(B, out=B)
        # below about L = 1e-153, d^2 / (2 L^2) overflows to inf off the
        # diagonal, and exp(-inf) = 0 is the exact uncorrelated value
        with np.errstate(over="ignore"):
            B /= 2.0 * L**2
        np.exp(B, out=B)
    B *= sigma_b**2
    B[np.diag_indices(n_grid)] += 1e-10 * sigma_b**2

    try:
        V = np.linalg.cholesky(B)
    except np.linalg.LinAlgError as err:
        raise TestbedError(f"background covariance is not SPD: {err}") from err

    return CovarianceFactorPair(B=_freeze(B), V=_freeze(V),
                                sigma_b=float(sigma_b), sigma_r=float(sigma_r),
                                L=float(L))


def build_observations(instance, covpair, obs_indices, u_truth, seed, noise=True):
    """Observe the propagated truth at the same grid points at every time.

    obs_indices is one 1-D list of integer grid indices (repeats allowed);
    row k of v is v_k = H M^k u_truth + eta_k, with eta_k ~ N(0, sigma_r^2 I)
    drawn from a generator seeded with `seed`, a non-negative integer (not a
    bool), time by time; pass noise=False for exact-recovery tests.
    """
    require_integer("seed", seed, TestbedError)
    if seed < 0:
        raise TestbedError(f"seed must be >= 0, got {seed}")
    n_grid, n_steps = instance.np, instance.n_steps
    try:                        # copies: freezing must not touch the caller's arrays
        obs = np.array(obs_indices)
    except ValueError:          # a ragged list of lists, so not 1-D
        obs = np.empty((0, 0))
    if obs.ndim != 1 or not (obs.size == 0 or np.issubdtype(obs.dtype, np.integer)):
        raise TestbedError("obs_indices: expected one 1-D list of integer grid indices")
    nobs = len(obs)
    if nobs and (obs.min() < 0 or obs.max() >= n_grid):
        raise TestbedError(f"observation index out of range [0, {n_grid})")
    if nobs >= n_grid:
        raise TestbedError(f"nobs must be < np ({n_grid}), got {nobs}")
    obs = _freeze(obs, dtype=int)

    u_truth = np.array(u_truth, dtype=float)
    if u_truth.shape != (n_grid,):
        raise TestbedError(f"u_truth must have shape ({n_grid},)")

    truth = np.empty((n_steps, n_grid))
    truth[0] = u_truth
    for k in range(1, n_steps):
        truth[k] = instance.M @ truth[k - 1]
    v = truth.take(obs, axis=1)
    if noise:
        v += covpair.sigma_r * np.random.default_rng(seed).standard_normal(
            (n_steps, nobs))

    return ObservationSet(obs=obs, v=_freeze(v), u_truth=_freeze(u_truth))


def assemble_G(observations, instance):
    """Diagonal blocks of the space-time observation operator, one per time.

    The space-time operator is block diagonal, so only its blocks are kept:
    the leading block observes the initial state directly, G_0 = I[obs];
    every later block selects the same rows of the one-step propagator,
    G_k = M[obs], one frozen array shared by every k >= 1.
    """
    n_steps, obs = instance.n_steps, observations.obs
    if len(observations.v) != n_steps:
        raise TestbedError(
            f"observation set has {len(observations.v)} times, model has {n_steps}")
    if len(obs) and (obs.min() < 0 or obs.max() >= instance.np):
        raise TestbedError(f"observation index out of range [0, {instance.np})")
    return (_freeze(np.eye(instance.np)[obs]),) \
        + (_freeze(instance.M[obs]),) * (n_steps - 1)
