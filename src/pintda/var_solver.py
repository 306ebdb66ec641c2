"""Direct (oracle) evaluation and minimization of the variational cost functions.

Both cost functions weight misfits by inverse covariances.  The single-time
variant assimilates one observation batch against the background.  The
space-time variant stacks the states at every time point; each sees only its
own observations and background term, so its Hessian is block diagonal and it
is solved one np x np time block at a time, each block being the single-time
normal system with H -> G_k and lam -> alpha.  The direct solver factorizes
each block densely and is the reference every iterative solver in this
package is tested against.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg


class VarSolverError(ValueError):
    """Inconsistent shapes or a singular stationarity system."""


VARIANTS = ("threeD", "fourD")


@dataclass(frozen=True)
class VarProblemConfig:
    """Everything needed to evaluate and minimize the variational costs.

    `G` holds the per-time observation operators of the space-time variant
    (G[0] = H_0, G[k] = H_k M).  For the single-time variant, `time_index`
    selects which observation batch is assimilated and `u0` doubles as the
    background state.
    """

    instance: object
    covpair: object
    observations: object
    G: tuple
    u0: np.ndarray
    alpha: float = 1.0
    lam: float = 1.0
    time_index: int = 0

    def __post_init__(self):
        if self.alpha < 0 or self.lam < 0:
            raise VarSolverError("regularization weights must be nonnegative")
        u0 = np.asarray(self.u0, dtype=float)
        if u0.shape != (self.instance.np,):
            raise VarSolverError(f"u0 must have shape ({self.instance.np},)")
        object.__setattr__(self, "u0", u0)


@dataclass(frozen=True)
class AnalysisState:
    u_da: np.ndarray
    cost: float
    grad_norm: float


@dataclass(frozen=True)
class HessianReport:
    blocks: tuple           # per-time Hessians; the single-time variant has one
    mu: float               # infinity-norm condition number


def _blocks(config, variant):
    """Background weight and per-time (operator, observations, covariance)."""
    if variant not in VARIANTS:
        raise VarSolverError(f"variant must be one of {VARIANTS}, got {variant!r}")
    obs = config.observations
    if variant == "threeD":
        k = config.time_index
        return config.lam, [(obs.H[k], obs.v[k], config.covpair.R_block(k, obs.nobs))]
    return config.alpha, [(Gk, obs.v[k], config.covpair.R_block(k, obs.nobs))
                          for k, Gk in enumerate(config.G)]


def _state_blocks(u, config, n_blocks):
    """The state as one row per time block, shape-checked."""
    u = np.asarray(u, dtype=float)
    if u.shape != (n_blocks * config.instance.np,):
        raise VarSolverError(f"state must have shape ({n_blocks * config.instance.np},)")
    return u.reshape(n_blocks, -1)


def eval_cost(u, config, variant="threeD"):
    """Quadratic data-assimilation cost of a state vector.

    threeD:  (H u - v)^T R^-1 (H u - v) + lam (u - u0)^T B^-1 (u - u0)
    fourD:   sum_k (G_k u_k - v_k)^T R_k^-1 (G_k u_k - v_k)
                   + alpha (u_k - u0)^T B^-1 (u_k - u0)
    """
    weight, blocks = _blocks(config, variant)
    U = _state_blocks(u, config, len(blocks))
    D = U - config.u0
    BD = np.linalg.solve(config.covpair.B, D.T).T
    total = 0.0
    for (H, v, Rk), uk, dk, bdk in zip(blocks, U, D, BD):
        r = H @ uk - v
        total += (float(r @ np.linalg.solve(Rk, r)) if r.size else 0.0) \
            + weight * float(dk @ bdk)
    return total


def eval_grad(u, config, variant="threeD"):
    """Analytic gradient of eval_cost at u."""
    weight, blocks = _blocks(config, variant)
    U = _state_blocks(u, config, len(blocks))
    g = 2.0 * weight * np.linalg.solve(config.covpair.B, (U - config.u0).T).T
    for k, (H, v, Rk) in enumerate(blocks):
        if v.size:
            g[k] = g[k] + 2.0 * H.T @ np.linalg.solve(Rk, H @ U[k] - v)
    return g.ravel()


def _normal_systems(config, variant):
    """Matrix and right-hand side of the stationarity equations, per block.

    Block k is  weight B^-1 + H_k^T R_k^-1 H_k  with right-hand side
    weight B^-1 u0 + H_k^T R_k^-1 v_k; B^-1 is formed once for all blocks.
    """
    weight, blocks = _blocks(config, variant)
    Binv = scipy.linalg.inv(config.covpair.B)
    Binv = 0.5 * (Binv + Binv.T)
    A_bg = weight * Binv
    rhs_bg = A_bg @ config.u0

    systems = []
    for H, v, Rk in blocks:
        A, rhs = A_bg, rhs_bg
        if v.size:
            Rinv = scipy.linalg.inv(Rk)
            A = A + H.T @ Rinv @ H
            rhs = rhs + H.T @ Rinv @ v
        systems.append((0.5 * (A + A.T), rhs))
    return systems


def solve_var_direct(config, variant="threeD"):
    """Minimize the cost by a dense solve of each block of its normal equations.

    One step of iterative refinement per block keeps the returned gradient
    residual at round-off level; a singular block is reported as a fault.
    """
    systems = _normal_systems(config, variant)
    parts = []
    for A, rhs in systems:
        try:
            u = scipy.linalg.solve(A, rhs, assume_a="pos")
            u = u + scipy.linalg.solve(A, rhs - A @ u, assume_a="pos")
        except scipy.linalg.LinAlgError as err:
            raise VarSolverError(f"stationarity system is singular: {err}") from err
        parts.append(u)

    grad_norm = max(float(np.max(np.abs(2.0 * (A @ u - rhs))))
                    for (A, rhs), u in zip(systems, parts))
    tol = 1e-10 * (1.0 + max(float(np.max(np.abs(rhs))) for _, rhs in systems))
    if grad_norm > tol:
        raise VarSolverError(
            f"direct solve left gradient residual {grad_norm:.3e} > {tol:.3e}")
    u = np.concatenate(parts)
    return AnalysisState(u_da=u, cost=eval_cost(u, config, variant), grad_norm=grad_norm)


def hessian_condition(config, variant="threeD"):
    """Constant Hessian of the quadratic cost and its infinity-norm condition number.

    The Hessian is block diagonal and so is its inverse, so both infinity
    norms are maxima over the blocks: mu = max_k ||A_k|| * max_k ||A_k^-1||.
    A block that is singular to working precision (SciPy's ill-conditioning
    warning) is a fault: its inverse, and so mu, would be meaningless.
    """
    blocks, norm, inv_norm = [], 0.0, 0.0
    for k, (A, _) in enumerate(_normal_systems(config, variant)):
        A = 2.0 * A
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", scipy.linalg.LinAlgWarning)
                Ainv = scipy.linalg.inv(A)
        except scipy.linalg.LinAlgWarning as err:
            # SciPy's text labels the condition number "rcond"; keep it off the CLI
            raise VarSolverError(f"Hessian block {k} is singular to working "
                                 "precision: SciPy's inverse finds it "
                                 "ill-conditioned") from err
        except scipy.linalg.LinAlgError as err:
            raise VarSolverError(f"Hessian is singular: {err}") from err
        blocks.append(A)
        norm = max(norm, np.abs(A).sum(axis=1).max())
        inv_norm = max(inv_norm, np.abs(Ainv).sum(axis=1).max())
    return HessianReport(blocks=tuple(blocks), mu=float(norm * inv_norm))
