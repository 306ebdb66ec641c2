"""Direct (oracle) evaluation and minimization of the variational cost functions.

Both cost functions weight misfits by inverse covariances, R^-1 being the
scalar 1 / sigma_r^2.  The single-time variant assimilates one observation
batch against the background.  The space-time variant stacks the states at
every time point; each sees only its own observations and background term, so
its Hessian is block diagonal and it is solved one np x np time block at a
time, each block being the single-time normal system with H -> G_k and
lam -> alpha.  The direct solver is the reference every iterative solver in
this package is tested against, so its operators stay dense.  It solves in
the control w (u = u0 + V w, B = V V^T): a formed B^-1 loses log10 cond(B)
digits, and cond(B) reaches 1e11 at L = 4.  It forms and factors each
distinct block once: one single-time block (H = I[obs]); two space-time
blocks, G_0 = I[obs] and the one array M[obs] every G_k, k >= 1, shares.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import testbed


class VarSolverError(ValueError):
    """Inconsistent shapes or a singular stationarity system."""


VARIANTS = ("threeD", "fourD")


@dataclass(frozen=True)
class VarProblemConfig:
    """Everything needed to evaluate and minimize the variational costs.

    The space-time variant's observation operators G_k are derived from the
    observation network and the model (testbed.assemble_G).  For the
    single-time variant, `time_index` selects which observation batch is
    assimilated and `u0` doubles as the background state.
    """

    instance: object
    covpair: object
    observations: object
    u0: np.ndarray
    alpha: float = 1.0
    lam: float = 1.0
    time_index: int = 0

    def __post_init__(self):
        for name in ("alpha", "lam"):
            if not 0 <= getattr(self, name) < np.inf:
                raise VarSolverError(f"{name} must be finite and nonnegative, "
                                     f"got {getattr(self, name)}")
        u0 = np.asarray(self.u0, dtype=float)
        if u0.shape != (self.instance.np,):
            raise VarSolverError(f"u0 must have shape ({self.instance.np},)")
        testbed.require_integer("time_index", self.time_index, VarSolverError)
        if not 0 <= self.time_index < self.instance.n_steps:
            raise VarSolverError(f"time_index {self.time_index} is outside "
                                 f"[0, {self.instance.n_steps})")
        object.__setattr__(self, "u0", u0)


@dataclass(frozen=True)
class AnalysisState:
    u_da: np.ndarray
    grad_norm: float


def _blocks(config, variant):
    """Background weight and per-time (operator, observations)."""
    if variant not in VARIANTS:
        raise VarSolverError(f"variant must be one of {VARIANTS}, got {variant!r}")
    obs = config.observations
    if variant == "threeD":
        H = np.eye(config.instance.np)[obs.obs]
        return config.lam, [(H, obs.v[config.time_index])]
    G = testbed.assemble_G(obs, config.instance)
    return config.alpha, list(zip(G, obs.v))


def _state_blocks(u, config, n_blocks):
    """The state as one row per time block, shape-checked."""
    u = np.asarray(u, dtype=float)
    if u.shape != (n_blocks * config.instance.np,):
        raise VarSolverError(f"state must have shape ({n_blocks * config.instance.np},)")
    return u.reshape(n_blocks, -1)


def eval_cost(u, config, variant="threeD"):
    """Quadratic data-assimilation cost of a state vector.

    threeD:  (H u - v)^T R^-1 (H u - v) + lam (u - u0)^T B^-1 (u - u0)
    fourD:   sum_k (G_k u_k - v_k)^T R^-1 (G_k u_k - v_k)
                   + alpha (u_k - u0)^T B^-1 (u_k - u0)
    """
    weight, blocks = _blocks(config, variant)
    U = _state_blocks(u, config, len(blocks))
    D = U - config.u0
    BD = np.linalg.solve(config.covpair.B, D.T).T
    r_var = config.covpair.sigma_r**2
    total = 0.0
    for (H, v), uk, dk, bdk in zip(blocks, U, D, BD):
        r = H @ uk - v
        total += float(r @ (r / r_var)) + weight * float(dk @ bdk)
    return total


def eval_grad(u, config, variant="threeD"):
    """Analytic gradient of eval_cost at u."""
    weight, blocks = _blocks(config, variant)
    U = _state_blocks(u, config, len(blocks))
    g = 2.0 * weight * np.linalg.solve(config.covpair.B, (U - config.u0).T).T
    r_var = config.covpair.sigma_r**2
    for k, (H, v) in enumerate(blocks):
        g[k] = g[k] + 2.0 * H.T @ ((H @ U[k] - v) / r_var)
    return g.ravel()


def _checked_inv(A, what, cause=""):
    """scipy.linalg.inv(A), with a singular A, or one singular to working
    precision (SciPy's ill-conditioning warning), raised as VarSolverError
    naming `what`, with `cause` appended."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", scipy.linalg.LinAlgWarning)
            return scipy.linalg.inv(A)
    except scipy.linalg.LinAlgWarning as err:
        # SciPy's text labels the condition number "rcond"; keep it off the CLI
        raise VarSolverError(f"{what} is singular to working precision: SciPy's "
                             f"inverse finds it ill-conditioned{cause}") from err
    except scipy.linalg.LinAlgError as err:
        raise VarSolverError(f"{what} is singular: {err}{cause}") from err


def _background_term(config, weight):
    """weight B^-1, symmetrized, the part every block shares."""
    cov = config.covpair
    Binv = _checked_inv(cov.B, f"the background covariance B (sigma_b = "
                               f"{cov.sigma_b:g}, L = {cov.L:g})")
    return weight * (0.5 * (Binv + Binv.T))


def normal_matrix(A_bg, H, rinv):
    """A_bg + rinv H^T H, symmetrized, and rinv H^T: the one builder of the
    oracle's blocks and of dd_mps's Schwarz blocks.

    rinv H^T is a C-ordered copy: H.T alone is an F-ordered view, which a
    gemm reads as a transposed operand and may sum in another order, so the
    products keep the bits of the product with a dense R^-1.
    """
    HtRinv = np.multiply(H.T, rinv, order="C")
    A = A_bg + HtRinv @ H
    return 0.5 * (A + A.T), HtRinv


def _hessian_blocks(config, variant):
    """The distinct blocks of the half Hessian, weight B^-1 + H^T R^-1 H, in
    time order (each G_k, k >= 1, is one array); B^-1 is formed once.

    A B that is singular to working precision (SciPy's ill-conditioning
    warning) and a block that overflows float64 are faults, raised as
    VarSolverError naming the fields that cause them.
    """
    weight, blocks = _blocks(config, variant)
    rinv = 1.0 / config.covpair.sigma_r**2
    # Overflow surfaces as values, not warnings: the check below rejects it.
    with np.errstate(over="ignore", invalid="ignore"):
        A_bg = _background_term(config, weight)
        halves = [normal_matrix(A_bg, H, rinv)[0]
                  for H in {id(H): H for H, _ in blocks}.values()]
    if not all(np.isfinite(half).all() for half in halves):
        raise VarSolverError(f"{_scales(config, variant)} overflows the Hessian "
                             "in float64")
    return halves


def _scales(config, variant):
    """The fields that scale the Hessian, as a fault's message names them."""
    name, weight = ("alpha", config.alpha) if variant == "fourD" else ("lambda", config.lam)
    cov = config.covpair
    return f"{name} = {weight:g} with sigma_b = {cov.sigma_b:g} and sigma_r = {cov.sigma_r:g}"


def solve_var_direct(config, variant="threeD"):
    """Minimize the cost by a dense solve of each block of its normal
    equations, in the control w_k where u_k = u0 + V w_k.

    Block k is  weight I + S_k^T R^-1 S_k  with S_k = H_k V and right-hand
    side S_k^T R^-1 (v_k - H_k u0).  Each distinct block is Cholesky-factored
    once, and one refinement step per time keeps the gradient residual, in
    the control, at round-off level; a singular block is reported as a fault.
    """
    weight, blocks = _blocks(config, variant)
    V, u0 = config.covpair.V, config.u0
    A_bg = weight * np.eye(config.instance.np)
    rinv = 1.0 / config.covpair.sigma_r**2
    parts, grad_norm, rhs_max, factored = [], 0.0, 0.0, {}
    for H, v in blocks:
        if id(H) not in factored:
            A, StRinv = normal_matrix(A_bg, H @ V, rinv)
            try:
                factored[id(H)] = A, StRinv, scipy.linalg.cho_factor(A)
            except scipy.linalg.LinAlgError as err:
                raise VarSolverError(f"stationarity system is singular: {err}"
                                     f" ({_scales(config, variant)})") from err
        A, StRinv, chol = factored[id(H)]
        rhs = StRinv @ (v - H @ u0)
        w = scipy.linalg.cho_solve(chol, rhs)
        w = w + scipy.linalg.cho_solve(chol, rhs - A @ w)
        grad_norm = max(grad_norm, float(np.max(np.abs(2.0 * (A @ w - rhs)))))
        rhs_max = max(rhs_max, float(np.max(np.abs(rhs))))
        parts.append(u0 + V @ w)

    tol = 1e-10 * (1.0 + rhs_max)
    if grad_norm > tol:
        raise VarSolverError(
            f"direct solve left gradient residual {grad_norm:.3e} > {tol:.3e}")
    return AnalysisState(u_da=np.concatenate(parts), grad_norm=grad_norm)


def hessian_condition(config, variant="threeD"):
    """Infinity-norm condition number of the quadratic cost's constant Hessian.

    The Hessian is block diagonal and so is its inverse, so both infinity
    norms are maxima over the blocks: mu = max_k ||A_k|| * max_k ||A_k^-1||.
    Every block k >= 1 observes through the same G_k = M[obs], so at most two
    distinct blocks are formed and inverted.  A block that is singular to
    working precision (SciPy's ill-conditioning warning) is a fault: its
    inverse, and so mu, would be meaningless; the fault names the weight and sigmas.
    """
    norm, inv_norm = 0.0, 0.0
    for k, half in enumerate(_hessian_blocks(config, variant)):
        A = 2.0 * half
        Ainv = _checked_inv(A, f"Hessian block {k}",
                            f" ({_scales(config, variant)})")
        norm = max(norm, np.abs(A).sum(axis=1).max())
        inv_norm = max(inv_norm, np.abs(Ainv).sum(axis=1).max())
    return float(norm * inv_norm)
