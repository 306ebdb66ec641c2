"""Numerical error-bound machinery evaluated against measured solver histories.

All norms here are max norms.  The central objects are the discrete Gronwall
bound, the Lipschitz constant of the propagator expressed against the cost
Hessian's condition number, the geometric recurrence that bounds the outer
iteration error, and the three-term round-off bound; each is evaluated with
measured inputs rather than asserted symbolically.  The measured inputs come
from the caller: harness.run_experiment reads the error table E and the
probe differences from the Parareal trajectory and the serial fine chain,
and passes them in.  No dense inverse is formed here: mu(M) reads
||M^-1||_inf from the model's stencil (testbed.ModelInstance.M_inv_norm).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .testbed import gemv_rows, require_integer


@dataclass(frozen=True)
class BoundParameters:
    """Measured ingredients of the convergence and round-off bounds."""

    C: float                # Lipschitz constant against mu_A
    mu_A: float             # condition number of the cost Hessian
    eps_mps: float          # measured inner-solver accuracy
    N: int                  # slab count
    C_h: float              # measured one-slab assimilation gap, seeds c_1

    @property
    def R_mu(self):
        return (self.C - self.mu_A) / self.mu_A


@dataclass(frozen=True)
class LipschitzEstimate:
    """Tightest constant C with ||Mu - Mv|| <= (C / mu_A) ||u - v|| on the probes."""

    C: float
    L: float                # ||M||_inf^2
    max_ratio: float        # tightest empirical ||M(u-v)|| / ||u-v||


@dataclass(frozen=True)
class RoundoffBound:
    total: float
    term_initial: float     # propagation of the initial-value round-off
    term_iteration: float   # propagation of the previous iteration's round-off
    term_rho: float         # local round-off contribution


def gronwall_bound(M0, R, H, N):
    """Discrete Gronwall bound e^{NR} M0 + (e^{NR} - 1)/R * H.

    Dominates any sequence with |M_k| <= (1 + R) |M_{k-1}| + H; the
    hypothesis requires R > 0.  M0, R and H must be finite (NaN is not),
    N a positive integer, and e^{NR} a finite float.
    """
    for name, value in (("M0", M0), ("R", R), ("H", H)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if R <= 0:
        raise ValueError(f"the Gronwall hypothesis needs R > 0, got {R}")
    for name, value in (("M0", M0), ("H", H)):
        if value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")
    require_integer("N", N, ValueError)
    if N < 1:
        raise ValueError(f"N must be a positive integer, got {N}")
    return _exp_of_NR(math.exp, N, R) * M0 + gronwall_prefactor(N, R) * H


def _exp_of_NR(exp, N, R):
    """exp(N R), a ValueError naming N and R where it overflows a float."""
    try:
        return exp(N * R)
    except OverflowError:
        raise ValueError(f"e^(N R) overflows a float at N = {N}, "
                         f"R = {R}") from None


def gronwall_prefactor(N, R):
    """(e^{NR} - 1) / R, extended by its limit N at R = 0.

    Well defined for negative R as well, which is how the convergence and
    round-off bounds consume it.  N must be an integer; a NaN R gives NaN.
    """
    require_integer("N", N, ValueError)
    if R == 0:
        return float(N)
    return _exp_of_NR(math.expm1, N, R) / R


def prefactor_sequence(n_max, R=-1.0):
    """Prefactor over N = 1..n_max; at R = -1 it climbs monotonically to 1."""
    return np.array([gronwall_prefactor(n, R) for n in range(1, n_max + 1)])


def lipschitz_estimate(M, mu_A, differences):
    """Derive the constant of ||Mu - Mv|| <= (C / mu_A) ||u - v|| empirically.

    `differences` holds one probe difference u - v per row.  C is chosen as
    mu_A times the tightest probe ratio ||M d|| / ||d||, which makes the
    inequality hold (with equality at the worst probe) on everything fed in;
    the caller should include the difference vectors it actually cares about.
    Zero rows (coinciding pairs) are skipped before any product is formed;
    a non-finite probe makes C non-finite.  L = ||M||_inf^2 is reported
    alongside for the error-magnitude form.  The probes run as one
    testbed.gemv_rows, so each row keeps its M @ d bits.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("M must be square")
    D = np.ascontiguousarray(differences, dtype=float)
    if not D.size:
        raise ValueError("need at least one probe difference")

    nd = np.abs(D).max(axis=1)
    nonzero = nd != 0.0
    if not nonzero.any():
        raise ValueError("all probe pairs coincide")
    with np.errstate(invalid="ignore"):     # inf / inf
        ratios = np.abs(gemv_rows(M, D[nonzero])).max(axis=1) / nd[nonzero]

    max_ratio = float(ratios.max())
    L = float(np.abs(M).sum(axis=1).max()) ** 2
    return LipschitzEstimate(C=mu_A * max_ratio, L=L, max_ratio=max_ratio)


def error_scale_constant(L, delta_err, xi):
    """The constant assembled from error magnitudes, L * ||delta|| / ||xi||."""
    if xi == 0:
        raise ValueError("xi must be nonzero")
    return L * delta_err / xi


def twin_error_scales(u0, u_truth, reference, M):
    """Computable stand-ins for the abstract error magnitudes.

    xi is the background error at the initial time, sigma its propagation to
    the final time, delta_err the assimilation error of the reference states
    against the truth trajectory (a max over the window).
    """
    u0 = np.asarray(u0, dtype=float)
    u_truth = np.asarray(u_truth, dtype=float)
    xi = float(np.max(np.abs(u0 - u_truth)))
    err = u0 - u_truth
    for _ in range(len(reference) - 1):
        err = M @ err
    sigma = float(np.max(np.abs(err)))
    truth_k = u_truth
    delta_err = float(np.max(np.abs(reference[0] - truth_k)))
    for k in range(1, len(reference)):
        truth_k = M @ truth_k
        delta_err = max(delta_err, float(np.max(np.abs(reference[k] - truth_k))))
    return xi, sigma, delta_err


def chain_discrepancy(M, M_inv_norm, mu_A, xi, delta_err):
    """Both sides of the imported identity mu(M) = (||delta|| / ||xi||) / mu(A).

    mu(M) = ||M||_inf ||M^-1||_inf takes ||M^-1||_inf = M_inv_norm as given:
    the model records it in closed form from its stencil
    (testbed.ModelInstance.M_inv_norm), so M is never inverted here.  The
    identity leans on assumptions we cannot verify, so both sides are
    computed and reported rather than asserted.
    """
    M = np.asarray(M, dtype=float)
    mu_M = float(np.abs(M).sum(axis=1).max() * M_inv_norm)
    chained = (delta_err / xi) / mu_A if xi else np.inf
    return {"mu_M_direct": mu_M, "mu_M_chained": chained,
            "discrepancy": abs(mu_M - chained)}


def recurrence_step(c_n, params):
    """One step of the error recurrence c_{n+1} = P (C c_n / mu_A + eps)."""
    P = gronwall_prefactor(params.N, params.R_mu)
    return P * (params.C * c_n / params.mu_A + params.eps_mps)


def error_and_bound_history(E, params):
    """The recurrence bound c_bound[n] for every level n of the error table E.

    E[n, k] = ||u_k^DA - u_k^n||_inf is measured by the caller, against the
    serial fine chain, from the Parareal trajectory's levels
    (harness.run_experiment); only its level count is read here.  The
    recurrence is seeded with the measured gap c_1 = C_h; c_bound[0] is NaN,
    since level 0 has no bound.
    """
    c_bound = np.full(len(E), np.nan)
    if len(E) > 1:
        c_bound[1] = params.C_h
        for n in range(1, len(E) - 1):
            c_bound[n + 1] = recurrence_step(c_bound[n], params)
    return c_bound


def roundoff_proxies(trajectory, M):
    """Observed recombination round-off via an extended-precision shadow.

    The shadow replays the coarse sweep and the corrector recombination in
    long-double arithmetic, reusing the stored double-precision correction
    factors as exact data, so it isolates the rounding of the update formula
    itself.  Returns the per-(n, k) global proxies and the largest one-update
    local proxy.

    Level n's shadow row at point k depends only on the bytes of u[n][0] and
    of delta[n-1][1..k] (level 0, which has no correction, stands alone).
    Parareal reuses the correction of every slab whose input did not move, so
    level n shares its rows with level n - 1 up to the first point where the
    two differ in u[n][0] or in a delta's bytes (-0.0 differs from 0.0).  The
    levels advance together one time point at a time, each distinct row
    once; every level then reads its own states against its row.

    NumPy has no BLAS for long double: dot(M, X.T) and the per-row M @ x
    both sum M[m, 0] x[0] + M[m, 1] x[1] + ... left to right from zero,
    rounding each product and partial sum to long double, so they give the
    same bits.  dot keeps the partial sum in a register where matmul stores
    it on every step, which makes it about twice as fast.
    """
    ld = np.longdouble
    M_ld = np.asarray(M, dtype=ld)
    levels, points = trajectory.n + 1, trajectory.n_points
    U, D = np.array(trajectory.u), np.array(trajectory.delta)
    # shared[n, k]: level n's row at point k is level n - 1's.  A level's
    # inputs are compared as bytes, one level against the one below at a time.
    shared = np.zeros((levels, points), dtype=bool)
    bits = D.view(np.uint64)
    for n in range(2, levels):
        same = (bits[n - 1] == bits[n - 2]).all(axis=1)
        same[0] = U[n, 0].tobytes() == U[n - 1, 0].tobytes()
        shared[n] = np.logical_and.accumulate(same)

    R_obs = np.empty((levels, points))
    for k in range(points):
        states = U[:, k].astype(ld)
        fresh = ~shared[:, k]
        new = np.flatnonzero(fresh)
        if k == 0:
            rows = states[new]
        else:
            rows = np.dot(M_ld, rows[row_of[new]].T).T
            if new.size > 1:            # level 0 has no correction
                rows[1:] += D[new[1:] - 1, k]
        row_of = np.cumsum(fresh) - 1
        R_obs[:, k] = np.abs(states - rows[row_of]).max(axis=1)

    rho_local = 0.0
    if trajectory.n > 0:
        last = U[-1].astype(ld)
        exact = np.dot(M_ld, last[:-1].T).T + D[-1, 1:]
        rho_local = float(np.abs(last[1:] - exact).max(initial=0.0))
    return R_obs, rho_local


def roundoff_bound(params, R_prev, R0, rho):
    """Three-term bound on the global round-off of one corrector update.

    total = e^{N R} R0 + P (C / mu_A + 1) R_prev + P 2 rho with
    P = (e^{N R} - 1) / R; the terms are returned separately for reporting
    (initial-value propagation, iteration propagation, local term).  Array
    R_prev and R0 broadcast, each cell with the scalar call's bits.
    """
    if not rho >= 0:                # NaN fails too
        raise ValueError(f"rho must be nonnegative, got {rho}")
    R = params.R_mu
    P = gronwall_prefactor(params.N, R)
    t1 = math.exp(params.N * R) * R0
    t2 = P * (params.C / params.mu_A + 1.0) * R_prev
    t3 = P * 2.0 * rho
    return RoundoffBound(total=t1 + t2 + t3, term_initial=t1,
                         term_iteration=t2, term_rho=t3)
