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
The observed round-off is the error of an exact replay of the Parareal
recombination, carried in float64 from residuals formed by error-free
split products on BLAS (roundoff_proxies): no long double is used, so its
bits, like the solvers', depend on the BLAS but not on what long double
means on a platform.
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


def _split(X, bits):
    """X = hi + lo exactly, row by row, each row's hi a multiple of 2^(e - bits)
    no larger than 2^e, where 2^e is the least power of two above the row's
    largest magnitude; so |lo| <= 2^-bits max|row|."""
    e = np.frexp(np.abs(X).max(axis=1, keepdims=True))[1]
    hi = np.ldexp(np.rint(np.ldexp(X, bits - e)), e - bits)
    return hi, X - hi


def _two_sum(a, b):
    """s = fl(a + b) and its rounding error: s + err == a + b exactly."""
    s = a + b
    z = s - a
    return s, (a - (s - z)) + (b - z)


def _residuals(H, L, bits, X, d, y):
    """tau = M x + d - y for each row, M = H + L already split."""
    Xh, Xl = _split(X, bits)
    s, a = _two_sum(Xh @ H.T, d)        # the hi product is exact
    q = Xl @ H.T
    q += X @ L.T
    a += q
    s -= y
    s += a
    return s


def roundoff_proxies(trajectory, M):
    """Observed recombination round-off: the error of an exact shadow.

    The shadow replays the coarse sweep and the corrector recombination
    exactly, taking the stored double-precision corrections as exact data,
    so it isolates the rounding of the update formula itself.  Level n's
    shadow starts at u[n][0] and steps s_k = M s_{k-1} + delta[n-1][k]
    (level 0 takes no correction).  Returns R_obs[n, k] = ||s_k - u[n][k]||
    and rho_local, the largest one-update residual ||tau_k|| on the last
    level (all norms max norms).

    The shadow is never formed.  Its error e_k = s_k - u_k obeys

        e_0 = 0,   e_k = M e_{k-1} + tau_k,   tau_k = M u_{k-1} + delta_k - u_k,

    so only the residual tau_k, a sum that all but cancels, needs more than
    float64; e is carried by plain float64 gemms.  tau_k is formed from
    error-free transformations (Ozaki, Ogita, Oishi & Rump, Numer.
    Algorithms 59, 2012; Ogita, Rump & Oishi, SIAM J. Sci. Comput. 26,
    2005).  Each row of M and each state u_{k-1} is split exactly into
    hi + lo, hi on the grid 2^(e - beta) where 2^e is the least power of two
    above the row's largest magnitude, with beta_M + beta_u + ceil(log2 np)
    = 53.  Every product of two hi parts is then an integer below
    2^(beta_M + beta_u) times one power of two, so M_hi u_hi is exact in any
    summation order, BLAS's included, barring underflow.  TwoSum adds
    delta_k to that product without error; u_k is then subtracted from the
    rounded sum, and the rounding error of that sum and the cross terms
    M_hi u_lo and M_lo u, 2^-beta smaller and formed by ordinary gemms, are
    added last.

    Accuracy.  With eps = 2^-53, g = (np + 8) eps / (1 - (np + 8) eps) and
    beta = min(beta_M, beta_u), each level's computed e^_k satisfies
    ||e^_k - e_k|| <= B_k, so |R_obs[n, k] - exact| <= B_k, where B_0 = 0 and

        B_k = ||M|| B_{k-1} + g (||M|| ||e^_{k-1}|| + G_k + 2 ||tau_k||
                                 + 2 eps (||M|| ||u_{k-1}|| + ||delta_k||)),
        G_k = 2^-beta (2 ||M|| + np max|M_ij|) ||u_{k-1}||,

    and rho_local is within g (G_k + ||tau_k|| + 2 eps (||M|| ||u_{k-1}||
    + ||delta_k||)) of the exact value at its k; where a product underflows,
    add at most 6 np 2^-1074 per step.  For a float64 run tau_k is of order
    eps ||M|| ||u||, so the bound is about 2^-beta np relative to R_obs; a
    long-double shadow's own rounding is about 2^-64 ||M|| ||u|| a step.  A
    NaN correction makes its row NaN from that point on.

    A level's row at point k depends only on the bytes of its states at
    0..k and its corrections at 1..k, so level n shares its rows with level
    n - 1 up to the first point where the two differ (-0.0 differs from
    0.0): Parareal reuses the correction of every slab whose input did not
    move.  Each distinct row is formed once, from the row it continues and
    that row's input state.  The residuals are formed a block of points at
    a time, no more than (levels, np) or 64 KB an array, and the levels
    advance together one point at a time.
    """
    M = np.asarray(M, dtype=float)
    levels, points = trajectory.n + 1, trajectory.n_points
    U = np.array(trajectory.u)
    size = U.shape[2]
    D = np.array(trajectory.delta).reshape(levels - 1, points, size)
    shared = np.zeros((levels, points), dtype=bool)
    ubits, dbits = U.view(np.uint64), D.view(np.uint64)
    for n in range(2, levels):
        same = (ubits[n] == ubits[n - 1]).all(axis=1)
        same[1:] &= (dbits[n - 1, 1:] == dbits[n - 2, 1:]).all(axis=1)
        shared[n] = np.logical_and.accumulate(same)
    fresh = ~shared
    row_of = np.cumsum(fresh, axis=0) - 1   # level n's row among point k's
    ks, ns = np.nonzero(fresh[:, 1:].T)     # the rows from point 1, in order
    ks += 1
    parents = row_of[ns, ks - 1]
    offset = np.concatenate(([0, 0], np.cumsum(fresh[:, 1:].sum(axis=0))))
    offset = offset.tolist()                # point k's rows: offset[k]:[k+1]

    low = (size - 1).bit_length()           # ceil(log2 np)
    beta_M = (53 - low) // 2
    H, L = _split(M, beta_M)
    step = max(1, 2**13 // (levels * size))     # points per residual block
    E = np.zeros((row_of[-1, 0] + 1, size))     # e_0 = 0 on every row
    R_obs = np.zeros((levels, points))
    tau_last = np.zeros((points - 1, size))
    with np.errstate(invalid="ignore", over="ignore"):     # inf in a state
        for first in range(1, points, step):
            stop = min(first + step, points)
            block = slice(offset[first], offset[stop])
            n, j = ns[block], ks[block]
            d = np.zeros((len(n), size))    # level 0 takes no correction
            corrected = n > 0
            d[corrected] = D[n[corrected] - 1, j[corrected]]
            tau = _residuals(H, L, 53 - low - beta_M, U[n, j - 1], d, U[n, j])
            base = offset[first]
            for k in range(first, stop):
                E = E[parents[offset[k]:offset[k + 1]]] @ M.T
                t = tau[offset[k] - base:offset[k + 1] - base]
                E += t
                R_obs[:, k] = np.abs(E).max(axis=1)[row_of[:, k]]
                tau_last[k - 1] = t[row_of[-1, k]]
    rho_local = 0.0
    if trajectory.n > 0:
        rho_local = float(np.abs(tau_last).max(initial=0.0))
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
