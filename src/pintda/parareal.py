"""Parallel-in-time driver: coarse propagation, slab-local assimilation, correction.

One outer iteration first computes the fine value of every slab concurrently
(the assimilation of that slab's observations against the slab's coarse
background), then runs the sequential predictor-corrector recombination

    u_{k}^{n+1} = M u_{k-1}^{n+1} + MPS(u_{k-1}^{n}) - M u_{k-1}^{n},

storing the correction factor delta = fine - coarse per slab.  The initial
state is pinned to u0 at every iteration.  After as many iterations as there
are slabs the trajectory reproduces the serial fine chain exactly, so the
driver also stops there.

Slab k is [t_{k-1}, t_k] of instance.time_grid and assimilates the batch at
t_k.  The slab solves run in parallel through `pmap` (the harness's
`workers`); inside a slab the Schwarz sweep visits its subdomains in order.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

import numpy as np

from .dd_mps import build_factors, run_mps


@dataclass(frozen=True)
class PararealTrajectory:
    """States, backgrounds and correction factors over slabs and iterations.

    u[n][k] is the state at time point k after n outer iterations;
    background[n][k] = M u[n][k-1]; delta[n][k] = MPS(u[n][k-1]) - M u[n][k-1]
    (None at k = 0).  The initial state u[n][0] is pinned to u0 for every n.
    """

    u: tuple                 # tuple of per-iteration state tuples
    background: tuple
    delta: tuple             # one level shorter than u
    rho_penalty: float

    @property
    def n(self):
        return len(self.u) - 1

    @property
    def n_points(self):
        return len(self.u[0])


@dataclass
class PararealHistory:
    iterate_diffs: list = field(default_factory=list)   # max_k ||u^{n+1}-u^n||_inf
    delta_norms: list = field(default_factory=list)     # per iteration, per slab
    mps: list = field(default_factory=list)             # per iteration, per slab
    wall_s: list = field(default_factory=list)          # per iteration
    E: list = field(default_factory=list)               # vs reference, per level
    converged: bool = False
    reason: str = "max_outer"
    n_outer: int = 0


def initial_trajectory(config, rho_penalty=1.0):
    """Iteration 0 is the pure coarse sweep from the initial state."""
    M = config.instance.M
    u0 = np.asarray(config.u0, dtype=float)
    states = [u0]
    for _ in range(1, config.instance.n_steps):
        states.append(M @ states[-1])
    level = tuple(states)
    return PararealTrajectory(u=(level,), background=(level,), delta=(),
                              rho_penalty=float(rho_penalty))


def fine_solve(k, background, config, partition, tol_mps, max_sweeps, rho,
               patch_rule="owner", factors=None):
    """Slab-local assimilation: the fine propagator value MPS(u_{k-1}).

    Solves the single-time problem whose background is the slab's coarse
    state and whose observations are the batch at t_k; returns the patched
    analysis and the inner-solver history.  `factors` (a dd_mps.FactorTable
    of config's problem) spares the solve its local factorizations.
    """
    slab_config = dataclasses.replace(config, u0=background, time_index=k)
    iterate, history = run_mps(slab_config, partition, tol=tol_mps,
                               max_iters=max_sweeps, rho=rho,
                               track_cost=False, patch_rule=patch_rule,
                               factors=factors)
    return iterate.patched, history


def parareal_update(trajectory, config, partition, tol_mps=1e-10,
                    max_sweeps=100, pmap=None, patch_rule="owner",
                    factors=None):
    """Advance the trajectory one outer iteration.

    The slab corrections are computed first (concurrently when a parallel map
    is supplied), then the corrector recombines them sequentially.  Returns
    the extended trajectory and the per-slab inner-solver histories.  The
    local factors are built here, before the map, unless `factors` is given.
    """
    n = trajectory.n
    states = trajectory.u[n]
    backgrounds = trajectory.background[n]
    M = config.instance.M
    n_points = len(states)
    if factors is None:
        factors = build_factors(config, partition, rho=trajectory.rho_penalty)

    def correct(k):
        return fine_solve(k, backgrounds[k], config, partition, tol_mps,
                          max_sweeps, rho=trajectory.rho_penalty,
                          patch_rule=patch_rule, factors=factors)

    mapper = pmap if pmap is not None else lambda f, xs: [f(x) for x in xs]
    results = list(mapper(correct, range(1, n_points)))
    histories = [r[1] for r in results]
    delta_n = [None] + [fine - b for (fine, _), b in zip(results, backgrounds[1:])]

    u_next = [states[0]]                      # u_0 pinned
    b_next = [states[0]]
    for k in range(1, n_points):
        b = M @ u_next[k - 1]
        b_next.append(b)
        u_next.append(b + delta_n[k])

    extended = PararealTrajectory(u=trajectory.u + (tuple(u_next),),
                                  background=trajectory.background + (tuple(b_next),),
                                  delta=trajectory.delta + (tuple(delta_n),),
                                  rho_penalty=trajectory.rho_penalty)
    return extended, histories


def serial_fine_chain(config, partition, tol_mps=1e-10, max_sweeps=100,
                      rho=1.0, patch_rule="owner", factors=None):
    """Slab-by-slab fine solution: u_k = MPS(u_{k-1}) chained sequentially."""
    M = config.instance.M
    if factors is None:
        factors = build_factors(config, partition, rho=rho)
    states = [np.asarray(config.u0, dtype=float)]
    histories = []
    for k in range(1, config.instance.n_steps):
        analysis, hist = fine_solve(k, M @ states[-1], config, partition,
                                    tol_mps, max_sweeps, rho,
                                    patch_rule=patch_rule, factors=factors)
        states.append(analysis)
        histories.append(hist)
    return states, histories


def run_parareal(config, partition, tol, max_outer, tol_mps=1e-10,
                 max_sweeps=100, rho=1.0, pmap=None, reference=None,
                 patch_rule="owner", factors=None):
    """Alternate slab corrections and sequential updates until converged.

    Stops when the sweep-to-sweep state difference drops below tol, or when
    the iteration count reaches the slab count (beyond which the update is
    stationary by finite-step exactness).  Non-convergence within max_outer
    is reported through the history.  The local factors are built once,
    before the first iteration, unless `factors` is given.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if factors is None:
        factors = build_factors(config, partition, rho=rho)
    trajectory = initial_trajectory(config, rho_penalty=rho)
    n_slabs = config.instance.n_steps - 1
    history = PararealHistory()
    if reference is not None:
        history.E.append([float(np.max(np.abs(r - u)))
                          for r, u in zip(reference, trajectory.u[0])])

    for _ in range(max_outer):
        t0 = time.perf_counter()
        trajectory, mps_hists = parareal_update(
            trajectory, config, partition, tol_mps=tol_mps,
            max_sweeps=max_sweeps, pmap=pmap, patch_rule=patch_rule,
            factors=factors)
        history.wall_s.append(time.perf_counter() - t0)
        n = trajectory.n
        diff = max(float(np.max(np.abs(a - b)))
                   for a, b in zip(trajectory.u[n], trajectory.u[n - 1]))
        history.iterate_diffs.append(diff)
        history.delta_norms.append(
            [float(np.max(np.abs(d))) for d in trajectory.delta[n - 1][1:]])
        history.mps.append(mps_hists)
        if reference is not None:
            history.E.append([float(np.max(np.abs(r - u)))
                              for r, u in zip(reference, trajectory.u[n])])
        if diff <= tol:
            history.converged, history.reason = True, "tol"
            break
        if n >= n_slabs:
            history.converged, history.reason = True, "exact"
            break
    history.n_outer = trajectory.n
    return trajectory, history
