"""Parallel-in-time driver: coarse propagation, slab-local assimilation, correction.

One outer iteration first computes the fine value of every slab (the
assimilation of that slab's observations against the slab's coarse
background), then runs the sequential predictor-corrector recombination

    u_{k}^{n+1} = M u_{k-1}^{n+1} + MPS(u_{k-1}^{n}) - M u_{k-1}^{n},

storing the correction factor delta = fine - coarse per slab.  The initial
state is pinned to u0 at every iteration.  After as many iterations as there
are slabs the trajectory reproduces the serial fine chain exactly, so the
driver also stops there.

Slab k is [t_{k-1}, t_k] of instance.time_grid and assimilates the batch at
t_k.  The slabs an iteration solves are independent, so the slabs that share
an observation pattern are solved as the columns of one fine-solve batch
(dd_mps.run_mps_batch).  With `workers` > 1 each such batch is split into at
most `workers` contiguous batches, which run on a thread pool.  A column has
the bits of its slab solved alone, so the split never changes a byte.

run_parareal does less work than the textbook iteration, which re-solves
every slab at every iteration.  A fine solve is a deterministic function of
(slab, background), so a slab whose background is bitwise unchanged since
its latest solve takes that solve's delta and history instead of solving
again; by finite-step exactness that is every slab k < n at iteration n.
Given the serial fine chain, it also reuses the chain's solves (slab k's
chain background is M reference[k-1]), which covers slab n too: iteration n
then solves only the slabs k > n.  Every state, delta and history is
bitwise the textbook one; only the per-iteration wall time (the report's `wall_ms` under
`timing = true`) measures the reduced work.
"""

from __future__ import annotations

import dataclasses
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .dd_mps import build_factors, run_mps, run_mps_batch


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
    solved: list = field(default_factory=list)          # per iteration, slabs solved
    wall_s: list = field(default_factory=list)          # per iteration
    E: list = field(default_factory=list)               # vs reference, per level
    converged: bool = False
    reason: str = "max_outer"
    n_outer: int = 0


class FineRecords:
    """The fine solves a run already has, per slab, keyed by background bytes.

    A fine solve is a deterministic function of (slab, background), so a
    record whose background bytes equal a new background holds the exact
    answer: delta = fine - background and the inner-solver history.  Bytes,
    not values, are compared, so -0.0 and 0.0 differ.  Slab k keeps at most
    two records: a fixed one seeded from the serial chain and its latest
    solve.  `solved` logs every slab solved through `store`, in order.
    """

    def __init__(self, n_slabs):
        self._chain = [None] * (n_slabs + 1)
        self._latest = [None] * (n_slabs + 1)
        self.solved = []

    @classmethod
    def from_chain(cls, M, reference, histories):
        """Seed slab k with the chain's solve from the background M reference[k-1].

        reference[k] - that background is computed by the same operations on
        the same inputs as a fine solve's delta, so it is bitwise that delta.
        """
        records = cls(len(reference) - 1)
        for k in range(1, len(reference)):
            background = M @ reference[k - 1]
            records._chain[k] = (background.tobytes(),
                                 reference[k] - background, histories[k - 1])
        return records

    def find(self, k, background):
        """(delta, history) of slab k's solve from `background`, or None."""
        key = background.tobytes()
        for record in (self._latest[k], self._chain[k]):
            if record is not None and record[0] == key:
                return record[1], record[2]
        return None

    def store(self, k, background, delta, history):
        self._latest[k] = (background.tobytes(), delta, history)
        self.solved.append(k)


def _max_abs(rows):
    """max |x| of every row, as a list of floats; NaN propagates."""
    return np.abs(rows).max(axis=1).tolist()


def initial_trajectory(config):
    """Iteration 0 is the pure coarse sweep from the initial state."""
    M = config.instance.M
    u0 = np.asarray(config.u0, dtype=float)
    states = [u0]
    for _ in range(1, config.instance.n_steps):
        states.append(M @ states[-1])
    level = tuple(states)
    return PararealTrajectory(u=(level,), background=(level,), delta=())


def parallel_map(fn, items, workers=1):
    """Order-preserving map; thread-parallel when workers > 1.

    Tasks are pure and gathered by position, so the result is bit-identical
    for any worker count.
    """
    items = list(items)
    if workers > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


def fine_solve(k, background, config, partition, tol_mps, max_sweeps,
               rho=1.0, patch_rule="owner", factors=None):
    """Slab-local assimilation: the fine propagator value MPS(u_{k-1}).

    Solves the single-time problem whose background is the slab's coarse
    state and whose observations are the batch at t_k, by Schwarz-
    preconditioned CG (dd_mps.run_mps); returns the analysis u_b + V w and
    the inner-solver history.  `factors` (a dd_mps.FactorTable of config's
    problem) spares the solve its block factorizations.  `rho` and
    `patch_rule`, the interface penalty and overlap patch of the former
    Schwarz sweep, are accepted and ignored: CG has neither.
    """
    slab_config = dataclasses.replace(config, u0=background, time_index=k)
    iterate, history = run_mps(slab_config, partition, tol=tol_mps,
                               max_iters=max_sweeps, factors=factors)
    return iterate.patched, history


def _batches(slabs, factors, workers):
    """Split slabs into batches that share a factor tuple: one per
    observation pattern, each cut into at most `workers` contiguous runs."""
    by_pattern = {}
    for k in slabs:
        by_pattern.setdefault(id(factors.plans[k]), []).append(k)
    batches = []
    for ks in by_pattern.values():
        parts = min(workers, len(ks))
        cuts = [len(ks) * p // parts for p in range(parts + 1)]
        batches.extend(ks[a:b] for a, b in zip(cuts, cuts[1:]))
    return batches


def parareal_update(trajectory, config, factors, tol_mps=1e-10,
                    max_sweeps=100, workers=1, records=None):
    """Advance the trajectory one outer iteration.

    The slab corrections are computed first, as batched fine solves on the
    block factors `factors` (a dd_mps.FactorTable of config's problem, which
    fixes the partition), split over `workers`
    threads; then the corrector recombines them sequentially.  Returns the
    extended trajectory and the per-slab inner-solver histories.  With
    `records` (a FineRecords), a slab whose background one of its records
    matches reuses that record's delta and history object; only the other
    slabs are solved, and their solves are stored as records.
    """
    n = trajectory.n
    states = trajectory.u[n]
    backgrounds = trajectory.background[n]
    M = config.instance.M
    n_points = len(states)

    def correct(ks):
        return run_mps_batch(config, [backgrounds[k] for k in ks], ks, factors,
                             tol_mps, max_sweeps)

    if records is None:
        records = FineRecords(n_points - 1)
    known = {k: records.find(k, backgrounds[k]) for k in range(1, n_points)}
    todo = [k for k, hit in known.items() if hit is None]
    batches = _batches(todo, factors, workers)
    solved = {}
    for ks, (fine, hists) in zip(batches, parallel_map(correct, batches,
                                                       workers)):
        solved.update(zip(ks, zip(fine, hists)))
    for k in todo:
        fine, hist = solved[k]
        known[k] = (fine - backgrounds[k], hist)
        records.store(k, backgrounds[k], *known[k])
    delta_n = [None] + [known[k][0] for k in range(1, n_points)]
    histories = [known[k][1] for k in range(1, n_points)]

    u_next = [states[0]]                      # u_0 pinned
    b_next = [states[0]]
    for k in range(1, n_points):
        b = M @ u_next[k - 1]
        b_next.append(b)
        u_next.append(b + delta_n[k])

    extended = PararealTrajectory(u=trajectory.u + (tuple(u_next),),
                                  background=trajectory.background + (tuple(b_next),),
                                  delta=trajectory.delta + (tuple(delta_n),))
    return extended, histories


def serial_fine_chain(config, partition, tol_mps=1e-10, max_sweeps=100,
                      rho=1.0, patch_rule="owner", factors=None):
    """Slab-by-slab fine solution: u_k = MPS(u_{k-1}) chained sequentially.

    `rho` and `patch_rule` are accepted and ignored, as by fine_solve.
    """
    M = config.instance.M
    if factors is None:
        factors = build_factors(config, partition)
    states = [np.asarray(config.u0, dtype=float)]
    histories = []
    for k in range(1, config.instance.n_steps):
        analysis, hist = fine_solve(k, M @ states[-1], config, partition,
                                    tol_mps, max_sweeps, factors=factors)
        states.append(analysis)
        histories.append(hist)
    return states, histories


def run_parareal(config, partition, tol, max_outer, tol_mps=1e-10,
                 max_sweeps=100, workers=1, reference=None, factors=None,
                 reference_histories=None):
    """Alternate slab corrections and sequential updates until converged.

    Stops when the sweep-to-sweep state difference drops below tol, or when
    the iteration count reaches the slab count (beyond which the update is
    stationary by finite-step exactness).  Non-convergence within max_outer
    is reported through the history.  The block factors are built once,
    before the first iteration, unless `factors` is given.  Each fine solve
    is dd_mps's Schwarz-preconditioned CG, so a converged slab correction is
    the slab's 3D-Var analysis to within tol_mps.

    The loop does less work than the textbook iteration and returns its
    bytes: a fine solve is a deterministic function of (slab, background),
    so a slab whose background is bitwise unchanged since its latest solve
    is not solved again.  `reference_histories`, the histories returned with
    `reference` by serial_fine_chain under these same solver settings, also
    seeds every slab with the chain's solve; iteration n then solves only the
    slabs k > n.  history.solved lists the slabs solved per iteration, and
    history.wall_s measures the reduced work.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if reference_histories is not None and reference is None:
        raise ValueError("reference_histories needs the reference chain")
    if factors is None:
        factors = build_factors(config, partition)
    trajectory = initial_trajectory(config)
    n_slabs = config.instance.n_steps - 1
    if reference_histories is not None:
        records = FineRecords.from_chain(config.instance.M, reference,
                                         reference_histories)
    else:
        records = FineRecords(n_slabs)
    history = PararealHistory()
    level = np.stack(trajectory.u[0])
    if reference is not None:
        reference = np.stack(reference)
        history.E.append(_max_abs(reference - level))

    for _ in range(max_outer):
        t0 = time.perf_counter()
        n_solved = len(records.solved)
        trajectory, mps_hists = parareal_update(
            trajectory, config, factors, tol_mps=tol_mps,
            max_sweeps=max_sweeps, workers=workers, records=records)
        history.wall_s.append(time.perf_counter() - t0)
        history.solved.append(records.solved[n_solved:])
        n = trajectory.n
        previous, level = level, np.stack(trajectory.u[n])
        diff = float(np.abs(level - previous).max())
        history.iterate_diffs.append(diff)
        history.delta_norms.append(
            _max_abs(np.stack(trajectory.delta[n - 1][1:])))
        history.mps.append(mps_hists)
        if reference is not None:
            history.E.append(_max_abs(reference - level))
        if diff <= tol:
            history.converged, history.reason = True, "tol"
            break
        if n >= n_slabs:
            history.converged, history.reason = True, "exact"
            break
    history.n_outer = trajectory.n
    return trajectory, history
