"""Parallel-in-time driver: coarse propagation, slab-local assimilation, correction.

One outer iteration first computes the fine value of every slab (the
assimilation of that slab's observations against the slab's coarse
background), then runs the sequential predictor-corrector recombination

    u_{k}^{n+1} = M u_{k-1}^{n+1} + MPS(u_{k-1}^{n}) - M u_{k-1}^{n},

storing the correction factor delta = fine - coarse per slab, each level
one (n_points, np) array with row k for time point k.  Slab k's fine-solve
background M u_{k-1}^{n} is not stored in the trajectory: run_parareal
carries one level's backgrounds as loop state, the products the
recombination formed.  The initial state is pinned to u0 at every
iteration.  After as many iterations as there are slabs the
trajectory reproduces the serial fine chain exactly, so run_parareal also
stops there.  The trajectory is the run's record: the error table
E[n, k] = ||reference[k] - u[n][k]||_inf, the correction norms and the
iterate differences are all read from its levels.

Slab k is [t_{k-1}, t_k], with t_k = k h (h = instance.h), and assimilates
the batch at t_k.  Its fine solve is dd_mps.run_mps(plan, background, k,
...): a function of the problem's CgPlan, which build_factors makes once per
run, the slab's coarse background and its time alone.  The slabs an iteration
solves are independent, so they are solved as the columns of one fine-solve
batch (dd_mps.run_mps_batch).  With `workers` > 1 that batch is split into
at most `workers` contiguous batches, which run on a thread pool.  A column
has the bits of its slab solved alone, so the split never changes a byte.

run_parareal also solves the serial fine chain u_k = MPS(u_{k-1}), the
reference the run is measured against, one slab ahead of the exactness
front.  Chain slab 1 is solved alone before iteration 1; iteration n then
carries chain slab n + 1, whose input chain state n is already known, as one
more column of its batch; the chain slabs no iteration carried, after a
`tol` or `max_outer` stop, are solved one by one after the loop.  Every
chain state, delta and history is bitwise what serial_fine_chain computes,
which stays as the chain's independent definition.

run_parareal does less work than the textbook iteration, which re-solves
every slab at every iteration.  Slab k's fine solve is a deterministic
function of its input state u_{k-1}, so a slab whose input state is bitwise
unchanged since the previous iteration, or equal to a chain state whose
slab is already solved, takes the delta and history that the previous level,
or the chain, already holds.  By finite-step exactness the first covers
every slab k < n at iteration n and the chain slab n too, so iteration n
solves only the slabs k > n.  Each level also pays only for the rows where
it differs from the level before: the slabs whose delta is the one that
made the current level keep its states and backgrounds, copied, and the
recombination runs from the first other slab on.  Every product
M u_{k-1}^{n+1} it forms is kept as row k of the next level's backgrounds,
which the next batch reads, so the only background an iteration forms
outside the recombination is the chain slab's that rides in its batch; the
recombination takes that one as its own product where its input state has
the chain state's bytes, so no iteration forms a product twice.
Every state, delta and history is bitwise the textbook one; history.solved
lists the slabs each iteration solved.  A slab whose input equals a chain
state whose slab is not solved yet is solved again, to the same bytes, so
only in that case could `solved` list a slab that a fully known chain would
have spared.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .dd_mps import build_factors, run_mps, run_mps_batch
from .testbed import require_integer


@dataclass(frozen=True)
class PararealTrajectory:
    """States and correction factors over slabs and iterations.

    Every level is one C-contiguous (n_points, np) array.  u[n][k] is the
    state at time point k after n outer iterations; delta[n][k] = MPS(b) - b
    for the background b = M u[n][k-1].  u[n][0] is pinned to u0 and takes
    no correction, so delta[n][0] is a zero row.
    """

    u: tuple                 # one array per iteration
    delta: tuple             # one level shorter than u

    @property
    def n(self):
        return len(self.u) - 1

    @property
    def n_points(self):
        return len(self.u[0])


@dataclass
class PararealHistory:
    """What only the iteration knows; all else is read from the trajectory."""

    mps: list = field(default_factory=list)             # per iteration, per slab
    solved: list = field(default_factory=list)          # per iteration, slabs solved
    converged: bool = False
    reason: str = "max_outer"
    n_outer: int = 0


def initial_trajectory(config):
    """Iteration 0 is the pure coarse sweep from the initial state."""
    M = config.instance.M
    level = np.empty((config.instance.n_steps, len(config.u0)))
    level[0] = config.u0
    for k in range(1, len(level)):
        level[k] = M @ level[k - 1]
    return PararealTrajectory(u=(level,), delta=())


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


def _batches(columns, workers):
    """Cut columns into at most `workers` contiguous runs; none for no
    column."""
    parts = min(workers, len(columns))
    return [columns[len(columns) * p // parts:len(columns) * (p + 1) // parts]
            for p in range(parts)]


def parareal_update(trajectory, backgrounds, config, factors, known,
                    tol_mps=1e-10, max_sweeps=100, workers=1, ahead=None):
    """Advance the trajectory one outer iteration.

    `backgrounds` holds the current level's slab backgrounds: row k is
    M u[k-1], the product the recombination formed, and row 0 is u0.  The
    slab corrections are computed first, as batched fine solves on the
    block factors `factors` (config's dd_mps.CgPlan), split over `workers`
    threads; then the corrector recombines them sequentially.  `known` is a
    tuple of earlier levels (states, deltas, histories), where delta row k
    and history k - 1 belong to slab k and state row k - 1 is its input; a
    level whose states hold only rows 0..m-1 knows only the slabs 1..m.  A
    slab whose input state has the bytes of a known level's state row (so
    -0.0 and 0.0 differ) takes that level's delta row and history object,
    the first matching level winning; only the other slabs are solved, on
    their rows of `backgrounds`.  `ahead`, an (input state, time) pair, is
    one more fine solve that rides in the same batch, the only one whose
    background is formed outside the recombination.

    The new level shares its prefix with the current one: while slab k's
    new delta has the bytes of the delta that made the current level, its
    new state and background are the current level's, copied; from the
    first slab j whose delta differs, the recombination
    u_next[k] = M u_next[k-1] + delta[k] runs and keeps each product
    M u_next[k-1] as row k of the next backgrounds; at the ahead time t, when
    u_next[t-1] has the bytes of the ahead input state, the product is the
    ahead background, taken rather than formed again.  Returns the extended
    trajectory, the next level's backgrounds, the per-slab inner-solver
    histories, the list of slabs solved and, for `ahead`, its (fine state,
    delta, history), else None.
    """
    _check_fine_settings(tol_mps, max_sweeps)
    require_integer("workers", workers, ValueError)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    states, M = trajectory.u[-1], config.instance.M
    if np.shape(backgrounds) != states.shape:
        raise ValueError(f"backgrounds must have the level's shape "
                         f"{states.shape}, got {np.shape(backgrounds)}")
    delta = np.zeros(states.shape)            # u_0 takes no correction
    histories = [None] * (len(states) - 1)
    todo = np.arange(1, len(states))
    for known_u, known_delta, known_hists in known:
        # todo is sorted, and a level of m state rows knows slabs 1..m
        head = todo[:np.searchsorted(todo, len(known_u), side="right")]
        hit = (known_u[head - 1].view(np.uint64)
               == states[head - 1].view(np.uint64)).all(axis=1)
        reused, todo = head[hit], np.concatenate((head[~hit],
                                                  todo[len(head):]))
        delta[reused] = known_delta[reused]
        for k in reused.tolist():
            histories[k - 1] = known_hists[k - 1]
    inputs, times = backgrounds[todo], todo.tolist()
    ahead_time = None
    if ahead is not None:
        inputs = np.vstack((inputs, M @ ahead[0]))
        times.append(ahead[1])
        ahead_time, ahead_bytes = ahead[1], ahead[0].tobytes()

    def correct(cols):                        # a range of batch columns
        part = slice(cols.start, cols.stop)
        fine, hists = run_mps_batch(factors, inputs[part], times[part],
                                    tol_mps, max_sweeps)
        return zip(fine, fine - inputs[part], hists)

    batches = parallel_map(correct, _batches(range(len(times)), workers),
                           workers)
    solves = [solve for batch in batches for solve in batch]
    todo = todo.tolist()
    for k, (_, fine_delta, hist) in zip(todo, solves):
        delta[k] = fine_delta
        histories[k - 1] = hist

    # Slab j is the first whose delta is not the one that made this level:
    # the rows before it keep their inputs and deltas, so their bytes.
    j = 1                                     # u_0 pinned
    if trajectory.delta:
        same = (delta[1:].view(np.uint64)
                == trajectory.delta[-1][1:].view(np.uint64)).all(axis=1)
        j += int(np.argmin(np.append(same, False)))
    u_next, b_next = np.empty(states.shape), np.empty(states.shape)
    u_next[:j], b_next[:j] = states[:j], backgrounds[:j]
    for k in range(j, len(states)):
        if k == ahead_time and u_next[k - 1].tobytes() == ahead_bytes:
            b_next[k] = inputs[-1]
        else:
            b_next[k] = M @ u_next[k - 1]
        u_next[k] = b_next[k] + delta[k]

    extended = PararealTrajectory(u=trajectory.u + (u_next,),
                                  delta=trajectory.delta + (delta,))
    return (extended, b_next, histories, todo,
            solves[-1] if ahead is not None else None)


def _check_fine_settings(tol_mps, max_sweeps):
    """The fine-solve settings, checked under their own names: dd_mps
    calls the step cap max_iters."""
    if not tol_mps > 0:
        raise ValueError(f"tol_mps must be positive, got {tol_mps}")
    require_integer("max_sweeps", max_sweeps, ValueError)
    if max_sweeps < 0:
        raise ValueError(f"max_sweeps must be >= 0, got {max_sweeps}")


def serial_fine_chain(config, partition, tol_mps=1e-10, max_sweeps=100,
                      rho=1.0, patch_rule="owner", factors=None):
    """Slab-by-slab fine solution: u_k = MPS(u_{k-1}) chained sequentially.

    Returns the states, one (n_steps, np) array, and slab k's fine solve
    run_mps(factors, M u_{k-1}, k, ...) history at index k - 1.
    run_parareal solves the same chain inside its batches; this is the
    chain's independent definition, for tests and perfbench.  Only this
    entry point still takes the partition and builds the CgPlan when
    `factors` is not given, and accepts and ignores `rho` and `patch_rule`
    (the former Schwarz sweep's penalty and patch): perfbench/run.py calls
    it in that form.
    """
    _check_fine_settings(tol_mps, max_sweeps)
    M = config.instance.M
    if factors is None:
        factors = build_factors(config, partition)
    states = np.empty((config.instance.n_steps, len(config.u0)))
    states[0] = config.u0
    histories = []
    for k in range(1, len(states)):
        iterate, hist = run_mps(factors, M @ states[k - 1], k, tol_mps,
                                max_sweeps)
        states[k] = iterate.patched
        histories.append(hist)
    return states, histories


def run_parareal(config, factors, tol, max_outer, tol_mps=1e-10,
                 max_sweeps=100, workers=1):
    """Alternate slab corrections and sequential updates until converged.

    Stops when the sweep-to-sweep state difference drops below tol, or when
    the iteration count reaches the slab count (beyond which the update is
    stationary by finite-step exactness).  Non-convergence within max_outer
    is reported through the history.  Every fine solve is dd_mps's
    Schwarz-preconditioned CG on `factors`, config's dd_mps.CgPlan, so a
    converged slab correction is the slab's 3D-Var analysis to within
    tol_mps.

    The loop does less work than the textbook iteration and returns its
    bytes: a fine solve is a deterministic function of (slab, input state),
    so each iteration passes parareal_update the previous level (the states,
    deltas and histories it already holds) and the serial fine chain's
    solved rows as known, and iteration n solves only the slabs k > n.  The
    loop carries the current level's backgrounds, which each update returns
    for the next: level 0 is the coarse sweep, whose rows are its own
    backgrounds, and every later row is a product the recombination formed
    or a row it copied with the level's unchanged prefix.  The
    chain is solved one slab ahead of the exactness front: slab 1 alone by
    run_mps, slab n + 1 in iteration n's batch, and the slabs left after a
    tol or max_outer stop alone by run_mps.  The lone run_mps solves are
    where a caller that wraps run_mps, as perfbench's per-solve sweep counts
    do, sees a fine solve at all.  history.solved lists the slabs solved per
    iteration.  Returns the trajectory, the history and the chain as one
    known level: its (n_steps, np) states, its deltas, with a zero row 0,
    and its n_steps - 1 histories, where states and histories are bitwise
    serial_fine_chain's under these solver settings.
    max_outer, max_sweeps and workers must be integers, not bools.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    _check_fine_settings(tol_mps, max_sweeps)
    require_integer("max_outer", max_outer, ValueError)
    if max_outer < 1:
        raise ValueError(f"max_outer must be >= 1, got {max_outer}")
    trajectory = initial_trajectory(config)
    M, n_slabs = config.instance.M, config.instance.n_steps - 1
    history = PararealHistory()
    reference = np.empty(trajectory.u[0].shape)
    reference[0] = config.u0
    chain_delta = np.zeros(reference.shape)
    chain_hists = [None] * n_slabs

    def solve_chain(k):
        background = M @ reference[k - 1]
        iterate, chain_hists[k - 1] = run_mps(factors, background, k, tol_mps,
                                              max_sweeps)
        reference[k] = iterate.patched
        chain_delta[k] = iterate.patched - background

    solve_chain(1)
    solved_to = 1                  # the chain slabs 1..solved_to are solved
    backgrounds = trajectory.u[0]  # row k = M row k - 1: the coarse sweep
    for _ in range(max_outer):
        previous = () if not trajectory.n else (
            (trajectory.u[-2], trajectory.delta[-1], history.mps[-1]),)
        chain = (reference[:solved_to], chain_delta, chain_hists)
        ahead = ((reference[solved_to], solved_to + 1)
                 if solved_to < n_slabs else None)
        trajectory, backgrounds, mps_hists, solved, chain_next = (
            parareal_update(trajectory, backgrounds, config, factors,
                            previous + (chain,),
                            tol_mps=tol_mps, max_sweeps=max_sweeps,
                            workers=workers, ahead=ahead))
        if chain_next is not None:
            solved_to += 1
            (reference[solved_to], chain_delta[solved_to],
             chain_hists[solved_to - 1]) = chain_next
        history.solved.append(solved)
        history.mps.append(mps_hists)
        if np.abs(trajectory.u[-1] - trajectory.u[-2]).max() <= tol:
            history.converged, history.reason = True, "tol"
            break
        if trajectory.n >= n_slabs:
            history.converged, history.reason = True, "exact"
            break
    for k in range(solved_to + 1, n_slabs + 1):
        solve_chain(k)
    history.n_outer = trajectory.n
    return trajectory, history, (reference, chain_delta, chain_hists)
