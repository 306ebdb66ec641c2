"""Schwarz-preconditioned conjugate gradients for the single-time problem.

A fine solve is the single-time 3D-Var analysis around a background u_b.  In
the control w, with u = u_b + V w and B = V V^T, its cost is

    J(w) = lam/2 |w|^2 + rinv/2 |S w - d|^2,   S = V[obs],  d = v - u_b[obs],

where obs are the grid points observed at the time and the scalar
rinv = 1 / sigma_r^2 is R^-1: observations are a row selection and one
variance.  The minimizer solves A w = c with A = lam I + rinv S^T S and
c = rinv S^T d.  A is SPD, and the solve is conjugate gradients
preconditioned by additive Schwarz: the grid is split into overlapping
contiguous blocks I_i, and the preconditioner sums the block solves
R_i^T A[I_i, I_i]^-1 R_i r.  The sum keeps the preconditioner SPD where an
owner patch of the block solves would not, so CG converges on every valid
config, and its limit is the global minimizer whatever the background's
correlation length.

A block's matrix A_loc = A[I_i, I_i] and its Cholesky factor depend only on
the partition, V, lam and the observation pattern obs_indices[t].  A
`FactorTable` builds them once per distinct pattern, as that pattern's
`CgPlan`, so a fine solve computes only d and c.  A CG step makes one dpotrs
call per block and applies A once, as lam p + rinv S^T (S p), never formed.

Solves that share a pattern run as the columns of one batch: every array
carries a leading column axis, one row per background (run_mps_batch;
run_mps is the batch of one).  Each product is a stacked gemv, one per
column, each block solve one multi-column potrs call, and alpha, beta and
every residual are per column, so each column has the bits of its solve
alone.  A column leaves the batch at the step where it stops.  A non-finite
background is rejected before the first step, and any other non-finite value
shows in one NaN-propagating check of each step; both raise VarSolverError
naming the subdomain and the time.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np
import scipy.linalg

from .var_solver import VarSolverError

# The float64 LAPACK solve that scipy.linalg.cho_solve dispatches to, bound
# once: the preconditioner calls it directly, without cho_solve's checks.
_potrs = scipy.linalg.lapack.dpotrs


class PartitionError(ValueError):
    """Infeasible decomposition request."""


@dataclass(frozen=True)
class SubdomainPartition:
    """Overlapping contiguous index blocks.

    `cores[i]` is block i's share of the balanced cut before the overlap
    extension, the points block i owns; the cores partition the grid.
    """

    n_grid: int
    n_sub: int
    index_sets: tuple       # per-subdomain integer index arrays
    cores: tuple            # per-subdomain owned index arrays


@dataclass(frozen=True)
class RestrictionOperators:
    """Subdomain selection operators R_i realized as index arrays; `dense`
    materializes the 0/1 matrix."""

    n_grid: int
    subdomain: tuple        # per-subdomain index arrays (R_i)

    def dense(self, i):
        R = np.zeros((len(self.subdomain[i]), self.n_grid))
        R[np.arange(len(self.subdomain[i])), self.subdomain[i]] = 1.0
        return R


@dataclass(frozen=True)
class LocalFactor:
    """Block i's part of one observation pattern's preconditioner:
    A_loc = A[I_i, I_i] and its Cholesky factor."""

    i: int
    indices: np.ndarray     # I_i, contiguous
    A_loc: np.ndarray
    chol: tuple = field(repr=False)


def _mv(A, x):
    """A @ x for every row of x: one gemv per column, so each column has the
    bits of A @ x alone."""
    return np.matmul(A, x[..., None])[..., 0]


def _rhs(S, rinv, d):
    """c = rinv S^T d for every row of the innovations d."""
    # a batch's d comes out F-ordered; each column keeps its solo bits only
    # if the stacked gemv reads a C-ordered operand
    return _mv(S.T, np.multiply(rinv, d, order="C"))


@dataclass(frozen=True)
class LocalSystem:
    """Block i of config's problem: its factor, c_loc = c[I_i], and the
    problem and partition that its local cost reads."""

    factor: LocalFactor
    c_loc: np.ndarray
    config: object = field(repr=False)
    partition: SubdomainPartition = field(repr=False)

    i = property(attrgetter("factor.i"))
    indices = property(attrgetter("factor.indices"))
    A_loc = property(attrgetter("factor.A_loc"))
    chol = property(attrgetter("factor.chol"))

    @functools.cached_property
    def coupling(self):
        """j -> the columns A[I_i, P_j] of block j's owned points P_j outside
        I_i, placed at their positions in I_j (zero elsewhere), for every
        block j whose columns are not all zero."""
        cfg, part, idx = self.config, self.partition, self.indices
        S = cfg.covpair.V[cfg.observations.obs_indices[cfg.time_index]]
        left = np.multiply(S[:, idx].T, 1.0 / cfg.covpair.sigma_r**2,
                           order="C")
        out = {}
        for j in range(part.n_sub):
            points = np.setdiff1d(part.cores[j], idx)
            C = np.zeros((idx.size, part.index_sets[j].size))
            C[:, points - part.index_sets[j][0]] = left @ S[:, points]
            if C.any():
                out[j] = C
        return out


@dataclass(frozen=True)
class CgPlan:
    """One observation pattern's operator and preconditioner.

    `factors` holds one LocalFactor per block in subdomain order, `obs` the
    observed grid points and `S` = V[obs] their rows of V, so that
    A = lam I + rinv S^T S.  `V` maps a control to a state increment.
    """

    factors: tuple
    obs: np.ndarray
    S: np.ndarray
    lam: float
    rinv: float
    V: np.ndarray

    def apply_A(self, p):
        """A p for every row of p, as lam p + rinv S^T (S p)."""
        return self.lam * p + _rhs(self.S, self.rinv, _mv(self.S, p))

    def precondition(self, r):
        """sum_i R_i^T A_loc_i^-1 R_i r: one potrs call per block for every
        column at once, each column with its solo bits."""
        z = np.zeros(r.shape)
        for f in self.factors:
            sl = slice(f.indices[0], f.indices[-1] + 1)
            c, lower = f.chol
            sol, info = _potrs(c, r[..., sl].T, lower=lower)
            if info:
                raise VarSolverError(f"subdomain {f.i}: LAPACK potrs rejected "
                                     f"argument {-info}")
            z[..., sl] += sol.T
        return z


@dataclass(frozen=True)
class Batch:
    """The right-hand sides of a batch of solves on one CgPlan.

    `c` holds c = rinv S^T d and `u_b` the background, one row per column;
    `scale` is each column's 1 + max|c|, which makes its residual relative,
    and `t` its observation time.
    """

    plan: CgPlan
    c: np.ndarray
    u_b: np.ndarray
    scale: np.ndarray
    t: object

    def take(self, rows):
        """The batch's columns `rows`; an int gives one unbatched solve."""
        return Batch(plan=self.plan, c=self.c[rows], u_b=self.u_b[rows],
                     scale=self.scale[rows], t=self.t[rows])


@dataclass(frozen=True)
class FactorTable:
    """Block factors of one problem, built before any fine solve reads them.

    `plans[t]` is the CgPlan of observation time t; times with the same
    observation pattern share one plan.  `v_norm` is ||V||_inf, which maps a
    control residual into state space.
    """

    plans: dict
    v_norm: float

    def bind(self, observations, backgrounds, times):
        """The Batch with one column per background: column c is
        backgrounds[c] at observation time times[c], reading the
        observations v of its own time.  The times must share one
        observation pattern, hence one plan."""
        times = np.asarray(times)
        plan = self.plans[times[0]]
        if any(self.plans[t] is not plan for t in times):
            raise ValueError("a batch needs times that share one observation "
                             f"pattern, got times {times.tolist()}")
        u_b = np.asarray(backgrounds, dtype=float)
        finite = np.isfinite(u_b)
        if not finite.all():
            col = int(np.flatnonzero(~finite.all(axis=1))[0])
            i = next(f.i for f in plan.factors if not finite[col, f.indices].all())
            raise VarSolverError(f"subdomain {i}: the background is not finite "
                                 f"at time {times[col]}")
        d = np.stack([observations.v[t] for t in times]) - u_b[:, plan.obs]
        c = _rhs(plan.S, plan.rinv, d)
        return Batch(plan=plan, c=c, u_b=u_b,
                     scale=1.0 + np.abs(c).max(axis=-1), t=times)


@dataclass(frozen=True)
class CgIterate:
    """Conjugate-gradient state after n steps, one row per column in a batch.

    `w` is the control, `r` the recursive residual c - A w, `p` the last
    search direction and `rz` the r . z that made it (both unused at
    n = 0).  `residual` is the last step's max|w^n - w^{n-1}| (inf at n = 0)
    and `eq_residual` max|r| / (1 + max|c|).  `patched`, the analysis state
    u_b + V w, is built on first access and kept.
    """

    w: np.ndarray = field(repr=False)
    r: np.ndarray = field(repr=False)
    p: np.ndarray = field(repr=False)
    rz: np.ndarray = field(repr=False)
    n: int
    residual: np.ndarray
    eq_residual: np.ndarray
    batch: Batch = field(repr=False)

    @functools.cached_property
    def patched(self):
        return self.batch.u_b + _mv(self.batch.plan.V, self.w)

    def take(self, rows):
        """The batch's columns `rows`; an int gives one unbatched iterate."""
        return CgIterate(w=self.w[rows], r=self.r[rows], p=self.p[rows],
                         rz=self.rz[rows], n=self.n,
                         residual=self.residual[rows],
                         eq_residual=self.eq_residual[rows],
                         batch=self.batch.take(rows))


@dataclass(frozen=True)
class MpsHistory:
    """Final values of one fine solve."""

    n_sweeps: int           # CG steps taken
    residual: float         # last step's max|w^n - w^{n-1}| (inf after none)
    eq_residual: float      # true max|c - A w| / (1 + max|c|) at the end
    converged: bool
    eps_mps: float          # true final residual mapped to state space


def partition_domain(n_grid, n_sub, overlap):
    """Split {0..n_grid-1} into balanced contiguous blocks sharing `overlap` indices.

    Each internal cut extends the left block right by ceil(overlap/2) and the
    right block left by floor(overlap/2); a block's core is its span between
    the cuts.
    """
    if n_sub < 1:
        raise PartitionError(f"n_sub must be >= 1, got {n_sub}")
    if overlap < 0:
        raise PartitionError(f"overlap must be >= 0, got {overlap}")
    if n_sub > n_grid:
        raise PartitionError(f"cannot split {n_grid} points into {n_sub} blocks")
    if n_sub > 1 and overlap * (n_sub - 1) >= n_grid:
        raise PartitionError(
            f"overlap {overlap} with {n_sub} blocks does not fit {n_grid} points")

    cuts = [(i * n_grid) // n_sub for i in range(n_sub + 1)]
    ext_r = (overlap + 1) // 2
    ext_l = overlap // 2
    index_sets = []
    for i in range(n_sub):
        lo = cuts[i] - (ext_l if i > 0 else 0)
        hi = cuts[i + 1] + (ext_r if i < n_sub - 1 else 0)
        index_sets.append(np.arange(max(lo, 0), min(hi, n_grid)))
    return SubdomainPartition(
        n_grid=n_grid, n_sub=n_sub, index_sets=tuple(index_sets),
        cores=tuple(np.arange(a, b) for a, b in zip(cuts, cuts[1:])))


def build_restrictions(partition):
    """Index-map restriction operators for the subdomains."""
    return RestrictionOperators(n_grid=partition.n_grid,
                                subdomain=partition.index_sets)


def assemble_local_system(i, partition, restrictions, config):
    """Build block i of config's control-space system.

    A_loc = A[I_i, I_i] = rinv S_i^T S_i + lam I with S_i = V[obs, I_i], the
    columns of S in the block; c_loc = c[I_i] carries the innovation
    d = v - u_b[obs] of config's background u0.
    """
    idx = restrictions.subdomain[i]
    if idx.size == 0:
        raise PartitionError(f"subdomain {i} is empty")
    cov = config.covpair
    t = config.time_index
    obs = config.observations.obs_indices[t]
    S = cov.V[obs]
    S_i = S[:, idx]
    rinv = 1.0 / cov.sigma_r**2

    # Overflow and a non-finite background surface as values, not warnings:
    # the check below rejects the system, FactorTable.bind the background.
    with np.errstate(over="ignore", invalid="ignore"):
        # S^T R^-1 kept C-ordered, so the product takes the dense gemm path
        A_loc = (np.multiply(S_i.T, rinv, order="C") @ S_i
                 + config.lam * np.eye(idx.size))
        A_loc = 0.5 * (A_loc + A_loc.T)
        if not np.isfinite(A_loc).all():
            raise VarSolverError(
                f"sigma_b = {cov.sigma_b:g} (with sigma_r = {cov.sigma_r:g}) "
                f"overflows the local system of subdomain {i} at time {t} "
                f"in float64")
        try:
            chol = scipy.linalg.cho_factor(A_loc)
        except np.linalg.LinAlgError:
            raise VarSolverError(
                f"subdomain {i} at time {t}: the local system is not positive "
                f"definite in float64 (lambda = {config.lam:g} with sigma_b = "
                f"{cov.sigma_b:g} and sigma_r = {cov.sigma_r:g})") from None
        c = _rhs(S, rinv, config.observations.v[t] - config.u0[obs])
    return LocalSystem(factor=LocalFactor(i=i, indices=idx, A_loc=A_loc,
                                          chol=chol),
                       c_loc=c[idx], config=config, partition=partition)


def build_factors(config, partition, times=None):
    """Factor every block once per distinct observation pattern.

    `times` defaults to every observation time; run_mps asks for its own
    time only when it is given no table.
    """
    if times is None:
        times = range(len(config.observations.v))
    restrictions = build_restrictions(partition)
    V = config.covpair.V
    by_pattern, plans = {}, {}
    for t in times:
        obs = config.observations.obs_indices[t]
        key = obs.tobytes()
        if key not in by_pattern:
            config_t = dataclasses.replace(config, time_index=t)
            by_pattern[key] = CgPlan(
                factors=tuple(assemble_local_system(i, partition, restrictions,
                                                    config_t).factor
                              for i in range(partition.n_sub)),
                obs=obs, S=V[obs], lam=float(config.lam),
                rinv=1.0 / config.covpair.sigma_r**2, V=V)
        plans[t] = by_pattern[key]
    return FactorTable(plans=plans,
                       v_norm=float(np.abs(V).sum(axis=1).max()))


def local_cost(w_i, neighbor_w, system):
    """The global cost J as a function of block i's control, with every
    neighbor's owned points held at neighbor_w.

    Written out term by term from the problem (background, observation
    misfit) so finite differences can check local_grad, which reads the
    assembled A_loc, c_loc and coupling.
    """
    cfg, part = system.config, system.partition
    w = np.zeros(part.n_grid)           # points no block supplies stay 0
    for j, w_j in neighbor_w.items():
        w[part.cores[j]] = w_j[part.cores[j] - part.index_sets[j][0]]
    w[system.indices] = w_i
    t = cfg.time_index
    obs = cfg.observations.obs_indices[t]
    misfit = cfg.covpair.V[obs] @ w - (cfg.observations.v[t] - cfg.u0[obs])
    return (0.5 * cfg.lam * float(w @ w)
            + 0.5 * float(misfit @ misfit) / cfg.covpair.sigma_r**2)


def local_grad(w_i, neighbor_w, system):
    """Gradient of the local cost: A_loc w_i - c_loc + sum_j coupling[j] w_j."""
    g = system.A_loc @ w_i - system.c_loc
    for j, w_j in neighbor_w.items():
        g = g + system.coupling[j] @ w_j
    return g


def _dot(a, b):
    """a . b for every row: one BLAS dot per column, as a[c] @ b[c] alone."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def initial_iterate(batch):
    """Start at the background: w = 0, so r = c."""
    c = batch.c
    zeros = np.zeros(c.shape)
    return CgIterate(w=zeros, r=c, p=zeros, rz=np.zeros(c.shape[:-1])[()],
                     n=0, residual=np.full(c.shape[:-1], np.inf)[()],
                     eq_residual=np.abs(c).max(axis=-1) / batch.scale,
                     batch=batch)


def mps_sweep(iterate):
    """One preconditioned CG step for every column (the name is the
    Jacobi sweep's that this step replaced, which the benchmark traces).

    z = M^-1 r, p = z + beta p (p = z at the first step), then
    alpha = r.z / p.Ap, w += alpha p and r -= alpha Ap, with alpha and beta
    per column.  A non-finite step raises VarSolverError naming its
    subdomain and time.
    """
    batch = iterate.batch
    plan = batch.plan
    z = plan.precondition(iterate.r)
    rz = _dot(iterate.r, z)
    p = z if iterate.n == 0 else z + (rz / iterate.rz)[..., None] * iterate.p
    q = plan.apply_A(p)
    alpha = (rz / _dot(p, q))[..., None]
    step = alpha * p
    r = iterate.r - alpha * q
    # one NaN-propagating reduction per column, unlike max()
    residual = np.abs(step).max(axis=-1)
    if not np.isfinite(residual).all():
        raise VarSolverError(_nonfinite_message(step, batch, iterate.n + 1))
    return CgIterate(w=iterate.w + step, r=r, p=p, rz=rz, n=iterate.n + 1,
                     residual=residual,
                     eq_residual=np.abs(r).max(axis=-1) / batch.scale,
                     batch=batch)


def _nonfinite_message(step, batch, n):
    """Name the first column with a non-finite step, then the first
    subdomain where its c, or else its step, is not finite."""
    step = np.atleast_2d(step)
    col = int(np.flatnonzero(~np.isfinite(step).all(axis=-1))[0])
    c = np.atleast_2d(batch.c)[col]
    bad, cause = ((c, "its right-hand side c_loc is not finite")
                  if not np.isfinite(c).all()
                  else (step[col], "the iteration overflowed"))
    i = next(f.i for f in batch.plan.factors
             if not np.isfinite(bad[f.indices]).all())
    return (f"subdomain {i}: Schwarz CG step {n} at time "
            f"{np.atleast_1d(batch.t)[col]} gave a non-finite iterate ({cause})")


def dap_residual(w, batch):
    """Largest entry of the true residual c - A w, per column."""
    return np.abs(batch.c - batch.plan.apply_A(w)).max(axis=-1)


def run_mps(config, partition, tol, max_iters, factors=None):
    """Solve config's single-time problem by Schwarz-preconditioned CG.

    `factors` is a FactorTable built for this config's problem and
    partition; without one the blocks of config.time_index are factored
    here.  The solve stops when max|c - A w| / (1 + max|c|), read from the
    recursive residual, is at most tol (converged), or after max_iters
    steps; non-convergence is reported through the returned history, not
    raised.  The history's eq_residual is the true residual at the final
    iterate, and eps_mps = ||V||_inf max|c - A w| / lam maps it to state
    space, since A >= lam I bounds the control error by |c - A w| / lam
    (in the 2-norm; the max-norm map is a proxy).
    Returns the final CgIterate, whose `patched` is the analysis, and the
    history.  This is the batch of one of run_mps_batch.
    """
    if factors is None:
        factors = build_factors(config, partition, times=(config.time_index,))
    [(_, final, (history,))] = _cg_groups(
        config, [config.u0], [config.time_index], factors, tol, max_iters)
    return final.take(0), history


def run_mps_batch(config, backgrounds, times, factors, tol, max_iters):
    """run_mps for several backgrounds of config's problem at once.

    Column c solves the single-time problem of time times[c] around the
    background backgrounds[c]; config's own u0 and time_index are not read,
    and the times share one observation pattern of the FactorTable
    `factors` (FactorTable.bind).  A column leaves the batch at the step
    where it stops; the rest step on.  Returns the analysis states, one row
    per column, and one MpsHistory per column; each is bitwise that of the
    column solved alone, so the bytes do not depend on how solves are
    batched.
    """
    states = np.empty((len(times), config.covpair.V.shape[0]))
    histories = [None] * len(times)
    for cols, iterate, hists in _cg_groups(config, backgrounds, times,
                                           factors, tol, max_iters):
        states[cols] = iterate.patched
        for c, h in zip(cols.tolist(), hists):
            histories[c] = h
    return states, histories


def _cg_groups(config, backgrounds, times, factors, tol, max_iters):
    """Step a batch until every column stops; one (columns, iterate,
    histories) per group of columns that stop at the same step.

    A column stops, converged, when its relative recursive residual is at
    most tol, which may hold at the start, or unconverged after max_iters
    steps.  Its history reads the true residual at the iterate it stopped
    at.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    groups, out = [], []
    # Non-finite values are caught by value, not by a floating-point warning.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        iterate = initial_iterate(
            factors.bind(config.observations, backgrounds, times))
        cols = np.arange(len(times))       # batch column of each active row
        while True:
            done = iterate.eq_residual <= tol
            stop = done | (iterate.n >= max_iters)
            if stop.all():
                groups.append((cols, iterate, done))
                break
            if stop.any():
                groups.append((cols[stop], iterate.take(stop), done[stop]))
                cols, iterate = cols[~stop], iterate.take(~stop)
            iterate = mps_sweep(iterate)

        lam = max(config.lam, np.finfo(float).tiny)
        for cols, it, done in groups:
            res = dap_residual(it.w, it.batch)
            hists = [MpsHistory(n_sweeps=it.n, residual=r, eq_residual=e,
                                converged=ok, eps_mps=factors.v_norm * a / lam)
                     for r, e, a, ok in zip(it.residual.tolist(),
                                            (res / it.batch.scale).tolist(),
                                            res.tolist(), done.tolist())]
            out.append((cols, it, hists))
    return out
