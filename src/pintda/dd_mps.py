"""Schwarz-preconditioned conjugate gradients for the single-time problem.

A fine solve is the single-time 3D-Var analysis around a background u_b.  In
the control w, with u = u_b + V w and B = V V^T, its cost is

    J(w) = lam/2 |w|^2 + rinv/2 |S w - d|^2,   S = V[obs],  d = v - u_b[obs],

where obs are the grid points observed, at every time, and the scalar
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
the partition, V, lam and the observed points obs, which are the same at
every time.  build_factors builds them once per problem, as its `CgPlan`,
which also holds the observations v, one row per time.  A fine solve is
then a function of (plan, background, time) alone and computes only d and
c.  A CG step makes one dpotrs call per block and applies A once, as
lam p + rinv S^T (S p), never formed.

Solves run as the columns of one batch: every array carries a leading column
axis, one row per background (run_mps_batch(plan, backgrounds, times, tol,
max_iters); run_mps(plan, background, time, tol, max_iters) is the batch of
one).  Each product is a stacked gemv, one per column, each block solve one
multi-column potrs call, and alpha, beta and every residual are per column,
so each column has the bits of its solve alone.  A column that stops
(converged, out of steps, or with a step of 0, as where r . z = 0) is
written into the batch's final arrays and dropped from the stepped ones, so
a step does the arithmetic of the columns still stepping and nothing else.
The stopped columns finish together: one true residual c - A w, one
analysis u_b + V w and one pass of histories per batch.  Stepwise,
plan.bind(backgrounds, times) is the step-0 CgIterate, mps_sweep advances
it by one step, and its `patched` is the analysis.  build_factors rejects
lam <= 0, and bind a time that is not an integer in [0, n_steps) or a
non-finite background; any other non-finite value shows in one
NaN-propagating check of each step.  Each raises VarSolverError naming
lambda or the time (and the subdomain).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .testbed import gemv_rows, require_integer
from .var_solver import VarSolverError, normal_matrix

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

    n_sub: int
    index_sets: tuple       # per-subdomain integer index arrays
    cores: tuple            # per-subdomain owned index arrays


@dataclass(frozen=True)
class LocalFactor:
    """Block i's part of the preconditioner: A_loc = A[I_i, I_i] and its
    Cholesky factor."""

    i: int
    indices: np.ndarray     # I_i, contiguous
    A_loc: np.ndarray
    chol: tuple = field(repr=False)


def _rhs(S, rinv, d):
    """c = rinv S^T d for every row of the innovations d."""
    # a batch's d comes out F-ordered; each column keeps its solo bits only
    # if the stacked gemv reads a C-ordered operand
    return gemv_rows(S.T, np.multiply(rinv, d, order="C"))


@dataclass(frozen=True)
class CgPlan:
    """One problem's operator and preconditioner, built before any fine
    solve reads them.

    `factors` holds one LocalFactor per block in subdomain order, and
    `blocks` what a step reads of each: (i, Cholesky factor, lower, lo, hi),
    the block's indices being range(lo, hi) with Python ints lo and hi.
    `obs` holds the observed grid points and `S` = V[obs] their rows of V,
    so that A = lam I + rinv S^T S.  `V` maps a control to a state
    increment, and `v_norm` = ||V||_inf maps a control residual into state
    space.  `v` holds the observations, one (n_steps, nobs) array whose row
    t is time t's.
    """

    factors: tuple
    blocks: tuple
    obs: np.ndarray
    S: np.ndarray
    lam: float
    rinv: float
    V: np.ndarray
    v_norm: float
    v: np.ndarray

    def apply_A(self, p):
        """A p for every row of p, as lam p + rinv S^T (S p)."""
        return self.lam * p + _rhs(self.S, self.rinv, gemv_rows(self.S, p))

    def precondition(self, r):
        """sum_i R_i^T A_loc_i^-1 R_i r: one potrs call per block for every
        column at once, each column with its solo bits."""
        z = np.zeros(r.shape)
        for i, c, lower, lo, hi in self.blocks:
            sol, info = _potrs(c, r[..., lo:hi].T, lower=lower)
            if info:
                raise VarSolverError(f"subdomain {i}: LAPACK potrs rejected "
                                     f"argument {-info}")
            z[..., lo:hi] += sol.T
        return z

    def bind(self, backgrounds, times):
        """The CgIterate at step 0 with one column per background: column c
        is backgrounds[c] at observation time times[c], reading the
        observations v of its own time, and starts at w = 0, so r = c.  A
        time that is not an integer in [0, len(v)) raises VarSolverError.
        A batch of plain in-range ints is checked in one pass; any other
        batch is checked time by time, to name the first bad time."""
        if not (set(map(type, times)) == {int}
                and 0 <= min(times) and max(times) < len(self.v)):
            for t in times:
                require_integer("observation time", t, VarSolverError)
                if not 0 <= t < len(self.v):
                    raise VarSolverError(f"observation time {t} is outside "
                                         f"[0, {len(self.v)})")
        times = np.asarray(times, dtype=int)
        u_b = np.asarray(backgrounds, dtype=float)
        finite = np.isfinite(u_b)
        if not finite.all():
            col = int(np.flatnonzero(~finite.all(axis=1))[0])
            raise VarSolverError(f"subdomain {_first_block(self, finite[col])}: "
                                 f"the background is not finite at time "
                                 f"{times[col]}")
        d = self.v[times] - u_b[:, self.obs]
        c = _rhs(self.S, self.rinv, d)
        c_max, zeros = np.abs(c).max(axis=-1), np.zeros(c.shape)
        return CgIterate(self, c, u_b, 1.0 + c_max, times, zeros, c, zeros,
                         np.zeros(len(c)), 0, np.full(len(c), np.inf),
                         c_max / (1.0 + c_max))


class CgIterate:
    """Conjugate-gradient state of a batch of solves on one CgPlan after n
    steps, one row per column; a plain object with slots, since every step
    builds one.

    `c` is the right-hand side rinv S^T d, `u_b` the background, `scale`
    1 + max|c|, which makes residuals relative, and `t` the observation
    time.  `w` is the control, `r` the recursive residual c - A w, `p` the
    last search direction and `rz` the r . z that made it (both unused at
    n = 0).  `n` is the int count of steps every column has taken, or, in
    the final iterate of a finished batch, one count per column.
    `residual` is the last step's max|w^n - w^{n-1}| (inf at n = 0) and
    `eq_residual` max|r| / scale.  `patched`, the analysis u_b + V w, is
    built on first access and kept.
    """

    __slots__ = ("plan", "c", "u_b", "scale", "t", "w", "r", "p", "rz", "n",
                 "residual", "eq_residual", "_patched")

    def __init__(self, plan, c, u_b, scale, t, w, r, p, rz, n, residual,
                 eq_residual):
        self.plan, self.c, self.u_b, self.scale, self.t = plan, c, u_b, scale, t
        self.w, self.r, self.p, self.rz, self.n = w, r, p, rz, n
        self.residual, self.eq_residual = residual, eq_residual
        self._patched = None

    @property
    def patched(self):
        if self._patched is None:
            self._patched = self.u_b + gemv_rows(self.plan.V, self.w)
        return self._patched

    def take(self, rows):
        """The batch's columns `rows`; an int gives one unbatched iterate."""
        return CgIterate(self.plan, self.c[rows], self.u_b[rows],
                         self.scale[rows], self.t[rows], self.w[rows],
                         self.r[rows], self.p[rows], self.rz[rows],
                         self.n if isinstance(self.n, int) else self.n[rows],
                         self.residual[rows], self.eq_residual[rows])


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
    the cuts.  An argument that is not an integer (a bool is not) raises
    PartitionError naming it.
    """
    for name, value in (("n_grid", n_grid), ("n_sub", n_sub),
                        ("overlap", overlap)):
        require_integer(name, value, PartitionError)
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
        n_sub=n_sub, index_sets=tuple(index_sets),
        cores=tuple(np.arange(a, b) for a, b in zip(cuts, cuts[1:])))


def assemble_local_system(i, partition, config):
    """Factor block i of config's control-space matrix.

    A_loc = A[I_i, I_i] = lam I + rinv S_i^T S_i with S_i = V[obs, I_i], the
    columns of S in the block, built by var_solver.normal_matrix.  Returns
    its LocalFactor.
    """
    idx = partition.index_sets[i]
    if idx.size == 0:
        raise PartitionError(f"subdomain {i} is empty")
    cov = config.covpair
    S_i = cov.V[config.observations.obs][:, idx]
    rinv = 1.0 / cov.sigma_r**2

    # Overflow surfaces as values, not warnings: the check below rejects it.
    with np.errstate(over="ignore", invalid="ignore"):
        A_loc, _ = normal_matrix(config.lam * np.eye(idx.size), S_i, rinv)
        if not np.isfinite(A_loc).all():
            raise VarSolverError(
                f"sigma_b = {cov.sigma_b:g} (with sigma_r = {cov.sigma_r:g}) "
                f"overflows the local system of subdomain {i} in float64")
        try:
            chol = scipy.linalg.cho_factor(A_loc)
        except np.linalg.LinAlgError:
            raise VarSolverError(
                f"subdomain {i}: the local system is not positive "
                f"definite in float64 (lambda = {config.lam:g} with sigma_b = "
                f"{cov.sigma_b:g} and sigma_r = {cov.sigma_r:g})") from None
    return LocalFactor(i=i, indices=idx, A_loc=A_loc, chol=chol)


def build_factors(config, partition):
    """Factor every block of config's problem once: its CgPlan.  lam must be
    positive: at lam = 0, A = rinv S^T S has rank at most nobs < np."""
    if not config.lam > 0:
        raise VarSolverError(f"lambda must be positive, got {config.lam:g}")
    V, obs = config.covpair.V, config.observations.obs
    factors = tuple(assemble_local_system(i, partition, config)
                    for i in range(partition.n_sub))
    return CgPlan(factors=factors,
                  blocks=tuple((f.i, *f.chol, int(f.indices[0]),
                                int(f.indices[-1]) + 1) for f in factors),
                  obs=obs, S=V[obs], lam=float(config.lam),
                  rinv=1.0 / config.covpair.sigma_r**2, V=V,
                  v_norm=float(np.abs(V).sum(axis=1).max()),
                  v=config.observations.v)


def _first_block(plan, finite):
    """The first subdomain whose entries of the bool row `finite` are not
    all true."""
    return next(i for i, _, _, lo, hi in plan.blocks if not finite[lo:hi].all())


def _dot(a, b):
    """a . b for every row: one BLAS dot per column, as a[c] @ b[c] alone."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def mps_sweep(iterate):
    """One preconditioned CG step for every column (the name is the
    Jacobi sweep's that this step replaced, which the benchmark traces).

    z = M^-1 r, p = z + beta p (p = z at the first step), then
    alpha = r.z / p.Ap, w += alpha p and r -= alpha Ap, with alpha and beta
    per column; alpha = 0 where r.z = 0, so the column's step is 0.  A
    non-finite step raises VarSolverError naming its subdomain and time.
    """
    plan, r = iterate.plan, iterate.r
    z = plan.precondition(r)
    rz = _dot(r, z)
    p = z if iterate.n == 0 else z + (rz / iterate.rz)[..., None] * iterate.p
    q = plan.apply_A(p)
    alpha = (rz / _dot(p, q))[..., None]
    step = alpha * p
    # one NaN-propagating reduction per column, unlike max()
    residual = np.abs(step).max(axis=-1)
    if not np.isfinite(residual).all():
        # a column whose r.z has reached 0 (its r underflowed) has no step
        # left: alpha = 0 there, not 0/0
        alpha = np.where(rz[..., None] == 0, 0.0, alpha)
        step = alpha * p
        residual = np.abs(step).max(axis=-1)
        if not np.isfinite(residual).all():
            raise VarSolverError(_nonfinite_message(step, iterate))
    r = r - alpha * q
    return CgIterate(plan, iterate.c, iterate.u_b, iterate.scale, iterate.t,
                     iterate.w + step, r, p, rz, iterate.n + 1, residual,
                     np.abs(r).max(axis=-1) / iterate.scale)


def _nonfinite_message(step, iterate):
    """Name the first column with a non-finite step from `iterate`, then
    the first subdomain where its c, or else its step, is not finite."""
    step = np.atleast_2d(step)
    col = int(np.flatnonzero(~np.isfinite(step).all(axis=-1))[0])
    c = np.atleast_2d(iterate.c)[col]
    bad, cause = ((c, "its right-hand side c is not finite")
                  if not np.isfinite(c).all()
                  else (step[col], "the iteration overflowed"))
    return (f"subdomain {_first_block(iterate.plan, np.isfinite(bad))}: "
            f"Schwarz CG step {iterate.n + 1} at time "
            f"{np.atleast_1d(iterate.t)[col]} gave a non-finite iterate ({cause})")


def dap_residual(iterate):
    """Largest entry of the true residual c - A w, per column."""
    return np.abs(iterate.c - iterate.plan.apply_A(iterate.w)).max(axis=-1)


def run_mps(plan, background, time, tol, max_iters):
    """Solve the single-time problem of observation time `time` around
    `background` by Schwarz-preconditioned CG on the CgPlan `plan`.

    The solve stops when max|c - A w| / (1 + max|c|), read from the
    recursive residual, is at most tol (converged), or after max_iters
    steps (an integer >= 0, else ValueError); non-convergence is reported
    through the returned history, not raised.  The history's eq_residual
    is the true residual at the final iterate, and eps_mps = ||V||_inf
    max|c - A w| / lam maps it to state space, since A >= lam I bounds the
    control error by |c - A w| / lam (in the 2-norm; the max-norm map is a
    proxy).
    Returns the final CgIterate, whose `patched` is the analysis, and the
    history.  This is the batch of one of run_mps_batch, through the same
    loop and the same finish.
    """
    final, (history,) = _cg_solve(plan, [background], [time], tol, max_iters)
    return final.take(0), history


def run_mps_batch(plan, backgrounds, times, tol, max_iters):
    """run_mps for several backgrounds at once.

    Column c solves the single-time problem of time times[c] around the
    background backgrounds[c], on the CgPlan `plan` (CgPlan.bind).  A column
    leaves the stepped arrays at the step where it stops; the rest step on,
    and the stopped columns finish together, once per batch.  Returns the
    analysis states, one row per column, and one MpsHistory per column;
    each is bitwise that of the column solved alone, so the bytes do not
    depend on how solves are batched.
    """
    final, histories = _cg_solve(plan, backgrounds, times, tol, max_iters)
    return final.patched, histories


def _cg_solve(plan, backgrounds, times, tol, max_iters):
    """Step a batch until every column stops; its final CgIterate, whose n
    holds one step count per column, and one MpsHistory per column.

    A column stops, converged, when its relative recursive residual is at
    most tol, which may hold at the start, or unconverged after max_iters
    steps or at a step that left w unchanged, as where r.z reached 0 and CG
    had no step left.  Its state is written into the final iterate's
    batch-wide arrays and it leaves the stepped iterate.  Once every column
    has stopped, one dap_residual call gives every history the true
    residual at the iterate its column stopped at.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    require_integer("max_iters", max_iters, ValueError)
    if max_iters < 0:
        raise ValueError(f"max_iters must be >= 0, got {max_iters}")
    # Non-finite values are caught by value, not by a floating-point warning.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        it = plan.bind(backgrounds, times)
        k, final = len(it.t), None
        cols = np.arange(k)                 # batch column of each stepped row
        while True:
            done = it.eq_residual <= tol
            stop = done | (it.residual == 0) | (it.n >= max_iters)
            if stop.any():
                if final is None:
                    if stop.all():    # the stepped iterate is the final one
                        it.n = np.full(k, it.n)
                        final, converged = it, done
                        break
                    final = CgIterate(plan, it.c, it.u_b, it.scale, it.t,
                                      np.empty(it.w.shape), np.empty(it.r.shape),
                                      np.empty(it.p.shape), np.empty(k),
                                      np.empty(k, dtype=int), np.empty(k),
                                      np.empty(k))
                    converged = np.empty(k, dtype=bool)
                rows = cols[stop]
                final.w[rows], final.r[rows], final.p[rows] = \
                    it.w[stop], it.r[stop], it.p[stop]
                final.rz[rows], final.residual[rows], final.eq_residual[rows] = \
                    it.rz[stop], it.residual[stop], it.eq_residual[stop]
                final.n[rows], converged[rows] = it.n, done[stop]
                if len(rows) == len(cols):
                    break
                cols, it = cols[~stop], it.take(~stop)
            it = mps_sweep(it)
        res = dap_residual(final)
    histories = [MpsHistory(n_sweeps=n, residual=r, eq_residual=e,
                            converged=ok, eps_mps=plan.v_norm * a / plan.lam)
                 for n, r, e, a, ok in zip(final.n.tolist(),
                                           final.residual.tolist(),
                                           (res / final.scale).tolist(),
                                           res.tolist(), converged.tolist())]
    return final, histories
