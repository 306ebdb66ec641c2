"""Overlapping-Schwarz inner solver for the single-time variational problem.

The spatial index set is split into overlapping contiguous subdomains.  Each
subdomain minimizes its restricted, control-transformed cost plus a quadratic
interface penalty that ties its boundary values to the neighbor's previous
iterate.  One sweep solves every local system from iteration-n neighbor data
only (a Jacobi sweep), so the local solves are order-independent.  The
patched global vector assigns every grid point to its lowest-index owner.

A local system splits into a factor and a right-hand side.  The factor
(A_loc, its Cholesky factor, the coupling blocks, V_loc, the owner mask and
the observed rows with S = V_loc[obs_loc]) depends only on the partition, V,
the observation pattern obs_indices[t], lam and rho.  A `FactorTable` builds
it once per distinct pattern, so a fine solve only recomputes the innovation
d = v - u_b[obs_indices[t]] and c_loc = rinv S^T d_loc, where the scalar
rinv = 1 / sigma_r^2 is R^-1: observations are a row selection and one
variance, and a subdomain reads only those inside its block.

Solves that share a pattern run as the columns of one batch: every
right-hand side, iterate and residual carries a leading column axis, one row
per background (run_mps_batch; run_mps is the batch of one, and a single
system without that axis sweeps through the same code).  Every per-column
value has the bits of its solve alone, and a column leaves the batch at the
sweep where it converges, so each solve still stops on its own.

A sweep runs on a `SweepPlan`, built with the factors once per pattern.  The
iterate is one array: every block's control side by side in subdomain
order, after the column axis.  The plan groups the blocks by exact size and
stacks their A_loc matrices, and groups the coupling blocks by exact shape
(r_i, r_j) and stacks those, so each product of a sweep is one call per
group, np.matmul(C_stack, x[..., src][..., None]).  The fancy-index gather
hands BLAS a C-ordered operand, so every slice is one gemv with the bits of
C @ w_j alone.  Blocks are never zero-padded to a common size, since a gemv
of another length may sum in another order, and no product is formed as a
gemm.  Block i's coupling products sit at its coupling positions of one
(depth, size) array, with exact zeros where a block has fewer neighbors, so
rhs = c - P_0 - P_1 ... and g = A w - c + P_0 + ... keep the coupling order:
x - 0.0 is x, and x + 0.0 changes at most the sign of a zero, which abs
ignores.  The iterate difference is one reduction, and the per-block
stationarity maxima are one np.maximum.reduceat at the block starts; max is
exact, so these are the bits of a per-block loop.  LAPACK has no batched
potrs, and a stacked inverse or LU solve would change the bits, so each
block's solve stays one multi-column potrs call.

A solve's state is that stacked x and nothing else: an iterate's
per-block controls w are views of x, and its systems are one
`StackedSystems` (c_loc and u_b_loc stacked like x).  A sweep forms each
coupling product once: the stationarity residual at the new iterate reads
it, and so does the next sweep's right-hand side.  The patched global state
is built once per group of columns that stop together, from the iterate
where they stop.  A non-finite background is rejected before the sweeps, and
any other non-finite value shows in one NaN-propagating check of each
sweep's iterate difference; both raise VarSolverError naming the subdomain
and the time.
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
# once: the sweep calls it directly, without cho_solve's per-call checks.
_potrs = scipy.linalg.lapack.dpotrs


class PartitionError(ValueError):
    """Infeasible decomposition request."""


@dataclass(frozen=True)
class SubdomainPartition:
    """Overlapping contiguous index blocks with their interfaces.

    `interfaces[(i, j)]`, for every pair of intersecting blocks, holds the
    endpoints of block i that fall inside block j.  `own_masks[i]` is True
    where block i is the lowest-index block containing the point.
    """

    n_grid: int
    n_sub: int
    index_sets: tuple       # per-subdomain integer index arrays
    interfaces: dict        # (i, j) -> index array Gamma_ij
    own_masks: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "own_masks", tuple(_owner_masks(self)))

    def neighbors(self, i):
        return sorted(j for (a, j) in self.interfaces if a == i)


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
    """The background-independent part of subdomain i's system.

    `coupling[j]` is the off-diagonal block the sweep subtracts from the
    right-hand side; it is stored with that sign, so stationarity of the
    local cost reads A_loc w_i = c_loc - sum_j coupling[j] @ w_j.  `rows` are
    the observations inside the block and `obs_loc` their local grid
    positions; S = V_loc[obs_loc] and rinv = 1 / sigma_r^2 carry them into
    c_loc.
    """

    i: int
    indices: np.ndarray     # Omega_i
    n_grid: int
    lam: float              # identity-block weight (3D-Var regularization)
    rho: float              # interface penalty weight
    A_loc: np.ndarray
    chol: tuple = field(repr=False)
    coupling: dict          # j -> (r_i x r_j) matrix
    interface_maps: dict    # j -> (V_ij, V_ij_neighbor)
    V_loc: np.ndarray
    own_mask: np.ndarray    # True where this subdomain owns the grid point
    rows: np.ndarray
    obs_loc: np.ndarray
    S: np.ndarray
    rinv: float

    def system(self, d, u_b, t):
        """Bind the factor to a background u_b of time t with innovation
        d = v - u_b[ix_t]; a leading axis of d, u_b and t is the column axis."""
        d_loc = d[..., self.rows]
        # a batch's d_loc comes out F-ordered; each column keeps its solo
        # bits only if the stacked gemv reads a C-ordered operand
        c_loc = _mv(self.S.T, np.multiply(self.rinv, d_loc, order="C"))
        return LocalSystem(factor=self, c_loc=c_loc, d_loc=d_loc,
                           u_b_loc=u_b[..., self.indices], t=t)


def _mv(A, x):
    """A @ x for every row of x: one gemv per column, so each column has the
    bits of A @ x alone."""
    return np.matmul(A, x[..., None])[..., 0]


@dataclass(frozen=True)
class LocalSystem:
    """Preconditioned local control system for one subdomain and background:
    a shared factor plus the right-hand side c_loc.  In a batch, c_loc,
    d_loc and u_b_loc have one row per column and t one entry."""

    factor: LocalFactor
    c_loc: np.ndarray
    d_loc: np.ndarray
    u_b_loc: np.ndarray
    t: object               # observation time (per column in a batch)

    i = property(attrgetter("factor.i"))
    indices = property(attrgetter("factor.indices"))
    n_grid = property(attrgetter("factor.n_grid"))
    A_loc = property(attrgetter("factor.A_loc"))
    chol = property(attrgetter("factor.chol"))
    coupling = property(attrgetter("factor.coupling"))
    V_loc = property(attrgetter("factor.V_loc"))
    own_mask = property(attrgetter("factor.own_mask"))

    def take(self, rows):
        """The batch's columns `rows`; an int gives one unbatched system."""
        return LocalSystem(factor=self.factor, c_loc=self.c_loc[rows],
                           d_loc=self.d_loc[rows], u_b_loc=self.u_b_loc[rows],
                           t=self.t[rows])


@dataclass(frozen=True)
class FactorTable:
    """Local factors of one problem, built before any fine solve reads them.

    `plans[t]` is the sweep plan of observation time t, and its `factors`
    the per-subdomain factor tuple; times with the same observation pattern
    share one plan.  `v_norm` is ||V||_inf, which maps a local residual into
    state space.
    """

    plans: dict
    rho: float
    v_norm: float

    def batch(self, observations, backgrounds, times):
        """Local systems with one column per background; only the
        innovations and each c_loc are computed.

        Column c is backgrounds[c] at observation time times[c].  The times
        share one observation pattern, hence one factor tuple and one index
        array; each column reads the observations v of its own time.
        """
        times = np.asarray(times)
        factors = self.plans[times[0]].factors
        if any(self.plans[t].factors is not factors for t in times):
            raise ValueError("a batch needs times that share one observation "
                             f"pattern, got times {times.tolist()}")
        u_b = np.asarray(backgrounds, dtype=float)
        finite = np.isfinite(u_b)
        if not finite.all():
            col = int(np.flatnonzero(~finite.all(axis=1))[0])
            i = next(f.i for f in factors if not finite[col, f.indices].all())
            raise VarSolverError(f"subdomain {i}: the background is not finite "
                                 f"at time {times[col]}")
        ix = observations.obs_indices[times[0]]
        d = np.stack([observations.v[t] for t in times]) - u_b[:, ix]
        return [f.system(d, u_b, times) for f in factors]

    def systems(self, config):
        """Local systems for config's background and time index: the batch
        of one, without its column axis."""
        return [s.take(0) for s in self.batch(
            config.observations, [config.u0], [config.time_index])]


@dataclass(frozen=True)
class SweepPlan:
    """The stacked layout of one observation pattern's blocks.

    Block i's control sits at `slices[i]` of the stacked axis, which is
    `size` long; `starts` are the first positions of the blocks.  `blocks`
    holds, per block size r, the stacked A_loc matrices (k, r, r) and the
    stacked positions (k, r) of their controls.  `couplings` holds, per
    coupling shape (r_i, r_j), the stacked matrices (m, r_i, r_j), the
    positions (m, r_j) of the neighbor controls they read, and the positions
    (m, r_i) where their products land in the flattened (depth, size)
    product array: row p of that array holds every block's p-th coupling
    product in coupling order, and exact zeros where a block has fewer than
    p + 1 neighbors.
    """

    factors: tuple          # LocalFactor per subdomain, in subdomain order
    slices: tuple
    starts: np.ndarray
    size: int
    depth: int              # the most coupling blocks of one subdomain
    blocks: tuple           # (A stack, positions) per block size
    couplings: tuple        # (C stack, source, destination) per shape

    def apply_A(self, x):
        """A_loc w_i of every block, stacked like x."""
        out = np.empty(x.shape)
        for A, pos in self.blocks:
            out[..., pos] = np.matmul(A, x[..., pos][..., None])[..., 0]
        return out

    def coupling_products(self, x):
        """coupling[j] @ w_j of every block, as a (..., depth, size) array."""
        out = np.zeros(x.shape[:-1] + (self.depth * self.size,))
        for C, src, dst in self.couplings:
            out[..., dst] = np.matmul(C, x[..., src][..., None])[..., 0]
        return out.reshape(x.shape[:-1] + (self.depth, self.size))


def sweep_plan(factors):
    """The SweepPlan of one factor per subdomain, in subdomain order."""
    factors = tuple(factors)
    if [f.i for f in factors] != list(range(len(factors))):
        raise ValueError("a sweep plan needs one factor per subdomain, "
                         "in subdomain order")
    sizes = [f.indices.size for f in factors]
    starts = np.cumsum([0] + sizes[:-1])
    pos = [a + np.arange(r) for a, r in zip(starts.tolist(), sizes)]
    size = sum(sizes)
    by_size, by_shape = {}, {}
    for f in factors:
        by_size.setdefault(f.indices.size, []).append(f.i)
        for p, (j, C) in enumerate(f.coupling.items()):
            by_shape.setdefault(C.shape, []).append((f.i, p, j))
    blocks = tuple((np.stack([factors[i].A_loc for i in members]),
                    np.stack([pos[i] for i in members]))
                   for members in by_size.values())
    couplings = tuple((np.stack([factors[i].coupling[j] for i, _, j in members]),
                       np.stack([pos[j] for _, _, j in members]),
                       np.stack([p * size + pos[i] for i, p, _ in members]))
                      for members in by_shape.values())
    return SweepPlan(factors=factors,
                     slices=tuple(slice(a, a + r) for a, r
                                  in zip(starts.tolist(), sizes)),
                     starts=starts, size=size,
                     depth=max((len(f.coupling) for f in factors), default=0),
                     blocks=blocks, couplings=couplings)


@dataclass(frozen=True)
class StackedSystems:
    """A batch's local systems bound to their sweep plan.

    `c` and `u_b` hold every block's c_loc and u_b_loc stacked like the
    iterate, `scale` the 1 + max|c_loc| of each block, which makes its
    stationarity residual relative, and `t` the observation time (per
    column in a batch).
    """

    plan: SweepPlan
    c: np.ndarray
    u_b: np.ndarray
    scale: np.ndarray
    t: object

    def take(self, rows):
        """The batch's columns `rows`; an int gives one unbatched batch."""
        return StackedSystems(plan=self.plan, c=self.c[rows],
                              u_b=self.u_b[rows], scale=self.scale[rows],
                              t=self.t[rows])


def stack_systems(systems, plan=None):
    """Bind systems, one per subdomain in any order, to `plan`, or to a plan
    built from their factors."""
    systems = sorted(systems, key=attrgetter("i"))
    if plan is None:
        plan = sweep_plan(s.factor for s in systems)
    elif (len(systems) != len(plan.factors)
          or any(s.factor is not f for s, f in zip(systems, plan.factors))):
        raise ValueError("the systems are not the blocks of this sweep plan")
    c = np.concatenate([s.c_loc for s in systems], axis=-1)
    return StackedSystems(
        plan=plan, c=c,
        u_b=np.concatenate([s.u_b_loc for s in systems], axis=-1),
        scale=1.0 + np.maximum.reduceat(np.abs(c), plan.starts, axis=-1),
        t=systems[0].t)


@dataclass(frozen=True)
class SchwarzIterate:
    """State of the Schwarz iteration after n sweeps.

    `x` is the stacked iterate (SweepPlan) of the systems `stacked`, and `w`
    its per-block views in subdomain order.  `products` holds every block's
    coupling products coupling[j] @ w[j] at x, as the (..., depth, size)
    array of SweepPlan.coupling_products; the stationarity residual at x was
    summed from them and the next sweep's right-hand sides read them.
    `patched`, the global state patched from x by `patch_rule`, is built on
    first access and kept, so a solve that reads only its last iterate
    patches once.

    In a batch every array has a leading column axis and each residual
    holds one value per column; n is the sweep count of them all.
    """

    x: np.ndarray = field(repr=False, compare=False)
    n: int
    residual: float         # max_i ||w_i^n - w_i^{n-1}||_inf
    abs_residual: float     # max_i ||local_grad_i(w)||_inf
    eq_residual: float      # the same relative to each 1 + max|c_loc|
    products: np.ndarray = field(repr=False, compare=False)
    stacked: StackedSystems = field(repr=False, compare=False)
    patch_rule: str

    @property
    def w(self):
        return tuple(self.x[..., sl] for sl in self.stacked.plan.slices)

    @functools.cached_property
    def patched(self):
        return _patch(self.stacked, self.x, self.patch_rule)

    def take(self, rows):
        """The batch's columns `rows`; an int gives one unbatched iterate."""
        return SchwarzIterate(
            x=self.x[rows], n=self.n,
            residual=self.residual[rows], abs_residual=self.abs_residual[rows],
            eq_residual=self.eq_residual[rows], products=self.products[rows],
            stacked=self.stacked.take(rows), patch_rule=self.patch_rule)


@dataclass(frozen=True)
class MpsHistory:
    """Final values of one fine solve."""

    n_sweeps: int
    residual: float         # last iterate difference (inf after no sweep)
    eq_residual: float      # relative stationarity residual at the end
    converged: bool
    eps_mps: float          # final local residual mapped to state space


def partition_domain(n_grid, n_sub, overlap):
    """Split {0..n_grid-1} into balanced contiguous blocks sharing `overlap` indices.

    Each internal cut extends the left block right by ceil(overlap/2) and the
    right block left by floor(overlap/2); interfaces are the block endpoints
    that land inside a neighbor.
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

    interfaces = {}
    for i in range(n_sub):
        omega_i = set(index_sets[i].tolist())
        endpoints = {int(index_sets[i][0]), int(index_sets[i][-1])}
        for j in range(n_sub):
            omega_j = set(index_sets[j].tolist())
            if j != i and omega_i & omega_j:
                interfaces[(i, j)] = np.asarray(
                    sorted(e for e in endpoints if e in omega_j), dtype=int)

    return SubdomainPartition(n_grid=n_grid, n_sub=n_sub,
                              index_sets=tuple(index_sets),
                              interfaces=interfaces)


def build_restrictions(partition):
    """Index-map restriction operators for the subdomains."""
    return RestrictionOperators(n_grid=partition.n_grid,
                                subdomain=partition.index_sets)


def _owner_masks(partition):
    """own_mask[i][p] is True when subdomain i is the lowest-index block
    containing grid point index_sets[i][p]."""
    owner = np.full(partition.n_grid, -1, dtype=int)
    for i in range(partition.n_sub - 1, -1, -1):
        owner[partition.index_sets[i]] = i
    return [owner[idx] == i for i, idx in enumerate(partition.index_sets)]


def assemble_local_system(i, partition, restrictions, config, rho=1.0):
    """Build the control-space system of subdomain i.

    A_loc = S^T S / sigma_r^2 + lam I + rho sum_j V_ij^T V_ij, with
    V_i = R_i V R_i^T, S = H_i V_i (rows of V_i) and V_ij = R_ij V R_i^T.
    The right-hand side carries the innovation d = v - H u_b; the
    coupling block toward neighbor j is -rho V_ij^T (R_ij V R_j^T), the sign
    making the subtracted sweep right-hand side match the local gradient.
    """
    idx = restrictions.subdomain[i]
    if idx.size == 0:
        raise PartitionError(f"subdomain {i} is empty")
    V = config.covpair.V
    t = config.time_index
    obs_pos = config.observations.obs_indices[t]

    V_loc = V[np.ix_(idx, idx)]
    rows = np.where(np.isin(obs_pos, idx))[0]
    obs_loc = np.searchsorted(idx, obs_pos[rows])     # idx is sorted
    S = V_loc[obs_loc]
    rinv = 1.0 / config.covpair.sigma_r**2

    coupling, interface_maps = {}, {}
    # Overflow and a non-finite background surface as values, not warnings:
    # the check below rejects the system, FactorTable.systems the background.
    with np.errstate(over="ignore", invalid="ignore"):
        # S^T R^-1 kept C-ordered, so the product takes the dense gemm path
        A_loc = (np.multiply(S.T, rinv, order="C") @ S
                 + config.lam * np.eye(idx.size))

        for j in partition.neighbors(i):
            gamma = partition.interfaces[(i, j)]
            if gamma.size == 0:
                continue
            V_ij = V[np.ix_(gamma, idx)]
            V_ij_nb = V[np.ix_(gamma, restrictions.subdomain[j])]
            A_loc = A_loc + rho * V_ij.T @ V_ij
            coupling[j] = -rho * V_ij.T @ V_ij_nb
            interface_maps[j] = (V_ij, V_ij_nb)

        A_loc = 0.5 * (A_loc + A_loc.T)
        cov = config.covpair
        if not (np.isfinite(A_loc).all()
                and all(np.isfinite(C).all() for C in coupling.values())):
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
        factor = LocalFactor(i=i, indices=idx, n_grid=partition.n_grid,
                             lam=float(config.lam), rho=float(rho), A_loc=A_loc,
                             chol=chol, coupling=coupling,
                             interface_maps=interface_maps, V_loc=V_loc,
                             own_mask=partition.own_masks[i], rows=rows,
                             obs_loc=obs_loc, S=S, rinv=rinv)
        d = config.observations.v[t] - config.u0[obs_pos]
        return factor.system(d, config.u0, t)


def _pattern_key(config, t):
    """What time t's factors read that differs between times: its indices."""
    return config.observations.obs_indices[t].tobytes()


def build_factors(config, partition, rho=1.0, times=None):
    """Factor every subdomain once per distinct observation pattern.

    `times` defaults to every observation time; run_mps asks for its own
    time only when it is given no table.
    """
    if times is None:
        times = range(len(config.observations.v))
    restrictions = build_restrictions(partition)
    by_pattern, plans = {}, {}
    for t in times:
        key = _pattern_key(config, t)
        if key not in by_pattern:
            config_t = dataclasses.replace(config, time_index=t)
            by_pattern[key] = sweep_plan(
                assemble_local_system(i, partition, restrictions, config_t,
                                      rho=rho).factor
                for i in range(partition.n_sub))
        plans[t] = by_pattern[key]
    v_norm = float(np.abs(config.covpair.V).sum(axis=1).max())
    return FactorTable(plans=plans, rho=float(rho), v_norm=v_norm)


def factor_table(config, partition, rho, factors=None, times=None):
    """`factors`, which must have been built for rho, or else a new table
    of config's problem for `times` (build_factors)."""
    if factors is None:
        return build_factors(config, partition, rho=rho, times=times)
    if factors.rho != rho:
        raise ValueError(f"factors were built for rho={factors.rho}, not {rho}")
    return factors


def local_cost(w_i, neighbor_w, system):
    """Local control-space cost whose stationarity the sweep enforces.

    Written out term by term (observation misfit, background, interface
    penalty) so finite differences can check local_grad independently of the
    assembled matrices.
    """
    f = system.factor
    val = 0.5 * f.lam * float(w_i @ w_i)
    obs = (f.V_loc @ w_i)[f.obs_loc] - system.d_loc
    val += 0.5 * f.rinv * float(obs @ obs)
    for j, w_j in neighbor_w.items():
        V_ij, V_ij_nb = f.interface_maps[j]
        diff = V_ij @ w_i - V_ij_nb @ w_j
        val += 0.5 * f.rho * float(diff @ diff)
    return val


def local_grad(w_i, neighbor_w, system):
    """Gradient of the local cost: A_loc w_i - c_loc + sum_j coupling[j] w_j."""
    g = system.A_loc @ w_i - system.c_loc
    for j, w_j in neighbor_w.items():
        g = g + system.coupling[j] @ w_j
    return g


def mps_sweep(iterate):
    """One Jacobi sweep: every local solve reads only iteration-n neighbor data.

    Block i solves A_loc w_i = c_loc - sum_j coupling[j] @ w_j^n with one
    LAPACK potrs call on its Cholesky factor, for every column at once; the
    products coupling[j] @ w_j^n come from iterate.products.  The sweep then
    forms each product at w^{n+1} once and reads it twice: in the
    stationarity residual at w^{n+1} here, and in the next sweep's right-hand
    side through the returned iterate, which keeps this one's patch rule.  A
    non-finite local solution raises VarSolverError naming its subdomain and
    time.
    """
    stacked = iterate.stacked
    plan = stacked.plan
    rhs = stacked.c.copy()
    for p in range(plan.depth):
        rhs -= iterate.products[..., p, :]
    x = np.empty(rhs.shape)
    for f, sl in zip(plan.factors, plan.slices):
        c, lower = f.chol
        # one column per right-hand side: each column gets its solo bits
        sol, info = _potrs(c, rhs[..., sl].T, lower=lower, overwrite_b=True)
        if info:
            raise VarSolverError(f"subdomain {f.i}: LAPACK potrs rejected "
                                 f"argument {-info}")
        x[..., sl] = sol.T
    # one NaN-propagating reduction per column over every block, unlike max()
    step = x - iterate.x
    residual = np.abs(step).max(axis=-1)
    if not np.isfinite(residual).all():
        raise VarSolverError(_nonfinite_message(step, stacked, iterate.n + 1))
    return _iterate_at(x, iterate.n + 1, residual, stacked, iterate.patch_rule)


def _nonfinite_message(step, stacked, n):
    """Name the first column, then its first subdomain, with a non-finite step."""
    bad = np.logical_or.reduceat(~np.isfinite(np.atleast_2d(step)),
                                 stacked.plan.starts, axis=-1)
    col = int(np.flatnonzero(bad.any(axis=-1))[0])
    i = int(np.flatnonzero(bad[col])[0])
    cause = ("its right-hand side c_loc is not finite"
             if not np.isfinite(np.atleast_2d(stacked.c)[
                 col, stacked.plan.slices[i]]).all()
             else "the iteration overflowed")
    return (f"subdomain {i}: Schwarz sweep {n} at time "
            f"{np.atleast_1d(stacked.t)[col]} gave a non-finite local solution "
            f"({cause})")


def _iterate_at(x, n, residual, stacked, patch_rule):
    """The stacked iterate x with its coupling products and stationarity
    residual.

    Subdomain i's residual is A_loc w_i - c_loc + sum_j coupling[j] @ w_j,
    summed in coupling order, relative to 1 + max|c_loc|; each column takes
    the worst block.
    """
    plan = stacked.plan
    products = plan.coupling_products(x)
    g = plan.apply_A(x)
    g -= stacked.c
    for p in range(plan.depth):
        g += products[..., p, :]
    r = np.maximum.reduceat(np.abs(g), plan.starts, axis=-1)
    return SchwarzIterate(x=x, n=n, residual=residual,
                          abs_residual=r.max(axis=-1),
                          eq_residual=(r / stacked.scale).max(axis=-1),
                          products=products, stacked=stacked,
                          patch_rule=patch_rule)


def _patch_rule(rule):
    """rule, if it names a patch rule."""
    if rule not in ("owner", "average"):
        raise ValueError(f"unknown patch rule {rule!r}")
    return rule


def _patch(stacked, x, rule):
    """Map the stacked controls x back to states, u_i = u_b_i + V_i w_i, and
    patch them into one global state by `rule`."""
    plan = stacked.plan
    n_grid = plan.factors[0].n_grid
    local = [(f, stacked.u_b[..., sl] + _mv(f.V_loc, x[..., sl]))
             for f, sl in zip(plan.factors, plan.slices)]
    if _patch_rule(rule) == "average":
        out = np.zeros(x.shape[:-1] + (n_grid,))
        count = np.zeros(n_grid)
        for f, u_i in local:
            out[..., f.indices] += u_i
            count[f.indices] += 1.0
        return out / count
    out = np.empty(x.shape[:-1] + (n_grid,))
    for f, u_i in local:
        out[..., f.indices[f.own_mask]] = u_i[..., f.own_mask]
    return out


def dap_residual(w, systems):
    """Largest relative residual of the local stationarity systems at w,
    whose blocks follow the order of systems."""
    stacked = stack_systems(systems)
    x = np.empty(stacked.c.shape)
    for s, w_k in zip(systems, w):
        x[..., stacked.plan.slices[s.i]] = w_k
    return _iterate_at(x, 0, np.inf, stacked, "owner").eq_residual


def initial_iterate(systems, patch_rule="owner"):
    """Start at the background: w = 0."""
    return _start(stack_systems(systems), patch_rule)


def _start(stacked, patch_rule):
    x = np.zeros(stacked.c.shape)
    return _iterate_at(x, 0, np.full(x.shape[:-1], np.inf)[()], stacked,
                       _patch_rule(patch_rule))


def recover_and_patch(iterate, rule="owner"):
    """Map the iterate's local controls back to states, u_i = u_b_i + V_i w_i,
    and patch them.

    rule="owner" assigns overlap points to the lowest-index subdomain;
    rule="average" arithmetically averages every subdomain covering a point.
    """
    return _patch(iterate.stacked, iterate.x, rule)


def run_mps(config, partition, tol, max_iters, rho=1.0, patch_rule="owner",
            factors=None):
    """Iterate Jacobi sweeps until the iterate difference or the local
    stationarity residual drops below tol.

    `factors` is a FactorTable built for this config's problem, partition
    and rho (a table built for another rho is rejected); without one the
    local systems of config.time_index are assembled here.  Non-convergence
    within max_iters is reported through the returned history, not raised.
    history.eps_mps = ||V||_inf |r| / lam maps the final worst local residual
    r to state space, since A_loc >= lam I bounds the control error by
    |r| / lam up to conditioning.  This is the batch of one of run_mps_batch.
    """
    factors = factor_table(config, partition, rho, factors,
                           times=(config.time_index,))
    [(_, final, (history,))] = _sweep_groups(
        config, [config.u0], [config.time_index], factors, tol, max_iters,
        patch_rule)
    return final.take(0), history


def run_mps_batch(config, backgrounds, times, factors, tol, max_iters,
                  patch_rule="owner"):
    """run_mps for several backgrounds of config's problem at once.

    Column c solves the single-time problem of time times[c] around the
    background backgrounds[c]; config's own u0 and time_index are not read,
    and the times share one observation pattern of the FactorTable
    `factors` (FactorTable.batch).  A column leaves the batch at the sweep
    where its own iterate difference or stationarity residual drops below
    tol; the rest sweep on with their products compacted.  Returns the
    patched states, one row per column, and one MpsHistory per column; each
    is bitwise that of the column solved alone, so the bytes do not depend
    on how solves are batched.
    """
    states = np.empty((len(times), config.covpair.V.shape[0]))
    histories = [None] * len(times)
    for cols, iterate, hists in _sweep_groups(config, backgrounds, times,
                                              factors, tol, max_iters,
                                              patch_rule):
        states[cols] = iterate.patched
        for c, h in zip(cols.tolist(), hists):
            histories[c] = h
    return states, histories


def _sweep_groups(config, backgrounds, times, factors, tol, max_iters,
                  patch_rule):
    """Sweep a batch until every column stops; one (columns, iterate,
    histories) per group of columns that stop at the same sweep.

    A column stops when its iterate difference or stationarity residual
    drops below tol, or after max_iters sweeps; the group's iterate is the
    one it stopped at, and its histories are read off that iterate.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    # Non-finite values are caught by value, not by a floating-point warning.
    with np.errstate(over="ignore", invalid="ignore"):
        iterate = _start(stack_systems(
            factors.batch(config.observations, backgrounds, times),
            factors.plans[times[0]]), patch_rule)
        cols = np.arange(len(times))       # batch column of each active row
        groups = []
        for _ in range(max_iters):
            iterate = mps_sweep(iterate)
            done = (iterate.residual <= tol) | (iterate.eq_residual <= tol)
            if done.all():
                break
            if done.any():
                groups.append((cols[done], iterate.take(done)))
                cols, iterate = cols[~done], iterate.take(~done)
        groups.append((cols, iterate))

    lam = max(config.lam, np.finfo(float).tiny)
    out = []
    for cols, it in groups:
        # with no sweep run, no column has converged
        hists = [MpsHistory(n_sweeps=it.n, residual=r, eq_residual=e,
                            converged=it.n > 0 and (r <= tol or e <= tol),
                            eps_mps=factors.v_norm * a / lam)
                 for r, e, a in zip(it.residual.tolist(),
                                    it.eq_residual.tolist(),
                                    it.abs_residual.tolist())]
        out.append((cols, it, hists))
    return out
