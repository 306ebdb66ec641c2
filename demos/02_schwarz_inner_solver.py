"""The Schwarz-preconditioned CG inner solver against the direct oracle.

The single-time analysis solves A w = c in the control w (u = u_b + V w),
with A = lam I + S^T S / sigma_r^2 and S the observed rows of V.  The grid
is cut into overlapping blocks; the preconditioner solves each block's
A[I, I] and sums the results, and conjugate gradients does the rest.  Its
limit is the global 3D-Var analysis, so a correlated background, which
couples the blocks, costs iterations but leaves no bias; the direct oracle
is cheap at this scale, so the demo measures that.
"""

import dataclasses

import numpy as np

from pintda import dd_mps, harness, var_solver

cfg = harness.ExperimentConfig()
vconfig, _ = harness.build_problem(cfg)

print("=== the decomposition ===")
partition = dd_mps.partition_domain(cfg.np, n_sub=4, overlap=2)
for i, (idx, core) in enumerate(zip(partition.index_sets, partition.cores)):
    print(f"block {i}: indices {idx[0]}..{idx[-1]} (owns {core[0]}..{core[-1]})")

print()
print("=== CG steps to the analysis (uncorrelated B) ===")
direct = var_solver.solve_var_direct(vconfig, "threeD")
plan = dd_mps.build_factors(vconfig, partition)
iterate, hist = dd_mps.run_mps(plan, vconfig.u0, vconfig.time_index,
                               tol=1e-10, max_iters=50)
rel = np.abs(iterate.patched - direct.u_da).max() / np.abs(direct.u_da).max()
print(f"steps: {hist.n_sweeps}, converged: {hist.converged}")
print(f"relative error vs direct solve: {rel:.2e}")
print("A is diagonal here, and the overlap counts a point's block solve twice,")
print("so the preconditioned operator has two eigenvalues: CG needs two steps.")


def narrate(vc, part, tol):
    """Print each CG step's residuals and the global cost of its state."""
    plan = dd_mps.build_factors(vc, part)
    it = plan.bind([vc.u0], [vc.time_index]).take(0)
    while it.eq_residual > tol:
        it = dd_mps.mps_sweep(it)
        cost = var_solver.eval_cost(it.patched, vc, "threeD")
        print(f"  step {it.n:2d}: step size {it.residual:.2e}, "
              f"relative residual {it.eq_residual:.2e}, cost {cost:.6f}")
    return it


narrate(vconfig, partition, 1e-10)

print()
print("=== correlated background covariance ===")
print("correlations couple the blocks, so CG takes more steps, and still")
print("converges to the global analysis:")
for L in (0.5, 1.0, 2.0):
    vc, _ = harness.build_problem(dataclasses.replace(cfg, L=L))
    d = var_solver.solve_var_direct(vc, "threeD")
    plan = dd_mps.build_factors(vc, dd_mps.partition_domain(cfg.np, 2, 2))
    it, h = dd_mps.run_mps(plan, vc.u0, vc.time_index, tol=1e-12,
                           max_iters=200)
    gap = np.abs(it.patched - d.u_da).max() / np.abs(d.u_da).max()
    print(f"  L = {L}: steps {h.n_sweeps:3d}, gap to the oracle {gap:.2e}, "
          f"measured inner accuracy {h.eps_mps:.2e}")
print("(the oracle solves in the control too: at L = 2, where cond(B) is 6e7,")
print("an oracle that formed B^-1 was 1.2e-10 from the analysis)")

print()
print("=== the steps of one correlated solve (L = 2, 8 blocks) ===")
vc, _ = harness.build_problem(dataclasses.replace(
    cfg, L=2.0, np=64, nobs=16, lam=0.05))
narrate(vc, dd_mps.partition_domain(64, 8, 4), 1e-10)
