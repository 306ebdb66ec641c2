"""The parallel-in-time outer iteration and its finite-step exactness.

Iteration 0 is a cheap coarse propagation of the background.  Each later
iteration assimilates every slab's observations concurrently, then recombines
the corrections sequentially.  After as many iterations as there are slabs the
trajectory coincides with the serial slab-by-slab solution; in practice the
iterate differences shrink long before that.
"""

import numpy as np

from pintda import harness, parareal

cfg = harness.ExperimentConfig()
vconfig, partition = harness.build_problem(cfg)
n_slabs = cfg.n_steps - 1

print("=== the serial fine chain (what we are converging to) ===")
reference, chain_hists = parareal.serial_fine_chain(vconfig, partition)
print(f"{n_slabs} slab solves, "
      f"{sum(h.n_sweeps for h in chain_hists)} inner CG steps total")

print()
print("=== outer iterations ===")
trajectory, hist = parareal.run_parareal(vconfig, partition, tol=1e-9,
                                         max_outer=8, reference=reference,
                                         workers=4)
print(f"stopped after n = {hist.n_outer} iterations ({hist.reason}); "
      f"the slab corrections of each iteration ran on 4 workers")
print()
print("error vs the serial chain, per iteration and slab:")
E = np.array(hist.E)
header = "  n\\k " + " ".join(f"{k:9d}" for k in range(E.shape[1]))
print(header)
for n in range(E.shape[0]):
    print(f"  {n:3d} " + " ".join(f"{e:9.2e}" for e in E[n]))
print()
print("the zero lower-triangle is finite-step exactness: after n iterations")
print("the first n slabs already carry the exact fine solution")

print()
print("=== iterate differences and correction factors ===")
for n, diff in enumerate(hist.iterate_diffs, start=1):
    dmax = max(hist.delta_norms[n - 1])
    print(f"  iteration {n}: max state change {diff:.2e}, "
          f"largest correction factor {dmax:.2e}")

print()
print("=== the initial state never moves ===")
pinned = all(np.array_equal(trajectory.u[n][0], vconfig.u0)
             for n in range(trajectory.n + 1))
print(f"u_0 identical at every iteration: {pinned}")
