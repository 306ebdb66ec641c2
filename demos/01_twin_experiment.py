"""Build a twin experiment from scratch and poke at its parts.

A twin experiment manufactures its own reality: pick a true initial state,
propagate it with the discrete model, observe it at a few grid points with
seeded noise, then pretend we only know a perturbed background.  Every error
is computable afterwards, which is what makes the solver diagnostics in the
other demos possible.
"""

import numpy as np

from pintda import (assemble_G, build_covariance, build_model_instance,
                    build_observations)

rng = np.random.default_rng(7)

print("=== the forecast model ===")
inst = build_model_instance(n_grid=32, n_steps=8, T=1.0, velocity=1.0,
                            diffusivity=0.05)
print(f"grid points: {inst.np}, time points: {inst.n_steps}, step h = {inst.h:.4f}")
print(f"||M||_inf = {np.abs(inst.M).sum(axis=1).max():.12f}  "
      "(implicit upwinding keeps it at 1: the model only dissipates)")

u = np.sin(2 * np.pi * np.arange(32) / 32)
for k in range(1, 8):
    u = inst.M @ u
    if k in (1, 4, 7):
        amp = np.abs(u).max()
        print(f"  after {k} steps the sine wave amplitude is {amp:.4f}")

print()
print("=== error statistics ===")
for L in (0.0, 2.0):
    cov = build_covariance(32, sigma_b=0.5, sigma_r=0.05, L=L)
    offdiag = np.abs(cov.B - np.diag(np.diag(cov.B))).max()
    print(f"L = {L}: largest off-diagonal of B = {offdiag:.3e}, "
          f"factorization error ||VV^T - B|| = {np.abs(cov.V @ cov.V.T - cov.B).max():.2e}")

print()
print("=== observations of a known truth ===")
cov = build_covariance(32, sigma_b=0.5, sigma_r=0.05, L=0.0)
u_truth = np.sin(2 * np.pi * np.arange(32) / 32) + 0.1 * rng.standard_normal(32)
obs_idx = (np.arange(8) * 32) // 8
obs = build_observations(inst, cov, obs_idx, u_truth, seed=2025)
again = build_observations(inst, cov, obs_idx, u_truth, seed=2025)
print(f"observing at grid indices {obs_idx.tolist()}")
print(f"same seed twice gives bitwise-identical data: "
      f"{all(np.array_equal(a, b) for a, b in zip(obs.v, again.v))}")

clean = build_observations(inst, cov, obs_idx, u_truth, seed=2025, noise=False)
noise_scale = max(np.abs(a - b).max() for a, b in zip(obs.v, clean.v))
print(f"largest injected noise value: {noise_scale:.4f} (sigma_r = 0.05)")

print()
print("=== the space-time observation operator ===")
G = assemble_G(obs, inst)
rows, cols = sum(b.shape[0] for b in G), sum(b.shape[1] for b in G)
print(f"G is {rows} x {cols} and block diagonal, so only its {len(G)} diagonal "
      f"blocks are kept, each {G[0].shape[0]} x {G[0].shape[1]}")
print("block 0 is the plain selection, later blocks fold in one model step: "
      f"nonzeros per block {[int(np.count_nonzero(b)) for b in G]}")
