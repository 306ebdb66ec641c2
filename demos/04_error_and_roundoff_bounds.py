"""Feeding measured quantities into the convergence and round-off bounds.

Nothing here is proved symbolically: the Lipschitz constant, the Hessian
condition number, the inner-solver accuracy and the one-slab assimilation gap
are all measured on the benchmark run and fed into the geometric recurrence
that is supposed to dominate the outer-iteration error.  The same goes for
the three-term round-off bound, checked against the observed round-off: the
error of an exact replay of the recombination, carried in float64 from
residuals formed by error-free products.
"""

from pintda import analysis, harness

cfg = harness.ExperimentConfig()
result = harness.run_experiment(cfg)
s = result.summary

print("=== measured bound ingredients ===")
print(f"mu(A)      = {s['mu_A']:.4f}   (condition number of the space-time Hessian)")
print(f"C          = {s['C_const']:.4f}   (tightest Lipschitz constant on probes)")
print(f"R_mu       = {s['R_mu']:.4f}   ((C - mu) / mu, drives the Gronwall factor)")
print(f"C_h        = {s['C_h']:.4e} (one-slab assimilation gap, seeds c_1)")
print(f"eps_mps    = {s['eps_mps']:.4e} (inner-solver accuracy)")
print(f"error-magnitude form of C = {s['C_error_scale']:.4f}")
print(f"imported-identity check: mu(M) direct {s['chain']['mu_M_direct']:.4f} "
      f"vs chained {s['chain']['mu_M_chained']:.6f}")

print()
print("=== measured errors under the recurrence bound ===")
print("   n    max_k E_k^n        c_n   dominated?")
for n in range(1, s["n_outer"] + 1):
    rows = [rec for rec in result.records if rec.n == n]
    emax = max(rec.E_kn for rec in rows)
    cn = rows[0].c_n
    print(f"  {n:2d}    {emax:10.3e}  {cn:9.3e}   {emax <= cn}")

print()
print("=== round-off ===")
M = harness.build_problem(cfg)[0].instance.M
R_obs, rho_local = analysis.roundoff_proxies(result.trajectory, M)
print(f"largest observed recombination round-off: {R_obs.max():.2e}")
print(f"local one-update round-off proxy:         {rho_local:.2e}")
params = analysis.BoundParameters(C=s["C_const"], mu_A=s["mu_A"],
                                  eps_mps=s["eps_mps"], N=cfg.n_steps - 1,
                                  C_h=s["C_h"])
rb = analysis.roundoff_bound(params, R_prev=R_obs[-2:].max(), R0=0.0,
                             rho=rho_local)
print(f"three-term bound: initial {rb.term_initial:.2e} + iteration "
      f"{rb.term_iteration:.2e} + local {rb.term_rho:.2e} = {rb.total:.2e}")

seq = analysis.prefactor_sequence(50, R=-1.0)
print()
print("the Gronwall prefactor in the ill-conditioned regime (R = -1) climbs")
print("monotonically toward 1, so round-off is not amplified as slabs grow:")
print("  N = 1, 2, 5, 10, 50 ->",
      ", ".join(f"{seq[n - 1]:.6f}" for n in (1, 2, 5, 10, 50)))
