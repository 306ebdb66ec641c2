"""Acceptance suite: every criterion prints one pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they pass;
each criterion is pinned to the tolerance it must meet.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from pintda import analysis, dd_mps, harness, parareal, var_solver


def check(num, description, ok):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {description}",
          flush=True)
    assert ok, f"criterion {num} failed: {description}"


@pytest.fixture(scope="module")
def bench_result(bench_config):
    return harness.run_experiment(bench_config)


class TestAcceptance:
    def test_01_oracle_equivalence_three_d(self, bench_problem):
        vconfig, _ = bench_problem
        t0 = time.perf_counter()
        direct = var_solver.solve_var_direct(vconfig, "threeD")
        worst = 0.0
        for n_sub in (2, 4):
            partition = dd_mps.partition_domain(32, n_sub, 2)
            iterate, hist = dd_mps.run_mps(
                dd_mps.build_factors(vconfig, partition), vconfig.u0,
                vconfig.time_index, tol=1e-10, max_iters=50)
            assert hist.converged
            rel = np.abs(iterate.patched - direct.u_da).max() \
                / np.abs(direct.u_da).max()
            worst = max(worst, rel)
        elapsed = time.perf_counter() - t0
        check(1, f"run_mps matches direct solve, rel err {worst:.2e} <= 1e-6, "
                 f"{elapsed:.2f}s < 5s", worst <= 1e-6 and elapsed < 5.0)

    def test_02_degenerate_exactness(self, bench_problem):
        vconfig, _ = bench_problem
        partition1 = dd_mps.partition_domain(32, 1, 0)
        iterate, _ = dd_mps.run_mps(dd_mps.build_factors(vconfig, partition1),
                                    vconfig.u0, vconfig.time_index, tol=1e-12,
                                    max_iters=20)
        direct = var_solver.solve_var_direct(vconfig, "threeD")
        rel = np.abs(iterate.patched - direct.u_da).max() / np.abs(direct.u_da).max()

        cfg1 = dataclasses.replace(harness.ExperimentConfig(), n_steps=2)
        vc1, part1 = harness.build_problem(cfg1)
        plan1 = dd_mps.build_factors(vc1, part1)
        traj, hist, _ = parareal.run_parareal(vc1, plan1, tol=1e-12,
                                              max_outer=5)
        fine = dd_mps.run_mps(plan1, vc1.instance.M @ vc1.u0, 1, 1e-10,
                              100)[0].patched
        single = hist.n_outer == 1 and np.array_equal(traj.u[1][1], fine)
        check(2, f"n_sub=1 rel err {rel:.2e} <= 1e-10; single-slab run is one "
                 f"local solve", rel <= 1e-10 and single)

    def test_03_finite_step_exactness(self, bench_problem):
        vconfig, partition = bench_problem
        reference, _ = parareal.serial_fine_chain(vconfig, partition)
        traj, _, _ = parareal.run_parareal(
            vconfig, dd_mps.build_factors(vconfig, partition), tol=1e-300,
            max_outer=vconfig.instance.n_steps)
        scale = max(np.abs(r).max() for r in reference)
        worst = max(np.abs(traj.u[traj.n][k] - reference[k]).max()
                    for k in range(len(reference))) / scale
        check(3, f"trajectory equals serial fine chain after n=N iterations, "
                 f"rel err {worst:.2e} <= 1e-10", worst <= 1e-10)

    def test_04_proposition_bound_holds(self, bench_result):
        rows = bench_result.records
        worst_margin = min(rec.c_n - rec.E_kn for rec in rows)
        ok = all(rec.E_kn <= rec.c_n for rec in rows)
        check(4, f"E_kn <= c_n on all {len(rows)} recorded (k, n), smallest "
                 f"margin {worst_margin:.2e}", ok)

    def test_05_gronwall_soundness(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(99)
        ok = True
        for _ in range(1000):
            N = int(rng.integers(1, 10))
            R = float(rng.uniform(0.01, 1.2))
            H = float(rng.uniform(0.0, 1.0))
            m = float(rng.uniform(0.0, 2.0))
            bound = analysis.gronwall_bound(m, R, H, N)
            for _ in range(N):
                m = float(rng.uniform(0.0, 1.0)) * ((1.0 + R) * m + H)
                ok = ok and m <= bound + 1e-12
        elapsed = time.perf_counter() - t0
        check(5, f"1000 randomized recurrences stay under the bound in "
                 f"{elapsed:.2f}s < 1s", ok and elapsed < 1.0)

    def test_06_remark_prefactor_limit(self):
        value = analysis.gronwall_prefactor(3, -1.0 + 1e-6)
        target = 1.0 - math.exp(-3.0)
        check(6, f"prefactor at R=-1+1e-6, N=3 is {value:.6f} vs "
                 f"{target:.6f} within 1e-4", abs(value - target) <= 1e-4)

    def test_07_gradient_correctness(self, correlated_problem):
        _, vconfig, partition = correlated_problem
        rng = np.random.default_rng(17)
        n = vconfig.instance.np

        def fd_ok(cost, grad, size):
            for _ in range(20):
                u = rng.standard_normal(size)
                g = grad(u)
                fd = np.empty(size)
                for i in range(size):
                    e = np.zeros(size)
                    e[i] = 1e-6
                    fd[i] = (cost(u + e) - cost(u - e)) / 2e-6
                if np.max(np.abs(g - fd)) > 1e-6 * (1 + np.max(np.abs(g))):
                    return False
            return True

        ok = fd_ok(lambda u: var_solver.eval_cost(u, vconfig, "threeD"),
                   lambda u: var_solver.eval_grad(u, vconfig, "threeD"), n)
        ok &= fd_ok(lambda u: var_solver.eval_cost(u, vconfig, "fourD"),
                    lambda u: var_solver.eval_grad(u, vconfig, "fourD"),
                    n * vconfig.instance.n_steps)

        # the fine solve's control cost, term by term, against the gradient
        # A w - c that its CG iterates on
        t = vconfig.time_index
        obs = vconfig.observations.obs
        d = vconfig.observations.v[t] - vconfig.u0[obs]
        S = vconfig.covpair.V[obs]

        def control_cost(w):
            misfit = S @ w - d
            return (0.5 * vconfig.lam * float(w @ w)
                    + 0.5 * float(misfit @ misfit) / vconfig.covpair.sigma_r**2)

        batch = dd_mps.build_factors(vconfig, partition).bind([vconfig.u0],
                                                              [t])
        ok &= fd_ok(control_cost,
                    lambda w: batch.plan.apply_A(w[None])[0] - batch.c[0], n)
        check(7, "analytic gradients of the global costs and the fine solve's "
                 "control cost match central differences to 1e-6 on 20 random "
                 "points each", ok)

    def test_08_structural_checks(self, bench_problem):
        vconfig, partition = bench_problem
        cov = vconfig.covpair
        ok_fact = np.abs(cov.V @ cov.V.T - cov.B).max() <= 1e-12 * np.abs(cov.B).max()

        ok_spd = True
        for f in (dd_mps.assemble_local_system(i, partition, vconfig)
                  for i in range(partition.n_sub)):
            sym = np.abs(f.A_loc - f.A_loc.T).max() == 0.0
            spd = np.linalg.eigvalsh(f.A_loc).min() > 0
            ok_spd = ok_spd and sym and spd

        ok_sel = True
        for idx in partition.index_sets:
            R = np.eye(vconfig.instance.np)[idx]
            ok_sel = ok_sel and np.array_equal(R @ R.T, np.eye(R.shape[0]))
        check(8, "B = V V^T to 1e-12, local systems symmetric positive "
                 "definite, selection rows orthonormal", ok_fact and ok_spd and ok_sel)

    def test_09_determinism_under_parallelism(self, bench_config, tmp_path):
        blobs = {}
        for workers in (1, 2, 8):
            cfg = dataclasses.replace(bench_config, workers=workers)
            result = harness.run_experiment(cfg)
            path = tmp_path / f"report_w{workers}.csv"
            harness.emit_report(result.records, "csv", str(path))
            blobs[workers] = path.read_bytes()
        ok = blobs[1] == blobs[2] == blobs[8]
        check(9, "workers in {1, 2, 8} emit byte-identical reports", ok)

    def test_10_roundoff_report(self, bench_result):
        rows = bench_result.records
        ok_sum = all(rec.roundoff_total
                     == rec.roundoff_t1 + rec.roundoff_t2 + rec.roundoff_t3
                     for rec in rows)
        seq = analysis.prefactor_sequence(50, R=-1.0)
        ok_mono = bool(np.all(np.diff(seq) >= 0)) \
            and abs(seq[-1] - 1.0) <= 1e-12
        check(10, "three round-off terms emitted and sum to the total; "
                  "prefactor over N=1..50 climbs monotonically to 1",
              ok_sum and ok_mono)
