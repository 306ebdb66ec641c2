import dataclasses

import numpy as np
import pytest

from pintda import dd_mps, harness, parareal, testbed, var_solver
from pintda.parareal import (FineRecords, fine_solve, initial_trajectory,
                             parareal_update, run_parareal, serial_fine_chain)


def no_observation_config(vconfig):
    """Strip every observation batch; assimilation then returns backgrounds."""
    n_steps = vconfig.instance.n_steps
    empty = dataclasses.replace(
        vconfig.observations, nobs=0,
        obs_indices=tuple(np.empty(0, dtype=int) for _ in range(n_steps)),
        v=tuple(np.zeros(0) for _ in range(n_steps)))
    return dataclasses.replace(vconfig, observations=empty)


class TestCoarseSweep:
    def test_identity_model_keeps_initial_state(self):
        cfg = dataclasses.replace(harness.ExperimentConfig(), np=8, n_steps=4,
                                  nobs=2, velocity=0.0, diffusivity=0.0)
        vconfig, _ = harness.build_problem(cfg)
        backgrounds = initial_trajectory(vconfig).background[0]
        for b in backgrounds:
            np.testing.assert_array_equal(b, vconfig.u0)

    def test_backgrounds_are_repeated_propagation(self):
        cfg = dataclasses.replace(harness.ExperimentConfig(), np=8, n_steps=4,
                                  nobs=2, n_sub=1, overlap=0)
        vconfig, _ = harness.build_problem(cfg)
        M = vconfig.instance.M
        backgrounds = initial_trajectory(vconfig).background[0]
        expected = vconfig.u0.copy()
        for k in range(1, 4):
            expected = M @ expected   # repeated multiplication oracle
            np.testing.assert_allclose(backgrounds[k], expected, rtol=1e-13)

    def test_initial_point_pinned_at_every_level(self, bench_problem):
        vconfig, partition = bench_problem
        traj, _ = run_parareal(vconfig, partition, tol=1e-9, max_outer=3)
        for n in range(traj.n + 1):
            np.testing.assert_array_equal(traj.u[n][0], vconfig.u0)
            np.testing.assert_array_equal(traj.background[n][0], vconfig.u0)


class TestLocalDaSolve:
    def test_no_observations_returns_background(self, bench_problem):
        vconfig, partition = bench_problem
        vempty = no_observation_config(vconfig)
        background = initial_trajectory(vempty).background[0][2]
        analysis, hist = fine_solve(2, background, vempty, partition, 1e-10,
                                    100, rho=3.7)
        np.testing.assert_array_equal(analysis, background)
        assert hist.converged

    def test_single_block_matches_direct_slab_solve(self, bench_problem):
        vconfig, _ = bench_problem
        partition1 = dd_mps.partition_domain(vconfig.instance.np, 1, 0)
        background = initial_trajectory(vconfig).background[0][3]
        analysis, _ = fine_solve(3, background, vconfig, partition1, 1e-10,
                                 100, rho=1.0)
        slab_cfg = dataclasses.replace(vconfig, u0=background, time_index=3)
        direct = var_solver.solve_var_direct(slab_cfg, "threeD")
        np.testing.assert_allclose(analysis, direct.u_da, atol=1e-8)


class TestPararealUpdate:
    def test_pure_propagation_has_zero_correction(self, bench_problem):
        vconfig, partition = bench_problem
        vempty = no_observation_config(vconfig)
        traj = initial_trajectory(vempty)
        traj, _ = parareal_update(traj, vempty,
                                  dd_mps.build_factors(vempty, partition))
        M = vconfig.instance.M
        serial = [vempty.u0]
        for _ in range(1, vconfig.instance.n_steps):
            serial.append(M @ serial[-1])
        for k in range(1, vconfig.instance.n_steps):
            np.testing.assert_array_equal(traj.delta[0][k],
                                          np.zeros(vconfig.instance.np))
            np.testing.assert_allclose(traj.u[1][k], serial[k], rtol=1e-13)

    def test_reaches_serial_chain_after_slab_count_iterations(self, bench_problem):
        vconfig, partition = bench_problem
        reference, _ = serial_fine_chain(vconfig, partition)
        factors = dd_mps.build_factors(vconfig, partition)
        traj = initial_trajectory(vconfig)
        for _ in range(vconfig.instance.n_steps - 1):
            traj, _ = parareal_update(traj, vconfig, factors)
        scale = max(np.abs(r).max() for r in reference)
        for k, ref_k in enumerate(reference):
            assert np.abs(traj.u[traj.n][k] - ref_k).max() <= 1e-10 * scale

    def test_delta_replay_is_bitwise(self, bench_problem):
        vconfig, partition = bench_problem
        factors = dd_mps.build_factors(vconfig, partition)
        traj = initial_trajectory(vconfig)
        traj, _ = parareal_update(traj, vconfig, factors)
        traj, _ = parareal_update(traj, vconfig, factors)
        M = vconfig.instance.M
        for n in range(2):
            for k in range(1, vconfig.instance.n_steps):
                fine = traj.delta[n][k] + traj.background[n][k]
                replay = fine - M @ traj.u[n][k - 1]
                np.testing.assert_array_equal(traj.delta[n][k], replay)

    def test_update_consistency_with_backgrounds(self, bench_problem):
        # u^{n+1} - b^{n+1} equals the stored correction factor
        vconfig, partition = bench_problem
        traj, _ = run_parareal(vconfig, partition, tol=1e-9, max_outer=4)
        for n in range(1, traj.n + 1):
            for k in range(1, vconfig.instance.n_steps):
                np.testing.assert_allclose(
                    traj.u[n][k] - traj.background[n][k],
                    traj.delta[n - 1][k], atol=1e-12)


class TestRunParareal:
    def test_single_slab_terminates_first_iteration(self):
        cfg = dataclasses.replace(harness.ExperimentConfig(), n_steps=2,
                                  max_outer=5)
        vconfig, partition = harness.build_problem(cfg)
        traj, hist = run_parareal(vconfig, partition, tol=1e-12, max_outer=5)
        assert hist.converged
        assert hist.n_outer == 1
        fine, _ = fine_solve(1, vconfig.instance.M @ vconfig.u0, vconfig,
                             partition, 1e-10, 100, rho=1.0)
        np.testing.assert_array_equal(traj.u[1][1], fine)

    def test_benchmark_converges_within_slab_count(self, bench_problem):
        vconfig, partition = bench_problem
        traj, hist = run_parareal(vconfig, partition, tol=1e-9, max_outer=8)
        assert hist.converged
        assert hist.n_outer <= vconfig.instance.n_steps
        # measured on the benchmark problem, frozen as a regression value
        assert hist.n_outer == 7
        assert hist.reason == "exact"

    def test_huge_tolerance_stops_after_one_iteration(self, bench_problem):
        vconfig, partition = bench_problem
        _, hist = run_parareal(vconfig, partition, tol=1e9, max_outer=8)
        assert hist.converged
        assert hist.reason == "tol"
        assert hist.n_outer == 1

    def test_non_convergence_reported(self, bench_problem):
        vconfig, partition = bench_problem
        _, hist = run_parareal(vconfig, partition, tol=1e-14, max_outer=2)
        assert not hist.converged
        assert hist.reason == "max_outer"
        assert hist.n_outer == 2

    def test_finite_step_exactness_level_by_level(self, bench_problem):
        vconfig, partition = bench_problem
        reference, _ = serial_fine_chain(vconfig, partition)
        traj, _ = run_parareal(vconfig, partition, tol=1e-300, max_outer=8)
        scale = max(np.abs(r).max() for r in reference)
        for n in range(traj.n + 1):
            for k in range(min(n, len(reference) - 1) + 1):
                err = np.abs(traj.u[n][k] - reference[k]).max()
                assert err <= 1e-10 * scale

    def test_worker_count_does_not_change_results(self, bench_problem):
        vconfig, partition = bench_problem
        t1, _ = run_parareal(vconfig, partition, tol=1e-9, max_outer=8)
        t4, _ = run_parareal(vconfig, partition, tol=1e-9, max_outer=8,
                             workers=4)
        assert t1.n == t4.n
        for n in range(t1.n + 1):
            for k in range(vconfig.instance.n_steps):
                np.testing.assert_array_equal(t1.u[n][k], t4.u[n][k])

    def test_error_history_against_reference(self, bench_problem):
        vconfig, partition = bench_problem
        reference, _ = serial_fine_chain(vconfig, partition)
        _, hist = run_parareal(vconfig, partition, tol=1e-9, max_outer=8,
                               reference=reference)
        E = np.array(hist.E)
        assert E.shape[0] == hist.n_outer + 1
        # errors vanish on the exact leading slabs and shrink overall
        for n in range(E.shape[0]):
            assert E[n, :min(n, E.shape[1] - 1) + 1].max() <= 1e-10
        assert E[-1].max() < E[1].max()


def textbook_parareal(vconfig, partition, n_outer, tol_mps, max_sweeps):
    """Brute-force oracle: fine-solve every slab at every iteration."""
    M = vconfig.instance.M
    level = initial_trajectory(vconfig).u[0]
    u, background, delta, hists = [level], [level], [], []
    for n in range(n_outer):
        solves = [fine_solve(k, background[n][k], vconfig, partition, tol_mps,
                             max_sweeps) for k in range(1, len(level))]
        delta.append([None] + [fine - b for (fine, _), b
                               in zip(solves, background[n][1:])])
        hists.append([h for _, h in solves])
        u_next, b_next = [level[0]], [level[0]]
        for k in range(1, len(level)):
            b_next.append(M @ u_next[k - 1])
            u_next.append(b_next[k] + delta[n][k])
        u.append(u_next)
        background.append(b_next)
    return u, background, delta, hists


def reuse_run(vconfig, partition, tol_mps=1e-10, max_sweeps=100, workers=1):
    reference, chain_hists = serial_fine_chain(
        vconfig, partition, tol_mps=tol_mps, max_sweeps=max_sweeps)
    return run_parareal(vconfig, partition, tol=1e-300,
                        max_outer=vconfig.instance.n_steps, tol_mps=tol_mps,
                        max_sweeps=max_sweeps, workers=workers,
                        reference=reference, reference_histories=chain_hists)


class TestFineSolveReuse:
    @pytest.mark.parametrize("which", ["bench", "correlated"])
    def test_matches_textbook_iteration_bitwise(self, which, bench_problem,
                                                correlated_problem):
        if which == "bench":
            (vconfig, partition), settings = bench_problem, (1e-10, 100)
        else:
            cfg, vconfig, partition = correlated_problem
            settings = (cfg.tol_mps, cfg.max_sweeps)
        traj, hist = reuse_run(vconfig, partition, *settings)
        u, background, delta, hists = textbook_parareal(
            vconfig, partition, traj.n, *settings)
        for n in range(traj.n + 1):
            for k in range(vconfig.instance.n_steps):
                assert traj.u[n][k].tobytes() == u[n][k].tobytes()
                assert traj.background[n][k].tobytes() == background[n][k].tobytes()
        for n in range(traj.n):
            for k in range(1, vconfig.instance.n_steps):
                assert traj.delta[n][k].tobytes() == delta[n][k].tobytes()
            for got, want in zip(hist.mps[n], hists[n], strict=True):
                # all five final values, floats compared exactly
                assert got == want

    def test_iteration_n_solves_only_the_inexact_slabs(self, bench_problem):
        vconfig, partition = bench_problem
        traj, hist = reuse_run(vconfig, partition)
        n_slabs = vconfig.instance.n_steps - 1
        assert hist.n_outer == n_slabs
        for n, solved in enumerate(hist.solved, start=1):
            assert len(solved) <= n_slabs - n + 1
            assert solved == list(range(n + 1, n_slabs + 1))
        assert sum(map(len, hist.solved)) == 21

    def test_without_chain_records_reuses_only_unchanged_backgrounds(
            self, bench_problem):
        vconfig, partition = bench_problem
        _, hist = run_parareal(vconfig, partition, tol=1e-300, max_outer=8)
        n_slabs = vconfig.instance.n_steps - 1
        for n, solved in enumerate(hist.solved, start=1):
            assert solved == list(range(n, n_slabs + 1))

    def test_pooled_solves_give_the_same_bytes(self, bench_problem):
        vconfig, partition = bench_problem
        t1, h1 = reuse_run(vconfig, partition)
        t4, h4 = reuse_run(vconfig, partition, workers=4)
        assert h1.solved == h4.solved
        for n in range(t1.n + 1):
            for k in range(vconfig.instance.n_steps):
                assert t1.u[n][k].tobytes() == t4.u[n][k].tobytes()
        for n in range(t1.n):
            for k in range(1, vconfig.instance.n_steps):
                assert t1.delta[n][k].tobytes() == t4.delta[n][k].tobytes()

    def test_reused_slab_shares_delta_and_history(self, bench_problem):
        vconfig, partition = bench_problem
        traj, hist = reuse_run(vconfig, partition)
        # slab 1 is never re-solved: every iteration carries the chain's answer
        for n in range(1, traj.n):
            assert traj.delta[n][1] is traj.delta[0][1]
            assert hist.mps[n][0] is hist.mps[0][0]

    def test_records_match_bytes_only(self):
        background = np.array([0.0, 1.0, -2.5])
        delta, history = np.ones(3), object()
        records = FineRecords(n_slabs=2)
        records.store(1, background, delta, history)
        assert records.find(1, background.copy()) == (delta, history)
        assert records.find(2, background) is None
        assert records.find(1, np.array([-0.0, 1.0, -2.5])) is None
        assert records.find(1, np.nextafter(background, 1.0)) is None
        assert records.solved == [1]

    def test_at_most_two_records_per_slab(self, bench_problem):
        vconfig, partition = bench_problem
        M = vconfig.instance.M
        reference, chain_hists = serial_fine_chain(vconfig, partition)
        records = FineRecords.from_chain(M, reference, chain_hists)
        chain_background = M @ reference[0]
        first, second = chain_background + 1.0, chain_background + 2.0
        records.store(1, first, np.zeros(3), None)
        records.store(1, second, np.zeros(3), None)
        assert records.find(1, chain_background) is not None
        assert records.find(1, second) is not None
        assert records.find(1, first) is None

    def test_chain_histories_need_the_chain(self, bench_problem):
        vconfig, partition = bench_problem
        _, chain_hists = serial_fine_chain(vconfig, partition)
        with pytest.raises(ValueError, match="reference"):
            run_parareal(vconfig, partition, tol=1e-9, max_outer=2,
                         reference_histories=chain_hists)


def patterned_problem():
    """Seven slabs over three observation patterns: times 1, 2, 4 and 7
    share one, 3 and 5 another, and 6 has its own."""
    cfg = dataclasses.replace(harness.ExperimentConfig(), np=16, n_steps=8,
                              nobs=4, L=1.0, n_sub=3, overlap=2)
    vconfig, partition = harness.build_problem(cfg)
    a, b, c = [0, 5, 9, 13], [2, 6, 10, 14], [1, 3, 7, 15]
    obs = testbed.build_observations(vconfig.instance, vconfig.covpair,
                                     [a, a, a, b, a, b, c, a],
                                     vconfig.observations.u_truth, seed=3)
    vconfig = dataclasses.replace(
        vconfig, observations=obs, G=testbed.assemble_G(obs, vconfig.instance))
    return vconfig, partition


class TestBatchedFineSolves:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_patterns_match_textbook_iteration_bitwise(self, workers):
        vconfig, partition = patterned_problem()
        traj, hist = reuse_run(vconfig, partition, workers=workers)
        u, _, delta, hists = textbook_parareal(vconfig, partition, traj.n,
                                               1e-10, 100)
        for n in range(traj.n + 1):
            for k in range(vconfig.instance.n_steps):
                assert traj.u[n][k].tobytes() == u[n][k].tobytes()
        for n in range(traj.n):
            for k in range(1, vconfig.instance.n_steps):
                assert traj.delta[n][k].tobytes() == delta[n][k].tobytes()
            for got, want in zip(hist.mps[n], hists[n], strict=True):
                # all five final values, floats compared exactly
                assert got == want

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_batches_share_a_pattern_and_split_over_workers(self, monkeypatch,
                                                            workers):
        vconfig, partition = patterned_problem()
        factors = dd_mps.build_factors(vconfig, partition)
        batches = []

        def record(config, backgrounds, times, *args, **kwargs):
            batches.append(list(times))
            return dd_mps.run_mps_batch(config, backgrounds, times, *args,
                                        **kwargs)

        monkeypatch.setattr(parareal, "run_mps_batch", record)
        traj = initial_trajectory(vconfig)
        parareal_update(traj, vconfig, factors, workers=workers)
        assert sorted(k for ks in batches for k in ks) == list(range(1, 8))
        by_pattern = {}
        for ks in batches:
            assert len({id(factors.plans[k]) for k in ks}) == 1
            by_pattern.setdefault(id(factors.plans[ks[0]]), []).append(ks)
        for runs in by_pattern.values():
            assert len(runs) == min(workers, sum(map(len, runs)))
            # contiguous runs of the pattern's slabs, in order
            assert [k for ks in runs for k in ks] == \
                sorted(k for ks in runs for k in ks)

    def test_workers_do_not_change_long_run_reports(self):
        cfg = dataclasses.replace(harness.ExperimentConfig(), np=32,
                                  n_steps=40, n_sub=2, nobs=8, max_outer=39)
        runs = {w: harness.run_experiment(dataclasses.replace(cfg, workers=w))
                for w in (1, 2, 3, 8)}
        texts = {(harness.render_report(r.records, "csv"),
                  harness.render_report(r.records, "json"))
                 for r in runs.values()}
        assert len(texts) == 1
        summaries = [r.summary for r in runs.values()]
        assert all(s == summaries[0] for s in summaries)
