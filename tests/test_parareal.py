import dataclasses

import numpy as np

from pintda import dd_mps, harness, var_solver
from pintda.parareal import (fine_solve, initial_trajectory, parareal_update,
                             run_parareal, serial_fine_chain)


def no_observation_config(vconfig):
    """Strip every observation batch; assimilation then returns backgrounds."""
    n = vconfig.instance.np
    n_steps = vconfig.instance.n_steps
    empty = dataclasses.replace(
        vconfig.observations, nobs=0,
        obs_indices=tuple(np.empty(0, dtype=int) for _ in range(n_steps)),
        H=tuple(np.zeros((0, n)) for _ in range(n_steps)),
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
        traj, _ = parareal_update(traj, vempty, partition)
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
        traj = initial_trajectory(vconfig)
        for _ in range(vconfig.instance.n_steps - 1):
            traj, _ = parareal_update(traj, vconfig, partition)
        scale = max(np.abs(r).max() for r in reference)
        for k, ref_k in enumerate(reference):
            assert np.abs(traj.u[traj.n][k] - ref_k).max() <= 1e-10 * scale

    def test_delta_replay_is_bitwise(self, bench_problem):
        vconfig, partition = bench_problem
        traj = initial_trajectory(vconfig)
        traj, _ = parareal_update(traj, vconfig, partition)
        traj, _ = parareal_update(traj, vconfig, partition)
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
        t1, _ = run_parareal(vconfig, partition, tol=1e-9, max_outer=8, pmap=None)
        t4, _ = run_parareal(vconfig, partition, tol=1e-9, max_outer=8,
                             pmap=harness.make_pmap(4))
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
