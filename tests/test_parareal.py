import dataclasses

import numpy as np
import pytest

from pintda import harness, parareal, var_solver
from pintda.dd_mps import build_factors, partition_domain, run_mps
from pintda.parareal import (PararealTrajectory, initial_trajectory,
                             parareal_update, run_parareal, serial_fine_chain)
from pintda.testbed import gemv_rows


def level_backgrounds(M, level):
    """Slab k's background M level[k-1] in row k, level[0] in row 0."""
    return np.vstack((level[:1], gemv_rows(M, level[:-1])))


def no_observation_config(vconfig):
    """Strip every observation batch; assimilation then returns backgrounds."""
    n_steps = vconfig.instance.n_steps
    empty = dataclasses.replace(
        vconfig.observations, obs=np.empty(0, dtype=int),
        v=np.zeros((n_steps, 0)))
    return dataclasses.replace(vconfig, observations=empty)


class TestCoarseSweep:
    def test_identity_model_keeps_initial_state(self):
        cfg = dataclasses.replace(harness.ExperimentConfig(), np=8, n_steps=4,
                                  nobs=2, velocity=0.0, diffusivity=0.0)
        vconfig, _ = harness.build_problem(cfg)
        backgrounds = level_backgrounds(vconfig.instance.M,
                                       initial_trajectory(vconfig).u[0])
        for b in backgrounds:
            np.testing.assert_array_equal(b, vconfig.u0)

    def test_backgrounds_are_repeated_propagation(self):
        cfg = dataclasses.replace(harness.ExperimentConfig(), np=8, n_steps=4,
                                  nobs=2, n_sub=1, overlap=0)
        vconfig, _ = harness.build_problem(cfg)
        M = vconfig.instance.M
        backgrounds = level_backgrounds(M, initial_trajectory(vconfig).u[0])
        expected = vconfig.u0.copy()
        for k in range(1, 4):
            expected = M @ expected   # repeated multiplication oracle
            np.testing.assert_allclose(backgrounds[k], expected, rtol=1e-13)

    def test_initial_point_pinned_at_every_level(self, bench_problem):
        vconfig, partition = bench_problem
        traj, _, _ = run_parareal(vconfig, build_factors(vconfig, partition),
                                  tol=1e-9, max_outer=3)
        for n in range(traj.n + 1):
            np.testing.assert_array_equal(traj.u[n][0], vconfig.u0)
            np.testing.assert_array_equal(
                level_backgrounds(vconfig.instance.M, traj.u[n])[0],
                vconfig.u0)


class TestFineBackgrounds:
    """A level's slab backgrounds M states[k-1], as one gemv_rows over its
    input rows, have the bits of the products M @ states[k-1]."""

    @pytest.mark.parametrize("n_points, n_grid", [
        (2, 2), (2, 9), (7, 2), (8, 32), (32, 256)])
    def test_rows_are_bitwise_the_per_row_products(self, n_points, n_grid):
        rng = np.random.default_rng([n_points, n_grid])
        M = rng.standard_normal((n_grid, n_grid))
        states = rng.standard_normal((n_points, n_grid))
        backgrounds = gemv_rows(M, states[:-1])
        assert backgrounds.shape == (n_points - 1, n_grid)
        assert backgrounds.flags.c_contiguous
        for k in range(1, n_points):
            assert (backgrounds[k - 1].tobytes()
                    == (M @ states[k - 1]).tobytes())

    def test_model_propagator_rows(self, bench_problem):
        vconfig, _ = bench_problem
        M, states = vconfig.instance.M, initial_trajectory(vconfig).u[0]
        # iteration 0 is the coarse sweep, so its backgrounds are its states
        assert gemv_rows(M, states[:-1]).tobytes() == states[1:].tobytes()

    def test_levels_keep_only_states_and_corrections(self):
        assert [f.name for f in dataclasses.fields(PararealTrajectory)] == [
            "u", "delta"]


class TestLocalDaSolve:
    def test_no_observations_returns_background(self, bench_problem):
        vconfig, partition = bench_problem
        vempty = no_observation_config(vconfig)
        background = level_backgrounds(vempty.instance.M,
                                      initial_trajectory(vempty).u[0])[2]
        it, hist = run_mps(build_factors(vempty, partition), background, 2,
                           1e-10, 100)
        np.testing.assert_array_equal(it.patched, background)
        assert hist.converged

    def test_single_block_matches_direct_slab_solve(self, bench_problem):
        vconfig, _ = bench_problem
        partition1 = partition_domain(vconfig.instance.np, 1, 0)
        background = level_backgrounds(vconfig.instance.M,
                                      initial_trajectory(vconfig).u[0])[3]
        it, _ = run_mps(build_factors(vconfig, partition1), background, 3,
                        1e-10, 100)
        slab_cfg = dataclasses.replace(vconfig, u0=background, time_index=3)
        direct = var_solver.solve_var_direct(slab_cfg, "threeD")
        np.testing.assert_allclose(it.patched, direct.u_da, atol=1e-8)


class TestPararealUpdate:
    def test_pure_propagation_has_zero_correction(self, bench_problem):
        vconfig, partition = bench_problem
        vempty = no_observation_config(vconfig)
        traj = initial_trajectory(vempty)
        traj, *_ = parareal_update(traj, traj.u[0], vempty,
                                   build_factors(vempty, partition), ())
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
        factors = build_factors(vconfig, partition)
        n_slabs = vconfig.instance.n_steps - 1
        traj = initial_trajectory(vconfig)
        backgrounds = traj.u[0]
        for _ in range(n_slabs):
            traj, backgrounds, *_ = parareal_update(traj, backgrounds, vconfig,
                                                    factors, ())
        scale = max(np.abs(r).max() for r in reference)
        for k, ref_k in enumerate(reference):
            assert np.abs(traj.u[traj.n][k] - ref_k).max() <= 1e-10 * scale

    def test_delta_replay_is_bitwise(self, bench_problem):
        vconfig, partition = bench_problem
        factors = build_factors(vconfig, partition)
        traj = initial_trajectory(vconfig)
        traj, backgrounds, *_ = parareal_update(traj, traj.u[0], vconfig,
                                                factors, ())
        traj, *_ = parareal_update(traj, backgrounds, vconfig, factors, ())
        M = vconfig.instance.M
        for n in range(2):
            for k in range(1, vconfig.instance.n_steps):
                fine = traj.delta[n][k] + level_backgrounds(M, traj.u[n])[k]
                replay = fine - M @ traj.u[n][k - 1]
                np.testing.assert_array_equal(traj.delta[n][k], replay)

    def test_update_consistency_with_backgrounds(self, bench_problem):
        # u^{n+1} - b^{n+1} equals the stored correction factor
        vconfig, partition = bench_problem
        traj, _, _ = run_parareal(vconfig, build_factors(vconfig, partition),
                                  tol=1e-9, max_outer=4)
        for n in range(1, traj.n + 1):
            backgrounds = level_backgrounds(vconfig.instance.M, traj.u[n])
            for k in range(1, vconfig.instance.n_steps):
                np.testing.assert_allclose(
                    traj.u[n][k] - backgrounds[k],
                    traj.delta[n - 1][k], atol=1e-12)


class TestRunParareal:
    def test_single_slab_terminates_first_iteration(self):
        cfg = dataclasses.replace(harness.ExperimentConfig(), n_steps=2,
                                  max_outer=5)
        vconfig, partition = harness.build_problem(cfg)
        plan = build_factors(vconfig, partition)
        traj, hist, _ = run_parareal(vconfig, plan, tol=1e-12, max_outer=5)
        assert hist.converged
        assert hist.n_outer == 1
        fine = run_mps(plan, vconfig.instance.M @ vconfig.u0, 1, 1e-10,
                       100)[0].patched
        np.testing.assert_array_equal(traj.u[1][1], fine)

    def test_benchmark_converges_within_slab_count(self, bench_problem):
        vconfig, partition = bench_problem
        traj, hist, _ = run_parareal(
            vconfig, build_factors(vconfig, partition), tol=1e-9, max_outer=8)
        assert hist.converged
        assert hist.n_outer <= vconfig.instance.n_steps
        # measured on the benchmark problem, frozen as a regression value
        assert hist.n_outer == 7
        assert hist.reason == "exact"

    def test_huge_tolerance_stops_after_one_iteration(self, bench_problem):
        vconfig, partition = bench_problem
        _, hist, _ = run_parareal(vconfig, build_factors(vconfig, partition),
                                  tol=1e9, max_outer=8)
        assert hist.converged
        assert hist.reason == "tol"
        assert hist.n_outer == 1

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_are_rejected(self, bench_problem, workers):
        # they once cut the slabs into no batch, then read the missing solves
        vconfig, partition = bench_problem
        with pytest.raises(ValueError, match=rf"workers must be >= 1, got {workers}"):
            run_parareal(vconfig, build_factors(vconfig, partition), tol=1e-9,
                         max_outer=8, workers=workers)

    @pytest.mark.parametrize("max_outer", [0, -3])
    def test_max_outer_below_one_is_rejected(self, bench_problem, max_outer):
        # it once returned a run of no iteration
        vconfig, partition = bench_problem
        with pytest.raises(ValueError,
                           match=rf"^max_outer must be >= 1, got {max_outer}$"):
            run_parareal(vconfig, build_factors(vconfig, partition), tol=1e-9,
                         max_outer=max_outer)

    @pytest.mark.parametrize("name, value", [
        ("max_outer", 2.5), ("max_outer", True), ("workers", 1.5),
        ("workers", True)])
    def test_counts_must_be_integers(self, bench_problem, name, value):
        # 2.5 and 1.5 once raised a bare TypeError, and max_outer=True ran
        # one iteration
        vconfig, partition = bench_problem
        with pytest.raises(ValueError,
                           match=rf"^{name} {value} is not an integer$"):
            run_parareal(vconfig, build_factors(vconfig, partition), tol=1e-9,
                         **{"max_outer": 8, name: value})

    @pytest.mark.parametrize("value, message", [
        (-1, "max_sweeps must be >= 0, got -1"),
        (2.0, "max_sweeps 2.0 is not an integer")])
    @pytest.mark.parametrize("entry", ["run_parareal", "serial_fine_chain",
                                       "parareal_update"])
    def test_bad_step_cap_is_named_max_sweeps(self, bench_problem, entry,
                                              value, message):
        # all three were once reported as dd_mps's max_iters
        vconfig, partition = bench_problem
        with pytest.raises(ValueError, match=rf"^{message}$"):
            if entry == "run_parareal":
                run_parareal(vconfig, build_factors(vconfig, partition),
                             tol=1e-9, max_outer=8, max_sweeps=value)
            elif entry == "serial_fine_chain":
                serial_fine_chain(vconfig, partition, max_sweeps=value)
            else:
                traj = initial_trajectory(vconfig)
                parareal_update(traj, traj.u[0], vconfig,
                                build_factors(vconfig, partition), (),
                                max_sweeps=value)

    @pytest.mark.parametrize("name", ["tol", "tol_mps"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
    def test_tolerances_must_be_positive(self, bench_problem, name, value):
        # a NaN tol_mps once let every fine solve run unconverged under a run
        # that reported converged
        vconfig, partition = bench_problem
        tols = dict({"tol": 1e-9, "tol_mps": 1e-10}, **{name: value})
        with pytest.raises(ValueError,
                           match=rf"^{name} must be positive, got {value}$"):
            run_parareal(vconfig, build_factors(vconfig, partition),
                         max_outer=8, **tols)

    @pytest.mark.parametrize("tol_mps", [0.0, -1.0, float("nan")])
    def test_chain_tolerance_must_be_positive(self, bench_problem, tol_mps):
        vconfig, partition = bench_problem
        with pytest.raises(ValueError,
                           match=rf"^tol_mps must be positive, got {tol_mps}$"):
            serial_fine_chain(vconfig, partition, tol_mps=tol_mps)

    def test_non_convergence_reported(self, bench_problem):
        vconfig, partition = bench_problem
        _, hist, _ = run_parareal(vconfig, build_factors(vconfig, partition),
                                  tol=1e-14, max_outer=2)
        assert not hist.converged
        assert hist.reason == "max_outer"
        assert hist.n_outer == 2

    def test_finite_step_exactness_level_by_level(self, bench_problem):
        vconfig, partition = bench_problem
        reference, _ = serial_fine_chain(vconfig, partition)
        traj, _, _ = run_parareal(vconfig, build_factors(vconfig, partition),
                                  tol=1e-300, max_outer=8)
        scale = max(np.abs(r).max() for r in reference)
        for n in range(traj.n + 1):
            for k in range(min(n, len(reference) - 1) + 1):
                err = np.abs(traj.u[n][k] - reference[k]).max()
                assert err <= 1e-10 * scale

    def test_worker_count_does_not_change_results(self, bench_problem):
        vconfig, partition = bench_problem
        t1, _, _ = run_parareal(vconfig, build_factors(vconfig, partition),
                                tol=1e-9, max_outer=8)
        t4, _, _ = run_parareal(vconfig, build_factors(vconfig, partition),
                                tol=1e-9, max_outer=8, workers=4)
        assert t1.n == t4.n
        for n in range(t1.n + 1):
            for k in range(vconfig.instance.n_steps):
                np.testing.assert_array_equal(t1.u[n][k], t4.u[n][k])

    def test_error_history_against_reference(self, bench_problem):
        vconfig, partition = bench_problem
        traj, hist, (reference, _, _) = run_parareal(
            vconfig, build_factors(vconfig, partition), tol=1e-9, max_outer=8)
        E = np.abs(reference - np.array(traj.u)).max(axis=2)
        assert E.shape[0] == hist.n_outer + 1
        # errors vanish on the exact leading slabs and shrink overall
        for n in range(E.shape[0]):
            assert E[n, :min(n, E.shape[1] - 1) + 1].max() <= 1e-10
        assert E[-1].max() < E[1].max()


def textbook_parareal(vconfig, partition, n_outer, tol_mps, max_sweeps):
    """Brute-force oracle: fine-solve every slab at every iteration."""
    M = vconfig.instance.M
    plan = build_factors(vconfig, partition)
    level = initial_trajectory(vconfig).u[0]
    u, background, delta, hists = [level], [level], [], []
    for n in range(n_outer):
        solves = [run_mps(plan, background[n][k], k, tol_mps, max_sweeps)
                  for k in range(1, len(level))]
        delta.append([None] + [it.patched - b for (it, _), b
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
    """run_parareal to finite-step exactness; returns its trajectory and
    history."""
    traj, hist, _ = run_parareal(
        vconfig, build_factors(vconfig, partition), tol=1e-300,
        max_outer=vconfig.instance.n_steps, tol_mps=tol_mps,
        max_sweeps=max_sweeps, workers=workers)
    return traj, hist


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
            backgrounds = level_backgrounds(vconfig.instance.M, traj.u[n])
            for k in range(vconfig.instance.n_steps):
                assert traj.u[n][k].tobytes() == u[n][k].tobytes()
                assert backgrounds[k].tobytes() == background[n][k].tobytes()
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
        # with only the previous level known, iteration n solves slab n
        # again: its input state became exact one iteration before
        vconfig, partition = bench_problem
        factors = build_factors(vconfig, partition)
        traj, previous = initial_trajectory(vconfig), ()
        backgrounds = traj.u[0]
        n_slabs = vconfig.instance.n_steps - 1
        for n in range(1, n_slabs + 1):
            traj, backgrounds, hists, solved, _ = parareal_update(
                traj, backgrounds, vconfig, factors, previous)
            previous = ((traj.u[-2], traj.delta[-1], hists),)
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
        plan = build_factors(vconfig, partition)
        traj, hist, (reference, chain_delta, chain_hists) = run_parareal(
            vconfig, plan, tol=1e-300, max_outer=vconfig.instance.n_steps)
        M = vconfig.instance.M
        assert (chain_delta[1].tobytes()
                == (reference[1] - M @ reference[0]).tobytes())
        # slab 1 is never re-solved: every iteration carries the chain's
        # correction bytes and its history object
        for n in range(traj.n):
            assert traj.delta[n][1].tobytes() == chain_delta[1].tobytes()
            assert hist.mps[n][0] is chain_hists[0]

    def test_known_rows_match_bytes_only(self, bench_problem):
        vconfig, partition = bench_problem
        factors = build_factors(vconfig, partition)
        level = initial_trajectory(vconfig).u[0].copy()
        level[2] = 0.0                    # slab 3's input state is +0.0
        traj = PararealTrajectory(u=(level,), delta=())
        states = level.copy()
        states[1] = np.nextafter(states[1], np.inf)
        states[2, 0] = -0.0
        deltas, hists = np.full(level.shape, 7.0), [object() for _ in range(7)]
        backgrounds = level_backgrounds(vconfig.instance.M, level)
        got, _, got_hists, solved, _ = parareal_update(
            traj, backgrounds, vconfig, factors, ((states, deltas, hists),))
        fresh, _, fresh_hists, *_ = parareal_update(traj, backgrounds, vconfig,
                                                    factors, ())
        # nextafter and -0.0 miss, so slabs 2 and 3 are solved
        assert solved == [2, 3]
        for k in range(1, 8):
            if k in solved:
                assert (got.delta[0][k].tobytes()
                        == fresh.delta[0][k].tobytes())
                assert got_hists[k - 1] == fresh_hists[k - 1]
            else:
                assert got.delta[0][k].tobytes() == deltas[k].tobytes()
                assert got_hists[k - 1] is hists[k - 1]

    def test_signed_zero_state_is_solved_though_its_background_matches(
            self, bench_problem):
        vconfig, partition = bench_problem
        factors = build_factors(vconfig, partition)
        M = vconfig.instance.M
        level = initial_trajectory(vconfig).u[0].copy()
        level[2] = 0.0
        traj = PararealTrajectory(u=(level,), delta=())
        states = level.copy()
        states[2, 0] = -0.0
        # M (-0.0, 0, ...) sums to +0.0: the backgrounds share their bytes
        assert (level_backgrounds(M, states)[3].tobytes()
                == level_backgrounds(M, level)[3].tobytes())
        deltas, hists = np.full(level.shape, 7.0), [object() for _ in range(7)]
        backgrounds = level_backgrounds(M, level)
        got, _, got_hists, solved, _ = parareal_update(
            traj, backgrounds, vconfig, factors, ((states, deltas, hists),))
        fresh, _, fresh_hists, *_ = parareal_update(traj, backgrounds, vconfig,
                                                    factors, ())
        # the state differs, so slab 3 is solved again, to the same bytes
        assert solved == [3]
        assert got.delta[0][3].tobytes() == fresh.delta[0][3].tobytes()
        assert got_hists[2] == fresh_hists[2]
        assert got_hists[2] is not hists[2]

    def test_first_matching_level_wins(self, bench_problem):
        vconfig, partition = bench_problem
        factors = build_factors(vconfig, partition)
        traj = initial_trajectory(vconfig)
        first = (traj.u[0].copy(), np.full(traj.u[0].shape, 1.0),
                 [object() for _ in range(7)])
        second = (traj.u[0].copy(), np.full(traj.u[0].shape, 2.0),
                  [object() for _ in range(7)])
        got, _, hists, solved, _ = parareal_update(traj, traj.u[0], vconfig,
                                                   factors, (first, second))
        assert solved == []
        np.testing.assert_array_equal(got.delta[0][1:], 1.0)
        assert all(h is want for h, want in zip(hists, first[2], strict=True))

    def test_unmatched_slabs_are_solved(self, bench_problem):
        vconfig, partition = bench_problem
        factors = build_factors(vconfig, partition)
        traj = initial_trajectory(vconfig)
        moved = (traj.u[0] + 1.0, np.zeros(traj.u[0].shape), [None] * 7)
        got, _, hists, solved, _ = parareal_update(traj, traj.u[0], vconfig,
                                                   factors, (moved,))
        fresh, _, fresh_hists, *_ = parareal_update(traj, traj.u[0], vconfig,
                                                    factors, ())
        assert solved == list(range(1, 8))
        assert got.delta[0].tobytes() == fresh.delta[0].tobytes()
        assert hists == fresh_hists

    def test_run_passes_the_previous_level_then_the_chain(
            self, monkeypatch, bench_problem):
        vconfig, partition = bench_problem
        plan = build_factors(vconfig, partition)
        calls = []
        update = parareal.parareal_update

        def spy(trajectory, backgrounds, config, factors, known, **kwargs):
            calls.append((known, kwargs["ahead"]))
            return update(trajectory, backgrounds, config, factors, known,
                          **kwargs)

        monkeypatch.setattr(parareal, "parareal_update", spy)
        traj, hist, (reference, chain_delta, chain_hists) = run_parareal(
            vconfig, plan, tol=1e-300, max_outer=8)
        M, n_slabs = vconfig.instance.M, vconfig.instance.n_steps - 1
        assert len(calls) == traj.n == n_slabs
        for n, (known, ahead) in enumerate(calls, start=1):
            *previous, (states, deltas, hists) = known
            if n == 1:
                assert previous == []
            else:
                (prev_u, prev_delta, prev_hists), = previous
                assert prev_u is traj.u[n - 2]
                assert prev_delta is traj.delta[n - 2]
                assert prev_hists is hist.mps[n - 2]
            # iteration n knows the chain rows 0..n - 1, the inputs of the
            # chain slabs 1..n solved so far, and carries chain slab n + 1
            assert states.base is reference and len(states) == n
            assert deltas is chain_delta and hists is chain_hists
            if n < n_slabs:
                state, time = ahead
                assert state.tobytes() == reference[n].tobytes()
                assert time == n + 1
            else:
                assert ahead is None
        assert not chain_delta[0].any()
        for k in range(1, n_slabs + 1):
            assert (chain_delta[k].tobytes()
                    == (reference[k] - M @ reference[k - 1]).tobytes())

    @pytest.mark.parametrize("max_outer", [1, 3, 8])
    def test_lone_chain_solves_are_slab_one_and_the_tail(
            self, monkeypatch, bench_problem, max_outer):
        vconfig, partition = bench_problem
        plan = build_factors(vconfig, partition)
        lone, batches = [], []
        solve, solve_batch = parareal.run_mps, parareal.run_mps_batch

        def lone_spy(plan, background, time, *args):
            lone.append(time)
            return solve(plan, background, time, *args)

        def batch_spy(plan, backgrounds, times, *args):
            batches.append(list(times))
            return solve_batch(plan, backgrounds, times, *args)

        monkeypatch.setattr(parareal, "run_mps", lone_spy)
        monkeypatch.setattr(parareal, "run_mps_batch", batch_spy)
        traj, hist, _ = run_parareal(vconfig, plan, tol=1e-300,
                                     max_outer=max_outer)
        n_slabs = vconfig.instance.n_steps - 1
        carried = min(traj.n, n_slabs - 1)
        # slab 1 alone, slab n + 1 in iteration n's one batch after the
        # slabs it solves, then the tail left by a max_outer stop
        assert lone == [1, *range(carried + 2, n_slabs + 1)]
        assert batches == [[*solved, n + 1] for n, solved
                           in enumerate(hist.solved[:carried], start=1)]

    def test_partial_level_knows_only_its_rows(self, bench_problem):
        vconfig, partition = bench_problem
        factors = build_factors(vconfig, partition)
        traj = initial_trajectory(vconfig)
        states = traj.u[0]
        deltas = np.full(states.shape, 7.0)
        hists = [object() for _ in range(7)]
        # rows 0..2 are the inputs of slabs 1..3; the state rows 3..6 match
        # too, but a level that does not hold them cannot know their slabs
        got, _, got_hists, solved, _ = parareal_update(
            traj, states, vconfig, factors,
            ((states[:3].copy(), deltas, hists),))
        fresh, _, fresh_hists, *_ = parareal_update(traj, states, vconfig,
                                                    factors, ())
        assert solved == [4, 5, 6, 7]
        for k in range(1, 8):
            if k in solved:
                assert (got.delta[0][k].tobytes()
                        == fresh.delta[0][k].tobytes())
                assert got_hists[k - 1] == fresh_hists[k - 1]
            else:
                assert got.delta[0][k].tobytes() == deltas[k].tobytes()
                assert got_hists[k - 1] is hists[k - 1]

    @pytest.mark.parametrize("early", [True, False])
    def test_rows_multiplied_are_the_slabs_solved(self, monkeypatch,
                                                  bench_problem, early):
        vconfig, partition = bench_problem
        plan = build_factors(vconfig, partition)
        logged, per_update = logged_model(vconfig), []
        update = parareal.parareal_update

        def spy(*args, **kwargs):
            start = len(logged.products)
            out = update(*args, **kwargs)
            per_update.append(logged.products[start:])
            return out

        monkeypatch.setattr(parareal, "parareal_update", spy)
        traj, hist, (reference, _, _) = run_parareal(
            logged.config, plan, tol=1e-300, max_outer=3 if early else 8)
        n_slabs = vconfig.instance.n_steps - 1
        carried = min(hist.n_outer, n_slabs - 1)
        for n, products in enumerate(per_update, start=1):
            # slabs 1..n - 1 keep the previous level's deltas and slab n
            # takes the chain's, so the recombination runs from slab n, once
            # per row; the solved slabs n + 1.. read their backgrounds from
            # the carried rows, and only chain slab n + 1 takes a fresh M @,
            # which the recombination takes as its row n + 1: level n is
            # exact through row n, so its input state is the chain's
            ahead = n <= carried
            assert not ahead or traj.u[n][n].tobytes() == reference[n].tobytes()
            want = [reference[n]] * ahead + [
                traj.u[n][k - 1] for k in range(n, n_slabs + 1)
                if not (ahead and k == n + 1)]
            assert [x.tobytes() for x in products] == [
                x.tobytes() for x in want]
            # no product is formed twice in an iteration
            assert len({x.tobytes() for x in products}) == len(products)
        # level 0's coarse sweep, chain slab 1, the iterations, the tail
        tail = n_slabs - carried - 1
        assert len(logged.products) == n_slabs + 1 + sum(
            map(len, per_update)) + tail
        assert sum(len(s) for s in hist.solved) < n_slabs * hist.n_outer


class _ProductLog(np.ndarray):
    """A model matrix that logs the rows of every product formed with it;
    each product is computed on the plain array, so it keeps its bits."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = [np.asarray(x) for x in inputs]
        if ufunc is np.matmul and inputs[0] is self:
            self.products.extend(plain[1].reshape(-1, len(self)).copy())
        return getattr(ufunc, method)(*plain, **kwargs)


def logged_model(vconfig):
    """vconfig with M replaced by a _ProductLog view; returns the view, whose
    `config` is the new vconfig and `products` the rows it multiplied."""
    M = vconfig.instance.M.view(_ProductLog)
    M.products = []
    M.config = dataclasses.replace(
        vconfig, instance=dataclasses.replace(vconfig.instance, M=M))
    return M


def slab_long_problem():
    """slab_long's settings on 12 time points: with tol 1e-4, Parareal stops
    by tol at iteration 9 of 11 slabs, which leaves chain slab 11 to the
    tail."""
    cfg = dataclasses.replace(harness.ExperimentConfig(), np=32, n_steps=12,
                              n_sub=2, nobs=8, max_outer=11)
    return harness.build_problem(harness.validate_config(cfg))


class TestChainInTheBatches:
    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("stop, reason, n_outer", [
        (dict(tol=1e-300, max_outer=8), "exact", 7),
        (dict(tol=1e-4, max_outer=11), "tol", 9),
        (dict(tol=1e-300, max_outer=3), "max_outer", 3),
    ], ids=["exact", "tol", "max_outer"])
    def test_chain_is_serial_fine_chain_bitwise(self, bench_problem, workers,
                                                stop, reason, n_outer):
        vconfig, partition = (slab_long_problem() if reason == "tol"
                              else bench_problem)
        plan = build_factors(vconfig, partition)
        _, hist, (states, deltas, hists) = run_parareal(
            vconfig, plan, workers=workers, **stop)
        assert (hist.reason, hist.n_outer) == (reason, n_outer)
        want_states, want_hists = serial_fine_chain(vconfig, partition,
                                                    factors=plan)
        assert states.tobytes() == want_states.tobytes()
        # every MpsHistory field, floats compared exactly
        assert hists == want_hists
        M = vconfig.instance.M
        for k in range(1, len(states)):
            assert (deltas[k].tobytes()
                    == (states[k] - M @ states[k - 1]).tobytes())


class TestCarriedBackgrounds:
    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("problem, stop, reason", [
        ("bench", dict(tol=1e-300, max_outer=8), "exact"),
        ("bench", dict(tol=1e-2, max_outer=8), "tol"),
        ("bench", dict(tol=1e-300, max_outer=3), "max_outer"),
        ("slab_long", dict(tol=1e-300, max_outer=11), "exact"),
        ("slab_long", dict(tol=1e-4, max_outer=11), "tol"),
        ("slab_long", dict(tol=1e-300, max_outer=3), "max_outer"),
    ])
    def test_levels_and_backgrounds_are_the_textbook_loops(
            self, monkeypatch, bench_problem, workers, problem, stop, reason):
        vconfig, partition = (bench_problem if problem == "bench"
                              else slab_long_problem())
        given, backgrounds = [], []
        update = parareal.parareal_update

        def spy(trajectory, carried, *args, **kwargs):
            out = update(trajectory, carried, *args, **kwargs)
            given.append(carried)
            backgrounds.append(out[1])
            return out

        monkeypatch.setattr(parareal, "parareal_update", spy)
        traj, hist, _ = run_parareal(vconfig, build_factors(vconfig, partition),
                                     workers=workers, **stop)
        assert hist.reason == reason
        # level 0 is its own backgrounds; each later update gets what the
        # one before returned
        assert given[0] is traj.u[0]
        assert all(a is b for a, b in zip(given[1:], backgrounds))
        backgrounds.insert(0, given[0])
        M, u0 = vconfig.instance.M, vconfig.u0
        for n in range(traj.n + 1):
            u, b = [u0], [u0]
            for k in range(1, vconfig.instance.n_steps):
                b.append(M @ traj.u[n][k - 1])
                coarse = M @ u[k - 1]
                u.append(coarse + traj.delta[n - 1][k] if n else coarse)
            assert traj.u[n].tobytes() == np.array(u).tobytes()
            assert backgrounds[n].tobytes() == np.array(b).tobytes()

    def test_backgrounds_must_have_the_levels_shape(self, bench_problem):
        vconfig, partition = bench_problem
        traj = initial_trajectory(vconfig)
        with pytest.raises(ValueError, match=r"^backgrounds must have the "
                           r"level's shape \(8, 32\), got \(7, 32\)$"):
            parareal_update(traj, traj.u[0][1:], vconfig,
                            build_factors(vconfig, partition), ())


def one_network_problem(layout):
    """Seven slabs over one observation network in the given layout, with a
    correlated background so that CG iterates."""
    cfg = dataclasses.replace(harness.ExperimentConfig(), np=16, n_steps=8,
                              nobs=4, L=1.0, n_sub=3, overlap=2,
                              obs_layout=layout, seed=3)
    return harness.build_problem(harness.validate_config(cfg))


class TestBatchedFineSolves:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_layouts_match_textbook_iteration_bitwise(self, workers):
        for layout in ("stride", "random"):
            vconfig, partition = one_network_problem(layout)
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
    def test_batches_split_over_workers(self, monkeypatch, workers):
        vconfig, partition = one_network_problem("random")
        factors = build_factors(vconfig, partition)
        batches = []
        run_mps_batch = parareal.run_mps_batch

        def record(plan, backgrounds, times, *args, **kwargs):
            batches.append(list(times))
            return run_mps_batch(plan, backgrounds, times, *args, **kwargs)

        monkeypatch.setattr(parareal, "run_mps_batch", record)
        traj = initial_trajectory(vconfig)
        traj1, _, hists, solved, _ = parareal_update(
            traj, traj.u[0], vconfig, factors, (), workers=workers)
        assert solved == list(range(1, 8))
        # threads enter run_mps_batch in any order: sorted by first slab, the
        # batches are contiguous runs that cover every slab, one per worker
        batches.sort(key=lambda ks: ks[0])
        assert all(ks == list(range(ks[0], ks[-1] + 1)) for ks in batches)
        assert [k for ks in batches for k in ks] == list(range(1, 8))
        assert len(batches) == min(workers, 7)
        assert max(map(len, batches)) - min(map(len, batches)) <= 1
        # the level just solved is known: no slab is left, so no batch is made
        batches.clear()
        known = ((traj.u[0], traj1.delta[0], hists),)
        _, _, _, solved, _ = parareal_update(traj, traj.u[0], vconfig, factors,
                                             known, workers=workers)
        assert batches == [] and solved == []
        assert parareal._batches([], workers) == []

    @pytest.mark.parametrize("workers", [0, -1])
    def test_update_rejects_workers_below_one(self, bench_problem, workers):
        # they once cut the slabs into no batch and returned zero corrections
        vconfig, partition = bench_problem
        with pytest.raises(ValueError,
                           match=rf"^workers must be >= 1, got {workers}$"):
            traj = initial_trajectory(vconfig)
            parareal_update(traj, traj.u[0], vconfig,
                            build_factors(vconfig, partition), (),
                            workers=workers)

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
