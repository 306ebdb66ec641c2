import collections
import copy
import dataclasses
import gc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st

from pintda import dd_mps, harness, parareal, testbed, var_solver
from pintda.dd_mps import (PartitionError, assemble_local_system,
                           build_factors, dap_residual, mps_sweep,
                           partition_domain, run_mps)


class TestPartitionDomain:
    def test_single_subdomain_is_degenerate(self):
        part = partition_domain(10, 1, 0)
        assert part.n_sub == 1
        np.testing.assert_array_equal(part.index_sets[0], np.arange(10))

    def test_two_blocks_of_eight_enumerated(self):
        part = partition_domain(8, 2, 2)
        np.testing.assert_array_equal(part.index_sets[0], [0, 1, 2, 3, 4])
        np.testing.assert_array_equal(part.index_sets[1], [3, 4, 5, 6, 7])

    @pytest.mark.parametrize("n_grid,n_sub,overlap", [
        (8, 2, 2), (32, 4, 2), (17, 3, 1), (20, 5, 2), (9, 2, 0),
    ])
    def test_offset_identity_and_cover(self, n_grid, n_sub, overlap):
        part = partition_domain(n_grid, n_sub, overlap)
        union = np.unique(np.concatenate(part.index_sets))
        np.testing.assert_array_equal(union, np.arange(n_grid))
        for i, idx in enumerate(part.index_sets):
            # contiguous blocks, each its balanced cut widened by the overlap:
            # floor(overlap/2) to the left, ceil(overlap/2) to the right
            np.testing.assert_array_equal(idx, np.arange(idx[0], idx[-1] + 1))
            lo = i * n_grid // n_sub - (overlap // 2 if i > 0 else 0)
            hi = (i + 1) * n_grid // n_sub \
                + ((overlap + 1) // 2 if i < n_sub - 1 else 0)
            assert (idx[0], idx[-1] + 1) == (lo, hi)

    def test_adjacent_blocks_share_exactly_overlap(self):
        part = partition_domain(32, 4, 2)
        for i in range(3):
            shared = np.intersect1d(part.index_sets[i], part.index_sets[i + 1])
            assert len(shared) == 2

    @pytest.mark.parametrize("args", [(8, 0, 0), (8, 2, -1), (8, 9, 0), (8, 4, 3)])
    def test_infeasible_requests_rejected(self, args):
        with pytest.raises(PartitionError):
            partition_domain(*args)

    @pytest.mark.parametrize("args, name, value", [
        ((32, 2, 1.5), "overlap", 1.5), ((32.0, 2, 2), "n_grid", 32.0),
        ((32, True, 0), "n_sub", True), ((32, 2.0, 0), "n_sub", 2.0)])
    def test_non_integer_arguments_are_named(self, args, name, value):
        # 1.5 and 32.0 once gave float index arrays that build_factors
        # rejected with a bare IndexError; True was taken as one block
        with pytest.raises(PartitionError,
                           match=rf"^{name} {value} is not an integer$"):
            partition_domain(*args)


class TestBlockSelection:
    @pytest.mark.parametrize("n_grid,n_sub,overlap", [(8, 2, 2), (64, 4, 2)])
    def test_selection_rows_orthonormal(self, n_grid, n_sub, overlap):
        part = partition_domain(n_grid, n_sub, overlap)
        for i in range(n_sub):
            R = np.eye(n_grid)[part.index_sets[i]]
            np.testing.assert_array_equal(R @ R.T, np.eye(len(part.index_sets[i])))
            P = R.T @ R
            np.testing.assert_array_equal(P @ P, P)
            diag = np.zeros(n_grid)
            diag[part.index_sets[i]] = 1.0
            np.testing.assert_array_equal(np.diag(P), diag)


def systems_for(vconfig, partition):
    return [assemble_local_system(i, partition, vconfig)
            for i in range(partition.n_sub)]


def dense_system(vconfig):
    """A = lam I + S^T S / sigma_r^2 and c of vconfig's time, formed densely."""
    t = vconfig.time_index
    ix = vconfig.observations.obs
    S = vconfig.covpair.V[ix]
    rinv = 1.0 / vconfig.covpair.sigma_r**2
    A = vconfig.lam * np.eye(vconfig.instance.np) + rinv * S.T @ S
    return A, rinv * S.T @ (vconfig.observations.v[t] - vconfig.u0[ix])


def start_of(factors, vconfig):
    """The unbatched step-0 iterate of vconfig's background and time."""
    return factors.bind([vconfig.u0], [vconfig.time_index]).take(0)


def with_rhs(start, c):
    """The step-0 iterate `start` with the right-hand side c, so r = c."""
    changed = copy.copy(start)
    changed.c = changed.r = c
    return changed


def run_own(vconfig, partition, **solve):
    """run_mps of vconfig's background and time on a plan built for it."""
    return run_mps(build_factors(vconfig, partition), vconfig.u0,
                   vconfig.time_index, **solve)


class TestAssembleLocalSystem:
    def test_empty_problem_reduces_to_identity(self):
        # no observations inside the block and no neighbors
        cfg = dataclasses.replace(harness.ExperimentConfig(), np=8, n_steps=2,
                                  nobs=1, n_sub=1, overlap=0)
        vconfig, partition = harness.build_problem(cfg)
        empty_obs = dataclasses.replace(
            vconfig.observations, obs=np.empty(0, dtype=int),
            v=np.zeros((2, 0)))
        vempty = dataclasses.replace(vconfig, observations=empty_obs)
        sys0 = systems_for(vempty, partition)[0]
        np.testing.assert_array_equal(sys0.A_loc, np.eye(8))
        start = start_of(build_factors(vempty, partition), vempty)
        np.testing.assert_array_equal(start.c, np.zeros(8))

    def test_degenerate_block_matches_conjugated_hessian(self, bench_problem):
        vconfig, _ = bench_problem
        partition = partition_domain(vconfig.instance.np, 1, 0)
        sys0 = systems_for(vconfig, partition)[0]
        V = vconfig.covpair.V
        (half_hessian,) = var_solver._hessian_blocks(vconfig, "threeD")
        np.testing.assert_allclose(sys0.A_loc, V.T @ half_hessian @ V, atol=1e-9)

    def test_local_matrices_symmetric_spd(self, correlated_problem):
        _, vconfig, partition = correlated_problem
        for sys_i in systems_for(vconfig, partition):
            assert np.abs(sys_i.A_loc - sys_i.A_loc.T).max() \
                <= 1e-12 * np.abs(sys_i.A_loc).max()
            assert np.linalg.eigvalsh(sys_i.A_loc).min() > 0

    @pytest.mark.parametrize("L", [0.0, 2.0])
    def test_blocks_are_the_global_matrix(self, L):
        # A_loc = A[I_i, I_i], and the bound right-hand side is c
        cfg = dataclasses.replace(harness.ExperimentConfig(), np=24, n_sub=4,
                                  overlap=4, nobs=6, L=L)
        vconfig, partition = harness.build_problem(cfg)
        A, c = dense_system(vconfig)
        factors = build_factors(vconfig, partition)
        np.testing.assert_allclose(start_of(factors, vconfig).c, c,
                                   rtol=1e-13, atol=1e-12)
        for s in (assemble_local_system(i, partition, vconfig)
                  for i in range(partition.n_sub)):
            idx = s.indices
            np.testing.assert_allclose(s.A_loc, A[np.ix_(idx, idx)],
                                       rtol=1e-13, atol=1e-12)


class TestSweepAndPatch:
    def test_single_block_sweep_hits_global_solution(self, bench_problem):
        vconfig, _ = bench_problem
        partition = partition_domain(vconfig.instance.np, 1, 0)
        start = start_of(build_factors(vconfig, partition), vconfig)
        it = mps_sweep(start)
        direct = var_solver.solve_var_direct(vconfig, "threeD")
        w_direct = np.linalg.solve(vconfig.covpair.V, direct.u_da - vconfig.u0)
        np.testing.assert_allclose(it.w, w_direct, atol=1e-9)
        np.testing.assert_allclose(it.patched, direct.u_da, atol=1e-9)

    def test_sweep_order_independent(self, correlated_problem):
        # a column's steps do not depend on where it sits in the batch
        _, vconfig, partition = correlated_problem
        factors = build_factors(vconfig, partition)
        rng = np.random.default_rng(5)
        backgrounds = [vconfig.u0 + rng.standard_normal(vconfig.u0.size)
                       for _ in range(3)]
        fwd = factors.bind(backgrounds, [1, 1, 1])
        rev = factors.bind(backgrounds[::-1], [1, 1, 1])
        for _ in range(3):
            fwd, rev = mps_sweep(fwd), mps_sweep(rev)
            np.testing.assert_array_equal(fwd.w, rev.w[::-1])
            np.testing.assert_array_equal(fwd.residual, rev.residual[::-1])
            np.testing.assert_array_equal(fwd.eq_residual,
                                          rev.eq_residual[::-1])

    def test_fixed_point_satisfies_local_systems(self, correlated_problem):
        _, vconfig, partition = correlated_problem
        it, hist = run_own(vconfig, partition, tol=1e-13, max_iters=200)
        assert hist.converged
        assert dap_residual(it) <= 1e-10 * it.scale
        # every block's rows of A w = c, formed densely
        A, c = dense_system(vconfig)
        g = A @ it.w - c
        for idx in partition.index_sets:
            assert np.max(np.abs(g[idx])) <= 1e-10 * (1 + np.abs(c[idx]).max())

    def test_patch_single_block(self, bench_problem):
        vconfig, _ = bench_problem
        partition = partition_domain(vconfig.instance.np, 1, 0)
        start = start_of(build_factors(vconfig, partition), vconfig)
        it = mps_sweep(start)
        expected = vconfig.u0 + vconfig.covpair.V @ it.w
        np.testing.assert_array_equal(it.patched, expected)


class TestRunMps:
    def test_single_block_converges_in_one_sweep(self, bench_problem):
        vconfig, _ = bench_problem
        partition = partition_domain(vconfig.instance.np, 1, 0)
        it, hist = run_own(vconfig, partition, tol=1e-10, max_iters=10)
        assert hist.converged
        assert hist.n_sweeps == 1

    @pytest.mark.parametrize("n_sub", [2, 4])
    def test_benchmark_reaches_oracle(self, bench_problem, n_sub):
        vconfig, _ = bench_problem
        partition = partition_domain(vconfig.instance.np, n_sub, 2)
        it, hist = run_own(vconfig, partition, tol=1e-10, max_iters=50)
        direct = var_solver.solve_var_direct(vconfig, "threeD")
        rel = np.abs(it.patched - direct.u_da).max() / np.abs(direct.u_da).max()
        assert hist.converged
        assert rel <= 1e-10
        # A is diagonal when L = 0, and the preconditioned operator has the
        # two eigenvalues 1 (one block) and 1/2 (an overlap): two steps
        assert hist.n_sweeps == 2

    def test_degenerate_matches_direct_tightly(self, bench_problem):
        vconfig, _ = bench_problem
        partition = partition_domain(vconfig.instance.np, 1, 0)
        it, _ = run_own(vconfig, partition, tol=1e-12, max_iters=10)
        direct = var_solver.solve_var_direct(vconfig, "threeD")
        rel = np.abs(it.patched - direct.u_da).max() / np.abs(direct.u_da).max()
        assert rel <= 1e-10

    def test_iterate_diff_convergence_implies_stationarity(self, correlated_problem):
        # the stop reads the recursive residual; the true one agrees with it
        _, vconfig, partition = correlated_problem
        it, hist = run_own(vconfig, partition, tol=1e-13, max_iters=300)
        assert hist.converged
        assert it.eq_residual <= 1e-13
        assert hist.eq_residual <= 1e-12
        A, c = dense_system(vconfig)
        np.testing.assert_allclose(hist.eq_residual,
                                   np.abs(c - A @ it.w).max()
                                   / (1 + np.abs(c).max()), rtol=0.5, atol=1e-15)

    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
    def test_tolerance_must_be_positive(self, bench_problem, batched, tol):
        # a NaN tol once ran every solve to max_iters and reported it
        # unconverged at a residual of 1e-16
        vconfig, partition = bench_problem
        plan = build_factors(vconfig, partition)
        with pytest.raises(ValueError,
                           match=rf"^tol must be positive, got {tol}$"):
            if batched:
                dd_mps.run_mps_batch(plan, [vconfig.u0] * 2, [1, 2], tol, 50)
            else:
                run_mps(plan, vconfig.u0, 1, tol, 50)

    def test_non_convergence_is_reported_not_raised(self, correlated_problem):
        _, vconfig, partition = correlated_problem
        it, hist = run_own(vconfig, partition, tol=1e-14, max_iters=1)
        assert not hist.converged
        assert hist.n_sweeps == it.n == 1
        assert hist.residual == it.residual
        assert hist.eq_residual == dap_residual(it) / it.scale

    @pytest.mark.parametrize("max_iters", [0, 3])
    def test_eps_mps_maps_final_residual_to_state_space(self, correlated_problem,
                                                       max_iters):
        _, vconfig, partition = correlated_problem
        it, hist = run_own(vconfig, partition, tol=1e-14, max_iters=max_iters)
        assert hist.n_sweeps == max_iters
        v_norm = float(np.abs(vconfig.covpair.V).sum(axis=1).max())
        true = dap_residual(it)
        assert hist.eps_mps == v_norm * true / vconfig.lam
        A, c = dense_system(vconfig)
        np.testing.assert_allclose(true, np.abs(c - A @ it.w).max(),
                                   rtol=1e-6)

    def test_cost_history_decreases_to_plateau(self, correlated_problem):
        _, vconfig, partition = correlated_problem
        _, hist = run_own(vconfig, partition, tol=1e-12, max_iters=100)
        it = start_of(build_factors(vconfig, partition), vconfig)
        costs = [var_solver.eval_cost(it.patched, vconfig, "threeD")]
        for _ in range(hist.n_sweeps):
            it = mps_sweep(it)
            costs.append(var_solver.eval_cost(it.patched, vconfig, "threeD"))
        # CG decreases the cost at every step
        assert all(b <= a * (1 + 1e-12) for a, b in zip(costs, costs[1:]))
        assert costs[-1] < costs[0]

    def test_retired_rho_and_patch_rule_are_ignored(self, correlated_problem):
        # serial_fine_chain accepts and ignores the penalty and the patch rule
        # of the former penalty sweep
        _, vconfig, partition = correlated_problem
        owner = parareal.serial_fine_chain(vconfig, partition, 1e-12, 100,
                                           rho=1.0, patch_rule="owner")
        average = parareal.serial_fine_chain(vconfig, partition, 1e-12, 100,
                                             rho=5.0, patch_rule="average")
        assert [u.tobytes() for u in owner[0]] \
            == [u.tobytes() for u in average[0]]
        assert owner[1] == average[1]

    @pytest.mark.parametrize("max_iters, why", [
        (-1, "must be >= 0, got -1"), (2.5, "2.5 is not an integer"),
        (True, "True is not an integer")])
    def test_bad_step_cap_is_rejected(self, correlated_problem, max_iters,
                                      why):
        # -1 once took no step, and 2.5 was taken as a cap, both silently
        _, vconfig, partition = correlated_problem
        plan = build_factors(vconfig, partition)
        match = rf"^max_iters {why}$"
        with pytest.raises(ValueError, match=match):
            run_mps(plan, vconfig.u0, 1, tol=1e-10, max_iters=max_iters)
        with pytest.raises(ValueError, match=match):
            dd_mps.run_mps_batch(plan, [vconfig.u0] * 2, [1, 2], tol=1e-10,
                                 max_iters=max_iters)

    def test_zero_lambda_is_rejected(self):
        # every one-point block is positive definite at lam = 0, but
        # A = rinv S^T S has rank 4 < 32: CG once reported this solve
        # converged with eps_mps near 1e294 for a state of size 2e3
        cfg = dataclasses.replace(harness.ExperimentConfig(), np=32, L=2.0,
                                  n_sub=32, overlap=0)
        vconfig, partition = indexed_problem(cfg, [3, 11, 19, 31])
        singular = dataclasses.replace(vconfig, lam=0.0)
        with pytest.raises(var_solver.VarSolverError,
                           match="^lambda must be positive, got 0$"):
            build_factors(singular, partition)

    def test_breakdown_is_reported_not_raised(self, correlated_problem):
        # at tol = 1e-300 the recursive residual shrinks until r.z is 0,
        # where CG has no step left (alpha would be 0/0)
        _, vconfig, partition = correlated_problem
        it, hist = run_own(vconfig, partition, tol=1e-300, max_iters=500)
        assert not hist.converged
        assert it.rz == 0 and 0 < hist.n_sweeps < 500
        assert hist.residual == 0.0
        assert np.isfinite(it.patched).all()
        assert np.isfinite([hist.eq_residual, hist.eps_mps]).all()


def slab_problem(vconfig, t, seed):
    """vconfig re-posed at time t around a background unlike its own u0."""
    rng = np.random.default_rng(seed)
    background = 2.0 * vconfig.u0 + rng.standard_normal(vconfig.u0.size)
    return dataclasses.replace(vconfig, u0=background, time_index=t)


def assert_reuse_matches_fresh(factors, vconfig, slab, partition):
    """A solve on factors reused from vconfig's problem equals one on
    freshly assembled systems."""
    start = start_of(factors, slab)
    own = build_factors(slab, partition)
    np.testing.assert_array_equal(start.c, start_of(own, slab).c)
    for i in range(partition.n_sub):
        f = assemble_local_system(i, partition, vconfig)
        fresh = assemble_local_system(f.i, partition, slab)
        np.testing.assert_array_equal(f.A_loc, fresh.A_loc)
    for (i, c, *bounds), (j, own_c, *own_bounds) in zip(factors.blocks,
                                                          own.blocks):
        assert (i, bounds) == (j, own_bounds)
        np.testing.assert_array_equal(c, own_c)
    kwargs = dict(tol=1e-10, max_iters=30)
    reused, h_reused = run_mps(factors, slab.u0, slab.time_index, **kwargs)
    fresh, h_fresh = run_mps(own, slab.u0, slab.time_index, **kwargs)
    np.testing.assert_array_equal(reused.patched, fresh.patched)
    assert h_reused == h_fresh


class TestPlanReuse:
    def test_reused_factors_match_fresh_assembly(self, correlated_problem):
        _, vconfig, partition = correlated_problem
        factors = build_factors(vconfig, partition)
        assert_reuse_matches_fresh(factors, vconfig,
                                   slab_problem(vconfig, 2, seed=4), partition)

    def test_collected_plan_leaves_nothing_behind(self):
        # a plan built where a collected one stood (same shapes, other
        # values) must not solve on the old plan's blocks
        def problem(L, seed):
            cfg = dataclasses.replace(harness.ExperimentConfig(), np=24,
                                      n_steps=3, nobs=6, n_sub=4, overlap=2,
                                      L=L, seed=seed)
            return harness.build_problem(harness.validate_config(cfg))

        vconfig, partition = problem(2.0, 11)
        factors = build_factors(vconfig, partition)
        slab = slab_problem(vconfig, 1, seed=1)
        run_mps(factors, slab.u0, slab.time_index, tol=1e-10, max_iters=30)
        del factors
        gc.collect()
        vconfig, partition = problem(1.0, 12)
        assert_reuse_matches_fresh(build_factors(vconfig, partition), vconfig,
                                   slab_problem(vconfig, 1, seed=2), partition)

    @seed(2305)
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(n_grid=st.integers(8, 48), n_steps=st.integers(2, 6),
           n_sub=st.integers(1, 4), overlap=st.integers(0, 3),
           L=st.one_of(st.just(0.0), st.floats(0.5, 3.0)),
           velocity=st.sampled_from([1.0, -1.0]),
           obs_layout=st.sampled_from(["stride", "random"]),
           seed=st.integers(0, 2**16), data=st.data())
    def test_reuse_matches_fresh_on_valid_configs(self, n_grid, n_steps, n_sub,
                                                  overlap, L, velocity,
                                                  obs_layout, seed, data):
        assume(n_sub == 1 or overlap * (n_sub - 1) < n_grid)
        cfg = dataclasses.replace(harness.ExperimentConfig(), np=n_grid,
                                  n_steps=n_steps, nobs=max(1, n_grid // 4),
                                  n_sub=n_sub, overlap=overlap, L=L,
                                  velocity=velocity, obs_layout=obs_layout,
                                  seed=seed)
        vconfig, partition = harness.build_problem(harness.validate_config(cfg))
        factors = build_factors(vconfig, partition)
        t = data.draw(st.integers(1, n_steps - 1), label="time_index")
        assert_reuse_matches_fresh(factors, vconfig,
                                   slab_problem(vconfig, t, seed), partition)


class TestNonFinite:
    def test_background_holding_inf_raises(self, correlated_problem):
        _, vconfig, partition = correlated_problem
        u0 = vconfig.u0.copy()
        u0[-1] = np.inf
        with pytest.raises(var_solver.VarSolverError,
                           match="subdomain 1: the background is not finite"):
            run_own(dataclasses.replace(vconfig, u0=u0), partition, tol=1e-10,
                    max_iters=5)

    def test_nan_in_last_block_is_not_dropped(self, correlated_problem):
        # a max() over the blocks would return block 0's finite values
        _, vconfig, partition = correlated_problem
        start = start_of(build_factors(vconfig, partition), vconfig)
        c = start.c.copy()
        c[-1] = np.nan
        with pytest.raises(var_solver.VarSolverError,
                           match="subdomain 1: Schwarz CG step 1 .*right-hand "
                                 "side c is not finite"):
            mps_sweep(with_rhs(start, c))

    def test_overflowing_local_system_names_sigma_b(self):
        cfg = dataclasses.replace(harness.ExperimentConfig(), np=16, n_steps=4,
                                  nobs=4, sigma_b=1e153)
        vconfig, partition = harness.build_problem(harness.validate_config(cfg))
        with pytest.raises(var_solver.VarSolverError,
                           match="sigma_b = 1e[+]153 .* subdomain 0 in float64$"):
            build_factors(vconfig, partition)


class TestObservationTime:
    @pytest.mark.parametrize("which", ["before", "after", "float", "bool"])
    def test_time_outside_the_observations_is_rejected(self, correlated_problem,
                                                       which):
        # -1 would read the last time's observations, n_steps none at all;
        # 1.0 and True raised a bare IndexError, and in a batch with an int
        # True became the int 1
        _, vconfig, partition = correlated_problem
        n_steps = vconfig.instance.n_steps
        t, why = {"before": (-1, rf"is outside \[0, {n_steps}\)"),
                  "after": (n_steps, rf"is outside \[0, {n_steps}\)"),
                  "float": (1.0, "is not an integer"),
                  "bool": (True, "is not an integer")}[which]
        plan = build_factors(vconfig, partition)
        match = rf"^observation time {t} {why}$"
        with pytest.raises(var_solver.VarSolverError, match=match):
            run_mps(plan, vconfig.u0, t, tol=1e-10, max_iters=5)
        with pytest.raises(var_solver.VarSolverError, match=match):
            dd_mps.run_mps_batch(plan, [vconfig.u0] * 2, (1, t), tol=1e-10,
                                 max_iters=5)

    @pytest.mark.parametrize("bad, why", [
        (True, "is not an integer"), (1.0, "is not an integer"),
        (3, r"is outside \[0, 3\)")])
    def test_bad_time_in_the_middle_of_a_batch_is_named(
            self, correlated_problem, bad, why):
        # a batch of plain in-range ints skips the per-time loop; one bad
        # time anywhere sends it back there, to be named
        _, vconfig, partition = correlated_problem
        plan = build_factors(vconfig, partition)
        times = (1, 2, bad, 0, 1)
        with pytest.raises(var_solver.VarSolverError,
                           match=rf"^observation time {bad} {why}$"):
            dd_mps.run_mps_batch(plan, [vconfig.u0] * len(times), times,
                                 tol=1e-10, max_iters=5)

    def test_first_bad_time_is_named(self, correlated_problem):
        _, vconfig, partition = correlated_problem
        plan = build_factors(vconfig, partition)
        with pytest.raises(var_solver.VarSolverError,
                           match=r"^observation time -1 is outside \[0, 3\)$"):
            plan.bind([vconfig.u0] * 3, [2, -1, True])

    def test_numpy_integer_times_are_accepted(self, correlated_problem):
        _, vconfig, partition = correlated_problem
        plan = build_factors(vconfig, partition)
        plain = plan.bind([vconfig.u0] * 3, [0, 1, 2])
        mixed = plan.bind([vconfig.u0] * 3, [0, np.int64(1), np.int32(2)])
        assert plain.t.tolist() == mixed.t.tolist() == [0, 1, 2]
        assert plain.c.tobytes() == mixed.c.tobytes()

def textbook_cg(slab, systems, max_iters, tol):
    """Preconditioned CG as first written: A applied from S = V[obs], one
    cho_solve per block summed into z, dot products with @.  Yields
    (w, residual, eq_residual, patched) per step, then the true residual."""
    t = slab.time_index
    ix = slab.observations.obs
    V = slab.covpair.V
    S = V[ix]
    rinv = 1.0 / slab.covpair.sigma_r**2

    def apply_A(p):
        return slab.lam * p + S.T @ (rinv * (S @ p))

    c = S.T @ (rinv * (slab.observations.v[t] - slab.u0[ix]))
    scale = 1.0 + np.abs(c).max()
    w, r, p, rz = np.zeros(c.size), c, None, None
    yield w, np.inf, np.abs(r).max() / scale, slab.u0 + V @ w
    for n in range(max_iters):
        if np.abs(r).max() / scale <= tol:
            break
        z = np.zeros(c.size)
        for s in systems:
            z[s.indices] += scipy.linalg.cho_solve(s.chol, r[s.indices])
        rz_new = r @ z
        p = z if n == 0 else z + (rz_new / rz) * p
        rz = rz_new
        q = apply_A(p)
        step = (rz / (p @ q)) * p
        w, r = w + step, r - (rz / (p @ q)) * q
        yield w, np.abs(step).max(), np.abs(r).max() / scale, slab.u0 + V @ w
    yield np.abs(c - apply_A(w)).max()


class TestSweepMatchesTextbook:
    # Small blocks, strong coupling
    @example(n_grid=16, n_sub=6, overlap=1, L=2.0, velocity=1.0, lam=0.05,
             max_sweeps=12, seed=0)
    @example(n_grid=24, n_sub=8, overlap=2, L=2.5, velocity=-1.0, lam=0.05,
             max_sweeps=12, seed=2)
    # sweep_heavy's layout: blocks of 10 and 12 points
    @example(n_grid=64, n_sub=8, overlap=4, L=2.0, velocity=1.0, lam=0.05,
             max_sweeps=12, seed=2025)
    # blocks of 5 to 8 points, each point in up to three blocks
    @example(n_grid=17, n_sub=5, overlap=4, L=2.0, velocity=1.0, lam=0.05,
             max_sweeps=12, seed=1)
    # no overlap
    @example(n_grid=32, n_sub=4, overlap=0, L=2.0, velocity=-1.0, lam=0.05,
             max_sweeps=12, seed=3)
    # one-point blocks
    @example(n_grid=8, n_sub=8, overlap=0, L=1.0, velocity=1.0, lam=1.0,
             max_sweeps=12, seed=4)
    # a single block
    @example(n_grid=20, n_sub=1, overlap=0, L=2.0, velocity=1.0, lam=0.05,
             max_sweeps=12, seed=5)
    @seed(2306)
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n_grid=st.integers(8, 64), n_sub=st.integers(1, 8),
           overlap=st.integers(0, 4),
           L=st.one_of(st.just(0.0), st.floats(0.5, 3.0)),
           velocity=st.sampled_from([1.0, -1.0]),
           lam=st.sampled_from([1.0, 0.05]),
           max_sweeps=st.integers(0, 12), seed=st.integers(0, 2**16))
    def test_sweep_is_bitwise_the_textbook_sweep(self, n_grid, n_sub, overlap, L,
                                                 velocity, lam, max_sweeps,
                                                 seed):
        assume(n_sub == 1 or overlap * (n_sub - 1) < n_grid)
        cfg = dataclasses.replace(harness.ExperimentConfig(), np=n_grid,
                                  n_steps=3, nobs=max(1, n_grid // 4),
                                  n_sub=n_sub, overlap=overlap, L=L,
                                  velocity=velocity, lam=lam, seed=seed)
        vconfig, partition = harness.build_problem(harness.validate_config(cfg))
        slab = slab_problem(vconfig, 1, seed)
        factors = build_factors(vconfig, partition)
        tol = 1e-10
        *steps, true = textbook_cg(slab, systems_for(slab, partition),
                                   max_sweeps, tol)

        iterate = start_of(factors, slab)
        for n, (w, residual, eq_res, patched) in enumerate(steps):
            if n:
                iterate = mps_sweep(iterate)
            assert iterate.n == n
            np.testing.assert_array_equal(iterate.w, w)
            assert iterate.residual == residual
            assert iterate.eq_residual == eq_res
            np.testing.assert_array_equal(iterate.patched, patched)
        assert dap_residual(iterate) == true

        it, hist = run_mps(factors, slab.u0, slab.time_index, tol=tol,
                           max_iters=max_sweeps)
        w, residual, eq_res, patched = steps[-1]
        np.testing.assert_array_equal(it.w, w)
        np.testing.assert_array_equal(it.patched, patched)
        assert hist.residual == residual
        assert hist.eq_residual == true / iterate.scale
        assert hist.n_sweeps == len(steps) - 1
        assert hist.converged == (eq_res <= tol)
        assert hist.eps_mps == factors.v_norm * true / lam


def indexed_problem(cfg, ix):
    """cfg's problem observing the grid points ix at every time."""
    vconfig, partition = harness.build_problem(harness.validate_config(cfg))
    obs = testbed.build_observations(vconfig.instance, vconfig.covpair,
                                     ix, vconfig.observations.u_truth,
                                     seed=cfg.seed)
    return dataclasses.replace(vconfig, observations=obs), partition


def fitted_background(vconfig, t, scale, noise):
    """u0 moved so that its innovation at time t is -scale * noise there:
    the smaller the scale, the fewer steps the solve takes."""
    u0 = vconfig.u0 + noise
    idx = vconfig.observations.obs
    u0[idx] = vconfig.observations.v[t] + scale * noise[idx]
    return u0


def solve_batch(backgrounds, times, solve):
    """run_mps_batch under run_mps's keyword arguments `solve` (plan, tol,
    max_iters), and the final iterate and histories of the CG loop the two
    share."""
    args = (solve["plan"], backgrounds, times, solve["tol"], solve["max_iters"])
    return (*dd_mps.run_mps_batch(*args), dd_mps._cg_solve(*args))


def assert_column_is_solo(batch, j, background, time, solve):
    """Column j of a batched solve (solve_batch) equals the solve of
    `background` at `time` alone, bit for bit: its analysis row, its
    history, and its iterate in the batch's final arrays."""
    states, hists, (final, final_hists) = batch
    it, solo = run_mps(background=background, time=time, **solve)
    np.testing.assert_array_equal(states[j], it.patched)
    # all five final values, floats compared exactly
    assert hists[j] == solo
    col, hist = final.take(j), final_hists[j]
    assert hist == solo
    for name in ("w", "r", "patched"):
        np.testing.assert_array_equal(getattr(col, name), getattr(it, name))
    assert col.n == it.n == solo.n_sweeps
    assert (col.residual, col.eq_residual) == (it.residual, it.eq_residual)


def staggered_problem():
    """sweep_heavy's layout, where CG takes about a dozen steps."""
    cfg = dataclasses.replace(harness.ExperimentConfig(), np=64, n_sub=8,
                              overlap=4, nobs=16, L=2.0, lam=0.05, n_steps=2)
    return harness.build_problem(cfg)


def staggered_columns():
    """staggered_problem's plan, five backgrounds at time 1 whose solves
    stop at different steps, one at the start and one out of steps, and
    run_mps's keyword arguments."""
    vconfig, partition = staggered_problem()
    factors = build_factors(vconfig, partition)
    rng = np.random.default_rng(0)
    backgrounds = [fitted_background(
        vconfig, 1, scale, rng.standard_normal(vconfig.u0.size))
        for scale in (1.0, 0.0, 1e-6, 1e-3, 10.0)]
    return factors, backgrounds, dict(plan=factors, tol=1e-10, max_iters=10)


class TestBatchMatchesSolo:
    @example(n_grid=12, n_sub=4, overlap=2, L=2.0, velocity=1.0, lam=0.05,
             max_sweeps=6, seed=5, scales=[1e-7, 1.0, 30.0, 0.0, 1e-4],
             repeats=[3, 1], layout="random")
    # blocks of 5, 6 and 7 points, each point in up to two blocks
    @example(n_grid=17, n_sub=5, overlap=3, L=2.0, velocity=-1.0, lam=0.05,
             max_sweeps=24, seed=7, scales=[1e-9, 1.0, 30.0, 1e-4],
             repeats=[0, 2], layout="stride")
    @seed(2307)
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(n_grid=st.sampled_from([12, 17]), n_sub=st.integers(1, 5),
           overlap=st.integers(0, 3),
           L=st.one_of(st.just(0.0), st.floats(0.5, 3.0)),
           velocity=st.sampled_from([1.0, -1.0]),
           lam=st.sampled_from([1.0, 0.05]),
           max_sweeps=st.integers(0, 24),
           seed=st.integers(0, 2**16),
           scales=st.lists(st.sampled_from([0.0, 1e-9, 1e-7, 1e-4, 1.0, 30.0]),
                           min_size=1, max_size=6, unique=True),
           repeats=st.lists(st.integers(0, 5), max_size=6),
           layout=st.sampled_from(["stride", "random"]))
    def test_batched_columns_are_bitwise_solo_solves(
            self, n_grid, n_sub, overlap, L, velocity, lam, max_sweeps, seed,
            scales, repeats, layout):
        assume(n_sub == 1 or overlap * (n_sub - 1) < n_grid)
        cfg = dataclasses.replace(harness.ExperimentConfig(), np=n_grid,
                                  n_steps=5,
                                  nobs=4, n_sub=n_sub, overlap=overlap, L=L,
                                  velocity=velocity, lam=lam,
                                  obs_layout=layout, seed=seed)
        vconfig, partition = harness.build_problem(harness.validate_config(cfg))
        factors = build_factors(vconfig, partition)
        # a pool of backgrounds whose innovations differ in scale, so columns
        # stop at different steps; each once, some again, shuffled, and each
        # at a time of its own: every column reads its own time's v
        rng = np.random.default_rng(seed)
        pool = [(scale, rng.standard_normal(vconfig.u0.size)) for scale in scales]
        columns = rng.permutation(list(range(len(pool)))
                                  + [p % len(pool) for p in repeats])
        col_times = rng.integers(1, 5, size=len(columns)).tolist()
        backgrounds = [fitted_background(vconfig, t, *pool[p])
                       for t, p in zip(col_times, columns)]
        solve = dict(plan=factors, tol=1e-10, max_iters=max_sweeps)
        batch = solve_batch(backgrounds, col_times, solve)
        assert len(batch[0]) == len(batch[1]) == len(columns)
        for j, (u0, t) in enumerate(zip(backgrounds, col_times)):
            assert_column_is_solo(batch, j, u0, t, solve)

    def test_columns_stop_at_their_own_sweep(self):
        factors, backgrounds, solve = staggered_columns()
        batch = solve_batch(backgrounds, [1] * 5, solve)
        states, hists, (final, _) = batch
        sweeps = [h.n_sweeps for h in hists]
        # some columns converge and leave, one at the start, one runs out
        assert len(set(sweeps)) > 2
        assert (sweeps[1], hists[1].converged) == (0, True)
        assert [h.converged for h in hists].count(False) >= 1
        # every column has one final iterate, at its own step
        assert final.n.tolist() == sweeps
        for j, u0 in enumerate(backgrounds):
            assert_column_is_solo(batch, j, u0, 1, solve)
            # the serial chain's solve, through parareal's binding
            it, hist = parareal.run_mps(factors, u0, 1, 1e-10, 10)
            assert it.patched.tobytes() == states[j].tobytes()
            assert hist == hists[j]

    def test_broken_down_column_is_its_solo_solve(self, correlated_problem):
        # at tol = 1e-300 one column breaks down (r.z = 0) and leaves the
        # batch unconverged; one whose innovation is 0 converges at the start
        _, vconfig, partition = correlated_problem
        factors = build_factors(vconfig, partition)
        rng = np.random.default_rng(1)
        backgrounds = [fitted_background(
            vconfig, 1, scale, rng.standard_normal(vconfig.u0.size))
            for scale in (1.0, 0.0)]
        solve = dict(plan=factors, tol=1e-300, max_iters=500)
        batch = solve_batch(backgrounds, [1, 1], solve)
        states, hists, _ = batch
        assert [h.converged for h in hists] == [False, True]
        assert 0 < hists[0].n_sweeps < 500 and hists[1].n_sweeps == 0
        assert np.isfinite(states).all()
        for j, u0 in enumerate(backgrounds):
            assert_column_is_solo(batch, j, u0, 1, solve)

    def test_non_finite_background_names_its_time(self, correlated_problem):
        _, vconfig, partition = correlated_problem
        u0 = vconfig.u0.copy()
        u0[0] = np.nan
        with pytest.raises(var_solver.VarSolverError,
                           match="subdomain 0: the background is not finite "
                                 "at time 2"):
            dd_mps.run_mps_batch(build_factors(vconfig, partition),
                                 [vconfig.u0, u0], (1, 2), tol=1e-10,
                                 max_iters=5)

    def test_non_finite_column_names_its_subdomain_and_time(self,
                                                             correlated_problem):
        # column 1's last block is the only non-finite one; max() over the
        # columns' first blocks would not see it
        _, vconfig, partition = correlated_problem
        factors = build_factors(vconfig, partition)
        start = factors.bind([vconfig.u0] * 3, (1, 2, 1))
        c = start.c.copy()
        c[1, -1] = np.nan
        with pytest.raises(var_solver.VarSolverError,
                           match="subdomain 1: Schwarz CG step 1 at time 2 "
                                 ".*right-hand side c is not finite"):
            mps_sweep(with_rhs(start, c))


def spy_calls(monkeypatch, plan):
    """Count, from now on, the loop's calls: mps_sweep, dap_residual,
    _cg_solve, each block solve (_potrs) and each analysis product (a
    gemv_rows call on plan.V)."""
    calls = collections.Counter()

    def spy(name, counts=lambda *args: True):
        fn = getattr(dd_mps, name)

        def counted(*args, **kwargs):
            calls[name] += counts(*args)
            return fn(*args, **kwargs)
        monkeypatch.setattr(dd_mps, name, counted)

    for name in ("mps_sweep", "dap_residual", "_cg_solve", "_potrs"):
        spy(name)
    spy("gemv_rows", lambda A, x: A is plan.V)
    return calls


class TestLoopCost:
    def test_a_batch_steps_its_arithmetic_and_finishes_once(self,
                                                             monkeypatch):
        # columns leave the stepped arrays at different steps, yet the true
        # residual, the analysis and the histories are formed once
        factors, backgrounds, solve = staggered_columns()
        calls = spy_calls(monkeypatch, factors)
        states, hists = dd_mps.run_mps_batch(factors, backgrounds, [1] * 5,
                                             solve["tol"], solve["max_iters"])
        steps = max(h.n_sweeps for h in hists)
        assert len({h.n_sweeps for h in hists}) > 2
        assert calls == {"_cg_solve": 1, "mps_sweep": steps,
                         "_potrs": len(factors.blocks) * steps,
                         "dap_residual": 1, "gemv_rows": 1}

    def test_run_mps_is_the_batch_of_one(self, monkeypatch):
        factors, backgrounds, solve = staggered_columns()
        calls = spy_calls(monkeypatch, factors)
        it, hist = run_mps(background=backgrounds[0], time=1, **solve)
        assert it.patched is it.patched
        assert calls == {"_cg_solve": 1, "mps_sweep": hist.n_sweeps,
                         "_potrs": len(factors.blocks) * hist.n_sweeps,
                         "dap_residual": 1, "gemv_rows": 1}

    def test_a_step_builds_one_slotted_iterate(self):
        factors, backgrounds, _ = staggered_columns()
        vconfig, partition = staggered_problem()
        it = mps_sweep(factors.bind(backgrounds[2:], [1] * 3))
        assert type(it) is dd_mps.CgIterate
        assert not dataclasses.is_dataclass(it) and not hasattr(it, "__dict__")
        # each block's bounds are Python ints, sliced without an index array
        for i, *_, lo, hi in factors.blocks:
            f = assemble_local_system(i, partition, vconfig)
            assert type(lo) is type(hi) is int
            assert (i, lo, hi) == (f.i, f.indices[0], f.indices[-1] + 1)
            np.testing.assert_array_equal(f.indices, np.arange(lo, hi))


def dense_H(ix, n_grid):
    """The textbook observation operator: a dense 0/1 row selection."""
    H = np.zeros((len(ix), n_grid))
    H[np.arange(len(ix)), ix] = 1.0
    return H


def dense_local_reference(vconfig, partition, i, backgrounds, times):
    """S = H V, block i's A_loc and every column's c by the textbook
    formula: a dense 0/1 observation matrix H, a dense R = sigma_r^2 I and
    inv(R)."""
    obs, V = vconfig.observations, vconfig.covpair.V
    idx = partition.index_sets[i]
    ix = obs.obs
    H = dense_H(ix, vconfig.instance.np)
    R = vconfig.covpair.sigma_r**2 * np.eye(len(ix))
    S = H @ V
    Rinv = scipy.linalg.inv(R)
    A = S[:, idx].T @ Rinv @ S[:, idx] + vconfig.lam * np.eye(idx.size)
    c = [S.T @ (Rinv @ (obs.v[t] - H @ u_b))
         for u_b, t in zip(backgrounds, times)]
    return S, 0.5 * (A + A.T), c


class TestObservationsAsIndices:
    @example(n_grid=9, n_sub=3, overlap=2, L=2.0, sigma_r=0.05, lam=1.0,
             base=[4, 0, 7], duplicate=True, n_cols=8, seed=1)
    @seed(2308)
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n_grid=st.integers(6, 20), n_sub=st.integers(1, 3),
           overlap=st.integers(0, 2), L=st.sampled_from([0.0, 2.0]),
           sigma_r=st.sampled_from([0.05, 0.2, 0.3, 1e-4]),
           lam=st.sampled_from([1.0, 0.05]),
           base=st.lists(st.integers(0, 19), min_size=1, max_size=4),
           duplicate=st.booleans(), n_cols=st.integers(1, 8),
           seed=st.integers(0, 2**16))
    def test_batch_is_bitwise_the_dense_formula(self, n_grid, n_sub, overlap, L,
                                                sigma_r, lam, base, duplicate,
                                                n_cols, seed):
        # batched c must keep each column's solo bits: a d left F-ordered
        # sends the stacked gemv down another path
        assume(n_sub == 1 or overlap * (n_sub - 1) < n_grid)
        ix = [p % n_grid for p in base] + ([base[0] % n_grid] if duplicate else [])
        cfg = dataclasses.replace(harness.ExperimentConfig(), np=n_grid,
                                  n_steps=4, nobs=1, n_sub=n_sub,
                                  overlap=overlap, L=L, sigma_r=sigma_r,
                                  lam=lam, seed=seed)
        vconfig, partition = indexed_problem(cfg, ix)
        rng = np.random.default_rng(seed)
        times = rng.integers(0, 4, size=n_cols).tolist()
        backgrounds = vconfig.u0 + rng.standard_normal((n_cols, n_grid))
        start = build_factors(vconfig, partition).bind(backgrounds, times)
        for f in (assemble_local_system(i, partition, vconfig)
                  for i in range(partition.n_sub)):
            S, A_loc, c = dense_local_reference(vconfig, partition, f.i,
                                                backgrounds, times)
            np.testing.assert_array_equal(start.plan.S, S)
            np.testing.assert_array_equal(f.A_loc, A_loc)
            for col in range(n_cols):
                np.testing.assert_array_equal(start.c[col], c[col])

    @pytest.mark.parametrize("n_sub", [1, 2])
    def test_duplicate_index_solve_matches_dense_reference(self, n_sub):
        # a repeated index observes its point twice, as a repeated row of H
        cfg = dataclasses.replace(harness.ExperimentConfig(), np=12, n_steps=3,
                                  nobs=1, n_sub=n_sub, overlap=2)
        ix = [2, 9, 2, 5, 9]
        vconfig, partition = indexed_problem(cfg, ix)
        slab = slab_problem(vconfig, 1, seed=0)
        it, hist = run_own(slab, partition, tol=1e-13, max_iters=200)
        assert hist.converged

        H = dense_H(ix, 12)
        Rinv = np.linalg.inv(vconfig.covpair.sigma_r**2 * np.eye(len(ix)))
        Binv = np.linalg.inv(vconfig.covpair.B)
        u = np.linalg.solve(vconfig.lam * Binv + H.T @ Rinv @ H,
                            vconfig.lam * Binv @ slab.u0
                            + H.T @ Rinv @ vconfig.observations.v[1])
        np.testing.assert_allclose(it.patched, u, rtol=0, atol=1e-9)
        np.testing.assert_allclose(
            var_solver.solve_var_direct(slab, "threeD").u_da, u, rtol=0,
            atol=1e-9)


class TestOracleEquivalence:
    # overlap 0 and lambda 0.05: configs where stationary restricted additive
    # Schwarz diverges or stalls
    @example(np_=32, L=4.0, n_sub=4, overlap=0, lam=0.05, layout="stride",
             seed=1)
    @example(np_=64, L=4.0, n_sub=8, overlap=0, lam=0.05, layout="random",
             seed=2)
    @example(np_=64, L=2.0, n_sub=2, overlap=0, lam=0.05, layout="stride",
             seed=3)
    # an oracle that formed B^-1 was 1.3e-6 from the analysis here
    @example(np_=64, L=4.0, n_sub=2, overlap=0, lam=0.05, layout="random",
             seed=1)
    @seed(2309)
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(np_=st.sampled_from([32, 64]),
           L=st.sampled_from([0.0, 1.0, 2.0, 4.0]),
           n_sub=st.sampled_from([2, 4, 8]), overlap=st.sampled_from([0, 1, 4]),
           lam=st.sampled_from([0.05, 1.0]),
           layout=st.sampled_from(["stride", "random"]),
           seed=st.integers(0, 2**16))
    def test_fine_solve_is_the_3dvar_analysis(self, np_, L, n_sub, overlap,
                                              lam, layout, seed):
        cfg = dataclasses.replace(harness.ExperimentConfig(), np=np_,
                                  n_steps=2, nobs=np_ // 4, L=L, n_sub=n_sub,
                                  overlap=overlap, lam=lam, obs_layout=layout,
                                  seed=seed)
        vconfig, partition = harness.build_problem(harness.validate_config(cfg))
        slab = dataclasses.replace(vconfig, u0=vconfig.instance.M @ vconfig.u0,
                                   time_index=1)
        plan = build_factors(slab, partition)
        it, hist = run_mps(plan, slab.u0, 1, tol=1e-10, max_iters=200)
        direct = var_solver.solve_var_direct(slab, "threeD").u_da
        assert hist.converged
        # The bound is the two solves' own accuracy.  CG stops with the true
        # residual r = c - A w, and eps_mps = ||V||_inf max|r| / lam.  Since
        # A >= lam I, the control error is |w - w*|_2 <= |r|_2 / lam
        # <= sqrt(np) max|r| / lam, which V maps to at most sqrt(np) eps_mps
        # in the max-norm.  The oracle's Cholesky solve has a forward error of
        # order np eps kappa_2(A) |w*| in the control, which V maps by
        # ||V||_inf, and forming u_b + V w rounds by
        # np eps (|u_b| + ||V||_inf |w|).  The gap stays below a tenth of the
        # sum on every draw and on a wider grid of configs.
        A = plan.lam * np.eye(np_) + plan.rinv * plan.S.T @ plan.S
        lam_min, *_, lam_max = np.linalg.eigvalsh(A)
        vw_max = plan.v_norm * np.abs(it.w).max()
        roundoff = np_ * np.finfo(float).eps * (
            (lam_max / lam_min + 1.0) * vw_max + np.abs(slab.u0).max())
        assert np.abs(it.patched - direct).max() \
            <= np.sqrt(np_) * hist.eps_mps + roundoff
