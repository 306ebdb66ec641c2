import dataclasses
import gc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pintda import dd_mps, harness, parareal, testbed, var_solver
from pintda.dd_mps import (PartitionError, assemble_local_system,
                           build_factors, build_restrictions, dap_residual,
                           initial_iterate, local_cost, local_grad, mps_sweep,
                           partition_domain, recover_and_patch, run_mps)


class TestPartitionDomain:
    def test_single_subdomain_is_degenerate(self):
        part = partition_domain(10, 1, 0)
        np.testing.assert_array_equal(part.index_sets[0], np.arange(10))
        assert part.interfaces == {}

    def test_two_blocks_of_eight_enumerated(self):
        part = partition_domain(8, 2, 2)
        np.testing.assert_array_equal(part.index_sets[0], [0, 1, 2, 3, 4])
        np.testing.assert_array_equal(part.index_sets[1], [3, 4, 5, 6, 7])
        assert sorted(part.interfaces) == [(0, 1), (1, 0)]
        np.testing.assert_array_equal(part.interfaces[(0, 1)], [4])
        np.testing.assert_array_equal(part.interfaces[(1, 0)], [3])

    @pytest.mark.parametrize("n_grid,n_sub,overlap", [
        (8, 2, 2), (32, 4, 2), (17, 3, 1), (20, 5, 2), (9, 2, 0),
    ])
    def test_offset_identity_and_cover(self, n_grid, n_sub, overlap):
        part = partition_domain(n_grid, n_sub, overlap)
        union = np.unique(np.concatenate(part.index_sets))
        np.testing.assert_array_equal(union, np.arange(n_grid))
        sets = [set(idx.tolist()) for idx in part.index_sets]
        # an interface for exactly the intersecting pairs
        assert set(part.interfaces) == {(i, j) for i in range(n_sub)
                                        for j in range(n_sub)
                                        if i != j and sets[i] & sets[j]}
        for (i, j), gamma in part.interfaces.items():
            # Gamma_ij: the endpoints of block i inside block j
            idx = part.index_sets[i]
            ends = sorted({int(idx[0]), int(idx[-1])} & sets[j])
            np.testing.assert_array_equal(gamma, ends)
            assert set(gamma.tolist()) <= sets[i] & sets[j]

    def test_adjacent_blocks_share_exactly_overlap(self):
        part = partition_domain(32, 4, 2)
        for i in range(3):
            shared = np.intersect1d(part.index_sets[i], part.index_sets[i + 1])
            assert len(shared) == 2

    @pytest.mark.parametrize("args", [(8, 0, 0), (8, 2, -1), (8, 9, 0), (8, 4, 3)])
    def test_infeasible_requests_rejected(self, args):
        with pytest.raises(PartitionError):
            partition_domain(*args)


class TestRestrictions:
    @pytest.mark.parametrize("n_grid,n_sub,overlap", [(8, 2, 2), (64, 4, 2)])
    def test_selection_rows_orthonormal(self, n_grid, n_sub, overlap):
        part = partition_domain(n_grid, n_sub, overlap)
        restr = build_restrictions(part)
        for i in range(n_sub):
            R = restr.dense(i)
            np.testing.assert_array_equal(R @ R.T, np.eye(len(part.index_sets[i])))
            P = R.T @ R
            np.testing.assert_array_equal(P @ P, P)
            diag = np.zeros(n_grid)
            diag[part.index_sets[i]] = 1.0
            np.testing.assert_array_equal(np.diag(P), diag)


def systems_for(vconfig, partition, rho=1.0):
    restr = build_restrictions(partition)
    return [assemble_local_system(i, partition, restr, vconfig, rho=rho)
            for i in range(partition.n_sub)]


class TestAssembleLocalSystem:
    def test_empty_problem_reduces_to_identity(self):
        # no observations inside the block and no neighbors
        cfg = dataclasses.replace(harness.ExperimentConfig(), np=8, n_steps=2,
                                  nobs=1, n_sub=1, overlap=0)
        vconfig, partition = harness.build_problem(cfg)
        empty_obs = dataclasses.replace(
            vconfig.observations, nobs=0,
            obs_indices=tuple(np.empty(0, dtype=int) for _ in range(2)),
            v=tuple(np.zeros(0) for _ in range(2)))
        vempty = dataclasses.replace(vconfig, observations=empty_obs)
        sys0 = systems_for(vempty, partition)[0]
        np.testing.assert_array_equal(sys0.A_loc, np.eye(8))
        np.testing.assert_array_equal(sys0.c_loc, np.zeros(8))
        assert sys0.coupling == {}

    def test_degenerate_block_matches_conjugated_hessian(self, bench_problem):
        vconfig, _ = bench_problem
        partition = partition_domain(vconfig.instance.np, 1, 0)
        sys0 = systems_for(vconfig, partition)[0]
        V = vconfig.covpair.V
        (hessian,) = var_solver.hessian_condition(vconfig, "threeD").blocks
        half_hessian = 0.5 * hessian
        np.testing.assert_allclose(sys0.A_loc, V.T @ half_hessian @ V, atol=1e-9)

    def test_local_matrices_symmetric_spd(self, correlated_problem):
        _, vconfig, partition = correlated_problem
        for sys_i in systems_for(vconfig, partition):
            assert np.abs(sys_i.A_loc - sys_i.A_loc.T).max() \
                <= 1e-12 * np.abs(sys_i.A_loc).max()
            assert np.linalg.eigvalsh(sys_i.A_loc).min() > 0

    def test_local_gradient_matches_central_differences(self, correlated_problem):
        _, vconfig, partition = correlated_problem
        systems = systems_for(vconfig, partition)
        rng = np.random.default_rng(3)
        for sys_i in systems:
            others = {j: rng.standard_normal(len(partition.index_sets[j]))
                      for j in sys_i.coupling}
            for _ in range(20):
                w = rng.standard_normal(sys_i.indices.size)
                g = local_grad(w, others, sys_i)
                fd = np.empty_like(w)
                eps = 1e-6
                for m in range(w.size):
                    e = np.zeros_like(w)
                    e[m] = eps
                    fd[m] = (local_cost(w + e, others, sys_i)
                             - local_cost(w - e, others, sys_i)) / (2 * eps)
                assert np.max(np.abs(g - fd)) <= 1e-6 * (1 + np.max(np.abs(g)))

    def test_rho_zero_decouples(self, correlated_problem):
        _, vconfig, partition = correlated_problem
        for sys_i in systems_for(vconfig, partition, rho=0.0):
            for C in sys_i.coupling.values():
                np.testing.assert_array_equal(C, np.zeros_like(C))


class TestSweepAndPatch:
    def test_single_block_sweep_hits_global_solution(self, bench_problem):
        vconfig, _ = bench_problem
        partition = partition_domain(vconfig.instance.np, 1, 0)
        systems = systems_for(vconfig, partition)
        it = mps_sweep(initial_iterate(systems))
        direct = var_solver.solve_var_direct(vconfig, "threeD")
        w_direct = np.linalg.solve(vconfig.covpair.V, direct.u_da - vconfig.u0)
        np.testing.assert_allclose(it.w[0], w_direct, atol=1e-9)
        np.testing.assert_allclose(it.patched, direct.u_da, atol=1e-9)

    def test_sweep_order_independent(self, correlated_problem):
        _, vconfig, partition = correlated_problem
        systems = systems_for(vconfig, partition)
        # the second sweep reads nonzero neighbor data
        fwd = mps_sweep(mps_sweep(initial_iterate(systems)))
        rev = mps_sweep(mps_sweep(initial_iterate(list(reversed(systems)))))
        for w_fwd, w_rev in zip(fwd.w, rev.w, strict=True):
            np.testing.assert_array_equal(w_fwd, w_rev)

    def test_fixed_point_satisfies_local_systems(self, correlated_problem):
        _, vconfig, partition = correlated_problem
        systems = systems_for(vconfig, partition)
        it, hist = run_mps(vconfig, partition, tol=1e-13, max_iters=200)
        assert hist.converged
        assert dap_residual(it.w, systems) <= 1e-10
        for s in systems:
            g = local_grad(it.w[s.i], {j: it.w[j] for j in s.coupling}, s)
            assert np.max(np.abs(g)) <= 1e-10 * (1 + np.abs(s.c_loc).max())

    def test_patch_single_block(self, bench_problem):
        vconfig, _ = bench_problem
        partition = partition_domain(vconfig.instance.np, 1, 0)
        systems = systems_for(vconfig, partition)
        it = mps_sweep(initial_iterate(systems))
        expected = vconfig.u0 + vconfig.covpair.V @ it.w[0]
        np.testing.assert_array_equal(recover_and_patch(it), expected)

    def test_patch_consistent_overlap(self, bench_problem):
        # uncorrelated B: local states from one global control agree on overlaps
        vconfig, partition = bench_problem
        systems = systems_for(vconfig, partition)
        rng = np.random.default_rng(8)
        w_glob = rng.standard_normal(vconfig.instance.np)
        it = dataclasses.replace(initial_iterate(systems), x=np.concatenate(
            [w_glob[idx] for idx in partition.index_sets]))
        owner = recover_and_patch(it, rule="owner")
        averaged = recover_and_patch(it, rule="average")
        np.testing.assert_allclose(owner, averaged, rtol=1e-12, atol=1e-14)

    def test_patching_totality(self):
        part = partition_domain(32, 4, 2)
        masks = dd_mps._owner_masks(part)
        counts = np.zeros(32, dtype=int)
        for idx, mask in zip(part.index_sets, masks):
            counts[idx[mask]] += 1
        np.testing.assert_array_equal(counts, np.ones(32, dtype=int))


class TestRunMps:
    def test_single_block_converges_in_one_sweep(self, bench_problem):
        vconfig, _ = bench_problem
        partition = partition_domain(vconfig.instance.np, 1, 0)
        it, hist = run_mps(vconfig, partition, tol=1e-10, max_iters=10)
        assert hist.converged
        assert hist.n_sweeps == 1

    @pytest.mark.parametrize("n_sub", [2, 4])
    def test_benchmark_reaches_oracle(self, bench_problem, n_sub):
        vconfig, _ = bench_problem
        partition = partition_domain(vconfig.instance.np, n_sub, 2)
        it, hist = run_mps(vconfig, partition, tol=1e-10, max_iters=50)
        direct = var_solver.solve_var_direct(vconfig, "threeD")
        rel = np.abs(it.patched - direct.u_da).max() / np.abs(direct.u_da).max()
        assert hist.converged
        assert rel <= 1e-6
        # measured on the benchmark problem, frozen as a regression value
        assert hist.n_sweeps == 2

    def test_degenerate_matches_direct_tightly(self, bench_problem):
        vconfig, _ = bench_problem
        partition = partition_domain(vconfig.instance.np, 1, 0)
        it, _ = run_mps(vconfig, partition, tol=1e-12, max_iters=10)
        direct = var_solver.solve_var_direct(vconfig, "threeD")
        rel = np.abs(it.patched - direct.u_da).max() / np.abs(direct.u_da).max()
        assert rel <= 1e-10

    def test_iterate_diff_convergence_implies_stationarity(self, correlated_problem):
        _, vconfig, partition = correlated_problem
        systems = systems_for(vconfig, partition)
        it, hist = run_mps(vconfig, partition, tol=1e-13, max_iters=300)
        assert hist.converged
        if hist.residual <= 1e-12:
            assert dap_residual(it.w, systems) <= 1e-10

    def test_non_convergence_is_reported_not_raised(self, correlated_problem):
        _, vconfig, partition = correlated_problem
        it, hist = run_mps(vconfig, partition, tol=1e-14, max_iters=1)
        assert not hist.converged
        assert hist.n_sweeps == it.n == 1
        assert (hist.residual, hist.eq_residual) == (it.residual,
                                                     it.eq_residual)

    @pytest.mark.parametrize("max_iters", [0, 3])
    def test_eps_mps_maps_final_residual_to_state_space(self, correlated_problem,
                                                       max_iters):
        _, vconfig, partition = correlated_problem
        systems = systems_for(vconfig, partition)
        it, hist = run_mps(vconfig, partition, tol=1e-14, max_iters=max_iters)
        assert hist.n_sweeps == max_iters
        worst = max(float(np.max(np.abs(
            local_grad(it.w[s.i], {j: it.w[j] for j in s.coupling}, s))))
            for s in systems)
        v_norm = float(np.abs(vconfig.covpair.V).sum(axis=1).max())
        assert hist.eps_mps == v_norm * worst / vconfig.lam

    def test_cost_history_decreases_to_plateau(self, correlated_problem):
        _, vconfig, partition = correlated_problem
        _, hist = run_mps(vconfig, partition, tol=1e-12, max_iters=100)
        it = initial_iterate(systems_for(vconfig, partition))
        costs = []
        for _ in range(hist.n_sweeps):
            it = mps_sweep(it)
            costs.append(var_solver.eval_cost(it.patched, vconfig, "threeD"))
        assert costs[-1] <= costs[0]

    def test_average_patch_rule(self, correlated_problem):
        _, vconfig, partition = correlated_problem
        it_avg, hist = run_mps(vconfig, partition, tol=1e-12, max_iters=100,
                               patch_rule="average")
        assert hist.converged
        oracle = recover_and_patch(it_avg, rule="average")
        np.testing.assert_array_equal(it_avg.patched, oracle)
        # rejected before the first sweep, so also when no sweep runs
        for max_iters in (0, 5):
            with pytest.raises(ValueError, match="'median'"):
                run_mps(vconfig, partition, tol=1e-12, max_iters=max_iters,
                        patch_rule="median")

    def test_sweeps_keep_the_patch_rule(self):
        cfg = dataclasses.replace(harness.ExperimentConfig(), L=2.0, n_sub=4)
        vconfig, partition = harness.build_problem(cfg)
        it = initial_iterate(systems_for(vconfig, partition),
                             patch_rule="average")
        it = mps_sweep(mps_sweep(it))
        assert it.patch_rule == "average"
        average = recover_and_patch(it, rule="average")
        owner = recover_and_patch(it, rule="owner")
        assert not np.array_equal(average, owner)
        np.testing.assert_array_equal(it.patched, average)


def slab_problem(vconfig, t, seed):
    """vconfig re-posed at time t around a background unlike its own u0."""
    rng = np.random.default_rng(seed)
    background = 2.0 * vconfig.u0 + rng.standard_normal(vconfig.u0.size)
    return dataclasses.replace(vconfig, u0=background, time_index=t)


def assert_reuse_matches_fresh(factors, slab, partition, rho=1.0):
    """A solve on reused factors equals one on freshly assembled systems."""
    restr = build_restrictions(partition)
    for bound in factors.systems(slab):
        fresh = assemble_local_system(bound.i, partition, restr, slab, rho=rho)
        np.testing.assert_array_equal(bound.A_loc, fresh.A_loc)
        np.testing.assert_array_equal(bound.c_loc, fresh.c_loc)
    kwargs = dict(tol=1e-10, max_iters=30, rho=rho)
    reused, h_reused = run_mps(slab, partition, factors=factors, **kwargs)
    fresh, h_fresh = run_mps(slab, partition, **kwargs)
    np.testing.assert_array_equal(reused.patched, fresh.patched)
    assert h_reused.eps_mps == h_fresh.eps_mps
    assert h_reused.n_sweeps == h_fresh.n_sweeps


class TestFactorTable:
    def test_reused_factors_match_fresh_assembly(self, correlated_problem):
        _, vconfig, partition = correlated_problem
        factors = build_factors(vconfig, partition)
        assert_reuse_matches_fresh(factors, slab_problem(vconfig, 2, seed=4),
                                   partition)

    def test_distinct_patterns_get_distinct_factors(self):
        cfg = dataclasses.replace(harness.ExperimentConfig(), np=16, n_steps=4,
                                  nobs=4, L=1.0, n_sub=3, overlap=2)
        vconfig, partition = harness.build_problem(cfg)
        per_time = [[0, 5, 9, 13], [2, 6, 10, 14], [0, 5, 9, 13], [1, 3, 7, 15]]
        obs = testbed.build_observations(vconfig.instance, vconfig.covpair,
                                         per_time, vconfig.observations.u_truth,
                                         seed=3)
        vconfig = dataclasses.replace(
            vconfig, observations=obs, G=testbed.assemble_G(obs, vconfig.instance))
        factors = build_factors(vconfig, partition)
        # one sweep plan per pattern, built from that pattern's factors
        plans = factors.plans
        assert plans[0] is plans[2]
        assert len({id(plans[t]) for t in (0, 1, 3)}) == 3
        assert len({id(plans[t].factors) for t in (0, 1, 3)}) == 3
        assert not np.array_equal(plans[1].factors[0].A_loc,
                                  plans[3].factors[0].A_loc)
        for t in range(4):
            assert_reuse_matches_fresh(factors, slab_problem(vconfig, t, seed=t),
                                       partition)

    def test_collected_table_leaves_no_plan_behind(self):
        # the plan lives on its table: a table built where a collected one
        # stood (same shapes, other values) must not sweep on the old plan
        def problem(L, seed):
            cfg = dataclasses.replace(harness.ExperimentConfig(), np=24,
                                      n_steps=3, nobs=6, n_sub=4, overlap=2,
                                      L=L, seed=seed)
            return harness.build_problem(harness.validate_config(cfg))

        vconfig, partition = problem(2.0, 11)
        factors = build_factors(vconfig, partition)
        run_mps(slab_problem(vconfig, 1, seed=1), partition, tol=1e-10,
                max_iters=30, factors=factors)
        del factors
        gc.collect()
        vconfig, partition = problem(1.0, 12)
        assert_reuse_matches_fresh(build_factors(vconfig, partition),
                                   slab_problem(vconfig, 1, seed=2), partition)

    def test_rho_mismatch_rejected(self, correlated_problem):
        _, vconfig, partition = correlated_problem
        factors = build_factors(vconfig, partition, rho=2.0)
        with pytest.raises(ValueError, match="rho"):
            run_mps(vconfig, partition, tol=1e-10, max_iters=5, rho=1.0,
                    factors=factors)
        with pytest.raises(ValueError, match="rho"):
            parareal.serial_fine_chain(vconfig, partition, rho=1.0,
                                       factors=factors)
        with pytest.raises(ValueError, match="rho"):
            parareal.run_parareal(vconfig, partition, tol=1e-9, max_outer=2,
                                  rho=1.0, factors=factors)

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
        factors = build_factors(vconfig, partition, rho=cfg.rho_penalty)
        t = data.draw(st.integers(1, n_steps - 1), label="time_index")
        assert_reuse_matches_fresh(factors, slab_problem(vconfig, t, seed),
                                   partition, rho=cfg.rho_penalty)


class TestNonFinite:
    def test_background_holding_inf_raises(self, correlated_problem):
        _, vconfig, partition = correlated_problem
        u0 = vconfig.u0.copy()
        u0[-1] = np.inf
        with pytest.raises(var_solver.VarSolverError,
                           match="subdomain 1: the background is not finite"):
            run_mps(dataclasses.replace(vconfig, u0=u0), partition, tol=1e-10,
                    max_iters=5)

    def test_nan_in_last_block_is_not_dropped(self, correlated_problem):
        # a max() over the blocks would return block 0's finite step
        _, vconfig, partition = correlated_problem
        systems = systems_for(vconfig, partition)
        c_loc = systems[-1].c_loc.copy()
        c_loc[0] = np.nan
        systems[-1] = dataclasses.replace(systems[-1], c_loc=c_loc)
        with pytest.raises(var_solver.VarSolverError,
                           match="subdomain 1: Schwarz sweep 1 .*c_loc"):
            mps_sweep(initial_iterate(systems))

    def test_overflowing_local_system_names_sigma_b(self):
        cfg = dataclasses.replace(harness.ExperimentConfig(), np=16, n_steps=4,
                                  nobs=4, sigma_b=1e153)
        vconfig, partition = harness.build_problem(harness.validate_config(cfg))
        with pytest.raises(var_solver.VarSolverError,
                           match="sigma_b = 1e[+]153 .* subdomain 0 at time 0"):
            build_factors(vconfig, partition)


def patch_every_sweep(w, systems, rule):
    """Patched global state, written out independently of dd_mps."""
    out = np.zeros(systems[0].n_grid)
    count = np.zeros(systems[0].n_grid)
    for s, w_i in zip(systems, w):
        u_i = s.u_b_loc + s.V_loc @ w_i
        if rule == "average":
            out[s.indices] += u_i
            count[s.indices] += 1.0
        else:
            out[s.indices[s.own_mask]] = u_i[s.own_mask]
    return out / count if rule == "average" else out


def textbook_sweeps(systems, rule, max_iters, tol):
    """The Jacobi sweep as first written: cho_solve per block, every coupling
    product formed again for the residual, and a patch on every sweep.
    Yields (w, residual, abs_residual, eq_residual, patched) per sweep."""
    def worst(w):
        worst_abs = worst_rel = 0.0
        for s in systems:
            g = local_grad(w[s.i], {j: w[j] for j in s.coupling}, s)
            r = float(np.max(np.abs(g)))
            worst_abs = max(worst_abs, r)
            worst_rel = max(worst_rel, r / (1.0 + float(np.max(np.abs(s.c_loc)))))
        return worst_abs, worst_rel

    w = tuple(np.zeros(s.indices.size) for s in systems)
    yield (w, np.inf, *worst(w), patch_every_sweep(w, systems, rule))
    for _ in range(max_iters):
        new = []
        for s in systems:
            rhs = s.c_loc.copy()
            for j, C in s.coupling.items():
                rhs -= C @ w[j]
            new.append(scipy.linalg.cho_solve(s.chol, rhs))
        residual = max(float(np.max(np.abs(a - b))) for a, b in zip(new, w))
        w = tuple(new)
        abs_res, eq_res = worst(w)
        yield w, residual, abs_res, eq_res, patch_every_sweep(w, systems, rule)
        if residual <= tol or eq_res <= tol:
            return


class TestSweepMatchesTextbook:
    # Small blocks, strong coupling: the two products of a block overlap
    # enough that summing them in the other order changes the last bits.
    @example(n_grid=16, n_sub=6, overlap=1, L=2.0, velocity=1.0, patch="owner",
             lam=0.05, rho=5.0, max_sweeps=12, seed=0)
    @example(n_grid=24, n_sub=8, overlap=2, L=2.5, velocity=-1.0,
             patch="average", lam=0.05, rho=5.0, max_sweeps=12, seed=2)
    # sweep_heavy's layout: blocks of 10 and 12 points, three coupling shapes
    @example(n_grid=64, n_sub=8, overlap=4, L=2.0, velocity=1.0, patch="owner",
             lam=0.05, rho=5.0, max_sweeps=12, seed=2025)
    # blocks of 5 to 8 points, one with four neighbors
    @example(n_grid=17, n_sub=5, overlap=4, L=2.0, velocity=1.0,
             patch="average", lam=0.05, rho=5.0, max_sweeps=12, seed=1)
    # no overlap: no coupling products at all
    @example(n_grid=32, n_sub=4, overlap=0, L=2.0, velocity=-1.0,
             patch="owner", lam=0.05, rho=5.0, max_sweeps=12, seed=3)
    # one-point blocks
    @example(n_grid=8, n_sub=8, overlap=0, L=1.0, velocity=1.0, patch="owner",
             lam=1.0, rho=1.0, max_sweeps=12, seed=4)
    # a single block
    @example(n_grid=20, n_sub=1, overlap=0, L=2.0, velocity=1.0,
             patch="average", lam=0.05, rho=5.0, max_sweeps=12, seed=5)
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n_grid=st.integers(8, 64), n_sub=st.integers(1, 8),
           overlap=st.integers(0, 4),
           L=st.one_of(st.just(0.0), st.floats(0.5, 3.0)),
           velocity=st.sampled_from([1.0, -1.0]),
           patch=st.sampled_from(["owner", "average"]),
           lam=st.sampled_from([1.0, 0.05]), rho=st.sampled_from([1.0, 5.0]),
           max_sweeps=st.integers(0, 12), seed=st.integers(0, 2**16))
    def test_sweep_is_bitwise_the_textbook_sweep(self, n_grid, n_sub, overlap, L,
                                                 velocity, patch, lam, rho,
                                                 max_sweeps, seed):
        assume(n_sub == 1 or overlap * (n_sub - 1) < n_grid)
        cfg = dataclasses.replace(harness.ExperimentConfig(), np=n_grid,
                                  n_steps=3, nobs=max(1, n_grid // 4),
                                  n_sub=n_sub, overlap=overlap, L=L,
                                  velocity=velocity, lam=lam, rho_penalty=rho,
                                  patch=patch, seed=seed)
        vconfig, partition = harness.build_problem(harness.validate_config(cfg))
        slab = slab_problem(vconfig, 1, seed)
        factors = build_factors(vconfig, partition, rho=rho)
        systems = factors.systems(slab)
        tol = 1e-10
        steps = list(textbook_sweeps(systems, patch, max_sweeps, tol))

        iterate = initial_iterate(systems, patch_rule=patch)
        for n, (w, residual, abs_res, eq_res, patched) in enumerate(steps):
            if n:
                iterate = mps_sweep(iterate)
            assert iterate.n == n
            for a, b in zip(iterate.w, w):
                np.testing.assert_array_equal(a, b)
            assert iterate.residual == residual
            assert iterate.abs_residual == abs_res
            assert iterate.eq_residual == eq_res
            assert dap_residual(w, systems) == eq_res
            np.testing.assert_array_equal(iterate.patched, patched)

        it, hist = run_mps(slab, partition, tol=tol, max_iters=max_sweeps,
                           rho=rho, patch_rule=patch, factors=factors)
        w, _, abs_res, _, patched = steps[-1]
        for a, b in zip(it.w, w):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(it.patched, patched)
        assert hist.residual == steps[-1][1]
        assert hist.eq_residual == steps[-1][3]
        assert hist.n_sweeps == len(steps) - 1
        assert hist.converged == (len(steps) > 1 and (steps[-1][1] <= tol
                                                      or steps[-1][3] <= tol))
        assert hist.eps_mps == factors.v_norm * abs_res / lam


def patterned_problem(cfg, per_time):
    """cfg's problem with the observation indices per_time[t] at time t."""
    vconfig, partition = harness.build_problem(harness.validate_config(cfg))
    obs = testbed.build_observations(vconfig.instance, vconfig.covpair,
                                     per_time, vconfig.observations.u_truth,
                                     seed=cfg.seed)
    vconfig = dataclasses.replace(
        vconfig, observations=obs, G=testbed.assemble_G(obs, vconfig.instance))
    return vconfig, partition


def fitted_background(vconfig, t, scale, noise):
    """u0 moved so that its innovation at time t is -scale * noise there:
    the smaller the scale, the fewer sweeps the solve takes."""
    u0 = vconfig.u0 + noise
    idx = vconfig.observations.obs_indices[t]
    u0[idx] = vconfig.observations.v[t] + scale * noise[idx]
    return u0


def solve_batch(vconfig, backgrounds, times, solve):
    """run_mps_batch under run_mps's keyword arguments `solve`, and the stop
    groups of the sweep loop the two share."""
    args = (solve["factors"], solve["tol"], solve["max_iters"],
            solve.get("patch_rule", "owner"))
    states, hists = dd_mps.run_mps_batch(vconfig, backgrounds, times, *args)
    groups = dd_mps._sweep_groups(vconfig, backgrounds, times, *args)
    return states, hists, groups


def assert_column_is_solo(batch, j, config, partition, solve):
    """Column j of a batched solve (solve_batch) equals config solved alone,
    bit for bit: its patched row, its history, and its iterate where its
    stop group left the batch."""
    states, hists, groups = batch
    it, solo = run_mps(config, partition, **solve)
    np.testing.assert_array_equal(states[j], it.patched)
    # all five final values, floats compared exactly
    assert hists[j] == solo
    [(col, hist)] = [(group.take(row), group_hists[row])
                     for cols, group, group_hists in groups
                     for row, c in enumerate(cols.tolist()) if c == j]
    assert hist == solo
    for a, b in zip(col.w, it.w, strict=True):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(col.patched, it.patched)
    assert col.n == it.n == solo.n_sweeps
    assert (col.residual, col.abs_residual, col.eq_residual) \
        == (it.residual, it.abs_residual, it.eq_residual)


class TestBatchMatchesSolo:
    # Times 1 and 3 share a pattern, 2 and 4 have their own.
    PER_TIME = ([0, 3, 7, 10], [1, 4, 8, 11], [2, 5, 6, 9], [1, 4, 8, 11],
                [0, 2, 9, 11])

    @example(n_grid=12, n_sub=4, overlap=2, L=2.0, velocity=1.0,
             patch="average", lam=0.05, rho=5.0, max_sweeps=6,
             seed=5, scales=[1e-7, 1.0, 30.0, 0.0, 1e-4], repeats=[3, 1],
             time_pick=0)
    # blocks of 5, 6 and 7 points with one or two neighbors
    @example(n_grid=17, n_sub=5, overlap=3, L=2.0, velocity=-1.0,
             patch="owner", lam=0.05, rho=5.0, max_sweeps=24,
             seed=7, scales=[1e-9, 1.0, 30.0, 1e-4], repeats=[0, 2],
             time_pick=0)
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(n_grid=st.sampled_from([12, 17]), n_sub=st.integers(1, 5),
           overlap=st.integers(0, 3),
           L=st.one_of(st.just(0.0), st.floats(0.5, 3.0)),
           velocity=st.sampled_from([1.0, -1.0]),
           patch=st.sampled_from(["owner", "average"]),
           lam=st.sampled_from([1.0, 0.05]), rho=st.sampled_from([1.0, 5.0]),
           max_sweeps=st.integers(0, 24),
           seed=st.integers(0, 2**16),
           scales=st.lists(st.sampled_from([0.0, 1e-9, 1e-7, 1e-4, 1.0, 30.0]),
                           min_size=1, max_size=6, unique=True),
           repeats=st.lists(st.integers(0, 5), max_size=6),
           time_pick=st.integers(0, 2))
    def test_batched_columns_are_bitwise_solo_solves(
            self, n_grid, n_sub, overlap, L, velocity, patch, lam, rho,
            max_sweeps, seed, scales, repeats, time_pick):
        assume(n_sub == 1 or overlap * (n_sub - 1) < n_grid)
        cfg = dataclasses.replace(harness.ExperimentConfig(), np=n_grid,
                                  n_steps=5,
                                  nobs=4, n_sub=n_sub, overlap=overlap, L=L,
                                  velocity=velocity, lam=lam, rho_penalty=rho,
                                  patch=patch, seed=seed)
        vconfig, partition = patterned_problem(cfg, self.PER_TIME)
        factors = build_factors(vconfig, partition, rho=rho)
        assert factors.plans[1] is factors.plans[3]
        times = ((1, 3), (2,), (4,))[time_pick]
        # a pool of backgrounds whose innovations differ in scale, so columns
        # stop at different sweeps; each once, some again, shuffled
        rng = np.random.default_rng(seed)
        pool = [(scale, rng.standard_normal(vconfig.u0.size)) for scale in scales]
        columns = rng.permutation(list(range(len(pool)))
                                  + [p % len(pool) for p in repeats])
        col_times = [times[q % len(times)] for q in range(len(columns))]
        backgrounds = [fitted_background(vconfig, t, *pool[p])
                       for t, p in zip(col_times, columns)]
        solve = dict(tol=1e-10, max_iters=max_sweeps, rho=rho,
                     patch_rule=patch, factors=factors)
        batch = solve_batch(vconfig, backgrounds, col_times, solve)
        assert len(batch[0]) == len(batch[1]) == len(columns)
        for j, (u0, t) in enumerate(zip(backgrounds, col_times)):
            config = dataclasses.replace(vconfig, u0=u0, time_index=t)
            assert_column_is_solo(batch, j, config, partition, solve)

    @pytest.mark.parametrize("patch", ["owner", "average"])
    def test_columns_stop_at_their_own_sweep(self, correlated_problem, patch):
        _, vconfig, partition = correlated_problem
        factors = build_factors(vconfig, partition)
        rng = np.random.default_rng(0)
        backgrounds = [fitted_background(
            vconfig, 0, scale, rng.standard_normal(vconfig.u0.size))
            for scale in (1.0, 0.0, 1e-6, 1e-3, 10.0)]
        configs = [dataclasses.replace(vconfig, u0=u0) for u0 in backgrounds]
        solve = dict(tol=1e-10, max_iters=10, patch_rule=patch,
                     factors=factors)
        batch = solve_batch(vconfig, backgrounds, [0] * 5, solve)
        _, hists, groups = batch
        sweeps = [h.n_sweeps for h in hists]
        # some columns converge and leave, one runs out of sweeps
        assert len(set(sweeps)) > 2
        assert [h.converged for h in hists].count(False) >= 1
        # every column in one stop group, whose iterate is at its sweep
        assert sorted(c for cols, _, _ in groups for c in cols.tolist()) \
            == list(range(5))
        for cols, group, _ in groups:
            assert [sweeps[c] for c in cols.tolist()] == [group.n] * len(cols)
        for j, config in enumerate(configs):
            assert_column_is_solo(batch, j, config, partition, solve)

    def test_batch_needs_one_pattern(self):
        cfg = dataclasses.replace(harness.ExperimentConfig(), np=12, n_steps=5,
                                  nobs=4, n_sub=2)
        vconfig, partition = patterned_problem(cfg, self.PER_TIME)
        factors = build_factors(vconfig, partition)
        with pytest.raises(ValueError, match="one observation pattern"):
            dd_mps.run_mps_batch(vconfig, [vconfig.u0] * 2, (1, 2), factors,
                                 tol=1e-10, max_iters=5)

    def test_non_finite_background_names_its_time(self, correlated_problem):
        _, vconfig, partition = correlated_problem
        u0 = vconfig.u0.copy()
        u0[0] = np.nan
        with pytest.raises(var_solver.VarSolverError,
                           match="subdomain 0: the background is not finite "
                                 "at time 2"):
            dd_mps.run_mps_batch(vconfig, [vconfig.u0, u0], (1, 2),
                                 build_factors(vconfig, partition),
                                 tol=1e-10, max_iters=5)

    def test_non_finite_column_names_its_subdomain_and_time(self,
                                                             correlated_problem):
        # column 1's last block is the only non-finite one; max() over the
        # columns' first blocks would not see it
        _, vconfig, partition = correlated_problem
        factors = build_factors(vconfig, partition)
        systems = factors.batch(vconfig.observations, [vconfig.u0] * 3,
                                (1, 2, 1))
        c_loc = systems[-1].c_loc.copy()
        c_loc[1, 0] = np.nan
        systems[-1] = dataclasses.replace(systems[-1], c_loc=c_loc)
        with pytest.raises(var_solver.VarSolverError,
                           match="subdomain 1: Schwarz sweep 1 at time 2 .*c_loc"):
            mps_sweep(initial_iterate(systems))


def dense_H(ix, n_grid):
    """The textbook observation operator: a dense 0/1 row selection."""
    H = np.zeros((len(ix), n_grid))
    H[np.arange(len(ix)), ix] = 1.0
    return H


def dense_local_reference(vconfig, partition, i, rho, backgrounds, times):
    """Subdomain i's S, A_loc and per-column c_loc by the textbook formula:
    a dense 0/1 observation matrix H, a dense R = sigma_r^2 I and inv(R)."""
    obs, V = vconfig.observations, vconfig.covpair.V
    idx = partition.index_sets[i]
    ix = obs.obs_indices[times[0]]
    H = dense_H(ix, vconfig.instance.np)
    R = vconfig.covpair.sigma_r**2 * np.eye(len(ix))
    rows = [r for r, p in enumerate(ix) if p in idx]
    V_loc = V[np.ix_(idx, idx)]
    S = H[np.ix_(rows, idx)] @ V_loc
    A = vconfig.lam * np.eye(idx.size)
    c = [np.zeros(idx.size) for _ in times]
    if rows:
        Rinv = scipy.linalg.inv(R[np.ix_(rows, rows)])
        A = S.T @ Rinv @ S + A
        c = [S.T @ (Rinv @ (obs.v[t] - H @ u_b)[rows])
             for u_b, t in zip(backgrounds, times)]
    for j in partition.neighbors(i):
        gamma = partition.interfaces[(i, j)]
        if gamma.size:
            V_ij = V[np.ix_(gamma, idx)]
            A = A + rho * V_ij.T @ V_ij
    return S, 0.5 * (A + A.T), c


class TestObservationsAsIndices:
    @example(n_grid=9, n_sub=3, overlap=2, L=2.0, sigma_r=0.05, lam=1.0,
             rho=5.0, base=[4, 0, 7], duplicate=True, n_cols=8, seed=1)
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n_grid=st.integers(6, 20), n_sub=st.integers(1, 3),
           overlap=st.integers(0, 2), L=st.sampled_from([0.0, 2.0]),
           sigma_r=st.sampled_from([0.05, 0.2, 0.3, 1e-4]),
           lam=st.sampled_from([1.0, 0.05]), rho=st.sampled_from([1.0, 5.0]),
           base=st.lists(st.integers(0, 19), min_size=1, max_size=4),
           duplicate=st.booleans(), n_cols=st.integers(1, 8),
           seed=st.integers(0, 2**16))
    def test_batch_is_bitwise_the_dense_formula(self, n_grid, n_sub, overlap, L,
                                                sigma_r, lam, rho, base,
                                                duplicate, n_cols, seed):
        # batched c_loc must keep each column's solo bits: a d_loc left
        # F-ordered sends the stacked gemv down another path
        assume(n_sub == 1 or overlap * (n_sub - 1) < n_grid)
        ix = [p % n_grid for p in base] + ([base[0] % n_grid] if duplicate else [])
        cfg = dataclasses.replace(harness.ExperimentConfig(), np=n_grid,
                                  n_steps=4, nobs=1, n_sub=n_sub,
                                  overlap=overlap, L=L, sigma_r=sigma_r,
                                  lam=lam, rho_penalty=rho, seed=seed)
        vconfig, partition = patterned_problem(cfg, ix)
        rng = np.random.default_rng(seed)
        times = rng.integers(0, 4, size=n_cols).tolist()
        backgrounds = vconfig.u0 + rng.standard_normal((n_cols, n_grid))
        systems = build_factors(vconfig, partition, rho=rho).batch(
            vconfig.observations, backgrounds, times)
        for s in systems:
            S, A_loc, c_loc = dense_local_reference(vconfig, partition, s.i,
                                                    rho, backgrounds, times)
            np.testing.assert_array_equal(s.factor.S, S)
            np.testing.assert_array_equal(s.A_loc, A_loc)
            for col in range(n_cols):
                np.testing.assert_array_equal(s.c_loc[col], c_loc[col])

    @pytest.mark.parametrize("n_sub", [1, 2])
    def test_duplicate_index_solve_matches_dense_reference(self, n_sub):
        # a repeated index observes its point twice, as a repeated row of H
        cfg = dataclasses.replace(harness.ExperimentConfig(), np=12, n_steps=3,
                                  nobs=1, n_sub=n_sub, overlap=2)
        ix = [2, 9, 2, 5, 9]
        vconfig, partition = patterned_problem(cfg, ix)
        slab = slab_problem(vconfig, 1, seed=0)
        it, hist = run_mps(slab, partition, tol=1e-13, max_iters=200)
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
