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
                           partition_domain, run_mps)


class TestPartitionDomain:
    def test_single_subdomain_is_degenerate(self):
        part = partition_domain(10, 1, 0)
        np.testing.assert_array_equal(part.index_sets[0], np.arange(10))
        np.testing.assert_array_equal(part.cores[0], np.arange(10))

    def test_two_blocks_of_eight_enumerated(self):
        part = partition_domain(8, 2, 2)
        np.testing.assert_array_equal(part.index_sets[0], [0, 1, 2, 3, 4])
        np.testing.assert_array_equal(part.index_sets[1], [3, 4, 5, 6, 7])
        np.testing.assert_array_equal(part.cores[0], [0, 1, 2, 3])
        np.testing.assert_array_equal(part.cores[1], [4, 5, 6, 7])

    @pytest.mark.parametrize("n_grid,n_sub,overlap", [
        (8, 2, 2), (32, 4, 2), (17, 3, 1), (20, 5, 2), (9, 2, 0),
    ])
    def test_offset_identity_and_cover(self, n_grid, n_sub, overlap):
        part = partition_domain(n_grid, n_sub, overlap)
        union = np.unique(np.concatenate(part.index_sets))
        np.testing.assert_array_equal(union, np.arange(n_grid))
        for i, (idx, core) in enumerate(zip(part.index_sets, part.cores)):
            # contiguous blocks, each around its balanced cut
            np.testing.assert_array_equal(idx, np.arange(idx[0], idx[-1] + 1))
            np.testing.assert_array_equal(
                core, np.arange(i * n_grid // n_sub, (i + 1) * n_grid // n_sub))
            assert set(core.tolist()) <= set(idx.tolist())

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


def systems_for(vconfig, partition):
    restr = build_restrictions(partition)
    return [assemble_local_system(i, partition, restr, vconfig)
            for i in range(partition.n_sub)]


def dense_system(vconfig):
    """A = lam I + S^T S / sigma_r^2 and c of vconfig's time, formed densely."""
    t = vconfig.time_index
    ix = vconfig.observations.obs_indices[t]
    S = vconfig.covpair.V[ix]
    rinv = 1.0 / vconfig.covpair.sigma_r**2
    A = vconfig.lam * np.eye(vconfig.instance.np) + rinv * S.T @ S
    return A, rinv * S.T @ (vconfig.observations.v[t] - vconfig.u0[ix])


def batch_of_one(factors, vconfig):
    """The unbatched Batch of vconfig's background and time."""
    return factors.bind(vconfig.observations, [vconfig.u0],
                        [vconfig.time_index]).take(0)


def blocks(w, partition):
    """The control w cut into its per-block pieces, keyed by block."""
    return {i: w[idx] for i, idx in enumerate(partition.index_sets)}


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

    @pytest.mark.parametrize("L", [0.0, 2.0])
    def test_blocks_are_the_global_matrix(self, L):
        # A_loc = A[I_i, I_i]; coupling[j] holds A's columns at block j's
        # owned points outside I_i, for exactly the blocks A couples; with an
        # uncorrelated background A is diagonal and no block couples
        cfg = dataclasses.replace(harness.ExperimentConfig(), np=24, n_sub=4,
                                  overlap=4, nobs=6, L=L)
        vconfig, partition = harness.build_problem(cfg)
        A, c = dense_system(vconfig)
        for s in systems_for(vconfig, partition):
            idx = s.indices
            np.testing.assert_allclose(s.A_loc, A[np.ix_(idx, idx)],
                                       rtol=1e-13, atol=1e-12)
            np.testing.assert_allclose(s.c_loc, c[idx], rtol=1e-13, atol=1e-12)
            coupled = []
            for j in range(partition.n_sub):
                points = np.setdiff1d(partition.cores[j], idx)
                if j != s.i and np.any(A[np.ix_(idx, points)]):
                    coupled.append(j)
                    C = np.zeros((idx.size, partition.index_sets[j].size))
                    C[:, points - partition.index_sets[j][0]] = \
                        A[np.ix_(idx, points)]
                    np.testing.assert_allclose(s.coupling[j], C, rtol=1e-13,
                                               atol=1e-12)
            assert sorted(s.coupling) == coupled
            assert bool(coupled) == (L > 0)


class TestSweepAndPatch:
    def test_single_block_sweep_hits_global_solution(self, bench_problem):
        vconfig, _ = bench_problem
        partition = partition_domain(vconfig.instance.np, 1, 0)
        batch = batch_of_one(build_factors(vconfig, partition), vconfig)
        it = mps_sweep(initial_iterate(batch))
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
        fwd = initial_iterate(factors.bind(vconfig.observations, backgrounds,
                                           [1, 1, 1]))
        rev = initial_iterate(factors.bind(vconfig.observations,
                                           backgrounds[::-1], [1, 1, 1]))
        for _ in range(3):
            fwd, rev = mps_sweep(fwd), mps_sweep(rev)
            np.testing.assert_array_equal(fwd.w, rev.w[::-1])
            np.testing.assert_array_equal(fwd.residual, rev.residual[::-1])
            np.testing.assert_array_equal(fwd.eq_residual,
                                          rev.eq_residual[::-1])

    def test_fixed_point_satisfies_local_systems(self, correlated_problem):
        _, vconfig, partition = correlated_problem
        systems = systems_for(vconfig, partition)
        it, hist = run_mps(vconfig, partition, tol=1e-13, max_iters=200)
        assert hist.converged
        assert dap_residual(it.w, it.batch) <= 1e-10 * it.batch.scale
        w = blocks(it.w, partition)
        for s in systems:
            g = local_grad(w[s.i], {j: w[j] for j in s.coupling}, s)
            assert np.max(np.abs(g)) <= 1e-10 * (1 + np.abs(s.c_loc).max())

    def test_patch_single_block(self, bench_problem):
        vconfig, _ = bench_problem
        partition = partition_domain(vconfig.instance.np, 1, 0)
        batch = batch_of_one(build_factors(vconfig, partition), vconfig)
        it = mps_sweep(initial_iterate(batch))
        expected = vconfig.u0 + vconfig.covpair.V @ it.w
        np.testing.assert_array_equal(it.patched, expected)

    def test_patching_totality(self):
        # every grid point is owned by exactly one block
        part = partition_domain(32, 4, 2)
        counts = np.zeros(32, dtype=int)
        for core in part.cores:
            counts[core] += 1
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
        assert rel <= 1e-10
        # A is diagonal when L = 0, and the preconditioned operator has the
        # two eigenvalues 1 (one block) and 1/2 (an overlap): two steps
        assert hist.n_sweeps == 2

    def test_degenerate_matches_direct_tightly(self, bench_problem):
        vconfig, _ = bench_problem
        partition = partition_domain(vconfig.instance.np, 1, 0)
        it, _ = run_mps(vconfig, partition, tol=1e-12, max_iters=10)
        direct = var_solver.solve_var_direct(vconfig, "threeD")
        rel = np.abs(it.patched - direct.u_da).max() / np.abs(direct.u_da).max()
        assert rel <= 1e-10

    def test_iterate_diff_convergence_implies_stationarity(self, correlated_problem):
        # the stop reads the recursive residual; the true one agrees with it
        _, vconfig, partition = correlated_problem
        it, hist = run_mps(vconfig, partition, tol=1e-13, max_iters=300)
        assert hist.converged
        assert it.eq_residual <= 1e-13
        assert hist.eq_residual <= 1e-12
        A, c = dense_system(vconfig)
        np.testing.assert_allclose(hist.eq_residual,
                                   np.abs(c - A @ it.w).max()
                                   / (1 + np.abs(c).max()), rtol=0.5, atol=1e-15)

    def test_non_convergence_is_reported_not_raised(self, correlated_problem):
        _, vconfig, partition = correlated_problem
        it, hist = run_mps(vconfig, partition, tol=1e-14, max_iters=1)
        assert not hist.converged
        assert hist.n_sweeps == it.n == 1
        assert hist.residual == it.residual
        assert hist.eq_residual == dap_residual(it.w, it.batch) / it.batch.scale

    @pytest.mark.parametrize("max_iters", [0, 3])
    def test_eps_mps_maps_final_residual_to_state_space(self, correlated_problem,
                                                       max_iters):
        _, vconfig, partition = correlated_problem
        it, hist = run_mps(vconfig, partition, tol=1e-14, max_iters=max_iters)
        assert hist.n_sweeps == max_iters
        v_norm = float(np.abs(vconfig.covpair.V).sum(axis=1).max())
        true = dap_residual(it.w, it.batch)
        assert hist.eps_mps == v_norm * true / vconfig.lam
        A, c = dense_system(vconfig)
        np.testing.assert_allclose(true, np.abs(c - A @ it.w).max(),
                                   rtol=1e-6)

    def test_cost_history_decreases_to_plateau(self, correlated_problem):
        _, vconfig, partition = correlated_problem
        _, hist = run_mps(vconfig, partition, tol=1e-12, max_iters=100)
        it = initial_iterate(batch_of_one(build_factors(vconfig, partition),
                                          vconfig))
        costs = [var_solver.eval_cost(it.patched, vconfig, "threeD")]
        for _ in range(hist.n_sweeps):
            it = mps_sweep(it)
            costs.append(var_solver.eval_cost(it.patched, vconfig, "threeD"))
        # CG decreases the cost at every step
        assert all(b <= a * (1 + 1e-12) for a, b in zip(costs, costs[1:]))
        assert costs[-1] < costs[0]

    def test_average_patch_rule(self, correlated_problem):
        # the patch rule of the former penalty sweep is accepted and ignored
        _, vconfig, partition = correlated_problem
        u_b = vconfig.instance.M @ vconfig.u0
        owner = parareal.fine_solve(1, u_b, vconfig, partition, 1e-12, 100,
                                    rho=1.0, patch_rule="owner")
        average = parareal.fine_solve(1, u_b, vconfig, partition, 1e-12, 100,
                                      rho=5.0, patch_rule="average")
        assert owner[0].tobytes() == average[0].tobytes()
        assert owner[1] == average[1]


def slab_problem(vconfig, t, seed):
    """vconfig re-posed at time t around a background unlike its own u0."""
    rng = np.random.default_rng(seed)
    background = 2.0 * vconfig.u0 + rng.standard_normal(vconfig.u0.size)
    return dataclasses.replace(vconfig, u0=background, time_index=t)


def assert_reuse_matches_fresh(factors, slab, partition):
    """A solve on reused factors equals one on freshly assembled systems."""
    restr = build_restrictions(partition)
    batch = batch_of_one(factors, slab)
    for f in factors.plans[slab.time_index].factors:
        fresh = assemble_local_system(f.i, partition, restr, slab)
        np.testing.assert_array_equal(f.A_loc, fresh.A_loc)
        np.testing.assert_array_equal(batch.c[f.indices], fresh.c_loc)
    kwargs = dict(tol=1e-10, max_iters=30)
    reused, h_reused = run_mps(slab, partition, factors=factors, **kwargs)
    fresh, h_fresh = run_mps(slab, partition, **kwargs)
    np.testing.assert_array_equal(reused.patched, fresh.patched)
    assert h_reused == h_fresh


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
        # one plan per pattern, built from that pattern's factors
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
        # stood (same shapes, other values) must not solve on the old plan
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
        assert_reuse_matches_fresh(factors, slab_problem(vconfig, t, seed),
                                   partition)


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
        # a max() over the blocks would return block 0's finite values
        _, vconfig, partition = correlated_problem
        batch = batch_of_one(build_factors(vconfig, partition), vconfig)
        c = batch.c.copy()
        c[-1] = np.nan
        with pytest.raises(var_solver.VarSolverError,
                           match="subdomain 1: Schwarz CG step 1 .*c_loc"):
            mps_sweep(initial_iterate(dataclasses.replace(batch, c=c)))

    def test_overflowing_local_system_names_sigma_b(self):
        cfg = dataclasses.replace(harness.ExperimentConfig(), np=16, n_steps=4,
                                  nobs=4, sigma_b=1e153)
        vconfig, partition = harness.build_problem(harness.validate_config(cfg))
        with pytest.raises(var_solver.VarSolverError,
                           match="sigma_b = 1e[+]153 .* subdomain 0 at time 0"):
            build_factors(vconfig, partition)


def textbook_cg(slab, systems, max_iters, tol):
    """Preconditioned CG as first written: A applied from S = V[obs], one
    cho_solve per block summed into z, dot products with @.  Yields
    (w, residual, eq_residual, patched) per step, then the true residual."""
    t = slab.time_index
    ix = slab.observations.obs_indices[t]
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

        iterate = initial_iterate(batch_of_one(factors, slab))
        for n, (w, residual, eq_res, patched) in enumerate(steps):
            if n:
                iterate = mps_sweep(iterate)
            assert iterate.n == n
            np.testing.assert_array_equal(iterate.w, w)
            assert iterate.residual == residual
            assert iterate.eq_residual == eq_res
            np.testing.assert_array_equal(iterate.patched, patched)
        assert dap_residual(iterate.w, iterate.batch) == true

        it, hist = run_mps(slab, partition, tol=tol, max_iters=max_sweeps,
                           factors=factors)
        w, residual, eq_res, patched = steps[-1]
        np.testing.assert_array_equal(it.w, w)
        np.testing.assert_array_equal(it.patched, patched)
        assert hist.residual == residual
        assert hist.eq_residual == true / iterate.batch.scale
        assert hist.n_sweeps == len(steps) - 1
        assert hist.converged == (eq_res <= tol)
        assert hist.eps_mps == factors.v_norm * true / lam


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
    the smaller the scale, the fewer steps the solve takes."""
    u0 = vconfig.u0 + noise
    idx = vconfig.observations.obs_indices[t]
    u0[idx] = vconfig.observations.v[t] + scale * noise[idx]
    return u0


def solve_batch(vconfig, backgrounds, times, solve):
    """run_mps_batch under run_mps's keyword arguments `solve`, and the stop
    groups of the CG loop the two share."""
    args = (solve["factors"], solve["tol"], solve["max_iters"])
    states, hists = dd_mps.run_mps_batch(vconfig, backgrounds, times, *args)
    groups = dd_mps._cg_groups(vconfig, backgrounds, times, *args)
    return states, hists, groups


def assert_column_is_solo(batch, j, config, partition, solve):
    """Column j of a batched solve (solve_batch) equals config solved alone,
    bit for bit: its analysis row, its history, and its iterate where its
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
    for name in ("w", "r", "patched"):
        np.testing.assert_array_equal(getattr(col, name), getattr(it, name))
    assert col.n == it.n == solo.n_sweeps
    assert (col.residual, col.eq_residual) == (it.residual, it.eq_residual)


class TestBatchMatchesSolo:
    # Times 1 and 3 share a pattern, 2 and 4 have their own.
    PER_TIME = ([0, 3, 7, 10], [1, 4, 8, 11], [2, 5, 6, 9], [1, 4, 8, 11],
                [0, 2, 9, 11])

    @example(n_grid=12, n_sub=4, overlap=2, L=2.0, velocity=1.0, lam=0.05,
             max_sweeps=6, seed=5, scales=[1e-7, 1.0, 30.0, 0.0, 1e-4],
             repeats=[3, 1], time_pick=0)
    # blocks of 5, 6 and 7 points, each point in up to two blocks
    @example(n_grid=17, n_sub=5, overlap=3, L=2.0, velocity=-1.0, lam=0.05,
             max_sweeps=24, seed=7, scales=[1e-9, 1.0, 30.0, 1e-4],
             repeats=[0, 2], time_pick=0)
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
           time_pick=st.integers(0, 2))
    def test_batched_columns_are_bitwise_solo_solves(
            self, n_grid, n_sub, overlap, L, velocity, lam, max_sweeps, seed,
            scales, repeats, time_pick):
        assume(n_sub == 1 or overlap * (n_sub - 1) < n_grid)
        cfg = dataclasses.replace(harness.ExperimentConfig(), np=n_grid,
                                  n_steps=5,
                                  nobs=4, n_sub=n_sub, overlap=overlap, L=L,
                                  velocity=velocity, lam=lam, seed=seed)
        vconfig, partition = patterned_problem(cfg, self.PER_TIME)
        factors = build_factors(vconfig, partition)
        assert factors.plans[1] is factors.plans[3]
        times = ((1, 3), (2,), (4,))[time_pick]
        # a pool of backgrounds whose innovations differ in scale, so columns
        # stop at different steps; each once, some again, shuffled
        rng = np.random.default_rng(seed)
        pool = [(scale, rng.standard_normal(vconfig.u0.size)) for scale in scales]
        columns = rng.permutation(list(range(len(pool)))
                                  + [p % len(pool) for p in repeats])
        col_times = [times[q % len(times)] for q in range(len(columns))]
        backgrounds = [fitted_background(vconfig, t, *pool[p])
                       for t, p in zip(col_times, columns)]
        solve = dict(tol=1e-10, max_iters=max_sweeps, factors=factors)
        batch = solve_batch(vconfig, backgrounds, col_times, solve)
        assert len(batch[0]) == len(batch[1]) == len(columns)
        for j, (u0, t) in enumerate(zip(backgrounds, col_times)):
            config = dataclasses.replace(vconfig, u0=u0, time_index=t)
            assert_column_is_solo(batch, j, config, partition, solve)

    @pytest.mark.parametrize("patch", ["owner", "average"])
    def test_columns_stop_at_their_own_sweep(self, patch):
        # sweep_heavy's layout: CG takes about a dozen steps; fine_solve
        # ignores the patch rule
        cfg = dataclasses.replace(harness.ExperimentConfig(), np=64, n_sub=8,
                                  overlap=4, nobs=16, L=2.0, lam=0.05,
                                  n_steps=2)
        vconfig, partition = harness.build_problem(cfg)
        factors = build_factors(vconfig, partition)
        rng = np.random.default_rng(0)
        backgrounds = [fitted_background(
            vconfig, 1, scale, rng.standard_normal(vconfig.u0.size))
            for scale in (1.0, 0.0, 1e-6, 1e-3, 10.0)]
        configs = [dataclasses.replace(vconfig, u0=u0, time_index=1)
                   for u0 in backgrounds]
        solve = dict(tol=1e-10, max_iters=10, factors=factors)
        batch = solve_batch(vconfig, backgrounds, [1] * 5, solve)
        states, hists, groups = batch
        sweeps = [h.n_sweeps for h in hists]
        # some columns converge and leave, one at the start, one runs out
        assert len(set(sweeps)) > 2
        assert (sweeps[1], hists[1].converged) == (0, True)
        assert [h.converged for h in hists].count(False) >= 1
        # every column in one stop group, whose iterate is at its step
        assert sorted(c for cols, _, _ in groups for c in cols.tolist()) \
            == list(range(5))
        for cols, group, _ in groups:
            assert [sweeps[c] for c in cols.tolist()] == [group.n] * len(cols)
        for j, config in enumerate(configs):
            assert_column_is_solo(batch, j, config, partition, solve)
            fine, hist = parareal.fine_solve(
                1, config.u0, vconfig, partition, 1e-10, 10, rho=5.0,
                patch_rule=patch, factors=factors)
            assert fine.tobytes() == states[j].tobytes()
            assert hist == hists[j]

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
        batch = factors.bind(vconfig.observations, [vconfig.u0] * 3, (1, 2, 1))
        c = batch.c.copy()
        c[1, -1] = np.nan
        with pytest.raises(var_solver.VarSolverError,
                           match="subdomain 1: Schwarz CG step 1 at time 2 "
                                 ".*c_loc"):
            mps_sweep(initial_iterate(dataclasses.replace(batch, c=c)))


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
    ix = obs.obs_indices[times[0]]
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
        vconfig, partition = patterned_problem(cfg, ix)
        rng = np.random.default_rng(seed)
        times = rng.integers(0, 4, size=n_cols).tolist()
        backgrounds = vconfig.u0 + rng.standard_normal((n_cols, n_grid))
        batch = build_factors(vconfig, partition).bind(
            vconfig.observations, backgrounds, times)
        for f in batch.plan.factors:
            S, A_loc, c = dense_local_reference(vconfig, partition, f.i,
                                                backgrounds, times)
            np.testing.assert_array_equal(batch.plan.S, S)
            np.testing.assert_array_equal(f.A_loc, A_loc)
            for col in range(n_cols):
                np.testing.assert_array_equal(batch.c[col], c[col])

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


class TestOracleEquivalence:
    # overlap 0 and lambda 0.05: configs where stationary restricted additive
    # Schwarz diverges or stalls
    @example(np_=32, L=4.0, n_sub=4, overlap=0, lam=0.05, layout="stride",
             seed=1)
    @example(np_=64, L=4.0, n_sub=8, overlap=0, lam=0.05, layout="random",
             seed=2)
    @example(np_=64, L=2.0, n_sub=2, overlap=0, lam=0.05, layout="stride",
             seed=3)
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(np_=st.sampled_from([32, 64]), L=st.sampled_from([1.0, 2.0, 4.0]),
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
        it, hist = run_mps(slab, partition, tol=1e-10, max_iters=200)
        direct = var_solver.solve_var_direct(slab, "threeD").u_da
        assert hist.converged
        assert np.abs(it.patched - direct).max() / np.abs(direct).max() <= 1e-6
