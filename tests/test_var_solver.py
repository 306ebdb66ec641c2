import dataclasses

import numpy as np
import pytest
import scipy.linalg

from pintda import dd_mps, harness, testbed, var_solver
from pintda.testbed import CovarianceFactorPair, ModelInstance, ObservationSet
from pintda.var_solver import (VarProblemConfig, VarSolverError, eval_cost,
                               eval_grad, hessian_condition, solve_var_direct)


def identity_config(n, u0, v, alpha=1.0, lam=1.0):
    """Hand-built single-time problem with G = H = I and B = R = I."""
    inst = ModelInstance(np=n, n_steps=1, h=1.0, M=np.eye(n), M_norm=1.0,
                         M_inv_norm=1.0)
    cov = CovarianceFactorPair(B=np.eye(n), V=np.eye(n), sigma_b=1.0,
                               sigma_r=1.0, L=0.0)
    obs = ObservationSet(obs=np.arange(n),
                         v=np.asarray(v, dtype=float)[None],
                         u_truth=np.zeros(n))
    return VarProblemConfig(instance=inst, covpair=cov, observations=obs,
                            u0=np.asarray(u0, dtype=float), alpha=alpha,
                            lam=lam)


def random_config(n_grid=6, n_steps=3, L=1.2, seed=7, alpha=0.8, lam=1.3,
                  obs_idx=None):
    inst = testbed.build_model_instance(n_grid, n_steps, 1.0, velocity=0.7,
                                        diffusivity=0.04)
    cov = testbed.build_covariance(n_grid, sigma_b=0.9, sigma_r=0.3, L=L)
    rng = np.random.default_rng(seed)
    u_truth = rng.standard_normal(n_grid)
    if obs_idx is None:
        obs_idx = [1, n_grid - 2]
    obs = testbed.build_observations(inst, cov, obs_idx, u_truth, seed=seed)
    u0 = u_truth + 0.2 * rng.standard_normal(n_grid)
    return VarProblemConfig(instance=inst, covpair=cov, observations=obs,
                            u0=u0, alpha=alpha, lam=lam)


def dense_H(config):
    """The observation operator as the textbook dense 0/1 selection."""
    ix = config.observations.obs
    H = np.zeros((len(ix), config.instance.np))
    H[np.arange(len(ix)), ix] = 1.0
    return H


def dense_G(config):
    """Independent dense space-time observation operator: H_0, then H_k M."""
    M = config.instance.M
    return scipy.linalg.block_diag(
        dense_H(config),
        *(dense_H(config) @ M for _ in range(1, config.instance.n_steps)))


def dense_R(config, n_batches=None):
    """Dense observation covariance, sigma_r^2 I over n_batches batches
    (default: every batch)."""
    obs = config.observations
    if n_batches is None:
        n_batches = len(obs.v)
    return config.covpair.sigma_r**2 * np.eye(n_batches * len(obs.obs))


def dense_normal_system(config):
    """Space-time normal matrix and right-hand side assembled densely with kron."""
    N = config.instance.n_steps
    Binv = np.linalg.inv(config.covpair.B)
    Rinv = np.linalg.inv(dense_R(config))
    G = dense_G(config)
    A = config.alpha * np.kron(np.eye(N), Binv) + G.T @ Rinv @ G
    rhs = (config.alpha * np.kron(np.eye(N), Binv) @ np.tile(config.u0, N)
           + G.T @ Rinv @ np.concatenate(config.observations.v))
    return A, rhs


def brute_force_cost(u, config, variant):
    """Quadratic forms expanded with explicit inverses, no shared code paths."""
    Binv = np.linalg.inv(config.covpair.B)
    if variant == "threeD":
        k = config.time_index
        H, v = dense_H(config), config.observations.v[k]
        Rinv = np.linalg.inv(dense_R(config, 1))
        r = H @ u - v
        db = u - config.u0
        return r @ Rinv @ r + config.lam * db @ Binv @ db
    n = config.instance.np
    Rinv = np.linalg.inv(dense_R(config))
    r = dense_G(config) @ u - np.concatenate(config.observations.v)
    total = r @ Rinv @ r
    for k in range(config.instance.n_steps):
        db = u[k * n:(k + 1) * n] - config.u0
        total += config.alpha * db @ Binv @ db
    return total


class TestEvalCost:
    def test_perfect_fit_costs_nothing(self):
        cfg = random_config()
        n, N = cfg.instance.np, cfg.instance.n_steps
        u = np.tile(cfg.u0, N)
        v_fit = dense_G(cfg) @ u
        obs_fit = dataclasses.replace(
            cfg.observations,
            v=v_fit.reshape(N, 2))
        cfg_fit = dataclasses.replace(cfg, observations=obs_fit)
        assert eval_cost(u, cfg_fit, "fourD") == pytest.approx(0.0, abs=1e-20)

    def test_alpha_zero_isolates_observation_misfit(self):
        cfg = dataclasses.replace(random_config(), alpha=0.0)
        rng = np.random.default_rng(0)
        u = rng.standard_normal(cfg.instance.np * cfg.instance.n_steps)
        r = dense_G(cfg) @ u - np.concatenate(cfg.observations.v)
        Rinv = np.linalg.inv(dense_R(cfg))
        assert eval_cost(u, cfg, "fourD") == pytest.approx(r @ Rinv @ r, rel=1e-12)

    @pytest.mark.parametrize("variant", ["threeD", "fourD"])
    def test_matches_brute_force_expansion(self, variant):
        cfg = random_config()
        rng = np.random.default_rng(123)
        size = cfg.instance.np if variant == "threeD" \
            else cfg.instance.np * cfg.instance.n_steps
        for _ in range(5):
            u = rng.standard_normal(size)
            assert eval_cost(u, cfg, variant) == pytest.approx(
                brute_force_cost(u, cfg, variant), rel=1e-10)

    def test_shape_mismatch_rejected(self):
        cfg = random_config()
        with pytest.raises(VarSolverError):
            eval_cost(np.zeros(5), cfg, "threeD")
        with pytest.raises(VarSolverError):
            eval_cost(np.zeros(7), cfg, "fourD")
        with pytest.raises(VarSolverError):
            eval_cost(np.zeros(6), cfg, "fiveD")

    def test_exactly_quadratic(self):
        # second difference along any direction is independent of the base point
        cfg = random_config()
        rng = np.random.default_rng(9)
        size = cfg.instance.np * cfg.instance.n_steps
        d = rng.standard_normal(size)
        second = []
        for _ in range(4):
            u = 10.0 * rng.standard_normal(size)
            second.append(eval_cost(u + d, cfg, "fourD")
                          - 2 * eval_cost(u, cfg, "fourD")
                          + eval_cost(u - d, cfg, "fourD"))
        assert np.ptp(second) <= 1e-9 * max(abs(s) for s in second)

    @pytest.mark.parametrize("variant", ["threeD", "fourD"])
    def test_gradient_matches_central_differences(self, variant):
        cfg = random_config()
        rng = np.random.default_rng(21)
        size = cfg.instance.np if variant == "threeD" \
            else cfg.instance.np * cfg.instance.n_steps
        for _ in range(20):
            u = rng.standard_normal(size)
            g = eval_grad(u, cfg, variant)
            fd = np.empty(size)
            eps = 1e-6
            for i in range(size):
                e = np.zeros(size)
                e[i] = eps
                fd[i] = (eval_cost(u + e, cfg, variant)
                         - eval_cost(u - e, cfg, variant)) / (2 * eps)
            assert np.max(np.abs(g - fd)) <= 1e-6 * (1 + np.max(np.abs(g)))


class TestSolveVarDirect:
    def test_singular_block_names_its_fields(self):
        # a valid config on which the slab-1 oracle's lambda I + S^T S /
        # sigma_r^2 is singular in float64: S^T S / sigma_r^2 ~ 3e16 swamps
        # lambda, and the rank-one block fails Cholesky
        cfg = dataclasses.replace(
            harness.ExperimentConfig(), np=2, n_steps=2, n_sub=1, nobs=1,
            obs_layout="random", seed=0, L=10**0.5, sigma_b=1e4,
            sigma_r=5.6e-5, lam=0.1)
        vconfig, _ = harness.build_problem(cfg)
        slab = dataclasses.replace(vconfig, u0=vconfig.instance.M @ vconfig.u0,
                                   time_index=1)
        with pytest.raises(VarSolverError) as info:
            solve_var_direct(slab, "threeD")
        assert str(info.value) == (
            "stationarity system is singular: 2-th leading minor of the array "
            "is not positive definite (lambda = 0.1 with sigma_b = 10000 and "
            "sigma_r = 5.6e-05)")

    def test_balanced_average(self):
        rng = np.random.default_rng(4)
        u0, v = rng.standard_normal(5), rng.standard_normal(5)
        cfg = identity_config(5, u0, v)
        state = solve_var_direct(cfg, "threeD")
        np.testing.assert_allclose(state.u_da, 0.5 * (u0 + v), rtol=1e-12)

    def test_background_already_optimal(self):
        cfg = random_config()
        v_fit = dense_G(cfg) @ np.tile(cfg.u0, cfg.instance.n_steps)
        obs_fit = dataclasses.replace(
            cfg.observations,
            v=v_fit.reshape(cfg.instance.n_steps, 2))
        cfg_fit = dataclasses.replace(cfg, observations=obs_fit)
        state = solve_var_direct(cfg_fit, "fourD")
        np.testing.assert_allclose(state.u_da, np.tile(cfg.u0, cfg.instance.n_steps),
                                   atol=1e-10)

    @pytest.mark.parametrize("variant", ["threeD", "fourD"])
    def test_matches_eigendecomposition_oracle(self, variant):
        cfg = random_config(n_grid=8, seed=15)
        state = solve_var_direct(cfg, variant)

        # independent dense solve: eigendecomposition of the normal matrix
        Binv = np.linalg.inv(cfg.covpair.B)
        if variant == "threeD":
            H, v = dense_H(cfg), cfg.observations.v[0]
            Rinv = np.linalg.inv(dense_R(cfg, 1))
            A = cfg.lam * Binv + H.T @ Rinv @ H
            rhs = cfg.lam * Binv @ cfg.u0 + H.T @ Rinv @ v
        else:
            A, rhs = dense_normal_system(cfg)
        lam, Q = np.linalg.eigh(0.5 * (A + A.T))
        oracle = Q @ ((Q.T @ rhs) / lam)
        np.testing.assert_allclose(state.u_da, oracle, atol=1e-8)

        grad = eval_grad(state.u_da, cfg, variant)
        assert np.max(np.abs(grad)) <= 1e-8

    @pytest.mark.parametrize("variant", ["threeD", "fourD"])
    def test_duplicate_index_matches_dense_reference(self, variant):
        # a repeated index observes its point twice, as a repeated row of H;
        # the Hessian keeps the bits of the dense-H, dense-R^-1 formula
        cfg = random_config(n_grid=8, seed=3, obs_idx=[5, 1, 5, 6])
        rng = np.random.default_rng(2)
        size = cfg.instance.np * (1 if variant == "threeD"
                                  else cfg.instance.n_steps)
        u = rng.standard_normal(size)
        assert eval_cost(u, cfg, variant) == pytest.approx(
            brute_force_cost(u, cfg, variant), rel=1e-12)

        Binv = scipy.linalg.inv(cfg.covpair.B)
        Binv = 0.5 * (Binv + Binv.T)
        Rinv = scipy.linalg.inv(dense_R(cfg, 1))
        if variant == "threeD":
            weight, ops = cfg.lam, [dense_H(cfg)]
        else:
            # the distinct blocks: that of H, and the one every H M shares
            weight = cfg.alpha
            ops = [dense_H(cfg), dense_H(cfg) @ cfg.instance.M]
        hessian = [2.0 * A for A in var_solver._hessian_blocks(cfg, variant)]
        for block, H in zip(hessian, ops, strict=True):
            A = weight * Binv + H.T @ Rinv @ H
            np.testing.assert_array_equal(block, 2.0 * (0.5 * (A + A.T)))

        if variant == "threeD":
            A = cfg.lam * Binv + ops[0].T @ Rinv @ ops[0]
            rhs = cfg.lam * Binv @ cfg.u0 + ops[0].T @ Rinv @ cfg.observations.v[0]
        else:
            A, rhs = dense_normal_system(cfg)
        np.testing.assert_allclose(solve_var_direct(cfg, variant).u_da,
                                   np.linalg.solve(A, rhs), rtol=0, atol=1e-10)

    def test_repeat_solve_is_identical(self):
        cfg = random_config()
        a = solve_var_direct(cfg, "fourD")
        b = solve_var_direct(cfg, "fourD")
        np.testing.assert_array_equal(a.u_da, b.u_da)

    def test_grad_norm_contract(self):
        cfg = random_config()
        state = solve_var_direct(cfg, "threeD")
        assert state.grad_norm <= 1e-10 * (1 + np.abs(state.u_da).max() * 100)

    @pytest.mark.parametrize("variant", ["threeD", "fourD"])
    def test_correlated_background_keeps_full_precision(self, variant):
        # cond(B) is 9.5e10 at L = 4: an oracle that formed B^-1 was 1e-7 to
        # 1e-6 from this control-space reference, solved by eigendecomposition
        cfg = random_config(n_grid=32, L=4.0,
                            obs_idx=[3, 7, 12, 18, 21, 26, 29, 31])
        n_blocks = 1 if variant == "threeD" else cfg.instance.n_steps
        if variant == "threeD":
            weight, G, v = cfg.lam, dense_H(cfg), cfg.observations.v[0]
        else:
            weight, G = cfg.alpha, dense_G(cfg)
            v = np.concatenate(cfg.observations.v)
        V = scipy.linalg.block_diag(*[cfg.covpair.V] * n_blocks)
        u0 = np.tile(cfg.u0, n_blocks)
        S = G @ V
        rinv = 1.0 / cfg.covpair.sigma_r**2
        lam, Q = np.linalg.eigh(weight * np.eye(S.shape[1]) + rinv * S.T @ S)
        u = u0 + V @ (Q @ ((Q.T @ (rinv * S.T @ (v - G @ u0))) / lam))
        got = solve_var_direct(cfg, variant).u_da
        assert np.abs(got - u).max() <= 1e-12 * np.abs(u).max()

    @pytest.mark.parametrize("which", ["before", "after"])
    def test_time_outside_the_observations_is_rejected(self, which):
        # -1 would read the last time's observations, n_steps none at all
        cfg = random_config()
        n_steps = cfg.instance.n_steps
        t = -1 if which == "before" else n_steps
        match = rf"time_index {t} is outside \[0, {n_steps}\)"
        with pytest.raises(VarSolverError, match=match):
            solve_var_direct(dataclasses.replace(cfg, time_index=t), "threeD")

    @pytest.mark.parametrize("t", [1.5, True, 1.0])
    def test_time_index_that_is_not_an_integer_is_rejected(self, t):
        # 1.5 once made the threeD solve raise a bare IndexError, and True
        # a broadcasting ValueError
        with pytest.raises(VarSolverError,
                           match=rf"^time_index {t} is not an integer$"):
            dataclasses.replace(random_config(), time_index=t)

    def test_numpy_integer_time_index_is_accepted(self):
        cfg = random_config()
        want = solve_var_direct(dataclasses.replace(cfg, time_index=1),
                                "threeD").u_da
        got = solve_var_direct(dataclasses.replace(cfg, time_index=np.int64(1)),
                               "threeD").u_da
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("variant, n_steps, factored", [
        ("threeD", 3, 1), ("fourD", 2, 2), ("fourD", 3, 2), ("fourD", 6, 2)])
    def test_each_distinct_block_is_factored_once(self, monkeypatch, variant,
                                                  n_steps, factored):
        # fourD: the block of G_0 = I[obs], and the one every k >= 1 shares
        # through assemble_G's one array M[obs]
        cfg = random_config(n_steps=n_steps)
        want = solve_var_direct(cfg, variant).u_da
        calls = []
        cho_factor = scipy.linalg.cho_factor
        monkeypatch.setattr(scipy.linalg, "cho_factor",
                            lambda a: calls.append(a.shape) or cho_factor(a))
        got = solve_var_direct(cfg, variant).u_da
        assert calls == [(cfg.instance.np,) * 2] * factored
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("value", [-1.0, np.nan, np.inf])
    @pytest.mark.parametrize("field", ["alpha", "lam"])
    def test_weight_must_be_finite_and_nonnegative(self, field, value):
        # NaN and inf once passed, and failed later under another field's name
        with pytest.raises(VarSolverError,
                           match=rf"^{field} must be finite and nonnegative"):
            dataclasses.replace(random_config(), **{field: value})

    def test_singular_system_is_a_fault(self):
        # no regularization and fewer observations than states: rank deficient
        cfg = dataclasses.replace(random_config(), alpha=0.0, lam=0.0)
        with pytest.raises(VarSolverError):
            solve_var_direct(cfg, "threeD")


class TestHessianCondition:
    def test_identity_problem_is_perfectly_conditioned(self):
        cfg = identity_config(4, np.zeros(4), np.ones(4))
        (A,) = var_solver._hessian_blocks(cfg, "fourD")
        np.testing.assert_allclose(2.0 * A, 4.0 * np.eye(4), atol=1e-13)
        assert hessian_condition(cfg, "fourD") == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("variant", ["threeD", "fourD"])
    def test_mu_at_least_one(self, variant):
        assert hessian_condition(random_config(), variant) >= 1.0

    def test_matches_brute_force_inverse(self):
        cfg = random_config(n_grid=6)
        (A,) = var_solver._hessian_blocks(cfg, "threeD")
        A = 2.0 * A
        mu_oracle = (np.abs(A).sum(axis=1).max()
                     * np.abs(np.linalg.inv(A)).sum(axis=1).max())
        assert hessian_condition(cfg, "threeD") == pytest.approx(mu_oracle,
                                                                 rel=1e-10)
        # the Hessian is twice the second difference of the cost
        rng = np.random.default_rng(2)
        d = rng.standard_normal(6)
        u = rng.standard_normal(6)
        second = (eval_cost(u + d, cfg, "threeD") - 2 * eval_cost(u, cfg, "threeD")
                  + eval_cost(u - d, cfg, "threeD"))
        assert second == pytest.approx(d @ A @ d, rel=1e-9)

    def test_four_d_blocks_match_dense_reference(self):
        cfg = random_config(n_grid=6, n_steps=4, L=1.2, alpha=0.6)
        blocks = [2.0 * A for A in var_solver._hessian_blocks(cfg, "fourD")]
        A, _ = dense_normal_system(cfg)
        A = 2.0 * A
        mu_dense = (np.abs(A).sum(axis=1).max()
                    * np.abs(np.linalg.inv(A)).sum(axis=1).max())
        assert hessian_condition(cfg, "fourD") == pytest.approx(mu_dense,
                                                                rel=1e-10)
        n = cfg.instance.np
        # block 0, then the one block every time k >= 1 shares
        assert len(blocks) == 2
        for k in range(cfg.instance.n_steps):
            np.testing.assert_allclose(blocks[min(k, 1)],
                                       A[k * n:(k + 1) * n, k * n:(k + 1) * n],
                                       rtol=1e-12, atol=1e-12 * np.abs(A).max())
        # the dense reference really is block diagonal
        off = A.copy()
        for k in range(cfg.instance.n_steps):
            off[k * n:(k + 1) * n, k * n:(k + 1) * n] = 0.0
        assert not off.any()

    @pytest.mark.parametrize("case", ["bench", "equal copies"])
    def test_each_distinct_block_is_inverted_once(self, case, bench_problem,
                                                  monkeypatch):
        # blocks 1, 2, ... are equal copies of the block of G_k = M[obs]
        cfg = bench_problem[0] if case == "bench" \
            else random_config(n_grid=6, n_steps=4)
        # the loop over the distinct blocks, without hessian_condition's
        # fault handling
        norm = inv_norm = 0.0
        for A in var_solver._hessian_blocks(cfg, "fourD"):
            A = 2.0 * A
            norm = max(norm, np.abs(A).sum(axis=1).max())
            inv_norm = max(inv_norm,
                           np.abs(scipy.linalg.inv(A)).sum(axis=1).max())

        inverted = []
        inv = scipy.linalg.inv
        monkeypatch.setattr(scipy.linalg, "inv",
                            lambda a: inverted.append(a) or inv(a))
        assert hessian_condition(cfg, "fourD") == float(norm * inv_norm)
        # B, then the blocks of I[obs] and M[obs]
        assert len(inverted) == 1 + 2

    @pytest.mark.parametrize("variant,weight", [("fourD", "alpha = 2"),
                                                ("threeD", "lambda = 3")])
    def test_block_singular_to_working_precision_is_a_fault(self, recwarn,
                                                            variant, weight):
        # sigma_r = 1e-150 puts 1e300 beside O(1) background weights
        inst = testbed.build_model_instance(16, 4, 1.0, velocity=1.0,
                                            diffusivity=0.05)
        cov = testbed.build_covariance(16, sigma_b=0.5, sigma_r=1e-150, L=0.0)
        obs = testbed.build_observations(inst, cov, [0, 4, 8, 12],
                                         np.zeros(16), seed=1)
        cfg = VarProblemConfig(instance=inst, covpair=cov, observations=obs,
                               u0=np.zeros(16), alpha=2.0, lam=3.0)
        with pytest.raises(VarSolverError) as err:
            hessian_condition(cfg, variant)
        # the fields that scale the block, appended to the fault
        assert str(err.value) == (
            "Hessian block 0 is singular to working precision: SciPy's "
            f"inverse finds it ill-conditioned ({weight} with sigma_b = 0.5 "
            "and sigma_r = 1e-150)")
        assert not recwarn.list

    def test_four_d_singular_block_is_a_fault(self):
        cfg = dataclasses.replace(random_config(), alpha=0.0)
        with pytest.raises(VarSolverError):
            solve_var_direct(cfg, "fourD")


class TestNormalMatrix:
    def test_weighted_transpose_is_c_ordered(self):
        X = np.arange(12.0).reshape(3, 4)
        A_bg = np.diag(np.arange(1.0, 5.0))
        A, out = var_solver.normal_matrix(A_bg, X, 0.5)
        assert out.flags.c_contiguous and not X.T.flags.c_contiguous
        assert out.tobytes() == np.ascontiguousarray(X.T * 0.5).tobytes()
        want = A_bg + out @ X
        assert A.tobytes() == (0.5 * (want + want.T)).tobytes()

    def test_oracle_and_schwarz_blocks_read_it(self, monkeypatch):
        # the oracle's distinct control-space blocks, and dd_mps's blocks
        real = var_solver.normal_matrix
        assert dd_mps.normal_matrix is real
        seen = []

        def spy(A_bg, H, rinv):
            A, out = real(A_bg, H, rinv)
            seen.append((H.shape, out.flags.c_contiguous))
            return A, out

        for module in (var_solver, dd_mps):
            monkeypatch.setattr(module, "normal_matrix", spy)
        cfg = random_config(n_grid=8)
        solve_var_direct(cfg, "fourD")
        assert cfg.instance.n_steps == 3
        assert seen == [((2, 8), True)] * 2
        seen.clear()
        partition = dd_mps.partition_domain(8, 2, 1)
        for i in range(2):
            dd_mps.assemble_local_system(i, partition, cfg)
        assert seen == [((2, idx.size), True)
                        for idx in partition.index_sets]
