import dataclasses

import numpy as np
import pytest
import scipy.linalg

from pintda import testbed, var_solver
from pintda.testbed import CovarianceFactorPair, ModelInstance, ObservationSet
from pintda.var_solver import (VarProblemConfig, VarSolverError, eval_cost,
                               eval_grad, hessian_condition, solve_var_direct)


def identity_config(n, u0, v, alpha=1.0, lam=1.0):
    """Hand-built single-time problem with G = H = I and B = R = I."""
    inst = ModelInstance(np=n, n_steps=1, T=0.0, h=1.0,
                         time_grid=np.zeros(1), M=np.eye(n), p=1)
    cov = CovarianceFactorPair(B=np.eye(n), V=np.eye(n), sigma_b=1.0,
                               sigma_r=1.0, L=0.0)
    obs = ObservationSet(nobs=n, obs_indices=(np.arange(n),), H=(np.eye(n),),
                         v=(np.asarray(v, dtype=float),), seed=0,
                         u_truth=np.zeros(n))
    return VarProblemConfig(instance=inst, covpair=cov, observations=obs,
                            G=(np.eye(n),), u0=np.asarray(u0, dtype=float),
                            alpha=alpha, lam=lam)


def random_config(n_grid=6, n_steps=3, L=1.2, seed=7, alpha=0.8, lam=1.3):
    inst = testbed.build_model_instance(n_grid, n_steps, 1.0, velocity=0.7,
                                        diffusivity=0.04)
    cov = testbed.build_covariance(n_grid, sigma_b=0.9, sigma_r=0.3, L=L)
    rng = np.random.default_rng(seed)
    u_truth = rng.standard_normal(n_grid)
    obs = testbed.build_observations(inst, cov, [1, n_grid - 2], u_truth, seed=seed)
    G = testbed.assemble_G(obs, inst)
    u0 = u_truth + 0.2 * rng.standard_normal(n_grid)
    return VarProblemConfig(instance=inst, covpair=cov, observations=obs,
                            G=G, u0=u0, alpha=alpha, lam=lam)


def dense_G(config):
    """Independent dense space-time observation operator built from the blocks."""
    return scipy.linalg.block_diag(*config.G)


def dense_R(config):
    """Dense space-time observation covariance, sigma_r^2 I over every batch."""
    obs = config.observations
    return config.covpair.sigma_r**2 * np.eye(len(obs.v) * obs.nobs)


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
        H, v = config.observations.H[k], config.observations.v[k]
        Rinv = np.linalg.inv(config.covpair.R_block(k, config.observations.nobs))
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
            v=tuple(v_fit[k * 2:(k + 1) * 2] for k in range(N)))
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
            v=tuple(v_fit[k * 2:(k + 1) * 2] for k in range(cfg.instance.n_steps)))
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
            H, v = cfg.observations.H[0], cfg.observations.v[0]
            Rinv = np.linalg.inv(cfg.covpair.R_block(0, cfg.observations.nobs))
            A = cfg.lam * Binv + H.T @ Rinv @ H
            rhs = cfg.lam * Binv @ cfg.u0 + H.T @ Rinv @ v
        else:
            A, rhs = dense_normal_system(cfg)
        lam, Q = np.linalg.eigh(0.5 * (A + A.T))
        oracle = Q @ ((Q.T @ rhs) / lam)
        np.testing.assert_allclose(state.u_da, oracle, atol=1e-8)

        grad = eval_grad(state.u_da, cfg, variant)
        assert np.max(np.abs(grad)) <= 1e-8

    def test_repeat_solve_is_identical(self):
        cfg = random_config()
        a = solve_var_direct(cfg, "fourD")
        b = solve_var_direct(cfg, "fourD")
        np.testing.assert_array_equal(a.u_da, b.u_da)

    def test_grad_norm_contract(self):
        cfg = random_config()
        state = solve_var_direct(cfg, "threeD")
        assert state.grad_norm <= 1e-10 * (1 + np.abs(state.u_da).max() * 100)

    def test_singular_system_is_a_fault(self):
        # no regularization and fewer observations than states: rank deficient
        cfg = dataclasses.replace(random_config(), alpha=0.0, lam=0.0)
        with pytest.raises(VarSolverError):
            solve_var_direct(cfg, "threeD")


class TestHessianCondition:
    def test_identity_problem_is_perfectly_conditioned(self):
        cfg = identity_config(4, np.zeros(4), np.ones(4))
        report = hessian_condition(cfg, "fourD")
        assert len(report.blocks) == 1
        np.testing.assert_allclose(report.blocks[0], 4.0 * np.eye(4), atol=1e-13)
        assert report.mu == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("variant", ["threeD", "fourD"])
    def test_mu_at_least_one(self, variant):
        report = hessian_condition(random_config(), variant)
        assert report.mu >= 1.0

    def test_matches_brute_force_inverse(self):
        cfg = random_config(n_grid=6)
        report = hessian_condition(cfg, "threeD")
        (A,) = report.blocks
        mu_oracle = (np.abs(A).sum(axis=1).max()
                     * np.abs(np.linalg.inv(A)).sum(axis=1).max())
        assert report.mu == pytest.approx(mu_oracle, rel=1e-10)
        # the Hessian is twice the second difference of the cost
        rng = np.random.default_rng(2)
        d = rng.standard_normal(6)
        u = rng.standard_normal(6)
        second = (eval_cost(u + d, cfg, "threeD") - 2 * eval_cost(u, cfg, "threeD")
                  + eval_cost(u - d, cfg, "threeD"))
        assert second == pytest.approx(d @ A @ d, rel=1e-9)

    def test_four_d_blocks_match_dense_reference(self):
        cfg = random_config(n_grid=6, n_steps=4, L=1.2, alpha=0.6)
        report = hessian_condition(cfg, "fourD")
        A, _ = dense_normal_system(cfg)
        A = 2.0 * A
        mu_dense = (np.abs(A).sum(axis=1).max()
                    * np.abs(np.linalg.inv(A)).sum(axis=1).max())
        assert report.mu == pytest.approx(mu_dense, rel=1e-10)
        n = cfg.instance.np
        assert len(report.blocks) == cfg.instance.n_steps
        for k, block in enumerate(report.blocks):
            np.testing.assert_allclose(block, A[k * n:(k + 1) * n, k * n:(k + 1) * n],
                                       rtol=1e-12, atol=1e-12 * np.abs(A).max())
        # the dense reference really is block diagonal
        off = A.copy()
        for k in range(cfg.instance.n_steps):
            off[k * n:(k + 1) * n, k * n:(k + 1) * n] = 0.0
        assert not off.any()

    def test_block_singular_to_working_precision_is_a_fault(self, recwarn):
        # sigma_r = 1e-150 puts 1e300 beside O(1) background weights
        inst = testbed.build_model_instance(16, 4, 1.0, velocity=1.0,
                                            diffusivity=0.05)
        cov = testbed.build_covariance(16, sigma_b=0.5, sigma_r=1e-150, L=0.0)
        obs = testbed.build_observations(inst, cov, [0, 4, 8, 12],
                                         np.zeros(16), seed=1)
        cfg = VarProblemConfig(instance=inst, covpair=cov, observations=obs,
                               G=testbed.assemble_G(obs, inst), u0=np.zeros(16))
        with pytest.raises(VarSolverError,
                           match="Hessian block 0 is singular to working precision"):
            hessian_condition(cfg, "fourD")
        assert not recwarn.list

    def test_four_d_singular_block_is_a_fault(self):
        cfg = dataclasses.replace(random_config(), alpha=0.0)
        with pytest.raises(VarSolverError):
            solve_var_direct(cfg, "fourD")
