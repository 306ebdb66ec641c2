import numpy as np
import pytest
import scipy.linalg

from pintda import testbed
from pintda.testbed import (assemble_G, build_covariance,
                            build_model_instance, build_observations)


def upwind_scheme_oracle(n_grid, h, velocity, diffusivity):
    """Independent assembly of the implicit scheme, written pointwise."""
    dx = 1.0 / n_grid
    A = np.zeros((n_grid, n_grid))
    for j in range(n_grid):
        if velocity >= 0:
            A[j, j] += velocity / dx
            A[j, (j - 1) % n_grid] -= velocity / dx
        else:
            A[j, (j + 1) % n_grid] += velocity / dx
            A[j, j] -= velocity / dx
        A[j, j] += 2 * diffusivity / dx**2
        A[j, (j - 1) % n_grid] -= diffusivity / dx**2
        A[j, (j + 1) % n_grid] -= diffusivity / dx**2
    return np.linalg.solve(np.eye(n_grid) + h * A, np.eye(n_grid))


def selection(indices, n_grid):
    """The textbook observation operator: a dense 0/1 row selection."""
    H = np.zeros((len(indices), n_grid))
    H[np.arange(len(indices)), indices] = 1.0
    return H


class TestModelInstance:
    def test_no_dynamics_gives_identity(self):
        inst = build_model_instance(6, 4, 1.0, velocity=0.0, diffusivity=0.0)
        np.testing.assert_array_equal(inst.M, np.eye(6))

    def test_time_grid_arithmetic(self):
        inst = build_model_instance(4, 5, 1.0, velocity=1.0, diffusivity=0.0)
        np.testing.assert_array_equal(inst.time_grid, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert inst.h == 0.25
        assert inst.p == 1

    def test_propagator_is_dissipative(self):
        # row-sum norm computed on an independently assembled scheme
        inst = build_model_instance(16, 5, 1.0, velocity=1.0, diffusivity=0.1)
        M_oracle = upwind_scheme_oracle(16, inst.h, 1.0, 0.1)
        assert np.abs(M_oracle).sum(axis=1).max() <= 1 + 1e-12
        assert np.abs(inst.M).sum(axis=1).max() <= 1 + 1e-12
        np.testing.assert_allclose(inst.M, M_oracle, atol=1e-12)

    def test_negative_velocity_upwinds_the_other_way(self):
        inst = build_model_instance(16, 5, 1.0, velocity=-1.0, diffusivity=0.0)
        assert np.abs(inst.M).sum(axis=1).max() <= 1 + 1e-12

    @pytest.mark.parametrize("kwargs", [
        dict(n_grid=1, n_steps=4, T=1.0, velocity=0.0, diffusivity=0.0),
        dict(n_grid=8, n_steps=1, T=1.0, velocity=0.0, diffusivity=0.0),
        dict(n_grid=8, n_steps=4, T=0.0, velocity=0.0, diffusivity=0.0),
        dict(n_grid=8, n_steps=4, T=1.0, velocity=0.0, diffusivity=-0.1),
    ])
    def test_rejects_bad_inputs(self, kwargs):
        with pytest.raises(testbed.TestbedError):
            build_model_instance(**kwargs)

    @pytest.mark.parametrize("field,diffusivity,velocity", [
        ("diffusivity", 1e50, 1.0),      # the inversion itself fails
        ("diffusivity", 1e300, 1.0),     # the inverse loses its unit row sums
        ("velocity", 0.05, -1e300),
    ])
    def test_rejects_propagator_singular_in_float64(self, field, diffusivity,
                                                    velocity):
        with pytest.raises(testbed.TestbedError, match=f"^{field}: .*singular"):
            build_model_instance(16, 4, 1.0, velocity=velocity,
                                 diffusivity=diffusivity)

    def test_accepts_large_but_representable_diffusivity(self):
        inst = build_model_instance(16, 4, 1.0, velocity=1.0, diffusivity=1e6)
        assert np.abs(inst.M.sum(axis=1) - 1.0).max() <= testbed.ROW_SUM_TOL


class TestCovariance:
    def test_uncorrelated_limit(self):
        cov = build_covariance(8, sigma_b=2.0, sigma_r=0.5, L=0.0)
        np.testing.assert_allclose(cov.B, 4.0 * np.eye(8), rtol=1e-9)
        np.testing.assert_allclose(cov.V, 2.0 * np.eye(8), rtol=1e-9)

    @pytest.mark.parametrize("L", [0.0, 0.7, 2.0, 10.0])
    def test_all_eigenvalues_positive(self, L):
        cov = build_covariance(24, sigma_b=1.3, sigma_r=0.2, L=L)
        assert np.linalg.eigvalsh(cov.B).min() > 0

    @pytest.mark.parametrize("L", [0.0, 1.5, 4.0])
    def test_factorization_reproduces_B(self, L):
        cov = build_covariance(16, sigma_b=0.9, sigma_r=0.2, L=L)
        err = np.abs(cov.V @ cov.V.T - cov.B).max()
        assert err <= 1e-12 * np.abs(cov.B).max()

    def test_B_exactly_symmetric(self):
        cov = build_covariance(16, sigma_b=1.0, sigma_r=0.1, L=2.5)
        assert np.abs(cov.B - cov.B.T).max() == 0.0

    def test_R_is_diagonal_with_sigma_r(self):
        # R = sigma_r^2 I is kept as sigma_r alone: B and V are the only arrays
        cov = build_covariance(8, sigma_b=1.0, sigma_r=0.5, L=0.0)
        assert cov.sigma_r == 0.5
        arrays = [name for name, value in vars(cov).items()
                  if isinstance(value, np.ndarray)]
        assert sorted(arrays) == ["B", "V"]

    def test_rejects_bad_sigmas(self):
        with pytest.raises(testbed.TestbedError):
            build_covariance(8, sigma_b=0.0, sigma_r=0.1, L=0.0)
        with pytest.raises(testbed.TestbedError):
            build_covariance(8, sigma_b=1.0, sigma_r=1.0, L=-1.0)

    @pytest.mark.parametrize("L", [1e300, 1.4e154, 1e-200])
    def test_rejects_L_whose_square_leaves_float64(self, L):
        with pytest.raises(testbed.TestbedError, match="^L: "):
            build_covariance(8, sigma_b=1.0, sigma_r=1.0, L=L)

    def test_accepts_L_just_inside_float64(self):
        # 2 L^2 overflows here but L^2 does not: B is all sigma_b^2, plus jitter
        cov = build_covariance(8, sigma_b=1.0, sigma_r=1.0, L=1e154)
        np.testing.assert_array_equal(cov.B, np.ones((8, 8)) + 1e-10 * np.eye(8))


@pytest.fixture()
def small_instance():
    return build_model_instance(8, 4, 1.0, velocity=0.8, diffusivity=0.05)


@pytest.fixture()
def small_cov():
    return build_covariance(8, sigma_b=1.0, sigma_r=0.3, L=0.0)


class TestObservations:
    def test_noise_free_initial_batch_restricts_truth(self, small_instance, small_cov):
        u_truth = np.linspace(-1.0, 1.0, 8)
        obs = build_observations(small_instance, small_cov, [0, 3, 5], u_truth,
                                 seed=0, noise=False)
        np.testing.assert_array_equal(obs.v[0], u_truth[[0, 3, 5]])

    def test_rejects_as_many_observations_as_grid_points(self, small_instance, small_cov):
        with pytest.raises(testbed.TestbedError):
            build_observations(small_instance, small_cov, list(range(8)),
                               np.zeros(8), seed=0)

    def test_rejects_out_of_range_index(self, small_instance, small_cov):
        with pytest.raises(testbed.TestbedError):
            build_observations(small_instance, small_cov, [0, 9], np.zeros(8), seed=0)

    def test_same_seed_bitwise_identical(self, small_instance, small_cov):
        u_truth = np.sin(np.arange(8.0))
        a = build_observations(small_instance, small_cov, [1, 4, 6], u_truth, seed=42)
        b = build_observations(small_instance, small_cov, [1, 4, 6], u_truth, seed=42)
        for va, vb in zip(a.v, b.v):
            np.testing.assert_array_equal(va, vb)

    def test_noise_follows_propagated_truth(self, small_instance, small_cov):
        # consistency between propagation and observation synthesis
        u_truth = np.cos(np.arange(8.0))
        obs = build_observations(small_instance, small_cov, [2, 5, 7], u_truth,
                                 seed=3, noise=False)
        x = u_truth.copy()
        for k in range(small_instance.n_steps):
            if k > 0:
                x = small_instance.M @ x
            np.testing.assert_array_equal(obs.v[k], x[[2, 5, 7]])

    def test_selection_property(self, small_instance, small_cov):
        # unordered and repeated indices: row selection equals the dense H
        rng = np.random.default_rng(5)
        ix = [6, 0, 2, 0]
        u_truth = rng.standard_normal(8)
        obs = build_observations(small_instance, small_cov, ix, u_truth,
                                 seed=1, noise=False)
        G = assemble_G(obs, small_instance)
        x = u_truth
        for k in range(small_instance.n_steps):
            if k > 0:
                x = small_instance.M @ x
            np.testing.assert_array_equal(obs.v[k], selection(ix, 8) @ x)
        y = rng.standard_normal(8)
        np.testing.assert_array_equal(G[0] @ y, selection(ix, 8) @ y)

    def test_per_time_index_lists(self, small_instance, small_cov):
        per_time = [[0, 1, 2], [1, 2, 3], [2, 3, 4], [3, 4, 5]]
        obs = build_observations(small_instance, small_cov, per_time,
                                 np.ones(8), seed=0, noise=False)
        assert [ix.tolist() for ix in obs.obs_indices] == per_time


class TestAssembleG:
    def test_single_time_point_gives_H0(self, small_cov):
        inst = testbed.ModelInstance(np=8, n_steps=1, T=0.0, h=1.0,
                                     time_grid=np.zeros(1), M=np.eye(8), p=1)
        obs = build_observations(inst, small_cov, [0, 4, 7], np.zeros(8),
                                 seed=0, noise=False)
        G = assemble_G(obs, inst)
        assert len(G) == 1
        np.testing.assert_array_equal(G[0], selection([0, 4, 7], 8))

    def test_two_time_points_blocks(self, small_cov):
        inst = build_model_instance(8, 2, 0.5, velocity=1.0, diffusivity=0.1)
        obs = build_observations(inst, small_cov, [1, 3, 6], np.zeros(8),
                                 seed=0, noise=False)
        G = assemble_G(obs, inst)
        H = selection([1, 3, 6], 8)
        np.testing.assert_array_equal(G[0], H)
        np.testing.assert_array_equal(G[1], H @ inst.M)
        dense = scipy.linalg.block_diag(*G)
        np.testing.assert_array_equal(dense[:3, :8], H)
        np.testing.assert_array_equal(dense[3:, 8:], H @ inst.M)
        np.testing.assert_array_equal(dense[:3, 8:], 0.0)
        assert not any(b.flags.writeable for b in G)

    def test_shape(self, small_instance, small_cov):
        obs = build_observations(small_instance, small_cov, [0, 2, 6],
                                 np.zeros(8), seed=0)
        G = assemble_G(obs, small_instance)
        n, nobs = small_instance.n_steps, obs.nobs
        assert len(G) == n
        assert all(b.shape == (nobs, small_instance.np) for b in G)
        assert scipy.linalg.block_diag(*G).shape == (n * nobs, small_instance.np * n)

    def test_shape_mismatch_rejected(self, small_instance, small_cov):
        other = build_model_instance(8, 3, 1.0, velocity=0.0, diffusivity=0.0)
        obs = build_observations(other, small_cov, [0, 2], np.zeros(8), seed=0)
        with pytest.raises(testbed.TestbedError):
            assemble_G(obs, small_instance)
