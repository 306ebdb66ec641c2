import warnings

import numpy as np
import pytest
import scipy.linalg

from pintda import testbed
from pintda.testbed import (assemble_G, build_covariance,
                            build_model_instance, build_observations)


def upwind_stencil(n_grid, h, velocity, diffusivity):
    """Independent assembly of I + h A for the implicit scheme, pointwise."""
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
    return np.eye(n_grid) + h * A


def upwind_scheme_oracle(n_grid, h, velocity, diffusivity):
    """The propagator (I + h A)^-1 of the independently assembled stencil."""
    return np.linalg.solve(upwind_stencil(n_grid, h, velocity, diffusivity),
                           np.eye(n_grid))


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
        # t_k = k h lands on the grid points of [0, T] exactly
        assert inst.h == 0.25
        np.testing.assert_array_equal(np.arange(inst.n_steps) * inst.h,
                                      [0.0, 0.25, 0.5, 0.75, 1.0])

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

    @pytest.mark.parametrize("name, value", [
        ("n_grid", 32.0), ("n_grid", True), ("n_steps", 8.0),
        ("n_steps", True)])
    def test_dimensions_must_be_integers(self, name, value):
        # n_grid = 32.0 once raised a bare NumPy TypeError, n_steps = 8.0 was
        # stored, and n_steps = True was "need at least 2 time points"
        sizes = dict({"n_grid": 32, "n_steps": 8}, **{name: value})
        with pytest.raises(testbed.TestbedError,
                           match=rf"^{name} {value} is not an integer$"):
            build_model_instance(**sizes, T=1.0, velocity=1.0,
                                 diffusivity=0.05)

    def test_numpy_integer_dimensions_are_accepted(self):
        inst = build_model_instance(np.int64(16), np.int64(5), 1.0, 1.0, 0.05)
        np.testing.assert_array_equal(
            inst.M, build_model_instance(16, 5, 1.0, 1.0, 0.05).M)

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

    @pytest.mark.parametrize("T,diffusivity,velocity,message", [
        (1e300, 0.05, 1.0, "diffusivity: 0.05 with h = T/(n_steps - 1) = "
                           "3.33333e+299 makes the propagator (I + hA)^-1 "
                           "singular in float64: Singular matrix"),
        (1.0, 1e300, 1.0, "diffusivity: 1e+300 with h = T/(n_steps - 1) = "
                          "0.333333 makes the propagator (I + hA)^-1 singular "
                          "in float64: its row sums are off by 1, more than "
                          "0.001"),
    ])
    def test_propagator_fault_names_the_time_step(self, T, diffusivity,
                                                  velocity, message):
        # a huge T makes h, not the default diffusivity, swamp the identity
        with pytest.raises(testbed.TestbedError) as err:
            build_model_instance(16, 4, T, velocity=velocity,
                                 diffusivity=diffusivity)
        assert str(err.value) == message

    @pytest.mark.parametrize("field", ["T", "velocity", "diffusivity"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_inputs_by_name(self, field, value):
        # T = nan and diffusivity = nan were blamed on velocity as a singular
        # propagator, and T = inf warned first
        kwargs = dict(dict(T=1.0, velocity=1.0, diffusivity=0.05),
                      **{field: value})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(testbed.TestbedError,
                               match=rf"^{field}: must be finite, got {value}$"):
                build_model_instance(16, 4, **kwargs)

    def test_accepts_large_but_representable_diffusivity(self):
        inst = build_model_instance(16, 4, 1.0, velocity=1.0, diffusivity=1e6)
        assert np.abs(inst.M.sum(axis=1) - 1.0).max() <= testbed.ROW_SUM_TOL


@pytest.mark.parametrize("diffusivity", [0.0, 0.05])
@pytest.mark.parametrize("velocity", [1.0, -1.0])
@pytest.mark.parametrize("n_grid", [2, 3, 32, 256])
class TestStencilInverseNorm:
    """M_inv_norm is ||M^-1||_inf = ||I + hA||_inf, read off the stencil."""

    # Inverting M explicitly adds rounding of order cond(M) eps, and
    # cond(M) <= M_inv_norm ~ 1.9e3 here: measured <= 2e-13.  1e-10 leaves
    # room for that and still catches a wrong stencil term, which moves the
    # norm by O(h / dx).
    INVERSE_RTOL = 1e-10
    # The stencil's row sums add the same entries in another order: a few ulps.
    ROW_SUM_RTOL = 1e-14

    def test_matches_the_explicit_inverse(self, n_grid, velocity, diffusivity):
        inst = build_model_instance(n_grid, 8, 1.0, velocity, diffusivity)
        direct = np.abs(np.linalg.inv(inst.M)).sum(axis=1).max()
        assert inst.M_inv_norm == pytest.approx(direct, rel=self.INVERSE_RTOL)

    def test_is_every_row_sum_of_the_stencil(self, n_grid, velocity,
                                             diffusivity):
        inst = build_model_instance(n_grid, 8, 1.0, velocity, diffusivity)
        rows = np.abs(upwind_stencil(n_grid, inst.h, velocity,
                                     diffusivity)).sum(axis=1)
        np.testing.assert_allclose(rows, inst.M_inv_norm,
                                   rtol=self.ROW_SUM_RTOL)
        assert type(inst.M_inv_norm) is float


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

    @pytest.mark.parametrize("n_grid", [32.0, True])
    def test_grid_size_must_be_an_integer(self, n_grid):
        with pytest.raises(testbed.TestbedError,
                           match=rf"^n_grid {n_grid} is not an integer$"):
            build_covariance(n_grid, sigma_b=0.5, sigma_r=0.05, L=0.0)

    def test_numpy_integer_grid_size_is_accepted(self):
        cov = build_covariance(np.int64(8), sigma_b=0.5, sigma_r=0.05, L=1.0)
        np.testing.assert_array_equal(
            cov.V, build_covariance(8, sigma_b=0.5, sigma_r=0.05, L=1.0).V)

    @pytest.mark.parametrize("L", [1e300, 1.4e154, 1e-200])
    def test_rejects_L_whose_square_leaves_float64(self, L):
        with pytest.raises(testbed.TestbedError, match="^L: "):
            build_covariance(8, sigma_b=1.0, sigma_r=1.0, L=L)

    def test_rejects_nan_L(self):
        # L < 0 and L > 0 are both False for NaN: B and V came back all NaN
        with pytest.raises(testbed.TestbedError, match="^L: .*got nan$"):
            build_covariance(8, sigma_b=1.0, sigma_r=1.0, L=np.nan)

    def test_accepts_L_just_inside_float64(self):
        # 2 L^2 overflows here but L^2 does not: B is all sigma_b^2, plus jitter
        cov = build_covariance(8, sigma_b=1.0, sigma_r=1.0, L=1e154)
        np.testing.assert_array_equal(cov.B, np.ones((8, 8)) + 1e-10 * np.eye(8))

    def test_tiny_L_is_the_uncorrelated_limit_without_a_warning(self):
        # d^2 / (2 L^2) overflows to inf off the diagonal: exp(-inf) = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tiny = build_covariance(32, sigma_b=0.5, sigma_r=0.05, L=1e-156)
        zero = build_covariance(32, sigma_b=0.5, sigma_r=0.05, L=0.0)
        assert tiny.B.tobytes() == zero.B.tobytes()
        assert tiny.V.tobytes() == zero.V.tobytes()


def out_of_place_stencil(n_grid, n_steps, T, velocity, diffusivity):
    """np.eye + h A, the matrix build_model_instance once inverted, formed
    with n_grid^2 temporaries."""
    h, dx = T / (n_steps - 1), 1.0 / n_grid
    idx = np.arange(n_grid)
    left, right = (idx - 1) % n_grid, (idx + 1) % n_grid
    A = np.zeros((n_grid, n_grid))
    a, nu = float(velocity), float(diffusivity)
    if a >= 0:
        A[idx, idx] += a / dx
        A[idx, left] -= a / dx
    else:
        A[idx, idx] -= a / dx
        A[idx, right] += a / dx
    A[idx, idx] += 2.0 * nu / dx**2
    A[idx, left] -= nu / dx**2
    A[idx, right] -= nu / dx**2
    return np.eye(n_grid) + h * A


def out_of_place_covariance(n_grid, sigma_b, L):
    """B as build_covariance once formed it, with n_grid^2 temporaries."""
    idx = np.arange(n_grid)
    if L == 0:
        B = sigma_b**2 * np.eye(n_grid)
    else:
        d2 = (idx[:, None] - idx[None, :]).astype(float) ** 2
        with np.errstate(over="ignore"):
            B = sigma_b**2 * np.exp(-d2 / (2.0 * L**2))
    return B + 1e-10 * sigma_b**2 * np.eye(n_grid)


SUBNORMAL = 5e-324


class TestInPlaceAssembly:
    """M and B are built in place, bitwise as the out-of-place formulas."""

    @pytest.mark.parametrize("T", [1.0, 1e-300])
    @pytest.mark.parametrize("diffusivity", [0.0, SUBNORMAL, 1e300])
    @pytest.mark.parametrize("velocity", [1.0, -1.0, 0.0, -0.0, SUBNORMAL,
                                          -SUBNORMAL, -3.0])
    @pytest.mark.parametrize("n_grid", [2, 3, 17, 64])
    def test_propagator_is_the_out_of_place_formula(self, n_grid, velocity,
                                                    diffusivity, T,
                                                    monkeypatch):
        # at T = 1e-300 a subnormal velocity's off-diagonal entry of hA
        # underflows to -0.0, which the formula's + 0.0 made 0.0: inv must
        # read the formula's bytes, signed zeros included
        stencil = out_of_place_stencil(n_grid, 8, T, velocity, diffusivity)
        inv, read = np.linalg.inv, []
        monkeypatch.setattr(np.linalg, "inv",
                            lambda a: read.append(a.tobytes()) or inv(a))
        try:
            M = inv(stencil)
        except np.linalg.LinAlgError as err:
            with pytest.raises(testbed.TestbedError,
                               match=f"singular in float64: {err}$"):
                build_model_instance(n_grid, 8, T, velocity, diffusivity)
        else:
            if np.abs(M.sum(axis=1) - 1.0).max() <= testbed.ROW_SUM_TOL:
                inst = build_model_instance(n_grid, 8, T, velocity, diffusivity)
                assert inst.M.tobytes() == M.tobytes()
            else:
                with pytest.raises(testbed.TestbedError,
                                   match="singular in float64: its row sums"):
                    build_model_instance(n_grid, 8, T, velocity, diffusivity)
        assert read == [stencil.tobytes()]

    @pytest.mark.parametrize("L", [0.0, 1e-200, 1e-156, 0.5, 2.0, 30.0, 1e154])
    @pytest.mark.parametrize("sigma_b", [1e-150, 1.0, 1e150])
    @pytest.mark.parametrize("n_grid", [2, 3, 17, 64])
    def test_covariance_is_the_out_of_place_formula(self, n_grid, sigma_b, L):
        if L * L == 0.0 < L:            # rejected before B is formed
            with pytest.raises(testbed.TestbedError, match="^L: "):
                build_covariance(n_grid, sigma_b, 0.1, L)
            return
        B = out_of_place_covariance(n_grid, sigma_b, L)
        try:
            V = np.linalg.cholesky(B)
        except np.linalg.LinAlgError:
            with pytest.raises(testbed.TestbedError, match="not SPD"):
                build_covariance(n_grid, sigma_b, 0.1, L)
            return
        cov = build_covariance(n_grid, sigma_b, 0.1, L)
        assert cov.B.tobytes() == B.tobytes()
        assert cov.V.tobytes() == V.tobytes()


class TestGemvRows:
    @pytest.mark.parametrize("n_rows, n_grid", [
        (2, 2), (2, 9), (7, 2), (8, 32), (32, 256)])
    def test_rows_are_bitwise_the_per_row_products(self, n_rows, n_grid):
        rng = np.random.default_rng([n_rows, n_grid])
        A = rng.standard_normal((n_grid, n_grid))
        x = rng.standard_normal((n_rows, n_grid))
        got = testbed.gemv_rows(A, x)
        assert got.shape == x.shape
        for i in range(n_rows):
            assert got[i].tobytes() == (A @ x[i]).tobytes()

    def test_rectangular_operator(self):
        rng = np.random.default_rng(5)
        S = rng.standard_normal((3, 11))
        x = rng.standard_normal((4, 11))
        got = testbed.gemv_rows(S, x)
        assert got.shape == (4, 3)
        for i in range(4):
            assert got[i].tobytes() == (S @ x[i]).tobytes()


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

    @pytest.mark.parametrize("seed, message", [
        (-1, "seed must be >= 0, got -1"),
        (1.5, "seed 1.5 is not an integer"),
        (True, "seed True is not an integer"),
        (None, "seed None is not an integer")])
    @pytest.mark.parametrize("noise", [True, False])
    def test_rejects_invalid_seed_by_name(self, small_instance, small_cov,
                                          seed, message, noise):
        # -1 and 1.5 once raised NumPy's bare errors; True was taken as 1
        with pytest.raises(testbed.TestbedError, match=f"^{message}$"):
            build_observations(small_instance, small_cov, [1, 4], np.zeros(8),
                               seed=seed, noise=noise)

    def test_numpy_integer_seed_is_accepted(self, small_instance, small_cov):
        u_truth = np.sin(np.arange(8.0))
        a = build_observations(small_instance, small_cov, [1, 4], u_truth,
                               seed=np.int64(42))
        b = build_observations(small_instance, small_cov, [1, 4], u_truth,
                               seed=42)
        assert a.v.tobytes() == b.v.tobytes()

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

    @pytest.mark.parametrize("obs_indices", [
        pytest.param([[0, 1, 2], [1, 2, 3], [2, 3, 4], [3, 4, 5]], id="per-time"),
        pytest.param([[0, 1, 2], [3]], id="ragged"),
        pytest.param(3, id="0-d"),
        pytest.param([0.5, 3.7], id="non-integral"),
        pytest.param(np.array([1.0, 3.0]), id="float"),
        pytest.param([True, False, True], id="bool"),
    ])
    def test_rejects_all_but_one_1d_integer_list(self, small_instance,
                                                 small_cov, obs_indices):
        with pytest.raises(testbed.TestbedError, match="^obs_indices: "):
            build_observations(small_instance, small_cov, obs_indices,
                               np.ones(8), seed=0)

    @pytest.mark.parametrize("obs_indices", [
        [5, 1, 5], (5, 1, 5), np.array([5, 1, 5], dtype=np.int32)])
    def test_one_frozen_network_at_every_time(self, small_instance, small_cov,
                                              obs_indices):
        u_truth = np.arange(8.0)
        obs = build_observations(small_instance, small_cov, obs_indices,
                                 u_truth, seed=0, noise=False)
        assert obs.obs.dtype == int and not obs.obs.flags.writeable
        assert obs.obs.tolist() == [5, 1, 5]
        assert len(obs.v) == small_instance.n_steps
        G = assemble_G(obs, small_instance)
        # one shared block for every time after the first
        assert all(b is G[1] for b in G[1:])
        np.testing.assert_array_equal(G[1], small_instance.M[[5, 1, 5]])

    def test_observations_are_one_frozen_array(self, small_instance,
                                               small_cov):
        obs = build_observations(small_instance, small_cov, [1, 4, 6],
                                 np.ones(8), seed=0)
        assert obs.v.shape == (small_instance.n_steps, 3)
        assert obs.v.dtype == float and obs.v.flags.c_contiguous
        assert not obs.v.flags.writeable

    def test_freezes_copies_not_the_callers_arrays(self, small_instance,
                                                   small_cov):
        ix, u_truth = np.array([1, 4]), np.ones(8)
        obs = build_observations(small_instance, small_cov, ix, u_truth,
                                 seed=0)
        assert ix.flags.writeable and u_truth.flags.writeable
        assert not obs.obs.flags.writeable and not obs.u_truth.flags.writeable
        ix[0], u_truth[0] = 7, 2.0
        assert obs.obs.tolist() == [1, 4] and obs.u_truth[0] == 1.0

    def test_no_observations(self, small_instance, small_cov):
        obs = build_observations(small_instance, small_cov, [], np.ones(8),
                                 seed=0)
        assert obs.obs.shape == (0,)
        assert obs.v.shape == (small_instance.n_steps, 0)


class TestAssembleG:
    def test_single_time_point_gives_H0(self, small_cov):
        inst = testbed.ModelInstance(np=8, n_steps=1, h=1.0, M=np.eye(8),
                                     M_inv_norm=1.0)
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
        n, nobs = small_instance.n_steps, len(obs.obs)
        assert len(G) == n
        assert all(b.shape == (nobs, small_instance.np) for b in G)
        assert scipy.linalg.block_diag(*G).shape == (n * nobs, small_instance.np * n)

    def test_shape_mismatch_rejected(self, small_instance, small_cov):
        other = build_model_instance(8, 3, 1.0, velocity=0.0, diffusivity=0.0)
        obs = build_observations(other, small_cov, [0, 2], np.zeros(8), seed=0)
        with pytest.raises(testbed.TestbedError):
            assemble_G(obs, small_instance)
