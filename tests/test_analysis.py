import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from pintda import analysis, dd_mps, parareal
from pintda.analysis import (BoundParameters, chain_discrepancy,
                             error_and_bound_history, error_scale_constant,
                             gronwall_bound, gronwall_prefactor,
                             lipschitz_estimate, prefactor_sequence,
                             roundoff_bound, roundoff_proxies,
                             twin_error_scales)


class TestGronwall:
    def test_closed_form_doubling(self):
        assert gronwall_bound(1.0, math.log(2.0), 0.0, 1) == pytest.approx(2.0)

    def test_zero_data_zero_bound(self):
        assert gronwall_bound(0.0, 0.5, 0.0, 10) == 0.0

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            gronwall_bound(1.0, 0.0, 1.0, 3)
        with pytest.raises(ValueError):
            gronwall_bound(1.0, -0.5, 1.0, 3)

    @pytest.mark.parametrize("name", ["M0", "R", "H"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_inputs_by_name(self, name, value):
        args = dict(dict(M0=1.0, R=0.5, H=1.0), **{name: value})
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            gronwall_bound(args["M0"], args["R"], args["H"], 3)

    @pytest.mark.parametrize("name", ["M0", "H"])
    def test_rejects_negative_data_by_name(self, name):
        args = dict(dict(M0=1.0, H=1.0), **{name: -1.0})
        with pytest.raises(ValueError, match=f"^{name} must be nonnegative"):
            gronwall_bound(args["M0"], 0.5, args["H"], 3)

    @pytest.mark.parametrize("N", [2.5, 3.0, True])
    def test_rejects_non_integer_N(self, N):
        # N = 2.5 once returned 4.124...
        with pytest.raises(ValueError, match=rf"^N {N} is not an integer$"):
            gronwall_bound(1.0, 0.5, 1.0, N)

    def test_rejects_N_below_one(self):
        with pytest.raises(ValueError, match="^N must be a positive integer"):
            gronwall_bound(1.0, 0.5, 1.0, 0)

    def test_numpy_integer_N_is_accepted(self):
        assert gronwall_bound(1.0, 0.5, 1.0, np.int64(3)) \
            == gronwall_bound(1.0, 0.5, 1.0, 3)

    def test_dominates_randomized_recurrences(self):
        # sequences obeying |M_k| <= (1+R)|M_{k-1}| + H never cross the bound
        rng = np.random.default_rng(1234)
        for _ in range(1000):
            N = int(rng.integers(1, 12))
            R = float(rng.uniform(0.01, 1.5))
            H = float(rng.uniform(0.0, 2.0))
            m = float(rng.uniform(0.0, 3.0))
            bound = gronwall_bound(m, R, H, N)
            for _ in range(N):
                m = float(rng.uniform(0.0, 1.0)) * ((1.0 + R) * m + H)
                assert m <= bound + 1e-12

    @pytest.mark.parametrize("call", [
        lambda: gronwall_bound(1.0, 800.0, 0.0, 1),
        lambda: gronwall_bound(1.0, 0.5, 1.0, 2000),
        lambda: gronwall_prefactor(1, 800.0),
        lambda: gronwall_prefactor(2000, 0.5)],
        ids=["bound_R", "bound_N", "prefactor_R", "prefactor_N"])
    def test_overflow_names_N_and_R(self, call):
        # e^{NR} once escaped as a bare OverflowError
        with pytest.raises(ValueError,
                           match=r"^e\^\(N R\) overflows a float at N = "):
            call()

    @pytest.mark.parametrize("N", [2.5, 3.0, True])
    def test_prefactor_rejects_non_integer_N(self, N):
        # N = 2.5 once returned 2.5 at R = 0
        for R in (0.0, -1.0):
            with pytest.raises(ValueError,
                               match=rf"^N {N} is not an integer$"):
                gronwall_prefactor(N, R)

    def test_prefactor_passes_nan_R_through(self):
        # the report turns a NaN bound into a DiagnosticError, so NaN must
        # reach it
        assert math.isnan(gronwall_prefactor(3, math.nan))
        assert gronwall_prefactor(np.int64(3), -1.0) \
            == gronwall_prefactor(3, -1.0)

    def test_prefactor_limits(self):
        assert gronwall_prefactor(5, 0.0) == 5.0
        assert gronwall_prefactor(3, -1.0) == pytest.approx(1 - math.exp(-3), rel=1e-14)
        near = gronwall_prefactor(3, -1.0 + 1e-6)
        assert abs(near - (1 - math.exp(-3))) <= 1e-4
        near = gronwall_prefactor(3, -1.0 - 1e-6)
        assert abs(near - (1 - math.exp(-3))) <= 1e-4


class TestLipschitz:
    def test_identity_has_unit_ratios(self):
        pairs = np.random.default_rng(0).standard_normal((10, 2, 6))
        est = lipschitz_estimate(np.eye(6), mu_A=3.0,
                                 differences=pairs[:, 0] - pairs[:, 1])
        assert est.max_ratio == pytest.approx(1.0, rel=1e-12)
        assert est.L == pytest.approx(1.0)
        assert est.C == pytest.approx(3.0, rel=1e-12)

    def test_inequality_holds_on_probes(self):
        rng = np.random.default_rng(7)
        M = rng.standard_normal((16, 16)) / 4.0
        pairs = rng.standard_normal((100, 2, 16))
        mu_A = 37.0
        est = lipschitz_estimate(M, mu_A, pairs[:, 0] - pairs[:, 1])
        for u, v in pairs:
            lhs = np.abs(M @ (u - v)).max()
            rhs = est.C / mu_A * np.abs(u - v).max()
            assert lhs <= rhs * (1 + 1e-12)

    def test_L_is_squared_row_sum_norm(self):
        M = np.array([[0.5, -0.25], [0.1, 0.3]])
        est = lipschitz_estimate(M, 2.0, [np.ones(2)])
        assert est.L == pytest.approx(0.75**2)

    def test_degenerate_probes_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            lipschitz_estimate(np.eye(2), 1.0, np.empty((0, 2)))
        with pytest.raises(ValueError, match="coincide"):
            lipschitz_estimate(np.eye(2), 1.0, [np.zeros(2)])

    @seed(2301)
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(n_probes=st.sampled_from([1, 2, 63, 64, 65, 129]),
           n_grid=st.integers(1, 12), seed=st.integers(0, 2**16),
           coincide=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
           scale=st.sampled_from([1e-300, 1e-3, 1.0, 1e150]))
    def test_stacked_products_match_the_scalar_loop(self, n_probes, n_grid,
                                                    seed, coincide, scale):
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((n_grid, n_grid))
        differences = []
        for _ in range(n_probes):
            u = rng.standard_normal(n_grid) * scale
            v = u.copy() if rng.random() < coincide \
                else rng.standard_normal(n_grid) * scale
            differences.append(u - v)
        differences = np.array(differences)
        expected = _scalar_lipschitz(M, differences)
        if expected[1] == 0:
            with pytest.raises(ValueError, match="coincide"):
                lipschitz_estimate(M, 2.0, differences)
            return
        est = lipschitz_estimate(M, 2.0, differences)
        assert est.max_ratio == expected[0]
        assert est.C == 2.0 * expected[0]

    @pytest.mark.parametrize("n_grid", [4, 32])
    def test_only_nonzero_rows_are_multiplied(self, monkeypatch, n_grid):
        # as in a run's error directions, where every row k <= n of level n
        # is exactly zero; the kept rows' ratios and C are bitwise those of
        # the product of every row
        rng = np.random.default_rng(n_grid)
        M = rng.standard_normal((n_grid, n_grid))
        D = rng.standard_normal((70, n_grid))
        D[::3] = 0.0
        D[4] = -0.0
        products = []
        real = analysis.gemv_rows

        def spy(A, x):
            products.append((x.copy(), real(A, x)))
            return products[-1][1]

        monkeypatch.setattr(analysis, "gemv_rows", spy)
        est = lipschitz_estimate(M, 3.0, D)
        nd = np.abs(D).max(axis=1)
        kept = nd != 0.0
        with np.errstate(invalid="ignore"):     # 0 / 0 on a zero row
            full = (np.abs(real(M, D)).max(axis=1) / nd)[kept]
        ((rows, product),) = products
        assert rows.tobytes() == D[kept].tobytes()
        ratios = np.abs(product).max(axis=1) / nd[kept]
        assert ratios.tobytes() == full.tobytes()
        assert est.max_ratio == float(full.max())
        assert est.C == 3.0 * float(full.max())

    def test_coinciding_probes_form_no_product(self, monkeypatch):
        monkeypatch.setattr(analysis, "gemv_rows", None)
        with pytest.raises(ValueError, match="^all probe pairs coincide$"):
            lipschitz_estimate(np.eye(3), 1.0, [np.zeros(3), np.full(3, -0.0)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("position", ["first", "last"])
    def test_non_finite_probe_propagates(self, bad, position):
        rng = np.random.default_rng(5)
        M = np.abs(rng.standard_normal((4, 4))) + 0.1
        pairs = rng.standard_normal((70, 2, 4))
        differences = pairs[:, 0] - pairs[:, 1]
        differences[[3, 66]] = 0.0                          # coinciding pairs
        d = np.zeros(4)
        d[2] = bad
        differences = np.insert(differences,
                                0 if position == "first" else 70, d, axis=0)
        est = lipschitz_estimate(M, 3.0, differences)
        assert math.isnan(est.max_ratio) and math.isnan(est.C)


def _scalar_lipschitz(M, differences):
    """Textbook probe loop: (max ratio, probes used), one mat-vec each."""
    max_ratio, used = 0.0, 0
    for d in differences:
        nd = float(np.max(np.abs(d)))
        if nd == 0.0:
            continue
        max_ratio = max(max_ratio, float(np.max(np.abs(M @ d))) / nd)
        used += 1
    return max_ratio, used


def _textbook_roundoff(trajectory, M):
    """The long-double shadow replayed one state at a time."""
    ld = np.longdouble
    M_ld = np.asarray(M, dtype=ld)
    R_obs = np.zeros((trajectory.n + 1, trajectory.n_points))
    for n in range(trajectory.n + 1):
        shadow = [np.asarray(trajectory.u[n][0], dtype=ld)]
        for k in range(1, trajectory.n_points):
            shadow.append(M_ld @ shadow[-1])
            if n > 0:
                shadow[-1] = shadow[-1] + np.asarray(
                    trajectory.delta[n - 1][k], dtype=ld)
        for k in range(trajectory.n_points):
            R_obs[n, k] = float(np.max(np.abs(
                np.asarray(trajectory.u[n][k], dtype=ld) - shadow[k])))
    local = [0.0]
    if trajectory.n > 0:
        level, delta = trajectory.u[-1], trajectory.delta[-1]
        for k in range(1, trajectory.n_points):
            exact = M_ld @ np.asarray(level[k - 1], dtype=ld) \
                + np.asarray(delta[k], dtype=ld)
            local.append(float(np.max(np.abs(
                np.asarray(level[k], dtype=ld) - exact))))
    # np.max, not a running max(), so that a NaN anywhere comes through
    return R_obs, float(np.max(local))


SPECIALS = np.array([0.0, -0.0, 5e-324, -3e-310, 2.2250738585072014e-308])


def _with_specials(rng, shape, share):
    x = rng.standard_normal(shape)
    mask = rng.random(shape) < share
    x[mask] = rng.choice(SPECIALS, size=int(mask.sum()))
    return x


def make_params(C=2.0, mu_A=8.0, eps=1e-8, N=3, C_h=0.1):
    return BoundParameters(C=C, mu_A=mu_A, eps_mps=eps, N=N, C_h=C_h)


class TestBoundParameters:
    def test_R_mu_identity(self):
        params = make_params(C=2.0, mu_A=8.0)
        assert params.R_mu == (2.0 - 8.0) / 8.0

    def test_error_scale_constant(self):
        assert error_scale_constant(1.0, 0.02, 0.1) == pytest.approx(0.2)
        with pytest.raises(ValueError):
            error_scale_constant(1.0, 0.02, 0.0)


@pytest.fixture(scope="module")
def run(bench_problem):
    """The benchmark run's trajectory and its error table against the chain,
    E[n, k] = ||reference[k] - u^n_k||_inf."""
    vconfig, partition = bench_problem
    plan = dd_mps.build_factors(vconfig, partition)
    trajectory, _, (reference, _, _) = parareal.run_parareal(
        vconfig, plan, tol=1e-9, max_outer=8)
    return trajectory, np.abs(reference - np.array(trajectory.u)).max(axis=2)


class TestErrorAndBoundHistory:

    def test_reference_iterate_has_zero_error(self, run):
        trajectory, E = run
        c_bound = error_and_bound_history(E, make_params())
        assert E.shape == (trajectory.n + 1, trajectory.n_points)
        # one bound per level; level 0 has none
        assert c_bound.shape == (trajectory.n + 1,) and math.isnan(c_bound[0])
        # exact slabs show zero measured error
        assert E[trajectory.n, :trajectory.n + 1].max() <= 1e-12

    def test_recurrence_seeded_with_measured_gap(self, run):
        _, E = run
        params = make_params(C_h=0.25)
        c_bound = error_and_bound_history(E, params)
        assert c_bound[1] == 0.25
        P = gronwall_prefactor(params.N, params.R_mu)
        expected = P * (params.C * 0.25 / params.mu_A + params.eps_mps)
        assert c_bound[2] == pytest.approx(expected, rel=1e-12)


class TestRoundoff:
    def test_term_isolation(self):
        params = make_params()
        rb = roundoff_bound(params, R_prev=1e-15, R0=0.0, rho=0.0)
        assert rb.term_initial == 0.0
        assert rb.term_rho == 0.0
        assert rb.total == rb.term_iteration

    def test_terms_sum_to_total(self):
        params = make_params()
        rb = roundoff_bound(params, R_prev=3e-16, R0=1e-16, rho=2e-16)
        assert rb.total == rb.term_initial + rb.term_iteration + rb.term_rho

    def test_rejects_negative_rho(self):
        with pytest.raises(ValueError):
            roundoff_bound(make_params(), 0.0, 0.0, -1e-16)

    def test_rejects_nan_rho_by_name(self):
        # NaN once passed the rho < 0 check and gave NaN totals
        with pytest.raises(ValueError,
                           match=r"^rho must be nonnegative, got nan$"):
            roundoff_bound(make_params(), 0, 0, float("nan"))

    def test_prefactor_sequence_monotone_to_one(self):
        seq = prefactor_sequence(50, R=-1.0)
        assert seq.shape == (50,)
        assert np.all(np.diff(seq) >= 0)
        assert seq[0] == pytest.approx(1 - math.exp(-1), rel=1e-12)
        assert seq[-1] == pytest.approx(1.0, abs=1e-12)

    @seed(2302)
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(levels=st.integers(1, 5), points=st.integers(2, 6),
           n_grid=st.integers(1, 6), seed=st.integers(0, 2**16),
           share=st.sampled_from([0.0, 0.3, 1.0]),
           zero_deltas=st.booleans())
    def test_stacked_shadow_is_bitwise_the_per_state_loop(
            self, levels, points, n_grid, seed, share, zero_deltas):
        rng = np.random.default_rng(seed)
        M = _with_specials(rng, (n_grid, n_grid), share)
        u = tuple(np.array([_with_specials(rng, n_grid, share)
                            for _ in range(points)]) for _ in range(levels))
        delta = tuple(np.array([np.zeros(n_grid)] + [
            np.zeros(n_grid) if zero_deltas
            else _with_specials(rng, n_grid, share)
            for _ in range(points - 1)]) for _ in range(levels - 1))
        trajectory = parareal.PararealTrajectory(u=u, delta=delta)
        R_obs, rho = roundoff_proxies(trajectory, M)
        R_ref, rho_ref = _textbook_roundoff(trajectory, M)
        assert R_obs.tobytes() == R_ref.tobytes()
        assert np.float64(rho).tobytes() == np.float64(rho_ref).tobytes()

    @seed(2303)
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(levels=st.integers(2, 6), points=st.integers(2, 6),
           n_grid=st.integers(1, 4), seed=st.integers(0, 2**16),
           share=st.sampled_from([0.0, 0.3]),
           cuts=st.lists(st.integers(1, 6), min_size=6, max_size=6),
           copies=st.lists(st.booleans(), min_size=6, max_size=6),
           moved=st.integers(1, 6), odd=st.integers(2, 6),
           odd_at=st.tuples(st.integers(1, 5), st.integers(0, 3)),
           odd_kind=st.sampled_from(["sign", "value"]),
           nans=st.sampled_from([0.0, 0.2]))
    def test_shared_rows_are_bitwise_the_per_state_loop(
            self, levels, points, n_grid, seed, share, cuts, copies, moved,
            odd, odd_at, odd_kind, nans):
        # Parareal-shaped: level n takes level n-1's correction up to a cut,
        # as the same row object or a byte-equal copy, and the levels are
        # stacked into arrays last
        rng = np.random.default_rng(seed)

        def fresh():
            d = _with_specials(rng, n_grid, share)
            d[rng.random(n_grid) < nans] = np.nan
            return d

        M = _with_specials(rng, (n_grid, n_grid), share)
        u = [[_with_specials(rng, n_grid, share) for _ in range(points)]
             for _ in range(levels)]
        delta = [[np.zeros(n_grid)] + [fresh() for _ in range(points - 1)]]
        for n in range(2, levels):
            below = delta[-1]
            delta.append([np.zeros(n_grid)] + [
                (below[k].copy() if copies[n] else below[k]) if k < cuts[n]
                else fresh() for k in range(1, points)])
        for level in u[1:]:
            level[0] = u[0][0]
        if moved < levels:
            # every correction equal to the level below, another start
            if moved > 1:
                delta[moved - 1] = list(delta[moved - 2])
            u[moved][0] = u[0][0] + 1.0
        k, j = odd_at[0], odd_at[1] % n_grid
        if odd < levels and k < points:
            # an equal pair but for one entry: 0.0 against -0.0, or a value
            below = delta[odd - 2][k]
            odd_pair = delta[odd - 1][k] = below.copy()
            if odd_kind == "sign":
                below[j], odd_pair[j] = 0.0, -0.0
            else:
                odd_pair[j] = below[j] + 1.0
        u = tuple(map(np.array, u))
        trajectory = parareal.PararealTrajectory(
            u=u, delta=tuple(map(np.array, delta)))
        R_obs, rho = roundoff_proxies(trajectory, M)
        R_ref, rho_ref = _textbook_roundoff(trajectory, M)
        assert R_obs.tobytes() == R_ref.tobytes()
        assert np.float64(rho).tobytes() == np.float64(rho_ref).tobytes()

    @seed(2304)
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(ratio=st.floats(0.0, 3.0), mu_A=st.floats(1.0, 1e8),
           N=st.integers(1, 40), rho=st.sampled_from([0.0, 5e-324, 1e-17]),
           n=st.integers(1, 5), k=st.integers(1, 6),
           seed=st.integers(0, 2**16))
    def test_array_call_is_bitwise_the_per_cell_calls(self, ratio, mu_A, N,
                                                      rho, n, k, seed):
        params = BoundParameters(C=ratio * mu_A, mu_A=mu_A, eps_mps=0.0, N=N,
                                 C_h=0.0)
        rng = np.random.default_rng(seed)
        R_obs = np.abs(_with_specials(rng, (n + 1, k + 1), 0.2)) * 1e-16
        rb = roundoff_bound(params, R_prev=R_obs[:-1, :-1], R0=R_obs[1:, :1],
                            rho=rho)
        for name in ("total", "term_initial", "term_iteration", "term_rho"):
            cells = [[getattr(roundoff_bound(params, R_obs[i, j],
                                             R_obs[i + 1, 0], rho), name)
                      for j in range(k)] for i in range(n)]
            got = np.broadcast_to(getattr(rb, name), (n, k))
            assert got.tobytes() == np.array(cells, dtype=float).tobytes()

    def test_observed_proxies_on_benchmark(self, bench_problem):
        vconfig, partition = bench_problem
        trajectory, _, _ = parareal.run_parareal(
            vconfig, dd_mps.build_factors(vconfig, partition), tol=1e-9,
            max_outer=8)
        R_obs, rho = roundoff_proxies(trajectory, vconfig.instance.M)
        assert R_obs.shape == (trajectory.n + 1, vconfig.instance.n_steps)
        assert np.all(R_obs >= 0)
        assert 0 <= rho < 1e-12
        # recombination round-off stays at the scale of machine epsilon
        assert R_obs.max() < 1e-12


class TestTwinScales:
    def test_scales_and_chain_report(self, bench_problem):
        vconfig, partition = bench_problem
        reference, _ = parareal.serial_fine_chain(vconfig, partition)
        M = vconfig.instance.M
        xi, sigma, delta_err = twin_error_scales(
            vconfig.u0, vconfig.observations.u_truth, reference, M)
        assert xi > 0 and sigma > 0 and delta_err > 0
        assert xi == np.abs(vconfig.u0 - vconfig.observations.u_truth).max()
        # dissipative propagation cannot grow the background error
        assert sigma <= xi * (1 + 1e-12)
        inst = vconfig.instance
        report = chain_discrepancy(M, inst.M_inv_norm, mu_A=100.0, xi=xi,
                                   delta_err=delta_err)
        # ||M|| ||M^-1|| with ||M^-1|| read off the stencil, bit for bit
        assert report["mu_M_direct"] == (np.abs(M).sum(axis=1).max()
                                         * inst.M_inv_norm)
        # ... and within the explicit inverse's rounding of the textbook value
        direct = (np.abs(M).sum(axis=1).max()
                  * np.abs(np.linalg.inv(M)).sum(axis=1).max())
        assert report["mu_M_direct"] == pytest.approx(direct, rel=1e-10)
        # the bench model: h = 1/7, dx = 1/32, |a| = 1, nu = 0.05, and
        # ||M|| = 1 up to the rounding of M's own inverse
        assert report["mu_M_direct"] == pytest.approx(
            1 + 2 / 7 * (32 + 2 * 0.05 * 32**2), rel=1e-12)
        assert report["mu_M_chained"] == (delta_err / xi) / 100.0
        assert report["discrepancy"] == abs(report["mu_M_direct"]
                                            - report["mu_M_chained"])

    def test_chain_discrepancy_reads_the_given_inverse_norm(self):
        # M is never inverted: the caller's ||M^-1|| is taken as given
        report = chain_discrepancy(0.5 * np.eye(3), 4.0, mu_A=2.0, xi=1.0,
                                   delta_err=3.0)
        assert report == {"mu_M_direct": 2.0, "mu_M_chained": 1.5,
                          "discrepancy": 0.5}
