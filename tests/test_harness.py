import dataclasses
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from pintda import harness
from pintda.harness import (CSV_COLUMNS, ConfigError, ExperimentConfig,
                            emit_report, load_config, render_report,
                            run_experiment)
from pintda.parareal import parallel_map


class TestConfig:
    def test_defaults_are_the_benchmark(self):
        cfg = ExperimentConfig()
        assert (cfg.np, cfg.n_steps, cfg.n_sub, cfg.overlap) == (32, 8, 2, 2)

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("np = 16\nn_steps = 4   # time points\n"
                        "lambda = 2.5\nseed = 7\n")
        cfg = load_config(str(path))
        assert cfg.np == 16
        assert cfg.n_steps == 4
        assert cfg.lam == 2.5
        assert cfg.seed == 7

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("np = 16\nwibble = 3\n")
        with pytest.raises(ConfigError, match="wibble"):
            load_config(str(path))

    def test_timing_is_an_unknown_key(self, tmp_path):
        # the wall clock stays out of the report: no key turns it on
        path = tmp_path / "run.cfg"
        path.write_text("timing = true\n")
        with pytest.raises(ConfigError,
                           match=r"^config line 1: unknown key 'timing'$"):
            load_config(str(path))
        with pytest.raises(ConfigError, match=r"^unknown config key 'timing'$"):
            load_config(None, {"timing": True})
        proc = subprocess.run(
            [sys.executable, "-m", "pintda", "--config", str(path)],
            capture_output=True, text=True, check=False)
        assert proc.returncode == 1
        assert proc.stderr == ("configuration error: config line 1: "
                               "unknown key 'timing'\n")
        assert proc.stdout == ""

    def test_repeated_key_names_both_lines(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("np = 16\n# a comment\nseed = 3\nnp = 24\n")
        with pytest.raises(ConfigError, match=r"^config line 4: key 'np' is "
                                              r"already given on line 1$"):
            load_config(str(path))

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("np 16\n")
        with pytest.raises(ConfigError, match="key = value"):
            load_config(str(path))

    def test_bad_value_type_names_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("np = many\n")
        with pytest.raises(ConfigError, match="np"):
            load_config(str(path))

    def test_missing_file_reported(self):
        with pytest.raises(ConfigError, match="config"):
            load_config("/nonexistent/run.cfg")

    @pytest.mark.parametrize("key", ["T", "velocity", "diffusivity", "sigma_b",
                                     "sigma_r", "L", "rho_penalty", "alpha",
                                     "lambda", "tol_mps", "tol_parareal"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_value_names_field(self, key, value):
        with pytest.raises(ConfigError, match=rf"^{key}: must be finite"):
            load_config(None, {key: value})

    def test_overrides_win_over_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("np = 16\n")
        cfg = load_config(str(path), {"np": 24})
        assert cfg.np == 24

    @pytest.mark.parametrize("overrides,message", [
        ({"np": 1}, "np: need at least 2 grid points, got 1"),
        ({"n_steps": 1}, "n_steps: need at least 2 time points, got 1"),
        ({"T": 0.0}, "T: must be positive, got 0.0"),
        ({"T": 0}, "T: must be positive, got 0"),
        ({"diffusivity": -1.0}, "diffusivity: must be nonnegative, got -1.0"),
        ({"sigma_b": 0.0}, "sigma_b: must be positive, got 0.0"),
        ({"sigma_r": -1.0}, "sigma_r: must be positive, got -1.0"),
        ({"L": -0.5}, "L: must be nonnegative, got -0.5"),
        ({"nobs": 0}, "nobs: must satisfy 0 < nobs < np, got 0"),
        ({"nobs": 32}, "nobs: must satisfy 0 < nobs < np, got 32"),
        ({"obs_layout": "grid"},
         "obs_layout: expected stride or random, got 'grid'"),
        ({"n_sub": 0}, "n_sub: must be >= 1, got 0"),
        ({"np": 6, "nobs": 2, "n_sub": 8, "overlap": 0},
         "n_sub: cannot split np=6 points into 8 blocks"),
        ({"overlap": -1}, "overlap: must be >= 0, got -1"),
        ({"np": 16, "n_sub": 4, "overlap": 8},
         "overlap: 8 with n_sub=4 does not fit np=16"),
        ({"rho_penalty": -1.0}, "rho_penalty: must be nonnegative, got -1.0"),
        ({"alpha": 0.0}, "alpha: must be positive, got 0.0"),
        ({"lambda": 0.0}, "lambda: must be positive, got 0.0"),
        ({"tol_mps": 0.0}, "tol_mps: must be positive, got 0.0"),
        ({"tol_parareal": -1.0}, "tol_parareal: must be positive, got -1.0"),
        ({"max_sweeps": 0}, "max_sweeps: must be >= 1, got 0"),
        ({"max_outer": 0}, "max_outer: must be >= 1, got 0"),
        ({"patch": "mean"}, "patch: expected owner or average, got 'mean'"),
        ({"workers": 0}, "workers: must be >= 1, got 0"),
        ({"seed": -1}, "seed: must be >= 0, got -1"),
        ({"format": "xml"}, "format: expected csv or json, got 'xml'"),
        ({"T": float("nan")}, "T: must be finite, got nan"),
        ({"velocity": float("-inf")}, "velocity: must be finite, got -inf"),
        ({"lambda": float("inf")}, "lambda: must be finite, got inf"),
        # several invalid fields: every type and finiteness check runs, in
        # field order with lambda last, before the first range check, and the
        # range checks run in their own order (tol_parareal before max_sweeps,
        # seed after workers)
        ({"seed": -1, "workers": 0, "max_sweeps": 0, "tol_parareal": 0.0},
         "tol_parareal: must be positive, got 0.0"),
        ({"np": 1, "lambda": float("nan"), "tol_mps": float("inf"),
          "seed": 0.5}, "seed: expected an integer, got 0.5"),
        ({"np": 1, "lambda": float("nan"), "out": 3},
         "out: expected a string, got 3"),
    ])
    def test_rejection_message_is_exact(self, overrides, message):
        with pytest.raises(ConfigError) as err:
            load_config(None, overrides)
        assert str(err.value) == message

    @pytest.mark.parametrize("key,value,what", [
        ("np", 32.0, "an integer"), ("n_steps", "8", "an integer"),
        ("workers", 1.5, "an integer"), ("seed", True, "an integer"),
        ("lambda", "1", "a real number"), ("sigma_b", False, "a real number"),
        ("format", 1, "a string"),
    ])
    def test_mistyped_field_is_named(self, key, value, what):
        message = re.escape(f"{key}: expected {what}, got {value!r}")
        with pytest.raises(ConfigError, match=f"^{message}$"):
            load_config(None, {key: value})
        field = "lam" if key == "lambda" else key
        with pytest.raises(ConfigError, match=f"^{message}$"):
            run_experiment(dataclasses.replace(ExperimentConfig(),
                                               **{field: value}))

    def test_integer_for_a_real_field_is_kept_as_given(self, bench_result):
        cfg = load_config(None, {"T": 1, "velocity": 1, "alpha": 1,
                                 "lambda": 1})
        assert type(cfg.T) is int and type(cfg.lam) is int
        assert (render_report(run_experiment(cfg).records)
                == render_report(bench_result.records))


class TestRetiredSchwarzKeys:
    """rho_penalty and patch set the interface penalty and the overlap patch
    of the former penalty sweep; the CG fine solve has neither, so they are
    accepted, range-checked and ignored."""

    @pytest.fixture(scope="class")
    def reports(self):
        base = {"L": 2.0, "n_sub": 4, "overlap": 2, "lambda": 0.05,
                "max_outer": 3}
        return {(patch, rho): render_report(run_experiment(load_config(
                    None, dict(base, patch=patch, rho_penalty=rho))).records)
                for patch in ("owner", "average") for rho in (1.0, 5.0)}

    def test_reports_do_not_depend_on_them(self, reports):
        assert len(set(reports.values())) == 1

    @pytest.mark.parametrize("key,value,message", [
        ("rho_penalty", -1.0, "rho_penalty: must be nonnegative"),
        ("patch", "median", "patch: expected owner or average"),
    ])
    def test_invalid_values_still_rejected(self, key, value, message):
        with pytest.raises(ConfigError, match=f"^{message}"):
            load_config(None, {key: value})


# A valid config whose local system loses lambda to rounding.
NOT_POSITIVE_DEFINITE = "\n".join([
    "np = 18", "n_steps = 2", "n_sub = 2", "overlap = 4", "nobs = 10", "L = 2",
    "velocity = 0", "diffusivity = 1", "obs_layout = random", "lambda = 1e-6",
    "rho_penalty = 0", "alpha = 0.001", "max_sweeps = 5", "max_outer = 2",
    "seed = 862", "sigma_b = 10", "sigma_r = 1e-4"])
ALPHA_OVERFLOW = "alpha = 1e303\nsigma_b = 0.001"
B_SINGULAR = "sigma_b = 1e-150\nL = 1000"
SCALES_APART = "sigma_b = 1e5\nsigma_r = 1e-5"


class TestParallelMap:
    def test_preserves_order_and_values(self):
        out1 = parallel_map(lambda x: x * x, range(20), workers=1)
        out4 = parallel_map(lambda x: x * x, range(20), workers=4)
        assert out1 == out4 == [x * x for x in range(20)]


@pytest.fixture(scope="module")
def bench_result():
    return run_experiment(ExperimentConfig())


class TestRunExperiment:
    def test_benchmark_converges(self, bench_result):
        assert bench_result.status == "converged"
        assert bench_result.converged
        n_slabs = ExperimentConfig().n_steps - 1
        assert len(bench_result.records) == n_slabs * bench_result.summary["n_outer"]

    def test_worker_count_invisible_in_report(self):
        texts = {}
        for workers in (1, 2, 8):
            cfg = dataclasses.replace(ExperimentConfig(), workers=workers)
            texts[workers] = render_report(run_experiment(cfg).records, "csv")
        assert texts[1] == texts[2] == texts[8]

    def test_dense_inverse_budget(self, monkeypatch):
        """The dense inverses one default run forms, counted by name.

        numpy.linalg.inv runs once: the model's own M = (I + hA)^-1.  mu(M)
        reads ||M^-1|| off the stencil, so analysis inverts nothing.
        scipy.linalg.inv runs three times, all for mu_A in
        var_solver.hessian_condition: B^-1 and the two distinct Hessian
        blocks.  ROADMAP item 8b takes mu_A off the run path and will lower
        that count; a new dense inverse anywhere raises one of them.
        """
        counts = {}

        def counting(module, name):
            inner = getattr(module, name)

            def wrapper(*args, **kwargs):
                key = f"{module.__name__}.{name}"
                counts[key] = counts.get(key, 0) + 1
                return inner(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counting(np.linalg, "inv")
        counting(scipy.linalg, "inv")
        run_experiment(ExperimentConfig())
        assert counts == {"numpy.linalg.inv": 1, "scipy.linalg.inv": 3}

    def test_delta_norm_is_the_slab_correction_norm(self, bench_result):
        delta = bench_result.trajectory.delta
        for rec in bench_result.records:
            assert rec.delta_norm == float(np.max(np.abs(delta[rec.n - 1][rec.k])))

    @pytest.mark.parametrize("overrides", [
        {}, {"n_steps": 40, "n_sub": 2, "nobs": 8, "max_outer": 39}],
        ids=["default", "slab_long"])
    def test_error_and_correction_columns_read_the_levels(self, overrides):
        # E_kn and delta_norm, recomputed one level and one point at a time
        # from the trajectory and the serial chain
        result = run_experiment(load_config(None, overrides))
        u, delta = result.trajectory.u, result.trajectory.delta
        rows = [(n, k) for n in range(1, result.trajectory.n + 1)
                for k in range(1, result.trajectory.n_points)]
        assert [(r.n, r.k) for r in result.records] == rows
        assert [r.E_kn for r in result.records] == [
            float(np.max(np.abs(result.reference[k] - u[n][k])))
            for n, k in rows]
        assert [r.delta_norm for r in result.records] == [
            float(np.max(np.abs(delta[n - 1][k]))) for n, k in rows]

    def test_two_runs_same_process_identical(self, bench_result):
        again = run_experiment(ExperimentConfig())
        assert render_report(again.records) == render_report(bench_result.records)

    def test_non_convergence_surfaces_in_status(self):
        cfg = dataclasses.replace(ExperimentConfig(), max_outer=2,
                                  tol_parareal=1e-14)
        result = run_experiment(cfg)
        assert result.status == "non-converged"
        assert not result.converged
        assert result.records  # diagnostics still emitted

    def test_inner_non_convergence_names_slabs(self, bench_result):
        assert bench_result.summary["mps_unconverged"] == []
        cfg = load_config(None, {"max_sweeps": 5, "L": 2.0, "lambda": 0.05,
                                 "rho_penalty": 5.0, "n_sub": 4})
        result = run_experiment(cfg)
        assert result.status == "non-converged"
        assert result.summary["parareal_reason"] == "exact"
        assert result.summary["mps_unconverged"] == list(range(1, cfg.n_steps))

    def test_summary_counts_fine_solves(self, bench_result):
        s = bench_result.summary
        n_slabs = ExperimentConfig().n_steps - 1
        assert s["n_outer"] == n_slabs
        # chain 7, then iteration n solves slabs n+1..7: 6 + 5 + ... + 0
        assert s["fine_solves"] == n_slabs + 21
        assert s["fine_solves_reused"] == n_slabs * n_slabs - 21
        assert s["outer_to_slabs"] == 1.0
        # the counts read the run's own history, which the result keeps
        history = bench_result.history
        assert history.n_outer == s["n_outer"]
        assert history.solved == [list(range(n + 1, n_slabs + 1))
                                  for n in range(1, n_slabs + 1)]

    def test_C_h_is_the_chains_largest_one_slab_gap(self, bench_result):
        # max_k ||reference[k] - M reference[k - 1]||, one slab at a time
        reference = bench_result.reference
        M = harness.build_problem(ExperimentConfig())[0].instance.M
        assert bench_result.summary["C_h"] == max(
            float(np.max(np.abs(reference[k] - M @ reference[k - 1])))
            for k in range(1, len(reference)))

    def test_reuse_leaves_records_and_summary_unchanged(self, monkeypatch):
        cfg = load_config(None, {"max_sweeps": 5, "L": 2.0, "lambda": 0.05,
                                 "rho_penalty": 5.0, "n_sub": 4})
        reused = run_experiment(cfg)
        update = harness.parareal.parareal_update

        def solve_every_slab(trajectory, backgrounds, config, factors, known,
                             **kwargs):
            return update(trajectory, backgrounds, config, factors, (),
                          **kwargs)

        monkeypatch.setattr(harness.parareal, "parareal_update",
                            solve_every_slab)
        solved = run_experiment(cfg)
        assert reused.status == solved.status == "non-converged"
        assert reused.records == solved.records
        assert render_report(reused.records) == render_report(solved.records)
        counts = ("fine_solves", "fine_solves_reused")
        assert ({k: v for k, v in reused.summary.items() if k not in counts}
                == {k: v for k, v in solved.summary.items() if k not in counts})
        n_slabs = cfg.n_steps - 1
        assert solved.summary["fine_solves"] == n_slabs * (n_slabs + 1)
        assert solved.summary["fine_solves_reused"] == 0
        assert reused.summary["fine_solves"] < solved.summary["fine_solves"]

    @pytest.mark.parametrize("overrides", [
        {},
        # the sweep_heavy benchmark workload
        {"np": 64, "n_steps": 8, "n_sub": 8, "overlap": 4, "nobs": 16,
         "L": 2.0, "lambda": 0.05, "rho_penalty": 5.0, "max_outer": 7},
    ], ids=["default", "sweep_heavy"])
    def test_one_plan_per_run(self, monkeypatch, overrides):
        # the serial chain and every Parareal iteration solve on one CgPlan:
        # a plan built on the side would factor every block again
        assembled = []
        real = harness.dd_mps.assemble_local_system

        def spy(i, partition, config):
            assembled.append(i)
            return real(i, partition, config)

        monkeypatch.setattr(harness.dd_mps, "assemble_local_system", spy)
        cfg = load_config(None, overrides)
        assert run_experiment(cfg).status == "converged"
        assert assembled == list(range(cfg.n_sub))

    @pytest.mark.parametrize("overrides", [
        {},
        # the slab_long benchmark workload
        {"np": 32, "n_steps": 40, "n_sub": 2, "nobs": 8, "max_outer": 39},
        {"L": 2.0},
    ], ids=["default", "slab_long", "L2"])
    def test_mu_A_enters_no_bound(self, monkeypatch, overrides):
        # C = mu_A r divides back to r in every bound, so the bounds read r
        # alone: a tripled mu_A moves only its own labelled outputs
        cfg = load_config(None, overrides)
        base = run_experiment(cfg)
        real = harness.var_solver.hessian_condition
        monkeypatch.setattr(harness.var_solver, "hessian_condition",
                            lambda *args: 3.0 * real(*args))
        tripled = run_experiment(cfg)

        def bits(result, name):
            return result.records.columns[CSV_COLUMNS.index(name)].view(
                np.uint64)

        for name in ("c_n", "roundoff_total", "roundoff_t1", "roundoff_t2",
                     "roundoff_t3"):
            np.testing.assert_array_equal(bits(tripled, name),
                                          bits(base, name))
        R_mu = [np.float64(r.summary["R_mu"]).view(np.uint64)
                for r in (base, tripled)]
        assert R_mu[0] == R_mu[1]
        s, t = base.summary, tripled.summary
        assert t["mu_A"] == 3.0 * s["mu_A"]
        assert t["C_const"] == t["mu_A"] * s["lipschitz_max_ratio"]
        assert t["C_const"] == pytest.approx(3.0 * s["C_const"], rel=1e-15)
        np.testing.assert_array_equal(
            bits(tripled, "C_const"),
            np.full(len(base.records), t["C_const"]).view(np.uint64))

    def test_error_bound_dominates_measured_errors(self, bench_result):
        for rec in bench_result.records:
            assert rec.E_kn <= rec.c_n
        assert bench_result.summary["bound_dominates"]

    def test_random_obs_layout_runs(self):
        cfg = dataclasses.replace(ExperimentConfig(), obs_layout="random",
                                  max_outer=3, seed=5)
        result = run_experiment(cfg)
        assert result.records


def _poison(monkeypatch, R_obs=(), E=(), probe=None):
    """Write values into chosen cells of the round-off proxies R_obs[n, k]
    and the error table E[n, k], and append a probe difference, during a
    run."""
    analysis = harness.analysis
    real_roundoff = analysis.roundoff_proxies
    real_history = analysis.error_and_bound_history
    real_lipschitz = analysis.lipschitz_estimate

    def roundoff(trajectory, M):
        table, rho = real_roundoff(trajectory, M)
        for (n, k), value in R_obs:
            table[n, k] = value
        return table, rho

    def history(table, params):
        for (n, k), value in E:
            table[n, k] = value
        return real_history(table, params)

    def lipschitz(M, differences):
        return real_lipschitz(M, differences if probe is None
                              else np.vstack([differences, probe]))

    monkeypatch.setattr(analysis, "roundoff_proxies", roundoff)
    monkeypatch.setattr(analysis, "error_and_bound_history", history)
    monkeypatch.setattr(analysis, "lipschitz_estimate", lipschitz)


NAN, INF = float("nan"), float("inf")
NAN_PROBE = np.full(16, NAN)


class TestDiagnosticError:
    """A non-finite report cell raises DiagnosticError naming the first row
    (n, then k) that holds one and, in that row, the first such column in
    CSV_COLUMNS order: what a per-record, per-field loop finds first."""

    # np=16 with 4 time points converges exactly: rows n = 1..3, k = 1..3.
    # R_obs[n - 1, k - 1] feeds row (n, k)'s roundoff_t2 and roundoff_total;
    # R_obs[n, 0] feeds roundoff_t1 and roundoff_total of every row at n.
    @pytest.mark.parametrize("poison, where", [
        ({"R_obs": [((1, 2), NAN)]}, "roundoff_total at k=3, n=2"),
        ({"R_obs": [((1, 2), INF)]}, "roundoff_total at k=3, n=2"),
        ({"R_obs": [((2, 0), NAN)]}, "roundoff_total at k=1, n=2"),
        ({"E": [((3, 1), NAN)], "R_obs": [((0, 1), INF)]},
         "roundoff_total at k=2, n=1"),
        ({"E": [((1, 3), INF)], "R_obs": [((0, 1), NAN)]},
         "roundoff_total at k=2, n=1"),
        ({"E": [((2, 2), NAN)], "R_obs": [((1, 1), NAN)]}, "E_kn at k=2, n=2"),
        ({"E": [((3, 3), -INF)]}, "E_kn at k=3, n=3"),
        ({"probe": NAN_PROBE}, "C_const at k=1, n=1"),
    ])
    def test_message_names_first_row_then_first_column(self, monkeypatch,
                                                       poison, where):
        _poison(monkeypatch, **poison)
        config = load_config(None, {"np": 16, "n_steps": 4})
        with pytest.raises(harness.DiagnosticError) as info:
            run_experiment(config)
        assert str(info.value) == f"non-finite diagnostic {where}"

    @pytest.mark.parametrize("poison, where", [
        ({"R_obs": [((1, 2), NAN)]}, "roundoff_total at k=3, n=2"),
        ({"R_obs": [((1, 2), INF)]}, "roundoff_total at k=3, n=2"),
        ({"probe": NAN_PROBE}, "C_const at k=1, n=1"),
    ])
    def test_cli_exits_three_without_report(self, monkeypatch, tmp_path,
                                            capsys, poison, where):
        _poison(monkeypatch, **poison)
        out = tmp_path / "report.csv"
        code = harness.main(["--np", "16", "--slabs", "4", "--out", str(out)])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.err == f"solver error: non-finite diagnostic {where}\n"
        assert captured.out == ""
        assert not out.exists()


def table(rows):
    """A DiagnosticsTable of row tuples, cells in CSV_COLUMNS order."""
    return harness.DiagnosticsTable(*zip(*rows))


def per_row_report(records, fmt):
    """The report formatted cell by cell, one %-template per row."""
    cells = ["%d", "%d", *["%.17g"] * 11]
    row = {"csv": ",".join(cells),
           "json": "  {" + ", ".join(f'"{col}": {cell}' for col, cell
                                     in zip(CSV_COLUMNS, cells)) + "}"}[fmt]
    rows = [row % dataclasses.astuple(rec) for rec in records]
    if fmt == "csv":
        return "\n".join([",".join(CSV_COLUMNS), *rows, ""])
    return "[\n" + ",\n".join(rows) + "\n]\n"


class TestEmitReport:
    def test_header_is_frozen(self, bench_result):
        text = render_report(bench_result.records, "csv")
        assert text.splitlines()[0] == ("k,n,E_kn,delta_norm,c_n,mps_residual,"
                                        "mu_A,C_const,eps_mps,roundoff_total,"
                                        "roundoff_t1,roundoff_t2,roundoff_t3")

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            render_report([], "csv")

    def test_csv_round_trip_exact(self, bench_result, tmp_path):
        path = tmp_path / "report.csv"
        emit_report(bench_result.records, "csv", str(path))
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        assert tuple(header) == CSV_COLUMNS
        for line, rec in zip(lines[1:], bench_result.records):
            values = line.split(",")
            for name, raw in zip(header, values):
                expected = getattr(rec, name)
                if name in ("k", "n"):
                    assert int(raw) == expected
                else:
                    assert float(raw) == expected

    def test_json_round_trip_exact(self, bench_result, tmp_path):
        path = tmp_path / "report.json"
        emit_report(bench_result.records, "json", str(path))
        rows = json.loads(path.read_text())
        assert len(rows) == len(bench_result.records)
        for row, rec in zip(rows, bench_result.records):
            for name in CSV_COLUMNS:
                assert row[name] == getattr(rec, name)

    def test_rows_match_per_cell_formatting(self):
        def fmt(value):
            """The per-cell formatter the row templates replace."""
            if isinstance(value, (int, np.integer)):
                return str(int(value))
            return f"{float(value):.17g}"

        cells = [0.1, np.float64(-2.5e-300), -0.0, np.inf, -np.inf, np.nan,
                 np.float64(np.nan), 7, np.int64(-3), 1e300, np.float64(1 / 3),
                 5e-324]
        records = table(
            (k, n, *[cells[(i + j) % len(cells)] for j in range(11)])
            for i, (k, n) in enumerate([(1, 1), (np.int64(2), np.int64(30)),
                                        (True, 0), (39, np.int64(7))] * 3))
        csv_rows = render_report(records, "csv").splitlines()[1:]
        json_rows = render_report(records, "json").splitlines()[1:-1]
        assert len(csv_rows) == len(json_rows) == len(records)
        for rec, csv_row, json_row in zip(records, csv_rows, json_rows):
            values = [fmt(getattr(rec, col)) for col in CSV_COLUMNS]
            assert csv_row == ",".join(values)
            body = ", ".join(f'"{c}": {v}' for c, v in zip(CSV_COLUMNS, values))
            assert json_row.rstrip(",") == "  {" + body + "}"

    @seed(3301)
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(extra=st.lists(st.one_of(
               st.sampled_from([5e-324, -5e-324, 2.2250738585072014e-308,
                                np.inf, -np.inf, np.nan, -np.nan, 1 / 3]),
               st.floats(allow_subnormal=True)), max_size=4),
           rows=st.lists(st.tuples(st.integers(-2**63, 2**63 - 1),
                                   st.integers(0, 50),
                                   st.lists(st.integers(0, 5), min_size=11,
                                            max_size=11)),
                         min_size=1, max_size=12))
    def test_report_is_the_per_row_formula(self, extra, rows):
        # each float cell is drawn from a small pool, so cells repeat
        pool = [0.0, -0.0, *extra]
        records = table((k, n, *[pool[i % len(pool)] for i in picks])
                        for k, n, picks in rows)
        for fmt in ("csv", "json"):
            assert render_report(records, fmt) == per_row_report(records, fmt)

    @pytest.mark.parametrize("n_rows", [63, 64, 65, 128, 129, 200])
    def test_block_edges_keep_every_row(self, n_rows):
        # rows are joined 64 at a time
        records = table((i, i % 7, i / 3, *[-0.0] * 10)
                        for i in range(n_rows))
        for fmt in ("csv", "json"):
            assert render_report(records, fmt) == per_row_report(records, fmt)

    def test_signed_zeros_in_one_column_stay_apart(self):
        records = table((1, n, z, *[1.0] * 10)
                        for n, z in enumerate([0.0, -0.0, 0.0, -0.0], start=1))
        cells = [line.split(",")[2] for line
                 in render_report(records, "csv").splitlines()[1:]]
        assert cells == ["0", "-0", "0", "-0"]
        assert re.findall(r'"E_kn": ([^,]*),', render_report(
            records, "json")) == ["0", "-0", "0", "-0"]

    def test_unwritable_path_rejected(self, bench_result):
        with pytest.raises(ValueError):
            emit_report(bench_result.records, "csv", "/nonexistent/dir/report.csv")

    def test_unknown_format_rejected(self, bench_result):
        with pytest.raises(ValueError):
            render_report(bench_result.records, "yaml")


class TestDiagnosticsTable:
    def test_run_and_render_build_no_record(self, monkeypatch):
        built = []
        real = harness.DiagnosticsRecord.__init__

        def spy(self, *args, **kwargs):
            built.append(args)
            real(self, *args, **kwargs)

        monkeypatch.setattr(harness.DiagnosticsRecord, "__init__", spy)
        result = run_experiment(load_config(None, {"np": 16, "n_steps": 4}))
        for fmt in ("csv", "json"):
            render_report(result.records, fmt)
        assert built == []
        rows = list(result.records)     # rows are built when asked
        assert len(built) == len(rows) == len(result.records) == 9

    def test_rows_are_records_of_the_columns(self, bench_result):
        # perfbench's check reads dataclasses.fields(rec) and rec.k
        records = bench_result.records
        columns = records.columns
        assert [c.dtype for c in columns] == [np.int64] * 2 + [np.float64] * 11
        rows = list(records)
        assert len(rows) == len(records) == len(columns[0])
        for i, rec in enumerate(rows):
            assert type(rec) is harness.DiagnosticsRecord
            assert rec == records[i] == records[i - len(records)]
            assert [f.name for f in dataclasses.fields(rec)] == list(CSV_COLUMNS)
            cells = dataclasses.astuple(rec)
            assert [type(c) for c in cells] == [int] * 2 + [float] * 11
            assert [np.array(c, dtype=col.dtype).tobytes()
                    for c, col in zip(cells, columns)] == [
                col[i].tobytes() for col in columns]

    @pytest.mark.parametrize("col, ours, theirs, equal", [
        ("E_kn", 1.5, 1.5, True),
        ("E_kn", 1.5, 2.5, False),
        ("k", 2, 9, False),
        ("c_n", 0.0, -0.0, True),
        ("mu_A", NAN, NAN, False),
    ])
    def test_equality_is_that_of_the_record_lists(self, col, ours, theirs,
                                                  equal):
        def rows(value):
            cells = [[k, 1, 0.5 * k, *[0.0] * 10] for k in range(1, 4)]
            cells[1][CSV_COLUMNS.index(col)] = value
            return cells

        a, b = table(rows(ours)), table(rows(theirs))
        assert (a == b) is (list(a) == list(b)) is equal
        assert (a == table(rows(ours)[:2])) is False

    def test_immutable(self, bench_result):
        records = bench_result.records
        with pytest.raises(ValueError):
            records.columns[2][0] = 1.0
        with pytest.raises(AttributeError):
            records.columns = ()

    def test_columns_are_checked(self):
        with pytest.raises(ValueError, match="need 13 columns, got 12"):
            harness.DiagnosticsTable(*[[1]] * 12)
        with pytest.raises(ValueError, match="of one length"):
            harness.DiagnosticsTable([1, 2], *[[1]] * 12)


class TestCli:
    def test_converged_run_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = harness.main(["--np", "16", "--slabs", "4", "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("k,n,")
        assert "status=converged" in capsys.readouterr().err

    def test_config_error_exits_one(self, capsys):
        code = harness.main(["--overlap", "99"])
        assert code == 1
        assert "overlap" in capsys.readouterr().err

    def test_non_convergence_exits_two(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = harness.main(["--max-iters", "1", "--tol", "1e-14",
                             "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "reason=max_outer" in err
        assert "bound_dominates=" in err

    def test_inner_non_convergence_on_stderr(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("max_sweeps = 5\nL = 2.0\nlambda = 0.05\n"
                            "rho_penalty = 5.0\nn_sub = 4\n")
        code = harness.main(["--config", str(cfg_file),
                             "--out", str(tmp_path / "report.csv")])
        assert code == 2
        line = capsys.readouterr().err.strip()
        assert "reason=exact" in line
        assert line.endswith("mps_unconverged=7 slabs=1,2,3,4,5,6,7")

    def test_cg_breakdown_exits_two(self, tmp_path, capsys, recwarn):
        # at tol_mps = 1e-300 every fine solve's r.z reaches 0 first: CG has
        # no step left, so the solve is unconverged, not a solver fault
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("tol_mps = 1e-300\n")
        code = harness.main(["--config", str(cfg_file),
                             "--out", str(tmp_path / "report.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.strip().endswith("mps_unconverged=7 slabs=1,2,3,4,5,6,7")
        assert not recwarn.list

    def test_converged_run_reports_no_inner_failures(self, tmp_path, capsys):
        code = harness.main(["--out", str(tmp_path / "report.csv")])
        assert code == 0
        line = capsys.readouterr().err.strip()
        assert line.endswith("mps_unconverged=0")
        assert " fine_solves=28/56 reason=exact bound_dominates=True " in line

    def test_non_utf8_config_exits_one(self, tmp_path, capsys):
        # it once escaped main as a UnicodeDecodeError traceback
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_bytes(b"np = 3\xff2\n")
        code = harness.main(["--config", str(cfg_file)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"configuration error: config: cannot read "
                              f"{cfg_file}: ")

    def test_too_many_blocks_exits_one(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("np = 6\nnobs = 2\nn_sub = 8\noverlap = 0\n")
        code = harness.main(["--config", str(cfg_file)])
        assert code == 1
        assert "n_sub" in capsys.readouterr().err

    @pytest.mark.parametrize("error", [
        harness.var_solver.VarSolverError("stationarity system is singular"),
        harness.dd_mps.PartitionError("cannot split"),
        harness.testbed.TestbedError("background covariance is not SPD")])
    def test_solver_fault_exits_three(self, monkeypatch, capsys, error):
        def fail(config):
            raise error
        monkeypatch.setattr(harness, "run_experiment", fail)
        code = harness.main(["--np", "16", "--slabs", "4"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.err == f"solver error: {error}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("setting", [
        "sigma_r = 1e-200", "sigma_r = 1e-155", "sigma_r = 1e-150",
        "sigma_b = 1e200", "sigma_b = 1e153", "diffusivity = 1e300",
        "diffusivity = 1e50",
        "velocity = 1e300",
        # L^2 overflows (Python's L**2 raised OverflowError) or underflows to 0
        "L = 1e300", "L = 1.4e154", "L = 1e-200",
        # the background rounds to the truth, so xi = 0
        "sigma_b = 1e-150",
        # alpha B^-1 overflows: 1e303 times 1 / sigma_b^2 = 1e6
        pytest.param(ALPHA_OVERFLOW, id="alpha = 1e303 Hessian overflow"),
        # B = 1e-300 (ones + 1e-10 I): the jitter is subnormal, so rcond = 0
        pytest.param(B_SINGULAR, id="sigma_b = 1e-150 L = 1000 singular B"),
        pytest.param(NOT_POSITIVE_DEFINITE, id="lambda = 1e-6 local cholesky"),
        # the Hessian's scales are far apart: its fault names all three
        "alpha = 1e-300", "sigma_b = 1e150",
        pytest.param(SCALES_APART, id="sigma_b = 1e5 sigma_r = 1e-5"),
        # a huge T makes the time step, not the diffusivity, the cause
        "T = 1e300"])
    def test_numerical_fault_of_valid_config_exits_three(self, tmp_path, capsys,
                                                         recwarn, setting):
        # the small problem, but for the keys that the setting gives itself
        given = {line.split(" = ")[0] for line in setting.splitlines()}
        base = [line for line in ("np = 16", "n_steps = 4", "nobs = 4")
                if line.split(" = ")[0] not in given]
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("\n".join([*base, setting, ""]))
        out = tmp_path / "report.csv"
        code = harness.main(["--config", str(cfg_file), "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        singular = ("Hessian block 0 is singular to working precision: "
                    "SciPy's inverse finds it ill-conditioned (alpha = ")
        names = {"sigma_r = 1e-150": f"{singular}1 with sigma_b = 0.5 and "
                                     "sigma_r = 1e-150)\n",
                 "alpha = 1e-300": f"{singular}1e-300 with sigma_b = 0.5 and "
                                   "sigma_r = 0.05)\n",
                 "sigma_b = 1e150": f"{singular}1 with sigma_b = 1e+150 and "
                                    "sigma_r = 0.05)\n",
                 SCALES_APART: f"{singular}1 with sigma_b = 100000 and "
                               "sigma_r = 1e-05)\n",
                 "T = 1e300": "diffusivity: 0.05 with h = T/(n_steps - 1) = "
                              "3.33333e+299 makes the propagator",
                 NOT_POSITIVE_DEFINITE: "subdomain 1: the local system "
                                        "is not positive definite in float64 "
                                        "(lambda = 1e-06 with sigma_b = 10 and "
                                        "sigma_r = 0.0001)",
                 ALPHA_OVERFLOW: "alpha = 1e+303 with sigma_b = 0.001 and "
                                 "sigma_r = 0.05 overflows the Hessian in "
                                 "float64\n",
                 B_SINGULAR: "the background covariance B (sigma_b = "
                             "1e-150, L = 1000) is singular to working "
                             "precision: SciPy's inverse finds it "
                             "ill-conditioned\n"}
        field = setting.split(" = ")[0]
        assert err.startswith(f"solver error: {names.get(setting, field)}")
        assert err.count("\n") == 1
        assert not recwarn.list
        assert not out.exists()

    def test_unwritable_out_exits_one(self, tmp_path, capsys):
        out = tmp_path / "missing" / "report.csv"
        code = harness.main(["--np", "16", "--slabs", "4", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: out: cannot write report")
        assert err.count("\n") == 1

    def test_stdout_report(self, capsys):
        code = harness.main(["--np", "16", "--slabs", "3", "--format", "json"])
        assert code == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)

    def test_separate_processes_match_in_process_run(self, tmp_path):
        args = ["--np", "16", "--slabs", "4", "--seed", "3"]
        outs = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "pintda", *args, "--out", str(path)],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]
        cfg = load_config(None, {"np": 16, "n_steps": 4, "seed": 3})
        in_process = render_report(run_experiment(cfg).records, "csv")
        assert outs[0].decode() == in_process

    def test_average_patch_config_runs(self):
        cfg = dataclasses.replace(ExperimentConfig(), patch="average",
                                  max_outer=3)
        result = run_experiment(cfg)
        assert result.records

    @pytest.mark.parametrize("flag, raw, key, value", [
        ("--np", "16", "np", 16), ("--slabs", "5", "n_steps", 5),
        ("--nsub", "3", "n_sub", 3), ("--overlap", "1", "overlap", 1),
        ("--tol", "1e-7", "tol_parareal", 1e-7),
        ("--max-iters", "4", "max_outer", 4), ("--workers", "2", "workers", 2),
        ("--seed", "9", "seed", 9), ("--format", "json", "format", "json"),
        ("--out", "r.csv", "out", "r.csv")])
    def test_each_flag_reaches_its_key(self, monkeypatch, capsys, flag, raw,
                                       key, value):
        seen = []

        def run(config):
            seen.append(config)
            raise harness.DiagnosticError("stop")

        monkeypatch.setattr(harness, "run_experiment", run)
        assert harness.main([flag, raw]) == 3
        [config] = seen
        assert getattr(config, key) == value
        assert config == dataclasses.replace(ExperimentConfig(), **{key: value})
        assert capsys.readouterr().err == "solver error: stop\n"

    @pytest.mark.parametrize("argv, message", [
        (["--np", "abc"], "np: cannot parse 'abc' as int"),
        (["--slabs", "2.5"], "n_steps: cannot parse '2.5' as int"),
        (["--tol", "tight"], "tol_parareal: cannot parse 'tight' as float"),
        (["--format", "xml"], "format: expected csv or json, got 'xml'"),
        (["--wibble", "3"], "unrecognized arguments: --wibble 3"),
        (["--np"], "argument --np: expected one argument"),
        (["--config", "run.cfg", "--seed", "x"],
         "seed: cannot parse 'x' as int")])
    def test_usage_error_exits_one_with_one_line(self, capsys, argv, message):
        # a flag's value parses as the same key's does in a config file, and
        # no usage dump or exit 2 (a run that did not converge) follows
        assert harness.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"configuration error: {message}\n"
        assert captured.out == ""

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            harness.main(["--help"])
        assert exit_.value.code == 0
        help_text = capsys.readouterr().out
        assert help_text.startswith("usage: pintda ")
        assert all(key.flag in help_text
                   for key in harness.CONFIG_KEYS if key.flag)

    def test_readme_lists_the_schema(self):
        # README's "Flags:" and "Config keys" lists are the table's, in order
        readme = (Path(__file__).resolve().parent.parent
                  / "README.md").read_text()

        def listed(lead):
            (items,) = re.findall(re.escape(lead) + r"((?:\s*`[^`]+`,?)+)",
                                  readme)
            return re.findall(r"`([^`]+)`", items)

        assert listed("Flags:") == ["--config", *(
            key.flag for key in harness.CONFIG_KEYS if key.flag)]
        assert listed("Config keys (defaults are the benchmark):") == [
            key.name for key in harness.CONFIG_KEYS]

    def test_config_file_flag(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("np = 16\nn_steps = 4\nnobs = 4\n")
        out = tmp_path / "r.csv"
        code = harness.main(["--config", str(cfg_file), "--out", str(out)])
        assert code == 0
        assert out.exists()
