import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

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
                        "lambda = 2.5\nseed = 7\ntiming = false\n")
        cfg = load_config(str(path))
        assert cfg.np == 16
        assert cfg.n_steps == 4
        assert cfg.lam == 2.5
        assert cfg.seed == 7
        assert cfg.timing is False

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("np = 16\nwibble = 3\n")
        with pytest.raises(ConfigError, match="wibble"):
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

    def test_more_blocks_than_points_names_n_sub(self):
        with pytest.raises(ConfigError, match=r"^n_sub:"):
            load_config(None, {"np": 6, "nobs": 2, "n_sub": 8, "overlap": 0})

    def test_invalid_overlap_names_field(self):
        with pytest.raises(ConfigError, match="overlap"):
            load_config(None, {"np": 16, "n_sub": 4, "overlap": 8})

    def test_overrides_win_over_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("np = 16\n")
        cfg = load_config(str(path), {"np": 24})
        assert cfg.np == 24

    @pytest.mark.parametrize("key,value", [
        ("np", 1), ("n_steps", 1), ("T", 0.0), ("sigma_b", 0.0),
        ("sigma_r", -1.0), ("L", -0.5), ("nobs", 0), ("nobs", 40),
        ("obs_layout", "grid"), ("n_sub", 0), ("rho_penalty", -1.0),
        ("alpha", 0.0), ("lambda", 0.0), ("tol_mps", 0.0),
        ("tol_parareal", -1.0), ("max_sweeps", 0), ("max_outer", 0),
        ("patch", "mean"), ("workers", 0), ("format", "xml"), ("seed", -1),
    ])
    def test_validation_names_every_field(self, key, value):
        with pytest.raises(ConfigError, match=key.replace("lambda", "lambda")):
            load_config(None, {key: value})


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


# A valid config whose local system at time 0 loses lambda to rounding.
NOT_POSITIVE_DEFINITE = "\n".join([
    "np = 18", "n_steps = 2", "n_sub = 2", "overlap = 4", "nobs = 10", "L = 2",
    "velocity = 0", "diffusivity = 1", "obs_layout = random", "lambda = 1e-6",
    "rho_penalty = 0", "alpha = 0.001", "max_sweeps = 5", "max_outer = 2",
    "seed = 862", "sigma_b = 10", "sigma_r = 1e-4"])


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

    def test_delta_norm_is_the_slab_correction_norm(self, bench_result):
        delta = bench_result.trajectory.delta
        for rec in bench_result.records:
            assert rec.delta_norm == float(np.max(np.abs(delta[rec.n - 1][rec.k])))

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

    def test_reuse_leaves_records_and_summary_unchanged(self, monkeypatch):
        cfg = load_config(None, {"max_sweeps": 5, "L": 2.0, "lambda": 0.05,
                                 "rho_penalty": 5.0, "n_sub": 4})
        reused = run_experiment(cfg)
        monkeypatch.setattr(harness.parareal.FineRecords, "find",
                            lambda self, k, background: None)
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
    and the error table E[n, k], and append a probe pair, during a run."""
    analysis = harness.analysis
    real_roundoff = analysis.roundoff_proxies
    real_history = analysis.error_and_bound_history
    real_lipschitz = analysis.lipschitz_estimate

    def roundoff(trajectory, M):
        table, rho = real_roundoff(trajectory, M)
        for (n, k), value in R_obs:
            table[n, k] = value
        return table, rho

    def history(*args, **kwargs):
        errhist = real_history(*args, **kwargs)
        for (n, k), value in E:
            errhist.E[n, k] = value
        return errhist

    def lipschitz(M, mu_A, probe_pairs):
        return real_lipschitz(M, mu_A, [*probe_pairs, *([probe] if probe else [])])

    monkeypatch.setattr(analysis, "roundoff_proxies", roundoff)
    monkeypatch.setattr(analysis, "error_and_bound_history", history)
    monkeypatch.setattr(analysis, "lipschitz_estimate", lipschitz)


NAN, INF = float("nan"), float("inf")
NAN_PROBE = (np.full(16, NAN), np.zeros(16))


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


class TestEmitReport:
    def test_header_is_frozen(self, bench_result):
        text = render_report(bench_result.records, "csv")
        assert text.splitlines()[0] == ("k,n,E_kn,delta_norm,c_n,mps_residual,"
                                        "mu_A,C_const,eps_mps,roundoff_total,"
                                        "roundoff_t1,roundoff_t2,roundoff_t3,"
                                        "wall_ms")

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
        records = [harness.DiagnosticsRecord(
            k, n, *[cells[(i + j) % len(cells)] for j in range(12)])
            for i, (k, n) in enumerate([(1, 1), (np.int64(2), np.int64(30)),
                                        (True, 0), (39, np.int64(7))] * 3)]
        csv_rows = render_report(records, "csv").splitlines()[1:]
        json_rows = render_report(records, "json").splitlines()[1:-1]
        assert len(csv_rows) == len(json_rows) == len(records)
        for rec, csv_row, json_row in zip(records, csv_rows, json_rows):
            values = [fmt(getattr(rec, col)) for col in CSV_COLUMNS]
            assert csv_row == ",".join(values)
            body = ", ".join(f'"{c}": {v}' for c, v in zip(CSV_COLUMNS, values))
            assert json_row.rstrip(",") == "  {" + body + "}"

    def test_unwritable_path_rejected(self, bench_result):
        with pytest.raises(ValueError):
            emit_report(bench_result.records, "csv", "/nonexistent/dir/report.csv")

    def test_unknown_format_rejected(self, bench_result):
        with pytest.raises(ValueError):
            render_report(bench_result.records, "yaml")


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

    def test_converged_run_reports_no_inner_failures(self, tmp_path, capsys):
        code = harness.main(["--out", str(tmp_path / "report.csv")])
        assert code == 0
        line = capsys.readouterr().err.strip()
        assert line.endswith("mps_unconverged=0")
        assert " fine_solves=28/56 reason=exact bound_dominates=True " in line

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
        pytest.param(NOT_POSITIVE_DEFINITE, id="lambda = 1e-6 local cholesky")])
    def test_numerical_fault_of_valid_config_exits_three(self, tmp_path, capsys,
                                                         recwarn, setting):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"np = 16\nn_steps = 4\nnobs = 4\n{setting}\n")
        out = tmp_path / "report.csv"
        code = harness.main(["--config", str(cfg_file), "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        names = {"sigma_r = 1e-150": "Hessian block 0 is singular to working precision",
                 NOT_POSITIVE_DEFINITE: "subdomain 1 at time 0: the local system "
                                        "is not positive definite in float64 "
                                        "(lambda = 1e-06 with sigma_b = 10 and "
                                        "sigma_r = 0.0001)"}
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

    def test_config_file_flag(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("np = 16\nn_steps = 4\nnobs = 4\n")
        out = tmp_path / "r.csv"
        code = harness.main(["--config", str(cfg_file), "--out", str(out)])
        assert code == 0
        assert out.exists()
