"""Experiment orchestration: config ingestion, deterministic runs, reports.

A run is fully determined by (config, seed): the truth, the background, the
observation noise and every solver phase are seeded or exactly reproducible,
and the worker count only changes how independent slab corrections are
scheduled, never their values.  Reports are emitted with 17 significant
digits so a parsed report reproduces every float exactly.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass, fields
from operator import attrgetter

import numpy as np

from . import analysis, dd_mps, parareal, testbed, var_solver


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""


class DiagnosticError(ArithmeticError):
    """A report diagnostic came out non-finite: float64 broke down."""


@dataclass
class ExperimentConfig:
    """Flat run description; defaults are the benchmark configuration."""

    np: int = 32
    n_steps: int = 8
    T: float = 1.0
    velocity: float = 1.0
    diffusivity: float = 0.05
    sigma_b: float = 0.5
    sigma_r: float = 0.05
    L: float = 0.0
    nobs: int = 8
    obs_layout: str = "stride"      # stride | random
    seed: int = 2025
    n_sub: int = 2
    overlap: int = 2
    rho_penalty: float = 1.0        # accepted, no effect (see README)
    alpha: float = 1.0
    lam: float = 1.0
    tol_mps: float = 1e-10
    max_sweeps: int = 60
    tol_parareal: float = 1e-9
    max_outer: int = 8
    patch: str = "owner"            # owner | average; no effect (see README)
    workers: int = 1
    format: str = "csv"             # csv | json
    out: str = "-"
    timing: bool = False


# config-file key -> dataclass field (lambda is a reserved word in Python)
_KEY_TO_FIELD = {f.name: f.name for f in fields(ExperimentConfig)}
_KEY_TO_FIELD["lambda"] = "lam"
del _KEY_TO_FIELD["lam"]


def _parse_value(key, raw, target_type):
    raw = raw.strip()
    try:
        if target_type is bool:
            lowered = raw.lower()
            if lowered in ("true", "1", "yes", "on"):
                return True
            if lowered in ("false", "0", "no", "off"):
                return False
            raise ValueError(raw)
        return target_type(raw)
    except ValueError:
        raise ConfigError(f"{key}: cannot parse {raw!r} as {target_type.__name__}") from None


def parse_config_file(path):
    """Read a flat key=value file; '#' starts a comment, unknown keys reject."""
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as err:
        raise ConfigError(f"config: cannot read {path}: {err}") from err
    type_of = {f.name: type(getattr(ExperimentConfig(), f.name))
               for f in fields(ExperimentConfig)}
    for lineno, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"config line {lineno}: expected key = value, got {body!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in _KEY_TO_FIELD:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        field_name = _KEY_TO_FIELD[key]
        values[field_name] = _parse_value(key, raw, type_of[field_name])
    return values


def validate_config(config):
    """Range-check every numeric field; messages name the offending field."""
    c = config
    for key, name in _KEY_TO_FIELD.items():
        value = getattr(c, name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{key}: must be finite, got {value}")
    if c.np < 2:
        raise ConfigError(f"np: need at least 2 grid points, got {c.np}")
    if c.n_steps < 2:
        raise ConfigError(f"n_steps: need at least 2 time points, got {c.n_steps}")
    if c.T <= 0:
        raise ConfigError(f"T: must be positive, got {c.T}")
    if c.diffusivity < 0:
        raise ConfigError(f"diffusivity: must be nonnegative, got {c.diffusivity}")
    if c.sigma_b <= 0:
        raise ConfigError(f"sigma_b: must be positive, got {c.sigma_b}")
    if c.sigma_r <= 0:
        raise ConfigError(f"sigma_r: must be positive, got {c.sigma_r}")
    if c.L < 0:
        raise ConfigError(f"L: must be nonnegative, got {c.L}")
    if not 0 < c.nobs < c.np:
        raise ConfigError(f"nobs: must satisfy 0 < nobs < np, got {c.nobs}")
    if c.obs_layout not in ("stride", "random"):
        raise ConfigError(f"obs_layout: expected stride or random, got {c.obs_layout!r}")
    if c.n_sub < 1:
        raise ConfigError(f"n_sub: must be >= 1, got {c.n_sub}")
    if c.n_sub > c.np:
        raise ConfigError(f"n_sub: cannot split np={c.np} points into {c.n_sub} blocks")
    if c.overlap < 0:
        raise ConfigError(f"overlap: must be >= 0, got {c.overlap}")
    if c.n_sub > 1 and c.overlap * (c.n_sub - 1) >= c.np:
        raise ConfigError(
            f"overlap: {c.overlap} with n_sub={c.n_sub} does not fit np={c.np}")
    if c.rho_penalty < 0:
        raise ConfigError(f"rho_penalty: must be nonnegative, got {c.rho_penalty}")
    if c.alpha <= 0:
        raise ConfigError(f"alpha: must be positive, got {c.alpha}")
    if c.lam <= 0:
        raise ConfigError(f"lambda: must be positive, got {c.lam}")
    if c.tol_mps <= 0:
        raise ConfigError(f"tol_mps: must be positive, got {c.tol_mps}")
    if c.tol_parareal <= 0:
        raise ConfigError(f"tol_parareal: must be positive, got {c.tol_parareal}")
    if c.max_sweeps < 1:
        raise ConfigError(f"max_sweeps: must be >= 1, got {c.max_sweeps}")
    if c.max_outer < 1:
        raise ConfigError(f"max_outer: must be >= 1, got {c.max_outer}")
    if c.patch not in ("owner", "average"):
        raise ConfigError(f"patch: expected owner or average, got {c.patch!r}")
    if c.workers < 1:
        raise ConfigError(f"workers: must be >= 1, got {c.workers}")
    if c.seed < 0:
        raise ConfigError(f"seed: must be >= 0, got {c.seed}")
    if c.format not in ("csv", "json"):
        raise ConfigError(f"format: expected csv or json, got {c.format!r}")
    return config


def load_config(path=None, overrides=None):
    """Defaults, then the config file, then explicit overrides; validated."""
    values = {}
    if path is not None:
        values.update(parse_config_file(path))
    for key, val in (overrides or {}).items():
        if key not in _KEY_TO_FIELD:
            raise ConfigError(f"unknown config key {key!r}")
        values[_KEY_TO_FIELD[key]] = val
    return validate_config(ExperimentConfig(**values))


@dataclass
class DiagnosticsRecord:
    """One report row per (slab, outer iteration)."""

    k: int
    n: int
    E_kn: float
    delta_norm: float
    c_n: float
    mps_residual: float
    mu_A: float
    C_const: float
    eps_mps: float
    roundoff_total: float
    roundoff_t1: float
    roundoff_t2: float
    roundoff_t3: float
    wall_ms: float


CSV_COLUMNS = tuple(f.name for f in fields(DiagnosticsRecord))


@dataclass
class ExperimentResult:
    records: list
    status: str              # converged | non-converged
    summary: dict
    trajectory: object
    reference: list
    params: object
    error_history: object

    @property
    def converged(self):
        return self.status == "converged"


def build_problem(config):
    """Materialize the twin experiment a config describes."""
    instance = testbed.build_model_instance(
        config.np, config.n_steps, config.T, config.velocity, config.diffusivity)
    covpair = testbed.build_covariance(config.np, config.sigma_b,
                                       config.sigma_r, config.L)

    x = np.arange(config.np) / config.np
    rng_truth = np.random.default_rng([config.seed, 1])
    u_truth = np.sin(2 * np.pi * x) + 0.5 * np.cos(4 * np.pi * x) \
        + 0.1 * rng_truth.standard_normal(config.np)
    u0 = u_truth + covpair.V @ rng_truth.standard_normal(config.np)

    if config.obs_layout == "stride":
        obs_idx = (np.arange(config.nobs) * config.np) // config.nobs
    else:
        rng_layout = np.random.default_rng([config.seed, 2])
        obs_idx = np.sort(rng_layout.choice(config.np, size=config.nobs,
                                            replace=False))
    observations = testbed.build_observations(instance, covpair, obs_idx,
                                              u_truth, seed=config.seed)
    G = testbed.assemble_G(observations, instance)
    vconfig = var_solver.VarProblemConfig(
        instance=instance, covpair=covpair, observations=observations, G=G,
        u0=u0, alpha=config.alpha, lam=config.lam)
    partition = dd_mps.partition_domain(config.np, config.n_sub, config.overlap)
    return vconfig, partition


def run_experiment(config):
    """Build, solve, measure and bound one twin experiment.

    Identical (config, seed) produce identical diagnostics for any worker
    count; non-convergence of either solver layer lands in the status field,
    never in a silent success.
    """
    validate_config(config)
    t_start = time.perf_counter()
    vconfig, partition = build_problem(config)
    instance = vconfig.instance
    M = instance.M
    n_points = instance.n_steps
    factors = dd_mps.build_factors(vconfig, partition)

    reference, chain_hists = parareal.serial_fine_chain(
        vconfig, partition, tol_mps=config.tol_mps,
        max_sweeps=config.max_sweeps, factors=factors)
    hessian = var_solver.hessian_condition(vconfig, "fourD")

    trajectory, phist = parareal.run_parareal(
        vconfig, partition, tol=config.tol_parareal, max_outer=config.max_outer,
        tol_mps=config.tol_mps, max_sweeps=config.max_sweeps,
        workers=config.workers, reference=reference, factors=factors,
        reference_histories=chain_hists)

    # Lipschitz probes: random pairs plus the realized error directions.
    rng_probe = np.random.default_rng([config.seed, 3])
    probes = [(rng_probe.standard_normal(config.np),
               rng_probe.standard_normal(config.np)) for _ in range(32)]
    probes += [pair for level in trajectory.u for pair in zip(reference, level)]
    lip = analysis.lipschitz_estimate(M, hessian.mu, probes)

    xi, sigma_err, delta_err = analysis.twin_error_scales(
        vconfig.u0, vconfig.observations.u_truth, reference, M)
    if xi == 0:
        raise DiagnosticError(
            f"sigma_b = {config.sigma_b:g} leaves the background equal to the "
            f"truth in float64 (xi = 0), so C_error_scale is undefined")

    C_h = max(float(np.max(np.abs(reference[k] - M @ reference[k - 1])))
              for k in range(1, n_points))
    eps_candidates = [h.eps_mps for hists in phist.mps for h in hists]
    eps_mps = max(eps_candidates) if eps_candidates else 0.0

    params = analysis.BoundParameters(
        C=lip.C, mu_A=hessian.mu, eps_mps=eps_mps, N=n_points - 1,
        h=instance.h, p=instance.p, C_h=C_h)
    roundoff = analysis.roundoff_proxies(trajectory, M)
    errhist = analysis.error_and_bound_history(trajectory, reference, params,
                                               roundoff=roundoff, E=phist.E)
    R_obs, rho_local = roundoff
    rb = analysis.roundoff_bound(params, R_prev=R_obs[:-1, :-1],
                                 R0=R_obs[1:, :1], rho=rho_local)

    # The report's columns in CSV_COLUMNS order, one entry per (n, k) row in
    # row order; a value fixed per run or per n is one shared object.
    n_outer, n_slabs = trajectory.n, n_points - 1

    def per_n(values):
        return [v for v in values for _ in range(n_slabs)]

    columns = (
        list(range(1, n_points)) * n_outer, per_n(range(1, n_outer + 1)),
        errhist.E[1:, 1:].ravel().tolist(),
        [x for norms in phist.delta_norms for x in norms],
        per_n(errhist.c_bound[1:].tolist()),
        [h.eq_residual for hists in phist.mps for h in hists],
        *(per_n([v] * n_outer) for v in (hessian.mu, lip.C, eps_mps)),
        rb.total.ravel().tolist(), per_n(rb.term_initial.ravel().tolist()),
        rb.term_iteration.ravel().tolist(), per_n([rb.term_rho] * n_outer),
        per_n([t * 1e3 if config.timing else 0.0 for t in phist.wall_s]))
    finite = np.isfinite(np.array(columns, dtype=float))
    if not finite.all():        # name the first row, then its first column
        row = np.argmin(finite.all(axis=0))
        raise DiagnosticError(f"non-finite diagnostic "
                              f"{CSV_COLUMNS[np.argmin(finite[:, row])]} "
                              f"at k={columns[0][row]}, n={columns[1][row]}")
    records = [DiagnosticsRecord(*cells) for cells in zip(*columns)]

    # slab k's fine solve is chain_hists[k - 1] and phist.mps[n][k - 1]
    mps_unconverged = sorted(
        {k for hists in [chain_hists, *phist.mps]
         for k, h in enumerate(hists, start=1) if not h.converged})
    converged = phist.converged and not mps_unconverged
    status = "converged" if converged else "non-converged"

    solved = sum(len(slabs) for slabs in phist.solved)
    summary = {
        "status": status,
        "parareal_reason": phist.reason,
        "n_outer": phist.n_outer,
        "outer_to_slabs": phist.n_outer / (n_points - 1),
        "fine_solves": len(chain_hists) + solved,
        "fine_solves_reused": phist.n_outer * (n_points - 1) - solved,
        "mps_unconverged": mps_unconverged,
        "bound_dominates": bool(np.all(errhist.E[1:, 1:]
                                       <= errhist.c_bound[1:, None])),
        "mu_A": hessian.mu,
        "C_const": lip.C,
        "C_error_scale": analysis.error_scale_constant(lip.L, delta_err, xi),
        "lipschitz_max_ratio": lip.max_ratio,
        "eps_mps": eps_mps,
        "C_h": C_h,
        "xi": xi,
        "sigma": sigma_err,
        "delta_err": delta_err,
        "rho_local": rho_local,
        "R_mu": params.R_mu,
        "chain": analysis.chain_discrepancy(M, hessian.mu, xi, delta_err),
        "wall_s_total": time.perf_counter() - t_start if config.timing else 0.0,
    }
    return ExperimentResult(records=records, status=status, summary=summary,
                            trajectory=trajectory, reference=reference,
                            params=params, error_history=errhist)


# One %-conversion per column: the integer columns k and n, then floats
# with 17 significant digits.
_CELL = {col: "%d" if col in ("k", "n") else "%.17g" for col in CSV_COLUMNS}
_ROW = {"csv": ",".join(_CELL.values()),
        "json": "  {" + ", ".join(f'"{col}": {cell}'
                                   for col, cell in _CELL.items()) + "}"}
_cells = attrgetter(*CSV_COLUMNS)


def render_report(records, format="csv"):
    """Serialize diagnostics rows; floats carry 17 significant digits."""
    if not records:
        raise ValueError("no diagnostics records to emit")
    if format not in _ROW:
        raise ValueError(f"unknown report format {format!r}")
    row = _ROW[format]
    rows = [row % _cells(rec) for rec in records]
    if format == "csv":
        return "\n".join([",".join(CSV_COLUMNS), *rows, ""])
    return "[\n" + ",\n".join(rows) + "\n]\n"


def emit_report(records, format="csv", path="-"):
    """Write the rendered report to a file, or stdout when path is '-'."""
    text = render_report(records, format=format)
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as err:
        raise ConfigError(f"out: cannot write report to {path}: {err}") from err


def _build_arg_parser():
    parser = argparse.ArgumentParser(
        prog="pintda",
        description="Run a parallel-in-time data-assimilation twin experiment.")
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--np", type=int, dest="np_points",
                        help="number of spatial grid points")
    parser.add_argument("--slabs", type=int, help="number of time points")
    parser.add_argument("--nsub", type=int, help="number of subdomains")
    parser.add_argument("--overlap", type=int, help="shared points between blocks")
    parser.add_argument("--tol", type=float, help="outer iteration tolerance")
    parser.add_argument("--max-iters", type=int, help="outer iteration cap")
    parser.add_argument("--workers", type=int, help="parallel workers")
    parser.add_argument("--seed", type=int, help="experiment seed")
    parser.add_argument("--format", choices=("csv", "json"), help="report format")
    parser.add_argument("--out", help="report path, '-' for stdout")
    return parser


_CLI_TO_KEY = {
    "np_points": "np",
    "slabs": "n_steps",
    "nsub": "n_sub",
    "overlap": "overlap",
    "tol": "tol_parareal",
    "max_iters": "max_outer",
    "workers": "workers",
    "seed": "seed",
    "format": "format",
    "out": "out",
}


def main(argv=None):
    """CLI entry point; exit code 0 converged, 2 non-converged, 1 bad config
    or an unwritable report path, 3 a solver fault (a singular system, a
    non-finite diagnostic, an unusable partition or testbed input).

    The stderr status line ends with `fine_solves=<run>/<run+reused>` (the
    Schwarz fine solves run, serial chain included, over those plus the
    Parareal solves reused from a record; summary keys `fine_solves` and
    `fine_solves_reused`), `reason=` (why the outer iteration stopped),
    `bound_dominates=` and `mps_unconverged=<count>`, the number of slabs
    whose Schwarz fine solve hit max_sweeps in the serial chain or any outer
    iteration, followed by `slabs=<k,...>` when that count is nonzero.
    summary["outer_to_slabs"] is n_outer over the slab count.
    """
    args = _build_arg_parser().parse_args(argv)
    overrides = {}
    for attr, key in _CLI_TO_KEY.items():
        value = getattr(args, attr)
        if value is not None:
            overrides[key] = value
    try:
        config = load_config(args.config, overrides)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 1

    try:
        result = run_experiment(config)
    except (var_solver.VarSolverError, dd_mps.PartitionError,
            testbed.TestbedError, DiagnosticError,
            np.linalg.LinAlgError) as err:
        print(f"solver error: {err}", file=sys.stderr)
        return 3
    try:
        emit_report(result.records, format=config.format, path=config.out)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 1
    s = result.summary
    unconverged = s["mps_unconverged"]
    slabs = f" slabs={','.join(map(str, unconverged))}" if unconverged else ""
    print(f"status={result.status} n_outer={s['n_outer']} "
          f"mu_A={s['mu_A']:.6g} C={s['C_const']:.6g} eps_mps={s['eps_mps']:.3g} "
          f"C_h={s['C_h']:.6g} fine_solves={s['fine_solves']}/"
          f"{s['fine_solves'] + s['fine_solves_reused']} "
          f"reason={s['parareal_reason']} "
          f"bound_dominates={s['bound_dominates']} "
          f"mps_unconverged={len(unconverged)}{slabs}", file=sys.stderr)
    return 0 if result.converged else 2
