"""Experiment orchestration: config ingestion, deterministic runs, reports.

A run is fully determined by (config, seed): the truth, the background, the
observation noise and every solver phase are seeded or exactly reproducible,
and the worker count only changes how independent slab corrections are
scheduled, never their values.  Reports are emitted with 17 significant
digits so a parsed report reproduces every float exactly.  run_experiment
reads the report's error table E_kn = ||reference[k] - u^n_k|| and its
correction norms delta_norm from the Parareal trajectory's levels and the
serial fine chain, which run_parareal solves inside its batches; the
iteration's history adds only what it alone knows.

ExperimentResult.records is the report as a DiagnosticsTable: one read-only
NumPy column per CSV_COLUMNS entry (k and n int64, the rest float64), one
row per (n, k).  render_report reads those columns.  The table is also a
sequence of DiagnosticsRecord: len(records), records[i] and iterating it
build the rows, with Python int and float cells, only when asked, and
records.columns gives the arrays themselves.
"""

from __future__ import annotations

import argparse
import math
import numbers
import sys
from collections.abc import Sequence
from dataclasses import dataclass, fields

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


# config-file key -> dataclass field (lambda is a reserved word in Python)
_KEY_TO_FIELD = {f.name: f.name for f in fields(ExperimentConfig)}
_KEY_TO_FIELD["lambda"] = "lam"
del _KEY_TO_FIELD["lam"]

# dataclass field -> the type of its default, which a config file parses to
_FIELD_TYPE = {f.name: type(f.default) for f in fields(ExperimentConfig)}
# field type -> what validate_config accepts for it, and its name for messages;
# an int is a real, kept unconverted, and a bool is neither
_ACCEPTS = {int: (numbers.Integral, "an integer"),
            float: (numbers.Real, "a real number"), str: (str, "a string")}


def _parse_value(key, raw, target_type):
    raw = raw.strip()
    try:
        return target_type(raw)
    except ValueError:
        raise ConfigError(f"{key}: cannot parse {raw!r} as {target_type.__name__}") from None


def parse_config_file(path):
    """Read a flat key=value file; '#' starts a comment, unknown and
    repeated keys reject."""
    values, line_of = {}, {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"config: cannot read {path}: {err}") from err
    for lineno, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"config line {lineno}: expected key = value, got {body!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in _KEY_TO_FIELD:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        if key in line_of:
            raise ConfigError(f"config line {lineno}: key {key!r} is already "
                              f"given on line {line_of[key]}")
        line_of[key] = lineno
        field_name = _KEY_TO_FIELD[key]
        values[field_name] = _parse_value(key, raw, _FIELD_TYPE[field_name])
    return values


def validate_config(config):
    """Type- and range-check every field; messages name the offending field."""
    c = config
    for key, name in _KEY_TO_FIELD.items():
        value = getattr(c, name)
        accepted, what = _ACCEPTS[_FIELD_TYPE[name]]
        if not isinstance(value, accepted) or isinstance(value, bool):
            raise ConfigError(f"{key}: expected {what}, got {value!r}")
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


CSV_COLUMNS = tuple(f.name for f in fields(DiagnosticsRecord))
_INTEGER = ("k", "n")
_DTYPE = {col: np.int64 if col in _INTEGER else np.float64
          for col in CSV_COLUMNS}


class DiagnosticsTable(Sequence):
    """The report rows as columns: one read-only NumPy array per
    CSV_COLUMNS entry, `columns`, k and n int64 and the rest float64.

    It is a sequence of DiagnosticsRecord: indexing and iteration build each
    row, with Python int and float cells, when asked.  Two tables are equal
    when every cell compares equal (so -0.0 equals 0.0, NaN equals nothing),
    as two lists of their records do.  The columns are copied in.
    """

    __slots__ = ("columns",)

    def __init__(self, *columns):
        if len(columns) != len(CSV_COLUMNS):
            raise ValueError(f"need {len(CSV_COLUMNS)} columns, "
                             f"got {len(columns)}")
        arrays = tuple(np.array(values, dtype=_DTYPE[col])
                       for col, values in zip(CSV_COLUMNS, columns))
        if {a.shape for a in arrays} != {(len(arrays[0]),)}:
            raise ValueError(f"columns must be 1-D and of one length, got "
                             f"shapes {[a.shape for a in arrays]}")
        for a in arrays:
            a.flags.writeable = False
        object.__setattr__(self, "columns", arrays)

    def __setattr__(self, name, value):
        raise AttributeError("a DiagnosticsTable is immutable")

    def __len__(self):
        return len(self.columns[0])

    def __getitem__(self, i):
        return DiagnosticsRecord(*(col[i].item() for col in self.columns))

    def __iter__(self):
        return map(DiagnosticsRecord, *(col.tolist() for col in self.columns))

    def __eq__(self, other):
        if not isinstance(other, DiagnosticsTable):
            return NotImplemented
        return all(map(np.array_equal, self.columns, other.columns))


@dataclass
class ExperimentResult:
    records: DiagnosticsTable
    status: str              # converged | non-converged
    summary: dict
    trajectory: object
    reference: np.ndarray    # the serial fine chain, one row per time point
    chain_histories: list    # slab k's chain fine-solve history at k - 1
    history: object          # the run's parareal.PararealHistory

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
    vconfig = var_solver.VarProblemConfig(
        instance=instance, covpair=covpair, observations=observations,
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
    vconfig, partition = build_problem(config)
    M, n_points = vconfig.instance.M, vconfig.instance.n_steps
    factors = dd_mps.build_factors(vconfig, partition)

    mu_A = var_solver.hessian_condition(vconfig, "fourD")

    trajectory, phist, chain = parareal.run_parareal(
        vconfig, factors, tol=config.tol_parareal, max_outer=config.max_outer,
        tol_mps=config.tol_mps, max_sweeps=config.max_sweeps,
        workers=config.workers)
    reference, chain_delta, chain_hists = chain

    # The realized error directions reference - u^n of every level, formed
    # once and in place as one (levels, points, np) array: the Lipschitz
    # probes read them after the differences of random pairs, then they
    # reduce in place to the error table E[n, k] = ||reference[k] - u^n_k||.
    errors = np.array(trajectory.u)
    np.subtract(reference, errors, out=errors)
    pairs = np.random.default_rng([config.seed, 3]).standard_normal(
        (32, 2, config.np))
    lip = analysis.lipschitz_estimate(M, mu_A, np.concatenate(
        [pairs[:, 0] - pairs[:, 1], *errors]))
    E = np.abs(errors, out=errors).max(axis=2)
    del errors          # not held through the round-off shadow's own stacks

    xi, sigma_err, delta_err = analysis.twin_error_scales(
        vconfig.u0, vconfig.observations.u_truth, reference, M)
    if xi == 0:
        raise DiagnosticError(
            f"sigma_b = {config.sigma_b:g} leaves the background equal to the "
            f"truth in float64 (xi = 0), so C_error_scale is undefined")

    C_h = float(np.max(np.abs(chain_delta)))
    eps_candidates = [h.eps_mps for hists in phist.mps for h in hists]
    eps_mps = max(eps_candidates) if eps_candidates else 0.0

    params = analysis.BoundParameters(
        C=lip.C, mu_A=mu_A, eps_mps=eps_mps, N=n_points - 1, C_h=C_h)
    c_bound = analysis.error_and_bound_history(E, params)
    R_obs, rho_local = analysis.roundoff_proxies(trajectory, M)
    rb = analysis.roundoff_bound(params, R_prev=R_obs[:-1, :-1],
                                 R0=R_obs[1:, :1], rho=rho_local)

    # The report's columns in CSV_COLUMNS order, one entry per (n, k) row in
    # row order, as the rows of one float array for the finiteness check; a
    # value fixed per run or per n is broadcast or repeated.
    n_outer, n_slabs = trajectory.n, n_points - 1
    k = np.tile(np.arange(1, n_points), n_outer)
    n = np.repeat(np.arange(1, n_outer + 1), n_slabs)
    cells = np.empty((len(CSV_COLUMNS), n_outer * n_slabs))
    cells[0], cells[1], cells[2] = k, n, E[1:, 1:].ravel()
    for row, delta in zip(cells[3].reshape(n_outer, n_slabs), trajectory.delta):
        np.max(np.abs(delta[1:]), axis=1, out=row)
    cells[4] = np.repeat(c_bound[1:], n_slabs)
    cells[5] = np.fromiter((h.eq_residual for hists in phist.mps for h in hists),
                           float, count=len(k))
    cells[6], cells[7], cells[8] = mu_A, lip.C, eps_mps
    cells[9] = rb.total.ravel()
    cells[10] = np.repeat(rb.term_initial.ravel(), n_slabs)
    cells[11], cells[12] = rb.term_iteration.ravel(), rb.term_rho
    finite = np.isfinite(cells)
    if not finite.all():        # name the first row, then its first column
        row = np.argmin(finite.all(axis=0))
        raise DiagnosticError(f"non-finite diagnostic "
                              f"{CSV_COLUMNS[np.argmin(finite[:, row])]} "
                              f"at k={k[row]}, n={n[row]}")
    records = DiagnosticsTable(k, n, *cells[2:])

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
        "bound_dominates": bool(np.all(E[1:, 1:] <= c_bound[1:, None])),
        "mu_A": mu_A,
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
        "chain": analysis.chain_discrepancy(
            M, vconfig.instance.M_inv_norm, mu_A, xi, delta_err),
    }
    return ExperimentResult(records=records, status=status, summary=summary,
                            trajectory=trajectory, reference=reference,
                            chain_histories=chain_hists, history=phist)


# One %-conversion per column: the integer columns k and n, then floats
# with 17 significant digits.  Per format, a row from its cells' strings and
# the text between rows.
_CELL = {col: "%d" if col in _INTEGER else "%.17g" for col in CSV_COLUMNS}
_ROW = {"csv": (",".join, "\n"),
        "json": (("  {" + ", ".join(f'"{col}": %s' for col in CSV_COLUMNS)
                  + "}").__mod__, ",\n")}
_BLOCK = 64                     # rows joined at a time


def _column_text(column, cell):
    """The column's strings, each distinct value formatted once: a value is
    keyed by its 64 bits, so -0.0 and 0.0 stay apart.  The distinct bits
    are found with a dict, not a sort: with NumPy 2.4 the first call of any
    NumPy sort adds 128-320 KB to the process's resident memory."""
    bits = column.view(np.uint64).tolist()
    distinct = list(dict.fromkeys(bits))
    values = np.array(distinct, dtype=np.uint64).view(column.dtype).tolist()
    text = dict(zip(distinct, map(cell.__mod__, values)))
    return list(map(text.__getitem__, bits))


def render_report(records, format="csv"):
    """Serialize a DiagnosticsTable; floats carry 17 significant digits.

    `records` is ExperimentResult.records, the columnar table run_experiment
    forms; its rows, as DiagnosticsRecord, come from iterating or indexing
    it, but render_report reads its `columns` arrays.  Each distinct value
    of a column is formatted once, and the rows are built from those
    strings, so a long report whose cells repeat (the exact slabs' zeros,
    per-run and per-iteration constants) pays per distinct value, not per
    cell.  The rows are joined a block at a time, each block's cell strings
    dropped as it is joined, so the strings and the rows never all live at
    once."""
    if not records:
        raise ValueError("no diagnostics records to emit")
    if format not in _ROW:
        raise ValueError(f"unknown report format {format!r}")
    row, sep = _ROW[format]
    texts = [_column_text(column, _CELL[col])
             for col, column in zip(CSV_COLUMNS, records.columns)]
    blocks = []
    while texts[0]:
        block = [text[:_BLOCK] for text in texts]
        for text in texts:
            del text[:_BLOCK]
        blocks.append(sep.join(map(row, zip(*block))))
    if format == "csv":
        return "\n".join([",".join(CSV_COLUMNS), *blocks, ""])
    return "[\n" + sep.join(blocks) + "\n]\n"


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
    """Each flag but --config writes its config key, its `dest`."""
    parser = argparse.ArgumentParser(
        prog="pintda",
        description="Run a parallel-in-time data-assimilation twin experiment.")
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--np", type=int, help="number of spatial grid points")
    parser.add_argument("--slabs", type=int, dest="n_steps",
                        help="number of time points")
    parser.add_argument("--nsub", type=int, dest="n_sub",
                        help="number of subdomains")
    parser.add_argument("--overlap", type=int, help="shared points between blocks")
    parser.add_argument("--tol", type=float, dest="tol_parareal",
                        help="outer iteration tolerance")
    parser.add_argument("--max-iters", type=int, dest="max_outer",
                        help="outer iteration cap")
    parser.add_argument("--workers", type=int, help="parallel workers")
    parser.add_argument("--seed", type=int, help="experiment seed")
    parser.add_argument("--format", choices=("csv", "json"), help="report format")
    parser.add_argument("--out", help="report path, '-' for stdout")
    return parser


def main(argv=None):
    """CLI entry point; exit code 0 converged, 2 non-converged, 1 bad config
    or an unwritable report path, 3 a solver fault (a singular system, a
    non-finite diagnostic, an unusable partition or testbed input).

    The stderr status line ends with `fine_solves=<run>/<run+reused>` (the
    Schwarz fine solves run, serial chain included, over those plus the
    Parareal solves reused from the previous level or the chain; summary keys
    `fine_solves` and `fine_solves_reused`), `reason=` (why the outer
    iteration stopped), `bound_dominates=` and `mps_unconverged=<count>`, the
    number of slabs whose fine solve did not converge (max_sweeps, or r.z = 0)
    in the serial chain or any outer iteration, then `slabs=<k,...>` when it
    is nonzero.
    summary["outer_to_slabs"] is n_outer over the slab count.
    """
    overrides = {key: value for key, value
                 in vars(_build_arg_parser().parse_args(argv)).items()
                 if value is not None}
    try:
        config = load_config(overrides.pop("config", None), overrides)
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
