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
from dataclasses import dataclass, field, fields, make_dataclass

import numpy as np

from . import analysis, dd_mps, parareal, testbed, var_solver


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""


class DiagnosticError(ArithmeticError):
    """A report diagnostic came out non-finite: float64 broke down."""


@dataclass(frozen=True)
class ConfigKey:
    """One config key: its name in a file or an override, its default (and so
    its type), its CLI flag and help, the values a string key accepts, and
    the ExperimentConfig field it sets if not its name (`lambda` is reserved)."""

    name: str
    default: object
    flag: str | None = None
    help: str | None = None
    choices: tuple = ()
    attr: str = ""

    def __post_init__(self):
        object.__setattr__(self, "attr", self.attr or self.name)

    def one_of(self):
        """The range rule of a key with choices: its value is one of them."""
        return (self.name, lambda c: getattr(c, self.attr) not in self.choices,
                f"expected {' or '.join(self.choices)}, got {{{self.attr}!r}}")

    def parse(self, raw):
        """A string from a config file or a flag, as the key's type."""
        try:
            return type(self.default)(raw)
        except ValueError:
            raise ConfigError(f"{self.name}: cannot parse {raw!r} as "
                              f"{type(self.default).__name__}") from None


# The config schema: one row per key, in ExperimentConfig's field order, the
# order validate_config type-checks them in; the defaults are the benchmark.
CONFIG_KEYS = (
    ConfigKey("np", 32, "--np", "number of spatial grid points"),
    ConfigKey("n_steps", 8, "--slabs", "number of time points"),
    ConfigKey("T", 1.0),
    ConfigKey("velocity", 1.0),
    ConfigKey("diffusivity", 0.05),
    ConfigKey("sigma_b", 0.5),
    ConfigKey("sigma_r", 0.05),
    ConfigKey("L", 0.0),
    ConfigKey("nobs", 8),
    ConfigKey("obs_layout", "stride", choices=("stride", "random")),
    ConfigKey("seed", 2025, "--seed", "experiment seed"),
    ConfigKey("n_sub", 2, "--nsub", "number of subdomains"),
    ConfigKey("overlap", 2, "--overlap", "shared points between blocks"),
    ConfigKey("rho_penalty", 1.0),                       # no effect (see README)
    ConfigKey("alpha", 1.0),
    ConfigKey("tol_mps", 1e-10),
    ConfigKey("max_sweeps", 60),
    ConfigKey("tol_parareal", 1e-9, "--tol", "outer iteration tolerance"),
    ConfigKey("max_outer", 8, "--max-iters", "outer iteration cap"),
    ConfigKey("patch", "owner", choices=("owner", "average")),  # no effect
    ConfigKey("workers", 1, "--workers", "parallel workers"),
    ConfigKey("format", "csv", "--format", "report format", ("csv", "json")),
    ConfigKey("out", "-", "--out", "report path, '-' for stdout"),
    ConfigKey("lambda", 1.0, attr="lam"),
)
_KEYS = {key.name: key for key in CONFIG_KEYS}

# The range rules, applied in order after the type checks: the key a failure
# names, the condition that rejects the config, and the message, a format
# string over the config's fields.
CONFIG_RULES = (
    ("np", lambda c: c.np < 2, "need at least 2 grid points, got {np}"),
    ("n_steps", lambda c: c.n_steps < 2, "need at least 2 time points, got {n_steps}"),
    ("T", lambda c: c.T <= 0, "must be positive, got {T}"),
    ("diffusivity", lambda c: c.diffusivity < 0, "must be nonnegative, got {diffusivity}"),
    ("sigma_b", lambda c: c.sigma_b <= 0, "must be positive, got {sigma_b}"),
    ("sigma_r", lambda c: c.sigma_r <= 0, "must be positive, got {sigma_r}"),
    ("L", lambda c: c.L < 0, "must be nonnegative, got {L}"),
    ("nobs", lambda c: not 0 < c.nobs < c.np, "must satisfy 0 < nobs < np, got {nobs}"),
    _KEYS["obs_layout"].one_of(),
    ("n_sub", lambda c: c.n_sub < 1, "must be >= 1, got {n_sub}"),
    ("n_sub", lambda c: c.n_sub > c.np, "cannot split np={np} points into {n_sub} blocks"),
    ("overlap", lambda c: c.overlap < 0, "must be >= 0, got {overlap}"),
    ("overlap", lambda c: c.n_sub > 1 and c.overlap * (c.n_sub - 1) >= c.np,
     "{overlap} with n_sub={n_sub} does not fit np={np}"),
    ("rho_penalty", lambda c: c.rho_penalty < 0, "must be nonnegative, got {rho_penalty}"),
    ("alpha", lambda c: c.alpha <= 0, "must be positive, got {alpha}"),
    ("lambda", lambda c: c.lam <= 0, "must be positive, got {lam}"),
    ("tol_mps", lambda c: c.tol_mps <= 0, "must be positive, got {tol_mps}"),
    ("tol_parareal", lambda c: c.tol_parareal <= 0, "must be positive, got {tol_parareal}"),
    ("max_sweeps", lambda c: c.max_sweeps < 1, "must be >= 1, got {max_sweeps}"),
    ("max_outer", lambda c: c.max_outer < 1, "must be >= 1, got {max_outer}"),
    _KEYS["patch"].one_of(),
    ("workers", lambda c: c.workers < 1, "must be >= 1, got {workers}"),
    ("seed", lambda c: c.seed < 0, "must be >= 0, got {seed}"),
    _KEYS["format"].one_of(),
)

ExperimentConfig = make_dataclass("ExperimentConfig", [
    (key.attr, type(key.default), field(default=key.default)) for key in CONFIG_KEYS],
    namespace={"__module__": __name__, "__doc__": "A run: one field per CONFIG_KEYS row."})

# a key's type -> what a value must be, by name; an int is a real, kept as is
_ACCEPTS = {int: (numbers.Integral, "an integer"),
            float: (numbers.Real, "a real number"), str: (str, "a string")}


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
        name, raw = (part.strip() for part in body.split("=", 1))
        if name not in _KEYS:
            raise ConfigError(f"config line {lineno}: unknown key {name!r}")
        if name in line_of:
            raise ConfigError(f"config line {lineno}: key {name!r} is already "
                              f"given on line {line_of[name]}")
        line_of[name] = lineno
        values[name] = _KEYS[name].parse(raw)
    return values


def validate_config(config):
    """Type-check every field, in CONFIG_KEYS order, then apply CONFIG_RULES
    in order; the first failure raises ConfigError naming its key."""
    for key in CONFIG_KEYS:
        value, kind = getattr(config, key.attr), type(key.default)
        if type(value) is not kind:     # an exact type skips the slow ABC check
            accepted, what = _ACCEPTS[kind]
            if not isinstance(value, accepted) or isinstance(value, bool):
                raise ConfigError(f"{key.name}: expected {what}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{key.name}: must be finite, got {value}")
    for name, rejects, message in CONFIG_RULES:
        if rejects(config):
            raise ConfigError(f"{name}: {message.format_map(vars(config))}")
    return config


def load_config(path=None, overrides=None):
    """Defaults, then the config file, then explicit overrides; validated."""
    values = parse_config_file(path) if path is not None else {}
    for name, value in (overrides or {}).items():
        if name not in _KEYS:
            raise ConfigError(f"unknown config key {name!r}")
        values[name] = value
    return validate_config(ExperimentConfig(
        **{_KEYS[name].attr: value for name, value in values.items()}))


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
    ratio = analysis.lipschitz_estimate(M, np.concatenate(
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
        ratio=ratio, eps_mps=eps_mps, N=n_points - 1, C_h=C_h)
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
    # mu_A enters no bound: C = mu_A r is formed only to be reported
    C_const = mu_A * ratio
    cells[6], cells[7], cells[8] = mu_A, C_const, eps_mps
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
        "C_const": C_const,
        "C_error_scale": analysis.error_scale_constant(
            vconfig.instance.M_norm ** 2, delta_err, xi),
        "lipschitz_max_ratio": ratio,
        "eps_mps": eps_mps,
        "C_h": C_h,
        "xi": xi,
        "sigma": sigma_err,
        "delta_err": delta_err,
        "rho_local": rho_local,
        "R_mu": params.R_mu,
        "chain": analysis.chain_discrepancy(
            vconfig.instance.M_norm, vconfig.instance.M_inv_norm, mu_A, xi,
            delta_err),
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


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        """A usage error is a ConfigError: exit 1, not 2 (not converged)."""
        raise ConfigError(message)


def main(argv=None):
    """CLI entry point; exit code 0 converged, 2 non-converged, 1 a usage
    error (a flag's value parses as in a config file), a bad config or an
    unwritable report path, 3 a solver fault (a singular system, a non-finite
    diagnostic, an unusable partition or testbed input); --help exits 0.

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
    parser = _ArgumentParser(prog="pintda", description=(
        "Run a parallel-in-time data-assimilation twin experiment."))
    parser.add_argument("--config", help="flat key=value config file")
    for key in CONFIG_KEYS:     # a flag writes its raw string to its key
        if key.flag:
            parser.add_argument(key.flag, dest=key.name, help=key.help, metavar=(
                "{%s}" % ",".join(key.choices) if key.choices else None))
    try:
        args = vars(parser.parse_args(argv))
        path = args.pop("config")
        config = load_config(path, {name: _KEYS[name].parse(raw)
                                    for name, raw in args.items() if raw is not None})
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
