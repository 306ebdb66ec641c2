"""Properties of the CLI over the space of valid configs.

The strategy is drawn from the config schema, harness.CONFIG_KEYS: every key
of the table takes its default unless DRAWN gives it a strategy, a key with
choices draws one of them, and each drawn config is first checked to be
valid by the table's own rules.  Sizes stay small so that the draws are
cheap.  Bound dominance is not asserted: the per-(k, n) bound that makes it
sound is still open (ROADMAP item 3).
"""

import contextlib
import dataclasses
import io
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from pintda import harness, var_solver
from pintda.dd_mps import build_factors, run_mps

DEFAULTS = {key.name: key.default for key in harness.CONFIG_KEYS}
POSITIVE = st.sampled_from([0.05, 0.2, 1.0, 3.0])


@st.composite
def sizes(draw):
    """np, n_sub, overlap and nobs that fit together: overlap * (n_sub - 1)
    < np and 0 < nobs < np."""
    n_grid = draw(st.integers(2, 12))
    n_sub = draw(st.integers(1, min(n_grid, 4)))
    widest = (n_grid - 1) // (n_sub - 1) if n_sub > 1 else 3
    return {"np": n_grid, "n_sub": n_sub,
            "overlap": draw(st.integers(0, min(widest, 4))),
            "nobs": draw(st.integers(1, n_grid - 1))}


# per-key strategies; every other key takes its default or, with choices,
# draws one of them, but for format: the test reads the CSV report
DRAWN = {
    "n_steps": st.integers(2, 6),
    "L": st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.0]),
    "velocity": st.sampled_from([1.0, -1.0, 0.0]),
    "diffusivity": st.sampled_from([0.0, 0.05, 0.5]),
    "lambda": POSITIVE,
    "alpha": POSITIVE,
    "sigma_b": st.sampled_from([0.1, 0.5, 2.0]),
    "sigma_r": st.sampled_from([0.01, 0.05, 0.5]),
    "max_sweeps": st.sampled_from([1, 3, 60]),
    "max_outer": st.integers(1, 7),
    "seed": st.integers(0, 2**16),
}


@st.composite
def valid_configs(draw):
    values = {}
    for key in harness.CONFIG_KEYS:
        if key.name in DRAWN:
            values[key.name] = draw(DRAWN[key.name])
        elif key.choices and key.name != "format":
            values[key.name] = draw(st.sampled_from(key.choices))
    return {**values, **draw(sizes())}


def _cli(config_file, out, workers):
    """main's exit code and stderr, with every warning recorded."""
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = harness.main(["--config", str(config_file), "--workers",
                             str(workers), "--out", str(out)])
    assert not caught, [str(w.message) for w in caught]
    return code, stderr.getvalue()


def _error_table(report):
    """The report's (k, n, E_kn) rows."""
    rows = [line.split(",") for line in report.splitlines()[1:]]
    return [(int(k), int(n), float(e)) for k, n, e, *_ in rows]


def _assert_fine_solve_is_the_oracle(config):
    """Slab 1's Schwarz fine solve, at the config's own tolerance and sweep
    cap, is the dense 3D-Var analysis to within the solves' own accuracy:
    sqrt(np) eps_mps for CG's true final residual, converged or not, plus
    the Cholesky oracle's forward error (see TestOracleEquivalence)."""
    vconfig, partition = harness.build_problem(config)
    slab = dataclasses.replace(vconfig, u0=vconfig.instance.M @ vconfig.u0,
                               time_index=1)
    plan = build_factors(slab, partition)
    it, hist = run_mps(plan, slab.u0, 1, config.tol_mps, config.max_sweeps)
    direct = var_solver.solve_var_direct(slab, "threeD").u_da
    A = plan.lam * np.eye(config.np) + plan.rinv * plan.S.T @ plan.S
    lam_min, *_, lam_max = np.linalg.eigvalsh(A)
    roundoff = config.np * np.finfo(float).eps * (
        (lam_max / lam_min + 1.0) * plan.v_norm * np.abs(it.w).max()
        + np.abs(slab.u0).max())
    assert np.abs(it.patched - direct).max() \
        <= np.sqrt(config.np) * hist.eps_mps + roundoff


# range edges: the fewest points, slabs, sweeps and outer iterations, one
# block per point, no overlap, the widest overlap, every point but one
# observed, a zero velocity, diffusivity, L, rho_penalty and seed
@example(values={"np": 2, "nobs": 1, "n_sub": 1, "overlap": 0, "n_steps": 2,
                 "max_outer": 1, "max_sweeps": 1, "seed": 0})
@example(values={"np": 2, "nobs": 1, "n_sub": 2, "overlap": 1, "n_steps": 3,
                 "velocity": 0.0, "diffusivity": 0.0, "rho_penalty": 0.0})
@example(values={"np": 5, "nobs": 4, "n_sub": 5, "overlap": 0, "n_steps": 4,
                 "max_outer": 3, "obs_layout": "random", "L": 4.0})
@example(values={"np": 9, "nobs": 2, "n_sub": 3, "overlap": 4, "n_steps": 5,
                 "max_outer": 1, "patch": "average"})
# the gate's ras_diverges lines, where stationary additive Schwarz diverges
@example(values={"overlap": 0, "lambda": 0.05, "L": 4.0, "n_sub": 4,
                 "seed": 1})
@example(values={"np": 64, "nobs": 16, "obs_layout": "random", "overlap": 0,
                 "lambda": 0.05, "L": 4.0, "n_sub": 8, "seed": 2025})
@seed(37)
@settings(max_examples=30, deadline=None, derandomize=True)
@given(values=valid_configs())
def test_cli_over_valid_configs(values):
    assert set(values) <= set(DEFAULTS)
    values = {**DEFAULTS, **values}
    config = harness.load_config(None, values)   # the table accepts it
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        config_file = tmp / "run.cfg"
        config_file.write_text("".join(f"{name} = {value}\n"
                                       for name, value in values.items()))
        runs = [_cli(config_file, tmp / f"w{workers}.csv", workers)
                for workers in (1, 3)]
        # the worker count schedules the slab solves and changes no byte
        assert runs[1] == runs[0]
        code, err = runs[0]
        assert code in (0, 2, 3)
        assert err.count("\n") == 1 and err.endswith("\n")
        if code == 3:
            assert err.startswith("solver error: ")
            assert not any(tmp.glob("w*.csv"))
            return
        report = (tmp / "w1.csv").read_text()
        assert (tmp / "w3.csv").read_text() == report
    assert err.startswith(f"status={'converged' if code == 0 else 'non-converged'} ")

    # finite-step exactness: level n is the serial chain through slab n, and
    # after n_steps - 1 iterations everywhere, unless tol stopped it first
    reason = re.search(r" reason=(\w+) ", err).group(1)
    n_outer = int(re.search(r" n_outer=(\d+) ", err).group(1))
    errors = _error_table(report)
    assert all(e == 0.0 for k, n, e in errors if k <= n)
    if config.max_outer >= config.n_steps - 1:
        assert reason in ("exact", "tol")
        if reason == "exact":
            assert n_outer == config.n_steps - 1
            assert all(e == 0.0 for k, n, e in errors if n == n_outer)
    _assert_fine_solve_is_the_oracle(config)
