"""Byte-identity gate: the values a change that claims unchanged reports must keep.

Run from a checkout's root, first on the parent commit, then on the change
with --against the parent's output:

    python3 tools/report_gate.py --demos > parent.jsonl     # parent checkout
    python3 tools/report_gate.py --demos --against parent.jsonl

With --against the lines are still printed; the exit status is 1, with
every config, seed and key that differ on standard error, one per line, when
any line differs from the parent's (or is missing on either side), and 0
otherwise.

For each of fourteen configs and the seeds 1 and 2025, one JSON line holds
the sha256 of the CSV and JSON reports, `status`, `n_outer` and every
`summary` value (floats as their shortest round-trip repr, so equal text
means equal bits), `oracle_sha256`, the sha256 of the chained dense
3D-Var oracle that perfbench's oracle_gap compares against, and
`trajectory_sha256`, the sha256 of the run's Parareal trajectory and serial
chain, and `solved`, the slabs each of the run's Parareal iterations
solved (its history.solved).  With --demos, one more line per demo holds
the sha256 of its standard output.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from pintda import harness, var_solver  # noqa: E402

CONFIGS = {
    "default": {},
    "oracle_wide": {"np": 256, "n_steps": 8, "n_sub": 8, "nobs": 64,
                    "max_outer": 7},
    "slab_long": {"np": 32, "n_steps": 40, "n_sub": 2, "nobs": 8,
                  "max_outer": 39},
    "sweep_heavy": {"np": 64, "n_steps": 8, "n_sub": 8, "overlap": 4,
                    "nobs": 16, "L": 2.0, "lambda": 0.05, "rho_penalty": 5.0,
                    "max_outer": 7},
    "correlated_left": {"L": 1.0, "velocity": -1.0, "n_sub": 3},
    "two_workers": {"workers": 2, "np": 64, "n_sub": 4},
    "inner_unconverged": {"max_sweeps": 5, "L": 2.0, "lambda": 0.05,
                          "rho_penalty": 5.0, "n_sub": 4},
    "no_overlap": {"overlap": 0, "n_sub": 4},
    "one_block": {"n_sub": 1, "overlap": 0},
    "ragged_wide": {"np": 17, "n_sub": 5, "overlap": 4, "nobs": 4, "L": 2.0,
                    "lambda": 0.05, "rho_penalty": 5.0},
    # no overlap, a long correlation and a weak background term: stationary
    # restricted additive Schwarz diverges on the slab-1 solve of both seeds
    "ras_diverges": {"overlap": 0, "lambda": 0.05, "L": 4.0, "n_sub": 4},
    "ras_diverges_wide": {"np": 64, "nobs": 16, "obs_layout": "random",
                          "overlap": 0, "lambda": 0.05, "L": 4.0, "n_sub": 8},
    # the only config with alpha != 1, which weights the space-time Hessian
    # blocks behind mu_A
    "weak_space_time": {"alpha": 0.25, "obs_layout": "random", "L": 1.0,
                        "n_sub": 3},
    # the 256 x 32 point of the size ladder, the run where the round-off
    # shadow costs the most
    "ladder_256x32": {"np": 256, "n_steps": 32, "nobs": 64, "max_outer": 31},
}
SEEDS = (1, 2025)


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _plain(value):
    """JSON-ready copy: numpy scalars and arrays become Python values."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value.item() if hasattr(value, "item") else value


def oracle_sha256(vconfig):
    """sha256 of the stacked oracle chain u_0 = u0, u_k = the single-time
    oracle analysis of time k around M u_{k-1}, chained as perfbench's
    oracle_gap chains it."""
    M, chain = vconfig.instance.M, [vconfig.u0]
    for k in range(1, vconfig.instance.n_steps):
        slab = dataclasses.replace(vconfig, u0=M @ chain[-1], time_index=k)
        chain.append(var_solver.solve_var_direct(slab, "threeD").u_da)
    return hashlib.sha256(np.stack(chain).tobytes()).hexdigest()


def level_backgrounds(M, level):
    """A level's fine-solve backgrounds, row by row: its state at time 0,
    then M @ its state at k - 1 for each later time k.  A per-row loop of
    plain products, the bits that the backgrounds a run carries from its
    recombination to its fine-solve batches must have."""
    rows = np.asarray(level, dtype=float)
    return [rows[0], *(M @ row for row in rows[:-1])]


def trajectory_sha256(result, M):
    """sha256 of every level's states, then backgrounds (level_backgrounds
    under the model's M), then the rows k >= 1 of every correction level,
    then the serial chain.  Each part is stacked with np.asarray, so
    per-point vectors and per-level arrays of the same values hash alike."""
    trajectory = result.trajectory
    digest = hashlib.sha256()
    for part in (trajectory.u,
                 [level_backgrounds(M, level) for level in trajectory.u],
                 [level[1:] for level in trajectory.delta], result.reference):
        digest.update(np.asarray(part, dtype=float).tobytes())
    return digest.hexdigest()


def gate_line(name, overrides, seed):
    config = harness.load_config(overrides=dict(overrides, seed=seed))
    result = harness.run_experiment(config)
    vconfig, _ = harness.build_problem(config)
    return {"config": name, "seed": seed,
            "csv_sha256": _sha(harness.render_report(result.records, "csv")),
            "json_sha256": _sha(harness.render_report(result.records, "json")),
            "status": result.status, "n_outer": result.summary["n_outer"],
            "summary": _plain(result.summary),
            "oracle_sha256": oracle_sha256(vconfig),
            "trajectory_sha256": trajectory_sha256(result,
                                                   vconfig.instance.M),
            "solved": _plain(result.history.solved)}


def demo_line(path):
    proc = subprocess.run([sys.executable, str(path)], capture_output=True,
                          text=True, cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    return {"demo": path.name, "exit": proc.returncode,
            "stdout_sha256": _sha(proc.stdout)}


def _identity(line):
    if "demo" in line:
        return f"demo={line['demo']}"
    return f"config={line['config']} seed={line['seed']}"


def _flat(line, prefix=""):
    """{dotted key: value}, nested dicts (summary, summary.chain) flattened."""
    flat = {}
    for key, value in line.items():
        if isinstance(value, dict):
            flat.update(_flat(value, f"{prefix}{key}."))
        else:
            flat[prefix + key] = value
    return flat


def differences(parent_lines, change_lines):
    """Every line and key where two gate outputs differ, in order; [] when
    they agree.

    Lines are matched by config and seed (or demo name) and read in the
    parent's order, then the lines only the change has; within a line, keys
    are compared in sorted order.
    """
    parent = {_identity(line): _flat(line) for line in parent_lines}
    change = {_identity(line): _flat(line) for line in change_lines}
    found = []
    for ident, old in parent.items():
        new = change.get(ident)
        if new is None:
            found.append(f"{ident}: missing from the change")
            continue
        for key in sorted(old.keys() | new.keys()):
            # JSON text, as in the output: -0.0 differs from 0.0, NaN equals NaN
            was, now = (json.dumps(side[key]) if key in side else "<absent>"
                        for side in (old, new))
            if was != now:
                found.append(f"{ident} key={key}: parent {was}, change {now}")
    return found + [f"{ident}: missing from the parent"
                    for ident in change if ident not in parent]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--demos", action="store_true",
                        help="also hash the standard output of every demo")
    parser.add_argument("--against", metavar="PARENT.jsonl",
                        help="compare with a parent's output; exit 1 on a "
                             "difference")
    args = parser.parse_args(argv)
    runs = [partial(gate_line, name, overrides, seed)
            for name, overrides in CONFIGS.items() for seed in SEEDS]
    if args.demos:
        runs += [partial(demo_line, path)
                 for path in sorted((ROOT / "demos").glob("*.py"))]
    lines = []
    for run in runs:
        lines.append(run())
        print(json.dumps(lines[-1], sort_keys=True), flush=True)
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            parent = [json.loads(text) for text in fh if text.strip()]
        found = differences(parent, lines)
        for difference in found:
            print(f"report gate: difference at {difference}", file=sys.stderr)
        if found:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
