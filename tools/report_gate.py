"""Byte-identity gate: the values a change that claims unchanged reports must keep.

Run from a checkout's root, first on the parent commit, then on the change
with --against the parent's output:

    python3 tools/report_gate.py --demos > parent.jsonl     # parent checkout
    python3 tools/report_gate.py --demos --against parent.jsonl

With --against the lines are still printed; the exit status is 1, with the
first config, seed and key that differ on standard error, when any line
differs from the parent's (or is missing on either side), and 0 otherwise.

For each of twelve configs and the seeds 1 and 2025, one JSON line holds the
sha256 of the CSV and JSON reports, `status`, `n_outer` and every `summary`
value (floats as their shortest round-trip repr, so equal text means equal
bits).  With --demos, one more line per demo holds the sha256 of its
standard output.  `timing` stays off, so no wall time enters any line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from pintda import harness  # noqa: E402

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


def gate_line(name, overrides, seed):
    config = harness.load_config(overrides=dict(overrides, seed=seed))
    result = harness.run_experiment(config)
    return {"config": name, "seed": seed,
            "csv_sha256": _sha(harness.render_report(result.records, "csv")),
            "json_sha256": _sha(harness.render_report(result.records, "json")),
            "status": result.status, "n_outer": result.summary["n_outer"],
            "summary": _plain(result.summary)}


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


def first_difference(parent_lines, change_lines):
    """The first line and key where two gate outputs differ, or None.

    Lines are matched by config and seed (or demo name) and read in the
    parent's order; within a line, keys are compared in sorted order.
    """
    parent = {_identity(line): _flat(line) for line in parent_lines}
    change = {_identity(line): _flat(line) for line in change_lines}
    for ident, old in parent.items():
        new = change.get(ident)
        if new is None:
            return f"{ident}: missing from the change"
        for key in sorted(old.keys() | new.keys()):
            # JSON text, as in the output: -0.0 differs from 0.0, NaN equals NaN
            was, now = (json.dumps(side[key]) if key in side else "<absent>"
                        for side in (old, new))
            if was != now:
                return f"{ident} key={key}: parent {was}, change {now}"
    extra = [ident for ident in change if ident not in parent]
    return f"{extra[0]}: missing from the parent" if extra else None


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
        difference = first_difference(parent, lines)
        if difference:
            print(f"report gate: first difference at {difference}",
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
