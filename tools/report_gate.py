"""Byte-identity gate: the values a change that claims unchanged reports must keep.

Run from a checkout's root, on the parent commit and on the change, and
compare the outputs:

    python3 tools/report_gate.py > gate.jsonl
    diff parent-gate.jsonl gate.jsonl

For each of eight configs and the seeds 1 and 2025, one JSON line holds the
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
    "random_average": {"obs_layout": "random", "patch": "average", "np": 48,
                       "n_sub": 3},
    "correlated_left": {"L": 1.0, "velocity": -1.0, "n_sub": 3},
    "two_workers": {"workers": 2, "np": 64, "n_sub": 4},
    "inner_unconverged": {"max_sweeps": 5, "L": 2.0, "lambda": 0.05,
                          "rho_penalty": 5.0, "n_sub": 4},
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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--demos", action="store_true",
                        help="also hash the standard output of every demo")
    args = parser.parse_args(argv)
    for name, overrides in CONFIGS.items():
        for seed in SEEDS:
            print(json.dumps(gate_line(name, overrides, seed), sort_keys=True),
                  flush=True)
    if args.demos:
        for path in sorted((ROOT / "demos").glob("*.py")):
            print(json.dumps(demo_line(path), sort_keys=True), flush=True)


if __name__ == "__main__":
    main()
