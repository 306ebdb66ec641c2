"""The benchmark's view of pintda: every function it traces exists, and a
traced run ends in one strict-JSON line with a number for every metric.

perfbench reports a traced function that is missing, or whose result lost
the shape its observer reads, as a null metric rather than as an error, so
these checks are what keeps a rename in pintda from blanking the benchmark.
"""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench" / "run.py"


def traced_targets():
    """perfbench's TRACED tuple, read without importing the script (which
    pins BLAS threads for the whole process)."""
    for node in ast.parse(BENCH.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no TRACED")


@pytest.mark.parametrize("module,attr", traced_targets())
def test_traced_target_is_a_pintda_callable(module, attr):
    fn = getattr(importlib.import_module(f"pintda.{module}"), attr, None)
    assert callable(fn), f"perfbench traces pintda.{module}.{attr}, which is gone"


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


@pytest.mark.parametrize("workload", ["oracle_wide", "slab_long",
                                      "sweep_heavy"])
def test_traced_run_reports_every_metric(workload):
    proc = subprocess.run(
        [sys.executable, str(BENCH), "--workload", workload,
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1],
                      parse_constant=_reject_constant)
    assert last["failed"] == 0
    nulls = sorted(name for name, entry in last["metrics"].items()
                   if entry["value"] is None)
    assert nulls == []
