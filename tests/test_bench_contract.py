"""The benchmark's view of pintda: every function it traces exists, and a
traced run ends in one strict-JSON line with a number for every metric.

perfbench reports a traced function that is missing, or whose result lost
the shape its observer reads, as a null metric rather than as an error, so
these checks are what keeps a rename in pintda from blanking the benchmark.
"""

import ast
import importlib
import inspect
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


# pintda functions perfbench calls directly, as self.<module>.<function>(...)
DIRECT = {"serial_fine_chain", "solve_var_direct", "load_config",
          "build_problem", "run_experiment", "render_report"}


def direct_calls():
    """perfbench's direct calls into pintda, as (module, function, line,
    call node), read without importing the script."""
    calls = []
    for node in ast.walk(ast.parse(BENCH.read_text())):
        fn = getattr(node, "func", None)
        if (isinstance(node, ast.Call) and isinstance(fn, ast.Attribute)
                and fn.attr in DIRECT and isinstance(fn.value, ast.Attribute)
                and isinstance(fn.value.value, ast.Name)
                and fn.value.value.id == "self"):
            calls.append((fn.value.attr, fn.attr, node.lineno, node))
    return calls


def test_every_direct_call_is_found():
    assert {name for _, name, _, _ in direct_calls()} == DIRECT


@pytest.mark.parametrize("module,name,line,call", [
    pytest.param(*c, id=f"{c[0]}.{c[1]}@{c[2]}") for c in direct_calls()])
def test_direct_call_binds_to_the_current_signature(module, name, line, call):
    assert not any(isinstance(a, ast.Starred) for a in call.args)
    keywords = [k.arg for k in call.keywords]
    assert None not in keywords, f"line {line} passes **kwargs"
    fn = getattr(importlib.import_module(f"pintda.{module}"), name)
    try:
        inspect.signature(fn).bind(*call.args, **dict.fromkeys(keywords))
    except TypeError as err:
        pytest.fail(f"perfbench/run.py line {line} calls pintda.{module}."
                    f"{name} with {len(call.args)} positional arguments and "
                    f"keywords {keywords}: {err}")
