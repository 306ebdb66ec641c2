"""Size-ladder bench: wall time, layer shares and work counts per rung.

Run from a checkout's root; it writes the file --out names, which is
required unless --compare is given:

    python3 tools/ladder_bench.py --out BENCH_<PR>.json
    python3 tools/ladder_bench.py --out BENCH_parent.json
    python3 tools/ladder_bench.py --compare BENCH_parent.json BENCH_<PR>.json

Each rung is one np x n_steps run_experiment config with nobs = np / 4,
n_sub = 2, max_outer = n_steps - 1 and seed 1; one operation is
run_experiment plus render_report, the work of a CLI run.  Per rung, after
WARM untimed operations, TIMED operations give the wall time (min,
median, max), and one more, under cProfile, gives its profiled time, each
named layer's share of it (cumulative) and the deterministic counts: n_outer,
fine_solves, fine_solves_reused and the CG steps summed over all fine
solves, the serial chain's (the result's chain_histories) included.  BLAS
is pinned to one thread before NumPy loads, and the machine is recorded, so
that two files compare only when their `machine` entries agree.  --compare
prints, per rung, the two median wall times and, for each layer, its two
shares, each beside its seconds: the share times the profiled time.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: the ladder is defined single-threaded.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import cProfile  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import pstats  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from pintda import harness  # noqa: E402

RUNGS = ((256, 32), (512, 32), (1024, 32))     # (np, n_steps)
WARM, TIMED = 2, 5                              # operations per rung
LAYERS = ("run_parareal", "mps_sweep", "roundoff_proxies",
          "lipschitz_estimate", "hessian_condition", "build_problem",
          "render_report")


def rung_config(n_grid, n_steps):
    """The rung's config: nobs = np / 4, n_sub = 2, max_outer = n_steps - 1,
    seed 1, otherwise the defaults."""
    return harness.validate_config(dataclasses.replace(
        harness.ExperimentConfig(), np=n_grid, n_steps=n_steps,
        nobs=n_grid // 4, n_sub=2, max_outer=n_steps - 1, seed=1))


def operation(config):
    """One CLI run's work: the experiment and its CSV report."""
    result = harness.run_experiment(config)
    harness.render_report(result.records, "csv")
    return result


def machine():
    """What the wall times depend on, as perfbench's context records it."""
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": (len(os.sched_getaffinity(0))
                     if hasattr(os, "sched_getaffinity") else None),
        "cpu": platform.processor() or platform.machine(),
        "platform": platform.platform(),
        "blas": blas.get("name"), "blas_version": blas.get("version"),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
    }


def _profiled(config):
    """One operation under cProfile: its profiled time, the layer shares of
    it and the result."""
    profile = cProfile.Profile()
    result = profile.runcall(operation, config)
    cumulative = {}
    for (path, _, name), row in pstats.Stats(profile).stats.items():
        if Path(path).parent.name == "pintda" or name == operation.__name__:
            cumulative[name] = cumulative.get(name, 0.0) + row[3]
    total = cumulative[operation.__name__]
    share = {name: cumulative.get(name, 0.0) / total for name in LAYERS}
    return total, share, result


def measure_rung(n_grid, n_steps, warm=WARM, timed=TIMED):
    """One rung's entry of the BENCH file."""
    config = rung_config(n_grid, n_steps)
    for _ in range(warm):
        operation(config)
    walls = []
    for _ in range(timed):
        start = time.perf_counter()
        operation(config)
        walls.append(time.perf_counter() - start)
    profiled_s, share, result = _profiled(config)
    phist, s = result.history, result.summary
    cg_steps = sum(h.n_sweeps for h in result.chain_histories) + sum(
        hists[k - 1].n_sweeps
        for hists, solved in zip(phist.mps, phist.solved) for k in solved)
    return {
        "rung": f"{n_grid}x{n_steps}",
        "config": {"np": n_grid, "n_steps": n_steps, "nobs": config.nobs,
                   "n_sub": config.n_sub, "max_outer": config.max_outer,
                   "seed": config.seed},
        "wall_s": {"min": min(walls), "median": statistics.median(walls),
                   "max": max(walls), "runs": walls},
        "profiled_s": profiled_s,
        "share": share,
        "counts": {"n_outer": s["n_outer"], "fine_solves": s["fine_solves"],
                   "fine_solves_reused": s["fine_solves_reused"],
                   "cg_steps": cg_steps},
    }


def run_ladder(rungs=RUNGS, warm=WARM, timed=TIMED):
    """The BENCH file's contents for the given (np, n_steps) rungs."""
    return {"machine": machine(), "warm": warm, "timed": timed,
            "rungs": [measure_rung(n, t, warm, timed) for n, t in rungs]}


def _layer(rung, name):
    """A layer's share of the rung's profiled time, and its seconds."""
    share = rung["share"][name]
    return f"{share:6.1%} {share * rung['profiled_s']:7.3f} s"


def compare(old, new):
    """Lines setting two BENCH files side by side, rung by rung."""
    out = [] if old["machine"] == new["machine"] else [
        "machines differ: the wall times do not compare"]
    new_rungs = {r["rung"]: r for r in new["rungs"]}
    for a in old["rungs"]:
        b = new_rungs.get(a["rung"])
        if b is None:
            out.append(f"{a['rung']}: missing from the second file")
            continue
        out.append(f"{a['rung']}: wall median {a['wall_s']['median']:.3f} s "
                   f"-> {b['wall_s']['median']:.3f} s")
        out += [f"  {name:20s} {_layer(a, name)} -> {_layer(b, name)}"
                for name in LAYERS]
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--out", help="the BENCH_*.json file to write")
    action.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        old, new = (json.loads(Path(p).read_text()) for p in args.compare)
        print("\n".join(compare(old, new)))
        return 0
    bench = run_ladder()
    Path(args.out).write_text(json.dumps(bench, indent=1) + "\n")
    for rung in bench["rungs"]:
        print(f"{rung['rung']}: wall median {rung['wall_s']['median']:.3f} s, "
              f"run_parareal {rung['share']['run_parareal']:.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
