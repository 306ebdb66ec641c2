"""pintda benchmark: three twin-experiment workloads, each stressing one layer.

Run from the repository root:

    python3 perfbench/run.py --workload oracle_wide --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all

One operation is load_config(overrides) -> run_experiment -> render_report
(csv), driven through pintda's public functions from outside the package, in
one thread with BLAS pinned to one thread.  With --trace 0 the last line of
standard output carries the end-to-end metrics; with --trace 1 it carries the
per-layer metrics of a separate traced run.  Every operation passes through a
correctness gate and a failure is counted, never hidden.  See
perfbench/README.md for why each workload exists.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: the workloads are defined single-threaded.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"

# Keys each workload sets; every other key keeps its default and `workers`
# is never set, so the workloads outlive the thread pool.
WORKLOADS = {
    # Hessian-bound: hessian_condition inverts a dense 2048^2 matrix (~75%).
    "oracle_wide": {"np": 256, "n_steps": 8, "n_sub": 8, "nobs": 64, "max_outer": 7},
    # Parareal-bound: ~33 outer iterations over 39 slabs, so fine solves grow
    # with slabs^2 and local assembly (~40%) repeats 2 distinct systems.
    "slab_long": {"np": 32, "n_steps": 40, "n_sub": 2, "nobs": 8, "max_outer": 39},
    # Sweep-bound: a correlated background couples the blocks, so mps_sweep
    # and dap_residual take ~80% through 26-29 Jacobi sweeps per solve.  Eight
    # time points keep an operation near one second, as in the other two.
    "sweep_heavy": {"np": 64, "n_steps": 8, "n_sub": 8, "overlap": 4, "nobs": 16,
                    "L": 2.0, "lambda": 0.05, "rho_penalty": 5.0, "max_outer": 7},
}

MIN_OPS = 3                 # at least two operations compare report bytes
SETUP_REPS = 10             # set-up runs after each timed operation; setup_s is their median
ACCURACY_INSTANCES = 96     # problem instances per run that oracle_gap averages
# Times of the two machine-speed probes (see machine_slowdown) on a 2-core Xeon
# VM in its fast phase; the time metrics are rescaled to this speed.
PROBE_REF_S = {"interpreter": 0.0095, "blas": 0.016}
REFERENCE_TOL = 1e-8        # final trajectory vs serial fine chain, max-abs
FINDING_GAP = 1e-6          # oracle gaps above this print the correlated-background finding

END_TO_END = {              # name -> (unit, better)
    "experiment_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "oracle_gap": ("ratio", "lower"),
    "ok_share": ("share", "higher"),
}

# Functions the traced run wraps, as (module, attribute) in pintda.
TRACED = (
    ("harness", "run_experiment"), ("harness", "build_problem"),
    ("harness", "render_report"),
    ("testbed", "build_model_instance"), ("testbed", "build_covariance"),
    ("testbed", "build_observations"), ("testbed", "assemble_G"),
    ("var_solver", "hessian_condition"),
    ("parareal", "serial_fine_chain"), ("parareal", "run_parareal"),
    ("parareal", "parareal_update"),
    ("dd_mps", "run_mps"), ("dd_mps", "assemble_local_system"),
    ("dd_mps", "mps_sweep"), ("dd_mps", "dap_residual"),
    ("analysis", "lipschitz_estimate"), ("analysis", "twin_error_scales"),
    ("analysis", "roundoff_proxies"), ("analysis", "roundoff_bound"),
    ("analysis", "error_and_bound_history"), ("analysis", "chain_discrepancy"),
)

# Per-layer metrics read from spans: "<span>.<field>", or an alias.
SPAN_FIELDS = ("s", "self_s", "calls", "under_parareal")
SPAN_ALIASES = {
    "parareal.recombination.self_s": ("parareal.parareal_update", "self_s"),
    "parareal.fine_solves": ("dd_mps.run_mps", "under_parareal"),
}
PER_LAYER = {               # name -> (unit, better)
    "harness.run_experiment.self_s": ("s", "lower"),
    "harness.build_problem.s": ("s", "lower"),
    "harness.render_report.s": ("s", "lower"),
    "harness.render_report.bytes": ("bytes", "lower"),
    "testbed.build_model_instance.s": ("s", "lower"),
    "testbed.build_covariance.s": ("s", "lower"),
    "testbed.build_observations.s": ("s", "lower"),
    "testbed.assemble_G.s": ("s", "lower"),
    "testbed.dense_bytes": ("bytes", "lower"),
    "var_solver.hessian_condition.s": ("s", "lower"),
    "var_solver.hessian_condition.calls": ("count", "lower"),
    "var_solver.hessian_bytes": ("bytes", "lower"),
    "parareal.serial_fine_chain.s": ("s", "lower"),
    "parareal.run_parareal.s": ("s", "lower"),
    "parareal.parareal_update.s": ("s", "lower"),
    "parareal.parareal_update.calls": ("count", "lower"),
    "parareal.recombination.self_s": ("s", "lower"),
    "parareal.fine_solves": ("count", "lower"),
    "parareal.outer_to_slabs": ("ratio", "lower"),
    "dd_mps.run_mps.s": ("s", "lower"),
    "dd_mps.run_mps.calls": ("count", "lower"),
    "dd_mps.run_mps.self_s": ("s", "lower"),
    "dd_mps.assemble_local_system.s": ("s", "lower"),
    "dd_mps.assemble_local_system.calls": ("count", "lower"),
    "dd_mps.assembly_distinct_ratio": ("ratio", "higher"),
    "dd_mps.mps_sweep.s": ("s", "lower"),
    "dd_mps.mps_sweep.calls": ("count", "lower"),
    "dd_mps.dap_residual.s": ("s", "lower"),
    "dd_mps.sweeps_per_solve.mean": ("count", "lower"),
    "dd_mps.sweeps_per_solve.max": ("count", "lower"),
    "dd_mps.unconverged_solves": ("count", "lower"),
    "analysis.lipschitz_estimate.s": ("s", "lower"),
    "analysis.twin_error_scales.s": ("s", "lower"),
    "analysis.roundoff_proxies.s": ("s", "lower"),
    "analysis.roundoff_bound.s": ("s", "lower"),
    "analysis.roundoff_bound.calls": ("count", "lower"),
    "analysis.error_and_bound_history.s": ("s", "lower"),
    "analysis.chain_discrepancy.s": ("s", "lower"),
    "bench.traced_experiment_s": ("s", "lower"),
    "bench.trace_overhead_s": ("s", "lower"),
}

# Layer orderings each workload was chosen for, checked in the traced run.
EXPECTED = {
    "oracle_wide": ("var_solver.hessian_condition has the largest self time",
                    lambda m, selfs: max(selfs, key=selfs.get) == "var_solver.hessian_condition"),
    "slab_long": ("dd_mps.assemble_local_system.s > dd_mps.mps_sweep.s",
                  lambda m, selfs: m["dd_mps.assemble_local_system.s"] > m["dd_mps.mps_sweep.s"]),
    "sweep_heavy": ("dd_mps.mps_sweep.s + dd_mps.dap_residual.s > bench.traced_experiment_s / 2",
                    lambda m, selfs: m["dd_mps.mps_sweep.s"] + m["dd_mps.dap_residual.s"]
                    > 0.5 * m["bench.traced_experiment_s"]),
}

FINDING = ("the Schwarz fine chain departs from the dense 3D-Var oracle chain. "
           "Likely cause: dd_mps restricts the background factor as "
           "V_loc = V[idx, idx], which drops cross-block correlation when L > 0 "
           "and n_sub > 1 (with n_sub = 1 the one-step gap is ~2e-9). Recorded, not gated.")


def _import_pintda():
    """Import pintda from this checkout's src/, or exit non-zero."""
    sys.path.insert(0, str(SRC))
    try:
        import pintda
        from pintda import harness, parareal, var_solver
    except ImportError as err:
        sys.exit(f"perfbench: cannot import pintda from {SRC}: {err}")
    if Path(pintda.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"perfbench: pintda imported from {pintda.__file__}, not {SRC}")
    return harness, parareal, var_solver


def _median(values):
    return statistics.median(values) if values else None


_PROBE_SMALL = np.full((32, 32), 1.0 / 64)
_PROBE_DENSE = np.eye(256) * 4.0 + np.full((256, 256), 1.0 / 256)


def machine_slowdown():
    """How much slower this machine runs now than in its reference phase.

    Two fixed probes that use none of pintda: 5000 small matrix-vector
    products driven from the interpreter (the mix of the Schwarz sweeps) and
    four dense 256^2 inverses (the mix of the Hessian).  The slowdown is the
    mean of their times over PROBE_REF_S, so 1.0 is the reference speed.
    The shared host runs for tens of seconds at up to half speed; the probes
    run between the timed phases, so each phase is rescaled by the speed
    measured on either side of it."""
    x = np.ones(32)
    t0 = time.perf_counter()
    for _ in range(5000):
        x = _PROBE_SMALL @ x + 1.0
    t1 = time.perf_counter()
    for _ in range(4):
        np.linalg.inv(_PROBE_DENSE)
    t2 = time.perf_counter()
    return 0.5 * ((t1 - t0) / PROBE_REF_S["interpreter"] + (t2 - t1) / PROBE_REF_S["blas"])


def _array_bytes(obj):
    """Bytes of every numpy array reachable through dataclass fields, tuples and lists."""
    if hasattr(obj, "nbytes") and hasattr(obj, "dtype"):
        return int(obj.nbytes)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return sum(_array_bytes(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    if isinstance(obj, (tuple, list)):
        return sum(_array_bytes(x) for x in obj)
    return 0


class Bench:
    """One workload's run: warm-up, set-up timing, operations, accuracy."""

    def __init__(self, name, seed, seconds):
        self.harness, self.parareal, self.var_solver = _import_pintda()
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.overrides = dict(WORKLOADS[name], seed=seed)
        self.attempted = 0
        self.failures = []          # (op, reason)
        self.digest = None
        self.first = None           # first passing ExperimentResult
        self.report_bytes = None

    # --- one operation and its gate -----------------------------------------

    def run_op(self):
        """Run one operation through the gate; returns (seconds, result or None).
        Garbage left by earlier operations is collected before the clock
        starts, so no operation pays for another's."""
        op = self.attempted
        self.attempted += 1
        gc.collect()
        t0 = time.perf_counter()
        try:
            config = self.harness.load_config(overrides=self.overrides)
            result = self.harness.run_experiment(config)
            report = self.harness.render_report(result.records, "csv")
        except Exception as err:  # any escaping solver or testbed fault fails the op
            self.failures.append((op, f"{type(err).__name__}: {err}"))
            return time.perf_counter() - t0, None
        elapsed = time.perf_counter() - t0
        reasons = self.check(result, report)
        if reasons:
            self.failures.append((op, "; ".join(reasons)))
            return elapsed, None
        if self.first is None:
            self.first = result
        return elapsed, result

    def check(self, result, report):
        """Reasons this operation's output is wrong; empty when it passes."""
        reasons = []
        if result.status != "converged":
            reasons.append(f"status {result.status}")
        for rec in result.records:
            bad = [f.name for f in dataclasses.fields(rec)
                   if not np.isfinite(getattr(rec, f.name))]
            if bad:
                reasons.append(f"non-finite {bad} at k={rec.k}, n={rec.n}")
                break
        flat = dict(result.summary)
        for key, value in result.summary.items():
            if isinstance(value, dict):
                flat.update((f"{key}.{k}", v) for k, v in value.items())
        bad = [k for k, v in flat.items() if isinstance(v, float) and not np.isfinite(v)]
        if bad:
            reasons.append(f"non-finite summary {bad}")
        final = result.trajectory.u[-1]
        gap = max(float(np.max(np.abs(u - r))) for u, r in zip(final, result.reference))
        if not gap <= REFERENCE_TOL:
            reasons.append(f"final trajectory is {gap:.3e} from the serial fine chain")
        data = report.encode()
        digest = hashlib.sha256(data).hexdigest()
        if self.digest is None:
            self.digest, self.report_bytes = digest, len(data)
        elif digest != self.digest:
            reasons.append("report bytes differ from the first operation's")
        return reasons

    # --- phases -------------------------------------------------------------

    def warm_up(self):
        """Load lazy imports through one tiny default-config operation."""
        try:
            config = self.harness.load_config()
            self.harness.render_report(self.harness.run_experiment(config).records, "csv")
        except Exception:  # the timed operations count the same fault as a failure
            pass

    def setup_times(self):
        """SETUP_REPS timings of load_config + build_problem, each on its own."""
        times = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            self.harness.build_problem(self.harness.load_config(overrides=self.overrides))
            times.append(time.perf_counter() - t0)
        return times

    def timed_ops(self):
        """Operation and set-up times for --seconds, as (wall seconds,
        slowdown) pairs.  A machine-speed probe runs before and after every
        operation and every block of set-up timings, and each is paired
        with the mean slowdown of the probes on either side of it.
        Peak RSS is read after the first MIN_OPS operations: the heap keeps
        growing slowly over many operations (by ~12 MB on slab_long after
        about ten), so a later reading would depend on the machine's speed."""
        times, setup = [], []
        deadline = time.perf_counter() + self.seconds
        before = machine_slowdown()
        while len(times) < MIN_OPS or time.perf_counter() < deadline:
            elapsed = self.run_op()[0]
            after = machine_slowdown()
            times.append((elapsed, 0.5 * (before + after)))
            reps = self.setup_times()
            before, after = after, machine_slowdown()
            setup.extend((t, 0.5 * (before + after)) for t in reps)
            before = after
            if len(times) == MIN_OPS:
                rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return times, setup, rss_mb

    def oracle_gap(self):
        """Mean over ACCURACY_INSTANCES of the relative max-norm gap between a
        fine trajectory and the chained dense 3D-Var oracle, each floored at
        tol_mps.  Instance 0 is this run's problem and uses its final Parareal
        trajectory; the others use serial_fine_chain on problems seeded from
        --seed.  One instance is not enough: where the gap is above the floor
        it varies by a third between seeds.  Also returns instance 0's gap and
        its one-step gap (each slab's fine solve against the oracle from the
        same background, relative to the oracle's step)."""
        rng = np.random.default_rng([self.seed, 17])
        seeds = [self.seed] + [int(s) for s in rng.integers(0, 2**31, ACCURACY_INSTANCES - 1)]
        gaps, one_step = [], None
        for i, seed in enumerate(seeds):
            config = self.harness.load_config(overrides=dict(self.overrides, seed=seed))
            vconfig, partition = self.harness.build_problem(config)
            M = vconfig.instance.M

            def oracle(background, k):
                slab = dataclasses.replace(vconfig, u0=background, time_index=k)
                return self.var_solver.solve_var_direct(slab, "threeD").u_da

            if i == 0:
                fine = list(self.first.trajectory.u[-1])
                ref = self.first.reference
            else:
                fine, _ = self.parareal.serial_fine_chain(
                    vconfig, partition, tol_mps=config.tol_mps,
                    max_sweeps=config.max_sweeps, rho=config.rho_penalty,
                    patch_rule=config.patch)
            chain = [vconfig.u0]
            for k in range(1, len(fine)):
                chain.append(oracle(M @ chain[-1], k))
            scale = max(float(np.max(np.abs(c))) for c in chain)
            gap = max(float(np.max(np.abs(a - b))) for a, b in zip(fine, chain)) / scale
            gaps.append(max(gap, config.tol_mps))
            if i == 0:
                steps = [oracle(M @ ref[k - 1], k) for k in range(1, len(ref))]
                one_step = max(float(np.max(np.abs(r - o)) / np.max(np.abs(o)))
                               for r, o in zip(ref[1:], steps))
        return statistics.fmean(gaps), gaps[0], one_step

    # --- the two kinds of run -----------------------------------------------

    def end_to_end(self):
        self.warm_up()
        times, setup, rss_mb = self.timed_ops()
        scaled = [t / slow for t, slow in times]
        wall = [t for t, _ in times]
        context = {}
        metrics = {"experiment_s": statistics.median(scaled),
                   "setup_s": statistics.median(t / slow for t, slow in setup)}
        if self.first is not None:
            gap, gap0, one_step = self.oracle_gap()
            metrics["oracle_gap"] = gap
            context.update(oracle_gap_this_seed=gap0, oracle_one_step_gap=one_step)
        metrics["peak_rss_mb"] = rss_mb
        metrics["ok_share"] = (self.attempted - len(self.failures)) / self.attempted
        q1, _, q3 = statistics.quantiles(scaled, n=4)
        wq1, wmed, wq3 = statistics.quantiles(wall, n=4)
        context.update(experiment_s_q1=q1, experiment_s_q3=q3, experiment_s_n=len(times),
                       wall_experiment_s=wmed, wall_experiment_s_q1=wq1,
                       wall_experiment_s_q3=wq3,
                       wall_setup_s=statistics.median(t for t, _ in setup),
                       slowdown=statistics.median(slow for _, slow in times),
                       setup_reps=len(setup), accuracy_instances=ACCURACY_INSTANCES)
        return metrics, END_TO_END, context

    def traced(self):
        import spans
        self.warm_up()
        tracer = spans.Tracer()
        plain, traced, results = [], [], {}
        deadline = time.perf_counter() + self.seconds
        while len(traced) < 2 or time.perf_counter() < deadline:
            plain.append(self.run_op()[0])
            tracer.op = self.attempted
            with spans.installed(tracer, TRACED, OBSERVERS) as absent:
                elapsed, result = self.run_op()
            tracer.op = None
            traced.append(elapsed)
            if result is not None:
                results[self.attempted - 1] = result.summary
        metrics, selfs = self.layer_metrics(tracer, results, set(absent))
        metrics["bench.traced_experiment_s"] = statistics.median(traced)
        metrics["bench.trace_overhead_s"] = statistics.median(traced) - statistics.median(plain)
        context = {"absent": sorted(absent), "traced_ops": len(traced), "untraced_ops": len(plain)}
        what, holds = EXPECTED[self.name]
        context["expected_ordering"] = what
        try:
            context["expected_ordering_holds"] = bool(holds(metrics, selfs))
        except (TypeError, ValueError):     # a metric it reads is absent
            context["expected_ordering_holds"] = None
        return metrics, PER_LAYER, context

    def layer_metrics(self, tracer, summaries, absent):
        """Per-layer metrics as medians over the traced operations that passed."""
        per_op = tracer.per_op()
        n_slabs = WORKLOADS[self.name]["n_steps"] - 1
        rows = []
        for op, summary in summaries.items():
            spans_of, seen = per_op[op], tracer.observed[op]
            row = {}
            for name in PER_LAYER:
                span, field = SPAN_ALIASES.get(name, tuple(name.rsplit(".", 1)))
                if field in SPAN_FIELDS and span not in absent:
                    row[name] = spans_of[span][field] if span in spans_of else 0
            row["harness.render_report.bytes"] = self.report_bytes
            row["parareal.outer_to_slabs"] = summary["n_outer"] / n_slabs
            if seen["dense_bytes"]:
                row["testbed.dense_bytes"] = sum(seen["dense_bytes"])
            if seen["hessian_bytes"]:
                row["var_solver.hessian_bytes"] = sum(seen["hessian_bytes"])
            if seen["A_loc"]:
                row["dd_mps.assembly_distinct_ratio"] = len(set(seen["A_loc"])) / len(seen["A_loc"])
            if seen["sweeps"]:
                row["dd_mps.sweeps_per_solve.mean"] = statistics.fmean(seen["sweeps"])
                row["dd_mps.sweeps_per_solve.max"] = max(seen["sweeps"])
                row["dd_mps.unconverged_solves"] = seen["converged"].count(False)
            row["selfs"] = {span: v["self_s"] for span, v in spans_of.items()}
            rows.append(row)
        metrics = {name: _median([r[name] for r in rows if name in r]) for name in PER_LAYER}
        selfs = {span: _median([r["selfs"].get(span, 0.0) for r in rows])
                 for span in {s for r in rows for s in r["selfs"]}}
        return metrics, selfs


def _observe_bytes(key):
    return lambda tracer, result: tracer.note(key, _array_bytes(result))


def _observe_assembly(tracer, system):
    A = getattr(system, "A_loc", None)
    if A is not None:
        tracer.note("A_loc", hashlib.sha1(A.tobytes()).hexdigest())


def _observe_mps(tracer, result):
    history = result[-1] if isinstance(result, tuple) else None
    if hasattr(history, "n_sweeps") and hasattr(history, "converged"):
        tracer.note("sweeps", history.n_sweeps)
        tracer.note("converged", bool(history.converged))


OBSERVERS = {
    "testbed.build_model_instance": _observe_bytes("dense_bytes"),
    "testbed.build_covariance": _observe_bytes("dense_bytes"),
    "testbed.build_observations": _observe_bytes("dense_bytes"),
    "testbed.assemble_G": _observe_bytes("dense_bytes"),
    "var_solver.hessian_condition": _observe_bytes("hessian_bytes"),
    "dd_mps.assemble_local_system": _observe_assembly,
    "dd_mps.run_mps": _observe_mps,
}


def machine():
    import scipy
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": platform.processor() or platform.machine(),
        "blas": blas.get("name"), "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
    }


def _fmt(value):
    return "absent" if value is None else f"{value:.6g}"


def run_one(args):
    bench = Bench(args.workload, args.seed, args.seconds)
    if args.trace:
        metrics, declared, context = bench.traced()
    else:
        metrics, declared, context = bench.end_to_end()
    summary = bench.first.summary if bench.first is not None else {}
    context.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                   trace=args.trace, overrides=WORKLOADS[args.workload],
                   bound_dominates=summary.get("bound_dominates"),
                   parareal_reason=summary.get("parareal_reason"),
                   n_outer=summary.get("n_outer"),
                   failed_share=len(bench.failures) / bench.attempted,
                   failures=[f"op {op}: {why}" for op, why in bench.failures[:5]],
                   machine=machine())

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{bench.attempted} ops, {len(bench.failures)} failed")
    for name, (unit, _) in declared.items():
        print(f"  {name:38s} {_fmt(metrics.get(name)):>14s} {unit}")
    if not args.trace:
        print(f"  {'failed_share':38s} {_fmt(context['failed_share']):>14s} share")
        print(f"  experiment_s quartiles {_fmt(context['experiment_s_q1'])} .. "
              f"{_fmt(context['experiment_s_q3'])} s over {context['experiment_s_n']} ops; "
              f"wall median {_fmt(context['wall_experiment_s'])} s at machine slowdown "
              f"{_fmt(context['slowdown'])}")
        gap = metrics.get("oracle_gap")
        if gap is not None and gap > FINDING_GAP:
            print(f"  finding: oracle_gap {gap:.3g} (one-step gap "
                  f"{context['oracle_one_step_gap']:.3g}): {FINDING}")
    else:
        verdict = {True: "holds", False: "DOES NOT HOLD", None: "unknown"}
        print(f"  expected ordering: {context['expected_ordering']}: "
              f"{verdict[context['expected_ordering_holds']]}")
        if context["absent"]:
            print(f"  absent: {', '.join(context['absent'])}")
    for op, why in bench.failures[:5]:
        print(f"  FAILED op {op}: {why}")
    print(json.dumps({"context": context}, default=str))

    result = {name: {"value": metrics.get(name), "unit": unit} for name, (unit, _) in declared.items()}
    for name, entry in result.items():
        if entry["value"] is None:
            entry["absent"] = True
    print(json.dumps({"correct": not bench.failures, "attempted": bench.attempted,
                      "failed": len(bench.failures), "metrics": result}))
    return 0


def run_all(args):
    """Run every workload in a fresh process, so each reports its own peak RSS."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write("".join(proc.stdout.splitlines(keepends=True)[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        last = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, entry in last["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument("--seconds", type=float, default=28.0,
                        help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 reports per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
