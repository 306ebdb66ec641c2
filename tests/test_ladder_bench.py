import copy
import importlib.util
import json
import os
from pathlib import Path
from unittest import mock

import pytest

from pintda import harness, parareal

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ladder_bench.py"
_spec = importlib.util.spec_from_file_location("ladder_bench", _PATH)
ladder_bench = importlib.util.module_from_spec(_spec)
with mock.patch.dict(os.environ):   # the script pins BLAS threads on import
    _spec.loader.exec_module(ladder_bench)


@pytest.fixture(scope="module")
def tiny_bench():
    return ladder_bench.run_ladder(rungs=((16, 4),), warm=0, timed=2)


class TestLadderBench:
    def test_schema(self, tiny_bench):
        assert set(tiny_bench) == {"machine", "warm", "timed", "rungs"}
        assert set(tiny_bench["machine"]["blas_threads"]) == set(
            ladder_bench.BLAS_THREAD_VARS)
        (rung,) = tiny_bench["rungs"]
        assert set(rung) == {"rung", "config", "wall_s", "profiled_s",
                             "share", "counts"}
        assert rung["profiled_s"] > 0.0
        assert rung["rung"] == "16x4"
        assert rung["config"] == {"np": 16, "n_steps": 4, "nobs": 4,
                                  "n_sub": 2, "max_outer": 3, "seed": 1}
        wall = rung["wall_s"]
        assert len(wall["runs"]) == 2
        assert wall["min"] <= wall["median"] <= wall["max"]
        assert list(rung["share"]) == list(ladder_bench.LAYERS)
        assert all(0.0 <= v <= 1.0 for v in rung["share"].values())
        assert rung["share"]["run_parareal"] > 0.0
        assert json.loads(json.dumps(tiny_bench)) == tiny_bench

    def test_counts_are_the_runs(self, tiny_bench):
        (rung,) = tiny_bench["rungs"]
        config = ladder_bench.rung_config(16, 4)
        result = harness.run_experiment(config)
        s = result.summary
        vconfig, partition = harness.build_problem(config)
        _, chain_hists = parareal.serial_fine_chain(
            vconfig, partition, tol_mps=config.tol_mps,
            max_sweeps=config.max_sweeps)
        # the result's chain is the serial chain, history by history
        assert result.chain_histories == chain_hists
        phist = result.history
        solved = [phist.mps[n][k - 1] for n, ks in enumerate(phist.solved)
                  for k in ks]
        assert len(chain_hists) + len(solved) == s["fine_solves"]
        assert rung["counts"] == {
            "n_outer": s["n_outer"], "fine_solves": s["fine_solves"],
            "fine_solves_reused": s["fine_solves_reused"],
            "cg_steps": sum(h.n_sweeps for h in [*chain_hists, *solved])}

    def test_compare_sets_files_side_by_side(self, tiny_bench):
        lines = ladder_bench.compare(tiny_bench, tiny_bench)
        assert lines[0].startswith("16x4: wall median ")
        assert len(lines) == 1 + len(ladder_bench.LAYERS)
        # each share beside its seconds, share x profiled time
        (rung,) = tiny_bench["rungs"]
        share = rung["share"]["run_parareal"]
        seconds = f"{share * rung['profiled_s']:7.3f} s"
        assert lines[1] == (f"  {'run_parareal':20s} {share:6.1%} {seconds} "
                            f"-> {share:6.1%} {seconds}")
        other = copy.deepcopy(tiny_bench)
        other["machine"]["nproc"] = -1
        other["rungs"] = []
        assert ladder_bench.compare(tiny_bench, other) == [
            "machines differ: the wall times do not compare",
            "16x4: missing from the second file"]
