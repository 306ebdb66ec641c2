import dataclasses
import hashlib
import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from pintda import harness, parareal, var_solver

_PATH = Path(__file__).resolve().parent.parent / "tools" / "report_gate.py"
_spec = importlib.util.spec_from_file_location("report_gate", _PATH)
report_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_gate)

PARENT = """\
{"config": "default", "csv_sha256": "aa", "n_outer": 7, "seed": 1, "status": "converged", "summary": {"C_const": 2.5, "chain": {"mu_M_direct": 1.0}, "mps_unconverged": []}}
{"config": "default", "csv_sha256": "bb", "n_outer": 7, "seed": 2025, "status": "converged", "summary": {"C_const": 0.1, "chain": {"mu_M_direct": NaN}, "mps_unconverged": [2]}}
{"demo": "01_twin_experiment.py", "exit": 0, "stdout_sha256": "cc"}
"""


def lines(text):
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def edited(old, new):
    assert old in PARENT
    return lines(PARENT.replace(old, new))


class TestFirstDifference:
    """differences lists every differing line and key, the first first."""

    def test_identical_outputs_agree(self):
        assert report_gate.differences(lines(PARENT), lines(PARENT)) == []

    def test_line_order_does_not_matter(self):
        assert report_gate.differences(
            lines(PARENT), lines(PARENT)[::-1]) == []

    @pytest.mark.parametrize("old, new, difference", [
        ('"C_const": 0.1', '"C_const": 0.10000000000000002',
         "config=default seed=2025 key=summary.C_const: parent 0.1, "
         "change 0.10000000000000002"),
        ('"mu_M_direct": 1.0', '"mu_M_direct": -0.0',
         "config=default seed=1 key=summary.chain.mu_M_direct: parent 1.0, "
         "change -0.0"),
        ('"csv_sha256": "bb", "n_outer": 7', '"csv_sha256": "bd", "n_outer": 6',
         "config=default seed=2025 key=csv_sha256: parent \"bb\", "
         "change \"bd\""),
        ('"mps_unconverged": [2]', '"mps_unconverged": [2, 3]',
         "config=default seed=2025 key=summary.mps_unconverged: parent [2], "
         "change [2, 3]"),
        ('"stdout_sha256": "cc"', '"stdout_sha256": "cd"',
         'demo=01_twin_experiment.py key=stdout_sha256: parent "cc", '
         'change "cd"'),
        (', "status": "converged", "summary": {"C_const": 2.5',
         ', "summary": {"C_const": 2.5',
         'config=default seed=1 key=status: parent "converged", '
         'change <absent>'),
    ])
    def test_names_first_line_and_key(self, old, new, difference):
        assert report_gate.differences(
            lines(PARENT), edited(old, new))[0] == difference

    def test_missing_lines_on_either_side(self):
        parent, change = lines(PARENT), lines(PARENT)[:2]
        assert (report_gate.differences(parent, change)
                == ["demo=01_twin_experiment.py: missing from the change"])
        assert (report_gate.differences(change, parent)
                == ["demo=01_twin_experiment.py: missing from the parent"])

    def test_lists_every_difference_in_order(self):
        # parent line order, sorted keys within a line, then the change's
        # extra lines
        change = lines(PARENT.replace('"C_const": 2.5', '"C_const": 2.0')
                       .replace('"seed": 1,', '"seed": 1, "extra": 0,')
                       .replace('"mps_unconverged": [2]',
                                '"mps_unconverged": []')
                       .replace('"n_outer": 7, "seed": 2025',
                                '"n_outer": 6, "seed": 2025'))
        change[2]["demo"] = "05_new.py"
        assert report_gate.differences(lines(PARENT), change) == [
            "config=default seed=1 key=extra: parent <absent>, change 0",
            "config=default seed=1 key=summary.C_const: parent 2.5, "
            "change 2.0",
            "config=default seed=2025 key=n_outer: parent 7, change 6",
            "config=default seed=2025 key=summary.mps_unconverged: "
            "parent [2], change []",
            "demo=01_twin_experiment.py: missing from the change",
            "demo=05_new.py: missing from the parent"]

    def test_main_prints_every_difference(self, monkeypatch, tmp_path,
                                          capsys):
        monkeypatch.setattr(report_gate, "CONFIGS", {"short": {"n_steps": 3}})
        monkeypatch.setattr(report_gate, "SEEDS", (1, 2))
        assert report_gate.main([]) == 0
        out = capsys.readouterr().out
        parent = tmp_path / "parent.jsonl"
        parent.write_text(out)
        assert report_gate.main(["--against", str(parent)]) == 0
        assert capsys.readouterr().err == ""
        edits = [json.loads(text) for text in out.splitlines()]
        for line in edits:
            line["status"] = "edited"
        parent.write_text("".join(json.dumps(line) + "\n" for line in edits))
        assert report_gate.main(["--against", str(parent)]) == 1
        err = capsys.readouterr().err
        assert err == "".join(
            f"report gate: difference at config=short seed={seed} "
            f'key=status: parent "edited", change "converged"\n'
            for seed in (1, 2))


class TestOracleLine:
    def test_hashes_the_chained_oracle(self):
        # perfbench's oracle_gap chain: each time's oracle around M times the
        # previous analysis, from the background u0
        line = report_gate.gate_line("two_steps", {"n_steps": 3}, 2025)
        config = harness.load_config(overrides={"n_steps": 3, "seed": 2025})
        vconfig, _ = harness.build_problem(config)
        u = vconfig.u0
        chain = [u]
        for k in (1, 2):
            slab = dataclasses.replace(vconfig, u0=vconfig.instance.M @ u,
                                       time_index=k)
            u = var_solver.solve_var_direct(slab, "threeD").u_da
            chain.append(u)
        want = hashlib.sha256(np.concatenate(chain).tobytes()).hexdigest()
        assert line["oracle_sha256"] == want
        # a different seed observes other data: another chain
        assert report_gate.gate_line("two_steps", {"n_steps": 3}, 1)[
            "oracle_sha256"] != want


def short_run():
    config = harness.load_config(overrides={"n_steps": 3, "seed": 2025})
    return harness.run_experiment(config), harness.build_problem(
        config)[0].instance.M


def parts_sha256(parts):
    return hashlib.sha256(b"".join(p.tobytes() for p in parts)).hexdigest()


class TestTrajectoryLine:
    def test_hashes_levels_then_the_chain(self):
        result, M = short_run()
        t = result.trajectory
        # each level's backgrounds row by row: u0, then M @ the state at k - 1
        backgrounds = [row for level in t.u
                       for row in (level[0], *(M @ x for x in level[:-1]))]
        want = parts_sha256([*t.u, *backgrounds,
                             *(level[1:] for level in t.delta),
                             result.reference])
        line = report_gate.gate_line("two_steps", {"n_steps": 3}, 2025)
        assert line["trajectory_sha256"] == want

    def test_per_point_vectors_hash_alike(self):
        # a trajectory kept as tuples of per-point vectors, with None for
        # delta[n][0], and a chain kept as a list
        result, M = short_run()
        t = result.trajectory
        vectors = parareal.PararealTrajectory(
            u=tuple(map(tuple, t.u)),
            delta=tuple((None, *level[1:]) for level in t.delta))
        as_vectors = SimpleNamespace(trajectory=vectors,
                                     reference=list(result.reference))
        assert (report_gate.trajectory_sha256(as_vectors, M)
                == report_gate.trajectory_sha256(result, M))


class TestSolvedLine:
    @pytest.mark.parametrize("overrides, solved", [
        ({"n_steps": 4}, [[2, 3], [3], []]),
        ({"n_steps": 4, "max_outer": 1, "workers": 2}, [[2, 3]]),
    ], ids=["three_slabs", "one_iteration"])
    def test_lists_the_slabs_the_run_solved(self, monkeypatch, overrides,
                                            solved):
        histories = []
        run = parareal.run_parareal

        def spy(*args, **kwargs):
            trajectory, history, chain = run(*args, **kwargs)
            histories.append(history)
            return trajectory, history, chain

        monkeypatch.setattr(parareal, "run_parareal", spy)
        line = report_gate.gate_line("short", overrides, 2025)
        # the harness's one run, read from its result
        assert len(histories) == 1
        assert line["solved"] == histories[0].solved == solved
        assert json.loads(json.dumps(line))["solved"] == solved
        assert line["summary"]["fine_solves"] == 3 + sum(map(len, solved))
