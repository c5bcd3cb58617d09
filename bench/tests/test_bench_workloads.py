"""Shrunken versions of the benchmark's workloads, checked independently.

Run with ``PYTHONPATH=src python -m pytest -q bench/tests``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from mtgames.game import PLAYER0, load_game  # noqa: E402
from mtgames.solver import solve_mt_reference  # noqa: E402
from mtgames.specs import parse_spec_file  # noqa: E402
from mtgames.strategy import enumerate_memoryless_winning  # noqa: E402


def _load(inst):
    return (
        load_game(inst.game.read_text(encoding="utf-8")),
        parse_spec_file(inst.spec.read_text(encoding="utf-8")),
    )


def _pass(tmp_path, workload, size, seed=7):
    prepared = wl.build(workload, tmp_path / workload, seed, size)
    ledger = wl.Ledger()
    result = wl.run_pass(ledger, prepared)
    assert ledger.failed == 0, ledger.failures
    assert ledger.problems == []
    return prepared, ledger, result


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_small_pass_matches_reference(tmp_path, workload):
    prepared, ledger, result = _pass(tmp_path, workload, "small")
    assert ledger.attempted == 3 * len(prepared.instances) + 1
    assert result.pre_count_mt > 0 and result.pre_count_gr1emb > 0
    for inst in prepared.instances:
        expected = {int(v) for v in solve_mt_reference(*_load(inst))}
        assert wl.read_winning(wl.outputs(prepared, inst).winning) == expected


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_tiny_pass_matches_reference_and_enumeration(tmp_path, workload):
    prepared, _, _ = _pass(tmp_path, workload, "tiny")
    for inst in prepared.instances:
        game, spec = _load(inst)
        got = wl.read_winning(wl.outputs(prepared, inst).winning)
        assert got == {int(v) for v in solve_mt_reference(game, spec)}
        assert got == {int(v) for v in enumerate_memoryless_winning(game, spec).indices()}


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_seeds_give_different_files_and_the_same_work(tmp_path, workload):
    a, _, ra = _pass(tmp_path / "a", workload, "small", seed=1)
    b, _, rb = _pass(tmp_path / "b", workload, "small", seed=2)
    assert a.instances[-1].game.read_bytes() != b.instances[-1].game.read_bytes()
    assert ra.records == rb.records


def _losing_state(prepared, inst):
    win = wl.read_winning(wl.outputs(prepared, inst).winning)
    losing = sorted(set(range(inst.states)) - win)
    assert losing, "the instance must have a losing state"
    return losing[0]


def test_corrupted_winning_set_fails_the_check(tmp_path):
    prepared, _, _ = _pass(tmp_path, "random", "small")
    inst = prepared.instances[0]
    files = wl.outputs(prepared, inst)
    with files.winning.open("a", encoding="utf-8") as fh:
        fh.write(f"{_losing_state(prepared, inst)}\n")
    ledger = wl.Ledger()
    wl.check_op(ledger, inst, files)
    assert (ledger.attempted, ledger.failed) == (1, 1)


def test_corrupted_strategy_fails_the_check(tmp_path):
    prepared, _, _ = _pass(tmp_path, "random", "small")
    inst = prepared.instances[0]
    files = wl.outputs(prepared, inst)
    game, _ = _load(inst)
    win = wl.read_winning(files.winning)
    lines = files.strategy.read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines):
        if line.startswith("move "):
            _, v, _ = line.split()
            outside = next(w for w in range(game.n) if w not in win)
            lines[i] = f"move {v} {outside}"
            assert game.owner(int(v)) == PLAYER0
            break
    files.strategy.write_text("\n".join(lines) + "\n", encoding="utf-8")
    ledger = wl.Ledger()
    wl.check_op(ledger, inst, files)
    assert (ledger.attempted, ledger.failed) == (1, 1)


def test_reference_check_catches_a_wrong_winning_set(tmp_path):
    prepared, _, _ = _pass(tmp_path, "series", "small")
    inst = prepared.instances[prepared.seed % len(prepared.instances)]
    files = wl.outputs(prepared, inst)
    with files.winning.open("a", encoding="utf-8") as fh:
        fh.write(f"{_losing_state(prepared, inst)}\n")
    ledger = wl.Ledger()
    wl.check_apart(ledger, prepared)
    assert len(ledger.problems) == 1


def test_traced_pass_counts_match_reported_pre_counts(tmp_path):
    prepared = wl.build("series", tmp_path / "series", 3, "small")
    tracer = tracing.Tracer(tracing.SITES + (("x.gone", "mtgames.cli", "no_such_function"),))
    with tracer:
        result = wl.run_pass(wl.Ledger(), prepared)
    assert tracer.missing == ["mtgames.cli.no_such_function"]
    layers = tracing.layer_metrics(tracer.spans, tracer.outer_iterations)
    assert layers["game.pre_calls"] == result.pre_count_mt + result.pre_count_gr1emb
    assert layers["fixpoint.outer_iterations"] == sum(r[2] for r in result.records)
    assert layers["cli.self_s"] > 0
    # The wrappers are gone again.
    import mtgames.fixpoint

    assert mtgames.fixpoint.pre.__module__ == "mtgames.game"


def test_union_of_overlapping_children():
    assert tracing._union([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == pytest.approx(4.0)


@pytest.mark.parametrize("trace", [False, True])
def test_run_reports_every_declared_metric(trace):
    result, info = run.run("robot", 5, 0.0, trace, size="small")
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in declared["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == names
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert info["calibration_start_s"] > 0 and info["calibration_end_s"] > 0
