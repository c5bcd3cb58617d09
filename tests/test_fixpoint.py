"""Fixed-point engine: instrumentation, seed-robust gfp iteration,
the persistence-or-reach subroutine, and iterate-trace recording."""

from __future__ import annotations

import numpy as np
import pytest

import helpers
from mtgames.fixpoint import (
    FixpointEngine,
    ModeTrace,
    solve_persistence_reach,
    solve_stable_conjunction,
)
from mtgames.sets import StateSet
from mtgames.specs import bind_spec


def stay_op(engine, region):
    return lambda x: engine.pre(x) & region


# ---------------------------------------------------------------------------
# Engine instrumentation


def test_pre_counter_increments(g2_game):
    engine = FixpointEngine(g2_game)
    assert engine.stats.pre_count == 0
    engine.pre(engine.full)
    engine.pre(engine.empty)
    assert engine.stats.pre_count == 2


def test_engine_constants(g1_game):
    engine = FixpointEngine(g1_game)
    assert set(engine.full) == {0, 1}
    assert len(engine.empty) == 0


# ---------------------------------------------------------------------------
# gfp


def test_gfp_stay_frozen_examples(g1_game, g2_game):
    e1 = FixpointEngine(g1_game)
    assert set(e1.gfp(stay_op(e1, StateSet(2, [1])))) == {1}
    e2 = FixpointEngine(g2_game)
    assert set(e2.gfp(stay_op(e2, StateSet(2, [1])))) == set()


def test_gfp_seed_independence():
    for seed in range(15):
        g = helpers.random_graph(seed)
        region = helpers.random_subset(seed + 500, g.n)
        engine = FixpointEngine(g)
        cold = engine.gfp(stay_op(engine, region))
        # Any superset of the greatest fixed point is a legal seed.
        cover = cold | helpers.random_subset(seed + 900, g.n)
        warm = engine.gfp(stay_op(engine, region), seed=cover)
        assert warm == cold


# ---------------------------------------------------------------------------
# Persistence-or-reach


def test_persistence_full_and_empty(g2_game):
    engine = FixpointEngine(g2_game)
    assert set(solve_persistence_reach(engine, [engine.full]).value) == {0, 1}
    assert set(solve_persistence_reach(engine, [engine.empty]).value) == set()


def test_persistence_rejects_sets_of_another_universe(g2_game):
    engine = FixpointEngine(g2_game)
    with pytest.raises(ValueError):
        solve_persistence_reach(engine, [StateSet(1, [0])])
    with pytest.raises(ValueError):
        solve_persistence_reach(engine, [], StateSet(3, [0]))


def test_persistence_frozen_g2(g2_game):
    engine = FixpointEngine(g2_game)
    res = solve_persistence_reach(engine, [StateSet(2, [1])])
    assert set(res.value) == set()


def test_persistence_without_sets_is_attractor():
    for seed in range(15):
        g = helpers.random_graph(seed)
        goal = helpers.random_subset(seed + 500, g.n)
        engine = FixpointEngine(g)
        res = solve_persistence_reach(engine, [], reach_set=goal)
        assert set(res.value) == helpers.naive_attractor(g, set(goal)), f"seed {seed}"


def test_persistence_value_contains_reach_and_stay_regions():
    for seed in range(15):
        g = helpers.random_graph(seed)
        engine = FixpointEngine(g)
        p = helpers.random_subset(seed + 11, g.n)
        reach = helpers.random_subset(seed + 22, g.n)
        res = solve_persistence_reach(engine, [p], reach_set=reach)
        assert reach <= res.value
        stay = engine.gfp(stay_op(engine, p))
        assert stay <= res.value
        assert res.final_x[0] <= res.value


def test_persistence_warm_seeds_reproduce_value():
    for seed in range(15):
        g = helpers.random_graph(seed)
        engine = FixpointEngine(g)
        p = helpers.random_subset(seed + 11, g.n)
        q = helpers.random_subset(seed + 33, g.n)
        reach = helpers.random_subset(seed + 22, g.n)
        cold = solve_persistence_reach(engine, [p, q], reach_set=reach)
        before = engine.stats.pre_count
        warm = solve_persistence_reach(
            engine, [p, q], reach_set=reach, x_seeds=cold.final_x
        )
        warm_cost = engine.stats.pre_count - before
        assert warm.value == cold.value
        assert warm_cost <= before


def test_recorded_iterates_form_increasing_chain():
    for seed in range(15):
        g = helpers.random_graph(seed)
        engine = FixpointEngine(g)
        p = helpers.random_subset(seed + 11, g.n)
        q = helpers.random_subset(seed + 33, g.n)
        reach = helpers.random_subset(seed + 22, g.n)
        res = solve_persistence_reach(
            engine, [p, q], reach_set=reach, record=True
        )
        ys = res.y_iterates
        assert len(ys[0]) == 0
        for a, b in zip(ys, ys[1:]):
            assert a < b  # strictly increasing until the fixed point
        assert ys[-1] == res.value
        assert len(res.x_iterates) == len(ys) - 1
        for row in res.x_iterates:
            assert len(row) == 2
            for x in row:
                assert x <= res.value


def test_mode_trace_ranks_reconstruct_iterates():
    for seed in range(15):
        g = helpers.random_graph(seed)
        engine = FixpointEngine(g)
        p = helpers.random_subset(seed + 11, g.n)
        reach = helpers.random_subset(seed + 22, g.n)
        res = solve_persistence_reach(engine, [p], reach_set=reach, record=True)
        tr = ModeTrace.from_iterates(res.y_iterates, res.x_iterates, 1)
        assert tr.target_count == 1
        for rank, y in enumerate(res.y_iterates):
            assert np.array_equal((tr.y_rank >= 1) & (tr.y_rank <= rank), y.bits)
        assert np.array_equal(tr.y_rank >= 1, res.value.bits)
        for rank, row in enumerate(res.x_iterates):
            xr = tr.x_rank[0]
            assert np.array_equal((xr >= 0) & (xr <= rank), row[0].bits)


def test_mode_trace_handles_immediate_convergence():
    g = helpers.g2()
    engine = FixpointEngine(g)
    res = solve_persistence_reach(engine, [engine.empty], record=True)
    assert len(res.y_iterates) == 1
    tr = ModeTrace.from_iterates(res.y_iterates, res.x_iterates, 1)
    assert not (tr.y_rank >= 1).any()
    assert not (tr.x_rank[0] >= 0).any()
    assert tr.target_count == 1


# ---------------------------------------------------------------------------
# Stable-conjunction driver


def _bound_parts(game, spec):
    bound = bind_spec(game, spec)
    persist = bound.persistence_sets
    exits = [~ms for ms in bound.mode_sets]
    return persist, exits


def test_driver_frozen_examples(g1_game, g2_game, one_mode_spec):
    p1, e1 = _bound_parts(g1_game, one_mode_spec)
    out1 = solve_stable_conjunction(g1_game, p1, e1)
    assert set(out1.winning) == {0, 1}
    assert out1.stats.outer_iterations >= 1
    assert out1.stats.pre_count > 0
    assert out1.stats.wall_time_s >= 0.0

    p2, e2 = _bound_parts(g2_game, one_mode_spec)
    out2 = solve_stable_conjunction(g2_game, p2, e2)
    assert set(out2.winning) == set()


def test_driver_records_one_trace_per_conjunct(g1_game, one_mode_spec):
    p, e = _bound_parts(g1_game, one_mode_spec)
    out = solve_stable_conjunction(g1_game, p, e, record=True)
    assert out.traces is not None and len(out.traces) == 1
    assert out.traces[0].target_count == 1
    no_rec = solve_stable_conjunction(g1_game, p, e, record=False)
    assert no_rec.traces is None
    assert no_rec.stats.pre_count == out.stats.pre_count


def test_final_round_iterates_close_on_winning_set():
    # At the fixed point every conjunct's outer chain must terminate on
    # the winning set itself; this is what makes the recorded ranks a
    # sound basis for strategy extraction.
    from mtgames.benchgen import gen_random_game

    for seed in range(8):
        game, spec = gen_random_game(30, 2, [2, 1], 2.0, seed)
        persist, exits = _bound_parts(game, spec)
        out = solve_stable_conjunction(game, persist, exits, record=True)
        for tr in out.traces:
            assert np.array_equal(tr.y_rank >= 1, out.winning.bits)


def test_driver_warm_matches_cold():
    from mtgames.benchgen import gen_random_game

    for seed in range(8):
        game, spec = gen_random_game(40, 3, [2, 1, 2], 2.0, seed)
        persist, exits = _bound_parts(game, spec)
        cold = solve_stable_conjunction(game, persist, exits)
        warm = solve_stable_conjunction(game, persist, exits, warm=True)
        assert warm.winning == cold.winning


def test_driver_pre_count_deterministic(g1_game, one_mode_spec):
    p, e = _bound_parts(g1_game, one_mode_spec)
    a = solve_stable_conjunction(g1_game, p, e)
    b = solve_stable_conjunction(g1_game, p, e)
    assert a.stats.pre_count == b.stats.pre_count
    assert a.stats.outer_iterations == b.stats.outer_iterations


# ---------------------------------------------------------------------------
# Every counted Pre is one call through mtgames.fixpoint.pre


def _counting_pre(monkeypatch):
    import mtgames.fixpoint

    calls = []
    original = mtgames.fixpoint.pre

    def counted(game, target):
        calls.append(None)
        return original(game, target)

    monkeypatch.setattr(mtgames.fixpoint, "pre", counted)
    return calls


@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("record", [False, True])
def test_pre_calls_equal_pre_count_direct_and_embedded(monkeypatch, warm, record):
    from mtgames.benchgen import gen_random_game
    from mtgames.gr1 import solve_gr1_emb
    from mtgames.solver import SolveOptions, solve_mt

    calls = _counting_pre(monkeypatch)
    options = SolveOptions(warm=warm, record=record)
    for seed in range(4):
        game, spec = gen_random_game(40, 3, [3, 1, 2], 2.0, seed)
        for solve in (solve_mt, solve_gr1_emb):
            calls.clear()
            result = solve(game, spec, options)
            assert result.stats.pre_count > 0
            assert len(calls) == result.stats.pre_count, (solve.__name__, seed)


@pytest.mark.parametrize("warm", [False, True])
def test_pre_calls_equal_pre_count_generic_gr1(monkeypatch, warm):
    from mtgames.benchgen import gen_random_game
    from mtgames.gr1 import embed, solve_gr1

    calls = _counting_pre(monkeypatch)
    for seed in range(4):
        game, spec = gen_random_game(40, 3, [3, 1, 2], 2.0, seed)
        gr1 = embed(game, spec).spec()
        calls.clear()
        result = solve_gr1(game, gr1, warm=warm)
        assert result.stats.pre_count > 0
        assert len(calls) == result.stats.pre_count, seed
