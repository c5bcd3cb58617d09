"""Fixed-point engine: instrumentation, seed-robust gfp iteration,
the persistence-or-reach subroutine, and iterate-trace recording."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

import helpers
from mtgames.fixpoint import (
    FixpointEngine,
    ModeTrace,
    solve_persistence_reach,
    solve_stable_conjunction,
)
from mtgames.game import RowSlice
from mtgames.sets import StateSet
from mtgames.specs import bind_spec


def stay_op(engine, region):
    return lambda x: engine.pre(x) & region


def block(n, *sets):
    """The (len(sets) x n) persistence block of some StateSets."""
    return np.array([s.bits for s in sets], dtype=bool).reshape(len(sets), n)


def members(mask):
    return set(np.flatnonzero(mask).tolist())


def subset(a, b):
    """Mask ``a`` is a subset of mask ``b``."""
    return not (a & ~b).any()


# ---------------------------------------------------------------------------
# Engine instrumentation


def test_pre_counter_increments(g2_game):
    engine = FixpointEngine(g2_game)
    assert engine.stats.pre_count == 0
    engine.pre(np.ones(2, dtype=bool))
    engine.pre(StateSet.empty(2))
    assert engine.stats.pre_count == 2


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
    nowhere = np.zeros(2, dtype=bool)
    full = solve_persistence_reach(engine, np.ones((1, 2), dtype=bool), nowhere)
    assert members(full.value) == {0, 1}
    empty = solve_persistence_reach(engine, np.zeros((1, 2), dtype=bool), nowhere)
    assert members(empty.value) == set()


def test_persistence_rejects_sets_of_another_universe(g2_game):
    engine = FixpointEngine(g2_game)
    with pytest.raises(ValueError):
        solve_persistence_reach(engine, np.ones((1, 1), dtype=bool), np.zeros(2, bool))
    with pytest.raises(ValueError):
        solve_persistence_reach(engine, np.ones((0, 2), dtype=bool), np.zeros(3, bool))
    with pytest.raises(ValueError):
        solve_persistence_reach(
            engine,
            np.ones((1, 2), dtype=bool),
            np.zeros(2, bool),
            x_seeds=[np.ones(3, dtype=bool)],
        )


def test_persistence_rejects_a_seed_count_other_than_the_set_count(g2_game):
    engine = FixpointEngine(g2_game)
    persist = np.ones((2, 2), dtype=bool)
    for count in (1, 3):
        with pytest.raises(ValueError, match="seeds for 2 persistence sets"):
            solve_persistence_reach(
                engine, persist, np.zeros(2, bool), x_seeds=[np.ones(2, dtype=bool)] * count
            )


def test_persistence_frozen_g2(g2_game):
    engine = FixpointEngine(g2_game)
    res = solve_persistence_reach(engine, block(2, StateSet(2, [1])), np.zeros(2, bool))
    assert members(res.value) == set()


def test_persistence_without_sets_is_attractor():
    for seed in range(15):
        g = helpers.random_graph(seed)
        goal = helpers.random_subset(seed + 500, g.n)
        engine = FixpointEngine(g)
        res = solve_persistence_reach(engine, block(g.n), goal.bits)
        assert members(res.value) == helpers.naive_attractor(g, set(goal)), f"seed {seed}"


def test_persistence_value_contains_reach_and_stay_regions():
    for seed in range(15):
        g = helpers.random_graph(seed)
        engine = FixpointEngine(g)
        p = helpers.random_subset(seed + 11, g.n)
        reach = helpers.random_subset(seed + 22, g.n)
        res = solve_persistence_reach(engine, block(g.n, p), reach.bits)
        assert subset(reach.bits, res.value)
        stay = engine.gfp(stay_op(engine, p))
        assert subset(stay.bits, res.value)
        assert subset(res.final_x[0], res.value)


def test_persistence_warm_seeds_reproduce_value():
    for seed in range(15):
        g = helpers.random_graph(seed)
        engine = FixpointEngine(g)
        p = helpers.random_subset(seed + 11, g.n)
        q = helpers.random_subset(seed + 33, g.n)
        reach = helpers.random_subset(seed + 22, g.n)
        persist = block(g.n, p, q)
        cold = solve_persistence_reach(engine, persist, reach.bits)
        before = engine.stats.pre_count
        warm = solve_persistence_reach(engine, persist, reach.bits, x_seeds=cold.final_x)
        warm_cost = engine.stats.pre_count - before
        assert np.array_equal(warm.value, cold.value)
        assert warm_cost <= before


# Values of fixpoint.ROW_CHAIN_RATIO that send every persistence set to one
# inner path: its own rows, or length-n masks (an empty set takes the rows
# under any value).
PATHS = {"rows": 0, "masks": 10**12}


def force_path(monkeypatch, path):
    import mtgames.fixpoint

    monkeypatch.setattr(mtgames.fixpoint, "ROW_CHAIN_RATIO", PATHS[path])


def rows_of(engine, persist):
    return [s.rows for s in engine.row_slices(persist)]


@pytest.mark.parametrize("path", sorted(PATHS))
@pytest.mark.parametrize("warm", [False, True])
def test_persistence_reach_matches_the_plain_loop(monkeypatch, warm, path):
    force_path(monkeypatch, path)
    for seed in range(15):
        g = helpers.random_graph(seed)
        p = helpers.random_subset(seed + 11, g.n)
        q = helpers.random_subset(seed + 33, g.n)
        reach = helpers.random_subset(seed + 22, g.n).bits
        persist = block(g.n, p, q)
        seeds = None
        if warm:
            # Any superset of every inner fixed point is a valid seed.
            cold = solve_persistence_reach(FixpointEngine(g), persist, reach)
            seeds = [
                x | helpers.random_subset(seed + 900 + j, g.n).bits
                for j, x in enumerate(cold.final_x)
            ]
        engine = FixpointEngine(g)
        res = solve_persistence_reach(engine, persist, reach, x_seeds=seeds)
        value, final_x, *_, calls = helpers.persistence_reach_iterates(g, persist, reach, seeds)
        assert np.array_equal(res.value, value), seed
        assert all(map(np.array_equal, res.final_x, final_x)), seed
        assert engine.stats.pre_count == calls, seed


@pytest.mark.parametrize("path", sorted(PATHS))
def test_first_inner_step_stays_inside_the_seed(monkeypatch, path):
    # Player 0 states 0 -> 2, 1 -> 0 and 2 -> 2, P = {0, 1}, nothing to
    # reach: the inner fixed point is empty, so the seed {0} is valid. Pre of
    # the seed inside P is {1}, of the seed's size but outside it; the first
    # step is {1} & {0}, empty, and not {1}.
    force_path(monkeypatch, path)
    g = helpers.build_game(3, [0, 0, 0], [(0, 2), (1, 0), (2, 2)])
    persist = np.array([[True, True, False]])
    engine = FixpointEngine(g)
    seeds = [np.array([True, False, False])]
    res = solve_persistence_reach(engine, persist, np.zeros(3, bool), x_seeds=seeds)
    assert members(res.value) == set() and members(res.final_x[0]) == set()
    assert engine.stats.pre_count == 3


def test_recorded_iterates_form_increasing_chain(monkeypatch):
    for path, seed in itertools.product(sorted(PATHS), range(15)):
        force_path(monkeypatch, path)
        g = helpers.random_graph(seed)
        engine = FixpointEngine(g)
        p = helpers.random_subset(seed + 11, g.n)
        q = helpers.random_subset(seed + 33, g.n)
        reach = helpers.random_subset(seed + 22, g.n)
        persist = block(g.n, p, q)
        res = solve_persistence_reach(engine, persist, reach.bits)
        ys, xs = helpers.full_iterates(g.n, rows_of(engine, persist), res.bases, res.x_iterates)
        assert not ys[0].any()
        for a, b in zip(ys, ys[1:]):
            # strictly increasing until the fixed point
            assert subset(a, b) and not np.array_equal(a, b)
        assert np.array_equal(ys[-1], res.value)
        assert len(xs) == len(ys) - 1
        for row in xs:
            assert len(row) == 2
            for x in row:
                assert subset(x, res.value)
        # The chains are the plain loop's, mask for mask.
        _, _, ref_ys, ref_bases, ref_xs, _ = helpers.persistence_reach_iterates(
            g, persist, reach.bits
        )
        assert len(ys) == len(ref_ys) and len(res.bases) == len(ref_bases)
        assert all(np.array_equal(a, b) for a, b in zip(ys, ref_ys))
        assert all(np.array_equal(a, b) for a, b in zip(res.bases, ref_bases))
        for row, ref_row in zip(xs, ref_xs, strict=True):
            assert all(np.array_equal(a, b) for a, b in zip(row, ref_row, strict=True))


def test_mode_trace_ranks_reconstruct_iterates(monkeypatch):
    # With two sets they overlap, and a state's y rank may come from either.
    for path, sets, seed in itertools.product(sorted(PATHS), (1, 2), range(15)):
        force_path(monkeypatch, path)
        g = helpers.random_graph(seed)
        engine = FixpointEngine(g)
        p = helpers.random_subset(seed + 11, g.n)
        q = helpers.random_subset(seed + 33, g.n)
        reach = helpers.random_subset(seed + 22, g.n)
        persist = block(g.n, *(p, q)[:sets])
        res = solve_persistence_reach(engine, persist, reach.bits)
        tr = ModeTrace.from_iterates(g.n, rows_of(engine, persist), res.bases, res.x_iterates)
        assert len(tr.x_rank) == sets
        _, _, ys, _, xs, _ = helpers.persistence_reach_iterates(g, persist, reach.bits)
        assert helpers.same_trace(tr, helpers.ModeTraceLoop.from_iterates(ys, xs, sets))
        for rank, y in enumerate(ys):
            assert np.array_equal((tr.y_rank >= 1) & (tr.y_rank <= rank), y)
        assert np.array_equal(tr.y_rank >= 1, res.value)
        for rank, row in enumerate(xs):
            for xr, x in zip(tr.x_rank, row, strict=True):
                assert np.array_equal((xr >= 0) & (xr <= rank), x)


def test_mode_trace_handles_immediate_convergence(monkeypatch):
    g = helpers.g2()
    persist = np.zeros((1, 2), dtype=bool)
    oracle = helpers.ModeTraceLoop.from_iterates([np.zeros(2, dtype=bool)], [], 1)
    for path in sorted(PATHS):
        force_path(monkeypatch, path)
        engine = FixpointEngine(g)
        res = solve_persistence_reach(engine, persist, np.zeros(2, bool))
        assert len(res.bases) == 0 and len(res.x_iterates) == 0
        tr = ModeTrace.from_iterates(g.n, rows_of(engine, persist), res.bases, res.x_iterates)
        assert not (tr.y_rank >= 1).any()
        assert not (tr.x_rank[0] >= 0).any()
        assert len(tr.x_rank) == 1
        assert helpers.same_trace(tr, oracle)


@pytest.mark.parametrize("path", sorted(PATHS))
@pytest.mark.parametrize("warm", [False, True])
def test_both_inner_paths_give_their_sets_rows(monkeypatch, warm, path):
    # An empty set, the full set and random ones: on either path every inner
    # fixed point comes back as X & P_j on P_j's rows, and final_x and the
    # trace built from them are the plain loop's.
    force_path(monkeypatch, path)
    for seed in range(10):
        g = helpers.random_graph(seed)
        sets = [StateSet.empty(g.n), StateSet.full(g.n)]
        sets += [helpers.random_subset(seed + 11 * k, g.n) for k in (1, 3)]
        persist = block(g.n, *sets)
        reach = helpers.random_subset(seed + 22, g.n).bits
        seeds = None
        if warm:
            cold = solve_persistence_reach(FixpointEngine(g), persist, reach)
            seeds = [
                x | helpers.random_subset(seed + 900 + j, g.n).bits
                for j, x in enumerate(cold.final_x)
            ]
        engine = FixpointEngine(g)
        res = solve_persistence_reach(engine, persist, reach, x_seeds=seeds)
        rows = rows_of(engine, persist)
        sizes = [r.size for r in rows]
        assert sizes[:2] == [0, g.n]
        assert all([x.size for x in row] == sizes for row in res.x_iterates), seed
        _, final_x, ys, _, xs, _ = helpers.persistence_reach_iterates(g, persist, reach, seeds)
        assert all(map(np.array_equal, res.final_x, final_x)), seed
        tr = ModeTrace.from_iterates(g.n, rows, res.bases, res.x_iterates)
        assert helpers.same_trace(tr, helpers.ModeTraceLoop.from_iterates(ys, xs, len(sets)))


@pytest.mark.parametrize("warm", [False, True])
def test_inner_iterates_are_base_and_their_part_in_the_set(warm):
    # X_l = base_l | (X_l & P_j) for every recorded rank l and set j, and
    # both base_l and X_l & P_j grow with l: what the inner chains on P's
    # rows and the rank build rely on. Checked on the plain loop, which
    # assumes neither.
    from mtgames.benchgen import gen_random_game

    ranks = set()
    for seed in range(6):
        game, spec = gen_random_game(60, 3, [2, 1, 2], 2.0, seed)
        persist, exits = _bound_parts(game, spec)
        for i, block_i in enumerate(persist):
            # Warm seeds: the inner fixed points of a run with more to reach.
            seeds = None
            if warm:
                seeds = helpers.persistence_reach_iterates(game, block_i, exits[i])[1]
            reach = exits[i] & helpers.random_subset(seed + 70 + i, game.n).bits
            _, _, ys, bases, xs, _ = helpers.persistence_reach_iterates(
                game, block_i, reach, seeds
            )
            assert len(bases) == len(xs) == len(ys) - 1
            ranks.add(len(bases))
            for l, (base, row) in enumerate(zip(bases, xs)):
                for p, x in zip(block_i, row):
                    assert np.array_equal(x, base | (x & p)), (seed, i, l)
                if l:
                    assert subset(bases[l - 1], base), (seed, i, l)
                    for p, before, x in zip(block_i, xs[l - 1], row):
                        assert subset(before & p, x & p), (seed, i, l)
    assert max(ranks) >= 3


# ---------------------------------------------------------------------------
# Stable-conjunction driver


def _bound_parts(game, spec):
    bound = bind_spec(game, spec)
    return [bound.persistence(i) for i in range(len(bound.targets))], ~bound.modes


def test_driver_frozen_examples(g1_game, g2_game, one_mode_spec):
    p1, e1 = _bound_parts(g1_game, one_mode_spec)
    out1 = solve_stable_conjunction(g1_game, p1, e1)
    assert members(out1.winning) == {0, 1}
    assert out1.stats.outer_iterations >= 1
    assert out1.stats.pre_count > 0
    assert out1.stats.wall_time_s >= 0.0

    p2, e2 = _bound_parts(g2_game, one_mode_spec)
    out2 = solve_stable_conjunction(g2_game, p2, e2)
    assert members(out2.winning) == set()


def test_driver_records_one_trace_per_conjunct(g1_game, one_mode_spec):
    p, e = _bound_parts(g1_game, one_mode_spec)
    out = solve_stable_conjunction(g1_game, p, e, record=True)
    assert out.traces is not None and len(out.traces) == 1
    assert len(out.traces[0].x_rank) == 1
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
            assert np.array_equal(tr.y_rank >= 1, out.winning)


@pytest.mark.parametrize("warm", [False, True])
def test_traces_are_built_only_in_rounds_that_leave_z_unchanged(monkeypatch, warm):
    from mtgames.benchgen import gen_random_game

    built = []
    original = ModeTrace.from_iterates

    def counted(n, rows, bases, x_iterates):
        built.append(len(rows))
        tr = original(n, rows, bases, x_iterates)
        assert helpers.same_trace(tr, helpers.recorded_trace_oracle(n, rows, bases, x_iterates))
        return tr

    monkeypatch.setattr(ModeTrace, "from_iterates", counted)
    game, spec = gen_random_game(200, 4, [3, 1, 2, 1], 2.0, 0)
    persist, exits = _bound_parts(game, spec)
    out = solve_stable_conjunction(game, persist, exits, warm=warm, record=True)
    assert out.stats.outer_iterations >= 3
    assert len(persist) <= len(built) < len(persist) * out.stats.outer_iterations


@pytest.mark.parametrize("warm", [False, True])
def test_kept_traces_match_a_fresh_run_against_the_winning_set(monkeypatch, warm):
    from mtgames.benchgen import gen_random_game

    for path, seed in itertools.product(sorted(PATHS), range(6)):
        force_path(monkeypatch, path)
        game, spec = gen_random_game(60, 3, [2, 1, 2], 2.0, seed)
        persist, exits = _bound_parts(game, spec)
        out = solve_stable_conjunction(game, persist, exits, warm=warm, record=True)
        pre_z = FixpointEngine(game).pre(out.winning)
        for i, tr in enumerate(out.traces):
            _, _, ys, _, xs, _ = helpers.persistence_reach_iterates(
                game, persist[i], exits[i] & pre_z
            )
            fresh = helpers.ModeTraceLoop.from_iterates(ys, xs, len(persist[i]))
            assert helpers.same_trace(tr, fresh), (seed, i)


@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("algo", ["mt", "gr1emb", "gr1"])
def test_both_inner_paths_give_the_same_runs(monkeypatch, algo, warm):
    # Every persistence set forced onto its rows, then onto length-n masks:
    # the same value and inner fixed points from every persistence-or-reach
    # run, the same work and winning set, and traces equal to the oracle's.
    import mtgames.fixpoint
    from mtgames.benchgen import gen_random_game

    runs = []
    original = mtgames.fixpoint.solve_persistence_reach

    def kept(*args, **kwargs):
        res = original(*args, **kwargs)
        runs.append((res.value, res.final_x))
        return res

    monkeypatch.setattr(mtgames.fixpoint, "solve_persistence_reach", kept)
    on_rows = []
    chain = mtgames.fixpoint._chain_on_rows
    monkeypatch.setattr(
        mtgames.fixpoint,
        "_chain_on_rows",
        lambda engine, rows, *args: on_rows.append(rows.rows.size) or chain(engine, rows, *args),
    )
    rounds = set()
    for seed in range(4):
        game, spec = gen_random_game(80, 4, [3, 1, 2, 1], 2.0, seed)
        got = {}
        for path in sorted(PATHS):
            force_path(monkeypatch, path)
            runs.clear()
            on_rows.clear()
            result = _solve(algo, game, spec, warm)
            rounds.add(result.stats.outer_iterations)
            # Only an empty set takes the rows when masks are forced.
            assert on_rows if path == "rows" else not any(on_rows)
            got[path] = (result, list(runs))
        (rows, rows_runs), (masks, masks_runs) = got["rows"], got["masks"]
        assert rows.stats.pre_count == masks.stats.pre_count, seed
        assert rows.stats.outer_iterations == masks.stats.outer_iterations, seed
        assert rows.winning == masks.winning, seed
        assert len(rows_runs) == len(masks_runs) > 0
        for (value, final_x), (value_m, final_x_m) in zip(rows_runs, masks_runs):
            assert np.array_equal(value, value_m), seed
            assert all(map(np.array_equal, final_x, final_x_m)), seed
        if algo != "mt":
            continue
        persist, exits = _bound_parts(game, spec)
        pre_z = FixpointEngine(game).pre(rows.winning.bits)
        for i, (tr, tr_m) in enumerate(zip(rows.trace, masks.trace, strict=True)):
            _, _, ys, _, xs, _ = helpers.persistence_reach_iterates(
                game, persist[i], exits[i] & pre_z
            )
            oracle = helpers.ModeTraceLoop.from_iterates(ys, xs, len(persist[i]))
            assert helpers.same_trace(tr, oracle) and helpers.same_trace(tr_m, oracle)
    assert max(rounds) >= 3


def test_driver_warm_matches_cold():
    from mtgames.benchgen import gen_random_game

    for seed in range(8):
        game, spec = gen_random_game(40, 3, [2, 1, 2], 2.0, seed)
        persist, exits = _bound_parts(game, spec)
        cold = solve_stable_conjunction(game, persist, exits)
        warm = solve_stable_conjunction(game, persist, exits, warm=True)
        assert np.array_equal(warm.winning, cold.winning)


def test_driver_pre_count_deterministic(g1_game, one_mode_spec):
    p, e = _bound_parts(g1_game, one_mode_spec)
    a = solve_stable_conjunction(g1_game, p, e)
    b = solve_stable_conjunction(g1_game, p, e)
    assert a.stats.pre_count == b.stats.pre_count
    assert a.stats.outer_iterations == b.stats.outer_iterations


# ---------------------------------------------------------------------------
# The core runs on boolean masks; StateSets are made only at the public edge


@pytest.mark.parametrize("algo", ["mt", "gr1emb"])
def test_state_sets_made_per_solve_do_not_grow_with_outer_rounds(monkeypatch, algo):
    from mtgames.benchgen import gen_random_game
    from mtgames.gr1 import solve_gr1_emb
    from mtgames.solver import SolveOptions, solve_mt

    made = []
    wrap, init = StateSet._wrap.__func__, StateSet.__init__

    def counted_wrap(cls, bits):
        made.append(None)
        return wrap(cls, bits)

    def counted_init(self, *args, **kwargs):
        made.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(StateSet, "_wrap", classmethod(counted_wrap))
    monkeypatch.setattr(StateSet, "__init__", counted_init)
    solve = solve_mt if algo == "mt" else solve_gr1_emb
    made_by_rounds = {}
    # Seed 9 is solved in one outer round, seed 0 in eight; the spec's
    # shape, and so the number of sets bound and handed out, is the same.
    for seed in (9, 0):
        game, spec = gen_random_game(60, 3, [2, 1, 2], 3.0, seed)
        made.clear()
        result = solve(game, spec, SolveOptions(warm=True, record=True))
        made_by_rounds[result.stats.outer_iterations] = len(made)
    assert min(made_by_rounds) == 1 and max(made_by_rounds) >= 3
    assert len(set(made_by_rounds.values())) == 1, made_by_rounds


# ---------------------------------------------------------------------------
# Every counted Pre is one call through mtgames.fixpoint.pre


def _counting_pre(monkeypatch):
    """Wrap mtgames.fixpoint.pre; each call is logged as (args, kwargs)."""
    import mtgames.fixpoint

    calls = []
    original = mtgames.fixpoint.pre

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(mtgames.fixpoint, "pre", counted)
    return calls


def _carries_slice(call):
    args, kwargs = call
    return any(isinstance(a, RowSlice) for a in (*args, *kwargs.values()))


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


@pytest.mark.parametrize("algo", ["mt", "gr1emb", "gr1"])
def test_inner_pre_calls_carry_a_row_slice(monkeypatch, algo):
    from mtgames.benchgen import gen_random_game
    from mtgames.gr1 import embed, solve_gr1, solve_gr1_emb
    from mtgames.solver import solve_mt

    calls = _counting_pre(monkeypatch)
    game, spec = gen_random_game(40, 3, [3, 1, 2], 2.0, 0)
    if algo == "mt":
        result = solve_mt(game, spec)
    elif algo == "gr1emb":
        result = solve_gr1_emb(game, spec)
    else:
        result = solve_gr1(game, embed(game, spec).spec())
    assert len(calls) == result.stats.pre_count
    sliced = sum(_carries_slice(c) for c in calls)
    # Pre(Z) and every Pre(Y) stay on the full graph.
    assert 0 < sliced < len(calls)


@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("path", sorted(PATHS))
@pytest.mark.parametrize("algo", ["mt", "gr1emb"])
def test_first_steps_of_cold_chains_make_no_kernel_call(monkeypatch, algo, path, warm):
    # Each μY chain opens with Pre of no state, and each cold νX chain with
    # Pre of every state; both are counted but read from the graph alone.
    import mtgames.fixpoint
    import mtgames.game
    from mtgames.benchgen import gen_random_game

    force_path(monkeypatch, path)
    calls = _counting_pre(monkeypatch)
    kernel_calls = []
    kernel = mtgames.game.csr_matvec
    monkeypatch.setattr(
        mtgames.game, "csr_matvec", lambda *a: kernel_calls.append(None) or kernel(*a)
    )
    chains = []
    solve_reach = mtgames.fixpoint.solve_persistence_reach

    def counted_chains(*args, **kwargs):
        chains.append(None)
        return solve_reach(*args, **kwargs)

    monkeypatch.setattr(mtgames.fixpoint, "solve_persistence_reach", counted_chains)
    for seed in range(3):
        game, spec = gen_random_game(200, 4, [3, 1, 2, 1], 2.0, seed)
        assert game.pre_tracker(full=True) is None
        for log in (calls, kernel_calls, chains):
            log.clear()
        result = _solve(algo, game, spec, warm)
        assert len(calls) == result.stats.pre_count
        targets = [args[1] for args, _ in calls]
        every = sum(t is game.every_state for t in targets)
        empty = sum(t is game.no_state for t in targets)
        assert empty == len(chains), seed
        assert every > 0, seed
        # Without a tracker every other Pre is one kernel call.
        assert len(kernel_calls) == len(calls) - every - empty, seed


@pytest.mark.parametrize("warm", [False, True])
def test_row_slices_are_built_once_per_persistence_set(monkeypatch, warm):
    from mtgames.benchgen import gen_random_game
    from mtgames.game import GameGraph
    from mtgames.gr1 import solve_gr1_emb
    from mtgames.solver import SolveOptions, solve_mt

    built = []
    original = GameGraph.row_slice

    def counted(self, mask):
        built.append(None)
        return original(self, mask)

    monkeypatch.setattr(GameGraph, "row_slice", counted)
    rounds = set()
    for seed in range(4):
        game, spec = gen_random_game(200, 4, [3, 1, 2, 1], 2.0, seed)
        for solve, bound in (
            (solve_mt, spec.sum_targets),
            (solve_gr1_emb, spec.max_targets),
        ):
            built.clear()
            result = solve(game, spec, SolveOptions(warm=warm))
            rounds.add(result.stats.outer_iterations)
            assert 0 < len(built) <= bound, (solve.__name__, seed)
    # The bound does not grow with the number of outer rounds.
    assert max(rounds) > 2


# ---------------------------------------------------------------------------
# Tracked whole-graph Pre: successor counts kept along a chain


def _solve(algo, game, spec, warm):
    from mtgames.gr1 import embed, solve_gr1, solve_gr1_emb
    from mtgames.solver import SolveOptions, solve_mt

    if algo == "gr1":
        return solve_gr1(game, embed(game, spec).spec(), warm=warm)
    solve = solve_mt if algo == "mt" else solve_gr1_emb
    return solve(game, spec, SolveOptions(warm=warm))


@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("algo", ["mt", "gr1emb", "gr1"])
def test_every_tracked_pre_equals_the_full_pre(monkeypatch, algo, warm):
    import mtgames.fixpoint
    import mtgames.game
    from mtgames.benchgen import gen_random_game

    monkeypatch.setattr(mtgames.game, "TRACKED_PRE_EDGES", 0)
    original = mtgames.fixpoint.pre
    # Per tracked call: the states that joined and left its set since the
    # tracker's last call.
    steps = []

    def checked(game, mask, within=None, tracker=None):
        if tracker is not None:
            steps.append(
                (np.count_nonzero(mask & ~tracker._mask), np.count_nonzero(~mask & tracker._mask))
            )
        got = original(game, mask, within=within, tracker=tracker)
        if tracker is not None:
            assert np.array_equal(got, mtgames.game.pre(game, mask)), len(steps)
        return got

    monkeypatch.setattr(mtgames.fixpoint, "pre", checked)
    rounds = set()
    for seed in range(3):
        game, spec = gen_random_game(200, 4, [3, 1, 2, 1], 2.0, seed)
        steps.clear()
        result = _solve(algo, game, spec, warm)
        rounds.add(result.stats.outer_iterations)
        calls = len(steps)
        # Every Pre(Z) and Pre(Y) is tracked; the row-sliced ones are not.
        assert 0 < calls < result.stats.pre_count
        # Both the in-edge updates and the recounts of large changes ran.
        recount = mtgames.game._RECOUNT_SHARE * game.n
        assert any(0 < joined <= recount for joined, _ in steps)
        assert any(joined > recount for joined, _ in steps)
        assert any(left for _, left in steps)
    assert max(rounds) >= 5


def test_tracker_follows_sets_that_grow_and_shrink_at_once():
    from mtgames.benchgen import gen_random_game
    from mtgames.game import PreTracker

    game, _ = gen_random_game(300, 2, [1, 1], 3.0, 4)
    src, dst = game.edge_arrays
    rng = np.random.default_rng(0)
    for full in (False, True):
        tracker = PreTracker(game, full)
        mask = np.full(game.n, full)
        for share in (0.01, 0.05, 0.2, 0.6, 0.0, 0.1):
            mask = mask ^ (rng.random(game.n) < share)
            # Each state's count of successors in the mask, edge by edge.
            counts = np.bincount(src[mask[dst]], minlength=game.n)
            assert np.array_equal(tracker.counts(mask), counts)


def test_only_graphs_above_the_edge_constant_are_tracked(monkeypatch):
    import mtgames.game
    from mtgames.benchgen import gen_random_game

    calls = []
    counts = mtgames.game.PreTracker.counts

    def counted(self, mask):
        calls.append(None)
        return counts(self, mask)

    monkeypatch.setattr(mtgames.game.PreTracker, "counts", counted)
    game, spec = gen_random_game(200, 4, [3, 1, 2, 1], 2.0, 0)
    results = {}
    for constant, tracked in ((game.num_edges, False), (game.num_edges - 1, True)):
        monkeypatch.setattr(mtgames.game, "TRACKED_PRE_EDGES", constant)
        for algo in ("mt", "gr1emb"):
            calls.clear()
            result = _solve(algo, game, spec, warm=True)
            assert bool(calls) == tracked, (constant, algo)
            results.setdefault(algo, []).append(
                (result.stats.pre_count, result.stats.outer_iterations, result.winning)
            )
        # The predecessor CSR is built on the first tracked Pre only.
        assert ("_in_edges" in vars(game)) == tracked
    for algo, (below, above) in results.items():
        assert below == above, algo


# ---------------------------------------------------------------------------
# Inner chains on length-n masks narrowed to their undecided rows


def force_edge_bound(monkeypatch, on):
    """Treat every graph as one with many edges (``on``) or with few: its
    whole-graph Pre chains tracked and its inner chains on masks narrowed,
    or neither."""
    from mtgames.game import GameGraph

    monkeypatch.setattr(GameGraph, "edge_bound", property(lambda self: on))


def _outcome(result):
    traces = [
        (t.y_rank.tolist(), [x.tolist() for x in t.x_rank]) for t in result.trace or ()
    ]
    stats = result.stats
    return members(result.winning.bits), stats.pre_count, stats.outer_iterations, traces


@pytest.mark.parametrize("alternate_owners", [False, True])
@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("algo", ["mt", "gr1emb"])
def test_narrowed_chains_change_no_result(monkeypatch, algo, warm, alternate_owners):
    # The same winning set, work and trace ranks with every graph treated
    # as edge-bound and with none, on either inner path.
    import mtgames.game
    from mtgames.benchgen import gen_random_game
    from mtgames.solver import SolveOptions, solve_mt
    from mtgames.gr1 import solve_gr1_emb

    solve = solve_mt if algo == "mt" else solve_gr1_emb
    narrowed = []
    narrow = mtgames.game.GameGraph.narrow
    monkeypatch.setattr(
        mtgames.game.GameGraph,
        "narrow",
        lambda self, rows, keep: narrowed.append(None) or narrow(self, rows, keep),
    )
    for path, seed in itertools.product(sorted(PATHS), range(6)):
        force_path(monkeypatch, path)
        game, spec = gen_random_game(
            120, 3, [3, 1, 2], 2.0, seed, alternate_owners=alternate_owners
        )
        got = []
        for on in (False, True):
            force_edge_bound(monkeypatch, on)
            narrowed.clear()
            got.append(_outcome(solve(game, spec, SolveOptions(warm=warm, record=True))))
            assert bool(narrowed) == (on and path == "masks"), (path, seed, on)
        assert got[0] == got[1], (path, seed)


def _masks_chains(monkeypatch):
    """Log every inner chain on length-n masks: per chain, the states of
    U = P & X_0 & ~base, worked out from the whole-graph masks, the size of
    P & ~base, and the row slices its Pre calls carried. Pre calls outside
    any chain are logged as None."""
    import mtgames.fixpoint

    chains = []
    # The slices of the chain that is running, if any.
    running = [None]
    chain = mtgames.fixpoint._chain_on_masks
    original = mtgames.fixpoint.pre

    def logged_chain(engine, rows, base, new_y, start):
        undecided = np.zeros(base.size, dtype=bool)
        undecided[rows.rows] = True
        undecided &= ~base
        if start[1] is not None:
            undecided &= start[1]
        running[0] = []
        outside = np.count_nonzero(~base[rows.rows])
        chains.append((np.flatnonzero(undecided), outside, running[0]))
        try:
            return chain(engine, rows, base, new_y, start)
        finally:
            running[0] = None

    def logged_pre(game, mask, within=None, tracker=None):
        if running[0] is not None:
            running[0].append(within)
        else:
            chains.append(None)
        return original(game, mask, within=within, tracker=tracker)

    monkeypatch.setattr(mtgames.fixpoint, "_chain_on_masks", logged_chain)
    monkeypatch.setattr(mtgames.fixpoint, "pre", logged_pre)
    return chains


@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("algo", ["mt", "gr1emb"])
def test_masks_chains_read_only_their_undecided_rows(monkeypatch, algo, warm):
    from mtgames.benchgen import gen_random_game

    force_path(monkeypatch, "masks")
    force_edge_bound(monkeypatch, True)
    chains = _masks_chains(monkeypatch)
    decided = narrowed_by_seed = 0
    for seed in range(4):
        game, spec = gen_random_game(200, 4, [3, 1, 2, 1], 2.0, seed)
        src, dst = game.edge_arrays
        chains.clear()
        result = _solve(algo, game, spec, warm)
        outside_chains = chains.count(None)
        sliced = 0
        for undecided, outside, slices in filter(None, chains):
            assert slices
            for within in slices:
                # The rows of U alone, with their own successor lists.
                assert np.array_equal(within.rows, undecided)
                assert np.array_equal(within.indices, dst[np.isin(src, undecided)])
                assert np.array_equal(np.diff(within.indptr), np.bincount(src)[undecided])
            sliced += len(slices)
            if not undecided.size:
                # P inside base: no Pre of the chain reads an edge.
                decided += 1
                assert all(w.indptr[-1] == 0 for w in slices)
            narrowed_by_seed += undecided.size < outside
        # Every counted Pre is Pre(Y), Pre(Z) or one of a chain's.
        assert sliced > 0
        assert sliced + outside_chains == result.stats.pre_count
    assert decided > 0
    # Only a warm seed keeps rows of P & ~base out of U.
    assert (narrowed_by_seed > 0) == warm


@pytest.mark.parametrize("seeded", [False, True])
def test_warm_seed_narrows_the_undecided_rows(monkeypatch, seeded):
    # The graph of test_first_inner_step_stays_inside_the_seed: Player 0
    # states 0 -> 2, 1 -> 0 and 2 -> 2, P = {0, 1}, nothing to reach, so
    # base is empty. Cold, U is all of P; seeded with {0}, U is {0}, and
    # state 1, outside the seed, is never counted.
    force_path(monkeypatch, "masks")
    force_edge_bound(monkeypatch, True)
    chains = _masks_chains(monkeypatch)
    g = helpers.build_game(3, [0, 0, 0], [(0, 2), (1, 0), (2, 2)])
    persist = np.array([[True, True, False]])
    seeds = [np.array([True, False, False])] if seeded else None
    res = solve_persistence_reach(FixpointEngine(g), persist, np.zeros(3, bool), x_seeds=seeds)
    assert members(res.value) == set()
    want = [0] if seeded else [0, 1]
    undecided, _, slices = next(filter(None, chains))
    assert undecided.tolist() == want
    assert slices and all(w.rows.tolist() == want for w in slices)
    assert len(list(filter(None, chains))) == 1


# ---------------------------------------------------------------------------
# Pinned work: (pre_count, outer_iterations) of solve_mt cold, solve_mt warm,
# solve_gr1_emb cold and solve_gr1_emb warm. A speed-up that keeps the
# algorithm must leave every figure as it is.


def _pinned_instance(name):
    from mtgames.benchgen import (
        RobotWorld,
        gen_cleaning_robot,
        gen_multi_target_series,
        gen_random_game,
        scaled_rooms,
    )

    if name == "random-0":
        return gen_random_game(200, 4, [3, 1, 2, 1], 2.0, 0)
    if name == "random-1":
        return gen_random_game(200, 4, [3, 1, 2, 1], 2.0, 1)
    if name == "robot":
        return gen_cleaning_robot(RobotWorld(8, 8, scaled_rooms(8, 8, 2)))
    return gen_multi_target_series(300, 5, 2.0, 0, [4])[0]


PINNED_WORK = {
    "random-0": ((647, 6), (563, 6), (1150, 6), (871, 6)),
    "random-1": ((706, 7), (557, 7), (1211, 7), (910, 7)),
    "robot": ((209, 1), (209, 1), (289, 1), (289, 1)),
    "series": ((679, 6), (607, 6), (1719, 6), (1352, 6)),
}


@pytest.mark.parametrize("name", sorted(PINNED_WORK))
def test_work_counts_are_pinned(name):
    from mtgames.gr1 import solve_gr1_emb
    from mtgames.solver import SolveOptions, solve_mt

    game, spec = _pinned_instance(name)
    got = []
    for solve in (solve_mt, solve_gr1_emb):
        for warm in (False, True):
            stats = solve(game, spec, SolveOptions(warm=warm)).stats
            got.append((stats.pre_count, stats.outer_iterations))
    assert tuple(got) == PINNED_WORK[name]
