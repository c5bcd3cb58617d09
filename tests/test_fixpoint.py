"""Fixed-point engine: instrumentation, seed-robust gfp iteration,
the persistence-or-reach subroutine, and iterate-trace recording."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

import numpy as np
import pytest

import helpers
from helpers import members
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
    """The (len(sets) x n) persistence block of some masks."""
    return np.array(sets, dtype=bool).reshape(len(sets), n)


def subset(a, b):
    """Mask ``a`` is a subset of mask ``b``."""
    return not (a & ~b).any()


def padded_seeds(g, persist, steps, seed):
    """Per-step seeds on the sets' rows: ``steps`` (a run's x_steps), each
    with random rows added; any superset of a step's inner fixed points is
    a valid seed for that step."""
    return [
        [
            x | helpers.random_subset(seed + 900 + 7 * l + j, g.n)[p]
            for j, (x, p) in enumerate(zip(row, persist))
        ]
        for l, row in enumerate(steps)
    ]


# ---------------------------------------------------------------------------
# Engine instrumentation


def test_pre_counter_increments(g2_game):
    engine = FixpointEngine(g2_game)
    assert engine.stats.pre_count == 0
    engine.pre(np.ones(2, dtype=bool))
    engine.pre(np.zeros(2, dtype=bool))
    assert engine.stats.pre_count == 2


@pytest.mark.parametrize(
    "mask, what",
    [
        pytest.param(StateSet(np.array([False, True])), "StateSet", id="state-set"),
        pytest.param(np.array([0, 1]), "an array of int64", id="int64-mask"),
        pytest.param(np.array([0, 1], dtype=np.int32), "an array of int32", id="int32-mask"),
        pytest.param([False, True], "list", id="list"),
    ],
)
def test_pre_refuses_anything_but_a_boolean_mask(g2_game, mask, what):
    # The int32 form is taken only with a row slice.
    engine = FixpointEngine(g2_game)
    with pytest.raises(ValueError, match=f"Pre takes a boolean mask of the states, not {what}$"):
        engine.pre(mask)


# ---------------------------------------------------------------------------
# gfp


def test_gfp_stay_frozen_examples(g1_game, g2_game):
    e1 = FixpointEngine(g1_game)
    assert members(e1.gfp(stay_op(e1, np.array([False, True])))) == {1}
    e2 = FixpointEngine(g2_game)
    assert members(e2.gfp(stay_op(e2, np.array([False, True])))) == set()


def test_gfp_seed_independence():
    for seed in range(15):
        g = helpers.random_graph(seed)
        region = helpers.random_subset(seed + 500, g.n)
        engine = FixpointEngine(g)
        cold = engine.gfp(stay_op(engine, region))
        # Any superset of the greatest fixed point is a legal seed.
        cover = cold | helpers.random_subset(seed + 900, g.n)
        warm = engine.gfp(stay_op(engine, region), seed=cover)
        assert np.array_equal(warm, cold)


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
            x_seeds=[[np.ones(3, dtype=bool)]],
        )
    # A seed is given on its set's rows: two rows here, at every step.
    with pytest.raises(ValueError):
        solve_persistence_reach(
            engine,
            np.array([[True, False]]),
            np.zeros(2, bool),
            x_seeds=[[np.ones(1, dtype=bool)], [np.ones(2, dtype=bool)]],
        )


def test_persistence_rejects_a_seed_count_other_than_the_set_count(g2_game):
    engine = FixpointEngine(g2_game)
    persist = np.ones((2, 2), dtype=bool)
    good = [np.ones(2, dtype=bool)] * 2
    for count in (1, 3):
        # At the first step or at a later one.
        wrong = [np.ones(2, dtype=bool)] * count
        for steps in ([wrong], [good, wrong]):
            with pytest.raises(ValueError, match="seeds for 2 persistence sets"):
                solve_persistence_reach(engine, persist, np.zeros(2, bool), x_seeds=steps)
    with pytest.raises(ValueError, match="no seed step"):
        solve_persistence_reach(engine, persist, np.zeros(2, bool), x_seeds=[])


def test_persistence_rejects_seeds_that_are_not_boolean():
    # An integer seed would index its set's rows by value: fed as 0/1
    # integers, the run's own x_steps gave every state losing.
    g = helpers.build_game(4, [0] * 4, [(0, 1), (1, 2), (2, 3), (3, 3)])
    persist, reach = np.array([[False, True, True, True]]), np.zeros(4, bool)
    cold = solve_persistence_reach(FixpointEngine(g), persist, reach)
    assert cold.value.all()
    as_ints = [[x.astype(np.int64) for x in row] for row in cold.x_steps]
    with pytest.raises(ValueError, match="a seed must be a boolean mask"):
        solve_persistence_reach(FixpointEngine(g), persist, reach, x_seeds=as_ints)
    warm = solve_persistence_reach(FixpointEngine(g), persist, reach, x_seeds=cold.x_steps)
    assert warm.value.all()


def test_persistence_frozen_g2(g2_game):
    engine = FixpointEngine(g2_game)
    res = solve_persistence_reach(engine, block(2, [False, True]), np.zeros(2, bool))
    assert members(res.value) == set()


def test_persistence_without_sets_is_attractor():
    for seed in range(15):
        g = helpers.random_graph(seed)
        goal = helpers.random_subset(seed + 500, g.n)
        engine = FixpointEngine(g)
        res = solve_persistence_reach(engine, block(g.n), goal)
        assert members(res.value) == helpers.naive_attractor(g, members(goal)), f"seed {seed}"


def test_persistence_value_contains_reach_and_stay_regions():
    for seed in range(15):
        g = helpers.random_graph(seed)
        engine = FixpointEngine(g)
        p = helpers.random_subset(seed + 11, g.n)
        reach = helpers.random_subset(seed + 22, g.n)
        res = solve_persistence_reach(engine, block(g.n, p), reach)
        assert subset(reach, res.value)
        stay = engine.gfp(stay_op(engine, p))
        assert subset(stay, res.value)
        # The last step's inner fixed point, on P's rows.
        assert subset(res.x_steps[-1][0], res.value[p])


def test_persistence_warm_seeds_reproduce_value():
    for seed in range(15):
        g = helpers.random_graph(seed)
        engine = FixpointEngine(g)
        p = helpers.random_subset(seed + 11, g.n)
        q = helpers.random_subset(seed + 33, g.n)
        reach = helpers.random_subset(seed + 22, g.n)
        persist = block(g.n, p, q)
        cold = solve_persistence_reach(engine, persist, reach)
        before = engine.stats.pre_count
        warm = solve_persistence_reach(engine, persist, reach, x_seeds=cold.x_steps)
        warm_cost = engine.stats.pre_count - before
        assert np.array_equal(warm.value, cold.value)
        assert warm_cost <= before
        # Seeded with its own inner fixed points, a chain settles at once:
        # one Pre per chain and one per Pre(Y).
        assert warm_cost == (len(cold.bases) + 1) * 3


def force_edge_bound(monkeypatch, on):
    """Treat every graph as one with many edges (``on``) or with few: its
    whole-graph Pre chains tracked and its inner chains run on the rows
    they have left to decide, or neither, and its inner chains run on
    length-n masks."""
    from mtgames.game import GameGraph

    monkeypatch.setattr(GameGraph, "edge_bound", property(lambda self: on))


# The edge_bound gate alone picks the path of every inner chain: length-n
# masks below it, the rows left to decide above it. A test run on either
# path forces the gate.
BOTH_PATHS = pytest.mark.parametrize("edge_bound", [False, True], ids=["masks", "rows"])


def rows_of(engine, persist):
    return [s.rows for s in engine.row_slices(persist)]


@BOTH_PATHS
@pytest.mark.parametrize("warm", [False, True])
def test_persistence_reach_matches_the_plain_loop(monkeypatch, warm, edge_bound):
    force_edge_bound(monkeypatch, edge_bound)
    for seed in range(15):
        g = helpers.random_graph(seed)
        p = helpers.random_subset(seed + 11, g.n)
        q = helpers.random_subset(seed + 33, g.n)
        reach = helpers.random_subset(seed + 22, g.n)
        persist = block(g.n, p, q)
        seeds = None
        if warm:
            cold = solve_persistence_reach(FixpointEngine(g), persist, reach)
            seeds = padded_seeds(g, persist, cold.x_steps, seed)
        engine = FixpointEngine(g)
        res = solve_persistence_reach(engine, persist, reach, x_seeds=seeds)
        value, last_x, _, bases, xs, calls = helpers.persistence_reach_iterates(
            g, persist, reach, seeds
        )
        assert np.array_equal(res.value, value), seed
        assert all(map(np.array_equal, res.x_steps[-1], helpers.seeds_on_rows(persist, [last_x])[0]))
        assert engine.stats.pre_count == calls, seed
        # Every step's base and inner fixed points are the plain loop's.
        assert all(map(np.array_equal, res.bases, bases)), seed
        for row, ref_row in zip(res.x_steps[:-1], helpers.seeds_on_rows(persist, xs), strict=True):
            assert all(map(np.array_equal, row, ref_row)), seed


@BOTH_PATHS
def test_first_inner_step_stays_inside_the_seed(monkeypatch, edge_bound):
    # Player 0 states 0 -> 2, 1 -> 0 and 2 -> 2, P = {0, 1}, nothing to
    # reach: the inner fixed point is empty, so the seed {0} is valid. Pre of
    # the seed inside P is {1}, of the seed's size but outside it; the first
    # step is {1} & {0}, empty, and not {1}. On length-n masks and on U's
    # rows.
    force_edge_bound(monkeypatch, edge_bound)
    g = helpers.build_game(3, [0, 0, 0], [(0, 2), (1, 0), (2, 2)])
    persist = np.array([[True, True, False]])
    seeds = [[np.array([True, False])]]
    engine = FixpointEngine(g)
    res = solve_persistence_reach(engine, persist, np.zeros(3, bool), x_seeds=seeds)
    assert members(res.value) == set() and members(res.x_steps[-1][0]) == set()
    assert engine.stats.pre_count == 3


def test_recorded_iterates_form_increasing_chain(monkeypatch):
    for edge_bound, seed in itertools.product((False, True), range(15)):
        force_edge_bound(monkeypatch, edge_bound)
        g = helpers.random_graph(seed)
        engine = FixpointEngine(g)
        p = helpers.random_subset(seed + 11, g.n)
        q = helpers.random_subset(seed + 33, g.n)
        reach = helpers.random_subset(seed + 22, g.n)
        persist = block(g.n, p, q)
        res = solve_persistence_reach(engine, persist, reach)
        ys, xs = helpers.full_iterates(g.n, rows_of(engine, persist), res.bases, res.x_steps[:-1])
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
            g, persist, reach
        )
        assert len(ys) == len(ref_ys) and len(res.bases) == len(ref_bases)
        assert all(np.array_equal(a, b) for a, b in zip(ys, ref_ys))
        assert all(np.array_equal(a, b) for a, b in zip(res.bases, ref_bases))
        for row, ref_row in zip(xs, ref_xs, strict=True):
            assert all(np.array_equal(a, b) for a, b in zip(row, ref_row, strict=True))


def test_mode_trace_ranks_reconstruct_iterates(monkeypatch):
    # With two sets they overlap, and a state's y rank may come from either.
    for edge_bound, sets, seed in itertools.product((False, True), (1, 2), range(15)):
        force_edge_bound(monkeypatch, edge_bound)
        g = helpers.random_graph(seed)
        engine = FixpointEngine(g)
        p = helpers.random_subset(seed + 11, g.n)
        q = helpers.random_subset(seed + 33, g.n)
        reach = helpers.random_subset(seed + 22, g.n)
        persist = block(g.n, *(p, q)[:sets])
        res = solve_persistence_reach(engine, persist, reach)
        tr = ModeTrace.from_iterates(g.n, rows_of(engine, persist), res.bases, res.x_steps[:-1])
        assert len(tr.x_rank) == sets
        _, _, ys, _, xs, _ = helpers.persistence_reach_iterates(g, persist, reach)
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
    for edge_bound in (False, True):
        force_edge_bound(monkeypatch, edge_bound)
        engine = FixpointEngine(g)
        res = solve_persistence_reach(engine, persist, np.zeros(2, bool))
        assert len(res.bases) == 0 and len(res.x_steps[:-1]) == 0
        tr = ModeTrace.from_iterates(g.n, rows_of(engine, persist), res.bases, res.x_steps[:-1])
        assert not (tr.y_rank >= 1).any()
        assert not (tr.x_rank[0] >= 0).any()
        assert len(tr.x_rank) == 1
        assert helpers.same_trace(tr, oracle)


@BOTH_PATHS
@pytest.mark.parametrize("warm", [False, True])
def test_both_inner_paths_give_their_sets_rows(monkeypatch, warm, edge_bound):
    # An empty set, the full set and random ones: on either path, seeded or
    # not, every inner fixed point comes back as X & P_j on P_j's rows, and
    # the last step's and the trace built from them are the plain loop's.
    force_edge_bound(monkeypatch, edge_bound)
    for seed in range(10):
        g = helpers.random_graph(seed)
        sets = [np.zeros(g.n, dtype=bool), np.ones(g.n, dtype=bool)]
        sets += [helpers.random_subset(seed + 11 * k, g.n) for k in (1, 3)]
        persist = block(g.n, *sets)
        reach = helpers.random_subset(seed + 22, g.n)
        seeds = None
        if warm:
            cold = solve_persistence_reach(FixpointEngine(g), persist, reach)
            seeds = padded_seeds(g, persist, cold.x_steps, seed)
        engine = FixpointEngine(g)
        res = solve_persistence_reach(engine, persist, reach, x_seeds=seeds)
        rows = rows_of(engine, persist)
        sizes = [r.size for r in rows]
        assert sizes[:2] == [0, g.n]
        assert all([x.size for x in row] == sizes for row in res.x_steps), seed
        _, last_x, ys, _, xs, _ = helpers.persistence_reach_iterates(g, persist, reach, seeds)
        assert all(map(np.array_equal, res.x_steps[-1], helpers.seeds_on_rows(persist, [last_x])[0]))
        tr = ModeTrace.from_iterates(g.n, rows, res.bases, res.x_steps[:-1])
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
            # Warm seeds: each step's inner fixed points of a run with more
            # to reach.
            seeds = None
            if warm:
                _, last, _, _, more, _ = helpers.persistence_reach_iterates(
                    game, block_i, exits[i]
                )
                seeds = helpers.seeds_on_rows(block_i, [*more, last])
            reach = exits[i] & helpers.random_subset(seed + 70 + i, game.n)
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
    out1 = solve_stable_conjunction(g1_game, p1, e1, warm=False)
    assert members(out1.winning) == {0, 1}
    assert out1.stats.outer_iterations >= 1
    assert out1.stats.pre_count > 0
    assert out1.stats.wall_time_s >= 0.0

    p2, e2 = _bound_parts(g2_game, one_mode_spec)
    out2 = solve_stable_conjunction(g2_game, p2, e2, warm=False)
    assert members(out2.winning) == set()


def test_driver_records_one_trace_per_conjunct(g1_game, one_mode_spec):
    p, e = _bound_parts(g1_game, one_mode_spec)
    out = solve_stable_conjunction(g1_game, p, e, warm=False, record=True)
    assert out.traces is not None and len(out.traces) == 1
    assert len(out.traces[0].x_rank) == 1
    no_rec = solve_stable_conjunction(g1_game, p, e, warm=False, record=False)
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
        out = solve_stable_conjunction(game, persist, exits, warm=False, record=True)
        for tr in out.traces:
            assert np.array_equal(tr.y_rank >= 1, out.winning)


@pytest.mark.parametrize("warm", [False, True])
def test_traces_are_built_only_in_rounds_that_leave_z_unchanged(monkeypatch, warm):
    from mtgames.benchgen import gen_random_game

    built = []
    original = ModeTrace.from_iterates

    def counted(n, rows, bases, x_steps):
        built.append(len(rows))
        tr = original(n, rows, bases, x_steps)
        assert helpers.same_trace(tr, helpers.recorded_trace_oracle(n, rows, bases, x_steps))
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

    for edge_bound, seed in itertools.product((False, True), range(6)):
        force_edge_bound(monkeypatch, edge_bound)
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
    # Every chain on its rows left to decide, then on length-n masks: the
    # same value and inner fixed points from every persistence-or-reach run,
    # the same work and winning set, and traces equal to the oracle's.
    import mtgames.fixpoint
    from mtgames.benchgen import gen_random_game

    runs = []
    original = mtgames.fixpoint.solve_persistence_reach

    def kept(*args, **kwargs):
        res = original(*args, **kwargs)
        runs.append((res.value, res.x_steps))
        return res

    monkeypatch.setattr(mtgames.fixpoint, "solve_persistence_reach", kept)
    # Whether each chain on rows is cold.
    on_rows = []
    chain = mtgames.fixpoint._chain_on_rows

    def logged(engine, u, x_int, base_size, cold):
        on_rows.append(cold)
        return chain(engine, u, x_int, base_size, cold)

    monkeypatch.setattr(mtgames.fixpoint, "_chain_on_rows", logged)
    rounds = set()
    for seed in range(4):
        game, spec = gen_random_game(80, 4, [3, 1, 2, 1], 2.0, seed)
        got = {}
        for path in ("rows", "masks"):
            force_edge_bound(monkeypatch, path == "rows")
            runs.clear()
            on_rows.clear()
            result = _solve(algo, game, spec, warm)
            rounds.add(result.stats.outer_iterations)
            # Above the gate every chain runs on rows, cold ones included;
            # below it none does.
            assert any(on_rows) if path == "rows" else not on_rows
            got[path] = (result, list(runs))
        (rows, rows_runs), (masks, masks_runs) = got["rows"], got["masks"]
        assert rows.stats.pre_count == masks.stats.pre_count, seed
        assert rows.stats.outer_iterations == masks.stats.outer_iterations, seed
        assert rows.winning == masks.winning, seed
        assert len(rows_runs) == len(masks_runs) > 0
        for (value, steps), (value_m, steps_m) in zip(rows_runs, masks_runs):
            assert np.array_equal(value, value_m), seed
            assert len(steps) == len(steps_m), seed
            for row, row_m in zip(steps, steps_m):
                assert all(map(np.array_equal, row, row_m)), seed
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
        cold = solve_stable_conjunction(game, persist, exits, warm=False)
        warm = solve_stable_conjunction(game, persist, exits, warm=True)
        assert np.array_equal(warm.winning, cold.winning)


def test_driver_pre_count_deterministic(g1_game, one_mode_spec):
    p, e = _bound_parts(g1_game, one_mode_spec)
    a = solve_stable_conjunction(g1_game, p, e, warm=False)
    b = solve_stable_conjunction(g1_game, p, e, warm=False)
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

    calls = _counting_pre(monkeypatch)
    for seed in range(4):
        game, spec = gen_random_game(40, 3, [3, 1, 2], 2.0, seed)
        calls.clear()
        result = _solve("gr1", game, spec, warm)
        assert result.stats.pre_count > 0
        assert len(calls) == result.stats.pre_count, seed


@pytest.mark.parametrize("algo", ["mt", "gr1emb", "gr1"])
def test_inner_pre_calls_carry_a_row_slice(monkeypatch, algo):
    from mtgames.benchgen import gen_random_game

    calls = _counting_pre(monkeypatch)
    game, spec = gen_random_game(40, 3, [3, 1, 2], 2.0, 0)
    result = _solve(algo, game, spec, warm=False)
    assert len(calls) == result.stats.pre_count
    sliced = sum(_carries_slice(c) for c in calls)
    # Pre(Z) and every Pre(Y) stay on the full graph.
    assert 0 < sliced < len(calls)


@pytest.mark.parametrize("warm", [False, True])
@BOTH_PATHS
@pytest.mark.parametrize("algo", ["mt", "gr1emb"])
def test_first_steps_of_cold_chains_make_no_kernel_call(monkeypatch, algo, edge_bound, warm):
    # Each μY chain opens with Pre of no state, and each cold νX chain with
    # Pre of every state; both are counted but read from the graph alone.
    import mtgames.fixpoint
    import mtgames.game
    from mtgames.benchgen import gen_random_game

    force_edge_bound(monkeypatch, edge_bound)
    kernel_calls = []
    kernel = mtgames.game.csr_matvec
    monkeypatch.setattr(
        mtgames.game, "csr_matvec", lambda *a: kernel_calls.append(None) or kernel(*a)
    )
    # Per counted Pre: its set, whether it was tracked, and its kernel calls.
    calls = []
    original = mtgames.fixpoint.pre

    def counted(game, mask, within=None, tracker=None):
        before = len(kernel_calls)
        got = original(game, mask, within=within, tracker=tracker)
        calls.append((mask, tracker is not None, len(kernel_calls) - before))
        return got

    monkeypatch.setattr(mtgames.fixpoint, "pre", counted)
    chains = []
    solve_reach = mtgames.fixpoint.solve_persistence_reach

    def counted_chains(*args, **kwargs):
        chains.append(None)
        return solve_reach(*args, **kwargs)

    monkeypatch.setattr(mtgames.fixpoint, "solve_persistence_reach", counted_chains)
    for seed in range(3):
        game, spec = gen_random_game(200, 4, [3, 1, 2, 1], 2.0, seed)
        calls.clear()
        chains.clear()
        result = _solve(algo, game, spec, warm)
        assert len(calls) == result.stats.pre_count
        every = [k for m, _, k in calls if m is game.every_state]
        empty = [k for m, _, k in calls if m is game.no_state]
        assert len(empty) == len(chains) and every, seed
        assert not any(every + empty), seed
        # Pre(Y) and Pre(Z) are tracked above the gate; every other Pre is
        # one kernel call.
        shared = (game.every_state, game.no_state)
        others = [(t, k) for m, t, k in calls if not any(m is x for x in shared)]
        assert any(t for t, _ in others) == edge_bound, seed
        assert all(k == 1 for t, k in others if not t), seed


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
    """Solve the instance by the direct solver ("mt") or the embedding
    ("gr1emb"), or ("gr1") solve on its graph a GR(1) objective that no
    embedding makes: three assumption complements and four guarantees
    drawn at random, so that they overlap one another."""
    from mtgames.gr1 import solve_gr1_emb
    from mtgames.solver import SolveOptions, solve_mt

    if algo == "gr1":
        rng = np.random.default_rng(game.num_edges)
        avoid = rng.random((3, game.n)) < 0.2
        res = solve_stable_conjunction(game, [avoid] * 4, rng.random((4, game.n)) < 0.3, warm=warm)
        # The winning set as the solvers hand it out.
        return replace(res, winning=StateSet(res.winning))
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
# The edge_bound gate routes every inner chain


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
    # as edge-bound, every chain narrowed to the rows it has left to
    # decide, and with none, every chain on length-n masks.
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
    for seed in range(6):
        game, spec = gen_random_game(
            120, 3, [3, 1, 2], 2.0, seed, alternate_owners=alternate_owners
        )
        got = []
        for on in (False, True):
            force_edge_bound(monkeypatch, on)
            narrowed.clear()
            got.append(_outcome(solve(game, spec, SolveOptions(warm=warm, record=True))))
            assert bool(narrowed) == on, (seed, on)
        assert got[0] == got[1], seed


@pytest.mark.parametrize("seeded", [False, True])
def test_warm_seed_narrows_the_undecided_rows(monkeypatch, seeded):
    # The graph of test_first_inner_step_stays_inside_the_seed: Player 0
    # states 0 -> 2, 1 -> 0 and 2 -> 2, P = {0, 1}, nothing to reach, so
    # base is empty. Cold, U is all of P; seeded with {0}, U is {0}, and
    # state 1, outside the seed, is never counted. Above the gate either
    # chain runs on U's rows.
    force_edge_bound(monkeypatch, True)
    calls = _counting_pre(monkeypatch)
    g = helpers.build_game(3, [0, 0, 0], [(0, 2), (1, 0), (2, 2)])
    persist = np.array([[True, True, False]])
    seeds = [[np.array([True, False])]] if seeded else None
    res = solve_persistence_reach(FixpointEngine(g), persist, np.zeros(3, bool), x_seeds=seeds)
    assert members(res.value) == set()
    want = [0] if seeded else [0, 1]
    slices = [kwargs["within"] for _, kwargs in calls if kwargs["within"] is not None]
    assert slices and all(w.rows.tolist() == want for w in slices)
    # One Y-step, so one chain besides Pre(Y).
    assert sum(kwargs["within"] is None for _, kwargs in calls) == 1


@dataclass
class _Run:
    """One ``solve_persistence_reach`` run: its arguments (``seeds`` is None
    for a cold run), per inner chain the name of the function that ran it
    and the row slices its Pre calls carried, and the count of its Pre
    calls outside a chain."""

    game: object
    block: np.ndarray
    reach: np.ndarray
    seeds: list | None
    chains: list = field(default_factory=list)
    others: int = 0


def _runs(monkeypatch):
    """Log every ``solve_persistence_reach`` run as a _Run."""
    import mtgames.fixpoint

    runs = []
    # The run and the chain that are going on, if any.
    run, chain_slices = [None], [None]
    solve_reach = mtgames.fixpoint.solve_persistence_reach
    original = mtgames.fixpoint.pre

    def logged_reach(engine, persist, reach, *, x_seeds=None):
        run[0] = _Run(engine.game, persist, reach, x_seeds)
        runs.append(run[0])
        try:
            return solve_reach(engine, persist, reach, x_seeds=x_seeds)
        finally:
            run[0] = None

    def logged(name):
        chain = getattr(mtgames.fixpoint, name)

        def logged_chain(*args, **kwargs):
            chain_slices[0] = []
            run[0].chains.append((name, chain_slices[0]))
            try:
                return chain(*args, **kwargs)
            finally:
                chain_slices[0] = None

        monkeypatch.setattr(mtgames.fixpoint, name, logged_chain)

    def logged_pre(game, mask, within=None, tracker=None):
        if chain_slices[0] is not None:
            chain_slices[0].append(within)
        elif run[0] is not None:
            run[0].others += 1
        return original(game, mask, within=within, tracker=tracker)

    monkeypatch.setattr(mtgames.fixpoint, "solve_persistence_reach", logged_reach)
    logged("_chain_on_rows")
    logged("_chain_on_masks")
    monkeypatch.setattr(mtgames.fixpoint, "pre", logged_pre)
    return runs


@pytest.mark.parametrize("algo", ["mt", "gr1emb", "gr1"])
def test_the_gate_alone_routes_every_chain(monkeypatch, algo):
    # Below the edge_bound gate every chain, cold or seeded, runs on
    # length-n masks and nothing is narrowed; above it every chain runs on
    # the rows of U, cut by one GameGraph.narrow each.
    import mtgames.game
    from mtgames.benchgen import gen_random_game

    runs = _runs(monkeypatch)
    narrowed = []
    narrow = mtgames.game.GameGraph.narrow
    monkeypatch.setattr(
        mtgames.game.GameGraph,
        "narrow",
        lambda self, rows, keep: narrowed.append(None) or narrow(self, rows, keep),
    )
    for on, warm, seed in itertools.product((False, True), (False, True), range(2)):
        force_edge_bound(monkeypatch, on)
        # Sets of 1 to 3 targets: small sets as well as large ones.
        game, spec = gen_random_game(200, 4, [3, 1, 2, 1], 2.0, seed)
        runs.clear()
        narrowed.clear()
        _solve(algo, game, spec, warm)
        chains = [name for run in runs for name, _ in run.chains]
        assert chains, (on, warm, seed)
        assert set(chains) == {"_chain_on_rows" if on else "_chain_on_masks"}, (on, warm)
        assert len(narrowed) == (len(chains) if on else 0), (on, warm, seed)
        # Warm, the first round's chains are cold and the later ones seeded.
        seeded = {run.seeds is not None for run in runs if run.chains}
        assert seeded == ({False, True} if warm else {False}), (on, warm, seed)


@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("algo", ["mt", "gr1emb"])
def test_masks_chains_read_only_their_undecided_rows(monkeypatch, algo, warm):
    # The name dates from when cold chains were narrowed on length-n masks;
    # above the gate they now run on rows. Each chain is checked against
    # its own arguments: P's rows, as given to GameGraph.narrow, and base,
    # as x_int. U = X_0 & P & ~base is all of P & ~base for a cold chain and
    # can be less for a seeded one. Every Pre of the chain carries U's rows
    # alone, with their own successor lists, and every counted Pre of a
    # solve is Pre(Y), Pre(Z) or a chain's.
    import mtgames.fixpoint
    import mtgames.game
    from mtgames.benchgen import gen_random_game

    force_edge_bound(monkeypatch, True)
    # Per chain (U's rows, P & ~base, its Pre slices); None per Pre outside.
    chains, running, narrowed_p = [], [None], [None]
    chain, pre, narrow = (
        mtgames.fixpoint._chain_on_rows,
        mtgames.fixpoint.pre,
        mtgames.game.GameGraph.narrow,
    )

    def logged_narrow(self, rows, at):
        narrowed_p[0] = rows.rows
        return narrow(self, rows, at)

    def logged_chain(engine, u, x_int, base_size, cold):
        assert base_size == np.count_nonzero(x_int)
        p = narrowed_p[0]
        running[0] = []
        chains.append((u.rows.copy(), p[x_int[p] == 0], running[0]))
        try:
            return chain(engine, u, x_int, base_size, cold)
        finally:
            running[0] = None

    def logged_pre(game, mask, within=None, tracker=None):
        if running[0] is not None:
            running[0].append(within)
        else:
            chains.append(None)
        return pre(game, mask, within=within, tracker=tracker)

    monkeypatch.setattr(mtgames.game.GameGraph, "narrow", logged_narrow)
    monkeypatch.setattr(mtgames.fixpoint, "_chain_on_rows", logged_chain)
    monkeypatch.setattr(mtgames.fixpoint, "pre", logged_pre)
    decided = narrowed_by_seed = 0
    rounds = set()
    for seed in range(4):
        game, spec = gen_random_game(200, 4, [3, 1, 2, 1], 2.0, seed)
        src, dst = game.edge_arrays
        chains.clear()
        result = _solve(algo, game, spec, warm)
        outside_chains = chains.count(None)
        sliced = 0
        for undecided, outside, slices in filter(None, chains):
            assert np.isin(undecided, outside).all()
            assert slices
            for within in slices:
                assert np.array_equal(within.rows, undecided)
                assert np.array_equal(within.indices, dst[np.isin(src, undecided)])
                assert np.array_equal(np.diff(within.indptr), np.bincount(src)[undecided])
            sliced += len(slices)
            if not undecided.size:
                # P inside base: no Pre of the chain reads an edge.
                decided += 1
                assert all(w.indptr[-1] == 0 for w in slices)
            narrowed_by_seed += undecided.size < outside.size
        assert sliced > 0
        assert sliced + outside_chains == result.stats.pre_count
        rounds.add(result.stats.outer_iterations)
    assert decided > 0
    # Only a seed keeps rows of P & ~base out of U.
    assert (narrowed_by_seed > 0) == warm
    assert max(rounds) > 1


@pytest.mark.parametrize("edge_bound", [False, True])
@pytest.mark.parametrize("algo", ["mt", "gr1emb"])
def test_seeded_chains_read_only_their_undecided_rows(monkeypatch, algo, edge_bound):
    # Each chain, at Y-step l for set P_j, has U = X_0 & P_j & ~base_l left
    # to decide, with base_l worked out by the plain loop. X_0 is every
    # state for a cold chain, and base_l | seed for a seeded one, with seed
    # the step's seed on P_j's rows. With the gate on, every Pre of the
    # chain, cold or seeded, carries exactly U's rows, with their own
    # successor lists; with it off, P's rows. Every Pre of the run is Pre(Y)
    # or a chain's.
    from mtgames.benchgen import gen_random_game

    force_edge_bound(monkeypatch, edge_bound)
    runs = _runs(monkeypatch)
    narrowed = decided = 0
    # Chains seen, cold and seeded.
    seen = {False: 0, True: 0}
    for seed in range(3):
        game, spec = gen_random_game(200, 4, [3, 1, 2, 1], 2.0, seed)
        src, dst = game.edge_arrays
        degree = np.bincount(src, minlength=game.n)
        runs.clear()
        _solve(algo, game, spec, warm=True)
        for run in runs:
            persist, seeds = run.block, run.seeds
            value, _, _, bases, _, calls = helpers.persistence_reach_iterates(
                game, persist, run.reach, seeds
            )
            bases.append(helpers.pre_where(game, value) | run.reach)
            assert run.others == len(bases)
            assert run.others + sum(len(slices) for _, slices in run.chains) == calls
            assert len(run.chains) == len(bases) * len(persist)
            for k, (_, slices) in enumerate(run.chains):
                l, j = divmod(k, len(persist))
                p = persist[j]
                undecided = ~bases[l][p]
                if seeds is not None:
                    undecided &= seeds[min(l, len(seeds) - 1)][j]
                    # A seed keeps rows of P & ~base out of U.
                    narrowed += np.count_nonzero(undecided) < np.count_nonzero(~bases[l][p])
                want = np.flatnonzero(p)[undecided] if edge_bound else np.flatnonzero(p)
                assert slices
                for within in slices:
                    assert np.array_equal(within.rows, want)
                    assert np.array_equal(within.indices, dst[np.isin(src, want)])
                    assert np.array_equal(np.diff(within.indptr), degree[want])
                if not want.size:
                    # Nothing to decide: no Pre of the chain reads an edge.
                    decided += 1
                    assert all(w.indptr[-1] == 0 for w in slices)
                seen[seeds is not None] += 1
    assert all(seen.values()) and narrowed
    assert decided or not edge_bound


@pytest.mark.parametrize("algo", ["mt", "gr1emb", "gr1"])
def test_each_step_seed_holds_that_steps_fixed_point(monkeypatch, algo):
    # A warm run's seed for Y-step l (the last one past its end) holds the
    # inner fixed point X_l & P_j of that run, as the plain loop computes
    # it from every state; the seeded run's steps are the plain loop's.
    from mtgames.benchgen import gen_random_game

    runs = _runs(monkeypatch)
    steps = set()
    for seed in range(4):
        game, spec = gen_random_game(120, 4, [3, 1, 2, 1], 2.0, seed)
        runs.clear()
        _solve(algo, game, spec, warm=True)
        for run in (run for run in runs if run.seeds is not None):
            _, last, _, _, xs, _ = helpers.persistence_reach_iterates(game, run.block, run.reach)
            fixed = helpers.seeds_on_rows(run.block, [*xs, last])
            steps.add(len(fixed))
            for l, row in enumerate(fixed):
                for seed_row, x in zip(run.seeds[min(l, len(run.seeds) - 1)], row, strict=True):
                    assert subset(x, seed_row), (seed, l)
    assert max(steps) >= 3


@pytest.mark.parametrize("algo", ["mt", "gr1emb"])
def test_warm_never_costs_more_than_cold(algo):
    # Every seed lies inside every state, so each seeded chain settles no
    # later than its cold one, and the Y and Z chains are the same.
    from mtgames.benchgen import gen_random_game

    saved = 0
    for seed in range(40):
        n = 30 + 7 * seed
        game, spec = gen_random_game(n, 3, [1 + seed % 3, 2, 1], 1.5 + seed % 3 * 0.5, seed)
        cold = _solve(algo, game, spec, warm=False)
        warm = _solve(algo, game, spec, warm=True)
        assert warm.winning == cold.winning, seed
        assert warm.stats.outer_iterations == cold.stats.outer_iterations, seed
        assert warm.stats.pre_count <= cold.stats.pre_count, seed
        saved += cold.stats.pre_count - warm.stats.pre_count
    assert saved > 0


# ---------------------------------------------------------------------------
# The O(Σt·n²) bound on the witness family (benchgen.gen_fixpoint_witness),
# whose k + 1 outer rounds each run a Y chain of k + 2 steps


def _witness_work(k, algo, warm):
    """A witness solve and its pre_count over Σt·n²."""
    from mtgames.benchgen import gen_fixpoint_witness

    game, spec = gen_fixpoint_witness(k)
    result = _solve(algo, game, spec, warm)
    return result, result.stats.pre_count / (spec.sum_targets * game.n**2)


@pytest.mark.parametrize("algo", ["mt", "gr1emb"])
def test_witness_warm_solves_meet_the_quadratic_bound(algo):
    # Seeded per Y-step, each inner chain re-decides only the states its
    # step lost since the last round.
    for k in (20, 40, 80):
        result, ratio = _witness_work(k, algo, warm=True)
        assert result.stats.outer_iterations == k + 1
        assert ratio <= 0.1, (k, ratio)


def test_witness_agrees_with_the_reference_and_warm_with_cold():
    from mtgames.benchgen import gen_fixpoint_witness
    from mtgames.solver import solve_mt_reference

    game, spec = gen_fixpoint_witness(10)
    want = solve_mt_reference(game, spec)
    assert len(want) == 22
    for algo in ("mt", "gr1emb"):
        (cold, _), (warm, _) = (_witness_work(10, algo, w) for w in (False, True))
        assert helpers.frozen(cold.winning) == helpers.frozen(warm.winning) == want
        assert warm.stats.outer_iterations == cold.stats.outer_iterations
        assert warm.stats.pre_count < cold.stats.pre_count
        assert _outcome(warm)[3] == _outcome(cold)[3]


def test_witness_cold_work_outgrows_the_quadratic_bound():
    # Cold, every chain starts from every state: Θ(n³) Pre, so the ratio
    # to Σt·n² roughly doubles with n.
    ratios = [_witness_work(k, "mt", warm=False)[1] for k in (10, 20, 40)]
    assert ratios[0] < ratios[1] < ratios[2], ratios
    assert ratios[2] > 0.9


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
    "random-0": ((647, 6), (419, 6), (1150, 6), (694, 6)),
    "random-1": ((706, 7), (406, 7), (1211, 7), (690, 7)),
    "robot": ((209, 1), (209, 1), (289, 1), (289, 1)),
    "series": ((679, 6), (461, 6), (1719, 6), (1050, 6)),
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
