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


def test_recorded_iterates_form_increasing_chain():
    for seed in range(15):
        g = helpers.random_graph(seed)
        engine = FixpointEngine(g)
        p = helpers.random_subset(seed + 11, g.n)
        q = helpers.random_subset(seed + 33, g.n)
        reach = helpers.random_subset(seed + 22, g.n)
        res = solve_persistence_reach(
            engine, block(g.n, p, q), reach.bits, record=True
        )
        ys = res.y_iterates
        assert not ys[0].any()
        for a, b in zip(ys, ys[1:]):
            # strictly increasing until the fixed point
            assert subset(a, b) and not np.array_equal(a, b)
        assert np.array_equal(ys[-1], res.value)
        assert len(res.x_iterates) == len(ys) - 1
        for row in res.x_iterates:
            assert len(row) == 2
            for x in row:
                assert subset(x, res.value)


def test_mode_trace_ranks_reconstruct_iterates():
    for seed in range(15):
        g = helpers.random_graph(seed)
        engine = FixpointEngine(g)
        p = helpers.random_subset(seed + 11, g.n)
        reach = helpers.random_subset(seed + 22, g.n)
        res = solve_persistence_reach(engine, block(g.n, p), reach.bits, record=True)
        tr = ModeTrace.from_iterates(res.y_iterates, res.x_iterates, 1)
        assert tr.target_count == 1
        for rank, y in enumerate(res.y_iterates):
            assert np.array_equal((tr.y_rank >= 1) & (tr.y_rank <= rank), y)
        assert np.array_equal(tr.y_rank >= 1, res.value)
        for rank, row in enumerate(res.x_iterates):
            xr = tr.x_rank[0]
            assert np.array_equal((xr >= 0) & (xr <= rank), row[0])


def test_mode_trace_handles_immediate_convergence():
    g = helpers.g2()
    engine = FixpointEngine(g)
    res = solve_persistence_reach(
        engine, np.zeros((1, 2), dtype=bool), np.zeros(2, bool), record=True
    )
    assert len(res.y_iterates) == 1
    tr = ModeTrace.from_iterates(res.y_iterates, res.x_iterates, 1)
    assert not (tr.y_rank >= 1).any()
    assert not (tr.x_rank[0] >= 0).any()
    assert tr.target_count == 1


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
            assert np.array_equal(tr.y_rank >= 1, out.winning)


@pytest.mark.parametrize("warm", [False, True])
def test_traces_are_built_only_in_rounds_that_leave_z_unchanged(monkeypatch, warm):
    from mtgames.benchgen import gen_random_game

    built = []
    original = ModeTrace.from_iterates

    def counted(y_iterates, x_iterates, target_count):
        built.append(target_count)
        return original(y_iterates, x_iterates, target_count)

    monkeypatch.setattr(ModeTrace, "from_iterates", counted)
    game, spec = gen_random_game(200, 4, [3, 1, 2, 1], 2.0, 0)
    persist, exits = _bound_parts(game, spec)
    out = solve_stable_conjunction(game, persist, exits, warm=warm, record=True)
    assert out.stats.outer_iterations >= 3
    assert len(persist) <= len(built) < len(persist) * out.stats.outer_iterations


@pytest.mark.parametrize("warm", [False, True])
def test_kept_traces_match_a_fresh_run_against_the_winning_set(warm):
    from mtgames.benchgen import gen_random_game

    for seed in range(6):
        game, spec = gen_random_game(60, 3, [2, 1, 2], 2.0, seed)
        persist, exits = _bound_parts(game, spec)
        out = solve_stable_conjunction(game, persist, exits, warm=warm, record=True)
        pre_z = FixpointEngine(game).pre(out.winning)
        for i, tr in enumerate(out.traces):
            res = solve_persistence_reach(
                FixpointEngine(game), persist[i], exits[i] & pre_z, record=True
            )
            fresh = ModeTrace.from_iterates(
                res.y_iterates, res.x_iterates, len(persist[i])
            )
            assert np.array_equal(tr.y_rank, fresh.y_rank), (seed, i)
            for xr, fresh_xr in zip(tr.x_rank, fresh.x_rank, strict=True):
                assert np.array_equal(xr, fresh_xr), (seed, i)


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
            assert np.array_equal(got, game.pre_mask(mask)), len(steps)
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
    rng = np.random.default_rng(0)
    for full in (False, True):
        tracker = PreTracker(game, full)
        mask = np.full(game.n, full)
        for share in (0.01, 0.05, 0.2, 0.6, 0.0, 0.1):
            mask = mask ^ (rng.random(game.n) < share)
            assert np.array_equal(tracker.counts(mask), game.count_successors_in(mask))


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
