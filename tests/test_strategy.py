"""Strategy extraction, the play checker, the brute-force enumeration
oracle, and the strategy/winning-set file formats."""

from __future__ import annotations

import pytest

import helpers
from mtgames.benchgen import gen_random_game
from mtgames.errors import BoundExceeded, GameParseError, NonExhaustiveModes
from mtgames.sets import StateSet
from mtgames.solver import SolveOptions, solve_mt
from mtgames.specs import LassoWord, lasso_satisfies, parse_mt_formula
from mtgames.strategy import (
    Strategy,
    check_strategy,
    enumerate_memoryless_winning,
    extract_strategy,
    format_strategy,
    format_winning,
    parse_strategy,
    parse_winning,
)


def solved(game, spec):
    return game, spec, solve_mt(game, spec)


def branching_instance():
    """State 0 chooses between a safe loop (1) and a dead end (2)."""
    g = helpers.build_game(
        3,
        [0, 0, 0],
        [(0, 1), (0, 2), (1, 1), (2, 2)],
        {"M1": [0, 1, 2], "T11": [1]},
    )
    return solved(g, helpers.one_mode_spec())


# ---------------------------------------------------------------------------
# Extraction


def test_extract_g1(g1_game, one_mode_spec):
    result = solve_mt(g1_game, one_mode_spec)
    strat = extract_strategy(g1_game, one_mode_spec, result)
    assert strat.choices == {0: 1, 1: 1}
    assert strat.winning_size == 2


def test_extract_single_state_self_loop():
    g = helpers.build_game(1, [0], [(0, 0)], {"M1": [0], "T11": [0]})
    spec = helpers.one_mode_spec()
    strat = extract_strategy(g, spec, solve_mt(g, spec))
    assert strat.choices == {0: 0}


def test_extract_empty_when_nothing_winning(g2_game, one_mode_spec):
    result = solve_mt(g2_game, one_mode_spec)
    strat = extract_strategy(g2_game, one_mode_spec, result)
    assert strat.choices == {}
    assert strat.winning_size == 0


def test_extract_avoids_losing_branch():
    game, spec, result = branching_instance()
    assert helpers.frozen(result.winning) == {0, 1}
    strat = extract_strategy(game, spec, result)
    assert strat.choices[0] == 1  # the dead end at 2 must not be chosen
    assert strat.choices[1] == 1


def test_extract_requires_direct_solver_trace(g1_game, one_mode_spec):
    from mtgames.gr1 import solve_gr1_emb

    emb = solve_gr1_emb(g1_game, one_mode_spec)
    with pytest.raises(ValueError, match="direct-solver"):
        extract_strategy(g1_game, one_mode_spec, emb)
    bare = solve_mt(g1_game, one_mode_spec, SolveOptions(record=False))
    with pytest.raises(ValueError, match="recorded iterate trace"):
        extract_strategy(g1_game, one_mode_spec, bare)


def test_extract_rejects_foreign_result(g1_game, g2_game, one_mode_spec):
    three = helpers.build_game(
        3, [0, 0, 0], [(0, 1), (1, 2), (2, 0)], {"M1": [0, 1, 2], "T11": [0]}
    )
    result = solve_mt(three, one_mode_spec)
    with pytest.raises(ValueError, match="does not belong"):
        extract_strategy(g1_game, one_mode_spec, result)


def test_extract_requires_exhaustive_modes():
    # State 2 carries no mode but still wins (parking there satisfies
    # every conjunct vacuously), so extraction must refuse.
    g = helpers.build_game(
        3,
        [0, 0, 0],
        [(0, 1), (1, 1), (2, 2)],
        {"M1": [0, 1], "T11": [1]},
    )
    spec = helpers.one_mode_spec()
    result = solve_mt(g, spec)
    assert 2 in result.winning
    with pytest.raises(NonExhaustiveModes, match="carry no mode"):
        extract_strategy(g, spec, result)


def test_extract_domain_and_codomain():
    for seed in range(12):
        game, spec = gen_random_game(30, 2, [2, 1], 2.0, seed)
        result = solve_mt(game, spec)
        strat = extract_strategy(game, spec, result)
        expected_domain = {
            int(v) for v in result.winning.indices() if game.owner(v) == 0
        }
        assert set(strat.choices) == expected_domain
        for v, w in strat.choices.items():
            assert w in [int(x) for x in game.successors(v)]
            assert w in result.winning


def test_extract_choices_descend_iterate_ranks():
    for seed in range(12):
        game, spec = gen_random_game(30, 2, [2, 1], 2.0, seed)
        result = solve_mt(game, spec)
        strat = extract_strategy(game, spec, result)
        mode_idx = result.bound.mode_index_of()
        for v, w in strat.choices.items():
            tr = result.trace[int(mode_idx[v])]
            rv, rw = int(tr.y_rank[v]), int(tr.y_rank[w])
            assert rv >= 1
            if rw < rv:
                continue  # strict progress in the outer chain
            # Otherwise the move must hold some inner fixed point of
            # v's own mode at v's level or tighter.
            k = int(mode_idx[v])
            held = False
            for j in range(tr.target_count):
                lv, lw = int(tr.x_rank[j][v]), int(tr.x_rank[j][w])
                in_persist = bool(result.bound.persistence_sets[k][j].bits[v])
                if in_persist and 0 <= lv and 0 <= lw <= lv:
                    held = True
            assert held, f"seed {seed}, move {v}->{w}"


def test_extract_deterministic():
    game, spec = gen_random_game(40, 3, [2, 1, 2], 2.0, 5)
    r1 = solve_mt(game, spec)
    r2 = solve_mt(game, spec)
    assert extract_strategy(game, spec, r1) == extract_strategy(game, spec, r2)


# ---------------------------------------------------------------------------
# Checking


def test_check_passes_on_extracted(g1_game, one_mode_spec):
    result = solve_mt(g1_game, one_mode_spec)
    strat = extract_strategy(g1_game, one_mode_spec, result)
    verdict = check_strategy(g1_game, one_mode_spec, strat, result.winning)
    assert verdict.ok
    assert verdict.reason is None


def test_check_detects_violating_cycle(g1_game, one_mode_spec):
    result = solve_mt(g1_game, one_mode_spec)
    sabotaged = Strategy({0: 0, 1: 1}, winning_size=2)
    verdict = check_strategy(g1_game, one_mode_spec, sabotaged, result.winning)
    assert not verdict.ok
    assert verdict.reason == "violating-cycle"
    assert verdict.cycle == (0,)
    assert verdict.mode == "M1"
    word = verdict.lasso(g1_game)
    assert word.cycle == (frozenset({"M1"}),)
    assert not lasso_satisfies(one_mode_spec, word)


def test_check_detects_missing_choice():
    game, spec, result = branching_instance()
    strat = Strategy({1: 1}, winning_size=2)
    verdict = check_strategy(game, spec, strat, result.winning)
    assert not verdict.ok
    assert verdict.reason == "missing-choice"
    assert "state 0" in verdict.detail


def test_check_detects_illegal_edge():
    game, spec, result = branching_instance()
    strat = Strategy({0: 0, 1: 1}, winning_size=2)  # 0 -> 0 is not an edge
    verdict = check_strategy(game, spec, strat, result.winning)
    assert not verdict.ok
    assert verdict.reason == "illegal-edge"
    assert verdict.edge == (0, 0)


def test_check_detects_escape_from_winning_set():
    game, spec, result = branching_instance()
    strat = Strategy({0: 2, 1: 1}, winning_size=2)  # 2 is losing
    verdict = check_strategy(game, spec, strat, result.winning)
    assert not verdict.ok
    assert verdict.reason == "escapes-winning"
    assert verdict.edge == (0, 2)


def test_check_flags_adversary_escape():
    # A Player-1 state inside the claimed winning set with an edge out
    # of it must be rejected no matter what Player 0 chooses.
    g = helpers.build_game(
        3,
        [0, 1, 0],
        [(0, 1), (1, 0), (1, 2), (2, 2)],
        {"M1": [0, 1, 2], "T11": [0]},
    )
    spec = helpers.one_mode_spec()
    claimed = StateSet(3, [0, 1])
    verdict = check_strategy(g, spec, Strategy({0: 1}, 2), claimed)
    assert not verdict.ok
    assert verdict.reason == "escapes-winning"
    assert verdict.edge == (1, 2)


def test_check_two_state_violating_cycle():
    # Forced alternation between the two halves of a mode: neither
    # target holds on the whole cycle, so the claim must fail with a
    # stitched two-state counterexample.
    g = helpers.build_game(
        2,
        [0, 0],
        [(0, 1), (1, 0)],
        {"M1": [0, 1], "T11": [0], "T12": [1]},
    )
    spec = parse_mt_formula("(FG M1 -> FG T11 | FG T12)")
    strat = Strategy({0: 1, 1: 0}, winning_size=2)
    verdict = check_strategy(g, spec, strat, StateSet.full(2))
    assert not verdict.ok
    assert verdict.reason == "violating-cycle"
    assert sorted(set(verdict.cycle)) == [0, 1]
    word = verdict.lasso(g)
    assert not lasso_satisfies(spec, word)


def test_check_accepts_empty_claim(g2_game, one_mode_spec):
    verdict = check_strategy(
        g2_game, one_mode_spec, Strategy({}, 0), StateSet.empty(2)
    )
    assert verdict.ok


def test_check_state_bound():
    game, spec = gen_random_game(10, 1, [1], 2.0, 0)
    with pytest.raises(BoundExceeded, match="checker bound"):
        check_strategy(game, spec, Strategy({}, 0), StateSet.empty(10), max_states=5)


def test_check_passes_across_random_corpus():
    for seed in range(15):
        game, spec = gen_random_game(25, 2, [2, 1], 2.0, seed)
        result = solve_mt(game, spec)
        strat = extract_strategy(game, spec, result)
        verdict = check_strategy(game, spec, strat, result.winning)
        assert verdict.ok, f"seed {seed}: {verdict.reason} {verdict.detail}"


def test_check_rejects_a_winning_set_of_another_universe():
    game, spec = gen_random_game(20, 1, [1], 2.0, 0)
    for universe in (5, 40):
        claimed = StateSet(universe, range(universe))
        with pytest.raises(ValueError, match="does not belong to this game graph"):
            check_strategy(game, spec, Strategy({}, universe), claimed)


def test_check_matches_loop_checker_on_seeded_corpus():
    # helpers.checker_case cycles through extracted, random and
    # overlapping-mode claims, a third of them corrupted.
    reasons: dict[tuple[int, str | None], int] = {}
    for seed in range(1500):
        game, spec, strategy, claimed = helpers.checker_case(seed)
        expected = helpers.check_strategy_loop(game, spec, strategy, claimed)
        assert check_strategy(game, spec, strategy, claimed) == expected, f"seed {seed}"
        key = (seed % 3, expected.reason)
        reasons[key] = reasons.get(key, 0) + 1
    for kind in range(3):
        for reason in (None, "missing-choice", "illegal-edge", "escapes-winning"):
            assert reasons.get((kind, reason), 0) >= 10, (kind, reason, reasons)
    assert reasons[(1, "violating-cycle")] + reasons[(2, "violating-cycle")] >= 300


def test_check_reports_the_first_violating_component_of_a_mode():
    # Two violating components in M1, {0, 1} and {2, 3, 4}; the Player 1
    # state 0 leads into both. The reported one, and its cycle stitched
    # through one witness per target (3 outside T11, 2 outside T12), are
    # pinned.
    g = helpers.build_game(
        6,
        [1, 0, 0, 0, 0, 0],
        [(0, 1), (0, 2), (1, 0), (2, 3), (3, 4), (4, 2), (5, 5)],
        {"M1": [0, 1, 2, 3, 4], "T11": [0, 2, 5], "T12": [1, 3, 5], "M2": [5], "T2": [5]},
    )
    spec = parse_mt_formula("(FG M1 -> FG T11 | FG T12) & (FG M2 -> FG T2)")
    strat = Strategy({1: 0, 2: 3, 3: 4, 4: 2, 5: 5}, 6)
    verdict = check_strategy(g, spec, strat, StateSet.full(6))
    assert (verdict.reason, verdict.mode, verdict.cycle) == ("violating-cycle", "M1", (3, 4, 2))


def test_check_reports_violating_modes_in_spec_order():
    g = helpers.build_game(
        4,
        [0, 0, 0, 0],
        [(0, 1), (1, 0), (2, 3), (3, 2)],
        {"M1": [0, 1], "T1": [0], "M2": [2, 3], "T2": [3]},
    )
    strat = Strategy({0: 1, 1: 0, 2: 3, 3: 2}, 4)
    for formula, mode, cycle in (
        ("(FG M1 -> FG T1) & (FG M2 -> FG T2)", "M1", (1, 0)),
        ("(FG M2 -> FG T2) & (FG M1 -> FG T1)", "M2", (2, 3)),
    ):
        verdict = check_strategy(g, parse_mt_formula(formula), strat, StateSet.full(4))
        assert (verdict.reason, verdict.mode, verdict.cycle) == ("violating-cycle", mode, cycle)


def test_check_overlapping_modes_are_checked_one_at_a_time():
    spec = parse_mt_formula("(FG M1 -> FG T1) & (FG M2 -> FG T2)")
    # One cycle inside both modes: it settles in T1, so M1 holds, but
    # not in T2, so M2 breaks.
    g = helpers.build_game(
        2, [0, 0], [(0, 1), (1, 0)], {"M1": [0, 1], "M2": [0, 1], "T1": [0, 1], "T2": [0]}
    )
    verdict = check_strategy(g, spec, Strategy({0: 1, 1: 0}, 2), StateSet.full(2))
    assert (verdict.reason, verdict.mode, verdict.cycle) == ("violating-cycle", "M2", (1, 0))
    # State 0 is in both modes, on an M1 cycle through 1 and an M2 cycle
    # through 2. Together the three states form one component that lies
    # in no single mode; only M2's own decomposition finds the cycle.
    g = helpers.build_game(
        3,
        [1, 0, 0],
        [(0, 1), (0, 2), (1, 0), (2, 0)],
        {"M1": [0, 1], "M2": [0, 2], "T1": [0, 1], "T2": [0]},
    )
    verdict = check_strategy(g, spec, Strategy({1: 0, 2: 0}, 3), StateSet.full(3))
    assert (verdict.reason, verdict.mode, verdict.cycle) == ("violating-cycle", "M2", (2, 0))
    assert not lasso_satisfies(spec, verdict.lasso(g))


# ---------------------------------------------------------------------------
# Brute-force enumeration oracle


def test_enumerate_frozen_examples(g1_game, g2_game, one_mode_spec):
    assert helpers.frozen(enumerate_memoryless_winning(g1_game, one_mode_spec)) == {
        0,
        1,
    }
    assert (
        helpers.frozen(enumerate_memoryless_winning(g2_game, one_mode_spec)) == set()
    )


def test_enumerate_matches_solver_on_tiny_corpus():
    checked = 0
    for seed in range(60):
        n = 2 + seed % 7
        m = 1 + seed % 2
        targets = [1 + (seed // 2) % 2] * m
        game, spec = gen_random_game(n, m, targets, 1.5, seed)
        oracle = helpers.frozen(enumerate_memoryless_winning(game, spec))
        fast = helpers.frozen(solve_mt(game, spec).winning)
        assert oracle == fast, f"seed {seed}"
        checked += 1
    assert checked == 60


def test_enumerate_strategy_count_bound():
    g = helpers.build_game(
        2, [0, 0], [(0, 0), (0, 1), (1, 0), (1, 1)], {"M1": [0, 1], "T11": [0]}
    )
    with pytest.raises(BoundExceeded, match="enumeration bound"):
        enumerate_memoryless_winning(g, helpers.one_mode_spec(), max_strategies=3)


# ---------------------------------------------------------------------------
# File formats


def test_strategy_round_trip():
    strat = Strategy({3: 1, 0: 2}, winning_size=4)
    text = format_strategy(strat)
    assert text == "# winning 4 states\nmove 0 2\nmove 3 1\n"
    assert parse_strategy(text) == strat


def test_strategy_parse_tolerates_comments_and_blanks():
    strat = parse_strategy("# winning 2 states\n\n# note\nmove 0 1\n")
    assert strat.choices == {0: 1}
    assert strat.winning_size == 2


def test_strategy_parse_errors():
    with pytest.raises(GameParseError, match="expected 'move"):
        parse_strategy("move 0\n")
    with pytest.raises(GameParseError, match="duplicate move"):
        parse_strategy("move 0 1\nmove 0 2\n")
    with pytest.raises(GameParseError) as err:
        parse_strategy("move 0 1\nbogus\n")
    assert err.value.line == 2


def test_winning_round_trip():
    s = StateSet(5, [0, 2, 4])
    text = format_winning(s)
    assert text == "# 3 states\n0\n2\n4\n"
    assert parse_winning(text, 5) == s


def test_winning_parse_errors():
    with pytest.raises(GameParseError, match="out of range"):
        parse_winning("7\n", 5)
    with pytest.raises(GameParseError, match="one state index"):
        parse_winning("zero\n", 5)
