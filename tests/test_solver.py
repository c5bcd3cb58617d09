"""Direct solver: frozen examples, the slow reference implementation as
an oracle, and the solver's algebraic invariants."""

from __future__ import annotations

import dataclasses

import pytest

import helpers
from mtgames.benchgen import gen_random_game
from mtgames.errors import (
    ModeExclusivityError,
    UnboundProposition,
    ValidationError,
)
from mtgames.game import GameGraph, pre
from mtgames.solver import (
    MTSolveResult,
    SolveOptions,
    solve_mt,
    solve_mt_reference,
)
from mtgames.specs import ModeSpec, MTSpec


def small_corpus():
    """Deterministic mixed corpus of small instances."""
    shapes = [
        (2, 1, [1]),
        (4, 1, [2]),
        (6, 2, [1, 1]),
        (8, 2, [2, 1]),
        (12, 3, [1, 2, 1]),
        (16, 2, [3, 2]),
        (20, 4, [1, 1, 2, 1]),
        (30, 3, [2, 2, 2]),
    ]
    out = []
    for seed, (n, m, t) in enumerate(shapes * 5):
        out.append(gen_random_game(n, m, t, 1.0 + (seed % 4) * 0.5, seed))
    return out


# ---------------------------------------------------------------------------
# Frozen examples


def test_g1_winning_both_states(g1_game, one_mode_spec):
    result = solve_mt(g1_game, one_mode_spec)
    assert helpers.frozen(result.winning) == {0, 1}
    assert result.algo == "mt"
    assert result.trace is not None
    assert result.stats.pre_count > 0


def test_g2_winning_empty(g2_game, one_mode_spec):
    result = solve_mt(g2_game, one_mode_spec)
    assert helpers.frozen(result.winning) == set()


def test_universal_target_wins_everywhere():
    g = helpers.build_game(
        3,
        [0, 1, 0],
        [(0, 1), (1, 2), (2, 0), (2, 2)],
        {"M1": [0, 1, 2], "T11": [0, 1, 2]},
    )
    result = solve_mt(g, helpers.one_mode_spec())
    assert helpers.frozen(result.winning) == {0, 1, 2}


def test_reference_frozen_examples(g1_game, g2_game, one_mode_spec):
    assert solve_mt_reference(g1_game, one_mode_spec) == {0, 1}
    assert solve_mt_reference(g2_game, one_mode_spec) == frozenset()


# ---------------------------------------------------------------------------
# Input validation


def test_rejects_non_total_graph(one_mode_spec):
    g = helpers.build_game(2, [0, 0], [(0, 1)], {"M1": [0, 1], "T11": [1]})
    with pytest.raises(ValidationError):
        solve_mt(g, one_mode_spec)
    with pytest.raises(ValidationError):
        solve_mt_reference(g, one_mode_spec)


def test_rejects_overlapping_modes():
    g = helpers.build_game(
        2, [0, 0], [(0, 1), (1, 0)], {"M1": [0, 1], "M2": [1], "T": [0]}
    )
    spec = MTSpec((ModeSpec("M1", ("T",)), ModeSpec("M2", ("T",))))
    with pytest.raises(ModeExclusivityError):
        solve_mt(g, spec)


def test_rejects_unbound_proposition(g1_game):
    spec = MTSpec((ModeSpec("M1", ("Missing",)),))
    with pytest.raises(UnboundProposition):
        solve_mt(g1_game, spec)


def test_options_are_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        SolveOptions().warm = True


# ---------------------------------------------------------------------------
# Oracle equality


def test_matches_reference_on_corpus():
    for idx, (game, spec) in enumerate(small_corpus()):
        fast = helpers.frozen(solve_mt(game, spec).winning)
        slow = solve_mt_reference(game, spec)
        assert fast == slow, f"instance {idx}"


# ---------------------------------------------------------------------------
# Algebraic invariants


def test_winning_set_is_pre_fixed_point():
    for idx, (game, spec) in enumerate(small_corpus()[:20]):
        w = solve_mt(game, spec).winning
        assert pre(game, w) == w, f"instance {idx}"


def test_mode_order_does_not_change_winning_set():
    for seed in range(10):
        game, spec = gen_random_game(25, 3, [2, 1, 1], 2.0, seed)
        base = helpers.frozen(solve_mt(game, spec).winning)
        flipped = MTSpec(tuple(reversed(spec.modes)))
        assert helpers.frozen(solve_mt(game, flipped).winning) == base


def test_more_targets_never_lose_states():
    for seed in range(10):
        game, spec = gen_random_game(25, 2, [3, 1], 2.0, seed)
        full = helpers.frozen(solve_mt(game, spec).winning)
        trimmed = MTSpec(
            (ModeSpec(spec.modes[0].name, spec.modes[0].targets[:1]),)
            + spec.modes[1:]
        )
        smaller = helpers.frozen(solve_mt(game, trimmed).winning)
        assert smaller <= full


def test_single_target_stay_region_is_won():
    from mtgames.fixpoint import FixpointEngine
    from mtgames.specs import bind_spec

    for seed in range(10):
        game, spec = gen_random_game(25, 2, [2, 2], 2.0, seed)
        w = solve_mt(game, spec).winning
        bound = bind_spec(game, spec)
        engine = FixpointEngine(game)
        for row in bound.persistence_sets:
            for p in row:
                stay = engine.gfp(lambda x, p=p: engine.pre(x) & p)
                assert stay <= w


def test_pre_count_deterministic_across_runs():
    game, spec = gen_random_game(40, 2, [2, 1], 2.0, 7)
    a = solve_mt(game, spec)
    b = solve_mt(game, spec)
    assert a.stats.pre_count == b.stats.pre_count
    assert a.stats.outer_iterations == b.stats.outer_iterations


def test_warm_option_preserves_winning_set():
    for seed in range(10):
        game, spec = gen_random_game(30, 3, [2, 1, 2], 2.0, seed)
        cold = solve_mt(game, spec)
        warm = solve_mt(game, spec, SolveOptions(warm=True))
        assert warm.winning == cold.winning


def test_record_off_drops_trace_only():
    game, spec = gen_random_game(30, 2, [2, 1], 2.0, 3)
    with_trace = solve_mt(game, spec, SolveOptions(record=True))
    without = solve_mt(game, spec, SolveOptions(record=False))
    assert without.trace is None
    assert with_trace.trace is not None
    assert without.winning == with_trace.winning
    assert without.stats.pre_count == with_trace.stats.pre_count


def test_result_carries_bound_spec(g1_game, one_mode_spec):
    result = solve_mt(g1_game, one_mode_spec)
    assert isinstance(result, MTSolveResult)
    assert result.bound.spec == one_mode_spec
    assert set(result.bound.mode_sets[0]) == {0, 1}
