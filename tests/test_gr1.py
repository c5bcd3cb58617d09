"""Recurrence-implies-recurrence solver and the mode-target reduction
onto it."""

from __future__ import annotations

import numpy as np
import pytest

import helpers
from mtgames.benchgen import gen_random_game
from mtgames.errors import ModeExclusivityError, ValidationError
from mtgames.gr1 import embed, solve_gr1, solve_gr1_emb
from mtgames.sets import StateSet
from mtgames.solver import SolveOptions, solve_mt
from mtgames.specs import GR1Spec, ModeSpec, MTSpec, bind_spec, parse_mt_formula


def two_mode_instance():
    """Five states, two modes with uneven target counts (2 and 1)."""
    g = helpers.build_game(
        5,
        [0, 1, 0, 1, 0],
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (4, 4)],
        {
            "M1": [0, 1],
            "M2": [2, 3],
            "T11": [0],
            "T12": [4],
            "T21": [2],
        },
    )
    spec = parse_mt_formula("(FG M1 -> FG T11 | FG T12) & (FG M2 -> FG T21)")
    return g, spec


# ---------------------------------------------------------------------------
# The reduction


def test_embed_shapes_and_padding():
    g, spec = two_mode_instance()
    emb = embed(g, spec)
    assert len(emb.assumptions) == 2  # max target count
    assert len(emb.guarantees) == 2  # mode count
    assert emb.bound.spec == spec
    # Target lists are bound as declared; the short mode is not padded.
    assert [len(rows) for rows in emb.bound.targets] == [2, 1]
    assert np.flatnonzero(emb.bound.targets[0][0]).tolist() == [0]
    assert np.flatnonzero(emb.bound.targets[0][1]).tolist() == [4]
    assert np.flatnonzero(emb.bound.targets[1][0]).tolist() == [2]


def test_embed_frozen_sets():
    g, spec = two_mode_instance()
    emb = embed(g, spec)
    # Position 0 collects the mode/first-target overlaps: {0} and {2}.
    assert set(emb.assumptions[0]) == {1, 3, 4}
    # Position 1: second targets contribute nothing (T12 misses M1).
    assert set(emb.assumptions[1]) == {0, 1, 2, 3, 4}
    assert set(emb.guarantees[0]) == {2, 3, 4}
    assert set(emb.guarantees[1]) == {0, 1, 4}


def test_embed_assumption_complement_identity():
    for seed in range(8):
        game, spec = gen_random_game(20, 3, [2, 1, 3], 2.0, seed)
        emb = embed(game, spec)
        bound = bind_spec(game, spec)
        assert len(emb.assumptions) == spec.max_targets
        for j, a in enumerate(emb.assumptions):
            hit = np.zeros(game.n, dtype=bool)
            for mode, targets in zip(bound.modes, bound.targets):
                if j < len(targets):
                    overlap = mode & targets[j]
                    assert not (overlap & a.bits).any()
                    hit |= overlap
            assert np.array_equal(~a.bits, hit)
        for mode, g in zip(bound.modes, emb.guarantees):
            assert np.array_equal(~g.bits, mode)


def test_embed_requires_exclusive_modes():
    g = helpers.build_game(
        2, [0, 0], [(0, 1), (1, 0)], {"M1": [0, 1], "M2": [1], "T": [0]}
    )
    spec = MTSpec((ModeSpec("M1", ("T",)), ModeSpec("M2", ("T",))))
    with pytest.raises(ModeExclusivityError):
        embed(g, spec)


def test_embedded_spec_view():
    g, spec = two_mode_instance()
    emb = embed(g, spec)
    gr1 = emb.spec()
    assert isinstance(gr1, GR1Spec)
    assert len(gr1.assumptions) == 2
    assert len(gr1.guarantees) == 2


# ---------------------------------------------------------------------------
# Embedded solve


def test_emb_frozen_examples(g1_game, g2_game, one_mode_spec):
    r1 = solve_gr1_emb(g1_game, one_mode_spec)
    assert helpers.frozen(r1.winning) == {0, 1}
    assert r1.algo == "gr1emb"
    assert r1.trace is None
    r2 = solve_gr1_emb(g2_game, one_mode_spec)
    assert helpers.frozen(r2.winning) == set()


def test_emb_matches_direct_solver():
    for seed in range(20):
        game, spec = gen_random_game(
            20 + seed, 1 + seed % 4, [1 + (seed + k) % 3 for k in range(1 + seed % 4)],
            1.5 + (seed % 3) * 0.5, seed,
        )
        direct = helpers.frozen(solve_mt(game, spec).winning)
        emb = helpers.frozen(solve_gr1_emb(game, spec).winning)
        assert direct == emb, f"seed {seed}"


def test_emb_rejects_invalid_graph(one_mode_spec):
    g = helpers.build_game(2, [0, 0], [(0, 1)], {"M1": [0, 1], "T11": [1]})
    with pytest.raises(ValidationError):
        solve_gr1_emb(g, one_mode_spec)


def test_emb_warm_preserves_winning_set():
    for seed in range(8):
        game, spec = gen_random_game(30, 3, [2, 1, 2], 2.0, seed)
        cold = solve_gr1_emb(game, spec)
        warm = solve_gr1_emb(game, spec, SolveOptions(warm=True))
        assert warm.winning == cold.winning


# ---------------------------------------------------------------------------
# Generic recurrence solver


def test_gr1_on_embedded_spec_equals_embedded_solver():
    for seed in range(8):
        game, spec = gen_random_game(25, 2, [2, 1], 2.0, seed)
        emb_result = solve_gr1_emb(game, spec)
        generic = solve_gr1(game, embed(game, spec).spec())
        assert generic.winning == emb_result.winning
        assert generic.stats.pre_count == emb_result.stats.pre_count


def test_gr1_without_assumptions_is_recurrence_region():
    # 0 -> 1 -> 2 -> 0 cycle, all controlled: every state revisits 0.
    ring = helpers.build_game(3, [0, 0, 0], [(0, 1), (1, 2), (2, 0)])
    spec = GR1Spec((), (StateSet(3, [0]),))
    assert helpers.frozen(solve_gr1(ring, spec).winning) == {0, 1, 2}

    # The adversary at state 1 may divert to an absorbing state 2.
    trap = helpers.build_game(3, [0, 1, 0], [(0, 1), (1, 0), (1, 2), (2, 2)])
    spec = GR1Spec((), (StateSet(3, [0]),))
    assert helpers.frozen(solve_gr1(trap, spec).winning) == set()


def test_gr1_multiple_guarantees_need_all():
    # Two controlled loops; only state 1 is repeatable from {1}, so a
    # guarantee pair {1},{2} forces the empty region on a split graph.
    g = helpers.build_game(3, [0, 0, 0], [(0, 1), (1, 1), (2, 2)])
    both = GR1Spec((), (StateSet(3, [1]), StateSet(3, [2])))
    assert helpers.frozen(solve_gr1(g, both).winning) == set()
    single = GR1Spec((), (StateSet(3, [1]),))
    assert helpers.frozen(solve_gr1(g, single).winning) == {0, 1}


def test_gr1_assumption_escape_counts_as_win():
    # Settling outside every assumption falsifies the antecedent, so a
    # state that can park in the assumption's complement wins without
    # ever visiting the guarantee.
    g = helpers.build_game(2, [0, 0], [(0, 0), (0, 1), (1, 1)])
    spec = GR1Spec(
        (StateSet(2, [0]),),  # assumption: revisit 0 forever
        (StateSet(2, []),),  # guarantee: unsatisfiable
    )
    # Parking at 1 breaks the assumption; both states can reach 1.
    assert helpers.frozen(solve_gr1(g, spec).winning) == {0, 1}


def test_gr1_universe_mismatch(g1_game):
    spec = GR1Spec((), (StateSet(3, [0]),))
    with pytest.raises(ValidationError):
        solve_gr1(g1_game, spec)


def test_gr1_rejects_invalid_graph():
    g = helpers.build_game(2, [0, 0], [(0, 1)])
    with pytest.raises(ValidationError):
        solve_gr1(g, GR1Spec((), (StateSet(2, [0]),)))


def test_gr1_warm_matches_cold():
    for seed in range(6):
        game, spec = gen_random_game(25, 2, [2, 2], 2.0, seed)
        gr1 = embed(game, spec).spec()
        cold = solve_gr1(game, gr1)
        warm = solve_gr1(game, gr1, warm=True)
        assert warm.winning == cold.winning
