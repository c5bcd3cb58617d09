"""The mode-target reduction to GR(1), and general GR(1) objectives
solved by the shared nested core."""

from __future__ import annotations

import numpy as np
import pytest

import helpers
from mtgames.benchgen import gen_random_game
from mtgames.errors import ModeExclusivityError, ValidationError
from mtgames.fixpoint import solve_stable_conjunction
from mtgames.gr1 import embed, solve_gr1_emb
from mtgames.solver import SolveOptions, solve_mt
from mtgames.specs import ModeSpec, MTSpec, bind_spec, parse_mt_formula


def mask(n, *states):
    out = np.zeros(n, dtype=bool)
    out[list(states)] = True
    return out


def gr1_winning(game, avoid, guarantees, warm=False):
    """Winning states of the GR(1) objective with the rows of ``avoid`` as
    assumption complements and ``guarantees`` as guarantees, solved by the
    core with one block object shared by every guarantee."""
    avoid = np.array(avoid, dtype=bool).reshape(len(avoid), game.n)
    res = solve_stable_conjunction(game, [avoid] * len(guarantees), guarantees, warm=warm)
    return set(np.flatnonzero(res.winning).tolist())


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
    hit, bound = embed(g, spec)
    assert hit.shape == (2, 5)  # max target count x n
    assert bound.modes.shape == (2, 5)  # one guarantee per mode
    assert bound.spec == spec
    # Target lists are bound as declared; the short mode is not padded.
    assert [len(rows) for rows in bound.targets] == [2, 1]
    assert np.flatnonzero(bound.targets[0][0]).tolist() == [0]
    assert np.flatnonzero(bound.targets[0][1]).tolist() == [4]
    assert np.flatnonzero(bound.targets[1][0]).tolist() == [2]


def test_embed_frozen_sets():
    g, spec = two_mode_instance()
    hit, bound = embed(g, spec)
    # Position 0 collects the mode/first-target overlaps: {0} and {2}.
    assert np.flatnonzero(hit[0]).tolist() == [0, 2]
    # Position 1: second targets contribute nothing (T12 misses M1).
    assert not hit[1].any()
    assert np.flatnonzero(~bound.modes[0]).tolist() == [2, 3, 4]
    assert np.flatnonzero(~bound.modes[1]).tolist() == [0, 1, 4]


def test_embed_assumption_complement_identity():
    for seed in range(8):
        game, spec = gen_random_game(20, 3, [2, 1, 3], 2.0, seed)
        hit, bound = embed(game, spec)
        assert np.array_equal(bound.modes, bind_spec(game, spec).modes)
        assert len(hit) == spec.max_targets
        for j, row in enumerate(hit):
            want = np.zeros(game.n, dtype=bool)
            for mode, targets in zip(bound.modes, bound.targets):
                if j < len(targets):
                    want |= mode & targets[j]
            assert np.array_equal(row, want)


def test_embed_requires_exclusive_modes():
    g = helpers.build_game(
        2, [0, 0], [(0, 1), (1, 0)], {"M1": [0, 1], "M2": [1], "T": [0]}
    )
    spec = MTSpec((ModeSpec("M1", ("T",)), ModeSpec("M2", ("T",))))
    with pytest.raises(ModeExclusivityError):
        embed(g, spec)


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
# General GR(1) objectives through the core


def test_gr1_without_assumptions_is_recurrence_region():
    # 0 -> 1 -> 2 -> 0 cycle, all controlled: every state revisits 0.
    ring = helpers.build_game(3, [0, 0, 0], [(0, 1), (1, 2), (2, 0)])
    # No assumptions: a 0 x n block.
    assert gr1_winning(ring, [], [mask(3, 0)]) == {0, 1, 2}

    # The adversary at state 1 may divert to an absorbing state 2.
    trap = helpers.build_game(3, [0, 1, 0], [(0, 1), (1, 0), (1, 2), (2, 2)])
    assert gr1_winning(trap, [], [mask(3, 0)]) == set()


def test_gr1_multiple_guarantees_need_all():
    # Two controlled loops; only state 1 is repeatable from {1}, so a
    # guarantee pair {1},{2} forces the empty region on a split graph.
    g = helpers.build_game(3, [0, 0, 0], [(0, 1), (1, 1), (2, 2)])
    assert gr1_winning(g, [], [mask(3, 1), mask(3, 2)]) == set()
    assert gr1_winning(g, [], [mask(3, 1)]) == {0, 1}


def test_gr1_assumption_escape_counts_as_win():
    # Settling outside every assumption falsifies the antecedent, so a
    # state that can park in the assumption's complement wins without
    # ever visiting the guarantee.
    g = helpers.build_game(2, [0, 0], [(0, 0), (0, 1), (1, 1)])
    # Assumption: revisit 0 forever, so its complement is {1}; the
    # guarantee is unsatisfiable. Parking at 1 breaks the assumption, and
    # both states can reach 1.
    assert gr1_winning(g, [mask(2, 1)], [mask(2)]) == {0, 1}


def test_gr1_universe_mismatch(g1_game):
    # A block one state wider than the graph.
    with pytest.raises(ValueError, match="set universe does not match game"):
        solve_stable_conjunction(g1_game, [np.zeros((0, 3), dtype=bool)], [mask(2, 0)])


def test_gr1_needs_one_block_per_guarantee():
    # A guarantee without its block would be dropped from the conjunction.
    g = helpers.build_game(3, [0, 0, 0], [(0, 1), (1, 1), (2, 2)])
    no_assumptions = np.zeros((0, 3), dtype=bool)
    with pytest.raises(ValueError, match="2 exit sets for 1 persistence blocks"):
        solve_stable_conjunction(g, [no_assumptions], [mask(3, 1), mask(3, 2)])


def test_gr1_warm_matches_cold():
    # Random assumptions and guarantees, overlapping one another: a shape
    # of objective that no embedding makes.
    for seed in range(6):
        game, _ = gen_random_game(25, 2, [2, 2], 2.0, seed)
        rng = np.random.default_rng(seed)
        avoid, guarantees = rng.random((3, game.n)) < 0.2, rng.random((2, game.n)) < 0.3
        assert gr1_winning(game, avoid, guarantees, warm=True) == gr1_winning(
            game, avoid, guarantees
        )
