"""Seeded property test on small games: the direct solver, the naive
reference, the embedded GR(1) solver, the generic GR(1) solver on the
embedded spec and brute-force enumeration agree, cold and warm, and
extracted strategies check."""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from mtgames.errors import BoundExceeded
from mtgames.gr1 import embed, solve_gr1, solve_gr1_emb
from mtgames.solver import SolveOptions, solve_mt, solve_mt_reference
from mtgames.specs import ModeSpec, MTSpec
from mtgames.strategy import (
    check_strategy,
    enumerate_memoryless_winning,
    extract_strategy,
)


@st.composite
def instances(draw):
    """A plain description of a game: per state its owner, successors and
    mode (-1 for none); per mode a list of target state lists, which may
    reach outside the mode."""
    n = draw(st.integers(1, 7))
    states = st.integers(0, n - 1)
    owners = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    if draw(st.booleans()):
        succs = [[v] for v in range(n)]
    else:
        succs = [draw(st.lists(states, min_size=1, max_size=3)) for _ in range(n)]
    m = draw(st.integers(1, 3))
    mode_of = draw(st.lists(st.integers(-1, m - 1), min_size=n, max_size=n))
    targets = [
        draw(st.lists(st.lists(states, max_size=n), min_size=1, max_size=3))
        for _ in range(m)
    ]
    return owners, succs, mode_of, targets


def build(owners, succs, mode_of, targets):
    labels = {}
    modes = []
    for i, mode_targets in enumerate(targets):
        labels[f"M{i}"] = [v for v, k in enumerate(mode_of) if k == i]
        names = []
        for j, states in enumerate(mode_targets):
            labels[f"T{i}_{j}"] = states
            names.append(f"T{i}_{j}")
        modes.append(ModeSpec(f"M{i}", tuple(names)))
    edges = [(v, w) for v, row in enumerate(succs) for w in row]
    game = helpers.build_game(len(owners), owners, edges, labels)
    return game, MTSpec(tuple(modes))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(instances())
# n=1, a lone Player-1 state whose only target misses its mode.
@example(([1], [[0]], [0], [[[]]]))
# Self-loops only, one state outside every mode, targets outside their mode.
@example(([0, 1, 0], [[0], [1], [2]], [0, 1, -1], [[[1], [0, 2]], [[1]]]))
# n=0: no state, and every label empty.
@example(([], [], [], [[[]]]))
@example(([], [], [], [[[], []], [[]]]))
# One-state modes: each mode holds one state, with a target on it or not.
@example(([0, 1, 0], [[1, 2], [0, 2], [0]], [0, 1, 2], [[[0]], [[]], [[1], [2]]]))
@example(([1, 1], [[0, 1], [1]], [0, 1], [[[]], [[1]]]))
def test_all_solvers_agree(instance):
    game, spec = build(*instance)
    expected = helpers.frozen(solve_mt(game, spec).winning)
    assert solve_mt_reference(game, spec) == expected
    try:
        by_enumeration = enumerate_memoryless_winning(game, spec)
    except BoundExceeded:
        pass
    else:
        assert helpers.frozen(by_enumeration) == expected
    generic_spec = embed(game, spec).spec()
    for warm in (False, True):
        options = SolveOptions(warm=warm)
        direct = solve_mt(game, spec, options)
        emb = solve_gr1_emb(game, spec, options)
        generic = solve_gr1(game, generic_spec, warm=warm)
        assert helpers.frozen(direct.winning) == expected
        assert helpers.frozen(emb.winning) == expected
        assert helpers.frozen(generic.winning) == expected
        assert emb.stats.pre_count == generic.stats.pre_count
        if (direct.bound.mode_index_of()[direct.winning.bits] >= 0).all():
            strategy = extract_strategy(game, spec, direct)
            assert check_strategy(game, spec, strategy, direct.winning).ok
