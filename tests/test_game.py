"""Game graphs: construction, canonical form, predecessor operator, and
the text format round trip."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import mtgames.game as game_mod
from mtgames.errors import (
    BoundExceeded,
    GameParseError,
    UnboundProposition,
    ValidationError,
)
from mtgames.game import (
    MAX_STATES,
    PLAYER0,
    PLAYER1,
    GameGraph,
    PreTracker,
    _edge_issues,
    load_game,
    pre,
    serialize_game,
    validate_graph,
)
from mtgames.sets import StateSet

G2_TEXT = "states 2\nowner 0 0\nowner 1 1\nedge 0 1\nedge 1 0\nedge 1 1\n"


# ---------------------------------------------------------------------------
# Construction and accessors


def test_basic_accessors(g2_game):
    g = g2_game
    assert g.n == 2
    assert g.owner(0) == PLAYER0 and g.owner(1) == PLAYER1
    assert g.successors(0).tolist() == [1]
    assert g.successors(1).tolist() == [0, 1]
    assert g.successors(1).size == 2
    assert g.num_edges == 3
    assert g.is_player0_mask.tolist() == [True, False]


def test_edge_arrays_are_the_successor_lists_read_only():
    g = helpers.build_game(3, [0, 1, 0], [(2, 0), (0, 2), (0, 1), (0, 2), (1, 1)])
    src, dst = g.edge_arrays
    assert src.tolist() == [0, 0, 1, 2]
    assert dst.tolist() == [1, 2, 1, 0]
    for v in range(g.n):
        assert dst[src == v].tolist() == g.successors(v).tolist()
    for arr in (src, dst):
        with pytest.raises(ValueError):
            arr[0] = 0


def test_labels_and_props(g1_game):
    g = g1_game
    assert set(g.props) == {"M1", "T11"}
    assert g.has_prop("M1") and not g.has_prop("nope")
    assert set(g.prop_set("T11")) == {1}
    assert g.label_names(0) == frozenset({"M1"})
    assert g.label_names(1) == frozenset({"M1", "T11"})
    with pytest.raises(UnboundProposition):
        g.prop_set("nope")


def test_canonicalization_sorts_and_dedups():
    g = helpers.build_game(3, [0, 0, 0], [(0, 2), (0, 1), (0, 2), (1, 0), (2, 2)])
    assert g.successors(0).tolist() == [1, 2]
    assert g.num_edges == 4


def test_constructor_rejects_bad_shapes():
    with pytest.raises(ValueError):
        GameGraph(-1, [], [])
    with pytest.raises(ValueError):
        GameGraph(2, [0], [(0, 0), (1, 1)])
    with pytest.raises(ValueError):
        GameGraph(2, [0, 7], [(0, 0), (1, 1)])
    # 256 would wrap to owner 0 in int8.
    with pytest.raises(ValueError, match="owners must be 0 or 1"):
        GameGraph(2, np.array([0, 256]), [(0, 0), (1, 1)])
    # Edges are (source, target) pairs or a tuple of two equal-length 1-D
    # arrays; no other shape is read, cut or padded.
    pairs = "edges must be .source, target. pairs"
    arrays = "edge sources and targets must be 1-D arrays of equal length"
    for edges, match in [
        # A tuple of two lists is read as pairs: two rows of three here.
        (([0, 1, 2], [1, 2, 0]), pairs),
        ([(0, 1, 5), (1, 0, 7)], pairs),
        ([0, 1], pairs),
        ((np.array([[0], [1]]), np.array([[1], [0]])), arrays),
        ((np.array([0, 1, 2]), np.array([1, 2])), arrays),
    ]:
        with pytest.raises(ValueError, match=match):
            GameGraph(3, [0, 0, 0], edges)
    ring = GameGraph(3, [0, 0, 0], (np.array([0, 1, 2]), np.array([1, 2, 0])))
    assert ring == GameGraph(3, [0, 0, 0], [(0, 1), (1, 2), (2, 0)])
    assert ring.num_edges == 3


def test_constructor_rejects_states_out_of_range_and_bad_names():
    with pytest.raises(ValueError, match="edge source out of range"):
        GameGraph(2, [0, 1], [(2, 0), (1, 0)])
    with pytest.raises(ValueError, match="invalid proposition name '1P'"):
        GameGraph(2, [0, 1], [(0, 1), (1, 0)], {"1P": [0]})
    with pytest.raises(ValueError, match="label state out of range for 'P'"):
        GameGraph(2, [0, 1], [(0, 1), (1, 0)], {"P": [0, 2]})


def test_constructor_refuses_float_owners():
    with pytest.raises(ValueError, match="owners must be integers"):
        GameGraph(2, [0.9, 1.2], [(0, 1), (1, 0)])


def test_constructor_refuses_float_edges():
    with pytest.raises(ValueError, match="edges must be integers"):
        GameGraph(2, [0, 1], [(0.5, 1.0), (1.7, 0.2)])
    with pytest.raises(ValueError, match="edge sources must be integers"):
        GameGraph(2, [0, 1], (np.array([0.5, 1.0]), np.array([1, 0])))


def test_constructor_refuses_float_label_states():
    with pytest.raises(ValueError, match="label states of 'P' must be integers"):
        GameGraph(2, [0, 1], [(0, 1), (1, 0)], {"P": [0.5]})


def test_constructor_refuses_a_boolean_mask_as_label_states():
    # Read as indices, the mask [True, False] would label the states 1 and 0.
    with pytest.raises(ValueError, match="label states of 'T1' must be integers, not bool"):
        GameGraph(2, [0, 0], [(0, 1), (1, 0)], {"M1": [0, 1], "T1": np.array([True, False])})


def test_equality_ignores_label_storage_details():
    a = helpers.build_game(2, [0, 1], [(0, 1), (1, 0)], {"P": [0], "Q": []})
    b = helpers.build_game(2, [0, 1], [(1, 0), (0, 1)], {"P": [0]})
    c = helpers.build_game(2, [0, 1], [(0, 1), (1, 0)], {"P": [1]})
    assert a == b
    assert a != c


# ---------------------------------------------------------------------------
# Controllable predecessor


def test_pre_of_empty_and_full():
    for seed in range(10):
        g = helpers.random_graph(seed)
        assert len(pre(g, StateSet.empty(g.n))) == 0
        assert len(pre(g, StateSet.full(g.n))) == g.n


def test_pre_frozen_example(g2_game):
    assert set(pre(g2_game, StateSet(2, [1]))) == {0}


def test_pre_universe_mismatch(g2_game):
    with pytest.raises(ValueError):
        pre(g2_game, StateSet(3, [1]))


def test_pre_matches_definition_on_random_graphs():
    for seed in range(40):
        g = helpers.random_graph(seed)
        s = helpers.random_subset(seed + 1000, g.n)
        expected = helpers.naive_pre(g, set(s))
        assert set(pre(g, s)) == expected, f"seed {seed}"


def test_pre_all_player0_is_existential_all_player1_universal():
    edges = [(0, 1), (0, 2), (1, 2), (2, 0), (2, 2)]
    target = StateSet(3, [2])
    p0 = helpers.build_game(3, [0, 0, 0], edges)
    assert set(pre(p0, target)) == {0, 1, 2}
    p1 = helpers.build_game(3, [1, 1, 1], edges)
    # State 2 has the escape edge 2 -> 0, so only state 1 forces the target.
    assert set(pre(p1, target)) == {1}


@settings(max_examples=60)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    extra=st.integers(min_value=0, max_value=10_000),
)
def test_pre_monotone(seed, extra):
    g = helpers.random_graph(seed)
    small = helpers.random_subset(extra, g.n)
    big = small | helpers.random_subset(extra + 1, g.n)
    assert pre(g, small) <= pre(g, big)


def restricted_pre(game, target, within):
    """Pre of ``target`` evaluated on the rows of ``within`` only."""
    return pre(game, target, within=game.row_slice(within.bits))


def test_pre_matches_where_kernel_on_random_graphs():
    for seed in range(40):
        g = helpers.random_graph(seed)
        s = helpers.random_subset(seed + 2000, g.n)
        expected = helpers.pre_where(g, s)
        assert pre(g, s) == expected, f"seed {seed}"
        assert np.array_equal(pre(g, s.bits), pre(g, s).bits)
        p = helpers.random_subset(seed + 4000, g.n)
        for within in (p, StateSet.empty(g.n), StateSet.full(g.n)):
            got = restricted_pre(g, s, within)
            assert got == expected & within, f"seed {seed}"
            # A mask, or its int32 form, gives one value per row of the slice.
            rows = g.row_slice(within.bits)
            assert np.array_equal(pre(g, s.bits, within=rows), got.bits[rows.rows])
            ints = s.bits.astype(np.int32)
            assert np.array_equal(pre(g, ints, within=rows), got.bits[rows.rows])


def test_pre_on_states_without_successor():
    # State 0 (Player 0) and state 1 (Player 1) have no successor: Player 1
    # cannot move out of any set, Player 0 cannot move into one.
    g = helpers.build_game(3, [0, 1, 0], [(2, 2)])
    for target in (StateSet.empty(3), StateSet(3, [2]), StateSet.full(3)):
        got = pre(g, target)
        assert 1 in got and 0 not in got
        assert got == helpers.pre_where(g, target)
        for p in (StateSet(3, [1]), StateSet(3, [0, 2])):
            assert restricted_pre(g, target, p) == got & p


def test_restricted_pre_with_self_loops_and_player1_states():
    # Every state has a self-loop; states 1 and 3 belong to Player 1.
    edges = [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 0)]
    g = helpers.build_game(4, [0, 1, 0, 1], edges)
    for bits in range(16):
        x = StateSet(4, [v for v in range(4) if bits >> v & 1])
        for p_bits in range(16):
            p = StateSet(4, [v for v in range(4) if p_bits >> v & 1])
            assert restricted_pre(g, x, p) == helpers.pre_where(g, x) & p


def test_restricted_pre_when_every_successor_leaves_the_set():
    # Edges run between even and odd states only, so P = the even states has
    # no successor inside P: Pre(X) & P depends on X outside P alone.
    n = 8
    edges = [(v, w) for v in range(n) for w in range(n) if (v - w) % 2 and w <= v + 3]
    g = helpers.build_game(n, [v // 2 % 2 for v in range(n)], edges)
    p = StateSet(n, range(0, n, 2))
    for x in (p, ~p, StateSet.full(n), StateSet(n, [1, 2, 3])):
        got = restricted_pre(g, x, p)
        assert got == helpers.pre_where(g, x) & p
    assert len(restricted_pre(g, p, p)) == 0
    assert restricted_pre(g, ~p, p) == p


def test_restricted_pre_on_empty_graph():
    g = helpers.build_game(0, [], [])
    empty = StateSet.empty(0)
    assert restricted_pre(g, empty, empty) == empty
    assert pre(g, empty.bits, within=g.row_slice(empty.bits)).shape == (0,)


def test_pre_counts_past_narrow_integers_and_on_rows_without_successor():
    # Player 1 states 0 and 1 and Player 0 state 4 have 70 000, 200 and
    # 70 000 successors, more than 8-bit and 16-bit counts hold; Player 0
    # state 2 and Player 1 state 3 have none. The targets hold all, all but
    # one, 20 000 or about half of the successors of 0 and 4.
    n = 70_005
    rest = np.arange(5, n)
    heads = (np.zeros(n - 5, int), np.ones(200, int), np.full(n - 5, 4))
    src = np.concatenate((*heads, rest))
    dst = np.concatenate((rest, rest[:200], rest, rest))
    owners = [1, 1, 0, 1, 0] + [v % 2 for v in range(5, n)]
    g = helpers.build_game(n, owners, (src, dst))
    assert [g.successors(v).size for v in range(5)] == [n - 5, 200, 0, 0, n - 5]
    full = StateSet.full(n)
    targets = {
        "all": (full, {0, 1, 3, 4}),
        "all but a successor of 0, 1 and 4": (full - StateSet(n, [5]), {3, 4}),
        "all but a successor of 0 and 4": (full - StateSet(n, [300]), {1, 3, 4}),
        "20 000 successors of 0 and 4": (StateSet(n, range(5, 20_005)), {1, 3, 4}),
        "half of the states": (helpers.random_subset(7, n), {3, 4}),
    }
    lonely = StateSet(n, [2, 3])
    slices = [lonely, StateSet(n, range(5)), helpers.random_subset(8, n) | lonely]
    for name, (target, head) in targets.items():
        expected = helpers.pre_where(g, target)
        assert set(expected) == helpers.naive_pre(g, set(target)), name
        assert set(expected) & set(range(5)) == head, name
        assert pre(g, target) == expected, name
        for within in slices:
            assert restricted_pre(g, target, within) == expected & within, name


def test_pre_kernel_arrays_share_one_index_dtype(monkeypatch):
    g = helpers.random_graph(3, n=9)
    rows = g.row_slice(helpers.random_subset(4, 9).bits)
    dtypes = {a.dtype for a in (g._indptr, g._indices, rows.indptr, rows.indices)}
    assert dtypes == {np.dtype(np.int32)}
    assert {a.dtype for a in g._in_edges} == {np.dtype(np.int32)}
    # The edge arrays stay int64: numpy indexes with int32 arrays slowly.
    assert {a.dtype for a in g.edge_arrays} == {np.dtype(np.int64)}
    # Past the int32 edge limit the graph indexes with int64 throughout, and
    # Pre is unchanged.
    monkeypatch.setattr(game_mod, "_MAX_INT32_EDGES", 0)
    for seed in range(20):
        g = helpers.random_graph(seed)
        within = helpers.random_subset(seed + 100, g.n)
        rows = g.row_slice(within.bits)
        arrays = (g._indptr, g._indices, rows.indptr, rows.indices)
        assert {a.dtype for a in arrays} == {np.dtype(np.int64)}
        s = helpers.random_subset(seed, g.n)
        expected = helpers.pre_where(g, s)
        assert pre(g, s) == expected, f"seed {seed}"
        assert pre(g, s, within=rows) == expected & within, f"seed {seed}"
        # A tracker fed one state per call updates from in-edges throughout.
        tracker, grown = PreTracker(g, full=False), np.zeros(g.n, dtype=bool)
        for v in s.indices():
            grown[v] = True
            pre(g, grown, tracker=tracker)
        assert {a.dtype for a in g._in_edges} == {np.dtype(np.int64)}
        assert pre(g, s, tracker=tracker) == expected, f"seed {seed}"


def test_narrow_keeps_the_rows_at_its_positions_and_rejects_others():
    g = helpers.random_graph(3, n=9)
    rows = g.row_slice(helpers.random_subset(4, 9).bits)
    assert rows.rows.size >= 3
    at = np.array([0, 2])
    cut = g.narrow(rows, at)
    want = g.row_slice(np.isin(np.arange(9), rows.rows[at]))
    for name in ("rows", "indptr", "indices", "floor", "pre_every"):
        assert np.array_equal(getattr(cut, name), getattr(want, name)), name
    assert g.narrow(rows, np.array([], dtype=np.int64)).rows.size == 0
    # The compiled row copy reads its positions unchecked, so one before the
    # first row or past the last is refused before the copy.
    for bad in ([-2], [0, -3], [rows.rows.size]):
        with pytest.raises(ValueError, match="row positions"):
            g.narrow(rows, np.array(bad))


def test_pre_rejects_a_mask_of_the_wrong_length():
    g = helpers.random_graph(5, n=6)
    for bad in (np.zeros(5, bool), np.zeros(7, bool), np.zeros((6, 1), bool)):
        with pytest.raises(ValueError, match="for 6 states"):
            pre(g, bad)
        with pytest.raises(ValueError, match="for 6 states"):
            pre(g, bad, within=g.row_slice(np.ones(6, bool)))
        with pytest.raises(ValueError, match="for 6 states"):
            pre(g, bad, tracker=PreTracker(g, full=True))


def test_pre_of_the_shared_every_and_no_state_masks_needs_no_count(monkeypatch):
    # Player 0 state 0 and Player 1 state 1 have no successor, so Pre of
    # every state misses 0 and Pre of no state holds 1.
    edges = [(2, 2), (2, 3), (3, 0), (3, 2), (4, 1), (5, 5)]
    g = GameGraph(6, [0, 1, 0, 1, 0, 1], edges)
    shared = {"every": (g.every_state, np.ones(6, bool)), "no": (g.no_state, np.zeros(6, bool))}
    expected = {"every": {1, 2, 3, 4, 5}, "no": {1}}
    for name, (mask, fresh) in shared.items():
        with pytest.raises(ValueError, match="read-only"):
            mask[0] = not mask[0]
        assert helpers.naive_pre(g, set(np.flatnonzero(fresh).tolist())) == expected[name]
        # A fresh mask of the same states takes the kernel.
        whole = pre(g, fresh)
        assert set(np.flatnonzero(whole).tolist()) == expected[name]
        for full in (None, False, True):
            tracker = None if full is None else PreTracker(g, full)
            got = pre(g, mask, tracker=tracker)
            assert np.array_equal(got, whole), name
            # A tracker is left as it was, and the answer is the caller's.
            assert tracker is None or np.array_equal(tracker._mask, np.full(6, full))
            got[:] = ~got
        for bits in range(64):
            rows = g.row_slice(np.array([bits >> v & 1 for v in range(6)], dtype=bool))
            kernel = pre(g, fresh.astype(np.int32), within=rows)
            assert np.array_equal(kernel, whole[rows.rows]), (name, bits)
            assert np.array_equal(pre(g, mask, within=rows), kernel), (name, bits)
    # None of the shared masks' Pre calls the kernel.
    calls = []
    kernel = game_mod.csr_matvec
    monkeypatch.setattr(game_mod, "csr_matvec", lambda *a: calls.append(None) or kernel(*a))
    rows = g.row_slice(np.ones(6, bool))
    for mask in (g.every_state, g.no_state):
        pre(g, mask)
        pre(g, mask, within=rows)
        pre(g, StateSet._wrap(mask))
    assert not calls
    pre(g, np.ones(6, bool))
    assert len(calls) == 1


def test_pre_refuses_a_tracker_with_a_row_slice(g2_game):
    tracker = PreTracker(g2_game, False)
    rows = g2_game.row_slice(g2_game.every_state)
    with pytest.raises(ValueError, match="a tracked Pre is over the whole graph"):
        pre(g2_game, np.ones(g2_game.n, bool), within=rows, tracker=tracker)


def test_tracked_pre_rejects_a_mask_that_is_not_boolean():
    # An int32 0/1 mask, which a sliced Pre takes, would make the tracker
    # index positions 0 and 1 instead of picking the states that joined.
    from mtgames.benchgen import gen_random_game

    g, _ = gen_random_game(300, 2, [1, 1], 5.0, 1)
    mask = helpers.random_subset(2, g.n).bits
    for full in (False, True):
        tracker = PreTracker(g, full)
        with pytest.raises(ValueError, match="boolean"):
            pre(g, mask.astype(np.int32), tracker=tracker)
        assert np.array_equal(pre(g, mask, tracker=tracker), pre(g, mask))


# ---------------------------------------------------------------------------
# Validation


def test_validate_ok(g1_game, g2_game):
    assert validate_graph(g1_game) == []
    assert validate_graph(g2_game) == []


def test_validate_totality():
    g = helpers.build_game(2, [0, 0], [(0, 1)])
    assert validate_graph(g) == ["state 1: no successor"]


def test_validate_dangling_target():
    # Out-of-range targets are rejected when the graph is built, so
    # validate_graph never sees one.
    for target in (-1, 2, 5):
        with pytest.raises(ValueError, match="edge target out of range"):
            GameGraph(2, [0, 0], [(0, target), (1, 0)])
    # A -1 target would let check_strategy pass a claim in which state 0
    # has no move, because the checker marks "no choice" with -1 as well.
    with pytest.raises(ValueError, match="edge target out of range"):
        GameGraph(3, [0, 0, 0], [(0, -1), (1, 1), (2, 2)], {"M": [1], "T": [1]})


def test_validate_duplicate_edge():
    g = GameGraph(2, [0, 0], [(0, 1), (0, 1), (1, 0)])
    assert g.successors(0).tolist() == [1]
    assert validate_graph(g) == []
    src, dst = np.array([0, 0, 1]), np.array([1, 1, 0])
    assert _edge_issues(2, src, dst) == ["state 0: duplicate edge to 1"]


def test_validate_orders_issues_by_state_kind_and_position():
    src = np.array([2, 0, 2, 2, 2, 2, 0])
    dst = np.array([3, 1, 0, 3, 0, 3, 1])
    expected = [
        "state 0: duplicate edge to 1",
        "state 1: no successor",
        "state 2: duplicate edge to 3",
        "state 2: duplicate edge to 0",
        "state 2: duplicate edge to 3",
        "state 3: no successor",
    ]
    assert _edge_issues(4, src, dst) == expected
    assert helpers.validate_graph_loop(4, src, dst) == expected
    # The list of the same shape with out-of-range targets cannot be built.
    for bad in (7, -1):
        with pytest.raises(ValueError, match="edge target out of range"):
            GameGraph(4, [0] * 4, (src, np.where(dst == 3, bad, dst)))


def test_validate_and_canonical_form_match_loop_oracles():
    kinds = set()
    rejected = 0
    for seed in range(400):
        n, owners, src, dst = helpers.random_raw_edges(seed)
        inside = (dst >= 0) & (dst < n)
        if not inside.all():
            rejected += 1
            with pytest.raises(ValueError, match="edge target out of range"):
                GameGraph(n, owners, (src, dst))
        src, dst = src[inside], dst[inside]
        issues = _edge_issues(n, src, dst)
        assert issues == helpers.validate_graph_loop(n, src, dst), f"seed {seed}"
        kinds.update(
            kind
            for kind in ("no successor", "duplicate")
            for msg in issues
            if kind in msg
        )
        canon = GameGraph(n, owners, (src, dst))
        indptr, indices = helpers.canonical_rows_loop(n, src, dst)
        assert np.array_equal(canon._indptr, indptr), f"seed {seed}"
        assert np.array_equal(canon._indices, indices), f"seed {seed}"
        canon_src = np.repeat(np.arange(n), np.diff(indptr))
        assert validate_graph(canon) == helpers.validate_graph_loop(
            n, canon_src, indices
        ), f"seed {seed}"
    assert kinds == {"no successor", "duplicate"}
    assert rejected >= 100


# ---------------------------------------------------------------------------
# Text format


def test_load_frozen_example(g2_game):
    g = load_game(G2_TEXT)
    assert g.n == 2
    assert g.owner(0) == 0 and g.owner(1) == 1
    assert [g.successors(v).tolist() for v in range(2)] == [[1], [0, 1]]
    assert g == helpers.build_game(2, [0, 1], [(0, 1), (1, 0), (1, 1)])


def test_load_with_labels_comments_and_blanks():
    text = (
        "# a game\nstates 2\n\nowner 0 0\nowner 1 1  # adversary\n"
        "edge 0 1\nedge 1 0\nedge 1 1\nlabel 0 M1\nlabel 1 M1 T11\n"
    )
    g = load_game(text)
    assert g.label_names(1) == frozenset({"M1", "T11"})
    assert g == helpers.g2()


def test_round_trip_structural_identity():
    for seed in range(20):
        g = helpers.random_graph(seed)
        assert load_game(serialize_game(g)) == g


def test_round_trip_with_labels(g1_game):
    assert load_game(serialize_game(g1_game)) == g1_game


def test_serialize_matches_loop_oracle():
    for seed in range(60):
        rng = np.random.default_rng(seed)
        n = 0 if seed < 2 else int(rng.integers(1, 12))
        # A self-loop on every state keeps the graph total; the random
        # edges add duplicates.
        src = np.concatenate((np.arange(n), rng.integers(0, max(n, 1), size=2 * n)))
        dst = np.concatenate((np.arange(n), rng.integers(0, max(n, 1), size=2 * n)))
        # Names out of order, some states unlabelled, one proposition empty.
        names = rng.permutation(["b", "A", "a_1", "Z9", "_q"])[: int(rng.integers(0, 6))]
        labels = {str(nm): np.flatnonzero(rng.random(n) < 0.3) for nm in names}
        labels["empty"] = []
        g = GameGraph(n, rng.integers(0, 2, size=n), (src, dst), labels)
        text = serialize_game(g)
        assert text == helpers.serialize_game_loop(g), f"seed {seed}"
        assert load_game(text) == g


def test_serialize_is_canonical_fixed_point():
    text = serialize_game(helpers.g1())
    assert serialize_game(load_game(text)) == text
    assert text.startswith("states 2\n")
    assert "label 1 M1 T11" in text  # names alphabetical


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("owner 0 0\n", "first line must be 'states <n>'"),
        ("states 1\nstates 1\n", "duplicate 'states' line"),
        ("states\n", "expected 'states <n>'"),
        ("states -1\n", "state count must be nonnegative"),
        ("states x\n", "expected integer"),
        ("states 1\nowner 0\n", "expected 'owner <state> <0|1>'"),
        ("states 1\nowner 3 0\n", "state 3 out of range"),
        ("states 1\nowner 0 2\n", "owner must be 0 or 1, got 2"),
        ("states 1\nowner 0 0\nowner 0 1\n", "duplicate owner for state 0"),
        ("states 1\nowner 0 0\nedge 0\n", "expected 'edge <from> <to>'"),
        ("states 1\nowner 0 0\nedge 5 0\n", "edge source 5 out of range"),
        ("states 1\nowner 0 0\nedge 0 5\n", "edge target 5 out of range"),
        ("states 1\nowner 0 0\nedge 0 -1\n", "edge target -1 out of range"),
        ("states 1\nowner 0 0\nedge 0 1\n", "edge target 1 out of range"),
        ("states 1\nowner 0 0\nedge 0 0\nlabel 0\n", "expected 'label"),
        ("states 1\nowner 0 0\nedge 0 0\nlabel 0 9bad\n", "invalid proposition"),
        ("states 1\nowner 0 0\nedge 0 0\nlabel 5 P\n", "state 5 out of range"),
        ("states 1\nowner 0 0\nfrobnicate 1 2\n", "unknown directive"),
        ("", "missing 'states' line"),
        ("states 2\nowner 0 0\nedge 0 1\nedge 1 0\n", "missing owner for state 1"),
        ("states 1\nowner 0 0\nedge 0 0\nowner 0 0\n", "'owner' line after 'edge' section"),
    ],
)
def test_load_errors(text, fragment):
    with pytest.raises(GameParseError) as err:
        load_game(text)
    assert fragment in str(err.value)


def test_load_error_reports_line_number():
    with pytest.raises(GameParseError) as err:
        load_game("states 2\nowner 0 0\nowner 1 1\nedge 0 9\n")
    assert str(err.value).startswith("line 4:")
    assert err.value.line == 4


def test_load_rejects_non_total_graph():
    with pytest.raises(ValidationError) as err:
        load_game("states 2\nowner 0 0\nowner 1 1\nedge 0 1\n")
    assert "state 1: no successor" in str(err.value)


def test_load_reports_duplicates_and_missing_successors_in_order():
    text = (
        "states 3\nowner 0 0\nowner 1 1\nowner 2 0\n"
        "edge 0 1\nedge 0 1\nedge 2 2\nedge 2 0\nedge 2 2\n"
    )
    with pytest.raises(ValidationError) as err:
        load_game(text)
    assert str(err.value) == (
        "state 0: duplicate edge to 1; state 1: no successor; "
        "state 2: duplicate edge to 2"
    )
    # Edges out of source order: each state's duplicates in file order.
    text = (
        "states 4\nowner 0 0\nowner 1 1\nowner 2 0\nowner 3 1\n"
        "edge 2 2\nedge 0 1\nedge 2 0\nedge 0 1\nedge 2 0\nedge 2 2\nedge 0 1\n"
    )
    with pytest.raises(ValidationError) as err:
        load_game(text)
    assert str(err.value) == (
        "state 0: duplicate edge to 1; state 0: duplicate edge to 1; "
        "state 1: no successor; state 2: duplicate edge to 0; "
        "state 2: duplicate edge to 2; state 3: no successor"
    )


def test_load_rejects_state_count_above_bound():
    with pytest.raises(BoundExceeded, match="exceeds the bound"):
        load_game(f"states {MAX_STATES + 1}\n")


def test_count_successors_in(g2_game):
    mask = np.array([False, True])
    assert PreTracker(g2_game, full=False).counts(mask).tolist() == [1, 1]
