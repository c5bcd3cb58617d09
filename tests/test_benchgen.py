"""Benchmark generators: the cleaning-robot gridworld and the random
game family, including determinism and structural soundness."""

from __future__ import annotations

import pytest

import helpers
from mtgames.benchgen import (
    MAX_ROOMS,
    ROOM_BOXES,
    RobotWorld,
    gen_cleaning_robot,
    gen_fixpoint_witness,
    gen_multi_target_series,
    gen_random_game,
    scaled_rooms,
)
from mtgames.errors import BoundExceeded, ValidationError
from mtgames.game import serialize_game, validate_graph
from mtgames.solver import solve_mt
from mtgames.specs import ModeSpec, MTSpec, bind_spec, format_spec_file, require_exclusive


def assert_modes_partition_states(game, spec):
    bound = bind_spec(game, spec)
    require_exclusive(bound)
    assert (bound.mode_index_of() >= 0).all()


# ---------------------------------------------------------------------------
# Room scaling


def test_scaled_rooms_frozen_26():
    # 26 cells span the 6.5-unit frame, so one frame unit is 4 cells;
    # e.g. the box (1,1)-(3,2.5) covers columns 0..8 and rows 0..6.
    assert scaled_rooms(26, 26, 5) == [
        (0, 0, 8, 6),
        (0, 8, 8, 16),
        (10, 8, 18, 18),
        (10, 0, 18, 6),
        (20, 4, 25, 16),
    ]


def test_scaled_rooms_disjoint_and_in_bounds():
    for size in (8, 16, 26, 40):
        rooms = scaled_rooms(size, size, 5)
        world = RobotWorld(size, size, rooms)  # validates bounds + overlap
        assert world.room_count == 5


def test_scaled_rooms_are_disjoint_or_word_the_grid_too_small():
    # Truncation can merge boxes that the reference frame keeps apart; such
    # a grid is refused by name, never handed on as overlapping rooms.
    grids = [(s, s) for s in range(2, 41)] + [(6, 5), (16, 12), (40, 3), (3, 40)]
    refused = 0
    for width, height in grids:
        for k in range(1, 6):
            try:
                rooms = scaled_rooms(width, height, k)
            except ValidationError as exc:
                assert str(exc) == (
                    f"grid {width}x{height} is too small for {k} built-in rooms; "
                    "supply boxes"
                )
                refused += 1
                continue
            assert RobotWorld(width, height, rooms).room_count == k
    assert 0 < refused < len(grids) * 5


def test_scaled_rooms_rejects_too_many():
    with pytest.raises(ValidationError, match="supply boxes"):
        scaled_rooms(16, 16, len(ROOM_BOXES) + 1)


# ---------------------------------------------------------------------------
# World validation


def test_world_validation_errors():
    with pytest.raises(ValidationError, match="positive dimensions"):
        RobotWorld(0, 4, [(0, 0, 1, 1)])
    with pytest.raises(ValidationError, match="room count"):
        RobotWorld(4, 4, [])
    with pytest.raises(ValidationError, match="room count"):
        RobotWorld(40, 40, [(i, i, i, i) for i in range(MAX_ROOMS + 1)])
    with pytest.raises(ValidationError, match="out of grid bounds"):
        RobotWorld(4, 4, [(0, 0, 4, 1)])
    with pytest.raises(ValidationError, match="overlap"):
        RobotWorld(4, 4, [(0, 0, 2, 2), (2, 2, 3, 3)])
    with pytest.raises(ValidationError, match="nonnegative"):
        RobotWorld(4, 4, [(0, 0, 1, 1)], obstacles=-1)
    with pytest.raises(ValidationError, match="hallway"):
        gen_cleaning_robot(RobotWorld(2, 2, [(0, 0, 1, 1)], obstacles=1))


# ---------------------------------------------------------------------------
# Robot game structure


def world_2rooms():
    return RobotWorld(4, 4, [(0, 0, 1, 1), (2, 2, 3, 3)])


def test_robot_two_rooms_shape():
    game, spec = gen_cleaning_robot(world_2rooms())
    # 16 cells x 3 dirty-set modes x 2 turn phases.
    assert game.n == 16 * 3 * 2
    assert spec.mode_count == 3
    assert [m.name for m in spec.modes] == ["M1", "M2", "M3"]
    assert spec.modes[0].targets == ("T1",)
    assert spec.modes[1].targets == ("T2",)
    assert spec.modes[2].targets == ("T1", "T2")
    assert validate_graph(game) == []
    assert_modes_partition_states(game, spec)


def test_robot_turns_alternate():
    game, spec = gen_cleaning_robot(world_2rooms())
    mode_count = 3

    def parts(v):
        cell, rest = divmod(v, 2 * mode_count)
        mask = rest // 2 + 1
        turn = rest % 2
        return cell, mask, turn

    for v in range(game.n):
        cell, mask, turn = parts(v)
        assert game.owner(v) == turn
        for w in game.successors(v):
            c2, m2, t2 = parts(int(w))
            assert t2 == 1 - turn
            if turn == 0:
                assert m2 == mask  # robot moves never change the dirty set
            else:
                assert c2 == cell  # environment moves never change the cell


def test_robot_mode_transitions():
    game, _ = gen_cleaning_robot(world_2rooms())
    mode_count = 3

    def sidx(cell, mask, turn):
        return (cell * mode_count + mask - 1) * 2 + turn

    def p1_masks(cell, mask):
        return sorted(
            (int(w) - sidx(0, 1, 0)) // 2 % mode_count + 1
            for w in game.successors(sidx(cell, mask, 1))
        )

    # Hallway cell 2 (top row, outside both rooms): the set never changes.
    for mask in (1, 2, 3):
        assert p1_masks(2, mask) == [mask]
    # Cell 0 sits in room 1. With both rooms dirty (mask 3) the
    # environment may clean room 1 (drop to mask 2) or stall.
    assert p1_masks(0, 3) == [2, 3]
    # With only room 1 dirty it may also restart with any nonempty set.
    assert p1_masks(0, 1) == [1, 2, 3]
    # With only room 2 dirty, standing in room 1 changes nothing.
    assert p1_masks(0, 2) == [2]
    # Cell 10 sits in room 2 (cols 2..3, rows 2..3).
    assert p1_masks(10, 3) == [1, 3]
    assert p1_masks(10, 2) == [1, 2, 3]
    assert p1_masks(10, 1) == [1]


def test_robot_moves_are_grid_neighbors():
    game, _ = gen_cleaning_robot(world_2rooms())
    mode_count, width = 3, 4

    def sidx(cell, mask, turn):
        return (cell * mode_count + mask - 1) * 2 + turn

    def robot_cells(cell, mask):
        return sorted(
            int(w) // (2 * mode_count) for w in game.successors(sidx(cell, mask, 0))
        )

    assert robot_cells(0, 1) == [0, 1, 4]  # corner: stay, right, down
    assert robot_cells(5, 1) == [1, 4, 5, 6, 9]  # interior: stay + 4 ways
    assert robot_cells(15, 1) == [11, 14, 15]  # far corner


def test_robot_single_room_covering_grid_wins_everywhere():
    game, spec = gen_cleaning_robot(RobotWorld(2, 2, [(0, 0, 1, 1)]))
    assert game.n == 4 * 1 * 2
    result = solve_mt(game, spec)
    assert len(result.winning) == game.n


def test_robot_full_benchmark_size():
    game, spec = gen_cleaning_robot(RobotWorld(26, 26, scaled_rooms(26, 26, 5)))
    assert game.n == 26 * 26 * 31 * 2
    assert spec.mode_count == 31
    assert spec.max_targets == 5
    assert spec.sum_targets == sum(bin(mask).count("1") for mask in range(1, 32))


def test_robot_obstacles_block_moves():
    base = RobotWorld(6, 6, [(0, 0, 1, 1)])
    with_obs = RobotWorld(6, 6, [(0, 0, 1, 1)], seed=3, obstacles=8)
    g0, _ = gen_cleaning_robot(base)
    g1, _ = gen_cleaning_robot(with_obs)
    assert validate_graph(g1) == []
    assert g1.num_edges < g0.num_edges  # blocked cells prune robot moves


def test_robot_deterministic():
    a = gen_cleaning_robot(RobotWorld(5, 4, [(0, 0, 1, 1)], seed=2, obstacles=3))
    b = gen_cleaning_robot(RobotWorld(5, 4, [(0, 0, 1, 1)], seed=2, obstacles=3))
    assert a[0] == b[0]
    assert a[1] == b[1]


# ---------------------------------------------------------------------------
# Random games


def test_random_game_structure():
    game, spec = gen_random_game(50, 3, [2, 1, 3], 2.0, 11)
    assert game.n == 50
    assert validate_graph(game) == []
    assert_modes_partition_states(game, spec)
    assert spec.target_counts == (2, 1, 3)
    # Every mode is inhabited (the first m states are pinned to them).
    for i, mode in enumerate(spec.modes):
        assert game.prop_set(mode.name).bits[i]
        for t in mode.targets:
            assert len(game.prop_set(t)) >= 1


def test_random_game_alternating_owners():
    game, _ = gen_random_game(10, 1, [1], 2.0, 0, alternate_owners=True)
    assert [game.owner(v) for v in range(10)] == [0, 1] * 5


def test_random_game_deterministic():
    a = gen_random_game(30, 2, [2, 1], 2.0, 9)
    b = gen_random_game(30, 2, [2, 1], 2.0, 9)
    assert a[0] == b[0] and a[1] == b[1]
    c = gen_random_game(30, 2, [2, 1], 2.0, 10)
    assert a[0] != c[0]


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n=2, m=3, targets=[1, 1, 1], density=2.0, seed=0),
        dict(n=5, m=0, targets=[], density=2.0, seed=0),
        dict(n=5, m=2, targets=[1], density=2.0, seed=0),
        dict(n=5, m=2, targets=[1, 0], density=2.0, seed=0),
        dict(n=5, m=1, targets=[1], density=0.0, seed=0),
        dict(n=5, m=1, targets=[1], density=float("nan"), seed=0),
        dict(n=5, m=1, targets=[1], density=float("inf"), seed=0),
    ],
)
def test_random_game_infeasible_parameters(kwargs):
    with pytest.raises(ValidationError, match="infeasible parameters"):
        gen_random_game(**kwargs)


# ---------------------------------------------------------------------------
# Multi-target series


def test_series_shares_one_graph():
    series = gen_multi_target_series(40, 3, 2.0, 4, extras=[1, 2, 3, 4])
    assert len(series) == 4
    base_game = series[0][0]
    for x, (game, spec) in zip([1, 2, 3, 4], series):
        assert game is base_game
        assert spec.target_counts == (x, 1, 1)
        assert spec.modes[0].targets == series[-1][1].modes[0].targets[:x]
        assert spec.modes[1:] == series[-1][1].modes[1:]


def test_series_winning_sets_grow_with_targets():
    series = gen_multi_target_series(30, 2, 2.0, 8, extras=[1, 2, 3])
    wins = [helpers.frozen(solve_mt(g, s).winning) for g, s in series]
    assert wins[0] <= wins[1] <= wins[2]


def test_series_rejects_bad_extras():
    with pytest.raises(ValidationError, match="extras"):
        gen_multi_target_series(20, 2, 2.0, 0, extras=[])
    with pytest.raises(ValidationError, match="extras"):
        gen_multi_target_series(20, 2, 2.0, 0, extras=[0, 1])


# ---------------------------------------------------------------------------
# The fixed-point witness family


def test_fixpoint_witness_shape():
    # k = 2: a0 a1 b c0 c1 d e0 e1 e2 e3, every state Player 0's.
    game, spec = gen_fixpoint_witness(2)
    assert game.n == 10
    assert not any(game.owner(v) for v in range(game.n))
    assert [game.successors(v).tolist() for v in range(game.n)] == [
        [1], [2], [3], [4], [5], [5], [7], [8], [9], [9]
    ]
    assert {p: game.prop_set(p).indices().tolist() for p in game.props} == {
        "M1": [0, 1, 2, 3, 4],
        "T1": [0, 1],
        "M2": [5, 6, 8, 9],
        "T2": [5],
        "M3": [7],
        "T3": [7],
    }
    assert spec == MTSpec(tuple(ModeSpec(f"M{i}", (f"T{i}",)) for i in (1, 2, 3)))
    assert_modes_partition_states(game, spec)
    # Everything up to d wins; every e state runs into the last, which
    # stays in M2 outside T2.
    assert solve_mt(game, spec).winning.indices().tolist() == list(range(6))
    # With k = 1 the only odd e state is the last, and M3 labels nothing.
    game, _ = gen_fixpoint_witness(1)
    assert game.n == 6 and len(game.prop_set("M3")) == 0


def test_fixpoint_witness_rejects_bad_sizes():
    with pytest.raises(ValidationError, match="k must be positive"):
        gen_fixpoint_witness(0)
    with pytest.raises(BoundExceeded):
        gen_fixpoint_witness(10**7)


# ---------------------------------------------------------------------------
# Array generators against the loop construction


def assert_same_instance(built, reference):
    (game, spec), (ref_game, ref_spec) = built, reference
    assert game == ref_game
    assert game.props == ref_game.props
    assert spec == ref_spec
    assert serialize_game(game) == serialize_game(ref_game)
    assert format_spec_file(spec) == format_spec_file(ref_spec)


def robot_world_sweep():
    for size in range(1, 11):
        for k in range(1, 6):
            try:
                yield RobotWorld(size, size, scaled_rooms(size, size, k))
            except ValidationError:
                pass
    yield RobotWorld(16, 16, scaled_rooms(16, 16, 5))  # the benchmark's world
    for seed in range(5):
        for obstacles in (0, 3, 10):
            yield RobotWorld(8, 8, scaled_rooms(8, 8, 2), seed=seed, obstacles=obstacles)
    yield RobotWorld(12, 12, scaled_rooms(12, 12, 3), seed=1, obstacles=12)
    yield RobotWorld(16, 12, scaled_rooms(16, 12, 3))
    for k in range(1, MAX_ROOMS + 1):
        # k rooms of two cells in one column each, in two rows of up to five,
        # and obstacles for odd k.
        boxes = [(c % 5 * 2, c // 5 * 5, c % 5 * 2, c // 5 * 5 + 1) for c in range(k)]
        yield RobotWorld(10, 7, boxes, seed=k, obstacles=7 * (k % 2))
    yield RobotWorld(1, 7, [(0, 2, 0, 3)])
    yield RobotWorld(9, 1, [(0, 0, 1, 0), (5, 0, 8, 0)], seed=4, obstacles=2)


def test_robot_equals_the_loop_construction():
    worlds = list(robot_world_sweep())
    assert len(worlds) == 45
    for world in worlds:
        assert_same_instance(gen_cleaning_robot(world), helpers.gen_cleaning_robot_loop(world))


def test_random_game_equals_the_pair_list_construction():
    for n in (1, 2, 3, 7, 50, 333, 5000):
        for m in (1, 2, 4):
            if m > n:
                continue
            targets = [i % 3 + 1 for i in range(m)]
            for density in (0.5, 2.0):
                for alternate in (False, True):
                    args = (n, m, targets, density, n + m)
                    assert_same_instance(
                        gen_random_game(*args, alternate_owners=alternate),
                        helpers.gen_random_game_pairs(*args, alternate),
                    )


def test_series_equals_the_pair_list_construction():
    series = gen_multi_target_series(600, 9, 2.0, 0, extras=list(range(1, 11)))
    game, full = helpers.gen_random_game_pairs(600, 9, [10] + [1] * 8, 2.0, 0)
    for x, built in zip(range(1, 11), series):
        first = ModeSpec(full.modes[0].name, full.modes[0].targets[:x])
        assert_same_instance(built, (game, MTSpec((first,) + full.modes[1:])))
