"""The readers of game, strategy and winning-set files.

``load_game``, ``parse_strategy`` and ``parse_winning`` read every text as
arrays. They must give the result, or the error, of the line parsers in
``helpers``, which read one line at a time with Python's own str methods,
so a seeded fuzz mutates written files and compares the two on each.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from helpers import load_game_lines, mask_of, parse_strategy_lines, parse_winning_lines
from mtgames import tokens
from mtgames.benchgen import (
    RobotWorld,
    gen_cleaning_robot,
    gen_multi_target_series,
    gen_random_game,
    scaled_rooms,
)
from mtgames.errors import ValidationError
from mtgames.game import MAX_STATES, GameGraph, load_game, serialize_game
from mtgames.sets import StateSet
from mtgames.strategy import (
    Strategy,
    format_strategy,
    format_winning,
    parse_strategy,
    parse_winning,
)

# Whitespace other than a space: str.split() separates tokens at each, and
# str.splitlines() ends a line at each but the tab, \x1f, \xa0 and \u3000.
SPACES = ("\t", "\r", "\x0b", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2028", "\u3000")
# Replacement tokens of the fuzz; "n" stands for the state count. int()
# refuses a string of more than 4300 digits, and after "\r#c" the line
# break that ends the comment is a second one.
TOKENS = (
    ("-1", "n", str(2**64), "2**64", "01", "+1", "1_0", "\u0663", "x", "", "1#c", "#c", "\r#c")
    + ("N" * 40, str(MAX_STATES + 1), "9" * 5000)
    + SPACES
)


def robot(side: int, rooms: int) -> GameGraph:
    return gen_cleaning_robot(RobotWorld(side, side, scaled_rooms(side, side, rooms)))[0]


def no_labels() -> GameGraph:
    return GameGraph(3, [0, 1, 0], [(0, 1), (1, 2), (2, 0), (2, 2)])


def fuzz_games() -> list[GameGraph]:
    long_name = GameGraph(2, [0, 1], [(0, 1), (1, 0)], {"P" * 40: [0], "Q": [0, 1]})
    games = [GameGraph(0, [], []), no_labels(), long_name, robot(4, 2)]
    for seed, n in enumerate((1, 2, 5, 9, 17, 30)):
        m = min(n, 1 + seed % 3)
        games.append(gen_random_game(n, m, [1 + seed % 2] * m, 1.5, seed)[0])
    games.append(gen_random_game(12, 2, [1, 2], 1.5, 7, alternate_owners=True)[0])
    games.append(gen_multi_target_series(20, 3, 2.0, 5, [2])[0][0])
    return games


def mutate(text: str, n: int, rng: np.random.Generator) -> str:
    """One to three random edits of a written file's lines, tokens and
    whitespace."""
    lines = text.split("\n")[:-1]
    for _ in range(int(rng.integers(1, 4))):
        kind = int(rng.integers(0, 13))
        if not lines:
            lines.append("")
        # The first line, as any other, and as often as all the others.
        i = 0 if kind == 11 else int(rng.integers(0, len(lines)))
        line = lines[i]
        if kind == 0:
            del lines[i]
        elif kind == 1:
            lines.insert(i, line)
        elif kind == 2:
            j = int(rng.integers(0, len(lines)))
            lines[i], lines[j] = lines[j], line
        elif kind == 3:
            lines[i] = line[: int(rng.integers(0, len(line) + 1))]
        elif kind in (4, 11):
            parts = line.split(" ")
            new = str(rng.choice(TOKENS))
            parts[int(rng.integers(0, len(parts)))] = str(n) if new == "n" else new
            lines[i] = " ".join(parts)
        elif kind == 5:
            lines.insert(i, "# a comment")
        elif kind == 6:
            lines[i] = line + "  # a comment"
        elif kind == 7:
            lines.insert(i, "")
        elif kind == 8:
            # A CR before the newline: a CRLF line break.
            lines[i] = line + "\r"
        elif kind == 9:
            lines[i] = line.replace(" ", str(rng.choice(SPACES)), 1)
        elif kind == 12:
            # A separator or "#" anywhere in the line.
            at = int(rng.integers(0, len(line) + 1))
            lines[i] = line[:at] + str(rng.choice(SPACES + ("#",))) + line[at:]
        else:
            lines[i] = line + "  "
    out = "\n".join(lines) + "\n"
    return out[:-1] if rng.random() < 0.1 else out


def outcome(parse, *args):
    """What a parser makes of its input: a comparable summary of the value,
    or the error's type, message and line."""
    try:
        value = parse(*args)
    except Exception as exc:  # noqa: BLE001 - any difference must show
        return type(exc), str(exc), getattr(exc, "line", None)
    if isinstance(value, GameGraph):
        src, dst = value.edge_arrays
        return (
            value.n,
            value.is_player0_mask.tolist(),
            src.tolist(),
            dst.tolist(),
            value.props,
            [value.prop_set(name).bits.tolist() for name in value.props],
        )
    if isinstance(value, Strategy):
        return list(value.choices.items()), value.winning_size
    return value.universe, value.bits.tolist()


def test_load_game_equals_the_line_parser_on_mutated_files():
    games = fuzz_games()
    rng = np.random.default_rng(20240)
    for case in range(2400):
        game = games[case % len(games)]
        text = serialize_game(game)
        if case >= len(games):
            text = mutate(text, game.n, rng)
        assert outcome(load_game, text) == outcome(load_game_lines, text), (case, text)


def test_edge_issues_of_a_written_file_are_worded_from_its_arrays():
    lines = serialize_game(no_labels()).splitlines(keepends=True)
    edge = lines.index("edge 1 2\n")
    texts = (
        # edge 1 2 listed twice, and state 1 with no edge at all.
        "".join(lines[: edge + 1] + lines[edge:]),
        "".join(lines[:edge] + lines[edge + 1 :]),
    )
    expected = [outcome(load_game_lines, text) for text in texts]
    assert [e[:2] for e in expected] == [
        (ValidationError, "state 1: duplicate edge to 2"),
        (ValidationError, "state 1: no successor"),
    ]
    assert [outcome(load_game, text) for text in texts] == expected


def written_strategies(rng: np.random.Generator) -> list[tuple[str, str, int]]:
    files = []
    for n in (0, 1, 3, 8, 20, 40):
        states = np.flatnonzero(rng.random(n) < 0.6).tolist()
        choices = {v: int(rng.integers(0, max(n, 1))) for v in states}
        size = None if n == 3 else len(states)
        files.append(
            (format_strategy(Strategy(choices, size)), format_winning(StateSet(mask_of(n, states))), n)
        )
    return files


def test_strategy_and_winning_readers_equal_the_line_parsers_on_mutated_files():
    rng = np.random.default_rng(7)
    files = written_strategies(rng)
    for case in range(2400):
        strategy_text, winning_text, n = files[case % len(files)]
        if case >= len(files):
            strategy_text = mutate(strategy_text, n, rng)
            winning_text = mutate(winning_text, n, rng)
        expected = outcome(parse_strategy_lines, strategy_text, n)
        got = outcome(parse_strategy, strategy_text, n)
        assert got == expected, (case, strategy_text)
        expected = outcome(parse_winning_lines, winning_text, n)
        assert outcome(parse_winning, winning_text, n) == expected, (case, winning_text)


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: robot(16, 5), id="robot-16x16-5-rooms"),
        pytest.param(
            lambda: gen_random_game(20000, 4, [3, 1, 2, 1], 2.0, 0)[0], id="random-20000"
        ),
        pytest.param(
            lambda: gen_multi_target_series(600, 9, 2.0, 0, [10])[0][0], id="series-600"
        ),
        pytest.param(lambda: GameGraph(0, [], []), id="no-states"),
        pytest.param(no_labels, id="no-labels"),
    ],
)
def test_written_game_files_load_as_arrays(make):
    game = make()
    text = serialize_game(game)
    loaded = load_game(text)
    assert outcome(lambda: loaded) == outcome(load_game_lines, text)
    assert loaded == game


def test_written_strategy_and_winning_files_load_as_arrays():
    files = [f for f in written_strategies(np.random.default_rng(3)) if f[0].startswith("#")]
    for s, w, n in files:
        want = (outcome(parse_strategy_lines, s, n), outcome(parse_winning_lines, w, n))
        assert (outcome(parse_strategy, s, n), outcome(parse_winning, w, n)) == want


def test_a_long_name_costs_its_own_length_once():
    # One 1 MB name among 10**4 label lines: names padded to the longest
    # would ask for 10 GB.
    n = 10_000
    labels = {"P" * 2**20: [n // 2], "Q": list(range(n))}
    text = serialize_game(GameGraph(n, [0] * n, [(v, v) for v in range(n)], labels))
    tracemalloc.start()
    try:
        game = load_game(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert game.props == ("Q", "P" * 2**20)
    assert peak < 20 * len(text)


def test_split_takes_the_whitespace_and_line_breaks_of_str():
    # str.split() separates tokens at these code points, and
    # str.splitlines() ends a line at those it names.
    every = "".join(map(chr, range(0x3100)))
    assert "".join(c for c in every if c.isspace()) == tokens._SPACES
    assert "".join(c for c in every if len(f"a{c}b".splitlines()) == 2) == tokens._BREAKS
    assert not any(chr(c).isspace() for c in range(0x3100, 0x110000))
