"""The array readers of game, strategy and winning-set files.

Files in the shape that serialize_game, format_strategy and format_winning
write are read as arrays; every other text goes through the line parsers.
Both must give the same result, or the same error, on every text, so a
seeded fuzz mutates written files and compares ``load_game``,
``parse_strategy`` and ``parse_winning`` with the line parsers called
directly.
"""

from __future__ import annotations

import numpy as np
import pytest

from mtgames import game as game_mod
from mtgames import strategy as strategy_mod
from mtgames.benchgen import (
    RobotWorld,
    gen_cleaning_robot,
    gen_multi_target_series,
    gen_random_game,
    scaled_rooms,
)
from mtgames.errors import ValidationError
from mtgames.game import (
    GameGraph,
    _load_arrays,
    _load_game_lines,
    load_game,
    serialize_game,
)
from mtgames.sets import StateSet
from mtgames.strategy import (
    Strategy,
    _parse_strategy_lines,
    _parse_winning_lines,
    format_strategy,
    format_winning,
    parse_strategy,
    parse_winning,
)

# Replacement tokens of the fuzz; "n" stands for the state count. A vertical
# tab ends a line for str.splitlines.
TOKENS = ("-1", "n", str(2**64), "2**64", "01", "+1", "1_0", "٣", "x", "", "\x0b")


def robot(side: int, rooms: int) -> GameGraph:
    return gen_cleaning_robot(RobotWorld(side, side, scaled_rooms(side, side, rooms)))[0]


def no_labels() -> GameGraph:
    return GameGraph(3, [0, 1, 0], [(0, 1), (1, 2), (2, 0), (2, 2)])


def fuzz_games() -> list[GameGraph]:
    # A name longer than the array reader takes sends its file to the line
    # parser.
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
        kind = int(rng.integers(0, 11))
        if not lines:
            lines.append("")
        i = int(rng.integers(0, len(lines)))
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
        elif kind == 4:
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
            lines[i] = line + "\r"
        elif kind == 9:
            lines[i] = line.replace(" ", "\t", 1)
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
    by_arrays = 0
    for case in range(2400):
        game = games[case % len(games)]
        text = serialize_game(game)
        if case >= len(games):
            text = mutate(text, game.n, rng)
        expected = outcome(_load_game_lines, text)
        assert outcome(load_game, text) == expected, (case, text)
        try:
            by_arrays += _load_arrays(text) is not None
        except ValidationError:
            by_arrays += 1
    # The fuzz reaches the array path with files other than the originals
    # (reordered owner, edge and label lines, leading zeros, and edge lines
    # repeated or dropped, whose issues the array path words).
    assert by_arrays > 2 * len(games)


def test_edge_issues_of_a_written_file_are_worded_from_its_arrays(monkeypatch):
    lines = serialize_game(no_labels()).splitlines(keepends=True)
    edge = lines.index("edge 1 2\n")
    texts = (
        # edge 1 2 listed twice, and state 1 with no edge at all.
        "".join(lines[: edge + 1] + lines[edge:]),
        "".join(lines[:edge] + lines[edge + 1 :]),
    )
    expected = [outcome(_load_game_lines, text) for text in texts]
    assert [e[:2] for e in expected] == [
        (ValidationError, "state 1: duplicate edge to 2"),
        (ValidationError, "state 1: no successor"),
    ]

    def refuse(text):
        raise AssertionError("line parser called on a written file")

    monkeypatch.setattr(game_mod, "_load_game_lines", refuse)
    assert [outcome(load_game, text) for text in texts] == expected


def written_strategies(rng: np.random.Generator) -> list[tuple[str, str, int]]:
    files = []
    for n in (0, 1, 3, 8, 20, 40):
        states = np.flatnonzero(rng.random(n) < 0.6).tolist()
        choices = {v: int(rng.integers(0, max(n, 1))) for v in states}
        size = None if n == 3 else len(states)
        files.append(
            (format_strategy(Strategy(choices, size)), format_winning(StateSet(n, states)), n)
        )
    return files


def test_strategy_and_winning_readers_equal_the_line_parsers_on_mutated_files(monkeypatch):
    fallbacks = []

    def counted(parse):
        def run(*args):
            fallbacks.append(parse)
            return parse(*args)

        return run

    monkeypatch.setattr(strategy_mod, "_parse_strategy_lines", counted(_parse_strategy_lines))
    monkeypatch.setattr(strategy_mod, "_parse_winning_lines", counted(_parse_winning_lines))
    rng = np.random.default_rng(7)
    files = written_strategies(rng)
    cases = 2400
    for case in range(cases):
        strategy_text, winning_text, n = files[case % len(files)]
        if case >= len(files):
            strategy_text = mutate(strategy_text, n, rng)
            winning_text = mutate(winning_text, n, rng)
        for bound in (n, None):
            expected = outcome(_parse_strategy_lines, strategy_text, bound)
            got = outcome(parse_strategy, strategy_text, bound)
            assert got == expected, (case, strategy_text, bound)
        expected = outcome(_parse_winning_lines, winning_text, n)
        assert outcome(parse_winning, winning_text, n) == expected, (case, winning_text)
    # Both readers also take the array path on some mutated files.
    assert 2 * cases - fallbacks.count(_parse_strategy_lines) > 2 * len(files)
    assert cases - fallbacks.count(_parse_winning_lines) > len(files)


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
    loaded = _load_arrays(text)
    assert loaded is not None
    assert outcome(lambda: loaded) == outcome(_load_game_lines, text)
    assert loaded == game


def test_written_strategy_and_winning_files_load_as_arrays(monkeypatch):
    files = [f for f in written_strategies(np.random.default_rng(3)) if f[0].startswith("#")]
    expected = [
        (outcome(_parse_strategy_lines, s, n), outcome(_parse_winning_lines, w, n))
        for s, w, n in files
    ]

    def refuse(*args):
        raise AssertionError("line parser called on a written file")

    monkeypatch.setattr(strategy_mod, "_parse_strategy_lines", refuse)
    monkeypatch.setattr(strategy_mod, "_parse_winning_lines", refuse)
    for (s, w, n), want in zip(files, expected):
        assert (outcome(parse_strategy, s, n), outcome(parse_winning, w, n)) == want
