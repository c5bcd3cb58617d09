"""Command-line interface: exit codes, exact CSV schema, file outputs,
and the compare harness."""

from __future__ import annotations

import errno
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest

import helpers
import mtgames
from mtgames import benchgen, cli
from mtgames.fixpoint import ModeTrace
from mtgames.game import load_game, serialize_game
from mtgames.sets import StateSet
from mtgames.solver import solve_mt
from mtgames.specs import format_spec_file, parse_spec_file
from mtgames.strategy import parse_strategy, parse_winning

CSV_ROW = re.compile(
    r"^(mt|gr1emb),\d+,\d+,\d+,\d+,\d+,\d+,\d+\.\d{3},\d+$"
)


def write_instance(tmp_path, name, game, spec):
    game_path = tmp_path / f"{name}.game"
    spec_path = tmp_path / f"{name}.spec"
    game_path.write_text(serialize_game(game), encoding="utf-8")
    spec_path.write_text(format_spec_file(spec), encoding="utf-8")
    return game_path, spec_path


@pytest.fixture()
def g1_files(tmp_path):
    return write_instance(tmp_path, "g1", helpers.g1(), helpers.one_mode_spec())


def strip_wall_ms(csv_text: str) -> list[str]:
    rows = []
    for line in csv_text.strip().splitlines():
        cols = line.split(",")
        if cols[0] != "algo":
            cols[7] = "_"
        rows.append(",".join(cols))
    return rows


# ---------------------------------------------------------------------------
# solve


def test_solve_human_output(g1_files, capsys):
    game_path, spec_path = g1_files
    assert cli.main(["solve", str(game_path), str(spec_path)]) == 0
    out = capsys.readouterr().out
    assert re.match(
        r"algo=mt n=2 m=1 sum_t=1 max_t=1 pre_count=\d+ "
        r"outer_iterations=\d+ wall_ms=\d+\.\d{3} winning_size=2\n",
        out,
    )


def test_solve_with_inline_formula(g1_files, capsys):
    game_path, _ = g1_files
    assert cli.main(["solve", str(game_path), "--ltl", "(FG M1 -> FG T11)"]) == 0
    assert "winning_size=2" in capsys.readouterr().out


def test_solve_gr1emb_algo(g1_files, capsys):
    game_path, spec_path = g1_files
    assert cli.main(["solve", str(game_path), str(spec_path), "--algo", "gr1emb"]) == 0
    assert "algo=gr1emb" in capsys.readouterr().out


def test_solve_csv_schema(g1_files, tmp_path, capsys):
    game_path, spec_path = g1_files
    csv_path = tmp_path / "run.csv"
    assert cli.main(["solve", str(game_path), str(spec_path), "--csv", str(csv_path)]) == 0
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "algo,n,m,sum_t,max_t,pre_count,outer_iterations,wall_ms,winning_size"
    assert len(lines) == 2
    assert CSV_ROW.match(lines[1])


def test_solve_writes_winning_and_strategy(g1_files, tmp_path, capsys):
    game_path, spec_path = g1_files
    win_path = tmp_path / "w.txt"
    strat_path = tmp_path / "s.txt"
    rc = cli.main(
        [
            "solve",
            str(game_path),
            str(spec_path),
            "--winning",
            str(win_path),
            "--strategy",
            str(strat_path),
        ]
    )
    assert rc == 0
    winning = parse_winning(win_path.read_text(encoding="utf-8"), 2)
    assert winning.indices().tolist() == [0, 1]
    strat = parse_strategy(strat_path.read_text(encoding="utf-8"), 2)
    assert strat.choices == {0: 1, 1: 1}
    assert strat.winning_size == 2


def test_solve_usage_errors(g1_files, tmp_path, capsys):
    game_path, spec_path = g1_files
    # spec file and --ltl together
    assert (
        cli.main(
            ["solve", str(game_path), str(spec_path), "--ltl", "(FG M1 -> FG T11)"]
        )
        == 2
    )
    # neither spec nor --ltl
    assert cli.main(["solve", str(game_path)]) == 2
    # strategy extraction on the embedded algorithm
    rc = cli.main(
        [
            "solve",
            str(game_path),
            str(spec_path),
            "--algo",
            "gr1emb",
            "--strategy",
            str(tmp_path / "s.txt"),
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "strategy extraction requires --algo mt" in err


def test_solve_missing_file_is_usage_error(tmp_path):
    assert cli.main(["solve", str(tmp_path / "nope.game"), "--ltl", "x"]) == 2


def test_solve_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.game"
    bad.write_text("states zap\n", encoding="utf-8")
    assert cli.main(["solve", str(bad), "--ltl", "(FG M1 -> FG T11)"]) == 2
    assert "error:" in capsys.readouterr().err


def with_bad_byte(path: Path) -> Path:
    """Copy of ``path`` under a new stem, with a byte that is not UTF-8."""
    bad = path.with_name("bad_" + path.name)
    bad.write_bytes(path.read_bytes() + b"# \xff\n")
    return bad


def assert_one_error_line(capsys, path: Path) -> None:
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path} is not UTF-8 text: ")
    assert err.count("\n") == 1


def test_non_utf8_input_exits_2(g1_files, tmp_path, capsys):
    game_path, spec_path = g1_files
    win_path, strat_path = tmp_path / "w.txt", tmp_path / "s.txt"
    solve = ["solve", str(game_path), str(spec_path)]
    outputs = ["--winning", str(win_path), "--strategy", str(strat_path)]
    assert cli.main(solve + outputs) == 0
    capsys.readouterr()
    for i in (1, 2):
        argv = list(solve)
        argv[i] = str(with_bad_byte(Path(argv[i])))
        assert cli.main(argv) == 2
        assert_one_error_line(capsys, argv[i])
    check = ["check", str(game_path), str(spec_path), str(strat_path), str(win_path)]
    for i in range(1, 5):
        argv = list(check)
        argv[i] = str(with_bad_byte(Path(argv[i])))
        assert cli.main(argv) == 2
        assert_one_error_line(capsys, argv[i])
    bad_game = with_bad_byte(game_path)
    spec_path.with_name(bad_game.stem + ".spec").write_bytes(spec_path.read_bytes())
    assert cli.main(["compare", str(bad_game)]) == 2
    assert_one_error_line(capsys, bad_game)
    bad_spec = with_bad_byte(spec_path)
    game_path.with_name(bad_spec.stem + ".game").write_bytes(game_path.read_bytes())
    assert cli.main(["compare", str(bad_spec.with_suffix(".game"))]) == 2
    assert_one_error_line(capsys, bad_spec)


def test_solve_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.game"
    bad.write_text("states 2\nowner 0 0\nowner 1 1\nedge 0 1\n", encoding="utf-8")
    assert cli.main(["solve", str(bad), "--ltl", "(FG M1 -> FG T11)"]) == 1
    assert "no successor" in capsys.readouterr().err


def test_solve_unbound_proposition_is_validation_error(g1_files, capsys):
    game_path, _ = g1_files
    assert cli.main(["solve", str(game_path), "--ltl", "(FG M9 -> FG T11)"]) == 1
    assert "unbound" in capsys.readouterr().err


def test_solve_empty_ltl_is_not_ignored(g1_files, capsys):
    game_path, spec_path = g1_files
    # An empty formula still counts as --ltl: with a spec file it is the
    # usage error, and alone it is the parser's error, as for blank text.
    assert cli.main(["solve", str(game_path), str(spec_path), "--ltl", ""]) == 2
    assert "not both" in capsys.readouterr().err
    for blank in ("", "   "):
        assert cli.main(["solve", str(game_path), "--ltl", blank]) == 2
        err = capsys.readouterr().err
        assert "expected '('" in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "formula",
    [
        "(FG M1 -> FG T11 | FG T11)",  # duplicate target
        "(FG M1 -> FG T11) & (FG M1 -> FG T11)",  # duplicate mode
    ],
)
def test_solve_structurally_invalid_formula_is_spec_error(g1_files, capsys, formula):
    game_path, _ = g1_files
    assert cli.main(["solve", str(game_path), "--ltl", formula]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: duplicate ") and err.count("\n") == 1


def test_solve_records_traces_only_for_strategy(g1_files, tmp_path, capsys, monkeypatch):
    calls = []
    record = ModeTrace.from_iterates

    def spy(*args):
        calls.append(args)
        tr = record(*args)
        assert helpers.same_trace(tr, helpers.recorded_trace_oracle(*args))
        return tr

    monkeypatch.setattr(ModeTrace, "from_iterates", staticmethod(spy))
    game_path, spec_path = g1_files
    strat = tmp_path / "s.txt"
    assert cli.main(["solve", str(game_path), str(spec_path), "--strategy", str(strat)]) == 0
    with_strategy = capsys.readouterr().out
    assert calls
    calls.clear()
    assert cli.main(["solve", str(game_path), str(spec_path)]) == 0
    without_strategy = capsys.readouterr().out
    assert calls == []
    pre_count = re.compile(r"pre_count=\d+")
    assert pre_count.findall(with_strategy) == pre_count.findall(without_strategy)


def test_bad_subcommand_or_flags():
    assert cli.main(["frobnicate"]) == 2
    assert cli.main([]) == 2
    assert cli.main(["solve"]) == 2


def test_one_parser_a_process_answers_as_a_fresh_one(g1_files, capsys, monkeypatch):
    game_path, spec_path = g1_files
    # Two usage errors (argparse's and the command's), a solve and --help,
    # twice over. solve's stdout holds its wall time, so only --help's is
    # compared.
    calls = [["solve"], ["solve", str(game_path)], ["solve", str(game_path), str(spec_path)]]
    calls.append(["--help"])

    def answers():
        runs = []
        for argv in calls * 2:
            code = cli.main(argv)
            out, err = capsys.readouterr()
            runs.append((code, err, out if argv == ["--help"] else None))
        return runs

    assert cli._build_parser() is cli._build_parser()
    cached = answers()
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    assert answers() == cached
    assert [code for code, _, _ in cached] == [2, 2, 0, 0] * 2
    assert "the following arguments are required: game" in cached[0][1]
    assert "a spec file or --ltl is required" in cached[1][1]


# ---------------------------------------------------------------------------
# check


def test_check_pass_and_fail(g1_files, tmp_path, capsys):
    game_path, spec_path = g1_files
    win_path = tmp_path / "w.txt"
    strat_path = tmp_path / "s.txt"
    cli.main(
        [
            "solve",
            str(game_path),
            str(spec_path),
            "--winning",
            str(win_path),
            "--strategy",
            str(strat_path),
        ]
    )
    capsys.readouterr()
    rc = cli.main(
        ["check", str(game_path), str(spec_path), str(strat_path), str(win_path)]
    )
    assert rc == 0
    assert "PASS: strategy confirmed winning from 2 state(s)" in capsys.readouterr().out

    # Sabotage: stall at state 0 forever.
    strat_path.write_text("move 0 0\nmove 1 1\n", encoding="utf-8")
    rc = cli.main(
        ["check", str(game_path), str(spec_path), str(strat_path), str(win_path)]
    )
    assert rc == 1
    out = capsys.readouterr().out
    assert "FAIL: violating-cycle" in out
    assert "counterexample lasso" in out
    assert "states: 0" in out
    assert "labels: {M1}" in out


def test_check_state_bound_exit_code(g1_files, tmp_path, capsys):
    game_path, spec_path = g1_files
    win_path = tmp_path / "w.txt"
    strat_path = tmp_path / "s.txt"
    cli.main(
        [
            "solve",
            str(game_path),
            str(spec_path),
            "--winning",
            str(win_path),
            "--strategy",
            str(strat_path),
        ]
    )
    rc = cli.main(
        [
            "check",
            str(game_path),
            str(spec_path),
            str(strat_path),
            str(win_path),
            "--max-states",
            "1",
        ]
    )
    assert rc == 4


def _solved_g1(g1_files, tmp_path):
    game_path, spec_path = g1_files
    win_path, strat_path = tmp_path / "w.txt", tmp_path / "s.txt"
    argv = ["solve", str(game_path), str(spec_path)]
    assert cli.main(argv + ["--winning", str(win_path), "--strategy", str(strat_path)]) == 0
    return [str(game_path), str(spec_path), str(strat_path), str(win_path)]


def test_check_rejects_move_for_missing_state(g1_files, tmp_path, capsys):
    files = _solved_g1(g1_files, tmp_path)
    with open(files[2], "a", encoding="utf-8") as fh:
        fh.write("move 9 0\n")
    assert cli.main(["check", *files]) == 2
    assert "move for state 9 out of range" in capsys.readouterr().err


def test_check_rejects_winning_header_mismatch(g1_files, tmp_path, capsys):
    files = _solved_g1(g1_files, tmp_path)
    strat = Path(files[2])
    text = strat.read_text(encoding="utf-8")
    assert text.startswith("# winning 2 states\n")
    strat.write_text(text.replace("# winning 2", "# winning 3"), encoding="utf-8")
    assert cli.main(["check", *files]) == 2
    assert "claims 3 winning state(s)" in capsys.readouterr().err
    # Without a header there is nothing to disagree with.
    strat.write_text(text.replace("# winning 2 states\n", ""), encoding="utf-8")
    assert cli.main(["check", *files]) == 0


def test_check_huge_successor_is_an_illegal_edge(g1_files, tmp_path, capsys):
    files = _solved_g1(g1_files, tmp_path)
    huge = 2**64
    Path(files[2]).write_text(f"move 0 {huge}\nmove 1 1\n", encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["check", *files]) == 1
    out = capsys.readouterr().out
    assert out == (
        f"FAIL: illegal-edge: chosen move 0 -> {huge} is not an edge of the graph\n"
        f"  offending edge: 0 -> {huge}\n"
    )


@pytest.mark.parametrize(
    "strategy",
    [
        pytest.param("move {} 1\nmove 1 1\n", id="state"),
        pytest.param("move 0 {}\nmove 1 1\n", id="successor"),
        pytest.param("# winning {} states\nmove 0 1\nmove 1 1\n", id="winning-size"),
    ],
)
def test_check_words_an_integer_too_long_to_read(strategy, g1_files, tmp_path, capsys):
    # int() refuses a decimal string of more than 4300 digits; the reader
    # words it, as it words any other line it cannot read.
    files = _solved_g1(g1_files, tmp_path)
    Path(files[2]).write_text(strategy.format("9" * 5000), encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["check", *files]) == 2
    err = capsys.readouterr().err
    assert "of 5000 digits is too long to read" in err and "Traceback" not in err


def test_check_default_bound_admits_three_room_robot(tmp_path, capsys):
    prefix = str(tmp_path / "robot3")
    assert cli.main(["gen-robot", "--rooms", "3", "--out", prefix]) == 0
    assert "3584 states" in capsys.readouterr().out
    game, spec = prefix + ".game", prefix + ".spec"
    strat, win = prefix + ".strat", prefix + ".win"
    assert cli.main(["solve", game, spec, "--strategy", strat, "--winning", win]) == 0
    assert cli.main(["check", game, spec, strat, win]) == 0


def test_oversized_state_count_exits_4(tmp_path, capsys):
    path = tmp_path / "huge.game"
    path.write_text("states 99999999999\n", encoding="utf-8")
    assert cli.main(["solve", str(path), "--ltl", "(FG M1 -> FG T1)"]) == 4
    assert "exceeds the bound" in capsys.readouterr().err


def test_memory_error_exits_4(g1_files, monkeypatch, capsys):
    def exhausted(text):
        raise MemoryError

    monkeypatch.setattr(cli, "load_game", exhausted)
    game_path, spec_path = g1_files
    assert cli.main(["solve", str(game_path), str(spec_path)]) == 4
    assert "out of memory" in capsys.readouterr().err


def _solve_pre_count(argv, capsys) -> int:
    assert cli.main(argv) == 0
    return int(re.search(r"pre_count=(\d+)", capsys.readouterr().out)[1])


def test_solve_warm_writes_the_cold_winning_set_with_no_more_pre(tmp_path, capsys):
    game, spec = benchgen.gen_random_game(200, 4, [3, 1, 2, 1], 2.0, 0)
    game_path, spec_path = write_instance(tmp_path, "rand", game, spec)
    for algo in ("mt", "gr1emb"):
        base = ["solve", str(game_path), str(spec_path), "--algo", algo, "--winning"]
        cold = _solve_pre_count([*base, str(tmp_path / "cold.txt"), "--no-warm"], capsys)
        warm = _solve_pre_count([*base, str(tmp_path / "warm.txt"), "--warm"], capsys)
        assert warm <= cold, algo
        assert (tmp_path / "warm.txt").read_bytes() == (tmp_path / "cold.txt").read_bytes()


def _run_record(argv, capsys) -> dict[str, str]:
    """The fields of the run line a successful ``solve`` prints."""
    assert cli.main(argv) == 0
    return dict(field.split("=") for field in capsys.readouterr().out.split())


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: benchgen.gen_random_game(200, 4, [3, 1, 2, 1], 2.0, 0), id="random"),
        pytest.param(
            lambda: benchgen.gen_multi_target_series(60, 3, 2.0, 0, [4])[0], id="series"
        ),
        pytest.param(
            lambda: benchgen.gen_cleaning_robot(
                benchgen.RobotWorld(4, 4, benchgen.scaled_rooms(4, 4, 2))
            ),
            id="robot",
        ),
    ],
)
def test_default_solve_is_warm_and_writes_the_cold_files(make, tmp_path, capsys):
    # The benchmark's small instances: the default solve is the --warm one,
    # and it writes the --no-warm one's winning set and strategy, byte for
    # byte, in as many outer rounds and with no more Pre.
    game_path, spec_path = write_instance(tmp_path, "inst", *make())
    for algo in ("mt", "gr1emb"):
        runs = []
        for flags in ([], ["--warm"], ["--no-warm"]):
            name = algo + "".join(flags)
            files = [tmp_path / f"{name}.winning"]
            if algo == "mt":
                files.append(tmp_path / f"{name}.strategy")
            argv = ["solve", str(game_path), str(spec_path), "--algo", algo, *flags]
            for opt, path in zip(("--winning", "--strategy"), files):
                argv += [opt, str(path)]
            runs.append((_run_record(argv, capsys), [f.read_bytes() for f in files]))
        (default, written), (warm, _), (cold, cold_written) = runs
        assert written == cold_written
        assert default["outer_iterations"] == cold["outer_iterations"]
        assert default["pre_count"] == warm["pre_count"]
        assert int(default["pre_count"]) <= int(cold["pre_count"])


# ---------------------------------------------------------------------------
# compare


@pytest.fixture()
def instance_dir(tmp_path):
    d = tmp_path / "corpus"
    d.mkdir()
    for seed in range(3):
        from mtgames.benchgen import gen_random_game

        game, spec = gen_random_game(20 + seed, 2, [2, 1], 2.0, seed)
        write_instance(d, f"inst{seed}", game, spec)
    return d


def test_compare_directory(instance_dir, tmp_path, capsys):
    csv_path = tmp_path / "out.csv"
    rc = cli.main(["compare", str(instance_dir), "--csv", str(csv_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "compared 3 instance(s): all winning sets equal" in out
    assert out.count(" OK") == 3
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == cli.CSV_HEADER
    assert len(lines) == 7  # two rows per instance
    assert [line.split(",")[0] for line in lines[1:]] == ["mt", "gr1emb"] * 3
    for line in lines[1:]:
        assert CSV_ROW.match(line)


def test_compare_single_file_and_prefix(instance_dir, capsys):
    rc = cli.main(["compare", str(instance_dir / "inst0.game")])
    assert rc == 0
    rc = cli.main(["compare", str(instance_dir / "inst1")])
    assert rc == 0


def test_compare_source_errors(tmp_path, instance_dir):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert cli.main(["compare", str(empty)]) == 2
    assert cli.main(["compare", str(tmp_path / "missing")]) == 2
    lonely = tmp_path / "lonely.game"
    lonely.write_text(
        serialize_game(helpers.g1()), encoding="utf-8"
    )
    assert cli.main(["compare", str(lonely)]) == 2  # no .spec sibling


def test_compare_detects_mismatch(instance_dir, tmp_path, capsys, monkeypatch):
    def corrupted(game, spec, options=None):
        result = solve_mt(game, spec, options)
        flipped = StateSet(~result.winning.bits)
        return type(result)(flipped, result.stats, None, result.bound, "gr1emb")

    monkeypatch.setattr(cli, "solve_gr1_emb", corrupted)
    csv_path = tmp_path / "out.csv"
    rc = cli.main(["compare", str(instance_dir), "--csv", str(csv_path)])
    assert rc == 3
    captured = capsys.readouterr()
    assert "MISMATCH" in captured.out
    assert "witness state" in captured.err
    assert csv_path.exists()  # rows still written for post-mortem


def test_compare_runs_serially_by_default(instance_dir, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("MTGAMES_THREADS", raising=False)
    threads = []

    def solve_on_caller(game, spec, options=None):
        threads.append(threading.current_thread())
        return solve_mt(game, spec, options)

    monkeypatch.setattr(cli, "solve_mt", solve_on_caller)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["compare", str(instance_dir), "--csv", str(a)]) == 0
    monkeypatch.setenv("MTGAMES_THREADS", "4")
    assert cli.main(["compare", str(instance_dir), "--csv", str(b)]) == 0
    assert threads == [threading.main_thread()] * 6
    assert strip_wall_ms(a.read_text(encoding="utf-8")) == strip_wall_ms(
        b.read_text(encoding="utf-8")
    )


def test_compare_warm_exits_0_with_no_more_pre_than_cold(instance_dir, tmp_path, capsys):
    cold, warm = tmp_path / "cold.csv", tmp_path / "warm.csv"
    assert cli.main(["compare", str(instance_dir), "--no-warm", "--csv", str(cold)]) == 0
    assert cli.main(["compare", str(instance_dir), "--warm", "--csv", str(warm)]) == 0
    assert "all winning sets equal" in capsys.readouterr().out

    def rows(path):
        return [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()[1:]]

    pairs = list(zip(rows(cold), rows(warm), strict=True))
    assert len(pairs) == 6
    for c, w in pairs:
        # Same algorithm, instance, outer rounds and winning size;
        # pre_count no higher.
        assert (c[:5], c[6], c[8]) == (w[:5], w[6], w[8])
        assert int(w[5]) <= int(c[5])


def test_compare_csv_deterministic_modulo_wall_ms(instance_dir, tmp_path, capsys, monkeypatch):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    monkeypatch.setenv("MTGAMES_THREADS", "1")
    assert cli.main(["compare", str(instance_dir), "--csv", str(a)]) == 0
    monkeypatch.setenv("MTGAMES_THREADS", "4")
    assert cli.main(["compare", str(instance_dir), "--csv", str(b)]) == 0
    rows_a = strip_wall_ms(a.read_text(encoding="utf-8"))
    rows_b = strip_wall_ms(b.read_text(encoding="utf-8"))
    assert rows_a == rows_b


# ---------------------------------------------------------------------------
# generators


def test_gen_random_cli(tmp_path, capsys):
    prefix = tmp_path / "rand"
    rc = cli.main(
        [
            "gen-random",
            "--states",
            "25",
            "--modes",
            "2",
            "--targets",
            "2,1",
            "--seed",
            "5",
            "--out",
            str(prefix),
        ]
    )
    assert rc == 0
    assert "wrote" in capsys.readouterr().out
    game = load_game((tmp_path / "rand.game").read_text(encoding="utf-8"))
    spec = parse_spec_file((tmp_path / "rand.spec").read_text(encoding="utf-8"))
    assert game.n == 25
    assert spec.target_counts == (2, 1)
    # Round trip: solvable end to end.
    assert cli.main(["compare", str(prefix)]) == 0


def test_gen_random_alternate_owners(tmp_path, capsys):
    prefix = tmp_path / "rand"
    argv = ["gen-random", "--states", "7", "--modes", "2", "--targets", "1,1",
            "--alternate-owners", "--out", str(prefix)]
    assert cli.main(argv) == 0
    game = load_game((tmp_path / "rand.game").read_text(encoding="utf-8"))
    assert [game.owner(v) for v in range(game.n)] == [0, 1, 0, 1, 0, 1, 0]


def test_gen_random_cli_errors(tmp_path):
    assert (
        cli.main(
            ["gen-random", "--states", "5", "--modes", "1", "--targets", "x",
             "--out", str(tmp_path / "r")]
        )
        == 2
    )
    assert (
        cli.main(
            ["gen-random", "--states", "2", "--modes", "5", "--targets",
             "1,1,1,1,1", "--out", str(tmp_path / "r")]
        )
        == 1
    )
    for density in ("nan", "inf"):
        assert (
            cli.main(
                ["gen-random", "--states", "5", "--modes", "1", "--targets", "1",
                 "--density", density, "--out", str(tmp_path / "r")]
            )
            == 1
        )


def test_gen_robot_cli(tmp_path, capsys):
    prefix = tmp_path / "robot"
    rc = cli.main(
        ["gen-robot", "--rooms", "2", "--grid", "9x8", "--out", str(prefix)]
    )
    assert rc == 0
    game = load_game((tmp_path / "robot.game").read_text(encoding="utf-8"))
    spec = parse_spec_file((tmp_path / "robot.spec").read_text(encoding="utf-8"))
    assert game.n == 9 * 8 * 3 * 2
    assert spec.mode_count == 3


def test_gen_robot_custom_boxes(tmp_path, capsys):
    boxes = tmp_path / "boxes.txt"
    boxes.write_text("0 0 1 1\n3 3 4 4  # second room\n", encoding="utf-8")
    prefix = tmp_path / "robot"
    rc = cli.main(
        [
            "gen-robot",
            "--rooms",
            "2",
            "--grid",
            "5x5",
            "--boxes",
            str(boxes),
            "--out",
            str(prefix),
        ]
    )
    assert rc == 0
    spec = parse_spec_file((tmp_path / "robot.spec").read_text(encoding="utf-8"))
    assert spec.mode_count == 3


@pytest.mark.parametrize(
    "grid, rooms, obstacles", [("10x10", 3, 0), ("6x5", 3, 0), ("6x6", 2, 3)]
)
def test_gen_robot_words_a_grid_too_small_for_the_rooms(
    tmp_path, capsys, grid, rooms, obstacles
):
    argv = ["gen-robot", "--rooms", str(rooms), "--grid", grid,
            "--obstacles", str(obstacles), "--out", str(tmp_path / "r")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert f"grid {grid} is too small for {rooms} built-in rooms" in err
    assert not list(tmp_path.iterdir())


def test_gen_robot_boxes_skip_comment_and_blank_lines(tmp_path, capsys):
    plain, commented = tmp_path / "plain.txt", tmp_path / "commented.txt"
    plain.write_text("0 0 1 1\n3 3 4 4\n", encoding="utf-8")
    commented.write_text("# rooms\n\n0 0 1 1\n   \n3 3 4 4 # last\n", encoding="utf-8")
    for boxes in (plain, commented):
        argv = ["gen-robot", "--rooms", "2", "--grid", "5x5", "--boxes", str(boxes),
                "--out", str(tmp_path / boxes.stem)]
        assert cli.main(argv) == 0
    assert (tmp_path / "commented.game").read_bytes() == (tmp_path / "plain.game").read_bytes()


def test_gen_robot_words_a_bound_that_is_not_an_integer(tmp_path, capsys):
    boxes = tmp_path / "boxes.txt"
    boxes.write_text("# rooms\n0 0 1 x\n", encoding="utf-8")
    argv = ["gen-robot", "--rooms", "1", "--grid", "5x5", "--boxes", str(boxes),
            "--out", str(tmp_path / "r")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: line 2: room bounds must be integers\n"


@pytest.mark.parametrize("grid", ["9" * 5000 + "x6", "6x" + "9" * 5000])
def test_gen_robot_words_a_grid_side_too_long_to_read(tmp_path, capsys, grid):
    # int() reads no more than 4300 digits; the side used to end in its
    # ValueError traceback.
    argv = ["gen-robot", "--rooms", "2", "--grid", grid, "--out", str(tmp_path / "r")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: --grid side of 5000 digits is too long to read\n"


def test_gen_robot_cli_errors(tmp_path):
    out = str(tmp_path / "r")
    assert cli.main(["gen-robot", "--rooms", "2", "--grid", "bad", "--out", out]) == 2
    boxes = tmp_path / "boxes.txt"
    boxes.write_text("0 0 1 1\n", encoding="utf-8")
    assert (
        cli.main(
            ["gen-robot", "--rooms", "2", "--grid", "5x5", "--boxes", str(boxes),
             "--out", out]
        )
        == 2
    )
    boxes.write_text("0 0 1\n", encoding="utf-8")
    assert (
        cli.main(
            ["gen-robot", "--rooms", "1", "--grid", "5x5", "--boxes", str(boxes),
             "--out", out]
        )
        == 2
    )
    # Room outside the grid: semantic validation, not usage.
    boxes.write_text("0 0 9 9\n", encoding="utf-8")
    assert (
        cli.main(
            ["gen-robot", "--rooms", "1", "--grid", "5x5", "--boxes", str(boxes),
             "--out", out]
        )
        == 1
    )


def test_gen_series_cli(tmp_path, capsys):
    out_dir = tmp_path / "series"
    rc = cli.main(
        [
            "gen-series",
            "--states",
            "30",
            "--modes",
            "2",
            "--extra-min",
            "1",
            "--extra-max",
            "3",
            "--name",
            "sweep",
            "--out-dir",
            str(out_dir),
        ]
    )
    assert rc == 0
    names = sorted(p.name for p in out_dir.glob("*.game"))
    assert names == ["sweep_x01.game", "sweep_x02.game", "sweep_x03.game"]
    spec3 = parse_spec_file((out_dir / "sweep_x03.spec").read_text(encoding="utf-8"))
    assert spec3.target_counts == (3, 1)
    assert cli.main(["compare", str(out_dir)]) == 0


def test_gen_series_cli_errors(tmp_path):
    assert (
        cli.main(
            ["gen-series", "--states", "10", "--modes", "1", "--extra-min", "3",
             "--extra-max", "1", "--out-dir", str(tmp_path / "s")]
        )
        == 2
    )
    for density in ("nan", "inf"):
        assert (
            cli.main(
                ["gen-series", "--states", "10", "--modes", "1", "--density",
                 density, "--out-dir", str(tmp_path / "s")]
            )
            == 1
        )


@pytest.mark.parametrize(
    "argv",
    [
        ["gen-random", "--states", "10", "--modes", "2", "--targets", "1,1",
         "--out", "r"],
        ["gen-robot", "--rooms", "2", "--grid", "9x8", "--obstacles", "2",
         "--out", "rb"],
        ["gen-series", "--states", "10", "--modes", "1", "--out-dir", "s"],
    ],
    ids=["gen-random", "gen-robot", "gen-series"],
)
def test_generators_reject_a_negative_seed(argv, tmp_path, capsys):
    argv = argv[:-1] + [str(tmp_path / argv[-1]), "--seed", "-1"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "--seed: must be non-negative, got -1" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_generators_reject_a_seed_that_is_not_an_integer(tmp_path, capsys):
    argv = ["gen-robot", "--rooms", "2", "--grid", "9x8", "--out", str(tmp_path / "rb"),
            "--seed", "abc"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "--seed: expected an integer, got 'abc'" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, max_states",
    [
        (["gen-random", "--states", "5", "--modes", "1", "--targets", "1",
          "--density", "1e19", "--out", "r"], None),
        (["gen-series", "--states", "10", "--modes", "1", "--density", "1e18",
          "--out-dir", "s"], None),
        # With the state bound lowered to 100, so that a missing check
        # builds a small game instead of a huge one.
        (["gen-random", "--states", "101", "--modes", "1", "--targets", "1",
          "--out", "r"], 100),
        (["gen-series", "--states", "101", "--modes", "1", "--out-dir", "s"], 100),
        (["gen-robot", "--rooms", "2", "--grid", "9x8", "--out", "rb"], 100),
        # A sweep of 1..10**6 targets: the bound is checked before a list of
        # the steps is built.
        (["gen-series", "--states", "10", "--modes", "1", "--extra-max", "1000000",
          "--out-dir", "s"], None),
    ],
)
def test_generator_bounds_exit_4_before_allocating(
    argv, max_states, tmp_path, monkeypatch, capsys
):
    if max_states is not None:
        monkeypatch.setattr(benchgen, "MAX_STATES", max_states)
    _assert_exits_4_before_allocating(argv, tmp_path, capsys)


# Over the label and sweep bounds, with the edge bound lowered to 1000 so
# that a missing check builds a small game instead of a huge one: 100 states
# times 11 targets; a sweep of 1..50 targets, 1275 in all; and a sweep whose
# last step has 100 states times 11 targets.
@pytest.mark.parametrize(
    "argv",
    [
        ["gen-random", "--states", "100", "--modes", "1", "--targets", "11",
         "--out", "r"],
        ["gen-series", "--states", "10", "--modes", "1", "--extra-max", "50",
         "--out-dir", "s"],
        ["gen-series", "--states", "100", "--modes", "1", "--extra-max", "11",
         "--out-dir", "s"],
    ],
    ids=["gen-random-labels", "gen-series-sweep", "gen-series-labels"],
)
def test_label_bounds_exit_4_before_allocating(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(benchgen, "MAX_EDGES", 1000)
    _assert_exits_4_before_allocating(argv, tmp_path, capsys)


def _assert_exits_4_before_allocating(argv, tmp_path, capsys):
    argv = argv[:-1] + [str(tmp_path / argv[-1])]
    tracemalloc.start()
    try:
        rc = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "exceed" in err
    assert peak < 1_000_000
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# output files: overwritten in place, never truncated to empty first


def _solve_into(g1_files, win_path, strat_path):
    game_path, spec_path = g1_files
    return cli.main(
        ["solve", str(game_path), str(spec_path), "--winning", str(win_path),
         "--strategy", str(strat_path)]
    )


@pytest.fixture()
def g1_outputs(g1_files, tmp_path):
    """The bytes of g1's winning-set and strategy files, solved into new
    files."""
    win, strat = tmp_path / "fresh_w.txt", tmp_path / "fresh_s.txt"
    assert _solve_into(g1_files, win, strat) == 0
    return win.read_bytes(), strat.read_bytes()


STALE = "# 99 states\n" + "".join(f"{v}\n" for v in range(99))


def test_solve_overwrites_longer_files_with_exactly_the_new_bytes(
    g1_files, g1_outputs, tmp_path, capsys
):
    win, strat = tmp_path / "w.txt", tmp_path / "s.txt"
    win.write_text(STALE, encoding="utf-8")
    strat.write_text(STALE, encoding="utf-8")
    assert _solve_into(g1_files, win, strat) == 0
    assert (win.read_bytes(), strat.read_bytes()) == g1_outputs
    assert len(g1_outputs[0]) < len(STALE)


def test_compare_csv_overwrites_a_longer_csv(instance_dir, tmp_path, capsys):
    csv_path = tmp_path / "out.csv"
    assert cli.main(["compare", str(instance_dir), "--csv", str(csv_path)]) == 0
    assert len(csv_path.read_text(encoding="utf-8").splitlines()) == 7
    assert cli.main(["compare", str(instance_dir / "inst0"), "--csv", str(csv_path)]) == 0
    fresh = tmp_path / "fresh.csv"
    assert cli.main(["compare", str(instance_dir / "inst0"), "--csv", str(fresh)]) == 0
    text = csv_path.read_text(encoding="utf-8")
    assert len(text.splitlines()) == 3
    assert strip_wall_ms(text) == strip_wall_ms(fresh.read_text(encoding="utf-8"))


def test_output_symlink_stays_a_link_to_the_new_text(
    g1_files, g1_outputs, tmp_path, capsys
):
    target = tmp_path / "target.txt"
    target.write_text(STALE, encoding="utf-8")
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    assert _solve_into(g1_files, link, tmp_path / "s.txt") == 0
    assert link.is_symlink()
    assert target.read_bytes() == g1_outputs[0]


def test_output_file_keeps_its_mode(g1_files, tmp_path, capsys):
    win = tmp_path / "w.txt"
    win.write_text(STALE, encoding="utf-8")
    win.chmod(0o640)
    assert _solve_into(g1_files, win, tmp_path / "s.txt") == 0
    assert win.stat().st_mode & 0o777 == 0o640


def test_winning_to_dev_null_exits_0(g1_files, tmp_path, capsys):
    assert _solve_into(g1_files, os.devnull, tmp_path / "s.txt") == 0


def test_directory_as_output_path_exits_2(g1_files, tmp_path, capsys):
    assert _solve_into(g1_files, tmp_path, tmp_path / "s.txt") == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_failed_write_leaves_a_prefix_of_the_new_text(
    g1_files, g1_outputs, tmp_path, capsys, monkeypatch
):
    game_path, spec_path = g1_files
    win = tmp_path / "w.txt"
    win.write_text(STALE, encoding="utf-8")
    real_write = os.write

    def disk_full(fd, data):
        real_write(fd, bytes(data[:5]))
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "write", disk_full)
    rc = cli.main(["solve", str(game_path), str(spec_path), "--winning", str(win)])
    monkeypatch.undo()
    assert rc == 2
    assert "error: " in capsys.readouterr().err
    assert win.read_bytes() == g1_outputs[0][:5]


def test_no_output_file_is_opened_with_o_trunc(instance_dir, tmp_path, capsys, monkeypatch):
    real_open = os.open
    opened: dict[str, int] = {}

    def recording_open(path, flags, *args, **kwargs):
        opened[str(path)] = flags
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", recording_open)
    prefix = str(instance_dir / "inst0")
    outputs = [str(tmp_path / name) for name in ("w.txt", "s.txt", "solve.csv")]
    argvs = [
        ["solve", prefix + ".game", prefix + ".spec", "--winning", outputs[0],
         "--strategy", outputs[1], "--csv", outputs[2]],
        ["compare", str(instance_dir), "--csv", str(tmp_path / "compare.csv")],
        ["gen-random", "--states", "10", "--modes", "1", "--targets", "1",
         "--out", str(tmp_path / "rand")],
    ]
    outputs += [str(tmp_path / name) for name in ("compare.csv", "rand.game", "rand.spec")]
    for argv in argvs:
        assert cli.main(argv) == 0
    monkeypatch.undo()
    # Each output went through os.open, so none took a path that truncates.
    assert set(outputs) <= set(opened)
    assert [p for p, flags in opened.items() if flags & os.O_TRUNC] == []


def test_gen_series_serializes_its_shared_game_once(tmp_path, capsys, monkeypatch):
    calls = []
    real_serialize = cli.serialize_game

    def counting(game):
        calls.append(game)
        return real_serialize(game)

    monkeypatch.setattr(cli, "serialize_game", counting)
    out_dir = tmp_path / "series"
    argv = ["gen-series", "--states", "30", "--modes", "2", "--extra-max", "4",
            "--out-dir", str(out_dir)]
    assert cli.main(argv) == 0
    assert len(calls) == 1
    steps = benchgen.gen_multi_target_series(30, 2, 2.0, 0, range(1, 5))
    for x, (game, spec) in enumerate(steps, 1):
        prefix = out_dir / f"series_x{x:02d}"
        assert Path(f"{prefix}.game").read_text(encoding="utf-8") == real_serialize(game)
        assert Path(f"{prefix}.spec").read_text(encoding="utf-8") == format_spec_file(spec)


# ---------------------------------------------------------------------------
# entry point


def test_module_entry_point(g1_files):
    game_path, spec_path = g1_files
    # The child imports the package this process imported, also when only
    # the pytest configuration put it on the path.
    package_root = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "mtgames.cli", "solve", str(game_path), str(spec_path)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    assert "winning_size=2" in proc.stdout


def test_cli_import_leaves_out_the_checker_graph_library():
    # Only check_strategy needs scipy.sparse.csgraph; solve, compare and the
    # generators should not pay for importing it.
    package_root = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    code = "import sys, mtgames.cli; print('scipy.sparse.csgraph' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_every_exported_name_resolves():
    missing = [name for name in mtgames.__all__ if not hasattr(mtgames, name)]
    assert missing == []
