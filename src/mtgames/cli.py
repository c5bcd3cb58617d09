"""Command-line interface.

Subcommands: solve (one game, one algorithm), compare (both algorithms,
equality-checked, CSV instrumentation), check (replay a strategy file
against a winning-set file), and the three generators. Exit codes: 0
success, 1 validation failure, 2 parse/usage failure, 3 solver
mismatch, 4 resource bound exceeded.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import stat
import sys
from dataclasses import astuple, dataclass, fields
from pathlib import Path

import numpy as np

from .benchgen import (
    RobotWorld,
    gen_cleaning_robot,
    gen_multi_target_series,
    gen_random_game,
    scaled_rooms,
)
from .errors import BoundExceeded, GameParseError, SpecError, ValidationError
from .game import GameGraph, load_game, serialize_game
from .gr1 import solve_gr1_emb
from .solver import MTSolveResult, SolveOptions, solve_mt
from .specs import MTSpec, format_spec_file, parse_mt_formula, parse_spec_file
from .strategy import (
    CHECK_MAX_STATES,
    check_strategy,
    extract_strategy,
    format_strategy,
    format_winning,
    parse_strategy,
    parse_winning,
)
from .tokens import split_lines

_SOLVERS = {"mt": solve_mt, "gr1emb": solve_gr1_emb}


class _Usage(Exception):
    """Command-line usage error (exit code 2)."""


def _seed(text: str) -> int:
    """A generator's ``--seed``: numpy's random generators take no
    negative seed."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {seed}")
    return seed


@dataclass
class RunRecord:
    """One solver run, as reported on stdout and in CSV. The fields, in
    order, are the CSV columns."""

    algo: str
    n: int
    m: int
    sum_t: int
    max_t: int
    pre_count: int
    outer_iterations: int
    wall_ms: float
    winning_size: int

    @classmethod
    def from_result(
        cls, game: GameGraph, spec: MTSpec, result: MTSolveResult
    ) -> "RunRecord":
        return cls(
            algo=result.algo,
            n=game.n,
            m=spec.mode_count,
            sum_t=spec.sum_targets,
            max_t=spec.max_targets,
            pre_count=result.stats.pre_count,
            outer_iterations=result.stats.outer_iterations,
            wall_ms=result.stats.wall_time_s * 1000.0,
            winning_size=len(result.winning),
        )

    def _cells(self) -> list[str]:
        """The field values in CSV_HEADER order, as the CSV writes them."""
        return [f"{v:.3f}" if isinstance(v, float) else str(v) for v in astuple(self)]

    def csv_row(self) -> str:
        return ",".join(self._cells())

    def human(self) -> str:
        names = CSV_HEADER.split(",")
        return " ".join(f"{k}={v}" for k, v in zip(names, self._cells()))


CSV_HEADER = ",".join(f.name for f in fields(RunRecord))


def _write_csv(path: str, records: list[RunRecord]) -> None:
    lines = [CSV_HEADER] + [r.csv_row() for r in records]
    _write_file(path, "\n".join(lines) + "\n")


def _write_file(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, overwriting the file in place.

    The file is opened without ``O_TRUNC``, and a regular file is cut to
    the bytes written only after the write: on ext4, truncating a
    non-empty file to zero makes its ``close`` flush the new data to
    disk, which costs tens of milliseconds a file. The cut runs on
    failure too, so a failed write leaves a prefix of ``text``, never
    the old file's tail behind it."""
    data = memoryview(text.encode("utf-8"))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        try:
            while data:
                data = data[os.write(fd, data):]
        finally:
            # The file offset counts the bytes that reached the file, also
            # when an exception ended the loop.
            if regular:
                os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
    finally:
        os.close(fd)


def _read(path: str | Path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise _Usage(f"{path} is not UTF-8 text: {exc}") from None


# ---------------------------------------------------------------------------
# solve


def cmd_solve(args: argparse.Namespace) -> int:
    game = load_game(_read(args.game))
    if args.ltl is not None and args.spec:
        raise _Usage("provide either a spec file or --ltl, not both")
    if args.ltl is not None:
        spec = parse_mt_formula(args.ltl)
    elif args.spec:
        spec = parse_spec_file(_read(args.spec))
    else:
        raise _Usage("a spec file or --ltl is required")
    if args.strategy and args.algo != "mt":
        raise _Usage("strategy extraction requires --algo mt")

    options = SolveOptions(warm=args.warm, record=bool(args.strategy))
    result = _SOLVERS[args.algo](game, spec, options)
    record = RunRecord.from_result(game, spec, result)
    print(record.human())

    if args.csv:
        _write_csv(args.csv, [record])
    if args.winning:
        _write_file(args.winning, format_winning(result.winning))
    if args.strategy:
        strat = extract_strategy(game, spec, result)
        _write_file(args.strategy, format_strategy(strat))
    return 0


# ---------------------------------------------------------------------------
# compare


def _collect_instances(sources: list[str]) -> list[tuple[str, Path, Path]]:
    found: list[tuple[str, Path, Path]] = []
    for src in sources:
        p = Path(src)
        if p.is_dir():
            games = sorted(p.glob("*.game"))
            if not games:
                raise _Usage(f"no .game files in directory {src}")
            candidates = games
        elif p.suffix == ".game":
            candidates = [p]
        elif Path(str(p) + ".game").exists():
            candidates = [Path(str(p) + ".game")]
        else:
            raise _Usage(f"{src} is neither a directory, a .game file, nor a prefix")
        for g in candidates:
            spec_path = g.with_suffix(".spec")
            if not spec_path.exists():
                raise _Usage(f"no spec file next to {g}")
            found.append((g.stem, g, spec_path))
    return found


def cmd_compare(args: argparse.Namespace) -> int:
    instances = _collect_instances(args.sources)
    options = SolveOptions(warm=args.warm, record=False)

    records: list[RunRecord] = []
    mismatches: list[tuple[str, RunRecord, RunRecord, int]] = []
    for name, game_path, spec_path in instances:
        game = load_game(_read(game_path))
        spec = parse_spec_file(_read(spec_path))
        res_mt = solve_mt(game, spec, options)
        res_emb = solve_gr1_emb(game, spec, options)
        rec_mt = RunRecord.from_result(game, spec, res_mt)
        rec_emb = RunRecord.from_result(game, spec, res_emb)
        records.extend((rec_mt, rec_emb))
        equal = res_mt.winning == res_emb.winning
        print(
            f"{name}: winning mt={rec_mt.winning_size} "
            f"gr1emb={rec_emb.winning_size} pre mt={rec_mt.pre_count} "
            f"gr1emb={rec_emb.pre_count} {'OK' if equal else 'MISMATCH'}"
        )
        if not equal:
            witness = np.flatnonzero(res_mt.winning.bits ^ res_emb.winning.bits)[0]
            mismatches.append((name, rec_mt, rec_emb, int(witness)))

    if args.csv:
        _write_csv(args.csv, records)
    if mismatches:
        for name, rec_mt, rec_emb, witness in mismatches:
            print(
                f"mismatch on {name}: mt={rec_mt.winning_size} states, "
                f"gr1emb={rec_emb.winning_size} states, witness state {witness}",
                file=sys.stderr,
            )
        return 3
    print(f"compared {len(instances)} instance(s): all winning sets equal")
    return 0


# ---------------------------------------------------------------------------
# check


def cmd_check(args: argparse.Namespace) -> int:
    game = load_game(_read(args.game))
    spec = parse_spec_file(_read(args.spec))
    strategy = parse_strategy(_read(args.strategy), game.n)
    winning = parse_winning(_read(args.winning), game.n)
    if strategy.winning_size is not None and strategy.winning_size != len(winning):
        raise _Usage(
            f"strategy file claims {strategy.winning_size} winning state(s), "
            f"the winning-set file lists {len(winning)}"
        )
    verdict = check_strategy(
        game, spec, strategy, winning, max_states=args.max_states
    )
    if verdict.ok:
        print(f"PASS: strategy confirmed winning from {len(winning)} state(s)")
        return 0
    print(f"FAIL: {verdict.reason}: {verdict.detail}")
    if verdict.edge is not None:
        print(f"  offending edge: {verdict.edge[0]} -> {verdict.edge[1]}")
    if verdict.cycle:
        print("  counterexample lasso (cycle repeated forever):")
        print("    states: " + " -> ".join(str(v) for v in verdict.cycle))
        word = verdict.lasso(game)
        letters = " -> ".join(
            "{" + ",".join(sorted(letter)) + "}" for letter in word.cycle
        )
        print("    labels: " + letters)
    return 1


# ---------------------------------------------------------------------------
# generators


def _write_instance(prefix: str, game_text: str, spec: MTSpec) -> tuple[Path, Path]:
    """Write ``prefix.game`` (``game_text``, an already serialized game)
    and ``prefix.spec``."""
    game_path = Path(prefix + ".game")
    spec_path = Path(prefix + ".spec")
    game_path.parent.mkdir(parents=True, exist_ok=True)
    _write_file(game_path, game_text)
    _write_file(spec_path, format_spec_file(spec))
    return game_path, spec_path


_GRID_RE = re.compile(r"^(\d+)[xX](\d+)$")


def cmd_gen_robot(args: argparse.Namespace) -> int:
    m = _GRID_RE.match(args.grid)
    if not m:
        raise _Usage(f"--grid expects WIDTHxHEIGHT, got {args.grid!r}")
    try:
        width, height = int(m.group(1)), int(m.group(2))
    except ValueError:  # a side of more digits than int() reads
        raise _Usage(f"--grid side of {len(max(m.groups(), key=len))} digits is too long to read")
    if args.boxes:
        rooms = []
        for lineno, parts in split_lines(_read(args.boxes)):
            if len(parts) != 4:
                raise GameParseError(
                    "expected 'col0 row0 col1 row1'", line=lineno
                )
            try:
                rooms.append(tuple(int(x) for x in parts))
            except ValueError:
                raise GameParseError("room bounds must be integers", line=lineno)
        if len(rooms) != args.rooms:
            raise _Usage(
                f"--rooms {args.rooms} but {args.boxes} lists {len(rooms)} boxes"
            )
    else:
        rooms = scaled_rooms(width, height, args.rooms)
    world = RobotWorld(
        width, height, rooms, seed=args.seed, obstacles=args.obstacles
    )
    game, spec = gen_cleaning_robot(world)
    game_path, spec_path = _write_instance(args.out, serialize_game(game), spec)
    print(
        f"wrote {game_path} ({game.n} states, {game.num_edges} edges) "
        f"and {spec_path} ({spec.mode_count} modes)"
    )
    return 0


def cmd_gen_random(args: argparse.Namespace) -> int:
    try:
        targets = [int(x) for x in args.targets.split(",") if x.strip()]
    except ValueError:
        raise _Usage(f"--targets expects comma-separated integers, got {args.targets!r}")
    game, spec = gen_random_game(
        args.states,
        args.modes,
        targets,
        args.density,
        args.seed,
        alternate_owners=args.alternate_owners,
    )
    game_path, spec_path = _write_instance(args.out, serialize_game(game), spec)
    print(
        f"wrote {game_path} ({game.n} states, {game.num_edges} edges) "
        f"and {spec_path} ({spec.mode_count} modes)"
    )
    return 0


def cmd_gen_series(args: argparse.Namespace) -> int:
    if args.extra_min < 1 or args.extra_max < args.extra_min:
        raise _Usage("need 1 <= --extra-min <= --extra-max")
    extras = range(args.extra_min, args.extra_max + 1)
    series = gen_multi_target_series(
        args.states, args.modes, args.density, args.seed, extras
    )
    # Every step shares one game, so its text is built once.
    game_text = serialize_game(series[0][0])
    out_dir = Path(args.out_dir)
    for x, (_, spec) in zip(extras, series):
        _write_instance(str(out_dir / f"{args.name}_x{x:02d}"), game_text, spec)
    print(f"wrote {len(series)} instance(s) under {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# parser


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once a process: parsing leaves it as
    it was, and building it costs about a millisecond."""
    parser = argparse.ArgumentParser(
        prog="mtgames",
        description="Solve, compare, generate and check mode-target games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    warm = dict(
        action=argparse.BooleanOptionalAction,
        default=SolveOptions.warm,
        help="seed each Y-step's inner fixed points from the same step of the "
        "previous outer round (the default); --no-warm starts every inner "
        "chain from every state, the plain algorithm and its Pre counts",
    )

    s = sub.add_parser("solve", help="solve one game against one objective")
    s.add_argument("game", help="game file")
    s.add_argument("spec", nargs="?", help="spec file (or use --ltl)")
    s.add_argument("--ltl", metavar="FORMULA", help="inline objective formula")
    s.add_argument("--algo", choices=sorted(_SOLVERS), default="mt")
    s.add_argument("--warm", **warm)
    s.add_argument("--strategy", metavar="OUT", help="write extracted strategy (mt only)")
    s.add_argument("--winning", metavar="OUT", help="write the winning set")
    s.add_argument("--csv", metavar="OUT", help="write a one-row CSV")
    s.set_defaults(func=cmd_solve)

    c = sub.add_parser(
        "compare", help="run both algorithms and check winning-set equality"
    )
    c.add_argument(
        "sources",
        nargs="+",
        help="instance sources: directories, .game files, or path prefixes",
    )
    c.add_argument("--warm", **warm)
    c.add_argument("--csv", metavar="OUT", help="write two CSV rows per instance")
    c.set_defaults(func=cmd_compare)

    k = sub.add_parser("check", help="replay a strategy against a winning set")
    k.add_argument("game")
    k.add_argument("spec")
    k.add_argument("strategy", help="strategy file (move lines)")
    k.add_argument("winning", help="winning-set file (one state per line)")
    k.add_argument("--max-states", type=int, default=CHECK_MAX_STATES)
    k.set_defaults(func=cmd_check)

    r = sub.add_parser("gen-robot", help="generate a cleaning-robot instance")
    r.add_argument("--rooms", type=int, required=True)
    r.add_argument("--grid", default="16x16", help="WIDTHxHEIGHT (default 16x16)")
    r.add_argument("--boxes", help="file of room rectangles: col0 row0 col1 row1")
    r.add_argument("--obstacles", type=int, default=0)
    r.add_argument("--seed", type=_seed, default=0)
    r.add_argument("--out", required=True, help="output prefix (.game/.spec)")
    r.set_defaults(func=cmd_gen_robot)

    g = sub.add_parser("gen-random", help="generate a random instance")
    g.add_argument("--states", type=int, required=True)
    g.add_argument("--modes", type=int, required=True)
    g.add_argument("--targets", required=True, help="comma-separated per-mode counts")
    g.add_argument("--density", type=float, default=2.0)
    g.add_argument("--seed", type=_seed, default=0)
    g.add_argument("--alternate-owners", action="store_true")
    g.add_argument("--out", required=True, help="output prefix (.game/.spec)")
    g.set_defaults(func=cmd_gen_random)

    e = sub.add_parser(
        "gen-series", help="generate a multi-target sweep over one base game"
    )
    e.add_argument("--states", type=int, required=True)
    e.add_argument("--modes", type=int, required=True)
    e.add_argument("--density", type=float, default=2.0)
    e.add_argument("--seed", type=_seed, default=0)
    e.add_argument("--extra-min", type=int, default=1)
    e.add_argument("--extra-max", type=int, default=10)
    e.add_argument("--name", default="series", help="file-name prefix")
    e.add_argument("--out-dir", required=True)
    e.set_defaults(func=cmd_gen_series)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (_Usage, GameParseError, SpecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BoundExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except MemoryError:
        print("error: out of memory; the input is too large", file=sys.stderr)
        return 4
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
