"""A seeded search of the command line for inputs that end in anything
but a documented exit code.

Each case changes one input of a valid command and runs ``cli.main`` in
process: every numeric flag takes each token of the reader fuzz in turn,
and the game, spec, strategy, winning-set and ``--boxes`` texts and the
``--ltl`` formula take the reader fuzz's seeded edits. No oracle is asked
for the right answer. A case only has to end in an exit code that README
documents for its command, raise nothing (a traceback of the ``mtgames``
process), and leave output files that read back when it exits 0.
"""

from __future__ import annotations

import shutil

import numpy as np

from mtgames import cli
from mtgames.benchgen import gen_random_game
from mtgames.game import MAX_STATES, load_game, serialize_game
from mtgames.specs import format_spec_file, parse_spec_file
from mtgames.strategy import parse_strategy, parse_winning
from test_readers import TOKENS, mutate

# No command may exit 3 here: on any input the two algorithms agree, so a
# 3 from compare would be a solver defect. check exits 1 on a FAIL verdict.
EXITS = {0, 1, 2, 4}
# Seeded edits per text, and the texts each command reads; solve takes the
# objective from one of its two, drawn per case.
EDITS = 60
TEXTS = {
    "solve": ("game", "spec", "ltl"),
    "check": ("game", "spec", "strategy", "winning"),
    "compare": ("game", "spec"),
    "gen-robot": ("boxes",),
}
FORMULA = "(FG M1 -> FG T1_1) & (FG M2 -> FG T2_1 | FG T2_2)"
BOXES = "0 0 2 2\n5 3 7 5\n"
# The numeric flags of each command with valid values.
FLAGS = {
    "check": {"--max-states": "100"},
    "gen-random": {"--states": "9", "--modes": "2", "--targets": "1,2",
                   "--density": "1.5", "--seed": "3"},
    "gen-series": {"--states": "9", "--modes": "2", "--density": "1.5",
                   "--seed": "3", "--extra-min": "1", "--extra-max": "3"},
    "gen-robot": {"--rooms": "2", "--grid": "8x6", "--obstacles": "2", "--seed": "1"},
}
# A generator admits sizes up to its bounds, and MAX_STATES + 1 targets, or
# edges a state, on a 9-state game are within them: 10**8 labels or edges,
# gigabytes and tens of seconds. The flags take every other token.
FLAG_TOKENS = tuple(t for t in TOKENS if t != str(MAX_STATES + 1))


def flag_values(name: str, value: str) -> list[str]:
    """``value`` with each token in place of it, and of each of its parts
    for ``--grid`` and ``--targets``; "n" stands for the part it replaces."""
    sep = {"--grid": "x", "--targets": ","}.get(name)
    parts = value.split(sep) if sep else [value]
    out = [value if t == "n" else t for t in FLAG_TOKENS]
    for i in range(len(parts) if sep else 0):
        for t in FLAG_TOKENS:
            out.append(sep.join(parts[:i] + [parts[i] if t == "n" else t] + parts[i + 1 :]))
    return out


def token_sweep(text: str, n: int, rng: np.random.Generator) -> list[str]:
    """``text`` with each token in turn at up to four positions of one
    seeded line that is no comment; "n" stands for ``n``."""
    lines = text.split("\n")
    at = rng.choice([i for i, line in enumerate(lines) if line and not line.startswith("#")])
    parts = lines[at].split(" ")
    out = []
    for pos in sorted(rng.permutation(len(parts))[:4].tolist()):
        for t in TOKENS:
            new = parts[:pos] + [str(n) if t == "n" else t] + parts[pos + 1 :]
            out.append("\n".join(lines[:at] + [" ".join(new)] + lines[at + 1 :]))
    return out


def cases(rng: np.random.Generator, texts: dict[str, str], n: int):
    """(command, flags, texts) of each case: first the valid commands, then
    every flag value, then each text with every token on one of its lines
    and with the reader fuzz's seeded edits."""
    for command in ("solve", "check", "compare", "gen-robot", "gen-random", "gen-series"):
        yield command, dict(FLAGS.get(command, {})), texts
    for command, flags in FLAGS.items():
        for name, value in flags.items():
            for new in flag_values(name, value):
                yield command, {**flags, name: new}, texts
    for command, names in TEXTS.items():
        for name in names:
            edits = token_sweep(texts[name], n, rng)
            edits += [mutate(texts[name], n, rng) for _ in range(EDITS)]
            for text in edits:
                yield command, dict(FLAGS.get(command, {})), {**texts, name: text}


def command_line(command, flags, paths, ltl, out, rng) -> list[str]:
    """The argv of one case; solve and compare draw their switches."""
    if command == "solve":
        argv = ["solve", str(paths["game"]), "--ltl", ltl.rstrip("\n")]
        if rng.random() < 0.5:
            argv[-2:] = [str(paths["spec"])]
        algo = str(rng.choice(["mt", "gr1emb"]))
        argv += ["--algo", algo] + ["--no-warm"] * int(rng.random() < 0.5)
        for flag in ("--winning", "--strategy", "--csv"):
            # A strategy needs --algo mt; otherwise solve exits 2.
            if rng.random() < 0.6 and (algo == "mt" or flag != "--strategy"):
                argv += [flag, str(out[flag])]
        return argv
    if command == "compare":
        argv = ["compare", str(paths["game"])] + ["--no-warm"] * int(rng.random() < 0.5)
        return argv + ["--csv", str(out["--csv"])] * int(rng.random() < 0.5)
    argv = [command] + [f"{flag}={value}" for flag, value in flags.items()]
    if command == "check":
        argv += [str(paths[name]) for name in ("game", "spec", "strategy", "winning")]
    elif command == "gen-robot":
        argv += ["--boxes", str(paths["boxes"]), "--out", str(out["dir"] / "robot")]
    elif command == "gen-random":
        argv += ["--out", str(out["dir"] / "random")]
    elif command == "gen-series":
        argv += ["--out-dir", str(out["dir"])]
    return argv


def read_back(argv: list[str], out: dict) -> None:
    """Read every file that a command which exited 0 wrote."""
    command = argv[0]
    if command in ("solve", "compare"):
        game = load_game(out["game"].read_text(encoding="utf-8"))
        for flag, read in (("--winning", parse_winning), ("--strategy", parse_strategy)):
            if flag in argv:
                read(out[flag].read_text(encoding="utf-8"), game.n)
        if "--csv" in argv:
            header, *rows = out["--csv"].read_text(encoding="utf-8").splitlines()
            assert header == cli.CSV_HEADER and len(rows) == (2 if command == "compare" else 1)
            assert all(row.count(",") == header.count(",") for row in rows)
    elif command.startswith("gen-"):
        written = sorted(out["dir"].glob("*.game"))
        assert written, argv
        for path in written:
            load_game(path.read_text(encoding="utf-8"))
            parse_spec_file(path.with_suffix(".spec").read_text(encoding="utf-8"))


def test_no_input_ends_in_an_undocumented_exit(tmp_path, capsys):
    rng = np.random.default_rng(27)
    game, spec = gen_random_game(8, 2, [1, 2], 1.5, 5)
    texts = {"game": serialize_game(game), "spec": format_spec_file(spec),
             "ltl": FORMULA + "\n", "boxes": BOXES}
    files = ("game", "spec", "strategy", "winning", "boxes")
    base = {name: tmp_path / f"base.{name}" for name in files}
    for name in ("game", "spec", "boxes"):
        base[name].write_text(texts[name], encoding="utf-8")
    assert cli.main(["solve", str(base["game"]), str(base["spec"]),
                     "--strategy", str(base["strategy"]), "--winning", str(base["winning"])]) == 0
    for name in ("strategy", "winning"):
        texts[name] = base[name].read_text(encoding="utf-8")
    work = tmp_path / "case"
    work.mkdir()

    finds = {}
    for case, (command, flags, edited) in enumerate(cases(rng, texts, game.n)):
        # The one edited text is written to a file of the case's own.
        paths = dict(base)
        for name in base:
            if edited[name] is not texts[name]:
                paths[name] = work / f"in.{name}"
                paths[name].write_text(edited[name], encoding="utf-8")
        out = {"game": paths["game"], "dir": work / "out",
               **{flag: work / f"out{flag[1:]}" for flag in ("--winning", "--strategy", "--csv")}}
        argv = command_line(command, flags, paths, edited["ltl"], out, rng)
        try:
            code = cli.main(argv)
        except Exception as exc:  # noqa: BLE001 - every escape is a find
            code = f"{type(exc).__name__}: {str(exc)[:120]}"
        err = capsys.readouterr().err
        if case < 6:
            assert code == 0, (argv, err)
        if code not in EXITS or "Traceback" in err:
            finds.setdefault((command, str(code)[:40]), ([a[:80] for a in argv], err[-300:]))
        elif code == 0:
            read_back(argv, out)
        for path in work.iterdir():
            if path.is_dir():
                shutil.rmtree(path)
            else:
                path.unlink()
    assert case > 900
    assert not finds, finds
