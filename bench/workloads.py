"""Instance families of the benchmark and the CLI passes run over them.

Every workload builds its instances from one fixed base instance and the
run seed. The seed picks an isomorphic copy: a renumbering of the states
for the random families, and a symmetry of the square grid together with
an order of the rooms for the robot. The files the CLI reads therefore
differ from seed to seed, while the work the solvers do does not: Pre
counts, outer iterations and winning-set sizes are the same for every
seed, so runs on different seeds can be compared exactly on them.

A pass runs, for every instance, ``solve`` (direct algorithm, writing the
strategy and the winning set), ``solve --algo gr1emb`` and ``check``, and
then ``compare`` over the workload's instance directory. Every command is
one call of ``mtgames.cli.main(argv)`` in this process, timed from the
call to its exit code. An operation is one such call; it fails when it
does not exit 0. Properties of the outputs of calls that did exit 0 are
checked separately and reported as problems.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mtgames import benchgen, cli
from mtgames import game as game_mod
from mtgames import specs as specs_mod
from mtgames.solver import solve_mt_reference

# The base instances the seeds relabel. Seed 0 of the generators is the
# instance the ROADMAP baseline was measured on.
BASE_SEED = 0

# Make-up of every workload at three sizes. "full" is what the benchmark
# times; "small" is the untimed warm-up and the size the benchmark's
# tests run; "tiny" is small enough for brute-force strategy enumeration.
SIZES: dict[str, dict[str, dict]] = {
    "series": {
        "full": {"states": 600, "modes": 9, "density": 2.0, "extras": 10},
        "small": {"states": 60, "modes": 3, "density": 2.0, "extras": 4},
        "tiny": {"states": 8, "modes": 2, "density": 1.5, "extras": 3},
    },
    "robot": {
        "full": {"grid": 16, "rooms": 5},
        "small": {"grid": 4, "rooms": 2},
        "tiny": {"grid": 2, "rooms": 1, "boxes": [(0, 0, 0, 0)]},
    },
    "random": {
        "full": {"states": 20000, "targets": (3, 1, 2, 1), "density": 2.0},
        "small": {"states": 200, "targets": (3, 1, 2, 1), "density": 2.0},
        "tiny": {"states": 8, "targets": (2, 1), "density": 1.5},
    },
}

# Only the random workload runs its solves with --warm: it has few large
# modes, so warm seeds change the work there, and a change to the inner
# fixed points that helps cold runs but costs warm ones shows on it.
WARM = {"series": False, "robot": False, "random": True}

WORKLOADS = tuple(SIZES)

# End-to-end time metrics of one pass, in the order a pass runs them.
TIME_METRICS = ("solve_s", "solve_gr1emb_s", "check_s", "compare_s")

_RECORD_RE = re.compile(
    r"algo=(\S+) .*pre_count=(\d+) outer_iterations=(\d+) .*winning_size=(\d+)"
)


# ---------------------------------------------------------------------------
# Instances


@dataclass
class Instance:
    name: str
    game: Path
    spec: Path
    states: int


@dataclass
class Prepared:
    """A workload's instances on disk, with what its passes need."""

    workload: str
    size: str
    seed: int
    directory: Path
    instances: list[Instance]
    warm: bool
    makeup: dict


def relabel(game, perm: np.ndarray):
    """Copy of ``game`` in which state v is called ``perm[v]``."""
    n = game.n
    rows = [game.successors(v) for v in range(n)]
    degrees = np.fromiter((r.size for r in rows), dtype=np.int64, count=n)
    src = perm[np.repeat(np.arange(n, dtype=np.int64), degrees)]
    dst = perm[np.concatenate(rows)]
    owners = np.empty(n, dtype=np.int64)
    owners[perm] = np.where(game.is_player0_mask, game_mod.PLAYER0, game_mod.PLAYER1)
    labels = {name: perm[game.prop_set(name).indices()] for name in game.props}
    return game_mod.GameGraph(n, owners, (src, dst), labels)


def grid_symmetry(box: tuple[int, int, int, int], k: int, side: int):
    """Image of a cell rectangle under symmetry k (0..7) of a square grid."""
    c0, r0, c1, r1 = box
    corners = []
    for c, r in ((c0, r0), (c1, r1)):
        if k & 4:
            c, r = r, c
        if k & 1:
            c = side - 1 - c
        if k & 2:
            r = side - 1 - r
        corners.append((c, r))
    (a, b), (c, d) = corners
    return (min(a, c), min(b, d), max(a, c), max(b, d))


def _write(directory: Path, name: str, game, spec) -> Instance:
    game_path = directory / f"{name}.game"
    spec_path = directory / f"{name}.spec"
    game_path.write_text(game_mod.serialize_game(game), encoding="utf-8")
    spec_path.write_text(specs_mod.format_spec_file(spec), encoding="utf-8")
    return Instance(name, game_path, spec_path, game.n)


def _build_series(directory: Path, seed: int, p: dict) -> tuple[list[Instance], dict]:
    extras = list(range(1, p["extras"] + 1))
    sweep = benchgen.gen_multi_target_series(
        p["states"], p["modes"], p["density"], BASE_SEED, extras
    )
    perm = np.random.default_rng(seed).permutation(p["states"])
    shared = relabel(sweep[0][0], perm)
    instances = [
        _write(directory, f"series_x{x:02d}", shared, spec)
        for x, (_, spec) in zip(extras, sweep)
    ]
    makeup = dict(p, base_seed=BASE_SEED, relabel="state permutation from seed")
    return instances, makeup


def _build_robot(directory: Path, seed: int, p: dict) -> tuple[list[Instance], dict]:
    side, k = p["grid"], p["rooms"]
    rng = np.random.default_rng(seed)
    symmetry = int(rng.integers(0, 8))
    order = rng.permutation(k)
    base = p.get("boxes") or benchgen.scaled_rooms(side, side, k)
    rooms = [grid_symmetry(base[int(i)], symmetry, side) for i in order]
    world = benchgen.RobotWorld(side, side, rooms)
    game, spec = benchgen.gen_cleaning_robot(world)
    instances = [_write(directory, "robot", game, spec)]
    makeup = dict(p, symmetry=symmetry, room_order=[int(i) for i in order], rooms=rooms)
    return instances, makeup


def _build_random(directory: Path, seed: int, p: dict) -> tuple[list[Instance], dict]:
    targets = list(p["targets"])
    game, spec = benchgen.gen_random_game(
        p["states"], len(targets), targets, p["density"], BASE_SEED
    )
    perm = np.random.default_rng(seed).permutation(p["states"])
    instances = [_write(directory, "random", relabel(game, perm), spec)]
    makeup = dict(p, targets=targets, base_seed=BASE_SEED,
                  relabel="state permutation from seed")
    return instances, makeup


_BUILDERS = {"series": _build_series, "robot": _build_robot, "random": _build_random}


def build(workload: str, directory: Path, seed: int, size: str = "full") -> Prepared:
    """Generate the workload's instances and write their .game/.spec files."""
    directory.mkdir(parents=True, exist_ok=True)
    instances, makeup = _BUILDERS[workload](directory, seed, SIZES[workload][size])
    return Prepared(workload, size, seed, directory, instances, WARM[workload], makeup)


# ---------------------------------------------------------------------------
# Operations


@dataclass
class Call:
    code: int
    seconds: float
    stdout: str


@dataclass
class Ledger:
    """Operations attempted and failed, and problems found in outputs."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def op(self, argv: list[str], expect_ok=None) -> Call:
        """Run one CLI call and count it; ``expect_ok(call)`` may add a
        condition on the output under which the call counts as failed."""
        call = run_cli(argv)
        self.attempted += 1
        if call.code != 0 or (expect_ok is not None and not expect_ok(call)):
            self.failed += 1
            self.failures.append(f"{argv[0]} exited {call.code}: {call.stdout[-200:]}")
        return call

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)


def run_cli(argv: list[str]) -> Call:
    """One in-process CLI call, timed from the call to its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a traceback is a failed operation, not a crash
            code = -1
            print(f"{type(exc).__name__}: {exc}", file=err)
        seconds = time.perf_counter() - t0
    return Call(code, seconds, out.getvalue() + err.getvalue())


@dataclass
class Files:
    """Output files of one instance in a pass."""

    strategy: Path
    winning: Path
    winning_emb: Path


def outputs(prepared: Prepared, inst: Instance) -> Files:
    d = prepared.directory / "out"
    d.mkdir(exist_ok=True)
    return Files(d / f"{inst.name}.strategy", d / f"{inst.name}.win", d / f"{inst.name}.win_emb")


def read_winning(path: Path) -> set[int]:
    return {
        int(line)
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip() and not line.startswith("#")
    }


def _record(call: Call) -> tuple[str, int, int, int] | None:
    m = _RECORD_RE.search(call.stdout)
    if not m:
        return None
    return m.group(1), int(m.group(2)), int(m.group(3)), int(m.group(4))


def solve_op(ledger: Ledger, prepared: Prepared, inst: Instance, algo: str, files: Files) -> Call:
    argv = ["solve", str(inst.game), str(inst.spec)]
    if algo == "mt":
        argv += ["--strategy", str(files.strategy), "--winning", str(files.winning)]
    else:
        argv += ["--algo", algo, "--winning", str(files.winning_emb)]
    if prepared.warm:
        argv.append("--warm")
    return ledger.op(argv)


def check_op(ledger: Ledger, inst: Instance, files: Files) -> Call:
    argv = [
        "check", str(inst.game), str(inst.spec), str(files.strategy), str(files.winning),
        "--max-states", str(inst.states),
    ]
    return ledger.op(argv, expect_ok=lambda c: c.stdout.startswith("PASS"))


def compare_op(ledger: Ledger, prepared: Prepared, threads: str | None = None):
    """``compare`` over the instance directory, with MTGAMES_THREADS set to
    ``threads``, or unset when it is None. Returns the call and the
    (algo, pre_count, outer_iterations, winning_size) rows of its CSV."""
    csv = prepared.directory / "out" / "compare.csv"
    csv.unlink(missing_ok=True)
    saved = os.environ.pop("MTGAMES_THREADS", None)
    if threads is not None:
        os.environ["MTGAMES_THREADS"] = threads
    try:
        call = ledger.op(["compare", str(prepared.directory), "--csv", str(csv)])
    finally:
        os.environ.pop("MTGAMES_THREADS", None)
        if saved is not None:
            os.environ["MTGAMES_THREADS"] = saved
    rows = []
    if call.code == 0:
        for line in csv.read_text(encoding="utf-8").splitlines()[1:]:
            cols = line.split(",")
            rows.append((cols[0], int(cols[5]), int(cols[6]), int(cols[8])))
    return call, rows


# ---------------------------------------------------------------------------
# Passes


@dataclass
class PassResult:
    times: dict[str, float]
    pre_count_mt: int
    pre_count_gr1emb: int
    # (algo, pre_count, outer_iterations, winning_size) of every solver run
    # the pass reported, in order; equal across the passes of a run.
    records: list[tuple[str, int, int, int]]


def run_pass(ledger: Ledger, prepared: Prepared) -> PassResult:
    """One round of every command over the workload, with output checks."""
    times = dict.fromkeys(TIME_METRICS, 0.0)
    records: list[tuple[str, int, int, int]] = []
    sizes: list[int] = []
    for inst in prepared.instances:
        files = outputs(prepared, inst)
        mt = solve_op(ledger, prepared, inst, "mt", files)
        emb = solve_op(ledger, prepared, inst, "gr1emb", files)
        times["solve_s"] += mt.seconds
        times["solve_gr1emb_s"] += emb.seconds
        if mt.code == 0 and emb.code == 0:
            rec_mt, rec_emb = _record(mt), _record(emb)
            win = read_winning(files.winning)
            sizes.append(len(win))
            ledger.expect(rec_mt is not None and rec_emb is not None,
                          f"{inst.name}: solve printed no record")
            records += [r for r in (rec_mt, rec_emb) if r]
            ledger.expect(rec_mt is not None and rec_mt[3] == len(win),
                          f"{inst.name}: printed winning size differs from the file")
            ledger.expect(files.winning.read_bytes() == files.winning_emb.read_bytes(),
                          f"{inst.name}: mt and gr1emb winning files differ")
        times["check_s"] += check_op(ledger, inst, files).seconds
    call, rows = compare_op(ledger, prepared)
    times["compare_s"] = call.seconds
    records += rows
    ledger.expect(call.code != 0 or [r[3] for r in rows if r[0] == "mt"] == sizes,
                  "compare's winning sizes differ from solve's")
    if prepared.workload == "series":
        ledger.expect(all(a <= b for a, b in zip(sizes, sizes[1:])),
                      f"series winning set shrank as targets were added: {sizes}")
    pre_mt = sum(r[1] for r in records if r[0] == "mt")
    pre_emb = sum(r[1] for r in records if r[0] == "gr1emb")
    return PassResult(times, pre_mt, pre_emb, records)


def check_apart(ledger: Ledger, prepared: Prepared) -> None:
    """Checks made outside the timed region, once per run.

    series: one instance, picked by the seed, against the plain-set
    reference solver. random: the --warm winning set against a cold
    solve. robot: the winning set is the whole state space, so the
    passing ``check`` of every pass already proves the answer.
    """
    if prepared.workload == "series":
        inst = prepared.instances[prepared.seed % len(prepared.instances)]
        game = game_mod.load_game(inst.game.read_text(encoding="utf-8"))
        spec = specs_mod.parse_spec_file(inst.spec.read_text(encoding="utf-8"))
        expected = set(int(v) for v in solve_mt_reference(game, spec))
        got = read_winning(outputs(prepared, inst).winning)
        ledger.expect(got == expected, f"{inst.name}: winning set differs from the reference")
    elif prepared.workload == "random":
        inst = prepared.instances[0]
        files = outputs(prepared, inst)
        cold = files.winning.with_suffix(".win_cold")
        call = run_cli(["solve", str(inst.game), str(inst.spec), "--winning", str(cold)])
        ledger.expect(
            call.code == 0 and cold.read_bytes() == files.winning.read_bytes(),
            "random: --warm winning set differs from the cold one",
        )
    elif prepared.workload == "robot":
        inst = prepared.instances[0]
        win = read_winning(outputs(prepared, inst).winning)
        ledger.expect(len(win) == inst.states, "robot: winning set is not the whole space")
