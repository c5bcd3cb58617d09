"""Direct solver for mode-target objectives.

A mode-target objective is a conjunction over modes: whenever the play
settles into mode i forever, it must also settle inside one of mode i's
target regions forever. The winning region is a nested fixed point: an
outer greatest fixed point Z (the candidate winning region), and per
mode a persistence-or-reach computation in which "reach" means leaving
the mode at a state from which Z remains winnable.

``solve_mt`` is the instrumented production solver. ``solve_mt_reference``
is an intentionally naive reimplementation over Python sets, kept free
of the engine, the warm-start machinery and numpy, so the two can
cross-check each other in tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError
from .fixpoint import FixpointStats, ModeTrace, solve_stable_conjunction
from .game import PLAYER0, GameGraph, validate_graph
from .sets import StateSet
from .specs import BoundSpec, MTSpec, bind_spec, require_exclusive


@dataclass(frozen=True)
class SolveOptions:
    """Solver switches.

    warm:   seed inner fixed points from the previous outer round.
    record: keep iterate-rank traces for strategy extraction.
    """

    warm: bool = False
    record: bool = True


@dataclass
class MTSolveResult:
    winning: StateSet
    stats: FixpointStats
    trace: list[ModeTrace] | None
    bound: BoundSpec
    algo: str = "mt"


def solve_mt(
    game: GameGraph, spec: MTSpec, options: SolveOptions | None = None
) -> MTSolveResult:
    """Winning region of the mode-target objective for Player 0.

    Raises ValidationError for malformed graphs, ModeExclusivityError
    when two modes overlap on a state, and UnboundProposition when the
    spec names a proposition the graph does not label.
    """
    opts = options or SolveOptions()
    issues = validate_graph(game)
    if issues:
        raise ValidationError("; ".join(issues))
    require_exclusive(game, spec)
    bound = bind_spec(game, spec)

    persist_matrix = bound.persistence_sets
    exit_bases = [~ms for ms in bound.mode_sets]
    outcome = solve_stable_conjunction(
        game,
        persist_matrix,
        exit_bases,
        warm=opts.warm,
        record=opts.record,
    )
    return MTSolveResult(outcome.winning, outcome.stats, outcome.traces, bound)


# ---------------------------------------------------------------------------
# Reference implementation (plain Python sets, no instrumentation)


def _naive_pre(game: GameGraph, target: frozenset[int]) -> frozenset[int]:
    out = set()
    for v in range(game.n):
        succ = [int(w) for w in game.successors(v)]
        if game.owner(v) == PLAYER0:
            if any(w in target for w in succ):
                out.add(v)
        else:
            if succ and all(w in target for w in succ):
                out.add(v)
    return frozenset(out)


def solve_mt_reference(game: GameGraph, spec: MTSpec) -> frozenset[int]:
    """Same winning region as solve_mt, computed the slow obvious way."""
    issues = validate_graph(game)
    if issues:
        raise ValidationError("; ".join(issues))
    require_exclusive(game, spec)
    bound = bind_spec(game, spec)

    every = frozenset(range(game.n))
    mode_rows: list[tuple[frozenset[int], list[frozenset[int]]]] = []
    for i, mode in enumerate(spec.modes):
        mode_states = frozenset(bound.mode_sets[i].indices().tolist())
        targets = [
            frozenset((bound.mode_sets[i] & bound.target_sets[i][j]).indices().tolist())
            for j in range(len(mode.targets))
        ]
        mode_rows.append((mode_states, targets))

    z = every
    while True:
        new_z = z
        for mode_states, persists in mode_rows:
            exit_set = (every - mode_states) & _naive_pre(game, z)
            y: frozenset[int] = frozenset()
            while True:
                base = exit_set | _naive_pre(game, y)
                new_y = base
                for p in persists:
                    x = every
                    while True:
                        nx = x & ((_naive_pre(game, x) & p) | base)
                        if nx == x:
                            break
                        x = nx
                    new_y = new_y | x
                if new_y == y:
                    break
                y = new_y
            new_z = new_z & y
        if new_z == z:
            return z
        z = new_z
