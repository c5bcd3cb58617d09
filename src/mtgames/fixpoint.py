"""Instrumented fixed-point engine.

All solvers in this package reduce to iterating monotone set operators
built from the controllable predecessor. The engine counts every
predecessor evaluation so algorithm variants can be compared by work
performed rather than wall time, which is the measurement the whole
benchmark suite is built on.

Iteration always runs inflationary (least fixed points) or deflationary
(greatest fixed points) so that warm seeds, which need not be iterates
of the cold run, still converge to the correct bound.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .game import GameGraph, pre
from .sets import StateSet


@dataclass
class FixpointStats:
    """Work counters for one solver run.

    pre_count is deterministic for a fixed instance and option set;
    wall_time_s is informational only.
    """

    pre_count: int = 0
    outer_iterations: int = 0
    wall_time_s: float = 0.0


class FixpointEngine:
    """Counts predecessor evaluations over one game graph."""

    def __init__(self, game: GameGraph):
        self.game = game
        self.stats = FixpointStats()
        self._empty = StateSet.empty(game.n)
        self._full = StateSet.full(game.n)

    @property
    def empty(self) -> StateSet:
        return self._empty

    @property
    def full(self) -> StateSet:
        return self._full

    def pre(self, s: StateSet | np.ndarray) -> StateSet | np.ndarray:
        """Counted Pre of a StateSet, or of a boolean mask as the loops
        below pass it; the result has the same type."""
        self.stats.pre_count += 1
        return pre(self.game, s)

    def gfp(
        self,
        op: Callable[[StateSet], StateSet],
        seed: StateSet | None = None,
    ) -> StateSet:
        """Greatest fixed point; ``seed`` must lie above it."""
        x = seed if seed is not None else self._full
        while True:
            nxt = x & op(x)
            if nxt == x:
                return x
            x = nxt


@dataclass
class PersistenceReachResult:
    """Outcome of one persistence-or-reach computation.

    value:      the fixed point (states winning the one-mode objective).
    final_x:    per persistence set, the inner fixed point at the last
                (stabilized) iteration; valid warm seeds for a later run
                against a smaller outer set.
    y_iterates: recorded outer iterates Y_0 = empty .. Y_R (when recording).
    x_iterates: per recorded rank l (0-based), per persistence set j, the
                inner fixed point computed against Y_l; the next iterate
                is the union of that row.
    """

    value: StateSet
    final_x: list[StateSet]
    y_iterates: list[StateSet] | None = None
    x_iterates: list[list[StateSet]] | None = None


def solve_persistence_reach(
    engine: FixpointEngine,
    persist_sets: Sequence[StateSet],
    reach_set: StateSet | None = None,
    *,
    x_seeds: Sequence[StateSet] | None = None,
    record: bool = False,
) -> PersistenceReachResult:
    """States from which Player 0 forces: settle forever inside one of
    the persistence sets, or reach the reach set.

    Computed as a least fixed point over Y whose body takes, for every
    persistence set P, the greatest fixed point of

        X  ->  (Pre(X) & P) | reach | Pre(Y)

    and unions the results. The reach and Pre(Y) terms sit inside the
    inner fixed point: a state may win by keeping the play inside P
    *until* an opportunity to fall out appears, even when neither
    staying forever nor reaching is forceable on its own.

    ``x_seeds`` warm-starts the inner fixed points; each seed must
    dominate every inner fixed point of this run.
    """
    # The loops run on the raw boolean masks; StateSets are made only for
    # the result. An inner iterate never grows (it is intersected with its
    # predecessor), so an unchanged size means an unchanged set.
    persist = [p.bits for p in persist_sets]
    reach = reach_set.bits if reach_set is not None else engine.empty.bits
    seeds = [s.bits for s in x_seeds] if x_seeds is not None else None
    if any(b.shape != (engine.game.n,) for b in (*persist, reach, *(seeds or ()))):
        raise ValueError("set universe does not match game")
    full = engine.full.bits
    y = engine.empty.bits
    y_iterates: list[StateSet] | None = [engine.empty] if record else None
    x_iterates: list[list[StateSet]] | None = [] if record else None

    while True:
        base = engine.pre(y)
        base |= reach
        new_y = base.copy()
        x_row: list[np.ndarray] = []
        for j, p in enumerate(persist):
            x = seeds[j] if seeds is not None else full
            size = np.count_nonzero(x)
            while True:
                nxt = engine.pre(x)
                nxt &= p
                nxt |= base
                nxt &= x
                nxt_size = np.count_nonzero(nxt)
                if nxt_size == size:
                    break
                x, size = nxt, nxt_size
            x_row.append(x)
            new_y |= x
        if np.array_equal(new_y, y):
            break
        y = new_y
        if record:
            y_iterates.append(StateSet._wrap(y))
            x_iterates.append([StateSet._wrap(x) for x in x_row])
    final_x = [StateSet._wrap(x) for x in x_row]
    return PersistenceReachResult(StateSet._wrap(y), final_x, y_iterates, x_iterates)


# ---------------------------------------------------------------------------
# Iterate traces


class ModeTrace:
    """Rank-compressed iterate chains for one mode's final computation.

    Membership of state v in the l-th outer iterate Y_l is equivalent to
    1 <= y_rank[v] <= l (Y_0 is empty), and membership in the inner fixed
    point of target j computed against Y_l to 0 <= x_rank[j][v] <= l, so
    the full set chains are reconstructible without storing every iterate.
    """

    def __init__(self, n: int, target_count: int):
        self.y_rank = np.full(n, -1, dtype=np.int64)
        self.x_rank = [np.full(n, -1, dtype=np.int64) for _ in range(target_count)]

    @classmethod
    def from_iterates(
        cls,
        y_iterates: list[StateSet],
        x_iterates: list[list[StateSet]],
        target_count: int,
    ) -> "ModeTrace":
        n = y_iterates[0].universe
        tr = cls(n, target_count)
        for rank in range(1, len(y_iterates)):
            fresh = y_iterates[rank].bits & (tr.y_rank < 0)
            tr.y_rank[fresh] = rank
        for rank, row in enumerate(x_iterates):
            for j, x in enumerate(row):
                fresh = x.bits & (tr.x_rank[j] < 0)
                tr.x_rank[j][fresh] = rank
        return tr

    @property
    def target_count(self) -> int:
        return len(self.x_rank)


# ---------------------------------------------------------------------------
# Shared nested solver


@dataclass
class NestedSolveOutcome:
    winning: StateSet
    stats: FixpointStats
    traces: list[ModeTrace] | None


def solve_stable_conjunction(
    game: GameGraph,
    persist_matrix: Sequence[Sequence[StateSet]],
    exit_bases: Sequence[StateSet],
    *,
    warm: bool = False,
    record: bool = False,
) -> NestedSolveOutcome:
    """Common driver for the nested greatest/least fixed-point solvers.

    Computes the winning region of the conjunction over conjunct i of
    "settle in one of persist_matrix[i], or visit exit_bases[i] at a
    point from which the whole conjunction stays winnable". The outer
    iteration is a plain downward Kleene chain from the full set; each
    conjunct is evaluated against the same outer iterate, in
    declaration order, so predecessor counts are deterministic.

    With ``warm`` the inner fixed points are seeded with their values
    from the previous outer round. Those values only shrink as the
    outer set shrinks, so the seeds stay above every inner fixed point
    of the current round; the outer chain restarts from empty either way.

    With ``record`` the iterate chains of each conjunct are kept from
    the final outer round -- the round evaluated against the winning
    set itself, which confirms it -- compressed into rank arrays. This
    adds no predecessor evaluations.
    """
    engine = FixpointEngine(game)
    stats = engine.stats
    m = len(persist_matrix)
    exits = [e.bits for e in exit_bases]
    seeds: list[list[StateSet] | None] = [None] * m
    traces: list[ModeTrace] | None = [None] * m if record else None

    t0 = time.perf_counter()
    z = engine.full.bits
    while True:
        stats.outer_iterations += 1
        pre_z = engine.pre(z)
        new_z = z.copy()
        for i in range(m):
            res = solve_persistence_reach(
                engine,
                persist_matrix[i],
                StateSet._wrap(exits[i] & pre_z),
                x_seeds=seeds[i],
                record=record,
            )
            if warm:
                seeds[i] = res.final_x
            if record:
                traces[i] = ModeTrace.from_iterates(
                    res.y_iterates, res.x_iterates, len(persist_matrix[i])
                )
            new_z &= res.value.bits
        if np.array_equal(new_z, z):
            break
        z = new_z
    stats.wall_time_s = time.perf_counter() - t0
    return NestedSolveOutcome(StateSet._wrap(z), stats, traces)
