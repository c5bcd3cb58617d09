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

from .game import GameGraph, PreTracker, RowSlice, pre
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
    """Counts predecessor evaluations over one game graph, and keeps the
    row slices of the persistence blocks it is given."""

    def __init__(self, game: GameGraph):
        self.game = game
        self.stats = FixpointStats()
        # Row slices by the identity of their block, which is kept alive here
        # so that its id cannot be reused.
        self._slices: dict[int, tuple[np.ndarray, list[RowSlice]]] = {}

    def pre(
        self,
        s: StateSet | np.ndarray,
        within: RowSlice | None = None,
        tracker: PreTracker | None = None,
    ) -> StateSet | np.ndarray:
        """Counted Pre of a boolean mask, as the loops below pass it, or of
        a StateSet; the result has the same type. With ``within``, a slice
        from :meth:`row_slices`, it is Pre inside that set only; with
        ``tracker``, from ``game.pre_tracker``, the tracker's counts are
        brought up to date instead of counting every edge."""
        self.stats.pre_count += 1
        return pre(self.game, s, within=within, tracker=tracker)

    def row_slices(self, block: np.ndarray) -> list[RowSlice]:
        """The graph's row slice of each row of ``block``, built once per
        block object."""
        hit = self._slices.get(id(block))
        if hit is None:
            slices = [self.game.row_slice(p) for p in block]
            hit = self._slices[id(block)] = (block, slices)
        return hit[1]

    def gfp(
        self,
        op: Callable[[StateSet], StateSet],
        seed: StateSet | None = None,
    ) -> StateSet:
        """Greatest fixed point; ``seed`` must lie above it."""
        x = seed if seed is not None else StateSet.full(self.game.n)
        while True:
            nxt = x & op(x)
            if nxt == x:
                return x
            x = nxt


@dataclass
class PersistenceReachResult:
    """Outcome of one persistence-or-reach computation, as boolean masks.

    value:      the fixed point (states winning the one-mode objective).
    final_x:    per persistence set, the inner fixed point at the last
                (stabilized) iteration; valid warm seeds for a later run
                against a smaller outer set.
    y_iterates: recorded outer iterates Y_0 = empty .. Y_R (when recording).
    x_iterates: per recorded rank l (0-based), per persistence set j, the
                inner fixed point computed against Y_l; the next iterate
                is the union of that row.

    No mask here is changed after it is stored.
    """

    value: np.ndarray
    final_x: list[np.ndarray]
    y_iterates: list[np.ndarray] | None = None
    x_iterates: list[list[np.ndarray]] | None = None


def solve_persistence_reach(
    engine: FixpointEngine,
    persist_block: np.ndarray,
    reach_mask: np.ndarray,
    *,
    x_seeds: Sequence[np.ndarray] | None = None,
    record: bool = False,
) -> PersistenceReachResult:
    """States from which Player 0 forces: settle forever inside one of
    the persistence sets (the rows of ``persist_block``, t x n), or reach
    ``reach_mask``.

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
    # An inner iterate never grows (it is intersected with its predecessor),
    # so an unchanged size means an unchanged set. Pre(X) & P is evaluated on
    # P's rows only.
    n = engine.game.n
    seeds = x_seeds or ()
    if persist_block.shape[1:] != (n,) or any(
        b.shape != (n,) for b in (reach_mask, *seeds)
    ):
        raise ValueError("set universe does not match game")
    slices = engine.row_slices(persist_block)
    full = np.ones(n, dtype=bool)
    y = np.zeros(n, dtype=bool)
    # Y only grows along the chain, so Pre(Y) is tracked from the empty set.
    y_counts = engine.game.pre_tracker(full=False)
    y_iterates = [y] if record else None
    x_iterates: list[list[np.ndarray]] | None = [] if record else None

    while True:
        base = engine.pre(y, tracker=y_counts)
        base |= reach_mask
        new_y = base.copy()
        x_row: list[np.ndarray] = []
        for j, rows in enumerate(slices):
            x = seeds[j] if seeds else full
            size = np.count_nonzero(x)
            while True:
                nxt = engine.pre(x, within=rows)
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
            y_iterates.append(y)
            x_iterates.append(x_row)
    return PersistenceReachResult(y, x_row, y_iterates, x_iterates)


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
        y_iterates: list[np.ndarray],
        x_iterates: list[list[np.ndarray]],
        target_count: int,
    ) -> "ModeTrace":
        tr = cls(y_iterates[0].shape[0], target_count)
        for rank in range(1, len(y_iterates)):
            fresh = y_iterates[rank] & (tr.y_rank < 0)
            tr.y_rank[fresh] = rank
        for rank, row in enumerate(x_iterates):
            for j, x in enumerate(row):
                fresh = x & (tr.x_rank[j] < 0)
                tr.x_rank[j][fresh] = rank
        return tr

    @property
    def target_count(self) -> int:
        return len(self.x_rank)


# ---------------------------------------------------------------------------
# Shared nested solver


@dataclass
class NestedSolveOutcome:
    winning: np.ndarray
    stats: FixpointStats
    traces: list[ModeTrace] | None


def solve_stable_conjunction(
    game: GameGraph,
    persist_blocks: Sequence[np.ndarray],
    exit_masks: Sequence[np.ndarray],
    *,
    warm: bool = False,
    record: bool = False,
) -> NestedSolveOutcome:
    """Common driver for the nested greatest/least fixed-point solvers.

    Computes the winning mask of the conjunction over conjunct i of
    "settle in one of the rows of persist_blocks[i], or visit
    exit_masks[i] at a point from which the whole conjunction stays
    winnable". The outer iteration is a plain downward Kleene chain from
    the full set; each conjunct is evaluated against the same outer
    iterate, in declaration order, so predecessor counts are
    deterministic. Row slices are built once per block object.

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
    m = len(persist_blocks)
    seeds: list[list[np.ndarray] | None] = [None] * m
    traces: list[ModeTrace] | None = [None] * m if record else None

    t0 = time.perf_counter()
    z = np.ones(game.n, dtype=bool)
    # Z only shrinks across the rounds, so Pre(Z) is tracked from the full set.
    z_counts = game.pre_tracker(full=True)
    while True:
        stats.outer_iterations += 1
        pre_z = engine.pre(z, tracker=z_counts)
        new_z = z.copy()
        for i, block in enumerate(persist_blocks):
            res = solve_persistence_reach(
                engine, block, exit_masks[i] & pre_z, x_seeds=seeds[i], record=record
            )
            if warm:
                seeds[i] = res.final_x
            new_z &= res.value
            # Only a round that leaves Z unchanged is final; the traces of
            # any other round would be thrown away.
            if record and np.array_equal(new_z, z):
                traces[i] = ModeTrace.from_iterates(
                    res.y_iterates, res.x_iterates, len(block)
                )
        if np.array_equal(new_z, z):
            break
        z = new_z
    stats.wall_time_s = time.perf_counter() - t0
    return NestedSolveOutcome(z, stats, traces)
