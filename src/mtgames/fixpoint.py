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
        from :meth:`row_slices`, it is Pre inside that set only, for a mask
        one value per row of the slice; with ``tracker``, from
        ``game.pre_tracker``, the tracker's counts are brought up to date
        instead of counting every edge."""
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


# A persistence set P runs its inner νX on P's own rows when the game has at
# least this many times |P| states, and on length-n masks otherwise. On its
# rows a chain makes a few more numpy calls (gathers and scatters of P's
# rows) but no pass over all n states, which pays only when n is large
# against |P|. Time of one cold solve_persistence_reach, with its ranks, on
# P's rows over its time on length-n masks, for one random P on random games
# of density 2 with 2% of the states to reach; both paths read their first
# step from the out-degrees (2-core x86-64 VM, medians of 15, the median of
# three sweeps):
#
#   n \ n/|P|  10    25    50    100   200   400
#   600        1.08  1.05  1.10  1.06  1.17  1.15
#   2000       1.11  1.06  1.04  0.99  1.05  1.02
#   5000       0.83  0.82  0.79  0.76  0.76  0.77
#   10000      0.84  0.82  0.77  0.78  0.79  0.78
#   20000      0.90  0.79  0.80  0.76  0.79  0.78
#
# Up to about 5000 states a numpy call costs the same whatever its length,
# and the rows lose a few percent; there the rule admits sets of at most
# n/100 states, 6 at n=600. From 5000 states on these graphs are
# edge_bound, and a chain on masks first narrows P to its undecided rows,
# a dozen numpy calls that buy nothing here, where base holds little of P:
# the rows win down to n/10, the masks at n/4 and n/2 (1.0-1.6, one sweep
# at 5000 and 20000 states). Where few rows are undecided, as in the warm
# gr1emb solves of the random benchmark game (n=20000, |P| from n/16 to
# n/4), every set on its rows made the solve 1.7 times as slow, and a ratio
# of 10 left it as it is. The ratio stays at 100, which the graphs below
# the gate set.
ROW_CHAIN_RATIO = 100

# The first iterate X_0 of an inner chain: as Pre reads it (the graph's
# shared every_state mask for the full set, whose Pre needs no count, else
# its int32 form), as a mask and on its set's rows (both None for the full
# set), and its size.
_Start = tuple[np.ndarray, np.ndarray | None, np.ndarray | None, int]


@dataclass
class PersistenceReachResult:
    """Outcome of one persistence-or-reach computation, as boolean masks.

    value:      the fixed point (states winning the one-mode objective).
    final_x:    per persistence set, the inner fixed point at the last
                (stabilized) iteration; valid warm seeds for a later run
                against a smaller outer set.
    bases:      per rank l (0-based) that grew Y, base_l = Pre(Y_l) | reach,
                where Y_0 is empty.
    x_iterates: per rank l, per persistence set P_j, X_l & P_j on P_j's
                rows, where X_l is the inner fixed point computed against
                Y_l. X_l = base_l | (X_l & P_j), and Y_(l+1) is the union of
                base_l and the row's X_l.

    No mask here is changed after it is stored.
    """

    value: np.ndarray
    final_x: list[np.ndarray]
    bases: list[np.ndarray]
    x_iterates: list[list[np.ndarray]]


def solve_persistence_reach(
    engine: FixpointEngine,
    persist_block: np.ndarray,
    reach_mask: np.ndarray,
    *,
    x_seeds: Sequence[np.ndarray] | None = None,
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

    With base = Pre(Y) | reach, every inner iterate after the first is
    base | (X & P): base lies in every seed and every iterate, and the
    Pre term adds states of P only. So each inner chain starts from X_0
    and gives X & P on P's rows; a set small against the game
    (``ROW_CHAIN_RATIO``) is iterated on its rows alone, any other on
    length-n masks. On a graph that is ``edge_bound``, a chain on masks
    passes each Pre the rows of U = P & X_0 & ~base alone: rows of P in
    base stay in every iterate and rows outside X_0 never come back, so
    X_k & P = (base & P) | (X_k & U). A cold chain starts from the graph's
    ``every_state`` and Y from its ``no_state``, so that the first Pre of
    each chain is read from the out-degrees rather than counted by the
    kernel; both stay one counted Pre.

    ``x_seeds`` warm-starts the inner fixed points, one seed per set;
    each seed must dominate every inner fixed point of this run.
    """
    game = engine.game
    n = game.n
    if persist_block.shape[1:] != (n,) or any(
        b.shape != (n,) for b in (reach_mask, *(x_seeds or ()))
    ):
        raise ValueError("set universe does not match game")
    if x_seeds is not None and len(x_seeds) != len(persist_block):
        raise ValueError(f"{len(x_seeds)} seeds for {len(persist_block)} persistence sets")
    slices = engine.row_slices(persist_block)
    starts: list[_Start]
    if x_seeds is None:
        starts = [(game.every_state, None, None, n)] * len(slices)
    else:
        starts = [
            (seed.astype(np.int32), seed, seed[rows.rows], np.count_nonzero(seed))
            for seed, rows in zip(x_seeds, slices)
        ]
    y = game.no_state
    # Y only grows along the chain, so Pre(Y) is tracked from the empty set;
    # Pre of no_state leaves the tracker there.
    y_counts = game.pre_tracker(full=False)
    bases: list[np.ndarray] = []
    x_iterates: list[list[np.ndarray]] = []

    while True:
        base = engine.pre(y, tracker=y_counts)
        base |= reach_mask
        new_y = base.copy()
        # X in the kernel's int32 form, made once per step for the sets on
        # their rows: base, with the rows of the set being iterated patched.
        x_int = None
        x_row: list[np.ndarray] = []
        for rows, start in zip(slices, starts):
            if rows.rows.size * ROW_CHAIN_RATIO <= n:
                if x_int is None:
                    x_int, base_size = base.astype(np.int32), np.count_nonzero(base)
                x = _chain_on_rows(engine, rows, base, x_int, base_size, start)
                new_y[rows.rows[x]] = True
            else:
                x = _chain_on_masks(engine, rows, base, new_y, start)
            x_row.append(x)
        if np.array_equal(new_y, y):
            break
        y = new_y
        bases.append(base)
        x_iterates.append(x_row)
    final_x = []
    for rows, on_rows in zip(slices, x_row):
        x = base.copy()
        x[rows.rows] = on_rows
        final_x.append(x)
    return PersistenceReachResult(y, final_x, bases, x_iterates)


def _chain_on_rows(
    engine: FixpointEngine,
    rows: RowSlice,
    base: np.ndarray,
    x_int: np.ndarray,
    base_size: int,
    start: _Start,
) -> np.ndarray:
    """X & P on P's rows (``rows``) of the greatest fixed point of
    X -> (Pre(X) & P) | base below X_0 (``start``: X_0 in int32, as a mask,
    on P's rows and its size).

    ``x_int`` is base in int32; P's rows hold X while the chain runs and
    base again when it returns."""
    start_int, _, start_rows, start_size = start
    r = rows.rows
    base_rows = base[r]
    # X_1 = base | (Pre(X_0) & X_0 & P); it equals X_0 iff their sizes do.
    x = engine.pre(start_int, within=rows)
    if start_rows is not None:
        x &= start_rows
    x |= base_rows
    size = np.count_nonzero(x)
    if base_size - np.count_nonzero(base_rows) + size == start_size:
        return x
    x_int[r] = x
    while True:
        nxt = engine.pre(x_int, within=rows)
        nxt |= base_rows
        nxt &= x
        nxt_size = np.count_nonzero(nxt)
        if nxt_size == size:
            break
        x_int[r[x ^ nxt]] = 0
        x, size = nxt, nxt_size
    x_int[r] = base_rows
    return x


def _chain_on_masks(
    engine: FixpointEngine,
    rows: RowSlice,
    base: np.ndarray,
    new_y: np.ndarray,
    start: _Start,
) -> np.ndarray:
    """:func:`_chain_on_rows` on length-n masks: X & P on P's rows of the
    same greatest fixed point, whose X is ORed into ``new_y``."""
    x, bound, start_rows, size = start
    within = rows
    if engine.game.edge_bound:
        # Rows of P in base stay in every iterate and rows outside X_0 never
        # come back, so each Pre need only decide U = P & X_0 & ~base.
        undecided = ~base[rows.rows]
        if start_rows is not None:
            undecided &= start_rows
        within = engine.game.narrow(rows, undecided)
    # An inner iterate never grows, so an unchanged size means an unchanged
    # set.
    while True:
        nxt = np.zeros(base.size, dtype=bool)
        nxt[within.rows] = engine.pre(x, within=within)
        nxt |= base
        if bound is not None:
            nxt &= bound
        nxt_size = np.count_nonzero(nxt)
        if nxt_size == size:
            break
        x = bound = nxt
        size = nxt_size
    new_y |= nxt
    return nxt[rows.rows]


# ---------------------------------------------------------------------------
# Iterate traces


@dataclass(eq=False)
class ModeTrace:
    """Rank-compressed iterate chains for one mode's final computation.

    Membership of state v in the l-th outer iterate Y_l is equivalent to
    1 <= y_rank[v] <= l (Y_0 is empty), and membership in the inner fixed
    point of target j computed against Y_l to 0 <= x_rank[j][v] <= l, so
    the full set chains are reconstructible without storing every iterate.
    :meth:`from_iterates` builds both from what a run keeps per Y-step:
    base = Pre(Y) | reach over all states, and each inner fixed point on
    its persistence set's rows.
    """

    y_rank: np.ndarray
    x_rank: list[np.ndarray]

    @classmethod
    def from_iterates(
        cls,
        n: int,
        rows: Sequence[np.ndarray],
        bases: list[np.ndarray],
        x_iterates: list[list[np.ndarray]],
    ) -> "ModeTrace":
        """The ranks of a :func:`solve_persistence_reach` result over n
        states, whose persistence set j holds the states ``rows[j]``.

        The chains base_l and X_l & P_j both grow with l, and
        X_l = base_l | (X_l & P_j), so a state's x rank is its rank in
        X_l & P_j on P_j's rows and its rank in base_l elsewhere. Y_(l+1)
        is base_l with every X_l, so a state's y rank is one more than its
        least x rank (than its base rank, without targets)."""
        steps = len(bases)
        base_rank = _first_ranks(bases, n)
        least = base_rank.copy()
        x_rank = []
        for j, r in enumerate(rows):
            on_rows = _first_ranks([row[j] for row in x_iterates], r.size)
            least[r] = np.minimum(least[r], on_rows)
            xr = base_rank.copy()
            xr[r] = on_rows
            xr[xr == steps] = -1
            x_rank.append(xr)
        least += 1
        least[least > steps] = -1
        return cls(least, x_rank)


def _first_ranks(chain: list[np.ndarray], size: int) -> np.ndarray:
    """Per position, the index of the first mask of a growing chain of
    ``size``-long masks that holds it, or len(chain) when none does."""
    # In a growing chain that is the number of masks that miss it.
    missed = np.full(size, len(chain), dtype=np.int32)
    for mask in chain:
        missed -= mask
    return missed.astype(np.int64)


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
            res = solve_persistence_reach(engine, block, exit_masks[i] & pre_z, x_seeds=seeds[i])
            if warm:
                seeds[i] = res.final_x
            new_z &= res.value
            # Only a round that leaves Z unchanged is final; the traces of
            # any other round would be thrown away.
            if record and np.array_equal(new_z, z):
                rows = [s.rows for s in engine.row_slices(block)]
                traces[i] = ModeTrace.from_iterates(game.n, rows, res.bases, res.x_iterates)
        if np.array_equal(new_z, z):
            break
        z = new_z
    stats.wall_time_s = time.perf_counter() - t0
    return NestedSolveOutcome(z, stats, traces)
