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


@dataclass
class PersistenceReachResult:
    """Outcome of one persistence-or-reach computation, as boolean masks.

    value:   the fixed point (states winning the one-mode objective).
    bases:   per rank l (0-based) that grew Y, base_l = Pre(Y_l) | reach,
             where Y_0 is empty.
    x_steps: per Y-step l, the last one (which left Y unchanged) included,
             per persistence set P_j, X_l & P_j on P_j's rows, where X_l is
             the inner fixed point computed against Y_l.
             X_l = base_l | (X_l & P_j), and Y_(l+1) is the union of base_l
             and the step's X_l. Valid ``x_seeds`` for a later run on the
             same persistence sets whose reach set lies inside this run's.

    No mask here is changed after it is stored.
    """

    value: np.ndarray
    bases: list[np.ndarray]
    x_steps: list[list[np.ndarray]]


def solve_persistence_reach(
    engine: FixpointEngine,
    persist_block: np.ndarray,
    reach_mask: np.ndarray,
    *,
    x_seeds: Sequence[Sequence[np.ndarray]] | None = None,
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
    and gives X & P on P's rows. A cold chain starts from X_0 = V, the
    graph's ``every_state``, and Y from its ``no_state``, so that the
    first Pre of each chain is read from the out-degrees rather than
    counted by the kernel; both stay one counted Pre.

    The graph's ``edge_bound`` gate alone picks how a chain runs. Below
    it a chain iterates on length-n masks. Above it a chain passes each
    Pre the rows of U = X_0 & P & ~base alone, cut by
    ``GameGraph.narrow``: rows of P in base stay in every iterate and
    rows outside X_0 never join one, so X_k & P = (base & P) | (X_k & U).

    ``x_seeds`` warm-starts the inner fixed points: per Y-step l, per set
    P_j, a mask on P_j's rows that holds X_l & P_j of this run, where X_l
    is the inner fixed point against Y_l; a step past the last takes the
    last. :attr:`PersistenceReachResult.x_steps` of a run with more to
    reach is one. A seeded chain starts from X_0 = base | seed, so it has
    only U = seed & ~base to decide: rows of P outside the seed never come
    back.
    """
    game = engine.game
    n = game.n
    if persist_block.shape[1:] != (n,) or reach_mask.shape != (n,):
        raise ValueError("set universe does not match game")
    slices = engine.row_slices(persist_block)
    if x_seeds is not None:
        if not x_seeds:
            raise ValueError("no seed step")
        for row in x_seeds:
            if len(row) != len(slices):
                raise ValueError(f"{len(row)} seeds for {len(slices)} persistence sets")
            # An integer seed would index the rows by value.
            if any(s.dtype != bool for s in row):
                raise ValueError("a seed must be a boolean mask")
            if any(s.shape != rows.rows.shape for s, rows in zip(row, slices)):
                raise ValueError("a seed does not match its persistence set's rows")
    on_rows = game.edge_bound
    y = game.no_state
    # Y only grows along the chain, so Pre(Y) is tracked from the empty set;
    # Pre of no_state leaves the tracker there.
    y_counts = game.pre_tracker(full=False)
    bases: list[np.ndarray] = []
    x_steps: list[list[np.ndarray]] = []

    while True:
        base = engine.pre(y, tracker=y_counts)
        base |= reach_mask
        new_y = base.copy()
        seeds = None if x_seeds is None else x_seeds[min(len(bases), len(x_seeds) - 1)]
        if on_rows:
            # X in the kernel's int32 form for the chains on rows: base, with
            # the rows of the chain being iterated patched.
            x_int, base_size = base.astype(np.int32), np.count_nonzero(base)
        x_row: list[np.ndarray] = []
        for j, rows in enumerate(slices):
            seed = None if seeds is None else seeds[j]
            if not on_rows:
                x_row.append(_chain_on_masks(engine, rows, base, new_y, seed))
                continue
            # base & P is in new_y already.
            x = base[rows.rows]
            at = np.flatnonzero(~x if seed is None else seed & ~x)
            u = game.narrow(rows, at)
            on_u = _chain_on_rows(engine, u, x_int, base_size, cold=seed is None)
            new_y[u.rows[on_u]] = True
            x[at[on_u]] = True
            x_row.append(x)
        x_steps.append(x_row)
        if np.array_equal(new_y, y):
            break
        y = new_y
        bases.append(base)
    return PersistenceReachResult(y, bases, x_steps)


def _chain_on_rows(
    engine: FixpointEngine,
    u: RowSlice,
    x_int: np.ndarray,
    base_size: int,
    cold: bool,
) -> np.ndarray:
    """X & U on U's rows of the greatest fixed point of
    X -> (Pre(X) & P) | base below X_0, where the rows of ``u`` are
    U = X_0 & P & ~base. X_0 is V for a ``cold`` chain and base | U
    otherwise.

    ``x_int`` is base in int32 (``base_size`` states); U's rows of it
    hold X while the chain runs and 0 again when it returns."""
    r = u.rows
    if cold:
        # X_1 = base | (Pre(V) & U) equals V iff it holds n states.
        x = engine.pre(engine.game.every_state, within=u)
        size = np.count_nonzero(x)
        if base_size + size == engine.game.n:
            return x
    else:
        # X_1 = base | (Pre(X_0) & U) equals X_0 iff it holds all of U.
        x_int[r] = 1
        x = engine.pre(x_int, within=u)
        size = np.count_nonzero(x)
        if size == r.size:
            x_int[r] = 0
            return x
    x_int[r] = x
    # An inner iterate never grows, so an unchanged size means an unchanged
    # set.
    while True:
        nxt = engine.pre(x_int, within=u)
        nxt &= x
        nxt_size = np.count_nonzero(nxt)
        if nxt_size == size:
            break
        x_int[r[x ^ nxt]] = 0
        x, size = nxt, nxt_size
    x_int[r] = 0
    return x


def _chain_on_masks(
    engine: FixpointEngine,
    rows: RowSlice,
    base: np.ndarray,
    new_y: np.ndarray,
    seed: np.ndarray | None,
) -> np.ndarray:
    """:func:`_chain_on_rows` on length-n masks and all of P's rows: X & P
    on P's rows of the same greatest fixed point, whose X is ORed into
    ``new_y``. X_0 is V for a cold chain, and base | ``seed`` for a seed
    on P's rows."""
    x, size = engine.game.every_state, base.size
    if seed is not None:
        x = base.copy()
        x[rows.rows[seed]] = True
        size = np.count_nonzero(x)
    # An inner iterate never grows, so an unchanged size means an unchanged
    # set.
    while True:
        nxt = np.zeros(base.size, dtype=bool)
        nxt[rows.rows] = engine.pre(x, within=rows)
        nxt |= base
        nxt &= x
        nxt_size = np.count_nonzero(nxt)
        if nxt_size == size:
            break
        x, size = nxt, nxt_size
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
        x_steps: list[list[np.ndarray]],
    ) -> "ModeTrace":
        """The ranks of a :func:`solve_persistence_reach` result over n
        states, whose persistence set j holds the states ``rows[j]``, from
        its ``bases`` and the first ``len(bases)`` of its ``x_steps``.

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
            on_rows = _first_ranks([row[j] for row in x_steps[:steps]], r.size)
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

    With ``warm`` each Y-step's inner fixed points are seeded from the
    same step of the previous outer round, and a step past that round's
    last from its last. Z only shrinks, so the reach set shrinks, and by
    induction on l so do Y_l, base_l and each X_l: every seed holds the
    inner fixed point it seeds. Off its set every iterate is the new
    base, so a chain has only the seed's rows outside base to decide.
    The outer chain restarts from empty either way.

    With ``record`` the iterate chains of each conjunct are kept from
    the final outer round -- the round evaluated against the winning
    set itself, which confirms it -- compressed into rank arrays. This
    adds no predecessor evaluations.
    """
    m = len(persist_blocks)
    if len(exit_masks) != m:
        raise ValueError(f"{len(exit_masks)} exit sets for {m} persistence blocks")
    engine = FixpointEngine(game)
    stats = engine.stats
    seeds: list[list[list[np.ndarray]] | None] = [None] * m
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
                seeds[i] = res.x_steps
            new_z &= res.value
            # Only a round that leaves Z unchanged is final; the traces of
            # any other round would be thrown away.
            if record and np.array_equal(new_z, z):
                rows = [s.rows for s in engine.row_slices(block)]
                traces[i] = ModeTrace.from_iterates(game.n, rows, res.bases, res.x_steps)
        if np.array_equal(new_z, z):
            break
        z = new_z
    stats.wall_time_s = time.perf_counter() - t0
    return NestedSolveOutcome(z, stats, traces)
