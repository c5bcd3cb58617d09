"""Two-player game graphs and the controllable-predecessor operator.

A game graph has states 0..n-1 partitioned between Player 0 (the
controller, who resolves choices at her states) and Player 1 (the
environment). Every state carries a successor list and a set of atomic
propositions. Solvers require totality: each state has at least one
successor, so plays never get stuck.

The successor lists are kept as CSR arrays (``indptr`` and ``indices``,
int32 while the edge count fits, int64 beyond). Pre counts each state's
successors inside a set with scipy's compiled CSR matrix-vector kernel,
called on those arrays directly. A :class:`RowSlice` holds the same
arrays for the rows of a state set, as plain index arrays, so that Pre
inside that set reads its rows alone. Pre of the graph's shared masks of
every state and of no state is read from the out-degrees and needs no
count at all.

A set that changes by few states from one Pre to the next, as Y along a
least fixed-point chain or Z across the outer rounds, can instead keep
its successor counts in a :class:`PreTracker`, which brings them up to
date from the in-edges of the states that joined or left the set: the
counter technique of the linear-time attractor. The in-edges come from
a predecessor CSR (edges sorted by target) built on first use. Graphs
with at most ``TRACKED_PRE_EDGES`` edges get no tracker, since there
counting every edge is cheaper. The same test routes the inner chains
of the fixed-point engine: on a larger graph each runs on the rows it
has left to decide alone, cut from its set's row slice by
:meth:`GameGraph.narrow`, and on a smaller one on length-n masks.

The text format round-tripped by :func:`load_game` / :func:`serialize_game`::

    # comment
    states 4
    owner 0 0
    owner 1 1
    ...
    edge 0 1
    ...
    label 0 M1 T1

Sections appear in that order. Proposition names match
``[A-Za-z_][A-Za-z0-9_]*``.
"""

from __future__ import annotations

import re
import string
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.sparse._sparsetools import csr_matvec, csr_row_index

from . import tokens
from .errors import BoundExceeded, GameParseError, ValidationError
from .sets import StateSet, int_array

PLAYER0 = 0
PLAYER1 = 1

PROP_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

# Largest state count load_game and the generators accept. Generated and
# benchmarked games stay far below it (n <= 20000); a larger count in a
# file would ask for memory before a single edge is read.
MAX_STATES = 10_000_000
# Largest expected edge count (states times density) the random
# generators accept, checked before any array is drawn.
MAX_EDGES = 10 * MAX_STATES
# Longest proposition name the array reader of load_game takes; a file
# with a longer one goes through the line parser.
_MAX_NAME_BYTES = 32
# Most edges a graph indexes with int32; a graph with more uses int64.
_MAX_INT32_EDGES = np.iinfo(np.int32).max
# Edge count above which a graph is edge_bound: its Pre costs about its
# edges rather than its numpy calls, and it pays to read fewer edges at the
# price of more calls. Such a graph gets a PreTracker for its whole-graph
# Pre chains and runs every inner chain, cold or seeded, on the rows it has
# left to decide (fixpoint._chain_on_rows); any other graph runs them on
# length-n masks (fixpoint._chain_on_masks). Measured on a 2-core x86-64 VM
# over the whole-graph Pre calls of one solve_mt, a tracked Pre averages
# 15-19 us against 5-8 us for the kernel on a series graph (1244 edges), and
# on warm random games 39 against 29 us at 8491 edges, 50 against 56 us at
# 12880 edges and 103-130 against 235-280 us at 42716 edges. Solves with
# every inner chain on masks took this share of their time with every chain
# on its rows left to decide (solve_mt and solve_gr1_emb, cold and warm,
# tracking as the gate sets it; medians of 9 alternating runs in one
# process): 0.59-0.74 on the series graph (600 states, 1244 edges),
# 0.64-0.78 on random games of 600 and 2000 states (1244 and 4159 edges),
# 0.76-0.96 at 5000 states (10671 edges), 0.93-1.51 at 20000 states (42716
# edges) and 1.06-1.55 on the 16x16 robot (52562 edges).
TRACKED_PRE_EDGES = 10_000
# A tracker whose set changed by more than this share of the states
# recounts every edge with the kernel instead: an in-edge gathered and
# scattered costs several times what an edge costs the kernel.
_RECOUNT_SHARE = 0.25


class GameGraph:
    """Immutable finite game graph.

    Parameters
    ----------
    n:
        Number of states.
    owners:
        Length-n sequence of 0/1 (0 = Player 0 state).
    edges:
        Iterable of (source, target) pairs, each in 0..n-1, or a tuple of
        two integer arrays (sources, targets).
    labels:
        Mapping from proposition name to an iterable of labeled states.
        Insertion order fixes the proposition table.

    Successor lists are sorted and deduplicated.
    """

    def __init__(
        self,
        n: int,
        owners: Sequence[int],
        edges: Iterable[tuple[int, int]],
        labels: Mapping[str, Iterable[int]] | None = None,
    ):
        if n < 0:
            raise ValueError("state count must be nonnegative")
        owner = int_array(owners, "owners")
        if owner.shape != (n,):
            raise ValueError(f"expected {n} owner entries, got {owner.shape}")
        if owner.size and not np.all((owner == PLAYER0) | (owner == PLAYER1)):
            raise ValueError("owners must be 0 or 1")
        self._n = n
        self._owner = owner.astype(np.int8)
        self._owner.flags.writeable = False

        src, dst = _edge_arrays(edges)
        if src.size and (src.min() < 0 or src.max() >= n):
            raise ValueError("edge source out of range")
        if dst.size and (dst.min() < 0 or dst.max() >= n):
            raise ValueError("edge target out of range")
        order, again = _sorted_edges(src, dst)
        order = order[~again]
        src, dst = src[order], dst[order]
        self._src, self._dst = src, dst
        # The Pre kernel's CSR arrays. It wants indptr and indices in one
        # dtype, or it converts them on every call; the edge arrays stay
        # int64, which numpy indexes with no conversion.
        index = np.int32 if src.size <= _MAX_INT32_EDGES else np.int64
        indptr = np.zeros(n + 1, dtype=index)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        self._indptr = indptr
        self._indices = dst.astype(index, copy=False)
        # The kernel's matrix entries: every edge counts one.
        self._ones = np.ones(src.size, dtype=np.int32)
        for arr in (src, dst, indptr, self._indices, self._ones):
            arr.flags.writeable = False

        self._prop_names: tuple[str, ...] = ()
        self._prop_masks: list[np.ndarray] = []
        if labels:
            for name, states in labels.items():
                if not PROP_NAME_RE.match(name):
                    raise ValueError(f"invalid proposition name {name!r}")
                mask = np.zeros(n, dtype=bool)
                idx = int_array(states, f"label states of {name!r}")
                if idx.size:
                    if idx.min() < 0 or idx.max() >= n:
                        raise ValueError(f"label state out of range for {name!r}")
                    mask[idx] = True
                mask.flags.writeable = False
                self._prop_masks.append(mask)
            self._prop_names = tuple(labels)

        self._outdeg = np.diff(self._indptr)
        self._is_p0 = self._owner == PLAYER0
        self._is_p0.flags.writeable = False
        # A state is in Pre(X) iff more than this many of its successors lie
        # in X: none for Player 0, all but one for Player 1. A Player 1
        # state with no successor has -1, so it is in every Pre. int32 like
        # the successor counts, so the comparison needs no cast.
        self._pre_floor = np.where(self._is_p0, 0, self._outdeg - 1).astype(np.int32)
        # The sets of every state and of no state, shared and read-only, and
        # Pre of the former: pre answers them from the graph alone.
        self._every_state = np.ones(n, dtype=bool)
        self._no_state = np.zeros(n, dtype=bool)
        self._pre_every = self._outdeg > self._pre_floor
        for arr in (self._every_state, self._no_state, self._pre_every):
            arr.flags.writeable = False

    @property
    def n(self) -> int:
        return self._n

    @property
    def num_edges(self) -> int:
        return int(self._indices.size)

    @property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (sources, targets) of every edge, sorted by source and
        then target: the successor lists laid end to end."""
        return self._src, self._dst

    @property
    def every_state(self) -> np.ndarray:
        """The read-only mask of every state; :func:`pre` answers it from the
        out-degrees, with no kernel call."""
        return self._every_state

    @property
    def no_state(self) -> np.ndarray:
        """The read-only mask of no state; :func:`pre` answers it from the
        Pre floors, with no kernel call."""
        return self._no_state

    @property
    def props(self) -> tuple[str, ...]:
        return self._prop_names

    @property
    def is_player0_mask(self) -> np.ndarray:
        return self._is_p0

    def owner(self, v: int) -> int:
        return int(self._owner[v])

    def successors(self, v: int) -> np.ndarray:
        return self._dst[self._indptr[v] : self._indptr[v + 1]]

    def has_prop(self, name: str) -> bool:
        return name in self._prop_names

    def prop_set(self, name: str) -> StateSet:
        """The set of states labeled with ``name``."""
        try:
            i = self._prop_names.index(name)
        except ValueError:
            from .errors import UnboundProposition

            raise UnboundProposition(
                f"proposition {name!r} unbound in graph"
            ) from None
        return StateSet.from_mask(self._prop_masks[i])

    def label_names(self, v: int) -> frozenset[str]:
        return frozenset(
            name for name, mask in zip(self._prop_names, self._prop_masks) if mask[v]
        )

    def _counts(
        self, indptr: np.ndarray, indices: np.ndarray, mask: np.ndarray
    ) -> np.ndarray:
        """For each row of the CSR rows ``indptr``/``indices`` (the whole
        graph's, or a row slice's), how many of its successors the length-n
        boolean mask, or its 0/1 int32 form, holds, as int32."""
        # scipy's compiled CSR kernel, called on the graph's own arrays: at
        # n≈600 the dispatch of csr_matrix.__matmul__ (checks, dtype
        # resolution, allocation) is most of a Pre. Every array passed shares
        # a dtype with its peers, so the kernel converts none of them. It
        # checks no bounds, so the mask's length is checked here.
        if mask.shape != (self._n,):
            raise ValueError(f"mask of shape {mask.shape} for {self._n} states")
        out = np.zeros(indptr.size - 1, dtype=np.int32)
        data = self._ones[: indices.size]
        vector = mask.astype(np.int32, copy=False)
        csr_matvec(out.size, self._n, indptr, indices, data, vector, out)
        return out

    def row_slice(self, mask: np.ndarray) -> RowSlice:
        """The successor rows and Pre floors of the states in a length-n
        boolean mask, for a Pre that is only wanted inside that mask."""
        rows = np.flatnonzero(mask)
        indptr, indices = self._take_rows(self._indptr, self._indices, self._outdeg[rows], rows)
        return RowSlice(rows, indptr, indices, self._pre_floor[rows], self._pre_every[rows])

    def narrow(self, rows: RowSlice, at: np.ndarray) -> RowSlice:
        """The row slice of the rows of ``rows`` at the increasing positions
        ``at``, each in 0..len(rows.rows)-1, built from ``rows``' own arrays;
        the graph's one shared slice of no row when ``at`` is empty."""
        if not at.size:
            return self._no_rows
        # The row copy checks no bounds, so the positions are checked here.
        if at.min() < 0 or at.max() >= rows.rows.size:
            raise ValueError(f"row positions outside 0..{rows.rows.size - 1}")
        degree = rows.indptr[at + 1] - rows.indptr[at]
        indptr, indices = self._take_rows(rows.indptr, rows.indices, degree, at)
        return RowSlice(rows.rows[at], indptr, indices, rows.floor[at], rows.pre_every[at])

    def _take_rows(
        self, indptr: np.ndarray, indices: np.ndarray, degree: np.ndarray, at: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The CSR rows ``at``, of ``degree`` edges each, of ``indptr`` and
        ``indices`` (the graph's or a row slice's), laid end to end as an
        indptr and indices of their own."""
        out = np.zeros(at.size + 1, dtype=indptr.dtype)
        np.cumsum(degree, out=out[1:])
        size = int(out[-1])
        got = np.empty(size, dtype=indices.dtype)
        # scipy's compiled row copy, as in PreTracker.counts; it wants the
        # rows in the CSR's dtype, and the copied matrix entries are unused.
        at = at.astype(indptr.dtype, copy=False)
        csr_row_index(at.size, at, indptr, indices, self._ones, got, np.empty(size, np.int32))
        return out, got

    @cached_property
    def _no_rows(self) -> RowSlice:
        return self.row_slice(self._no_state)

    @property
    def edge_bound(self) -> bool:
        """Whether a Pre on this graph costs about its edge count rather
        than its numpy calls: more than ``TRACKED_PRE_EDGES`` edges. Only
        such a graph tracks its whole-graph Pre chains (:meth:`pre_tracker`)
        and runs each inner chain on the rows it has yet to decide; any other
        runs them on length-n masks."""
        return self.num_edges > TRACKED_PRE_EDGES

    def pre_tracker(self, full: bool) -> PreTracker | None:
        """A :class:`PreTracker` of a set that starts with every state
        (``full``) or with none, for a chain of Pre calls on it; None unless
        the graph is :attr:`edge_bound`, since otherwise counting every edge
        is cheaper."""
        if not self.edge_bound:
            return None
        return PreTracker(self, full)

    @cached_property
    def _in_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(indptr, sources, in-degrees) of the edges sorted by target: the
        predecessor CSR, in the index dtype of the successor CSR. Built on
        the first tracked Pre, so that loading, checking and generating a
        graph do not pay for it."""
        index = self._indptr.dtype
        indegree = np.bincount(self._dst, minlength=self._n).astype(index)
        indptr = np.zeros(self._n + 1, dtype=index)
        np.cumsum(indegree, out=indptr[1:])
        sources = self._src[np.argsort(self._dst, kind="stable")].astype(index)
        for arr in (indegree, indptr, sources):
            arr.flags.writeable = False
        return indptr, sources, indegree

    def __eq__(self, other: object) -> bool:
        """Whether both graphs write the same text: the same states, owners
        and edges, and labels by name, since the text format cannot hold
        an empty proposition."""
        if not isinstance(other, GameGraph):
            return NotImplemented
        return serialize_game(self) == serialize_game(other)

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"GameGraph(n={self._n}, edges={self.num_edges}, "
            f"props={list(self._prop_names)})"
        )


@dataclass(frozen=True)
class RowSlice:
    """The successor lists and Pre floors of the states ``rows``, as CSR
    rows ``indptr``/``indices`` in the graph's index dtype, and their part
    of Pre of every state; built by :meth:`GameGraph.row_slice` and
    :meth:`GameGraph.narrow`."""

    rows: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    floor: np.ndarray
    pre_every: np.ndarray


class PreTracker:
    """Every state's count of successors in a set that changes by few
    states from one Pre to the next, as Y along a least fixed-point chain
    or Z across the outer rounds; made by :meth:`GameGraph.pre_tracker`
    and passed to :func:`pre` as ``tracker``.

    Each call of :meth:`counts` reads only the in-edges of the states that
    joined or left the set since the last call, so a chain of Pre calls on
    a set that only grows, or only shrinks, reads each edge at most once;
    a call that finds more than ``_RECOUNT_SHARE`` of the states changed
    recounts every edge with the kernel instead.
    """

    def __init__(self, game: GameGraph, full: bool):
        self._game = game
        self._mask = np.full(game.n, full, dtype=bool)
        # An empty set's counts are zeros, a full set's the out-degrees.
        self._counts = (
            game._outdeg.astype(np.int32) if full else np.zeros(game.n, dtype=np.int32)
        )

    def counts(self, mask: np.ndarray) -> np.ndarray:
        """Every state's count of successors in the length-n boolean
        ``mask``, as int32; the array is the tracker's own, and the next
        call changes it."""
        game = self._game
        # The states that changed index scipy's row copy, which checks no
        # bounds.
        if mask.shape != self._mask.shape:
            raise ValueError(f"mask of shape {mask.shape} for {game.n} states")
        # An int mask would make ``joined`` below index positions, not pick.
        if mask.dtype != bool:
            raise ValueError(f"a tracked Pre takes a boolean mask, not {mask.dtype}")
        changed = mask != self._mask
        changes = np.count_nonzero(changed)
        if not changes:
            return self._counts
        if changes > _RECOUNT_SHARE * game.n:
            self._counts = game._counts(game._indptr, game._indices, mask)
        else:
            indptr, sources, indegree = game._in_edges
            # scipy's row copy wants the states in the CSR's dtype.
            changed = np.flatnonzero(changed).astype(indptr.dtype)
            joined = mask[changed]
            for states, at in (
                (changed[joined], np.add.at),
                (changed[~joined], np.subtract.at),
            ):
                if not states.size:
                    continue
                # The sources of the states' in-edges, gathered by scipy's
                # compiled row copy; the copied matrix entries are unused.
                size = int(indegree[states].sum())
                into = np.empty(size, dtype=indptr.dtype)
                entries = np.empty(size, dtype=np.int32)
                csr_row_index(states.size, states, indptr, sources, game._ones, into, entries)
                # Array values of the counts' dtype: with a scalar, numpy's
                # ufunc.at takes a path some 40 times slower.
                at(self._counts, into, game._ones[:size])
        self._mask = mask.copy()
        return self._counts


def _edge_arrays(edges: Iterable[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """Sources and targets of ``edges``, given as (source, target) pairs or
    as a tuple of two 1-D arrays of equal length; any other shape is
    refused rather than cut."""
    if isinstance(edges, tuple) and len(edges) == 2 and isinstance(edges[0], np.ndarray):
        src, dst = int_array(edges[0], "edge sources"), int_array(edges[1], "edge targets")
        if src.ndim != 1 or src.shape != dst.shape:
            raise ValueError("edge sources and targets must be 1-D arrays of equal length")
        return src, dst
    arr = int_array(edges, "edges")
    if not arr.size:
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("edges must be (source, target) pairs")
    return arr[:, 0], arr[:, 1]


def _sorted_edges(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The edges' stable order by (source, target), and for each position
    of that order whether its edge repeats the one before, i.e. is a
    later copy of an edge."""
    # Files in serialize_game's shape list the edges in this order already.
    ahead = (src[1:] > src[:-1]) | ((src[1:] == src[:-1]) & (dst[1:] > dst[:-1]))
    if ahead.all():
        return np.arange(src.size), np.zeros(src.size, dtype=bool)
    order = np.lexsort((dst, src))
    s, d = src[order], dst[order]
    again = np.zeros(order.size, dtype=bool)
    again[1:] = (s[1:] == s[:-1]) & (d[1:] == d[:-1])
    return order, again


def pre(
    game: GameGraph,
    target: StateSet | np.ndarray,
    within: RowSlice | None = None,
    tracker: PreTracker | None = None,
) -> StateSet | np.ndarray:
    """Controllable predecessor of ``target``.

    A Player 0 state belongs to the result iff some successor is in
    ``target``; a Player 1 state iff all successors are. ``target`` is a
    StateSet, or a boolean mask of length n as the fixed-point loops pass
    it; the result has the same type.

    With ``within``, a slice from ``game.row_slice(P)``, the result is
    ``Pre(target) & P``, computed from P's successor rows alone. For a
    StateSet it is a StateSet of n states; for a mask it has one value per
    row of the slice, in the order of ``within.rows``, and the mask may be
    given in its 0/1 int32 form.

    With ``tracker``, from ``game.pre_tracker``, the result is the same,
    computed from the tracker's successor counts: each call reads the
    in-edges of the states that joined or left ``target`` since the
    tracker's last call. The mask must then be boolean.

    The graph's own ``every_state`` and ``no_state`` masks, recognised by
    identity, are answered from the graph alone, with no count: Pre of
    every state holds the Player 0 states with a successor and every
    Player 1 state, Pre of no state the Player 1 states without one. A
    tracker is then left as it was.
    """
    mask = target
    if isinstance(target, StateSet):
        if target.universe != game.n:
            raise ValueError("target universe does not match game")
        mask = target.bits
    if tracker is not None and within is not None:
        raise ValueError("a tracked Pre is over the whole graph")
    floor = game._pre_floor if within is None else within.floor
    if mask is game._every_state:
        got = (game._pre_every if within is None else within.pre_every).copy()
    elif mask is game._no_state:
        got = floor < 0
    elif tracker is not None:
        got = tracker.counts(mask) > floor
    elif within is None:
        got = game._counts(game._indptr, game._indices, mask) > floor
    else:
        got = game._counts(within.indptr, within.indices, mask) > floor
    if not isinstance(target, StateSet):
        return got
    if within is None:
        return StateSet._wrap(got)
    out = np.zeros(game.n, dtype=bool)
    out[within.rows] = got
    return StateSet._wrap(out)


def validate_graph(game: GameGraph) -> list[str]:
    """Structural violations; an empty list means valid.

    A graph's targets are in range and its edges unique, so the only
    violation left is a state with no successor (totality), reported in
    state order.
    """
    lonely = np.flatnonzero(game._outdeg == 0)
    return [f"state {v}: no successor" for v in lonely.tolist()]


def _edge_issues(n: int, src: np.ndarray, dst: np.ndarray) -> list[str]:
    """Structural violations of an edge list over states 0..n-1, whose
    sources and targets are in range.

    Reported per state, in state order: no successor (totality), or
    later copies of an edge in the order of the list.
    """
    order, again = _sorted_edges(src, dst)
    lonely = np.flatnonzero(np.bincount(src, minlength=n) == 0)
    dup = order[again]
    # A state without successor has no duplicates, so sorting the issues by
    # (state, position in the list) keeps each state's issues together.
    state = np.concatenate((lonely, src[dup]))
    pos = np.concatenate((np.zeros_like(lonely), dup))
    issues = [f"state {v}: no successor" for v in lonely.tolist()]
    issues += [
        f"state {v}: duplicate edge to {w}"
        for v, w in zip(src[dup].tolist(), dst[dup].tolist())
    ]
    return [issues[i] for i in np.lexsort((pos, state)).tolist()]


_SECTIONS = ("states", "owner", "edge", "label")


def load_game(text: str) -> GameGraph:
    """Parse the game text format into a canonical :class:`GameGraph`.

    Raises :class:`GameParseError` with a line number on malformed
    input, :class:`BoundExceeded` for more than ``MAX_STATES`` states, and
    :class:`ValidationError` listing structural issues (totality,
    duplicate edges).

    Text in :func:`serialize_game`'s shape is read as arrays, and the
    edge issues of such a file are worded from its arrays; any other
    text, and every file that fails another check, goes through the line
    parser, which gives the same graph or words the error.
    """
    game = _load_arrays(text)
    return game if game is not None else _load_game_lines(text)


def _load_arrays(text: str) -> GameGraph | None:
    """The graph of a valid game file in :func:`serialize_game`'s shape:
    a ``states`` line, n ``owner`` lines, the ``edge`` lines and then the
    ``label`` lines, with 1 to 8 digit integers. None for any other text,
    and for a file the line parser would reject for another reason than
    its edge issues, which raise its :class:`ValidationError`."""
    tok = tokens.split(text)
    head = None if tok is None else tok.fields(slice(0, 1), b"states", 1)
    if head is None or head[0, 0] > MAX_STATES or head[0, 0] >= tok.per_line.size:
        return None
    n = int(head[0, 0])
    first = tok.first[1:-1]
    m = int(np.count_nonzero(tok.buf[tok.start[first[n:]]] == ord("e")))
    owners = tok.fields(slice(1, n + 1), b"owner", 2)
    edges = tok.fields(slice(n + 1, n + 1 + m), b"edge", 2)
    labels = first[n + m :]
    if (
        owners is None
        or edges is None
        or np.any(tok.per_line[n + 1 + m :] < 3)
        or not tok.are(labels, b"label")
    ):
        return None
    label_state = tok.ints(labels + 1)
    (state, owner), (src, dst) = owners.T, edges.T
    if label_state is None or any(np.any(a >= n) for a in (state, edges, label_state)):
        return None
    owned = np.zeros(n, dtype=bool)
    owned[state] = True
    if not owned.all() or np.any(owner > PLAYER1):
        return None
    owner_of = np.empty(n, dtype=np.int8)
    owner_of[state] = owner
    props = _label_arrays(tok, labels, label_state)
    if props is None:
        return None
    game = GameGraph(n, owner_of, (src, dst), props)
    if game.num_edges != m or not game._outdeg.all():
        raise ValidationError("; ".join(_edge_issues(n, src, dst)))
    return game


# The bytes a label section may hold: those of names and states, spaces
# and newlines.
_LABEL_BYTE = np.zeros(256, dtype=bool)
_LABEL_BYTE[np.frombuffer(f"_ \n{string.ascii_letters}{string.digits}".encode(), np.uint8)] = True


def _label_arrays(
    tok: tokens.Tokens, first: np.ndarray, state: np.ndarray
) -> dict[str, np.ndarray] | None:
    """Proposition name to labelled states, in order of first mention, of
    the label lines that open at tokens ``first`` and label ``state``;
    None if a name is not a proposition name."""
    if not first.size:
        return {}
    at = tok.start[first[0]]
    body = tok.buf[at:]
    if not np.all(_LABEL_BYTE[body]):
        return None
    # The names are each label line's tokens from the third on; none may
    # open with a digit, the only name bytes at or below "9".
    is_name = np.ones(tok.start.size - first[0], dtype=bool)
    is_name[first - first[0]] = is_name[first + 1 - first[0]] = False
    name_tok = np.flatnonzero(is_name) + first[0]
    name_at, length = tok.start[name_tok] - at, tok.length[name_tok]
    if np.any(body[name_at] <= ord("9")):
        return None
    # Each name as a fixed-width byte string, so that one sort numbers the
    # distinct names.
    width = int(length.max())
    if width > _MAX_NAME_BYTES:
        return None
    padded = np.concatenate((body, np.zeros(width, dtype=np.uint8)))
    window = sliding_window_view(padded, width)[name_at]
    key = np.where(np.arange(width) < length[:, None], window, 0).view(f"S{width}")[:, 0]
    distinct, mention, code = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(mention)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    code = rank[code]
    names = [distinct[i].decode("ascii") for i in order.tolist()]
    line = np.repeat(np.arange(first.size), np.diff(first, append=tok.start.size) - 2)
    labelled = state[line[np.argsort(code, kind="stable")]]
    return dict(zip(names, np.split(labelled, np.cumsum(np.bincount(code))[:-1])))


def _load_game_lines(text: str) -> GameGraph:
    """:func:`load_game` for any text, one line at a time."""
    n: int | None = None
    owners: list[int | None] = []
    edges: list[tuple[int, int]] = []
    labels: dict[str, list[int]] = {}
    stage = 0

    def advance(section: str, lineno: int) -> None:
        nonlocal stage
        want = _SECTIONS.index(section)
        if want < stage:
            raise GameParseError(
                f"'{section}' line after '{_SECTIONS[stage]}' section", lineno
            )
        stage = want

    def parse_int(tok: str, what: str, lineno: int) -> int:
        try:
            return int(tok)
        except ValueError:
            raise GameParseError(f"expected integer {what}, got {tok!r}", lineno)

    for lineno, parts in tokens.split_lines(text):
        kind = parts[0]
        if kind == "states":
            if n is not None:
                raise GameParseError("duplicate 'states' line", lineno)
            if len(parts) != 2:
                raise GameParseError("expected 'states <n>'", lineno)
            n = parse_int(parts[1], "state count", lineno)
            if n < 0:
                raise GameParseError("state count must be nonnegative", lineno)
            if n > MAX_STATES:
                raise BoundExceeded(
                    f"line {lineno}: state count {n} exceeds the bound {MAX_STATES}"
                )
            owners = [None] * n
            continue
        if n is None:
            raise GameParseError("first line must be 'states <n>'", lineno)
        if kind == "owner":
            advance("owner", lineno)
            if len(parts) != 3:
                raise GameParseError("expected 'owner <state> <0|1>'", lineno)
            v = parse_int(parts[1], "state", lineno)
            o = parse_int(parts[2], "owner", lineno)
            if not 0 <= v < n:
                raise GameParseError(f"state {v} out of range", lineno)
            if o not in (0, 1):
                raise GameParseError(f"owner must be 0 or 1, got {o}", lineno)
            if owners[v] is not None:
                raise GameParseError(f"duplicate owner for state {v}", lineno)
            owners[v] = o
        elif kind == "edge":
            advance("edge", lineno)
            if len(parts) != 3:
                raise GameParseError("expected 'edge <from> <to>'", lineno)
            u = parse_int(parts[1], "source state", lineno)
            w = parse_int(parts[2], "target state", lineno)
            if not 0 <= u < n:
                raise GameParseError(f"edge source {u} out of range", lineno)
            if not 0 <= w < n:
                raise GameParseError(f"edge target {w} out of range", lineno)
            edges.append((u, w))
        elif kind == "label":
            advance("label", lineno)
            if len(parts) < 3:
                raise GameParseError("expected 'label <state> <prop> [...]'", lineno)
            v = parse_int(parts[1], "state", lineno)
            if not 0 <= v < n:
                raise GameParseError(f"state {v} out of range", lineno)
            for name in parts[2:]:
                if not PROP_NAME_RE.match(name):
                    raise GameParseError(f"invalid proposition name {name!r}", lineno)
                labels.setdefault(name, []).append(v)
        else:
            raise GameParseError(f"unknown directive {kind!r}", lineno)

    if n is None:
        raise GameParseError("missing 'states' line")
    missing = [v for v, o in enumerate(owners) if o is None]
    if missing:
        raise GameParseError(f"missing owner for state {missing[0]}")

    src, dst = _edge_arrays(edges)
    game = GameGraph(n, owners, (src, dst), labels)
    # Targets were range-checked above, so the only possible issues are a
    # state without successor and duplicates, which the graph drops.
    if game.num_edges != src.size or not game._outdeg.all():
        raise ValidationError("; ".join(_edge_issues(n, src, dst)))
    return game


def serialize_game(game: GameGraph) -> str:
    """Render a graph in the canonical text form accepted by load_game."""
    out = [f"states {game.n}"]
    out.extend(f"owner {v} {o}" for v, o in enumerate(game._owner.tolist()))
    src, dst = game.edge_arrays
    out.extend(f"edge {v} {w}" for v, w in zip(src.tolist(), dst.tolist()))
    masks = dict(zip(game._prop_names, game._prop_masks))
    names: list[list[str]] = [[] for _ in range(game.n)]
    for name in sorted(masks):
        for v in np.flatnonzero(masks[name]).tolist():
            names[v].append(name)
    out.extend(f"label {v} {' '.join(row)}" for v, row in enumerate(names) if row)
    return "\n".join(out) + "\n"
