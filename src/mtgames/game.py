"""Two-player game graphs and the controllable-predecessor operator.

A game graph has states 0..n-1 partitioned between Player 0 (the
controller, who resolves choices at her states) and Player 1 (the
environment). Every state carries a successor list and a set of atomic
propositions. Solvers require totality: each state has at least one
successor, so plays never get stuck.

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
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import BoundExceeded, GameParseError, ValidationError
from .sets import StateSet

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


class GameGraph:
    """Immutable finite game graph.

    Parameters
    ----------
    n:
        Number of states.
    owners:
        Length-n sequence of 0/1 (0 = Player 0 state).
    edges:
        Iterable of (source, target) pairs.
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
        owner = np.asarray(owners, dtype=np.int8)
        if owner.shape != (n,):
            raise ValueError(f"expected {n} owner entries, got {owner.shape}")
        if owner.size and not np.all((owner == PLAYER0) | (owner == PLAYER1)):
            raise ValueError("owners must be 0 or 1")
        self._n = n
        self._owner = owner
        self._owner.flags.writeable = False

        src, dst = _edge_arrays(edges)
        if src.size and (src.min() < 0 or src.max() >= n):
            raise ValueError("edge source out of range")
        # Dangling targets are representable so validate_graph can report them.
        order, again = _sorted_edges(src, dst)
        order = order[~again]
        src, dst = src[order], dst[order]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        self._indptr = indptr
        self._src = src
        self._indices = dst
        for arr in (indptr, src, dst):
            arr.flags.writeable = False

        self._prop_names: tuple[str, ...] = ()
        self._prop_masks: list[np.ndarray] = []
        if labels:
            names = []
            for name, states in labels.items():
                if not PROP_NAME_RE.match(name):
                    raise ValueError(f"invalid proposition name {name!r}")
                mask = np.zeros(n, dtype=bool)
                idx = np.fromiter(states, dtype=np.int64)
                if idx.size:
                    if idx.min() < 0 or idx.max() >= n:
                        raise ValueError(f"label state out of range for {name!r}")
                    mask[idx] = True
                mask.flags.writeable = False
                names.append(name)
                self._prop_masks.append(mask)
            if len(set(names)) != len(names):
                raise ValueError("duplicate proposition name")
            self._prop_names = tuple(names)

        self._csr: sp.csr_matrix | None = None
        self._outdeg = np.diff(self._indptr)
        self._is_p0 = self._owner == PLAYER0
        self._is_p0.flags.writeable = False
        # A state is in Pre(X) iff more than this many of its successors lie
        # in X: none for Player 0, all but one for Player 1. A Player 1
        # state with no successor has -1, so it is in every Pre. int32 like
        # the successor counts, so the comparison needs no cast.
        self._pre_floor = np.where(self._is_p0, 0, self._outdeg - 1).astype(np.int32)

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
        return self._src, self._indices

    @property
    def props(self) -> tuple[str, ...]:
        return self._prop_names

    @property
    def is_player0_mask(self) -> np.ndarray:
        return self._is_p0

    def owner(self, v: int) -> int:
        return int(self._owner[v])

    def successors(self, v: int) -> np.ndarray:
        return self._indices[self._indptr[v] : self._indptr[v + 1]]

    def out_degree(self, v: int) -> int:
        return int(self._outdeg[v])

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

    def _matrix(self) -> sp.csr_matrix:
        if self._csr is None:
            if self._indices.size and self._indices.max() >= self._n:
                raise ValidationError("graph has dangling successor indices")
            if self._indices.size and self._indices.min() < 0:
                raise ValidationError("graph has negative successor indices")
            data = np.ones(self._indices.size, dtype=np.int32)
            self._csr = sp.csr_matrix(
                (data, self._indices.astype(np.int32), self._indptr),
                shape=(self._n, self._n),
            )
        return self._csr

    def count_successors_in(self, mask: np.ndarray) -> np.ndarray:
        """Per-state count of successors inside the given boolean mask."""
        return self._matrix() @ mask.astype(np.int32)

    def pre_mask(self, mask: np.ndarray, within: RowSlice | None = None) -> np.ndarray:
        """Controllable predecessor of a length-n boolean mask, as a fresh
        mask; see :func:`pre`. With ``within`` only the slice's rows are
        evaluated, and every other state is False."""
        if within is None:
            return self.count_successors_in(mask) > self._pre_floor
        out = np.zeros(self._n, dtype=bool)
        out[within.rows] = within.matrix @ mask.astype(np.int32) > within.floor
        return out

    def row_slice(self, mask: np.ndarray) -> RowSlice:
        """The successor rows and Pre floors of the states in a length-n
        boolean mask, for a Pre that is only wanted inside that mask."""
        rows = np.flatnonzero(mask)
        return RowSlice(rows, self._matrix()[rows], self._pre_floor[rows])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GameGraph):
            return NotImplemented
        if self._n != other._n:
            return False
        if not np.array_equal(self._owner, other._owner):
            return False
        if not (
            np.array_equal(self._indptr, other._indptr)
            and np.array_equal(self._indices, other._indices)
        ):
            return False
        # Labels compare by name; empty propositions are ignored since the
        # text format cannot represent them.
        mine = {
            nm: mask
            for nm, mask in zip(self._prop_names, self._prop_masks)
            if mask.any()
        }
        theirs = {
            nm: mask
            for nm, mask in zip(other._prop_names, other._prop_masks)
            if mask.any()
        }
        if mine.keys() != theirs.keys():
            return False
        return all(np.array_equal(mine[nm], theirs[nm]) for nm in mine)

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"GameGraph(n={self._n}, edges={self.num_edges}, "
            f"props={list(self._prop_names)})"
        )


@dataclass(frozen=True)
class RowSlice:
    """Rows of a graph's successor matrix and Pre floor, for the states
    ``rows``; built by :meth:`GameGraph.row_slice`."""

    rows: np.ndarray
    matrix: sp.csr_matrix
    floor: np.ndarray


def _edge_arrays(edges: Iterable[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(edges, tuple) and len(edges) == 2 and isinstance(edges[0], np.ndarray):
        return edges[0].astype(np.int64), edges[1].astype(np.int64)
    pairs = list(edges)
    if not pairs:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    arr = np.asarray(pairs, dtype=np.int64)
    return arr[:, 0], arr[:, 1]


def _sorted_edges(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The edges' stable order by (source, target), and for each position
    of that order whether its edge repeats the one before, i.e. is a
    later copy of an edge."""
    order = np.lexsort((dst, src))
    s, d = src[order], dst[order]
    again = np.zeros(order.size, dtype=bool)
    again[1:] = (s[1:] == s[:-1]) & (d[1:] == d[:-1])
    return order, again


def pre(
    game: GameGraph, target: StateSet | np.ndarray, within: RowSlice | None = None
) -> StateSet | np.ndarray:
    """Controllable predecessor of ``target``.

    A Player 0 state belongs to the result iff some successor is in
    ``target``; a Player 1 state iff all successors are. ``target`` is a
    StateSet, or a boolean mask of length n as the fixed-point loops pass
    it; the result has the same type.

    With ``within``, a slice from ``game.row_slice(P)``, the result is
    ``Pre(target) & P``, computed from P's successor rows alone.
    """
    if not isinstance(target, StateSet):
        return game.pre_mask(target, within)
    if target.universe != game.n:
        raise ValueError("target universe does not match game")
    return StateSet._wrap(game.pre_mask(target.bits, within))


def validate_graph(game: GameGraph) -> list[str]:
    """Collect structural violations; an empty list means valid.

    Reported per state, in state order: no successor (totality), then
    successor indices out of range, each in the order of the state's
    sorted successor list. A graph holds no duplicate edges.
    """
    return _edge_issues(game.n, *game.edge_arrays)


def _edge_issues(n: int, src: np.ndarray, dst: np.ndarray) -> list[str]:
    """Structural violations of an edge list over states 0..n-1, whose
    sources are in range.

    Reported per state, in state order: no successor (totality), then
    targets out of range, then later copies of an edge, each in the
    order of the list.
    """
    order, again = _sorted_edges(src, dst)
    lonely = np.flatnonzero(np.bincount(src, minlength=n) == 0)
    bad = np.flatnonzero((dst < 0) | (dst >= n))
    dup = order[again]
    # Issues of kind 0, 1, 2, sorted by (state, kind, position in the list);
    # the no-successor template ignores its target.
    state = np.concatenate((lonely, src[bad], src[dup]))
    kind = np.repeat([0, 1, 2], (lonely.size, bad.size, dup.size))
    pos = np.concatenate((np.zeros_like(lonely), bad, dup))
    target = np.concatenate((np.zeros_like(lonely), dst[bad], dst[dup]))
    at = np.lexsort((pos, kind, state))
    templates = (
        "state {}: no successor",
        "state {}: edge target {} out of range",
        "state {}: duplicate edge to {}",
    )
    return [
        templates[k].format(v, w)
        for v, k, w in zip(state[at].tolist(), kind[at].tolist(), target[at].tolist())
    ]


_SECTIONS = ("states", "owner", "edge", "label")


def load_game(text: str) -> GameGraph:
    """Parse the game text format into a canonical :class:`GameGraph`.

    Raises :class:`GameParseError` with a line number on malformed
    input, :class:`BoundExceeded` for more than ``MAX_STATES`` states, and
    :class:`ValidationError` listing structural issues (totality,
    duplicate edges).
    """
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

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
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
