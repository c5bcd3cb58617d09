"""Shared builders and independent oracles for the test suite.

Oracles here are deliberately written in plain Python against the
documented definitions, not by calling back into the package's own
optimized code paths, so tests cross-check rather than echo.
"""

from __future__ import annotations

import numpy as np

from mtgames.game import PLAYER0, PLAYER1, GameGraph
from mtgames.sets import StateSet
from mtgames.specs import ModeSpec, MTSpec


def build_game(n, owners, edges, labels=None) -> GameGraph:
    return GameGraph(n, owners, edges, labels or {})


def g1() -> GameGraph:
    """Two Player-0 states; 0 can stay or advance to 1; 1 self-loops.

    Both states carry mode M1; only state 1 carries target T11.
    """
    return build_game(
        2,
        [PLAYER0, PLAYER0],
        [(0, 0), (0, 1), (1, 1)],
        {"M1": [0, 1], "T11": [1]},
    )


def g2() -> GameGraph:
    """State 0 (Player 0) must move to 1; state 1 (Player 1) may return.

    Same labeling as g1: the adversary can always escape the target.
    """
    return build_game(
        2,
        [PLAYER0, PLAYER1],
        [(0, 1), (1, 0), (1, 1)],
        {"M1": [0, 1], "T11": [1]},
    )


def one_mode_spec() -> MTSpec:
    return MTSpec((ModeSpec("M1", ("T11",)),))


def frozen(s: StateSet) -> frozenset[int]:
    return frozenset(int(v) for v in s.indices())


# ---------------------------------------------------------------------------
# Independent oracles


def naive_pre(game: GameGraph, target: set[int]) -> set[int]:
    """Controllable predecessor straight from its definition."""
    out = set()
    for v in range(game.n):
        succ = [int(w) for w in game.successors(v)]
        if game.owner(v) == PLAYER0:
            if any(w in target for w in succ):
                out.add(v)
        else:
            if succ and all(w in target for w in succ):
                out.add(v)
    return out


def naive_attractor(game: GameGraph, goal: set[int]) -> set[int]:
    """States from which Player 0 forces a visit to ``goal``."""
    cur = set(goal)
    while True:
        nxt = cur | naive_pre(game, cur)
        if nxt == cur:
            return cur
        cur = nxt


def random_graph(seed: int, n: int | None = None) -> GameGraph:
    """Small random total graph, independent of the benchmark generators."""
    rng = np.random.default_rng(seed)
    if n is None:
        n = int(rng.integers(1, 12))
    owners = rng.integers(0, 2, size=n).tolist()
    edges = []
    for v in range(n):
        deg = int(rng.integers(1, 4))
        for w in rng.integers(0, n, size=deg):
            edges.append((v, int(w)))
    return build_game(n, owners, edges)


def random_subset(seed: int, n: int) -> StateSet:
    rng = np.random.default_rng(seed)
    return StateSet.from_mask(rng.random(n) < 0.5)


# ---------------------------------------------------------------------------
# Loop forms of the vectorized graph code, kept as oracles


def validate_graph_loop(n: int, src, dst) -> list[str]:
    """Structural issues of an edge list over states 0..n-1, one state at
    a time, each state's edges in list order."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    issues: list[str] = []
    for v in range(n):
        row = dst[src == v]
        if row.size == 0:
            issues.append(f"state {v}: no successor")
            continue
        bad = row[(row < 0) | (row >= n)]
        for w in bad:
            issues.append(f"state {v}: edge target {int(w)} out of range")
        seen = set()
        for w in row:
            w = int(w)
            if w in seen:
                issues.append(f"state {v}: duplicate edge to {w}")
            seen.add(w)
    return issues


def canonical_rows_loop(n: int, src, dst) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, indices) of the sorted, deduplicated successor lists."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    order = np.argsort(src, kind="stable")
    src, dst = src[order], dst[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, src + 1, 1)
    np.cumsum(indptr, out=indptr)
    rows = [np.unique(dst[indptr[v] : indptr[v + 1]]) for v in range(n)]
    counts = np.fromiter((r.size for r in rows), dtype=np.int64, count=n)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    indices = np.concatenate(rows) if rows else dst[:0]
    return indptr, indices


def serialize_game_loop(game: GameGraph) -> str:
    """The game text format, written one state at a time."""
    out = [f"states {game.n}"]
    for v in range(game.n):
        out.append(f"owner {v} {game.owner(v)}")
    for v in range(game.n):
        for w in sorted(set(int(x) for x in game.successors(v))):
            out.append(f"edge {v} {w}")
    for v in range(game.n):
        names = sorted(game.label_names(v))
        if names:
            out.append(f"label {v} {' '.join(names)}")
    return "\n".join(out) + "\n"


def pre_where(game: GameGraph, target: StateSet) -> StateSet:
    """Controllable predecessor through one np.where over the successor
    counts."""
    cnt = game.count_successors_in(target.bits)
    outdeg = np.diff(game._indptr)
    return StateSet.from_mask(np.where(game.is_player0_mask, cnt > 0, cnt == outdeg))


def random_raw_edges(seed: int) -> tuple[int, list[int], np.ndarray, np.ndarray]:
    """(n, owners, src, dst) of a random edge list. Targets are drawn from
    -2..n+1, so with up to 3n edges over few states the lists have states
    with no successor, negative and out-of-range targets, and duplicates."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 9))
    owners = rng.integers(0, 2, size=n).tolist()
    m = int(rng.integers(0, 3 * n + 1))
    src = rng.integers(0, max(n, 1), size=m)
    dst = rng.integers(-2, n + 2, size=m)
    return n, owners, src, dst
