"""Memoryless strategies: extraction, checking, enumeration.

Extraction reads the iterate ranks recorded by the direct solver. For a
winning Player-0 state in mode k it prefers a *progress* edge into a
strictly earlier outer iterate, falling back to a *stay* edge that
remains inside an inner fixed point of one of mode k's targets at the
same or earlier rank. Rank descent plus the stay-region structure make
every play under the strategy winning.

The checker and the enumerator are deliberately independent of the
fixed-point machinery. Both rest on the same finite-play fact: the set
of states a play visits infinitely often is strongly connected in the
followed subgraph, so a strategy fails exactly when some reachable
strongly connected component lies inside one mode but inside none of
that mode's targets.
"""

from __future__ import annotations

import itertools
import re
from collections import deque
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import BoundExceeded, GameParseError, NonExhaustiveModes
from .game import PLAYER0, GameGraph
from .sets import StateSet
from .solver import MTSolveResult
from .specs import LassoWord, MTSpec, bind_spec, lasso_satisfies


# Default state bound of check_strategy. A `check` run costs 12-17 us a
# state after start-up on a 2-core x86-64 VM, most of it loading the game
# (0.27 s for the 15872-state five-room robot, 1.2 s for a 100000-state
# random game).
CHECK_MAX_STATES = 100_000


@dataclass
class Strategy:
    """Successor choice for every winning Player-0 state.

    winning_size is the winning-set size the strategy was made for; None
    when a parsed file has no ``# winning N states`` header.
    """

    choices: dict[int, int] = field(default_factory=dict)
    winning_size: int | None = 0


# ---------------------------------------------------------------------------
# Extraction


def extract_strategy(game: GameGraph, spec: MTSpec, result: MTSolveResult) -> Strategy:
    """Memoryless winning strategy from a recorded direct-solver result.

    Requires modes to be exhaustive over the winning set (every winning
    state must know its mode) and a result that carries a trace, i.e.
    one produced by the direct algorithm with recording enabled.
    """
    if result.algo != "mt" or result.trace is None:
        raise ValueError(
            "strategy extraction requires a direct-solver result with a "
            "recorded iterate trace (--algo mt, recording enabled)"
        )
    if result.winning.universe != game.n:
        raise ValueError("result does not belong to this game graph")
    bound = result.bound
    winning = result.winning
    win_bits = winning.bits
    mode_idx = bound.mode_index_of()

    unlabeled = win_bits & (mode_idx < 0)
    if unlabeled.any():
        raise NonExhaustiveModes(
            f"{int(unlabeled.sum())} winning state(s) carry no mode; "
            "strategy extraction requires modes exhaustive over the winning set"
        )

    persist_bits = [
        [p.bits for p in row] for row in bound.persistence_sets
    ]

    choices: dict[int, int] = {}
    for v in winning.indices():
        v = int(v)
        if game.owner(v) != PLAYER0:
            continue
        k = int(mode_idx[v])
        tr = result.trace[k]
        r = int(tr.y_rank[v])
        if r < 1:
            raise RuntimeError(
                f"internal error: winning state {v} missing from mode {k} iterates"
            )
        succs = [int(w) for w in game.successors(v)]

        # Progress edges: strictly earlier outer iterate.
        best: tuple[int, int] | None = None
        if r >= 2:
            for w in succs:
                rw = int(tr.y_rank[w])
                if win_bits[w] and 1 <= rw < r:
                    key = (rw, w)
                    if best is None or key < best:
                        best = key
        if best is None:
            # Stay edges: remain in an inner fixed point of a target of
            # mode k containing v, at v's rank or earlier.
            for j in range(tr.target_count):
                if not persist_bits[k][j][v]:
                    continue
                xr = tr.x_rank[j]
                lv = int(xr[v])
                if lv < 0:
                    continue
                for w in succs:
                    lw = int(xr[w])
                    if win_bits[w] and 0 <= lw <= lv:
                        key = (int(tr.y_rank[w]), w)
                        if best is None or key < best:
                            best = key
        if best is None:
            raise RuntimeError(
                f"internal error: no eligible successor for winning state {v}; "
                "iterate trace inconsistent with winning set"
            )
        choices[v] = best[1]
    return Strategy(choices, winning_size=len(winning))


# ---------------------------------------------------------------------------
# Checking


@dataclass
class CheckVerdict:
    """Outcome of a strategy check.

    reason is one of: missing-choice, illegal-edge, escapes-winning,
    violating-cycle. For violating-cycle, cycle holds a concrete losing
    play: the cycle repeated forever.
    """

    ok: bool
    reason: str | None = None
    detail: str = ""
    edge: tuple[int, int] | None = None
    mode: str | None = None
    cycle: tuple[int, ...] = ()

    def lasso(self, game: GameGraph) -> LassoWord | None:
        if not self.cycle:
            return None
        return LassoWord((), tuple(game.label_names(v) for v in self.cycle))


def _bfs_path(start: int, goal: int, succ: dict[int, list[int]]) -> list[int]:
    """Shortest path start..goal of at least one edge of ``succ``; with
    start == goal this finds a shortest nontrivial cycle."""
    parent: dict[int, int] = {}
    q = deque([start])
    while q and goal not in parent:
        u = q.popleft()
        for w in succ[u]:
            if w not in parent:
                parent[w] = u
                q.append(w)
    if goal not in parent:
        raise RuntimeError(
            "internal error: no path inside strongly connected component"
        )
    path = [goal, parent[goal]]
    while path[-1] != start:
        path.append(parent[path[-1]])
    return path[::-1]


def _stitch_cycle(witnesses: list[int], succ: dict[int, list[int]]) -> list[int]:
    """Closed walk through all witnesses inside one strongly connected
    component, whose edges ``succ`` holds; returned without the
    duplicated final state."""
    walk = [witnesses[0]]
    for cur, nxt in zip(witnesses, witnesses[1:] + witnesses[:1]):
        walk.extend(_bfs_path(cur, nxt, succ)[1:])
    return walk[:-1]


def _chosen(n: int, choices: dict[int, int]) -> np.ndarray:
    """Per state, the successor ``choices`` picks, or -1 where it picks
    none inside 0..n-1. The range test runs on the Python ints, so a
    choice beyond int64 cannot overflow."""
    pairs = np.array(list(choices.items()), dtype=object).reshape(-1, 2)
    inside = ((pairs >= 0) & (pairs < n)).all(axis=1)
    chosen = np.full(n, -1, dtype=np.int64)
    chosen[pairs[inside, 0].astype(np.int64)] = pairs[inside, 1].astype(np.int64)
    return chosen


def check_strategy(
    game: GameGraph,
    spec: MTSpec,
    strategy: Strategy,
    winning: StateSet,
    *,
    max_states: int = CHECK_MAX_STATES,
) -> CheckVerdict:
    """Verify that every play from ``winning`` under the strategy wins.

    Follows Player 0's choices, leaves Player 1 unrestricted, and
    checks (a) the play can never leave ``winning`` and (b) no
    reachable cycle settles in a mode without settling in one of its
    targets. Exact: works on strongly connected components, which is
    equivalent to checking every cycle, because a component has a
    target-avoiding cycle exactly when it has a state outside each
    target.
    """
    if game.n > max_states:
        raise BoundExceeded(
            f"graph has {game.n} states, exceeding the checker bound {max_states}"
        )
    if winning.universe != game.n:
        raise ValueError("winning set does not belong to this game graph")
    bound = bind_spec(game, spec)
    n, win, p0 = game.n, winning.bits, game.is_player0_mask
    src, dst = game.edge_arrays

    # Closure of the winning set under the followed edges: all edges of a
    # winning Player 1 state, the chosen edge of a winning Player 0 state.
    # Reported is the first state in order that has no legal choice or
    # follows an edge out of the set, and its first such edge.
    followed = win[src] & (~p0[src] | (dst == _chosen(n, strategy.choices)[src]))
    fs, fd = src[followed], dst[followed]
    moved = np.zeros(n, dtype=bool)
    moved[fs] = True
    unmoved = np.flatnonzero(win & p0 & ~moved)[:1]
    escape = np.flatnonzero(~win[fd])[:1]
    if escape.size and not (unmoved.size and unmoved[0] < fs[escape[0]]):
        v, w = int(fs[escape[0]]), int(fd[escape[0]])
        detail = f"edge {v} -> {w} leaves the winning set"
        return CheckVerdict(False, "escapes-winning", detail, edge=(v, w))
    if unmoved.size:
        v = int(unmoved[0])
        c = strategy.choices.get(v)
        if c is None:
            detail = f"Player0 winning state {v} has no chosen successor"
            return CheckVerdict(False, "missing-choice", detail)
        detail = f"chosen move {v} -> {c} is not an edge of the graph"
        return CheckVerdict(False, "illegal-edge", detail, edge=(v, c))

    # Cycle criterion, one mode at a time, on the followed edges between
    # the mode's winning states. A component is a cycle when it has two
    # states or a self-loop, and it violates the mode when it has a state
    # outside each of the mode's targets.
    for i, mode in enumerate(spec.modes):
        inside = win & bound.mode_sets[i].bits
        keep = inside[fs] & inside[fd]
        s, d = fs[keep], fd[keep]
        if not s.size:
            continue
        adj = csr_matrix((np.ones(s.size, dtype=np.int8), (s, d)), shape=(n, n))
        ncomp, labels = connected_components(adj, directed=True, connection="strong")
        bad = np.bincount(labels, minlength=ncomp) > 1
        bad[labels[s[s == d]]] = True
        targets = [t.bits for t in bound.target_sets[i]]
        for t in targets:
            bad &= np.bincount(labels[~t], minlength=ncomp) > 0
        if not bad.any():
            continue
        # Counterexample: a closed walk through the component's first state
        # outside each target, on the component's own edges.
        comp = int(np.argmax(bad))
        members = np.flatnonzero(labels == comp)
        witnesses = dict.fromkeys(int(members[~t[members]][0]) for t in targets)
        succ: dict[int, list[int]] = {v: [] for v in members.tolist()}
        within = (labels[s] == comp) & (labels[d] == comp)
        for v, w in zip(s[within].tolist(), d[within].tolist()):
            succ[v].append(w)
        detail = f"cycle settles in mode {mode.name} but in none of its targets"
        cycle = tuple(_stitch_cycle(list(witnesses), succ))
        verdict = CheckVerdict(
            False, "violating-cycle", detail, mode=mode.name, cycle=cycle
        )
        word = verdict.lasso(game)
        assert word is not None and not lasso_satisfies(spec, word), (
            "internal error: constructed counterexample satisfies the objective"
        )
        return verdict
    return CheckVerdict(True)


# ---------------------------------------------------------------------------
# Brute-force oracle


def _bits_of(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def enumerate_memoryless_winning(
    game: GameGraph, spec: MTSpec, *, max_strategies: int = 10**6
) -> StateSet:
    """States some memoryless Player-0 strategy wins from.

    Brute force over all choice combinations; intended as an oracle on
    tiny graphs. A state wins under a fixed strategy when it cannot
    reach any strongly connected component that sits inside one mode
    and avoids all of that mode's targets.
    """
    bound = bind_spec(game, spec)
    n = game.n
    p0 = [v for v in range(n) if game.owner(v) == PLAYER0]
    succ_all = [[int(w) for w in game.successors(v)] for v in range(n)]

    count = 1
    for v in p0:
        count *= len(succ_all[v])
        if count > max_strategies:
            raise BoundExceeded(
                f"strategy count exceeds enumeration bound {max_strategies}"
            )

    mode_masks = []
    target_masks = []
    for i in range(spec.mode_count):
        mm = 0
        for v in bound.mode_sets[i].indices():
            mm |= 1 << int(v)
        mode_masks.append(mm)
        target_masks.append(
            [
                sum(1 << int(v) for v in ts.indices())
                for ts in bound.target_sets[i]
            ]
        )

    all_mask = (1 << n) - 1
    winning = 0

    def closure(adj: list[int]) -> list[int]:
        reach = list(adj)
        changed = True
        while changed:
            changed = False
            for v in range(n):
                acc = reach[v]
                for w in _bits_of(reach[v]):
                    acc |= reach[w]
                if acc != reach[v]:
                    reach[v] = acc
                    changed = True
        return reach

    for combo in itertools.product(*(succ_all[v] for v in p0)):
        pick = dict(zip(p0, combo))
        adj = [0] * n
        for v in range(n):
            if v in pick:
                adj[v] = 1 << pick[v]
            else:
                for w in succ_all[v]:
                    adj[v] |= 1 << w

        bad = 0
        for i in range(spec.mode_count):
            mm = mode_masks[i]
            madj = [adj[v] & mm if (mm >> v) & 1 else 0 for v in range(n)]
            mreach = closure(madj)
            for v in _bits_of(mm):
                if not (mreach[v] >> v) & 1:
                    continue  # not on a cycle within the mode
                scc = 0
                for w in _bits_of(mreach[v]):
                    if (mreach[w] >> v) & 1:
                        scc |= 1 << w
                if all(scc & ~tm for tm in target_masks[i]):
                    bad |= scc
        if bad:
            full = closure(adj)
            lose = bad
            for v in range(n):
                if full[v] & bad:
                    lose |= 1 << v
            winning |= all_mask & ~lose
        else:
            winning = all_mask
        if winning == all_mask:
            break

    out = np.zeros(n, dtype=bool)
    for v in _bits_of(winning):
        out[v] = True
    return StateSet.from_mask(out)


# ---------------------------------------------------------------------------
# File formats

_MOVE_RE = re.compile(r"move\s+(\d+)\s+(\d+)\s*$")
_HEADER_RE = re.compile(r"#\s*winning\s+(\d+)\s+states\s*$")


def format_strategy(strategy: Strategy) -> str:
    lines = []
    if strategy.winning_size is not None:
        lines.append(f"# winning {strategy.winning_size} states")
    for v in sorted(strategy.choices):
        lines.append(f"move {v} {strategy.choices[v]}")
    return "\n".join(lines) + "\n"


def parse_strategy(text: str, n: int | None = None) -> Strategy:
    """Read a strategy file; with ``n``, reject moves for states >= n."""
    choices: dict[int, int] = {}
    winning_size = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            m = _HEADER_RE.match(line)
            if m:
                winning_size = int(m.group(1))
            continue
        m = _MOVE_RE.match(line)
        if not m:
            raise GameParseError("expected 'move <state> <successor>'", line=lineno)
        v, w = int(m.group(1)), int(m.group(2))
        if n is not None and v >= n:
            raise GameParseError(f"move for state {v} out of range", line=lineno)
        if v in choices:
            raise GameParseError(f"duplicate move for state {v}", line=lineno)
        choices[v] = w
    return Strategy(choices, winning_size)


def format_winning(winning: StateSet) -> str:
    lines = [f"# {len(winning)} states"]
    lines.extend(str(int(v)) for v in winning.indices())
    return "\n".join(lines) + "\n"


def parse_winning(text: str, n: int) -> StateSet:
    members = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            v = int(line)
        except ValueError:
            raise GameParseError("expected one state index per line", line=lineno)
        if not 0 <= v < n:
            raise GameParseError(f"state {v} out of range", line=lineno)
        members.append(v)
    return StateSet(n, members)
