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
from collections import deque
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix

from . import tokens
from .errors import BoundExceeded, NonExhaustiveModes
from .game import PLAYER0, GameGraph
from .sets import StateSet
from .solver import MTSolveResult
from .specs import LassoWord, MTSpec, bind_spec, lasso_satisfies


# Default state bound of check_strategy. A `check` run costs 2-3 us a
# state after start-up on a 2-core x86-64 VM, most of it loading the game
# (0.044 s for the 15872-state five-room robot, 0.19 s for a 100000-state
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
    win, p0 = result.winning.bits, game.is_player0_mask
    mode_idx = bound.mode_index_of()

    unlabeled = win & (mode_idx < 0)
    if unlabeled.any():
        raise NonExhaustiveModes(
            f"{int(unlabeled.sum())} winning state(s) carry no mode; "
            "strategy extraction requires modes exhaustive over the winning set"
        )

    def by_mode(states: np.ndarray) -> list[np.ndarray]:
        """Positions in ``states`` grouped by the mode of their state."""
        order = np.argsort(mode_idx[states], kind="stable")
        modes = np.arange(1, len(result.trace))
        return np.split(order, np.searchsorted(mode_idx[states[order]], modes))

    # The states that need a choice, and their edges into the winning set.
    owned = np.flatnonzero(win & p0)
    src, dst = game.edge_arrays
    keep = win[src] & p0[src] & win[dst]
    s, d = src[keep], dst[keep]
    rank = np.empty(owned.size, dtype=np.int64)  # outer rank in the own mode
    key = np.empty(s.size, dtype=np.int64)  # the target's outer rank
    tier = np.empty(s.size, dtype=np.int8)  # 0 progress, 1 stay, 2 neither
    blocks = map(bound.persistence, range(len(result.trace)))
    for tr, persist, at, e in zip(result.trace, blocks, by_mode(owned), by_mode(s)):
        rank[at] = tr.y_rank[owned[at]]
        v, w = s[e], d[e]
        key[e] = rw = tr.y_rank[w]
        # Progress edges lead into a strictly earlier outer iterate; stay
        # edges remain in an inner fixed point of a target of the mode that
        # holds v, at v's rank or earlier.
        stay = np.zeros(e.size, dtype=bool)
        for p, xr in zip(persist, tr.x_rank):
            stay |= p[v] & (0 <= xr[w]) & (xr[w] <= xr[v])
        progress = (1 <= rw) & (rw < tr.y_rank[v])
        tier[e] = np.where(progress, 0, np.where(stay, 1, 2))

    # Per state, its least (tier, target rank, target) edge that qualifies.
    ok = np.flatnonzero(tier < 2)
    ok = ok[np.lexsort((d[ok], key[ok], tier[ok], s[ok]))]
    chooser, first = np.unique(s[ok], return_index=True)
    bad = np.flatnonzero((rank < 1) | ~np.isin(owned, chooser))
    if bad.size:
        v = int(owned[bad[0]])
        if rank[bad[0]] < 1:
            raise RuntimeError(
                f"internal error: winning state {v} missing from mode "
                f"{int(mode_idx[v])} iterates"
            )
        raise RuntimeError(
            f"internal error: no eligible successor for winning state {v}; "
            "iterate trace inconsistent with winning set"
        )
    choices = dict(zip(chooser.tolist(), d[ok][first].tolist()))
    return Strategy(choices, winning_size=len(result.winning))


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
    # Imported here, so that the other commands skip its 0.08-0.11 s import.
    from scipy.sparse.csgraph import connected_components

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
        inside = win & bound.modes[i]
        keep = inside[fs] & inside[fd]
        s, d = fs[keep], fd[keep]
        if not s.size:
            continue
        adj = csr_matrix((np.ones(s.size, dtype=np.int8), (s, d)), shape=(n, n))
        ncomp, labels = connected_components(adj, directed=True, connection="strong")
        bad = np.bincount(labels, minlength=ncomp) > 1
        bad[labels[s[s == d]]] = True
        targets = bound.targets[i]
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
        for v in np.flatnonzero(bound.modes[i]):
            mm |= 1 << int(v)
        mode_masks.append(mm)
        target_masks.append(
            [
                sum(1 << int(v) for v in np.flatnonzero(ts))
                for ts in bound.targets[i]
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
    return StateSet._wrap(out)


# ---------------------------------------------------------------------------
# File formats

def format_strategy(strategy: Strategy) -> str:
    lines = []
    if strategy.winning_size is not None:
        lines.append(f"# winning {strategy.winning_size} states")
    for v in sorted(strategy.choices):
        lines.append(f"move {v} {strategy.choices[v]}")
    return "\n".join(lines) + "\n"


def parse_strategy(text: str, n: int) -> Strategy:
    """Read a strategy file of moves for states below ``n``.

    Each line is ``move <state> <successor>`` with decimal integers, or a
    comment, which opens with ``#``; the last comment that reads ``#
    winning <N> states`` gives the winning size.
    """
    tok = tokens.split(text, comments=False)
    first, per = tok.first[:-1], tok.per_line
    comment = tok.buf[tok.start[first]] == ord("#")
    moves = np.flatnonzero(~comment & (per == 3))
    moves = moves[tok.kinds(first[moves], ["move"]) == 0]
    (state, choice), (state_bad, choice_bad) = tok.ints(moves, [1, 2], decimal=True)
    broken = ~comment
    broken[moves] = False
    # Per line whose decimal state or successor int() refuses (one beyond
    # its digit limit; the state first), what that token is and its length.
    refused = {}
    for i in np.flatnonzero(state_bad | choice_bad).tolist():
        words = [tok.word(first[i] + 1), tok.word(first[i] + 2)]
        if words[0].isdecimal() and words[1].isdecimal():
            at = 0 if state_bad[i] else 1
            refused[i] = ("state", "successor")[at], len(words[at])
        else:
            broken[i] = True
    # The winning size: the last comment that reads "winning N states" once
    # its "#" is cut.
    size = None
    for i in np.flatnonzero(comment & (per >= 3) & (per <= 4)).tolist():
        words = [tok.word(t) for t in range(tok.first[i], tok.first[i + 1])]
        words[:1] = words[0][1:].split()
        if len(words) == 3 and words[::2] == ["winning", "states"] and words[1].isdecimal():
            try:
                size = int(words[1])
            except ValueError:
                refused[i] = "winning size", len(words[1])
    choices = dict(zip(state[moves].tolist(), choice[moves].tolist()))
    unread, outside, again = np.zeros((3, per.size), dtype=bool)
    unread[list(refused)] = True
    outside[moves] = state[moves] >= n
    if len(choices) < moves.size:
        # Each state's move lines after its first.
        again[np.delete(moves, np.unique(state[moves], return_index=True)[1])] = True
    tokens.raise_first(
        [
            (broken, lambda i: "expected 'move <state> <successor>'"),
            (unread, lambda i: "%s of %d digits is too long to read" % refused[i]),
            (outside, lambda i: f"move for state {state[i]} out of range"),
            (again, lambda i: f"duplicate move for state {state[i]}"),
        ],
        tok,
    )
    return Strategy(choices, size)


def format_winning(winning: StateSet) -> str:
    lines = [f"# {len(winning)} states"]
    lines.extend(map(str, winning.indices().tolist()))
    return "\n".join(lines) + "\n"


def parse_winning(text: str, n: int) -> StateSet:
    """Read a winning-set file of states below ``n``, one a line."""
    tok = tokens.split(text)
    (state,), (bad,) = tok.ints(slice(None), [0])
    tokens.raise_first(
        [
            (bad | (tok.per_line != 1), lambda i: "expected one state index per line"),
            ((state < 0) | (state >= n), lambda i: f"state {state[i]} out of range"),
        ],
        tok,
    )
    mask = np.zeros(n, dtype=bool)
    mask[state] = True
    return StateSet._wrap(mask)
