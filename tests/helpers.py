"""Shared builders and independent oracles for the test suite.

Oracles here are deliberately written in plain Python against the
documented definitions, not by calling back into the package's own
optimized code paths, so tests cross-check rather than echo.
"""

from __future__ import annotations

from collections import deque

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from mtgames.errors import BoundExceeded, NonExhaustiveModes
from mtgames.game import PLAYER0, PLAYER1, GameGraph
from mtgames.sets import StateSet
from mtgames.specs import ModeSpec, MTSpec, bind_spec, lasso_satisfies
from mtgames.strategy import CHECK_MAX_STATES, CheckVerdict, Strategy


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
    """Controllable predecessor straight from its definition. A Player 1
    state without successor is in it: all of its successors are in any
    target."""
    out = set()
    for v in range(game.n):
        succ = [int(w) for w in game.successors(v)]
        if game.owner(v) == PLAYER0:
            if any(w in target for w in succ):
                out.add(v)
        else:
            if all(w in target for w in succ):
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
    counts, taken as a scipy sparse product over the graph's edge list."""
    src, dst = game.edge_arrays
    n = game.n
    adj = csr_matrix((np.ones(src.size, dtype=np.int64), (src, dst)), shape=(n, n))
    cnt = adj @ target.bits.astype(np.int64)
    outdeg = np.bincount(src, minlength=n)
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


# ---------------------------------------------------------------------------
# Strategy checker corpus and the loop checker it is compared against


def followed_closure(game: GameGraph, choices: dict[int, int], start) -> StateSet:
    """States reachable from ``start`` when Player 0 follows ``choices``
    (where it has one) and Player 1 moves freely."""
    seen = set(int(v) for v in start)
    todo = list(seen)
    while todo:
        v = todo.pop()
        if game.owner(v) == PLAYER0 and v in choices:
            outs = [choices[v]]
        else:
            outs = [int(w) for w in game.successors(v)]
        for w in outs:
            if 0 <= w < game.n and w not in seen:
                seen.add(w)
                todo.append(w)
    return StateSet(game.n, sorted(seen))


def checker_case(seed: int) -> tuple[GameGraph, MTSpec, Strategy, StateSet]:
    """A seeded claim for the strategy checker: (game, spec, strategy,
    claimed winning set) on up to 15 states with 1-3 modes of 1-3
    targets each.

    By ``seed % 3``: 0 gives exclusive, exhaustive modes with the solver's
    extracted strategy and winning set; 1 exclusive modes that leave some
    states unlabelled, and 2 overlapping modes, both with a random
    strategy claimed winning from the states it reaches. A third of the
    cases are then corrupted: a choice dropped or moved (to another
    successor, a random state, -1, n or 2**64), or a state added to or
    removed from the claim.
    """
    from mtgames.solver import solve_mt
    from mtgames.strategy import extract_strategy

    rng = np.random.default_rng(seed)
    kind = seed % 3
    n = int(rng.integers(1, 16))
    owners = rng.integers(0, 2, size=n).tolist()
    edges = [
        (v, int(w))
        for v in range(n)
        for w in rng.integers(0, n, size=int(rng.integers(1, 4)))
    ]
    m = int(rng.integers(1, 4))
    if kind == 2:
        mode_masks = [rng.random(n) < 0.6 for _ in range(m)]
    else:
        mode_of = rng.integers(0, m if kind == 0 else m + 1, size=n)
        mode_masks = [mode_of == i for i in range(m)]
    labels = {f"M{i + 1}": np.flatnonzero(mask).tolist() for i, mask in enumerate(mode_masks)}
    modes = []
    for i in range(m):
        names = [f"T{i + 1}_{j + 1}" for j in range(int(rng.integers(1, 4)))]
        for name in names:
            labels[name] = np.flatnonzero(rng.random(n) < 0.4).tolist()
        modes.append(ModeSpec(f"M{i + 1}", tuple(names)))
    game = build_game(n, owners, edges, labels)
    spec = MTSpec(tuple(modes))

    if kind == 0:
        result = solve_mt(game, spec)
        strategy = extract_strategy(game, spec, result)
        choices, claim = dict(strategy.choices), set(frozen(result.winning))
    else:
        choices = {
            v: int(rng.choice(game.successors(v)))
            for v in range(n)
            if owners[v] == PLAYER0
        }
        start = np.flatnonzero(rng.random(n) < 0.3)
        claim = set(frozen(followed_closure(game, choices, start)))

    if rng.random() < 1 / 3:
        corruption = int(rng.integers(0, 4))
        if corruption == 0 and choices:
            del choices[int(rng.choice(sorted(choices)))]
        elif corruption == 1 and choices:
            v = int(rng.choice(sorted(choices)))
            picks = [-1, n, 2**64, int(rng.integers(0, n))]
            picks += [int(w) for w in game.successors(v)] * 2
            choices[v] = picks[int(rng.integers(0, len(picks)))]
        elif corruption == 2:
            claim.add(int(rng.integers(0, n)))
        elif claim:
            claim.discard(int(rng.choice(sorted(claim))))
    return game, spec, Strategy(choices, len(claim)), StateSet(n, sorted(claim))


def _bfs_path_loop(
    start: int, goal: int, members: set[int], succ: dict[int, list[int]]
) -> list[int]:
    """Shortest path start..goal of at least one edge inside ``members``;
    with start == goal this finds a shortest nontrivial cycle."""
    parent: dict[int, int] = {}
    q: deque[int] = deque()

    def push(node: int, via: int) -> None:
        if node in members and node not in parent:
            parent[node] = via
            q.append(node)

    for w in succ[start]:
        push(w, start)
    while q:
        u = q.popleft()
        if u == goal:
            break
        for w in succ[u]:
            push(w, u)
    if goal not in parent:
        raise RuntimeError(
            "internal error: no path inside strongly connected component"
        )
    rev = [goal]
    cur = goal
    while True:
        via = parent[cur]
        rev.append(via)
        if via == start:
            break
        cur = via
    rev.reverse()
    return rev


def check_strategy_loop(
    game: GameGraph,
    spec: MTSpec,
    strategy: Strategy,
    winning: StateSet,
    *,
    max_states: int = CHECK_MAX_STATES,
) -> CheckVerdict:
    """The checker as it was before it worked on edge masks, kept as an
    oracle: it follows the strategy one winning state at a time and
    renumbers each mode's states into a local graph.

    Verify that every play from ``winning`` under the strategy wins.

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
    bound = bind_spec(game, spec)
    win_bits = winning.bits

    # Closure of the winning set under the followed edges.
    succ: dict[int, list[int]] = {}
    for v in winning.indices():
        v = int(v)
        outs = [int(w) for w in game.successors(v)]
        if game.owner(v) == PLAYER0:
            c = strategy.choices.get(v)
            if c is None:
                return CheckVerdict(
                    False,
                    "missing-choice",
                    f"Player0 winning state {v} has no chosen successor",
                )
            if c not in outs:
                return CheckVerdict(
                    False,
                    "illegal-edge",
                    f"chosen move {v} -> {c} is not an edge of the graph",
                    edge=(v, c),
                )
            outs = [c]
        for w in outs:
            if not win_bits[w]:
                return CheckVerdict(
                    False,
                    "escapes-winning",
                    f"edge {v} -> {w} leaves the winning set",
                    edge=(v, w),
                )
        succ[v] = outs

    # Cycle criterion, one mode at a time.
    for i, mode in enumerate(spec.modes):
        member_arr = win_bits & bound.modes[i]
        nodes = [int(v) for v in np.flatnonzero(member_arr)]
        if not nodes:
            continue
        members = set(nodes)
        local = {v: idx for idx, v in enumerate(nodes)}
        rows, cols = [], []
        self_loop = set()
        for v in nodes:
            for w in succ[v]:
                if w in members:
                    rows.append(local[v])
                    cols.append(local[w])
                    if w == v:
                        self_loop.add(v)
        if not rows:
            continue
        adj = csr_matrix(
            (np.ones(len(rows), dtype=np.int8), (rows, cols)),
            shape=(len(nodes), len(nodes)),
        )
        ncomp, labels = connected_components(adj, directed=True, connection="strong")
        # Members of each component, grouped by one sort instead of a scan
        # of all labels per component.
        by_comp = np.argsort(labels, kind="stable")
        cuts = np.searchsorted(labels[by_comp], np.arange(ncomp + 1)).tolist()
        by_comp = by_comp.tolist()
        for comp in range(ncomp):
            comp_nodes = [nodes[idx] for idx in by_comp[cuts[comp] : cuts[comp + 1]]]
            if len(comp_nodes) == 1 and comp_nodes[0] not in self_loop:
                continue
            witnesses: list[int] = []
            violating = True
            for j in range(len(mode.targets)):
                tb = bound.targets[i][j]
                outside = next((v for v in comp_nodes if not tb[v]), None)
                if outside is None:
                    violating = False  # this target contains the component
                    break
                if outside not in witnesses:
                    witnesses.append(outside)
            if not violating:
                continue
            comp_set = set(comp_nodes)
            cycle = _stitch_cycle_loop(witnesses, comp_set, succ)
            verdict = CheckVerdict(
                False,
                "violating-cycle",
                f"cycle settles in mode {mode.name} but in none of its targets",
                mode=mode.name,
                cycle=tuple(cycle),
            )
            word = verdict.lasso(game)
            assert word is not None and not lasso_satisfies(spec, word), (
                "internal error: constructed counterexample satisfies the objective"
            )
            return verdict
    return CheckVerdict(True)


def _stitch_cycle_loop(
    witnesses: list[int], members: set[int], succ: dict[int, list[int]]
) -> list[int]:
    """Closed walk through all witnesses inside one strongly connected
    component; returned without the duplicated final state."""
    if len(witnesses) == 1:
        w = witnesses[0]
        path = _bfs_path_loop(w, w, members, succ)
        return path[:-1]
    walk = [witnesses[0]]
    stops = witnesses[1:] + [witnesses[0]]
    cur = witnesses[0]
    for nxt in stops:
        seg = _bfs_path_loop(cur, nxt, members, succ)
        walk.extend(seg[1:])
        cur = nxt
    return walk[:-1]


# ---------------------------------------------------------------------------
# Strategy extraction as it was before it worked on edge arrays


def extraction_case(seed: int) -> tuple[GameGraph, MTSpec, bool]:
    """A seeded (game, spec, warm) for comparing strategy extractions.

    Every 20th seed is an 8x8 cleaning robot with 1-3 rooms and up to 5
    obstacles; the others are random games of 2-300 states (log-uniform)
    with 1-4 modes of 1-3 targets, every fourth one with alternating
    owners. Odd seeds solve warm.
    """
    from mtgames.benchgen import (
        RobotWorld,
        gen_cleaning_robot,
        gen_random_game,
        scaled_rooms,
    )

    rng = np.random.default_rng(seed)
    if seed % 20 == 19:
        rooms = scaled_rooms(8, 8, 1 + seed // 20 % 3)
        obstacles = int(rng.integers(0, 6))
        game, spec = gen_cleaning_robot(RobotWorld(8, 8, rooms, seed, obstacles))
    else:
        n = int(np.exp(rng.uniform(np.log(2), np.log(300))))
        m = int(rng.integers(1, min(n, 4) + 1))
        targets = rng.integers(1, 4, size=m).tolist()
        density = float(rng.uniform(1.0, 3.0))
        game, spec = gen_random_game(
            n, m, targets, density, seed, alternate_owners=seed % 4 == 1
        )
    return game, spec, seed % 2 == 1


def extract_strategy_loop(game: GameGraph, spec: MTSpec, result) -> Strategy:
    """The extraction as it was before it worked on edge arrays, kept as
    an oracle: it walks the winning Player-0 states one at a time.

    Memoryless winning strategy from a recorded direct-solver result.

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

    persist_bits = [bound.persistence(i) for i in range(len(bound.targets))]

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
# Iterate traces: a plain recording loop, and the rank builder that read
# its full masks, kept as oracles


def persistence_reach_iterates(game: GameGraph, block, reach, seeds=None):
    """The iteration of ``fixpoint.solve_persistence_reach`` with every Pre
    over the whole graph (``pre_where``) and every iterate kept as a
    length-n mask. Returns (value, final_x, y_iterates, bases, x_iterates,
    pre_calls), where y_iterates runs from Y_0 = empty to the fixed point,
    bases[l] = Pre(Y_l) | reach and x_iterates[l][j] is the inner fixed
    point of set j against Y_l, for every rank l that grew Y."""

    def pre(mask):
        return pre_where(game, StateSet.from_mask(mask)).bits

    y = np.zeros(game.n, dtype=bool)
    ys, bases, xs, calls = [y], [], [], 0
    while True:
        base = pre(y) | reach
        calls += 1
        new_y, row = base.copy(), []
        for j, p in enumerate(block):
            x = np.ones(game.n, dtype=bool) if seeds is None else seeds[j]
            while True:
                nxt = x & ((pre(x) & p) | base)
                calls += 1
                if np.array_equal(nxt, x):
                    break
                x = nxt
            row.append(x)
            new_y |= x
        if np.array_equal(new_y, y):
            return y, row, ys, bases, xs, calls
        y = new_y
        ys.append(y)
        bases.append(base)
        xs.append(row)


def full_iterates(n: int, rows, bases, x_iterates):
    """(y_iterates, x_iterates as length-n masks) of a
    ``solve_persistence_reach`` result, whose persistence set j holds the
    states ``rows[j]``: X_l = base_l | (X_l & P_j), and Y_(l+1) is base_l
    with the row's X_l."""
    ys, xs = [np.zeros(n, dtype=bool)], []
    for base, row in zip(bases, x_iterates):
        full_row = []
        for r, on_rows in zip(rows, row):
            x = base.copy()
            x[r] = on_rows
            full_row.append(x)
        y = base.copy()
        for x in full_row:
            y |= x
        ys.append(y)
        xs.append(full_row)
    return ys, xs


class ModeTraceLoop:
    """``fixpoint.ModeTrace`` as it was built from full iterate masks, one
    int64 pass per (rank, target); the oracle of ``from_iterates``."""

    def __init__(self, n: int, target_count: int):
        self.y_rank = np.full(n, -1, dtype=np.int64)
        self.x_rank = [np.full(n, -1, dtype=np.int64) for _ in range(target_count)]

    @classmethod
    def from_iterates(
        cls,
        y_iterates: list[np.ndarray],
        x_iterates: list[list[np.ndarray]],
        target_count: int,
    ) -> "ModeTraceLoop":
        tr = cls(y_iterates[0].shape[0], target_count)
        for rank in range(1, len(y_iterates)):
            fresh = y_iterates[rank] & (tr.y_rank < 0)
            tr.y_rank[fresh] = rank
        for rank, row in enumerate(x_iterates):
            for j, x in enumerate(row):
                fresh = x & (tr.x_rank[j] < 0)
                tr.x_rank[j][fresh] = rank
        return tr


def same_trace(tr, oracle) -> bool:
    """Whether two traces hold the same ranks."""
    if len(tr.x_rank) != len(oracle.x_rank):
        return False
    pairs = [(tr.y_rank, oracle.y_rank), *zip(tr.x_rank, oracle.x_rank)]
    return all(np.array_equal(a, b) for a, b in pairs)


def recorded_trace_oracle(n: int, rows, bases, x_iterates) -> ModeTraceLoop:
    """The oracle's ranks of a ``solve_persistence_reach`` result."""
    ys, xs = full_iterates(n, rows, bases, x_iterates)
    return ModeTraceLoop.from_iterates(ys, xs, len(rows))
