"""Deterministic benchmark generators.

Two families: a cleaning-robot gridworld whose modes track which rooms
are still dirty, and random games with configurable mode/target counts
used for solver comparisons. Both are pure functions of their
parameters (fixed RNG streams), so benchmark CSVs are reproducible.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import BoundExceeded, ValidationError
from .game import MAX_EDGES, MAX_STATES, GameGraph
from .specs import ModeSpec, MTSpec

# Room rectangles in the continuous reference frame the gridworld is
# scaled from: (x0, y0, x1, y1) inside [1, 7.5] x [1, 7.5].
ROOM_BOXES: tuple[tuple[float, float, float, float], ...] = (
    (1.0, 1.0, 3.0, 2.5),
    (1.0, 3.0, 3.0, 5.0),
    (3.5, 3.0, 5.5, 5.5),
    (3.5, 1.0, 5.5, 2.5),
    (6.0, 2.0, 7.5, 5.0),
)
_FRAME_ORIGIN = 1.0
_FRAME_SPAN = 6.5

MAX_ROOMS = 8

# Fraction of states a random target proposition labels.
TARGET_FILL = 0.25


def scaled_rooms(width: int, height: int, k: int) -> list[tuple[int, int, int, int]]:
    """First k reference room boxes mapped onto a width x height grid.

    Continuous coordinates map to cells by scaling the frame onto the
    grid and truncating: cell = floor((coord - origin) * size / span),
    clamped to the grid. Boxes are inclusive cell rectangles
    (col0, row0, col1, row1). Raises :class:`ValidationError` when the grid
    is too small to keep the boxes disjoint.
    """
    if not 1 <= k <= len(ROOM_BOXES):
        raise ValidationError(
            f"no built-in boxes for {k} rooms (have {len(ROOM_BOXES)}); supply boxes"
        )
    out = []
    for x0, y0, x1, y1 in ROOM_BOXES[:k]:
        c0 = math.floor((x0 - _FRAME_ORIGIN) * width / _FRAME_SPAN)
        c1 = math.floor((x1 - _FRAME_ORIGIN) * width / _FRAME_SPAN)
        r0 = math.floor((y0 - _FRAME_ORIGIN) * height / _FRAME_SPAN)
        r1 = math.floor((y1 - _FRAME_ORIGIN) * height / _FRAME_SPAN)
        c1 = min(c1, width - 1)
        r1 = min(r1, height - 1)
        out.append((c0, r0, max(c0, c1), max(r0, r1)))
    if _overlapping(out) is not None:
        raise ValidationError(
            f"grid {width}x{height} is too small for {k} built-in rooms; supply boxes"
        )
    return out


def _overlapping(rooms: list[tuple[int, int, int, int]]) -> tuple[int, int] | None:
    """The first pair (a, b), a < b, of boxes in ``rooms`` that share a
    cell, or None."""
    for a, b in itertools.combinations(range(len(rooms)), 2):
        ac0, ar0, ac1, ar1 = rooms[a]
        bc0, br0, bc1, br1 = rooms[b]
        if ac0 <= bc1 and bc0 <= ac1 and ar0 <= br1 and br0 <= ar1:
            return a, b
    return None


@dataclass
class RobotWorld:
    """Gridworld parameters for the cleaning-robot benchmark.

    rooms are inclusive cell rectangles (col0, row0, col1, row1); they
    must fit the grid and be pairwise disjoint. obstacles random
    blocked cells (never inside rooms) are drawn from the seed.
    """

    width: int
    height: int
    rooms: list[tuple[int, int, int, int]] = field(default_factory=list)
    seed: int = 0
    obstacles: int = 0

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValidationError("grid must have positive dimensions")
        k = len(self.rooms)
        if not 1 <= k <= MAX_ROOMS:
            raise ValidationError(f"room count {k} out of range [1, {MAX_ROOMS}]")
        for idx, (c0, r0, c1, r1) in enumerate(self.rooms):
            if not (0 <= c0 <= c1 < self.width and 0 <= r0 <= r1 < self.height):
                raise ValidationError(f"room {idx + 1} out of grid bounds")
        pair = _overlapping(self.rooms)
        if pair is not None:
            raise ValidationError(f"rooms {pair[0] + 1} and {pair[1] + 1} overlap")
        if self.obstacles < 0:
            raise ValidationError("obstacle count must be nonnegative")

    @property
    def room_count(self) -> int:
        return len(self.rooms)


def _room_of_cells(world: RobotWorld) -> np.ndarray:
    """Per cell: 1-based room id, or 0 for hallway cells."""
    room = np.zeros((world.height, world.width), dtype=np.int64)
    for idx, (c0, r0, c1, r1) in enumerate(world.rooms, start=1):
        room[r0 : r1 + 1, c0 : c1 + 1] = idx
    return room.ravel()


def gen_cleaning_robot(world: RobotWorld) -> tuple[GameGraph, MTSpec]:
    """Cleaning-robot game: grid motion crossed with a dirty-set automaton.

    Modes are the nonempty subsets S of rooms ("rooms still dirty"),
    named M1..M(2^k-1) by subset bitmask. The robot (Player 0) picks a
    grid move; then the environment (Player 1) resolves the mode: it
    may always keep S, and while the robot stands in a dirty room r in
    S it may also mark it clean (drop to S minus r) or, when r was the
    last dirty room, restart with any nonempty dirty set. Mode S's
    targets are the rooms in S: the objective says a run that gets
    stuck forever with dirty set S must park inside one of S's rooms.
    """
    k = world.room_count
    width, height = world.width, world.height
    cells = width * height
    mode_count = (1 << k) - 1
    n = cells * mode_count * 2
    if n > MAX_STATES:
        raise BoundExceeded(
            f"robot game has {n} states, exceeding the bound {MAX_STATES}"
        )

    rng = np.random.default_rng(world.seed)
    room_of = _room_of_cells(world)
    blocked = np.zeros(cells, dtype=bool)
    if world.obstacles:
        free = np.flatnonzero(room_of == 0)
        if world.obstacles > free.size:
            raise ValidationError(
                f"cannot place {world.obstacles} obstacles on {free.size} hallway cells"
            )
        picks = rng.choice(free, size=world.obstacles, replace=False)
        blocked[picks] = True

    def sidx(cell, mask, turn):
        return ((cell * mode_count) + (mask - 1)) * 2 + turn

    # Each cell's moves: stay, or step to an open neighbour from an open cell.
    cell = np.arange(cells)
    col, row = cell % width, cell // width
    inside = np.array([col < width - 1, col > 0, row < height - 1, row > 0])
    to = np.where(inside, cell + np.array([[1], [-1], [width], [-width]]), cell)
    step = inside & ~blocked & ~blocked[to]
    move_from = np.concatenate([cell, np.broadcast_to(cell, to.shape)[step]])
    move_to = np.concatenate([cell, to[step]])

    # The edges in four parts of (sources, targets), each array of shape
    # (pairs, dirty sets) or (pairs,).
    masks = np.arange(1, mode_count + 1)
    room_cells = np.flatnonzero(room_of)
    bit = 1 << (room_of[room_cells] - 1)
    i, j = np.nonzero(((masks & bit[:, None]) != 0) & (masks != bit[:, None]))
    parts = (
        # The robot moves and keeps S.
        (sidx(move_from[:, None], masks, 0), sidx(move_to[:, None], masks, 1)),
        # The environment keeps S,
        (sidx(cell[:, None], masks, 1), sidx(cell[:, None], masks, 0)),
        # cleans room r from every S that holds r and another room,
        (sidx(room_cells[i], masks[j], 1), sidx(room_cells[i], masks[j] ^ bit[i], 0)),
        # and restarts from S = {r} with any nonempty set (keeping S again;
        # GameGraph drops the copy).
        (
            np.repeat(sidx(room_cells, bit, 1), mode_count),
            sidx(room_cells[:, None], masks, 0),
        ),
    )
    edges = tuple(np.concatenate([p[side].ravel() for p in parts]) for side in (0, 1))
    owners = np.arange(n) % 2

    turns = np.arange(2)
    labels = {f"M{s}": sidx(cell[:, None], s, turns).ravel() for s in masks}
    for r in range(1, k + 1):
        in_room = np.flatnonzero(room_of == r)[:, None, None]
        labels[f"T{r}"] = sidx(in_room, masks[:, None], turns).ravel()

    game = GameGraph(n, owners, edges, labels)
    modes = tuple(
        ModeSpec(f"M{s}", tuple(f"T{r}" for r in range(1, k + 1) if s & (1 << (r - 1))))
        for s in masks
    )
    return game, MTSpec(modes)


def gen_random_game(
    n: int,
    m: int,
    targets: list[int],
    density: float,
    seed: int,
    *,
    alternate_owners: bool = False,
) -> tuple[GameGraph, MTSpec]:
    """Random total game with exhaustive, exclusive modes.

    Out-degrees are Poisson(density) with a self-loop where a state
    would otherwise have no successor; the first m states get modes
    1..m so every mode is inhabited; every target proposition labels a
    random nonempty subset of states. Deterministic in seed.
    """
    if m < 1 or n < m:
        raise ValidationError(f"infeasible parameters: need n >= m >= 1, got n={n} m={m}")
    if len(targets) != m or any(t < 1 for t in targets):
        raise ValidationError(
            "infeasible parameters: targets must list one positive count per mode"
        )
    if density <= 0:
        raise ValidationError("infeasible parameters: density must be positive")
    if not math.isfinite(density):
        raise ValidationError("infeasible parameters: density must be finite")
    if n > MAX_STATES or n * density > MAX_EDGES:
        raise BoundExceeded(
            f"{n} states at density {density} exceed the bound of {MAX_STATES} "
            f"states or {MAX_EDGES} expected edges"
        )
    # Each target draws one value per state, so the labels cost n times
    # the target count; it is held to the edge bound.
    if n * sum(targets) > MAX_EDGES:
        raise BoundExceeded(
            f"{n} states times {sum(targets)} targets exceed the bound of "
            f"{MAX_EDGES} label draws"
        )

    rng = np.random.default_rng(seed)
    if alternate_owners:
        owners = np.arange(n, dtype=np.int64) % 2
    else:
        owners = rng.integers(0, 2, size=n)

    degrees = rng.poisson(density, size=n)
    sources = np.repeat(np.arange(n), degrees)
    dests = rng.integers(0, n, size=int(degrees.sum()))
    lonely = np.flatnonzero(degrees == 0)
    edges = (np.concatenate([sources, lonely]), np.concatenate([dests, lonely]))

    mode_of = np.empty(n, dtype=np.int64)
    mode_of[:m] = np.arange(m)
    if n > m:
        mode_of[m:] = rng.integers(0, m, size=n - m)

    labels: dict[str, np.ndarray] = {}
    for i in range(m):
        labels[f"M{i + 1}"] = np.flatnonzero(mode_of == i)
    for i in range(m):
        for j in range(targets[i]):
            mask = rng.random(n) < TARGET_FILL
            if not mask.any():
                mask[int(rng.integers(0, n))] = True
            labels[f"T{i + 1}_{j + 1}"] = np.flatnonzero(mask)

    game = GameGraph(n, owners, edges, labels)
    modes = tuple(
        ModeSpec(
            f"M{i + 1}", tuple(f"T{i + 1}_{j + 1}" for j in range(targets[i]))
        )
        for i in range(m)
    )
    return game, MTSpec(modes)


def gen_multi_target_series(
    n: int,
    m: int,
    density: float,
    seed: int,
    extras: Sequence[int],
) -> list[tuple[GameGraph, MTSpec]]:
    """Series over one base game: mode 1's target count sweeps ``extras``
    (a list or a range) while the other modes keep a single target each.

    Sharing the graph across the sweep isolates the effect of the
    target count on solver work; it also makes the winning set
    monotone along the series (more targets never lose states).
    """
    if not extras:
        raise ValidationError("infeasible parameters: extras must be positive")
    # One spec per step, so the sweep's spec text grows with the square of
    # its length; its total target count is held to the edge bound. The
    # steps are summed one by one, so that a long range stops at the bound.
    total = 0
    for step, x in enumerate(extras, 1):
        if x < 1:
            raise ValidationError("infeasible parameters: extras must be positive")
        total += x + m - 1
        if total > MAX_EDGES:
            raise BoundExceeded(
                f"the sweep's first {step} steps hold {total} targets, which "
                f"exceeds the bound of {MAX_EDGES}"
            )
    top = max(extras)
    game, full = gen_random_game(
        n, m, [top] + [1] * (m - 1), density, seed
    )
    out = []
    for x in extras:
        first = ModeSpec(full.modes[0].name, full.modes[0].targets[:x])
        out.append((game, MTSpec((first,) + full.modes[1:])))
    return out
