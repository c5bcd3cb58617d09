"""Specification front end.

A mode-target specification is a conjunction of clauses, one per mode:
if the play eventually settles in mode ``M`` then it must eventually
settle in one of the mode's targets. The accepted LTL-style surface
syntax is::

    (FG M1 -> FG T11 | FG T12) & (FG M2 -> FG T21)

and the equivalent structured file format::

    mode M1
    target M1 T11
    target M1 T12
    mode M2
    target M2 T21

Modes must label states mutually exclusively. ``bind_spec`` resolves
a specification against one graph's labels as boolean masks
(``BoundSpec``); both solvers, and the GR(1) embedding, read only that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tokens
from .errors import (
    ModeExclusivityError,
    SpecError,
    SpecParseError,
    UnboundProposition,
)
from .game import PROP_NAME_RE, GameGraph

# Tokens that look like temporal operators; seeing one where 'FG' is
# required means the formula is outside the supported fragment rather
# than a typo.
_TEMPORAL_LIKE = {"F", "G", "X", "U", "R", "W", "GF", "FG"}


@dataclass(frozen=True)
class ModeSpec:
    name: str
    targets: tuple[str, ...]

    def __post_init__(self):
        if not PROP_NAME_RE.match(self.name):
            raise SpecError(f"invalid mode name {self.name!r}")
        if not self.targets:
            raise SpecError(f"mode {self.name!r} has no targets")
        for t in self.targets:
            if not PROP_NAME_RE.match(t):
                raise SpecError(f"invalid target name {t!r}")
        if len(set(self.targets)) != len(self.targets):
            raise SpecError(f"duplicate target in mode {self.name!r}")


@dataclass(frozen=True)
class MTSpec:
    modes: tuple[ModeSpec, ...]

    def __post_init__(self):
        if not self.modes:
            raise SpecError("specification has no modes")
        names = [m.name for m in self.modes]
        if len(set(names)) != len(names):
            dup = next(n for i, n in enumerate(names) if n in names[:i])
            raise SpecError(f"duplicate mode {dup!r}")

    @property
    def mode_count(self) -> int:
        return len(self.modes)

    @property
    def target_counts(self) -> tuple[int, ...]:
        return tuple(len(m.targets) for m in self.modes)

    @property
    def sum_targets(self) -> int:
        return sum(self.target_counts)

    @property
    def max_targets(self) -> int:
        return max(self.target_counts)


@dataclass(frozen=True)
class LassoWord:
    """Ultimately periodic word: finite prefix followed by a repeated cycle."""

    prefix: tuple[frozenset[str], ...]
    cycle: tuple[frozenset[str], ...]

    def __post_init__(self):
        if not self.cycle:
            raise SpecError("lasso cycle must be nonempty")


# ---------------------------------------------------------------------------
# LTL-style formula parser


@dataclass
class _Token:
    kind: str  # 'ident', 'lpar', 'rpar', 'amp', 'pipe', 'arrow', 'eof'
    value: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c == "(":
            toks.append(_Token("lpar", "(", i)); i += 1
        elif c == ")":
            toks.append(_Token("rpar", ")", i)); i += 1
        elif c == "&":
            toks.append(_Token("amp", "&", i)); i += 1
        elif c == "|":
            toks.append(_Token("pipe", "|", i)); i += 1
        elif text.startswith("->", i):
            toks.append(_Token("arrow", "->", i)); i += 2
        elif c.isalpha() or c == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Token("ident", text[i:j], i))
            i = j
        else:
            raise SpecParseError(f"unexpected character {c!r}", pos=i)
    toks.append(_Token("eof", "", n))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.toks[self.i]

    def take(self) -> _Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str, what: str) -> _Token:
        t = self.take()
        if t.kind != kind:
            got = t.value or "end of input"
            raise SpecParseError(f"expected {what}, got {got!r}", pos=t.pos)
        return t

    def expect_fg(self) -> None:
        t = self.take()
        if t.kind == "ident" and t.value == "FG":
            return
        if t.kind == "ident" and t.value in _TEMPORAL_LIKE:
            raise SpecParseError(
                f"operator {t.value!r} is not in MT fragment (only 'FG' is allowed)",
                pos=t.pos,
            )
        got = t.value or "end of input"
        raise SpecParseError(f"expected 'FG', got {got!r}", pos=t.pos)

    def proposition(self, what: str) -> str:
        t = self.take()
        if t.kind != "ident":
            got = t.value or "end of input"
            raise SpecParseError(f"expected {what}, got {got!r}", pos=t.pos)
        if t.value in _TEMPORAL_LIKE:
            raise SpecParseError(
                f"nested operator {t.value!r} is not in MT fragment", pos=t.pos
            )
        return t.value

    def clause(self) -> ModeSpec:
        self.expect("lpar", "'('")
        self.expect_fg()
        mode = self.proposition("mode proposition")
        self.expect("arrow", "'->'")
        targets = [self._fg_prop()]
        while self.peek().kind == "pipe":
            self.take()
            targets.append(self._fg_prop())
        self.expect("rpar", "')'")
        return ModeSpec(mode, tuple(targets))

    def _fg_prop(self) -> str:
        self.expect_fg()
        return self.proposition("target proposition")

    def formula(self) -> MTSpec:
        clauses = [self.clause()]
        while self.peek().kind == "amp":
            self.take()
            clauses.append(self.clause())
        t = self.take()
        if t.kind != "eof":
            raise SpecParseError(f"unexpected trailing {t.value!r}", pos=t.pos)
        return MTSpec(tuple(clauses))


def parse_mt_formula(text: str) -> MTSpec:
    """Parse the conjunction-of-clauses formula syntax into an MTSpec."""
    return _Parser(text).formula()


# ---------------------------------------------------------------------------
# Structured spec file


def parse_spec_file(text: str) -> MTSpec:
    """Parse the ``mode``/``target`` line format into an MTSpec."""
    order: list[str] = []
    targets: dict[str, list[str]] = {}
    for lineno, parts in tokens.split_lines(text):
        if parts[0] == "mode":
            if len(parts) != 2:
                raise SpecParseError("expected 'mode <Name>'", line=lineno)
            name = parts[1]
            if not PROP_NAME_RE.match(name):
                raise SpecParseError(f"invalid mode name {name!r}", line=lineno)
            if name in targets:
                raise SpecParseError(f"duplicate mode {name!r}", line=lineno)
            order.append(name)
            targets[name] = []
        elif parts[0] == "target":
            if len(parts) != 3:
                raise SpecParseError(
                    "expected 'target <ModeName> <TargetName>'", line=lineno
                )
            mode, tgt = parts[1], parts[2]
            if mode not in targets:
                raise SpecParseError(
                    f"target names undeclared mode {mode!r}", line=lineno
                )
            if not PROP_NAME_RE.match(tgt):
                raise SpecParseError(f"invalid target name {tgt!r}", line=lineno)
            if tgt in targets[mode]:
                raise SpecParseError(
                    f"duplicate target {tgt!r} for mode {mode!r}", line=lineno
                )
            targets[mode].append(tgt)
        else:
            raise SpecParseError(f"unknown directive {parts[0]!r}", line=lineno)
    if not order:
        raise SpecParseError("no modes declared")
    for name in order:
        if not targets[name]:
            raise SpecParseError(f"mode {name!r} has no targets")
    return MTSpec(tuple(ModeSpec(m, tuple(targets[m])) for m in order))


def format_spec_file(spec: MTSpec) -> str:
    """Render an MTSpec in the structured file format."""
    lines = []
    for m in spec.modes:
        lines.append(f"mode {m.name}")
        for t in m.targets:
            lines.append(f"target {m.name} {t}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Binding to a game and validation


@dataclass(frozen=True, eq=False)
class BoundSpec:
    """Specification propositions resolved against one graph's labels, as
    read-only boolean masks: ``modes`` has one row per mode (m x n), and
    ``targets[i]`` one row per target of mode i (t_i x n)."""

    spec: MTSpec
    modes: np.ndarray
    targets: tuple[np.ndarray, ...]

    def persistence(self, i: int) -> np.ndarray:
        """Mode i's persistence block: per target j, the mode-i states
        inside target j (a fresh t_i x n array)."""
        return self.targets[i] & self.modes[i]

    def mode_index_of(self) -> np.ndarray:
        """Per-state index of the first mode labeling it, -1 when none."""
        return np.where(self.modes.any(axis=0), self.modes.argmax(axis=0), -1)


def _prop_rows(game: GameGraph, names: tuple[str, ...]) -> np.ndarray:
    """Read-only (len(names) x n) masks of the named propositions."""
    rows = np.array([game.prop_set(p).bits for p in names], dtype=bool)
    rows = rows.reshape(len(names), game.n)
    rows.flags.writeable = False
    return rows


def bind_spec(game: GameGraph, spec: MTSpec) -> BoundSpec:
    """Resolve every proposition of ``spec`` in ``game``'s label table."""
    missing = []
    for m in spec.modes:
        if not game.has_prop(m.name):
            missing.append(m.name)
        for t in m.targets:
            if not game.has_prop(t):
                missing.append(t)
    if missing:
        raise UnboundProposition(
            "proposition(s) unbound in graph: " + ", ".join(sorted(set(missing)))
        )
    modes = _prop_rows(game, tuple(m.name for m in spec.modes))
    return BoundSpec(spec, modes, tuple(_prop_rows(game, m.targets) for m in spec.modes))


def require_exclusive(bound: BoundSpec) -> None:
    """Raise :class:`ModeExclusivityError` when a state carries two mode
    labels (assumption (A)); states carrying none are allowed."""
    violations = []
    for v in np.flatnonzero(bound.modes.sum(axis=0) > 1).tolist():
        names = [
            mode.name for mode, row in zip(bound.spec.modes, bound.modes) if row[v]
        ]
        violations.append(f"state {v} breaks assumption (A): modes {', '.join(names)}")
    if violations:
        raise ModeExclusivityError("; ".join(violations))


# ---------------------------------------------------------------------------
# Lasso-word satisfaction


def lasso_satisfies(spec: MTSpec, word: LassoWord) -> bool:
    """Decide whether the ultimately periodic word meets the objective.

    Eventually-always holds on a lasso exactly when every cycle letter
    carries the proposition, so the prefix never matters.
    """
    for m in spec.modes:
        settles_in_mode = all(m.name in letter for letter in word.cycle)
        if not settles_in_mode:
            continue
        if not any(
            all(t in letter for letter in word.cycle) for t in m.targets
        ):
            return False
    return True
