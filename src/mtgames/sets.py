"""Dense sets of state indices.

Every solver-level computation manipulates subsets of a fixed universe
{0, ..., n-1}. StateSet stores one boolean per state and gives exact set
algebra on top of numpy, so unions/intersections over large games stay
cheap while membership remains exact.

Instances are value-like: operators return fresh sets and the backing
array is marked read-only.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np


def int_array(values: Iterable, what: str) -> np.ndarray:
    """``values``, an array or an iterable, as an int64 array. Floats,
    which would be cut to states without a word, and booleans, which
    would index the states 0 and 1, are refused; no values at all are
    fine."""
    arr = values if isinstance(values, np.ndarray) else np.asarray(list(values))
    if arr.size and arr.dtype.kind not in "iu":
        raise ValueError(f"{what} must be integers, not {arr.dtype}")
    return arr.astype(np.int64, copy=False)


class StateSet:
    __slots__ = ("_bits",)

    def __init__(self, universe: int, members: Iterable[int] = ()):
        if universe < 0:
            raise ValueError("universe size must be nonnegative")
        bits = np.zeros(universe, dtype=bool)
        idx = int_array(members, "members")
        if idx.size:
            if idx.min() < 0 or idx.max() >= universe:
                raise ValueError("state index out of range")
            bits[idx] = True
        bits.flags.writeable = False
        self._bits = bits

    @classmethod
    def _wrap(cls, bits: np.ndarray) -> "StateSet":
        s = cls.__new__(cls)
        bits.flags.writeable = False
        s._bits = bits
        return s

    @classmethod
    def empty(cls, universe: int) -> "StateSet":
        return cls._wrap(np.zeros(universe, dtype=bool))

    @classmethod
    def full(cls, universe: int) -> "StateSet":
        return cls._wrap(np.ones(universe, dtype=bool))

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> "StateSet":
        return cls._wrap(np.array(mask, dtype=bool))

    @property
    def bits(self) -> np.ndarray:
        """Read-only boolean membership vector of length ``universe``."""
        return self._bits

    @property
    def universe(self) -> int:
        return self._bits.shape[0]

    def _check(self, other: "StateSet") -> None:
        if not isinstance(other, StateSet):
            raise TypeError(f"expected StateSet, got {type(other).__name__}")
        if other.universe != self.universe:
            raise ValueError(
                f"universe mismatch: {self.universe} vs {other.universe}"
            )

    def __or__(self, other: "StateSet") -> "StateSet":
        self._check(other)
        return StateSet._wrap(self._bits | other._bits)

    def __and__(self, other: "StateSet") -> "StateSet":
        self._check(other)
        return StateSet._wrap(self._bits & other._bits)

    def __sub__(self, other: "StateSet") -> "StateSet":
        self._check(other)
        return StateSet._wrap(self._bits & ~other._bits)

    def __invert__(self) -> "StateSet":
        return StateSet._wrap(~self._bits)

    def __le__(self, other: "StateSet") -> bool:
        self._check(other)
        return bool(np.all(~self._bits | other._bits))

    def __lt__(self, other: "StateSet") -> bool:
        return self <= other and self != other

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StateSet):
            return NotImplemented
        return self.universe == other.universe and bool(
            np.array_equal(self._bits, other._bits)
        )

    __hash__ = None  # mutable-array backing; identity hashing would mislead

    def __contains__(self, state: int) -> bool:
        return 0 <= state < self.universe and bool(self._bits[state])

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices().tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(self._bits))

    def __bool__(self) -> bool:
        return bool(self._bits.any())

    def indices(self) -> np.ndarray:
        """Member states in ascending order."""
        return np.flatnonzero(self._bits)

    def __repr__(self) -> str:
        n = len(self)
        if n <= 12:
            body = "{" + ", ".join(str(i) for i in self.indices()) + "}"
        else:
            head = ", ".join(str(i) for i in self.indices()[:8])
            body = f"{{{head}, ...}} ({n} states)"
        return f"StateSet({self.universe}, {body})"
