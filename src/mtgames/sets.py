"""State sets where they leave or enter the package.

Inside the package a subset of the states {0, ..., n-1} is a length-n
boolean mask. A StateSet wraps one, read-only, only at the edge: the
solvers' results, ``GameGraph.prop_set``, ``parse_winning`` and
``enumerate_memoryless_winning`` hand one out; strategy extraction, the
checker and the winning-set writer read one.
"""

from __future__ import annotations

from collections.abc import Iterable

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
    """The states of a 1-D boolean mask, one value per state; the mask is
    copied, so that no later change to it reaches the set."""

    __slots__ = ("_bits",)

    def __init__(self, mask: np.ndarray):
        bits = np.array(mask)
        # An integer array would be read as a list of states by one reader
        # and as a mask by another.
        if bits.dtype != bool or bits.ndim != 1:
            raise ValueError(
                f"a StateSet is made from a 1-D boolean mask, not {bits.ndim}-D {bits.dtype}"
            )
        bits.flags.writeable = False
        self._bits = bits

    @classmethod
    def _wrap(cls, bits: np.ndarray) -> "StateSet":
        """The set of a boolean mask that no one changes later, uncopied."""
        s = cls.__new__(cls)
        bits.flags.writeable = False
        s._bits = bits
        return s

    @property
    def bits(self) -> np.ndarray:
        """Read-only boolean membership vector of length ``universe``."""
        return self._bits

    @property
    def universe(self) -> int:
        return self._bits.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StateSet):
            return NotImplemented
        return bool(np.array_equal(self._bits, other._bits))

    __hash__ = None  # mutable-array backing; identity hashing would mislead

    def __len__(self) -> int:
        return int(np.count_nonzero(self._bits))

    def indices(self) -> np.ndarray:
        """Member states in ascending order."""
        return np.flatnonzero(self._bits)
