"""StateSet, the wrapper of a boolean mask that the package hands out."""

from __future__ import annotations

import numpy as np
import pytest

from mtgames.sets import StateSet


def test_construction_and_membership():
    s = StateSet(np.array([True, False, False, True, False]))
    assert len(s) == 2
    assert s.indices().tolist() == [0, 3]
    assert s.universe == 5


def test_construction_refuses_anything_but_a_boolean_mask():
    # A list of states, as the members constructor took, is not a mask.
    for values, what in (
        ([0, 2], "1-D int64"),
        (np.array([0.5, 2.9]), "1-D float64"),
        (np.zeros((2, 2), dtype=bool), "2-D bool"),
        (True, "0-D bool"),
    ):
        with pytest.raises(ValueError, match=f"from a 1-D boolean mask, not {what}$"):
            StateSet(values)
    assert len(StateSet(np.zeros(3, dtype=bool))) == 0


def test_empty_full_from_mask():
    assert len(StateSet(np.zeros(4, dtype=bool))) == 0
    assert len(StateSet(np.ones(4, dtype=bool))) == 4
    # The mask is copied: no later change to it reaches the set.
    mask = np.array([True, False, True])
    s = StateSet(mask)
    mask[1] = True
    assert s.indices().tolist() == [0, 2]


def test_zero_universe():
    s = StateSet(np.zeros(0, dtype=bool))
    assert len(s) == 0 and s.universe == 0
    assert s == StateSet(np.ones(0, dtype=bool))
    assert s.indices().tolist() == []


def test_bits_are_read_only():
    s = StateSet(np.array([False, True, False]))
    with pytest.raises(ValueError):
        s.bits[0] = True
    wrapped = StateSet._wrap(np.array([False, True]))
    with pytest.raises(ValueError):
        wrapped.bits[0] = True


def test_universe_mismatch_and_type_errors():
    # Sets over universes of different sizes are unequal, as are a set and
    # its own mask.
    a = StateSet(np.array([True, False, False]))
    assert a != StateSet(np.array([True, False, False, False]))
    assert a == StateSet(np.array([True, False, False]))
    assert a != a.bits.tolist() and a != {0}


def test_indices_sorted_ascending():
    mask = np.zeros(6, dtype=bool)
    mask[[5, 1, 3]] = True
    assert StateSet(mask).indices().tolist() == [1, 3, 5]


def test_no_hashing():
    with pytest.raises(TypeError):
        hash(StateSet(np.array([True, False])))
