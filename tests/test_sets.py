"""StateSet algebra: exactness against Python's built-in sets."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mtgames.sets import StateSet


def members(universe: int):
    return st.lists(
        st.integers(min_value=0, max_value=max(universe - 1, 0)),
        max_size=universe,
    )


pairs = st.integers(min_value=1, max_value=16).flatmap(
    lambda n: st.tuples(st.just(n), members(n), members(n))
)


def test_construction_and_membership():
    s = StateSet(5, [0, 3])
    assert 0 in s and 3 in s
    assert 1 not in s and 4 not in s
    assert -1 not in s and 5 not in s
    assert len(s) == 2
    assert list(s) == [0, 3]
    assert s.universe == 5


def test_construction_rejects_bad_indices():
    with pytest.raises(ValueError):
        StateSet(3, [3])
    with pytest.raises(ValueError):
        StateSet(3, [-1])
    with pytest.raises(ValueError):
        StateSet(-1)


def test_construction_refuses_float_and_boolean_members():
    with pytest.raises(ValueError, match="members must be integers, not float64"):
        StateSet(3, [0.5, 2.9])
    with pytest.raises(ValueError, match="members must be integers, not bool"):
        StateSet(3, np.array([True, False, True]))
    assert len(StateSet(3, [])) == 0


def test_empty_full_from_mask():
    assert len(StateSet.empty(4)) == 0
    assert not StateSet.empty(4)
    assert len(StateSet.full(4)) == 4
    assert bool(StateSet.full(4))
    s = StateSet.from_mask(np.array([True, False, True]))
    assert list(s) == [0, 2]


def test_zero_universe():
    s = StateSet.empty(0)
    assert len(s) == 0
    assert s == StateSet.full(0)
    assert list(~s) == []


def test_bits_are_read_only():
    s = StateSet(3, [1])
    with pytest.raises(ValueError):
        s.bits[0] = True


def test_universe_mismatch_and_type_errors():
    a = StateSet(3, [0])
    b = StateSet(4, [0])
    with pytest.raises(ValueError):
        a | b
    with pytest.raises(TypeError):
        a & {0}


def test_indices_sorted_ascending():
    s = StateSet(6, [5, 1, 3])
    assert s.indices().tolist() == [1, 3, 5]


def test_repr_small_and_large():
    assert repr(StateSet(4, [1, 2])) == "StateSet(4, {1, 2})"
    big = StateSet.full(40)
    assert "(40 states)" in repr(big)


def test_no_hashing():
    with pytest.raises(TypeError):
        hash(StateSet(2, [0]))


@given(pairs)
def test_algebra_matches_python_sets(case):
    n, xs, ys = case
    a, b = StateSet(n, xs), StateSet(n, ys)
    sa, sb = set(xs), set(ys)
    every = set(range(n))
    assert set(a | b) == sa | sb
    assert set(a & b) == sa & sb
    assert set(a - b) == sa - sb
    assert set(~a) == every - sa
    assert (a <= b) == (sa <= sb)
    assert (a < b) == (sa < sb)
    assert (a == b) == (sa == sb)
    assert len(a) == len(sa)
    assert bool(a) == bool(sa)


@given(pairs)
def test_operators_leave_operands_unchanged(case):
    n, xs, ys = case
    a, b = StateSet(n, xs), StateSet(n, ys)
    _ = (a | b, a & b, a - b, ~a)
    assert set(a) == set(xs)
    assert set(b) == set(ys)
