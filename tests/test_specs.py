"""Specification front end: both parsers, binding, mode exclusivity,
and lasso-word satisfaction."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import helpers
from mtgames.errors import (
    ModeExclusivityError,
    SpecError,
    SpecParseError,
    UnboundProposition,
)
from mtgames.specs import (
    LassoWord,
    ModeSpec,
    MTSpec,
    bind_spec,
    format_spec_file,
    lasso_satisfies,
    parse_mt_formula,
    parse_spec_file,
    require_exclusive,
)

TWO_MODE_FORMULA = "(FG M1 -> FG T11 | FG T12) & (FG M2 -> FG T21)"
TWO_MODE_FILE = "mode M1\ntarget M1 T11\ntarget M1 T12\nmode M2\ntarget M2 T21\n"


# ---------------------------------------------------------------------------
# Structural types


def test_mode_spec_validation():
    with pytest.raises(SpecError):
        ModeSpec("M1", ())
    with pytest.raises(SpecError):
        ModeSpec("M1", ("T", "T"))
    with pytest.raises(SpecError):
        ModeSpec("1bad", ("T",))
    with pytest.raises(SpecError):
        ModeSpec("M1", ("bad name",))


def test_mt_spec_validation():
    with pytest.raises(SpecError):
        MTSpec(())
    with pytest.raises(SpecError):
        MTSpec((ModeSpec("M1", ("T",)), ModeSpec("M1", ("U",))))
    spec = parse_mt_formula(TWO_MODE_FORMULA)
    assert spec.mode_count == 2
    assert spec.target_counts == (2, 1)
    assert spec.sum_targets == 3
    assert spec.max_targets == 2


def test_lasso_word_validation():
    with pytest.raises(SpecError):
        LassoWord((), ())
    w = LassoWord((frozenset({"a"}),), (frozenset(),))
    assert w.cycle == (frozenset(),)


# ---------------------------------------------------------------------------
# Formula parser


def test_parse_formula_two_modes():
    spec = parse_mt_formula(TWO_MODE_FORMULA)
    assert [m.name for m in spec.modes] == ["M1", "M2"]
    assert spec.modes[0].targets == ("T11", "T12")
    assert spec.modes[1].targets == ("T21",)


def test_parse_formula_single_clause():
    spec = parse_mt_formula("(FG M1 -> FG T11)")
    assert spec.mode_count == 1
    assert spec.target_counts == (1,)


def test_parse_formula_whitespace_insensitive():
    a = parse_mt_formula("(FG M1->FG T11|FG T12)")
    b = parse_mt_formula("  ( FG  M1 ->  FG T11 |  FG T12 )  ")
    assert a == b == parse_mt_formula("(FG M1 -> FG T11 | FG T12)")


def test_parse_formula_rejects_foreign_operators():
    with pytest.raises(SpecParseError) as err:
        parse_mt_formula("(G M1 -> F T11)")
    assert "not in MT fragment" in str(err.value)
    with pytest.raises(SpecParseError) as err:
        parse_mt_formula("(FG M1 -> GF T11)")
    assert "not in MT fragment" in str(err.value)
    with pytest.raises(SpecParseError) as err:
        parse_mt_formula("(FG FG -> FG T11)")
    assert "not in MT fragment" in str(err.value)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "FG M1 -> FG T11",  # missing parentheses
        "(FG M1 FG T11)",  # missing arrow
        "(FG M1 -> FG T11",  # unclosed
        "(FG M1 -> FG T11) & ",  # dangling conjunction
        "(FG M1 -> FG T11) extra",  # trailing junk
        "(FG M1 -> FG T11) | (FG M2 -> FG T21)",  # | between clauses
        "(FG M1 -> )",
        "(FG -> FG T11)",
        "(FG M1 -> FG T11 & FG T12)",  # & inside clause
    ],
)
def test_parse_formula_rejects_malformed(text):
    with pytest.raises(SpecParseError):
        parse_mt_formula(text)


def test_parse_formula_error_carries_position():
    with pytest.raises(SpecParseError) as err:
        parse_mt_formula("(FG M1 -> FG T11) ?")
    assert err.value.pos == 18
    assert "at offset 18" in str(err.value)


def test_parse_formula_rejects_unexpected_character():
    with pytest.raises(SpecParseError) as err:
        parse_mt_formula("(FG M1 -> FG T11) $")
    assert "unexpected character" in str(err.value)


# ---------------------------------------------------------------------------
# Structured file parser


def test_parse_spec_file_matches_formula():
    assert parse_spec_file(TWO_MODE_FILE) == parse_mt_formula(TWO_MODE_FORMULA)


def test_parse_spec_file_comments_and_blanks():
    text = "# objective\nmode M1  # dirty\n\ntarget M1 T11\n"
    spec = parse_spec_file(text)
    assert spec.mode_count == 1


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "no modes declared"),
        ("mode M1\n", "mode 'M1' has no targets"),
        ("target M1 T11\n", "undeclared mode"),
        ("mode M1\nmode M1\n", "duplicate mode"),
        ("mode M1\ntarget M1 T11\ntarget M1 T11\n", "duplicate target"),
        ("mode M1 extra\n", "expected 'mode <Name>'"),
        ("mode M1\ntarget M1\n", "expected 'target <ModeName> <TargetName>'"),
        ("mode 9bad\n", "invalid mode name"),
        ("mode M1\ntarget M1 9bad\n", "invalid target name"),
        ("frobnicate\n", "unknown directive"),
    ],
)
def test_parse_spec_file_errors(text, fragment):
    with pytest.raises(SpecParseError) as err:
        parse_spec_file(text)
    assert fragment in str(err.value)


def test_parse_spec_file_error_line_numbers():
    with pytest.raises(SpecParseError) as err:
        parse_spec_file("mode M1\ntarget M1 T11\nbogus\n")
    assert str(err.value).startswith("line 3:")
    assert err.value.line == 3


# ---------------------------------------------------------------------------
# Formatting round trips


def test_format_round_trips():
    spec = parse_mt_formula(TWO_MODE_FORMULA)
    assert parse_spec_file(format_spec_file(spec)) == spec
    assert format_spec_file(spec) == TWO_MODE_FILE


# ---------------------------------------------------------------------------
# Binding and exclusivity


def test_bind_spec_resolves_sets(g1_game, one_mode_spec):
    bound = bind_spec(g1_game, one_mode_spec)
    assert bound.modes.tolist() == [[True, True]]
    assert [t.tolist() for t in bound.targets] == [[[False, True]]]
    assert bound.persistence(0).tolist() == [[False, True]]


@pytest.mark.parametrize("n", [0, 3])
def test_bound_arrays_are_read_only_rows_per_proposition(n):
    g = helpers.build_game(
        n,
        [0] * n,
        [(v, v) for v in range(n)],
        {"M1": range(n), "M2": [], "T1": [], "T2": range(n), "T3": []},
    )
    bound = bind_spec(g, parse_mt_formula("(FG M1 -> FG T1 | FG T2) & (FG M2 -> FG T3)"))
    assert bound.modes.shape == (2, n) and bound.modes.dtype == bool
    assert [t.shape for t in bound.targets] == [(2, n), (1, n)]
    assert all(t.dtype == bool for t in bound.targets)
    assert [bound.persistence(i).shape for i in range(2)] == [(2, n), (1, n)]
    assert bound.persistence(0).tolist() == [[False] * n, [True] * n]
    assert bound.mode_index_of().tolist() == [0] * n
    for arr in (bound.modes, *bound.targets):
        with pytest.raises(ValueError):
            arr[...] = True


def test_bind_spec_reports_all_missing(g1_game):
    spec = parse_mt_formula("(FG M1 -> FG Zeta) & (FG Beta -> FG T11)")
    with pytest.raises(UnboundProposition) as err:
        bind_spec(g1_game, spec)
    assert "Beta, Zeta" in str(err.value)


def test_mode_index_of():
    g = helpers.build_game(
        3,
        [0, 0, 0],
        [(0, 1), (1, 2), (2, 0)],
        {"M1": [0], "M2": [2], "T1": [0], "T2": [2]},
    )
    spec = parse_mt_formula("(FG M1 -> FG T1) & (FG M2 -> FG T2)")
    idx = bind_spec(g, spec).mode_index_of()
    assert idx.tolist() == [0, -1, 1]


def test_exclusivity_clean_partition():
    g = helpers.build_game(
        2, [0, 0], [(0, 1), (1, 0)], {"M1": [0], "M2": [1], "T": [0, 1]}
    )
    spec = parse_mt_formula("(FG M1 -> FG T) & (FG M2 -> FG T)")
    bound = bind_spec(g, spec)
    require_exclusive(bound)  # should not raise
    assert bound.mode_index_of().tolist() == [0, 1]


def test_exclusivity_violation():
    g = helpers.build_game(
        3,
        [0, 0, 0],
        [(0, 1), (1, 2), (2, 0)],
        {"M1": [0, 1, 2], "M2": [1], "M3": [1, 2], "T": [0]},
    )
    spec = parse_mt_formula("(FG M1 -> FG T) & (FG M2 -> FG T) & (FG M3 -> FG T)")
    bound = bind_spec(g, spec)
    with pytest.raises(ModeExclusivityError) as err:
        require_exclusive(bound)
    assert str(err.value) == (
        "state 1 breaks assumption (A): modes M1, M2, M3; "
        "state 2 breaks assumption (A): modes M1, M3"
    )
    # On an overlapping binding a state's mode index is its first mode.
    assert bound.mode_index_of().tolist() == [0, 0, 0]
    swapped = parse_mt_formula("(FG M2 -> FG T) & (FG M3 -> FG T) & (FG M1 -> FG T)")
    assert bind_spec(g, swapped).mode_index_of().tolist() == [2, 0, 1]


def test_exclusivity_gap_is_not_an_error():
    g = helpers.build_game(2, [0, 0], [(0, 1), (1, 0)], {"M1": [0], "T": [0]})
    spec = parse_mt_formula("(FG M1 -> FG T)")
    bound = bind_spec(g, spec)
    require_exclusive(bound)  # should not raise
    assert bound.mode_index_of().tolist() == [0, -1]


# ---------------------------------------------------------------------------
# Lasso satisfaction


def letter(*names):
    return frozenset(names)


def test_lasso_examples(one_mode_spec):
    spec = one_mode_spec
    assert lasso_satisfies(spec, LassoWord((), (letter("M1", "T11"),)))
    assert not lasso_satisfies(spec, LassoWord((), (letter("M1"),)))


def test_lasso_mode_switching_satisfies():
    spec = parse_mt_formula("(FG M1 -> FG T11) & (FG M2 -> FG T21)")
    word = LassoWord((), (letter("M1"), letter("M2")))
    assert lasso_satisfies(spec, word)


def test_lasso_prefix_is_irrelevant(one_mode_spec):
    bad_prefix = (letter("M1"),) * 5
    assert lasso_satisfies(
        one_mode_spec, LassoWord(bad_prefix, (letter("M1", "T11"),))
    )
    good_prefix = (letter("M1", "T11"),) * 5
    assert not lasso_satisfies(one_mode_spec, LassoWord(good_prefix, (letter("M1"),)))


def test_lasso_needs_single_persistent_target():
    spec = parse_mt_formula("(FG M1 -> FG T11 | FG T12)")
    alternating = LassoWord(
        (), (letter("M1", "T11"), letter("M1", "T12"))
    )
    assert not lasso_satisfies(spec, alternating)
    second_held = LassoWord((), (letter("M1", "T12"), letter("M1", "T12", "T11")))
    assert lasso_satisfies(spec, second_held)


letters_st = st.frozensets(
    st.sampled_from(["M1", "M2", "T11", "T12", "T21"]), max_size=4
)
cycles_st = st.lists(letters_st, min_size=1, max_size=5)


@given(
    cycle=cycles_st,
    prefix=st.lists(letters_st, max_size=3),
    rot=st.integers(min_value=0, max_value=4),
    unroll=st.integers(min_value=1, max_value=3),
)
def test_lasso_invariant_under_rotation_and_unrolling(cycle, prefix, rot, unroll):
    spec = parse_mt_formula(TWO_MODE_FORMULA)
    base = LassoWord(tuple(prefix), tuple(cycle))
    k = rot % len(cycle)
    rotated = LassoWord(tuple(prefix) + tuple(cycle[:k]), tuple(cycle[k:] + cycle[:k]))
    unrolled = LassoWord(tuple(prefix), tuple(cycle) * unroll)
    expected = lasso_satisfies(spec, base)
    assert lasso_satisfies(spec, rotated) == expected
    assert lasso_satisfies(spec, unrolled) == expected


@given(cycle=cycles_st)
def test_lasso_persistent_mode_and_target_satisfy_conjunct(cycle):
    spec = helpers.one_mode_spec()
    forced = tuple(c | {"M1", "T11"} for c in cycle)
    assert lasso_satisfies(spec, LassoWord((), forced))
