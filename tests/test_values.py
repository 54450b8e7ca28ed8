"""Tests for the core value arithmetic, order, and sequence embedding."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from levelring.values import (
    DEFAULT_HEIGHT_BOUND,
    INF,
    LevelValue,
    MAX_SEQUENCE_HEIGHT,
    XRat,
    ZERO,
    compare,
    from_sequence,
    level_of,
    pair,
    real_part,
    to_sequence,
    total,
)

# ---------------------------------------------------------------------------
# strategies

finite_mags = st.builds(
    Fraction,
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=1, max_value=12),
)

mags = st.one_of(finite_mags.map(XRat), st.just(INF))

values = st.one_of(
    st.just(ZERO),
    st.builds(pair, st.integers(min_value=0, max_value=5), mags),
)

nonzero_values = st.builds(pair, st.integers(min_value=0, max_value=5), mags)


# ---------------------------------------------------------------------------
# golden arithmetic table

def test_addition_same_level_adds_magnitudes():
    assert pair(1, 2) + pair(1, 3) == pair(1, 5)
    assert pair(0, Fraction(1, 2)) + pair(0, Fraction(1, 3)) == pair(0, Fraction(5, 6))


def test_addition_higher_level_absorbs():
    assert pair(2, Fraction(1, 2)) + pair(1, 7) == pair(2, Fraction(1, 2))
    assert pair(1, 7) + pair(2, Fraction(1, 2)) == pair(2, Fraction(1, 2))
    assert pair(3, 1) + pair(0, "inf") == pair(3, 1)


def test_addition_zero_is_neutral():
    assert pair(0, 4) + ZERO == pair(0, 4)
    assert ZERO + pair(2, "inf") == pair(2, "inf")
    assert ZERO + ZERO == ZERO


def test_addition_infinity_absorbs_at_its_level():
    assert pair(0, "inf") + pair(0, 5) == pair(0, "inf")
    assert pair(1, "inf") + pair(1, "inf") == pair(1, "inf")


def test_multiplication_adds_levels_multiplies_magnitudes():
    assert pair(1, 2) * pair(2, 3) == pair(3, 6)
    assert pair(0, Fraction(1, 2)) * pair(0, 4) == pair(0, 2)
    assert pair(1, "inf") * pair(2, 3) == pair(3, "inf")


def test_multiplicative_identity_and_zero():
    one = pair(0, 1)
    for x in [ZERO, pair(0, 7), pair(3, "inf"), pair(1, Fraction(2, 3))]:
        assert one * x == x
        assert x * one == x
        assert ZERO * x == ZERO
        assert x * ZERO == ZERO


def test_order_chain():
    chain = [
        ZERO,
        pair(0, Fraction(1, 3)),
        pair(0, 2),
        pair(0, "inf"),
        pair(1, Fraction(1, 100)),
        pair(1, "inf"),
        pair(2, 1),
    ]
    for i in range(len(chain)):
        for j in range(len(chain)):
            assert (chain[i] < chain[j]) == (i < j)
            assert (chain[i] <= chain[j]) == (i <= j)


def test_scale_by_positive_scalar():
    assert pair(2, 6).scale(Fraction(1, 6)) == pair(2, 1)
    assert pair(1, "inf").scale(3) == pair(1, "inf")
    assert pair(0, 2).scale("inf") == pair(0, "inf")
    assert ZERO.scale(5) == ZERO
    with pytest.raises(ValueError):
        pair(1, 1).scale(0)


def test_non_cancellative_addition():
    a, b, c = pair(1, 1), pair(0, 5), pair(0, 7)
    assert a + b == a + c
    assert b != c


# ---------------------------------------------------------------------------
# algebraic laws

@given(values, values)
def test_addition_commutes(a, b):
    assert a + b == b + a


@given(values, values, values)
def test_addition_associates(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(values, values)
def test_multiplication_commutes(a, b):
    assert a * b == b * a


@given(values, values, values)
def test_multiplication_associates(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(values, values, values)
def test_multiplication_distributes_over_addition(a, b, c):
    assert a * (b + c) == (a * b) + (a * c)


@given(values, values)
def test_sum_dominates_both_terms(a, b):
    assert a <= a + b
    assert b <= a + b


@given(nonzero_values, nonzero_values)
def test_sum_at_distinct_levels_is_max(a, b):
    if level_of(a) != level_of(b):
        assert a + b == max(a, b)


@given(values, values, values)
def test_addition_is_monotone(a, b, c):
    if a <= b:
        assert a + c <= b + c


@given(values, values, values)
def test_multiplication_is_monotone(a, b, c):
    if a <= b:
        assert a * c <= b * c


@given(st.lists(values, max_size=8))
def test_total_is_permutation_invariant(xs):
    assert total(xs) == total(list(reversed(xs)))


def test_total_of_nothing_is_zero():
    assert total([]) == ZERO


@given(values, values)
def test_order_is_total(a, b):
    assert (a < b) + (a == b) + (b < a) == 1
    assert compare(a, b) == -compare(b, a)


# ---------------------------------------------------------------------------
# level / magnitude accessors

def test_level_of_zero_raises():
    with pytest.raises(ValueError):
        level_of(ZERO)


def test_real_part_of_zero_is_zero():
    assert real_part(ZERO) == XRat(0)
    assert real_part(pair(3, Fraction(7, 2))) == XRat(Fraction(7, 2))


# ---------------------------------------------------------------------------
# sequence embedding

def test_sequence_examples():
    assert to_sequence(pair(2, 5), 5) == (INF, INF, XRat(5), XRat(0), XRat(0))
    assert to_sequence(ZERO, 3) == (XRat(0),) * 3
    assert to_sequence(pair(0, "inf"), 2) == (INF, XRat(0))


def test_sequence_rejects_levels_at_or_above_height():
    with pytest.raises(ValueError):
        to_sequence(pair(4, 1), 4)
    to_sequence(pair(3, 1), 4)  # fits


def test_sequence_refuses_heights_over_the_cap():
    with pytest.raises(ValueError, match="exceeds the sequence cap"):
        to_sequence(ZERO, MAX_SEQUENCE_HEIGHT + 1)
    with pytest.raises(ValueError, match="exceeds the sequence cap"):
        to_sequence(pair(3, 1), MAX_SEQUENCE_HEIGHT + 1)


@given(values)
def test_sequence_round_trip(x):
    assert from_sequence(to_sequence(x, 8)) == x


@given(values, values)
def test_sequence_embedding_preserves_order(a, b):
    sa, sb = to_sequence(a, 8), to_sequence(b, 8)
    assert (a < b) == (sa < sb)
    assert (a == b) == (sa == sb)


def test_all_infinite_sequence_decodes_to_top_representable():
    assert from_sequence(["inf"] * 5) == pair(4, "inf")


def test_from_sequence_rejects_bad_shapes():
    with pytest.raises(ValueError):
        from_sequence([])
    with pytest.raises(ValueError):
        from_sequence([XRat(1), XRat(2)])
    with pytest.raises(ValueError):
        from_sequence(["inf", 0, 3])  # nonzero past the gap
    with pytest.raises(ValueError):
        from_sequence([0, 3, 0])


def test_infinite_magnitude_sequences_decode():
    assert from_sequence(["inf", 0, 0]) == pair(0, "inf")
    assert from_sequence(["inf", "inf", 0]) == pair(1, "inf")


def test_default_height_bound_value():
    assert DEFAULT_HEIGHT_BOUND == 16
    assert len(to_sequence(pair(15, 1))) == 16


# ---------------------------------------------------------------------------
# XRat basics

def test_xrat_construction_and_str():
    assert str(XRat(Fraction(3, 6))) == "1/2"
    assert str(XRat(4)) == "4"
    assert str(XRat("7/3")) == "7/3"
    assert str(INF) == "inf"
    assert XRat("inf").is_infinite
    assert XRat(XRat(2)) == XRat(2)


def test_xrat_rejects_floats_and_negatives():
    with pytest.raises(TypeError):
        XRat(1.5)  # type: ignore[arg-type]
    with pytest.raises(ValueError):
        XRat(-1)
    with pytest.raises(ValueError):
        XRat(Fraction(-1, 2))


def test_xrat_arithmetic():
    assert XRat(2) + XRat(Fraction(1, 2)) == XRat(Fraction(5, 2))
    assert INF + XRat(3) == INF
    assert XRat(3) + INF == INF
    assert XRat(2) * XRat(3) == XRat(6)
    assert INF * XRat(2) == INF
    with pytest.raises(ValueError):
        INF * XRat(0)
    with pytest.raises(ValueError):
        XRat(0) * INF


def test_xrat_partial_subtraction_and_division():
    assert XRat(5) - XRat(2) == XRat(3)
    assert INF - XRat(100) == INF
    with pytest.raises(ValueError):
        XRat(2) - XRat(5)
    with pytest.raises(ValueError):
        XRat(2) - INF
    assert XRat(6) / XRat(4) == XRat(Fraction(3, 2))
    assert INF / XRat(2) == INF
    with pytest.raises(ZeroDivisionError):
        XRat(1) / XRat(0)
    with pytest.raises(ValueError):
        XRat(1) / INF


def test_xrat_order_puts_infinity_on_top():
    assert XRat(0) < XRat(Fraction(1, 1000)) < XRat(1) < INF
    assert not (INF < INF)
    assert max([XRat(3), INF, XRat(10)]) == INF


def test_value_constructor_guards():
    with pytest.raises(ValueError):
        LevelValue(None, XRat(1))  # zero marker with positive magnitude
    with pytest.raises(ValueError):
        LevelValue(2, XRat(0))  # nonzero level with zero magnitude
    with pytest.raises(ValueError):
        LevelValue(-1, XRat(1))
