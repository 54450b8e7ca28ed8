"""Tests for the core value arithmetic, order, and sequence embedding."""

import copy
import pickle
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from typing import Optional

import pytest
from hypothesis import example, given, settings, strategies as st

from levelring.measures import Atom, Density, Domain, FHMeasure
from levelring.tracks import FIN, INFINITE, Stratum
from levelring.values import (
    DEFAULT_HEIGHT_BOUND,
    INF,
    LevelValue,
    MAX_RATIONAL_DIGITS,
    MAX_SEQUENCE_HEIGHT,
    XRat,
    ZERO,
    _Memo,
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
    # a level is exactly an int: not a bool, a float or a string
    for level in (True, 1.0, "1"):
        with pytest.raises(TypeError, match="level must be an int"):
            pair(level, 1)


def test_xrat_orders_above_negative_numbers():
    for x in [XRat(0), XRat(Fraction(1, 2)), INF]:
        for n in [-1, Fraction(-1, 2), -(10**30)]:
            assert (x == n) is False and x != n
            assert x > n and x >= n and not x < n and not x <= n
            assert n < x and n <= x and not n > x and not n >= x
    assert XRat(1) in [-1, 1]
    assert XRat(0) not in [-1, Fraction(-1, 3)]
    assert not XRat(0) < Fraction(-1, 2)


def test_xrat_does_not_compare_with_bools():
    assert (XRat(1) == True) is False
    assert (XRat(0) == False) is False
    assert XRat(1).__eq__(True) is NotImplemented
    with pytest.raises(TypeError):
        XRat(1) < True
    with pytest.raises(TypeError):
        False >= XRat(0)


def test_level_value_is_immutable_and_slotted():
    v = pair(2, 3)
    for name in ["level", "magnitude", "other"]:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(v, name, 1)
    with pytest.raises(AttributeError, match="cannot delete field 'level'"):
        del v.level
    assert not hasattr(v, "__dict__")
    assert v == pair(2, 3) and v.level == 2


# ---------------------------------------------------------------------------
# differential test: the kernel as it was before it was slotted, kept as
# the oracle (XRat with total_ordering, LevelValue a frozen dataclass).
# The oracle's XRat orders against a plain int or Fraction, negative ones
# included, by tuple keys, with infinity as (1, 0) above every (0, q).

@total_ordering
class OracleXRat:
    __slots__ = ("_frac",)

    def __init__(self, value=0):
        if isinstance(value, OracleXRat):
            self._frac: Optional[Fraction] = value._frac
            return
        if isinstance(value, str):
            text = value.strip()
            if text == "inf":
                self._frac = None
                return
            value = Fraction(text)
        if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
            raise TypeError(f"not an exact rational: {value!r}")
        frac = value if isinstance(value, Fraction) else Fraction(value)
        if frac.numerator < 0:
            raise ValueError(f"negative value not allowed: {value!r}")
        self._frac = frac

    def __bool__(self):
        return self._frac is None or self._frac != 0

    @staticmethod
    def _key(x):
        if isinstance(x, OracleXRat):
            return (1, 0) if x._frac is None else (0, x._frac)
        if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
            return (0, x)
        return None

    def __eq__(self, other):
        key = self._key(other)
        return NotImplemented if key is None else self._key(self) == key

    def __lt__(self, other):
        key = self._key(other)
        return NotImplemented if key is None else self._key(self) < key

    def __hash__(self):
        return hash(("XRat", self._frac))

    def __add__(self, other):
        other = OracleXRat(other)
        if self._frac is None or other._frac is None:
            return ORACLE_INF
        return OracleXRat(self._frac + other._frac)

    __radd__ = __add__

    def __mul__(self, other):
        other = OracleXRat(other)
        if self._frac is None or other._frac is None:
            if not self or not other:
                raise ValueError("0 * inf is undefined")
            return ORACLE_INF
        return OracleXRat(self._frac * other._frac)

    __rmul__ = __mul__

    def __str__(self):
        return "inf" if self._frac is None else str(self._frac)

    def __repr__(self):
        return f"XRat({str(self)!r})"


ORACLE_INF = OracleXRat("inf")


@total_ordering
@dataclass(frozen=True)
class OracleLevelValue:
    level: Optional[int]
    magnitude: OracleXRat

    def __post_init__(self):
        if self.level is None:
            if self.magnitude:
                raise ValueError("zero element must have magnitude 0")
            return
        if type(self.level) is not int:
            raise TypeError(f"level must be an int: {self.level!r}")
        if self.level < 0:
            raise ValueError(f"level must be a nonnegative int: {self.level!r}")
        if not self.magnitude:
            raise ValueError("nonzero value needs a positive magnitude; use ZERO")

    @property
    def is_zero(self):
        return self.level is None

    def _key(self):
        if self.level is None:
            return (-1, OracleXRat(0))
        return (self.level, self.magnitude)

    def __lt__(self, other):
        if not isinstance(other, OracleLevelValue):
            return NotImplemented
        return self._key() < other._key()

    def __add__(self, other):
        if not isinstance(other, OracleLevelValue):
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.level == other.level:
            return OracleLevelValue(self.level, self.magnitude + other.magnitude)
        return self if self.level > other.level else other

    def __mul__(self, other):
        if not isinstance(other, OracleLevelValue):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return ORACLE_ZERO
        return OracleLevelValue(self.level + other.level, self.magnitude * other.magnitude)

    def scale(self, scalar):
        scalar = OracleXRat(scalar)
        if not scalar:
            raise ValueError("scalar must be positive")
        if self.is_zero:
            return ORACLE_ZERO
        return OracleLevelValue(self.level, self.magnitude * scalar)

    def __str__(self):
        if self.is_zero:
            return "0"
        return f"({self.level},{self.magnitude})"

    def __repr__(self):
        return "ZERO" if self.is_zero else f"pair({self.level}, {str(self.magnitude)!r})"


ORACLE_ZERO = OracleLevelValue(None, OracleXRat(0))


def outcome(f, *args):
    """What f(*args) gives, with the kernel's and the oracle's classes
    identified: a value's class and repr, or the exception's type and text."""
    try:
        got = f(*args)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(got, (XRat, OracleXRat)):
        return "XRat", repr(got)
    if isinstance(got, (LevelValue, OracleLevelValue)):
        return "LevelValue", repr(got)
    return type(got).__name__, got


# Scalars: 0, small fractions (num/den with num 0..12, den 1..6) or "inf".
scalar_specs = st.one_of(
    st.just(0),
    st.builds(Fraction, st.integers(0, 12), st.integers(1, 6)),
    st.just("inf"),
)
level_specs = st.one_of(st.none(), st.integers(0, 4))
value_specs = st.tuples(level_specs, scalar_specs)  # includes invalid pairs


def both_values(spec):
    """The kernel's and the oracle's LevelValue for spec, or None for a
    spec the constructors reject (checked in its own test)."""
    level, mag = spec
    try:
        return LevelValue(level, XRat(mag)), OracleLevelValue(level, OracleXRat(mag))
    except ValueError:
        return None


COMPARISONS = [
    lambda a, b: a == b,
    lambda a, b: a != b,
    lambda a, b: a < b,
    lambda a, b: a <= b,
    lambda a, b: a > b,
    lambda a, b: a >= b,
]


# the oracle tests run at least their own count of examples, and more under
# a profile that asks for more (``--hypothesis-profile=ci``)
def at_least(n):
    return settings(max_examples=max(n, settings.default.max_examples))


# plain numbers of either sign: against a negative one, the sign of the
# cross product with infinity's 1/0 decides the order
plain_numbers = st.one_of(
    st.integers(-5, 5), st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
)


@at_least(400)
@given(scalar_specs, st.one_of(scalar_specs, plain_numbers))
def test_xrat_agrees_with_the_oracle(p, q):
    x, ox = XRat(p), OracleXRat(p)
    # hash is not compared: the oracle's hash(("XRat", frac)) disagrees
    # with == across types, which the kernel's does not
    for f in (str, repr, bool):
        assert outcome(f, x) == outcome(f, ox)
    ops = COMPARISONS + [lambda a, b: a + b, lambda a, b: a * b]
    if isinstance(q, (int, Fraction)):  # an XRat against a plain number, both ways round
        for op in ops:
            assert outcome(op, x, q) == outcome(op, ox, q)
            assert outcome(op, q, x) == outcome(op, q, ox)
        if q < 0:  # no XRat to build
            return
    y, oy = XRat(q), OracleXRat(q)
    for op in ops:
        assert outcome(op, x, y) == outcome(op, ox, oy)
    if x == y:
        assert hash(x) == hash(y)


@at_least(600)
@given(value_specs, value_specs, scalar_specs)
def test_level_value_agrees_with_the_oracle(p, q, s):
    pa, pb = both_values(p), both_values(q)
    if pa is None or pb is None:
        return
    (a, oa), (b, ob) = pa, pb
    ops = COMPARISONS + [lambda u, v: u + v, lambda u, v: u * v, compare]
    for op in ops:
        assert outcome(op, a, b) == outcome(op, oa, ob)
    for f in (str, repr, bool):  # hash: see test_xrat_agrees_with_the_oracle
        assert outcome(f, a) == outcome(f, oa)
    assert outcome(a.scale, s) == outcome(oa.scale, s)
    assert outcome(a.scale, XRat(s)) == outcome(oa.scale, OracleXRat(s))
    if a == b:
        assert hash(a) == hash(b)


small_numbers = st.one_of(st.integers(-2, 6), st.builds(Fraction, st.integers(-2, 6), st.integers(1, 3)))
hashables = st.one_of(small_numbers, small_numbers.filter(lambda x: x >= 0).map(XRat), st.just(INF))


@settings(max_examples=400)
@given(hashables, hashables)
@example(XRat(1), 1)
@example(XRat(Fraction(1, 2)), Fraction(1, 2))
@example(INF, XRat("inf"))
def test_equal_values_hash_equal_across_types(a, b):
    """== implies equal hashes among XRat, int and Fraction, so an XRat
    finds its equal number in a set or dict key, and the other way round."""
    if a == b:
        assert hash(a) == hash(b)
        assert a in {b} and b in {a}
        assert {a: "x"}.get(b) == "x"


XRAT_ARGS = st.one_of(
    st.integers(-3, 12),
    st.builds(Fraction, st.integers(-6, 12), st.integers(1, 6)),
    # strings the oracle's lax Fraction(text.strip()) reads differently are
    # left to test_xrat_and_the_decoder_read_one_grammar in test_jsonio.py
    st.sampled_from(["inf", "3/4"]),
    st.floats(allow_nan=False),
    st.booleans(),
    st.none(),
)


@settings(max_examples=300)
@given(XRAT_ARGS, st.one_of(st.none(), st.integers(-2, 4), st.booleans(), st.sampled_from(["1", 1.0])))
def test_constructors_fail_as_the_oracle_does(arg, level):
    assert outcome(XRat, arg) == outcome(OracleXRat, arg)
    if outcome(XRat, arg)[0] == "XRat":
        assert outcome(XRat, XRat(arg)) == outcome(OracleXRat, OracleXRat(arg))
        assert outcome(LevelValue, level, XRat(arg)) == outcome(OracleLevelValue, level, OracleXRat(arg))


@settings(max_examples=200)
@given(value_specs)
def test_copies_and_pickles_round_trip(spec):
    pa = both_values(spec)
    if pa is None:
        return
    v, ov = pa
    for x in (v, v.magnitude):
        for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(twin) is type(x)
            assert twin == x and repr(twin) == repr(x) and hash(twin) == hash(x)
    for name in ("level", "magnitude"):
        for target in (v, ov):
            with pytest.raises(AttributeError):
                setattr(target, name, getattr(target, name))


@given(mags, st.integers(0, 5))
def test_values_pickle_under_every_protocol(magnitude, level):
    # XRat rebuilds from its integer pair or "inf", so every holder of one
    # pickles from protocol 0 on, as LevelValue always did
    value = LevelValue(level, magnitude)
    kind = INFINITE if magnitude.is_infinite else FIN
    stratum = Stratum(((level, kind), None), True, (value, ZERO))
    atom, density = Atom("I", "1/2", level, magnitude), Density("I", 0, "1/3", level, magnitude)
    measure = FHMeasure(Domain([("I", 1)]), [atom, density], height_bound=level + 1)
    for x in (magnitude, value, stratum, atom, density, measure):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            twin = pickle.loads(pickle.dumps(x, protocol))
            assert type(twin) is type(x) and twin == x and repr(twin) == repr(x) and hash(twin) == hash(x)


def test_overlong_values_pickle_as_their_numerators_do():
    # a rational too long for str pickles as its integer pair; protocols 0
    # and 1 write every int as decimal text, so under the interpreter's
    # digit limit it fails there exactly as its own numerator does
    numerator = 10**MAX_RATIONAL_DIGITS + 1
    magnitude = XRat(Fraction(numerator, 3))
    for x in (magnitude, LevelValue(2, magnitude)):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            bare = outcome(pickle.dumps, numerator, protocol)
            if bare[0] == "ValueError":
                assert protocol < 2 and outcome(pickle.dumps, x, protocol) == bare
            else:
                twin = pickle.loads(pickle.dumps(x, protocol))
                assert type(twin) is type(x) and twin == x


# ---------------------------------------------------------------------------
# the self-filling table

def test_memo_makes_each_value_once_and_keeps_no_failure():
    made = []

    def make(key):
        made.append(key)
        if key < 0:
            raise ValueError(f"no value for {key}")
        return [key]

    memo = _Memo(make)
    first = memo[3]
    assert first == [3] and memo[3] is first and made == [3]  # a hit calls no make
    for _ in range(2):  # a make that raised stored nothing, so it runs again
        with pytest.raises(ValueError, match="no value for -1"):
            memo[-1]
    assert made == [3, -1, -1] and dict(memo) == {3: [3]}
    assert memo.get(4) is None and 4 not in memo and made == [3, -1, -1]
