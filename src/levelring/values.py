"""Exact arithmetic for leveled extended-real values.

The scalar type here is ``XRat``: a nonnegative rational (exact, via
``fractions.Fraction``) or infinity.  On top of it sits ``LevelValue``:
either the zero element, or a pair ``(level, magnitude)`` with an integer
level >= 0 and a strictly positive magnitude.  The operations are

* addition: the higher level absorbs the lower; equal levels add their
  magnitudes (infinity absorbs),
* multiplication: levels add, magnitudes multiply,
* scaling by a positive extended rational: magnitude scales, level is kept,
* order: lexicographic in (level, magnitude), with zero least.

The package's records, ``LevelValue`` and the measure, track, tree and
vector classes, share one immutable base, ``_Record``, and are not
dataclasses, which would import ``inspect`` and generate code on every CLI
start.  ``LevelValue`` keeps its own, faster, equality and hash.  ``XRat``
order is one rule over exact integers: each side is read as its reduced
pair p/q, with infinity as 1/0, and a < b exactly when
a.p * b.q < b.p * a.q.  Equality is a direct check of the
reduced pairs.  Neither goes through ``Fraction``'s generic comparison, and
neither through floats.

A rational has one text form, read by ``XRat(str)`` and by every JSON decoder,
and written by ``str(XRat)``: ``"p"``, ``"p/q"`` or ``"inf"``,
where p and q are runs of ASCII digits 0-9, with no sign, space, point,
exponent or underscore.  Reading does not require lowest terms
(``"006/08"`` is 3/4), and writing gives them.  Each run has at most
``MAX_RATIONAL_DIGITS`` digits on the way in, and a reduced numerator or
denominator past that bound is refused on the way out.  Both checks are
made here by comparison, so the bound does not depend on
``PYTHONINTMAXSTRDIGITS``: lifting the interpreter's own limit (0) lets
no longer rational in or out.  (A limit set below the bound still
refuses shorter runs, with the interpreter's own text.)

Levels are unbounded in the algebra itself; the sequence embedding
``to_sequence``/``from_sequence`` works at an explicit height bound
(default ``DEFAULT_HEIGHT_BOUND``), mapping a value of level k to the
sequence with k leading infinities, the magnitude at index k, and zeros
beyond.  The order on values agrees with lexicographic order on those
sequences, which is what makes the bound-H slice of the algebra a
faithfully ordered chunk of a countable product of extended half-lines.
"""

from __future__ import annotations

import operator
import reprlib
import sys
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence, Union

__all__ = [
    "DEFAULT_HEIGHT_BOUND",
    "INF",
    "LevelValue",
    "MAX_RATIONAL_DIGITS",
    "MAX_SEQUENCE_HEIGHT",
    "RatLike",
    "XRat",
    "ZERO",
    "compare",
    "from_sequence",
    "level_of",
    "pair",
    "real_part",
    "to_sequence",
    "total",
]

DEFAULT_HEIGHT_BOUND = 16

# Error messages across the package quote offending input values through
# this bounded repr, so they stay a few hundred characters long whatever
# the input's size.
_ECHO = reprlib.Repr()
_ECHO.maxlevel = 1

# The most digits a numerator or denominator may have as text, read or
# written: the interpreter's default limit on int() of a decimal string and
# on str() of an int.
MAX_RATIONAL_DIGITS = 4300
_TOO_LONG = 10**MAX_RATIONAL_DIGITS


def _parse_rational(text: str) -> Optional[Fraction]:
    """The rational that text spells in the one grammar (see the module
    docstring), or None for "inf"; ValueError says why text is not one."""
    if text == "inf":
        return None
    num, slash, den = text.partition("/")
    # an ASCII text's digits are exactly 0-9; isdigit() alone takes "٣"
    if not (text.isascii() and num.isdigit() and (den.isdigit() or not slash)):
        raise ValueError(f'not a "p/q" rational or "inf": {_ECHO.repr(text)}')
    if len(text) > MAX_RATIONAL_DIGITS and max(len(num), len(den)) > MAX_RATIONAL_DIGITS:
        raise ValueError(f"more than {MAX_RATIONAL_DIGITS} digits: {_ECHO.repr(text)}")
    if not slash:
        return Fraction(int(num))
    try:
        return Fraction(int(num), int(den))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {_ECHO.repr(text)}") from None


# `to_sequence` allocates its whole output, so it refuses heights above this.
MAX_SEQUENCE_HEIGHT = 2**16

RatLike = Union["XRat", Fraction, int, str]


def _is_number(x: object) -> bool:
    """An int or Fraction operand of a mixed comparison; bools are not."""
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def _order_by(sides: Callable[[object, object], Optional[tuple]]) -> list[Callable]:
    """The ``<``, ``<=``, ``>`` and ``>=`` of a class, all from one rule:
    ``sides(a, b)`` is a pair ordered as a and b are, or None when b has no
    place in the order."""

    def method(op):
        def ordered(self, other):
            both = sides(self, other)
            return NotImplemented if both is None else op(*both)

        return ordered

    return [method(op) for op in (operator.lt, operator.le, operator.gt, operator.ge)]


def _ratio(x: object) -> Optional[tuple[int, int]]:
    """x as its reduced integer pair, infinity as 1/0, or None when x is no
    XRat, int or Fraction (a bool is none of them)."""
    if isinstance(x, XRat):
        return (1, 0) if x._frac is None else x._frac.as_integer_ratio()
    return x.as_integer_ratio() if _is_number(x) else None


def _cmp(p: tuple[int, int], q: tuple[int, int]) -> int:
    """The one order rule for rationals: negative, zero or positive as the
    reduced pair p lies below, at or above q (infinity as 1/0), by the sign
    of the exact integer cross product p.p * q.q - q.p * p.q."""
    return p[0] * q[1] - q[0] * p[1]


def _cross(a: "XRat", b: object) -> Optional[tuple[int, int]]:
    """The rule's sign for a against b, and 0: ordered as a and b are."""
    q = _ratio(b)
    return None if q is None else (_cmp(_ratio(a), q), 0)


class XRat:
    """A nonnegative rational or infinity, exact.

    Construct from an int, a ``Fraction``, another ``XRat``, or a string
    in the module's one rational grammar ("p", "p/q" or "inf").  Floats
    are rejected: everything in this library is exact.  ``str`` writes the
    same grammar, reduced, and refuses a value whose numerator or
    denominator has more than ``MAX_RATIONAL_DIGITS`` digits.  Infinity
    absorbs under addition and multiplication; 0 * inf is a logic error
    and raises.

    Order is one cross product: each side, an int or ``Fraction`` (never
    a bool) included, is read as its reduced pair p/q with infinity as
    1/0, and a < b exactly when a.p * b.q < b.p * a.q.  So every ``XRat``,
    infinity included, orders above every negative number.  Equality is a
    direct check: equal numerators and denominators (a ``Fraction`` is
    always reduced), and infinity equals only itself.
    """

    __slots__ = ("_frac",)

    def __init__(self, value: RatLike = 0):
        if type(value) is Fraction:
            if value.numerator < 0:
                raise ValueError(f"negative value not allowed: {value!r}")
            self._frac: Optional[Fraction] = value
            return
        if isinstance(value, XRat):
            self._frac = value._frac
            return
        if isinstance(value, str):
            self._frac = _parse_rational(value)
            return
        if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
            raise TypeError(f"not an exact rational: {value!r}")
        frac = value if isinstance(value, Fraction) else Fraction(value)
        if frac.numerator < 0:
            raise ValueError(f"negative value not allowed: {value!r}")
        self._frac = frac

    @property
    def is_infinite(self) -> bool:
        return self._frac is None

    @property
    def as_fraction(self) -> Fraction:
        if self._frac is None:
            raise ValueError("infinite value has no Fraction form")
        return self._frac

    def __bool__(self) -> bool:
        return self._frac is None or self._frac.numerator != 0

    def __eq__(self, other: object) -> bool:
        a = self._frac
        if isinstance(other, XRat):
            b = other._frac
            if a is None or b is None:
                return a is b
            return a.numerator == b.numerator and a.denominator == b.denominator
        if not _is_number(other):
            return NotImplemented
        return a is not None and a == other

    __lt__, __le__, __gt__, __ge__ = _order_by(_cross)

    def __hash__(self) -> int:
        # Equal to the hash of the equal int or Fraction; infinity equals
        # neither, and hashes as the float infinity does.
        return sys.hash_info.inf if self._frac is None else hash(self._frac)

    def __add__(self, other: RatLike) -> "XRat":
        if not isinstance(other, XRat):
            other = XRat(other)
        if self._frac is None or other._frac is None:
            return INF
        return XRat(self._frac + other._frac)

    __radd__ = __add__

    def __mul__(self, other: RatLike) -> "XRat":
        if not isinstance(other, XRat):
            other = XRat(other)
        if self._frac is None or other._frac is None:
            if not self or not other:
                raise ValueError("0 * inf is undefined")
            return INF
        return XRat(self._frac * other._frac)

    __rmul__ = __mul__

    def __sub__(self, other: RatLike) -> "XRat":
        other = XRat(other)
        if other._frac is None:
            raise ValueError("cannot subtract infinity")
        if self._frac is None:
            return INF
        if self._frac < other._frac:
            raise ValueError("subtraction would go negative")
        return XRat(self._frac - other._frac)

    def __truediv__(self, other: RatLike) -> "XRat":
        other = XRat(other)
        if other._frac is None:
            raise ValueError("division by infinity is not used here")
        if other._frac == 0:
            raise ZeroDivisionError("division by zero")
        if self._frac is None:
            return INF
        return XRat(self._frac / other._frac)

    def __str__(self) -> str:
        frac = self._frac
        if frac is None:
            return "inf"
        num, den = frac.as_integer_ratio()
        if num >= _TOO_LONG or den >= _TOO_LONG:
            raise ValueError(f"result has more than {MAX_RATIONAL_DIGITS} digits")
        return str(num) if den == 1 else f"{num}/{den}"

    def __repr__(self) -> str:
        return f"XRat({str(self)!r})"

    def __reduce__(self) -> tuple:
        # The default slot pickling needs protocol 2.  The integer pair
        # pickles from protocol 0 on and, unlike a Fraction on Python 3.10,
        # past the digit limit of str (from protocol 2, which writes ints
        # in binary).
        return (_from_ratio, _ratio(self))


def _from_ratio(num: int, den: int) -> XRat:
    """The XRat of a reduced integer pair, infinity as 1/0, as `_ratio`
    gives it."""
    return INF if not den else XRat(Fraction(num, den))


INF = XRat("inf")


def _keys(a: "LevelValue", b: object) -> Optional[tuple[tuple, tuple]]:
    """The (level, magnitude) keys of a and b, with level -1 for zero (below
    every level), or None when b is no LevelValue."""
    if not isinstance(b, LevelValue):
        return None
    x, y = a.level, b.level
    return (-1 if x is None else x, a.magnitude), (-1 if y is None else y, b.magnitude)


class _Record:
    """An immutable record, compared (only within its class), hashed and
    shown in the dataclass form by the fields `_FIELDS` names, in order;
    assigning or deleting an attribute raises AttributeError.  `__init__`
    sets the fields through `self.__dict__`, or in a slotted record through
    `_setters`, the slots' own setters in order.  Pickle and copy restore
    slots through the refusing `__setattr__`, so a slotted record defines
    `__reduce__`."""

    __slots__ = ()
    _FIELDS: tuple[str, ...]

    def __init_subclass__(cls):
        cls._key = operator.attrgetter(*cls._FIELDS)
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__dict__.get("__slots__", ()))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._FIELDS)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _replace(self, **changes):
        """A copy with the named fields changed, built by the constructor."""
        fields = [changes.pop(name, getattr(self, name)) for name in self._FIELDS]
        if changes:
            raise TypeError(f"no such fields: {_ECHO.repr(sorted(changes))}")
        return type(self)(*fields)


class LevelValue(_Record):
    """Zero, or a (level, magnitude) pair of the leveled semiring.

    The zero element is the unique value with ``level is None`` and
    magnitude 0; everything else has an integer level >= 0 and a strictly
    positive magnitude (possibly infinite).  Use the module constant
    ``ZERO`` and the factory ``pair`` rather than the raw constructor.

    Values are immutable: assigning or deleting an attribute raises
    ``AttributeError``.  Equality and hashing go by ``(level, magnitude)``.
    """

    __slots__ = _FIELDS = ("level", "magnitude")

    level: Optional[int]
    magnitude: XRat

    def __init__(self, level: Optional[int], magnitude: XRat):
        if level is None:
            if magnitude:
                raise ValueError("zero element must have magnitude 0")
        elif type(level) is not int:
            raise TypeError(f"level must be an int: {_ECHO.repr(level)}")
        elif level < 0:
            raise ValueError(f"level must be a nonnegative int: {_ECHO.repr(level)}")
        elif not magnitude:
            raise ValueError("nonzero value needs a positive magnitude; use ZERO")
        _set_level(self, level)
        _set_magnitude(self, magnitude)

    def __reduce__(self) -> tuple:
        return (LevelValue, (self.level, self.magnitude))

    @property
    def is_zero(self) -> bool:
        return self.level is None

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.level == other.level and self.magnitude == other.magnitude

    def __hash__(self) -> int:
        return hash((self.level, self.magnitude))

    __lt__, __le__, __gt__, __ge__ = _order_by(_keys)

    def __add__(self, other: "LevelValue") -> "LevelValue":
        if not isinstance(other, LevelValue):
            return NotImplemented
        a, b = self.level, other.level
        if a is None:
            return other
        if b is None:
            return self
        if a == b:
            return LevelValue(a, self.magnitude + other.magnitude)
        return self if a > b else other

    def __mul__(self, other: "LevelValue") -> "LevelValue":
        if not isinstance(other, LevelValue):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return ZERO
        return LevelValue(self.level + other.level, self.magnitude * other.magnitude)

    def scale(self, scalar: RatLike) -> "LevelValue":
        """Multiply the magnitude by a positive extended rational scalar."""
        scalar = XRat(scalar)
        if not scalar:
            raise ValueError("scalar must be positive")
        if self.is_zero:
            return ZERO
        return LevelValue(self.level, self.magnitude * scalar)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        return f"({self.level},{self.magnitude})"

    def __repr__(self) -> str:
        return "ZERO" if self.is_zero else f"pair({self.level}, {str(self.magnitude)!r})"


_set_level, _set_magnitude = LevelValue._setters


class _Memo(dict):
    """A table that fills itself: a missing key's value is `make(key)`,
    stored on first lookup.  A hit runs no Python code, and a `make` that
    raises stores nothing, so the next lookup of that key tries again."""

    __slots__ = ("make",)

    def __init__(self, make: Callable):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


ZERO = LevelValue(None, XRat(0))


def pair(level: int, magnitude: RatLike) -> LevelValue:
    """Build the nonzero value (level, magnitude)."""
    return LevelValue(level, XRat(magnitude))


def level_of(x: LevelValue) -> int:
    """Level of a nonzero value; the zero element has no level and raises."""
    if x.is_zero:
        raise ValueError("the zero element has no level")
    assert x.level is not None
    return x.level


def real_part(x: LevelValue) -> XRat:
    """Magnitude of x, with the convention that zero's magnitude is 0."""
    return x.magnitude


def compare(a: LevelValue, b: LevelValue) -> int:
    """Three-way comparison: -1, 0, or 1."""
    return (a > b) - (a < b)


def total(values: Iterable[LevelValue]) -> LevelValue:
    """Sum of finitely many values; the empty sum is ZERO."""
    acc = ZERO
    for v in values:
        acc = acc + v
    return acc


def to_sequence(x: LevelValue, height: int = DEFAULT_HEIGHT_BOUND) -> tuple[XRat, ...]:
    """Embed x into its height-`height` sequence form.

    A value of level k becomes (inf, ..., inf, magnitude, 0, ..., 0) with
    the magnitude at index k; zero becomes the all-zero sequence.  Raises
    TypeError for a height that is not an int, and ValueError when the
    level does not fit below it or it exceeds ``MAX_SEQUENCE_HEIGHT``.
    """
    if type(height) is not int:
        raise TypeError(f"height must be an int: {_ECHO.repr(height)}")
    if height < 1:
        raise ValueError("height must be at least 1")
    if height > MAX_SEQUENCE_HEIGHT:
        raise ValueError(f"height {_ECHO.repr(height)} exceeds the sequence cap {MAX_SEQUENCE_HEIGHT}")
    if x.is_zero:
        return (XRat(0),) * height
    k = level_of(x)
    if k >= height:
        raise ValueError(f"level {k} does not fit below height bound {height}")
    return (INF,) * k + (x.magnitude,) + (XRat(0),) * (height - k - 1)


def from_sequence(seq: Sequence[RatLike]) -> LevelValue:
    """Inverse of to_sequence: decode a valid sequence back to a value.

    The shape must be: some number k of leading infinities, then either a
    positive finite entry at index k followed by zeros (decoding to the
    value (k, entry)), or zeros all the way (decoding to (k-1, inf), the
    image of an infinite magnitude at level k-1).  The all-zero sequence
    decodes to ZERO; the all-infinity sequence of height H to (H-1, inf).
    Anything else raises ValueError.
    """
    entries = [XRat(v) for v in seq]
    if not entries:
        raise ValueError("empty sequence")
    k = 0
    while k < len(entries) and entries[k].is_infinite:
        k += 1
    if k == len(entries):
        return pair(len(entries) - 1, INF)
    if any(entries[i] for i in range(k + 1, len(entries))):
        raise ValueError("nonzero entry after the distinguished index")
    head = entries[k]
    if not head:
        return ZERO if k == 0 else pair(k - 1, INF)
    return pair(k, head)
