"""Weight vectors over the leveled semiring.

A vector is a tuple of ``LevelValue`` entries.  This module provides
entrywise scaling, the lattice-point and cone-closure predicates,
projective canonical forms (two vectors are equivalent when one is a
positive real multiple of the other), level patterns, and limit points of
one-parameter monomial families — the machinery that exhibits pairs of
distinct projective classes approached by a single family.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from levelring.values import _ECHO, INF, LevelValue, RatLike, XRat, ZERO, pair

__all__ = [
    "MAX_LIMIT_ENTRIES",
    "Monomial",
    "MonomialFamily",
    "ProjClass",
    "Vector",
    "is_cone_closed",
    "is_lattice_point",
    "level_pattern",
    "limit_points",
    "monomial",
    "normalized_limit",
    "proj_canonical",
    "scale_vec",
    "value_at",
]

Vector = tuple[LevelValue, ...]


def _as_vector(entries: Iterable[LevelValue]) -> Vector:
    vec = tuple(entries)
    if not vec:
        raise ValueError("vectors have at least one entry")
    for e in vec:
        if not isinstance(e, LevelValue):
            raise TypeError(f"not a LevelValue: {e!r}")
    return vec


def scale_vec(scalar: LevelValue, v: Sequence[LevelValue]) -> Vector:
    """Entrywise product scalar * v_i.

    A level-0 scalar rescales magnitudes in place; a higher-level scalar
    also shifts every nonzero entry up by its level.  The zero scalar
    annihilates the whole vector.
    """
    return _as_vector(scalar * e for e in v)


def is_lattice_point(v: Sequence[LevelValue]) -> bool:
    """True when every entry is nonzero with infinite magnitude."""
    vec = _as_vector(v)
    return all((not e.is_zero) and e.magnitude.is_infinite for e in vec)


def is_cone_closed(
    sample: Iterable[Sequence[LevelValue]], scalars: Iterable[LevelValue]
) -> bool:
    """Finite closure check: scaling any sample vector by any of the given
    scalars lands back in the sample.  (Zero scalars are allowed; the zero
    vector must then be present.)"""
    vecs = {_as_vector(v) for v in sample}
    lams = list(scalars)
    return all(scale_vec(lam, v) in vecs for v in vecs for lam in lams)


def proj_canonical(v: Sequence[LevelValue]) -> Vector:
    """Canonical representative of the projective class of v.

    Equivalence is by a single positive real scalar, which never touches
    levels.  The representative rescales so the largest finite magnitude
    becomes 1; when no entry has a finite magnitude (everything is zero or
    infinite) the class is a singleton and v itself is returned.  The zero
    vector has no class and raises.
    """
    vec = _as_vector(v)
    if all(e.is_zero for e in vec):
        raise ValueError("the zero vector has no projective class")
    finite = [e.magnitude for e in vec if not e.is_zero and not e.magnitude.is_infinite]
    if not finite:
        return vec
    top = max(finite)
    return tuple(e if e.is_zero else e.scale(XRat(1) / top) for e in vec)


@dataclass(frozen=True)
class ProjClass:
    """A projective equivalence class, keyed by its canonical vector."""

    canon: Vector

    def __init__(self, v: Sequence[LevelValue]):
        object.__setattr__(self, "canon", proj_canonical(v))

    def __contains__(self, v: Sequence[LevelValue]) -> bool:
        return proj_canonical(v) == self.canon

    def __str__(self) -> str:
        return "[" + ",".join(str(e) for e in self.canon) + "]"


def level_pattern(v: Sequence[LevelValue]) -> tuple[Optional[int], ...]:
    """Per-entry levels, with None marking zero entries.

    Vectors lie in the same level cone exactly when their patterns agree,
    and real rescaling never changes the pattern.
    """
    return tuple(None if e.is_zero else e.level for e in _as_vector(v))


# ---------------------------------------------------------------------------
# one-parameter monomial families


@dataclass(frozen=True)
class Monomial:
    """One family entry: the value (level, coeff * t^degree) at parameter t."""

    level: int
    coeff: Fraction
    degree: int

    def __post_init__(self) -> None:
        if type(self.level) is not int or type(self.degree) is not int:
            raise TypeError(f"level and degree must be ints: {_ECHO.repr((self.level, self.degree))}")
        if self.level < 0:
            raise ValueError("level must be nonnegative")
        if not isinstance(self.coeff, Fraction) or self.coeff <= 0:
            raise ValueError("coefficient must be a positive Fraction")


def monomial(level: int, coeff: RatLike, degree: int) -> Monomial:
    """Convenience constructor accepting ints/strings for the coefficient."""
    c = XRat(coeff)
    if c.is_infinite:
        raise ValueError("monomial coefficients are finite")
    return Monomial(level, c.as_fraction, degree)


MonomialFamily = tuple[Optional[Monomial], ...]


def _as_family(entries: Iterable[Optional[Monomial]]) -> MonomialFamily:
    fam = tuple(entries)
    if not fam:
        raise ValueError("families have at least one entry")
    for m in fam:
        if m is not None and not isinstance(m, Monomial):
            raise TypeError(f"not a Monomial or None: {m!r}")
    return fam


def value_at(f: Iterable[Optional[Monomial]], t: RatLike) -> Vector:
    """Evaluate the family at a positive rational parameter value."""
    tv = XRat(t)
    if not tv or tv.is_infinite:
        raise ValueError("parameter must be positive and finite")
    tq = tv.as_fraction

    def entry(m: Optional[Monomial]) -> LevelValue:
        if m is None:
            return ZERO
        return pair(m.level, Fraction(m.coeff) * tq**m.degree)

    return _as_vector(entry(m) for m in _as_family(f))


def normalized_limit(f: Iterable[Optional[Monomial]], j: int) -> Vector:
    """Limit of the family as t grows, rescaled so entry j stays at
    magnitude 1.

    With d_j the reference degree, entry i goes to: Zero when its degree is
    smaller and its level is 0 (the entry vanishes outright); one level
    down with infinite magnitude when its degree is smaller but its level
    is positive (a positive-level magnitude shrinking to 0 falls off the
    bottom of its level); (level_i, a_i/a_j) on equal degrees; and
    (level_i, inf) when its degree is larger.  Zero entries stay Zero.
    The reference index j must satisfy 0 <= j < len(f).
    """
    fam = _as_family(f)
    if not 0 <= j < len(fam):
        raise ValueError(f"reference index {_ECHO.repr(j)} is out of range 0..{len(fam) - 1}")
    ref = fam[j]
    if ref is None:
        raise ValueError(f"reference entry {j} is zero")

    def entry(m: Optional[Monomial]) -> LevelValue:
        if m is None:
            return ZERO
        if m.degree < ref.degree:
            return ZERO if m.level == 0 else pair(m.level - 1, INF)
        if m.degree == ref.degree:
            return pair(m.level, m.coeff / ref.coeff)
        return pair(m.level, INF)

    return _as_vector(entry(m) for m in fam)


# `limit_points` refuses a family whose classes would hold more entries than
# this (entries times distinct degrees): 1,000 entries of 1,000 degrees.
MAX_LIMIT_ENTRIES = 10**6


def limit_points(f: Iterable[Optional[Monomial]]) -> list[ProjClass]:
    """Distinct projective classes of all entry-normalized limits of f.

    The classes are one per distinct degree among the nonzero entries, in
    first-seen order.  Two references of one degree give limits that
    differ by one positive scalar on their finite entries; references of
    different degrees differ in whether the lower-degree reference is
    finite.  So each class is built once, from the first entry of its
    degree, with no class compared: work is n times the number of
    distinct degrees, the size of the result.  Two or more classes means
    the family's projective images accumulate on multiple points at once.
    The classes hold n * d entries for n entries and d distinct degrees;
    past `MAX_LIMIT_ENTRIES` the call is refused before any limit is built.
    """
    fam = _as_family(f)
    if all(m is None for m in fam):
        raise ValueError("family has no nonzero entry")
    first: dict[int, int] = {}
    for j, m in enumerate(fam):
        if m is not None:
            first.setdefault(m.degree, j)
    if len(fam) * len(first) > MAX_LIMIT_ENTRIES:
        raise ValueError(
            f"{len(fam)} entries of {len(first)} distinct degrees give more than "
            f"{MAX_LIMIT_ENTRIES} limit entries; refusing to build them"
        )
    return [ProjClass(normalized_limit(fam, j)) for j in first.values()]
