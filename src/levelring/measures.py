"""Finite-height leveled measures on unions of closed intervals.

The domain is a finite disjoint union of closed intervals, each with an id
and a rational length.  Measurable test sets are finite unions of
sub-intervals (any mix of open/closed endpoints) and isolated points,
handled exactly by the ``Region`` algebra below.  A region keeps each
interval's part as a strictly increasing tuple of cuts (x, side), where
(x, 0) sits just below x and (x, 1) just above it; the part is
[c0, c1) ∪ [c2, c3) ∪ ..., and every set operation is one linear merge of
two cut tuples.

A measure is a finite list of components, each an ``Atom`` (point mass) or
a ``Density`` (constant rate on a closed sub-interval), every component
carrying a level.  Evaluation returns a ``LevelValue``: the highest level
with positive mass on the set, paired with that mass.  An infinite density
rate flags a component whose every positive-length subset has infinite
mass at its level.

The level structure is exposed through ``support`` (the closed set carrying
mass at or above a level), the slice functions ``nu_k`` / ``nu_hat``, the
recovery round-trip that rebuilds evaluation from the per-level slices, the
gradedness and local-finiteness validators, and ``align``, which deletes
empty levels.

Each measure keeps a level index, built on first use.  It groups the
components by level and sweeps each interval once.  The marks of an
interval (0, its length, every atom position and density end), keyed by
their reduced integer pairs (never hashed as Fractions) and sorted as
x_0 < ... < x_m, cut it into slots:
slot 2i is the point x_i and slot 2i+1 the open gap (x_i, x_i+1), so slot
s starts exactly at the cut (x_{s//2}, s % 2).  Painting the components
from the highest level down, each slot written once, gives top[slot], the
highest level covering it.  The cuts where top >= k starts or stops
holding are the cuts of support(k), and the same cuts bound its
complement.  The level-k slice is read off the same slots: the level-k
atoms whose slot has top == k and the runs of each level-k density with
top == k, kept as components, so slice masses and recovery never build a
region.  Point queries read top directly; a mass sums per denominator.

Each component turns its positions into reduced integer pairs once, when
it is built, and keeps them beside the public ``Fraction`` fields: an
atom's position, a density's lo and hi.  The measure path reads only the
stored pairs, and compares them by the one exact cross product of
``values`` (``_cmp``): a density's lo < hi, a measure's range checks, the
marks' keys and sort, the slots of each carrier, atom membership and
density overlap.  A region still keeps its cuts as ``Fraction``s, and
each cut read is turned into its pair there.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from functools import cached_property, cmp_to_key
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from levelring.values import _ECHO, DEFAULT_HEIGHT_BOUND, INF, LevelValue, XRat, ZERO, _cmp, _Record, pair

__all__ = [
    "Atom",
    "Density",
    "Domain",
    "FHMeasure",
    "Region",
    "align",
    "evaluate",
    "grid_sets",
    "interval",
    "is_locally_finite",
    "is_open_graded",
    "nu_hat",
    "nu_k",
    "points",
    "recover",
    "recover_check",
    "support",
]

Rat = Union[Fraction, int, str]


def _frac(x: Rat) -> Fraction:
    return x if isinstance(x, Fraction) else XRat(x).as_fraction


# Sorts reduced pairs by the one rule.
_BY_VALUE = cmp_to_key(_cmp)


# ---------------------------------------------------------------------------
# domains and regions

class Domain(_Record):
    """Disjoint union of closed intervals [0, length], keyed by id."""

    _FIELDS = ("intervals",)
    intervals: tuple[tuple[str, Fraction], ...]

    def __init__(self, intervals: Iterable[tuple[str, Rat]]):
        rows = tuple((str(i), _frac(l)) for i, l in intervals)
        if not rows:
            raise ValueError("domain needs at least one interval")
        if len({i for i, _ in rows}) != len(rows):
            raise ValueError("interval ids must be unique")
        for _, length in rows:
            if length <= 0:
                raise ValueError("interval lengths must be positive")
        self.__dict__.update(intervals=rows)

    @cached_property
    def _lengths(self) -> dict[str, Fraction]:
        return dict(self.intervals)

    def length_of(self, interval: str) -> Fraction:
        length = self._lengths.get(interval)
        if length is None:
            raise KeyError(f"no interval {_ECHO.repr(interval)} in domain")
        return length

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(i for i, _ in self.intervals)


# A cut (x, side) sits just below x when side is 0 and just above it when
# side is 1, so cuts sort along the line with x between (x, 0) and (x, 1).
# A region keeps each interval's part as one strictly increasing tuple of
# cuts c0 < c1 < ..., standing for [c0, c1) ∪ [c2, c3) ∪ ...: a closed piece
# [lo, hi] runs from (lo, 0) to (hi, 1), and an open end flips its side.
# Strictly increasing makes the tuple canonical: no piece is empty, and no
# two pieces touch.
Cut = tuple[Fraction, int]


def _pieces(cuts: Sequence[Cut]) -> Iterator[tuple[Cut, Cut]]:
    """The (start, end) cut pairs of a region's part, in order."""
    return zip(cuts[::2], cuts[1::2])


def _fold(pairs: Iterable[tuple[Cut, Cut]]) -> tuple[Cut, ...]:
    """The cuts of a union of nonempty [start, end) pairs sorted by start:
    each pair that starts at or before the end so far extends it."""
    out: list[Cut] = []
    for start, end in pairs:
        if out and start <= out[-1]:
            out[-1] = max(out[-1], end)
        else:
            out += (start, end)
    return tuple(out)


def _merge(a: Sequence[Cut], b: Sequence[Cut], keep: Callable[[int, int], int]) -> tuple[Cut, ...]:
    """The cuts of the set where keep(in a, in b) holds, in one merge pass.
    Past i cuts of a, a point is in a when i is odd; a cut is kept where
    the kept state flips."""
    out: list[Cut] = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na or j < nb:
        c = a[i] if j == nb or (i < na and a[i] < b[j]) else b[j]
        if i < na and a[i] == c:
            i += 1
        if j < nb and b[j] == c:
            j += 1
        if keep(i & 1, j & 1) != len(out) & 1:
            out.append(c)
    return tuple(out)


def _rank(cuts: Sequence[Cut], x: tuple[int, int], side: int) -> int:
    """The number of cuts at or below the cut (x, side), x a reduced pair:
    bisect_right, with each cut's position compared to x by the one rule."""
    lo, hi = 0, len(cuts)
    while lo < hi:
        mid = (lo + hi) // 2
        y, s = cuts[mid]
        d = _cmp(y.as_integer_ratio(), x)
        if d < 0 or d == 0 and s <= side:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _inside(cuts: Sequence[Cut], x: tuple[int, int]) -> bool:
    """Whether the point x, a reduced pair, lies in the region the cuts
    bound: x lies past the cut (x, 0), so it is inside when an odd number
    of cuts come first."""
    return _rank(cuts, x, 0) & 1 == 1


def _overlap(cuts: Sequence[Cut], d: "Density") -> Fraction:
    """Length of the part of the region's cuts inside d's carrier [lo, hi].
    Positions are compared as reduced integer pairs by the one cross
    product, d's ends by their stored pairs; only the length sum is
    Fraction arithmetic."""
    total = Fraction(0)
    lo_p, hi_p = d._lo_at, d._hi_at
    # from the piece holding the first cut past lo
    k = _rank(cuts, lo_p, 1) & ~1
    for (a, _), (b, _) in _pieces(cuts[k:]):
        a_p = a.as_integer_ratio()
        if _cmp(a_p, hi_p) >= 0:
            break
        total += (b if _cmp(b.as_integer_ratio(), hi_p) < 0 else d.hi) - (a if _cmp(a_p, lo_p) > 0 else d.lo)
    return total


class Region(_Record):
    """A finite union of sub-intervals and points of a domain, exact.

    Immutable and hashable; supports union/intersection/difference,
    closure, length, membership, and relative-openness tests.  Each
    interval's part is its canonical tuple of cuts, so every set operation
    is one merge of two cut tuples.  Build one with ``Region.of`` or the
    ``interval``/``points`` helpers.
    """

    _FIELDS = ("domain", "parts")
    domain: Domain
    parts: tuple[tuple[str, tuple[Cut, ...]], ...]

    def __init__(self, domain: Domain, parts: tuple[tuple[str, tuple[Cut, ...]], ...]):
        self.__dict__.update(domain=domain, parts=parts, _by_id=dict(parts))

    @staticmethod
    def of(
        domain: Domain,
        spans: Iterable[tuple[str, Rat, Rat, bool, bool]] = (),
        points: Iterable[tuple[str, Rat]] = (),
    ) -> "Region":
        """Build a region from (interval, lo, hi, closed_lo, closed_hi)
        spans and (interval, position) points."""
        by_id: dict[str, list[tuple[Cut, Cut]]] = {}
        for interval, lo, hi, cl, cr in spans:
            lo, hi = _frac(lo), _frac(hi)
            length = domain.length_of(interval)
            if lo > hi:
                raise ValueError(
                    f"reversed endpoints: [{_ECHO.repr(str(lo))}, {_ECHO.repr(str(hi))}]"
                )
            if lo < 0 or hi > length:
                raise ValueError(
                    f"span [{_ECHO.repr(str(lo))}, {_ECHO.repr(str(hi))}] "
                    f"outside interval {_ECHO.repr(interval)}"
                )
            start, end = (lo, int(not cl)), (hi, int(cr))
            if start < end:
                by_id.setdefault(interval, []).append((start, end))
        for interval, x in points:
            x = _frac(x)
            if x < 0 or x > domain.length_of(interval):
                raise ValueError(
                    f"point {_ECHO.repr(str(x))} outside interval {_ECHO.repr(interval)}"
                )
            by_id.setdefault(interval, []).append(((x, 0), (x, 1)))
        return Region(
            domain, tuple((i, _fold(sorted(by_id[i]))) for i in domain.ids if i in by_id)
        )

    @staticmethod
    def empty(domain: Domain) -> "Region":
        return Region(domain, ())

    @staticmethod
    def whole(domain: Domain) -> "Region":
        zero = Fraction(0)
        return Region(domain, tuple((i, ((zero, 0), (l, 1))) for i, l in domain.intervals))

    def _cuts(self, interval: str) -> tuple[Cut, ...]:
        return self._by_id.get(interval, ())

    def _combine(self, other: "Region", keep: Callable[[int, int], int]) -> "Region":
        """The region where keep(in self, in other) holds.  Unless keep
        holds outside self, only self's intervals can hold any of it."""
        if self.domain != other.domain:
            raise ValueError("regions live on different domains")
        ids = self.domain.ids if keep(0, 1) else self._by_id
        merged = ((i, _merge(self._cuts(i), other._cuts(i), keep)) for i in ids)
        return Region(self.domain, tuple((i, cuts) for i, cuts in merged if cuts))

    def union(self, other: "Region") -> "Region":
        return self._combine(other, operator.or_)

    def intersect(self, other: "Region") -> "Region":
        return self._combine(other, operator.and_)

    def minus(self, other: "Region") -> "Region":
        return self._combine(other, operator.gt)

    def complement(self) -> "Region":
        return Region.whole(self.domain).minus(self)

    def closure(self) -> "Region":
        """Every start at its side 0 and every end at its side 1, with the
        pieces that now touch folded together."""
        return Region(
            self.domain,
            tuple(
                (i, _fold(((a, 0), (b, 1)) for (a, _), (b, _) in _pieces(cuts)))
                for i, cuts in self.parts
            ),
        )

    def length(self) -> Fraction:
        return sum(
            (b - a for _, cuts in self.parts for (a, _), (b, _) in _pieces(cuts)),
            Fraction(0),
        )

    def contains(self, interval: str, x: Rat) -> bool:
        """Whether x lies in the region's part of the interval."""
        return _inside(self._cuts(interval), _frac(x).as_integer_ratio())

    @property
    def is_empty(self) -> bool:
        return not self.parts

    def is_closed(self) -> bool:
        return self == self.closure()

    def is_open(self) -> bool:
        """Open in the domain's own (relative) topology."""
        return self.complement().is_closed()

    def __str__(self) -> str:
        def piece(start: Cut, end: Cut) -> str:
            (lo, open_lo), (hi, closed_hi) = start, end
            if lo == hi:
                return f"{{{lo}}}"
            return ("(" if open_lo else "[") + f"{lo},{hi}" + ("]" if closed_hi else ")")

        return (
            "∅"
            if self.is_empty
            else " ∪ ".join(
                f"{i}:{piece(*p)}" for i, cuts in self.parts for p in _pieces(cuts)
            )
        )


def interval(
    domain: Domain,
    iid: str,
    lo: Rat,
    hi: Rat,
    closed_lo: bool = True,
    closed_hi: bool = True,
) -> Region:
    """One sub-interval of the named domain interval, as a Region."""
    return Region.of(domain, [(iid, lo, hi, closed_lo, closed_hi)])


def points(domain: Domain, *pts: tuple[str, Rat]) -> Region:
    """A finite point set, as a Region."""
    return Region.of(domain, points=pts)


# ---------------------------------------------------------------------------
# measures

class Atom(_Record):
    """A point mass: `mass` (possibly infinite) at `position`, at `level`."""

    __slots__ = ("interval", "position", "level", "mass", "_at")
    _FIELDS = __slots__[:4]
    interval: str
    position: Fraction
    level: int
    mass: XRat
    _at: tuple[int, int]  # the position's reduced pair

    def __init__(self, interval: str, position: Rat, level: int, mass):
        position = _frac(position)
        mass = mass if type(mass) is XRat else XRat(mass)
        if type(level) is not int:
            raise TypeError(f"level must be an int: {_ECHO.repr(level)}")
        if level < 0:
            raise ValueError("level must be nonnegative")
        if not mass:
            raise ValueError("atom mass must be positive")
        set_interval, set_position, set_level, set_mass, set_at = self._setters
        set_interval(self, str(interval))
        set_position(self, position)
        set_level(self, level)
        set_mass(self, mass)
        set_at(self, position.as_integer_ratio())

    def __reduce__(self) -> tuple:
        return (_from_pairs, (Atom, self.interval, (self._at,), self.level, self.mass))


class Density(_Record):
    """Constant-rate mass on the closed sub-interval [lo, hi], at `level`.

    An infinite rate means every positive-length subset of [lo, hi] has
    infinite mass at this level.
    """

    __slots__ = ("interval", "lo", "hi", "level", "rate", "_lo_at", "_hi_at")
    _FIELDS = __slots__[:5]
    interval: str
    lo: Fraction
    hi: Fraction
    level: int
    rate: XRat
    _lo_at: tuple[int, int]  # the ends' reduced pairs
    _hi_at: tuple[int, int]

    def __init__(self, interval: str, lo: Rat, hi: Rat, level: int, rate):
        lo, hi = _frac(lo), _frac(hi)
        rate = rate if type(rate) is XRat else XRat(rate)
        lo_at, hi_at = lo.as_integer_ratio(), hi.as_integer_ratio()
        if type(level) is not int:
            raise TypeError(f"level must be an int: {_ECHO.repr(level)}")
        if level < 0:
            raise ValueError("level must be nonnegative")
        if _cmp(lo_at, hi_at) >= 0:
            raise ValueError("density needs lo < hi")
        if not rate:
            raise ValueError("density rate must be positive")
        set_interval, set_lo, set_hi, set_level, set_rate, set_lo_at, set_hi_at = self._setters
        set_interval(self, str(interval))
        set_lo(self, lo)
        set_hi(self, hi)
        set_level(self, level)
        set_rate(self, rate)
        set_lo_at(self, lo_at)
        set_hi_at(self, hi_at)

    def __reduce__(self) -> tuple:
        return (_from_pairs, (Density, self.interval, (self._lo_at, self._hi_at), self.level, self.rate))


def _from_pairs(cls, interval: str, ends: tuple, level: int, value: XRat) -> Component:
    """A component rebuilt from its stored reduced pairs, as its
    `__reduce__` gives them: the pairs pickle from protocol 2 on past the
    digit limit of str, and a Fraction on Python 3.10 does not."""
    return cls(interval, *(Fraction(*end) for end in ends), level, value)


Component = Union[Atom, Density]


class FHMeasure(_Record):
    """A finite-height measure: a domain plus atom/density components."""

    _FIELDS = ("domain", "components", "height_bound")
    domain: Domain
    components: tuple[Component, ...]
    height_bound: int

    def __init__(
        self,
        domain: Domain,
        components: Iterable[Component] = (),
        height_bound: int = DEFAULT_HEIGHT_BOUND,
    ):
        if type(height_bound) is not int:
            raise TypeError(f"height bound must be an int: {_ECHO.repr(height_bound)}")
        if height_bound < 1:
            raise ValueError("height bound must be at least 1")
        comps = tuple(components)
        # positions compare as reduced pairs by the one rule: an interval's
        # end is its length's pair, taken once, and a pair lies below 0 when
        # its numerator does
        ends: dict[str, tuple[int, int]] = {}
        for c in comps:
            if not isinstance(c, (Atom, Density)):
                raise TypeError(f"not a measure component: {c!r}")
            end = ends.get(c.interval)
            if end is None:
                end = ends[c.interval] = domain.length_of(c.interval).as_integer_ratio()
            if isinstance(c, Atom):
                if c._at[0] < 0 or _cmp(c._at, end) > 0:
                    raise ValueError(
                        f"atom position {_ECHO.repr(str(c.position))} outside interval"
                    )
            else:
                if c._lo_at[0] < 0 or _cmp(c._hi_at, end) > 0:
                    raise ValueError(
                        f"density [{_ECHO.repr(str(c.lo))}, {_ECHO.repr(str(c.hi))}] "
                        "outside interval"
                    )
            if c.level >= height_bound:
                raise ValueError(
                    f"component level {_ECHO.repr(c.level)} exceeds height bound "
                    f"{_ECHO.repr(height_bound)}"
                )
        self.__dict__.update(domain=domain, components=comps, height_bound=height_bound)

    @cached_property
    def _index(self) -> _LevelIndex:
        return _LevelIndex(self)

    @property
    def height(self) -> Optional[int]:
        """Largest level carrying a component, or None for the zero measure."""
        levels = self.levels()
        return levels[-1] if levels else None

    def levels(self) -> tuple[int, ...]:
        return self._index.levels


def _span(at: dict[tuple[int, int], int], c: Component) -> tuple[int, int]:
    """The point slots of c's carrier ends (an atom's are its point), found
    by their stored pairs."""
    if isinstance(c, Atom):
        s = 2 * at[c._at]
        return s, s
    return 2 * at[c._lo_at], 2 * at[c._hi_at]


def _runs(
    x: Sequence[Fraction], top: Sequence[int], key: Callable[[int], object]
) -> Iterator[tuple[object, Cut, Cut]]:
    """Each maximal run of slots over which key(top) keeps one value, as
    (value, start, end).  Slot 2i is the mark x[i] and slot 2i+1 the open
    gap after it, so slot s starts at the cut (x[s // 2], s % 2), and slots
    s..e-1 run from that cut to the cut of slot e.  A slot of another value
    parts any two runs of one value, so the cuts of one value increase."""
    s = 0
    for value, run in itertools.groupby(top, key):
        e = s + len(tuple(run))
        yield value, (x[s // 2], s % 2), (x[e // 2], e % 2)
        s = e


class _LevelIndex:
    """Per-level views of one measure.

    The components by level are sorted out at once.  On first use each
    interval is swept: its marks (0, the length, every atom position and
    density end) cut it into slots, and top[slot] is the highest level
    covering the slot, or -1.  The sweep and the slices (the components
    cut to the slots whose top is their own level) are built on first use
    and then kept; a support is read off the sweep's runs on each call.
    """

    def __init__(self, mu: FHMeasure):
        by_level: dict[int, list[Component]] = {}
        for c in mu.components:
            by_level.setdefault(c.level, []).append(c)
        self.domain = mu.domain
        self.levels = tuple(sorted(by_level))
        self.by_level = by_level

    @cached_property
    def sweep(self) -> dict[str, tuple[list[Fraction], dict[tuple[int, int], int], list[int]]]:
        """Per interval, in domain order: its sorted marks, the index of
        each mark keyed by its reduced (numerator, denominator) pair, and
        top[slot], painted from the highest level down."""
        comps: dict[str, list[Component]] = {i: [] for i in self.domain.ids}
        for k in reversed(self.levels):
            for c in self.by_level[k]:
                comps[c.interval].append(c)
        out = {}
        for iid, length in self.domain.intervals:
            marks = {(0, 1): Fraction(0), length.as_integer_ratio(): length}
            for c in comps[iid]:
                if isinstance(c, Atom):
                    marks[c._at] = c.position
                else:
                    marks[c._lo_at], marks[c._hi_at] = c.lo, c.hi
            keys = sorted(marks, key=_BY_VALUE)
            at = {key: i for i, key in enumerate(keys)}
            top = [-1] * (2 * len(keys) - 1)
            # skip[s] leads to the first unpainted slot at or after s, so
            # each slot is painted once, by the highest level covering it
            skip = list(range(len(top) + 1))
            for c in comps[iid]:
                s, last = _span(at, c)
                while True:
                    r = s
                    while skip[r] != r:
                        r = skip[r]
                    while skip[s] != r:
                        skip[s], s = r, skip[s]
                    if r > last:
                        break
                    top[r] = c.level
                    skip[r] = s = r + 1
            out[iid] = ([marks[key] for key in keys], at, top)
        return out

    def support(self, k: int) -> Region:
        """The runs of slots covered at level k or higher (at least 0)."""
        floor, parts = max(k, 0), []
        for iid, (x, _, top) in self.sweep.items():
            cuts = [
                cut for covered, start, end in _runs(x, top, lambda t: t >= floor)
                if covered for cut in (start, end)
            ]
            if cuts:
                parts.append((iid, tuple(cuts)))
        return Region(self.domain, tuple(parts))

    def peak(self, c: Component) -> int:
        """The highest level covering any point of c's carrier."""
        _, at, top = self.sweep[c.interval]
        s, e = _span(at, c)
        return max(top[s : e + 1])

    @cached_property
    def slices(self) -> dict[int, list[Component]]:
        """Per occupied level k, in level order, its components cut down to
        stratum k (the slots whose top level is k): the atoms k peaks at,
        and the runs of each density that no higher level covers.  No run
        is a lone point: a carrier covering a gap covers its ends."""
        out: dict[int, list[Component]] = {}
        for k in self.levels:
            cut = out[k] = []
            for c in self.by_level[k]:
                if isinstance(c, Atom):
                    if self.peak(c) == k:
                        cut.append(c)
                    continue
                x, at, top = self.sweep[c.interval]
                s, e = _span(at, c)
                for bare, (lo, _), (hi, _) in _runs(x[s // 2 : e // 2 + 1], top[s : e + 1], k.__eq__):
                    if bare:
                        cut.append(Density(c.interval, lo, hi, k, c.rate))
        return out


def _mass(comps: Iterable[Component], region: Region) -> XRat:
    """Total mass of the components on the region: atom masses plus rate x
    length, summed as integer numerators per denominator, or infinite at
    the first infinite term."""
    sums: dict[int, int] = {}
    cuts = region._by_id
    for c in comps:
        if isinstance(c, Atom):
            if not _inside(cuts.get(c.interval, ()), c._at):
                continue
            weight = c.mass
        else:
            overlap = _overlap(cuts.get(c.interval, ()), c)
            if not overlap:
                continue
            weight = c.rate * overlap
        if weight.is_infinite:
            return INF
        p, q = weight.as_fraction.as_integer_ratio()
        sums[q] = sums.get(q, 0) + p
    return XRat(sum((Fraction(p, q) for q, p in sums.items()), Fraction(0)))


def evaluate(mu: FHMeasure, region: Region) -> LevelValue:
    """Measure of the region: its highest level with positive mass, paired
    with that mass; ZERO when nothing meets the region."""
    if region.domain != mu.domain:
        raise ValueError("region is not on this measure's domain")
    for k in reversed(mu.levels()):
        m = _mass(mu._index.by_level[k], region)
        if m:
            return pair(k, m)
    return ZERO


def nu_k(mu: FHMeasure, k: int, region: Region) -> XRat:
    """Level-k reading of the measure: the mass when the value sits exactly
    at level k, infinite when it sits higher, zero when lower or ZERO."""
    if k < 0:
        raise ValueError("level must be nonnegative")
    v = evaluate(mu, region)
    if v.is_zero or v.level < k:
        return XRat(0)
    if v.level == k:
        return v.magnitude
    return XRat("inf")


def support(mu: FHMeasure, k: int) -> Region:
    """Closed region carrying components of level >= k, read off the level
    index's sweep on each call."""
    return mu._index.support(k)


def nu_hat(mu: FHMeasure, k: int, region: Region) -> XRat:
    """Level-k mass of the part of the region in support(k) and clear of
    support(k+1): the mass of the level-k slice, the one the recovery
    formula reads."""
    if region.domain != mu.domain:
        raise ValueError("regions live on different domains")
    return _mass(mu._index.slices.get(k, ()), region)


def recover(mu: FHMeasure) -> FHMeasure:
    """The measure rebuilt from the per-level slices.

    Each level-k component is restricted to the part of its carrier clear
    of support(k+1): atoms inside the higher support are dropped, densities
    are clipped to what survives (up to endpoints, which carry no density
    mass).  For gradable measures this evaluates identically to mu.
    """
    slices = mu._index.slices.values()
    return FHMeasure(mu.domain, itertools.chain.from_iterable(slices), mu.height_bound)


def recover_check(mu: FHMeasure, regions: Optional[Iterable[Region]] = None) -> bool:
    """Verify the recovery formula on a family of test regions.

    For each region E the formula reads: with m_k the level-k mass of E
    minus support(k+1), the measure is (j, m_j) for the largest j with
    m_j > 0, and ZERO if there is none.  The level-k slice already holds
    only the parts of level-k components that no higher level covers, so
    ``nu_hat(mu, k, E)`` is m_k: the slice does the subtraction.
    """
    if regions is None:
        regions = grid_sets(mu)
    index = mu._index
    for region in regions:
        best: LevelValue = ZERO
        for k in index.levels:
            m = nu_hat(mu, k, region)
            if m:
                best = pair(k, m)
        if best != evaluate(mu, region):
            return False
    return True


def is_open_graded(mu: FHMeasure) -> bool:
    """Whether the level grading is honest at every point.

    The one representable failure is a level-j atom sitting inside the
    closed support of strictly higher levels with no higher atom at its
    exact position: the singleton there evaluates to level j, but the
    level-j slice excludes the higher support, so recovery loses the mass.
    Two shadowing cases are safe and allowed: a density carrier buried
    under higher support (positive-length sets there already read a higher
    level, zero-length sets read no density), and an atom directly under a
    higher atom (every set containing the point reads the higher atom, so
    the lower mass never surfaces in evaluation at all).  On this
    representation the predicate is exactly equivalent to the recovery
    formula reproducing evaluation on every region.  The atoms at one
    point share one slot, so a point is graded exactly when its highest
    atom tops that slot: when some atom there peaks at its own level.
    """
    index = mu._index
    atoms = [c for c in mu.components if isinstance(c, Atom)]
    topped = {(c.interval, c._at) for c in atoms if index.peak(c) == c.level}
    return topped == {(c.interval, c._at) for c in atoms}


def is_locally_finite(mu: FHMeasure) -> bool:
    """Whether every point has a finite-measure neighborhood.

    Infinite mass at level k is tolerable only adjacent to level-(k+1)
    support: an infinite atom clear of the higher support fails, and an
    infinite density whose closed carrier misses the higher support fails.
    """
    index = mu._index
    for c in mu.components:
        weight = c.mass if isinstance(c, Atom) else c.rate
        if weight.is_infinite and index.peak(c) == c.level:
            return False
    return True


def align(mu: FHMeasure) -> FHMeasure:
    """Delete empty levels: remap the occupied levels, in order, onto
    0..m-1.  Idempotent; a measure already shaped this way is returned
    unchanged."""
    rank = {lev: i for i, lev in enumerate(mu.levels())}
    if all(rank[lev] == lev for lev in rank):
        return mu
    comps = [c._replace(level=rank[c.level]) for c in mu.components]
    return FHMeasure(mu.domain, comps, mu.height_bound)


def grid_sets(mu: FHMeasure, midpoints: bool = True) -> list[Region]:
    """Test family for round-trip checks: per interval, all sub-spans with
    endpoints on the grid of component endpoints (plus midpoints), in all
    four open/closed shapes, together with grid singletons, the empty
    region, and the whole domain."""
    out: list[Region] = [Region.empty(mu.domain), Region.whole(mu.domain)]
    for iid, (grid, _, _) in mu._index.sweep.items():
        if midpoints:
            grid = sorted(
                set(grid)
                | {(a + b) / 2 for a, b in zip(grid, grid[1:])}
            )
        for x in grid:
            out.append(points(mu.domain, (iid, x)))
        for a, b in itertools.combinations(grid, 2):
            for cl, cr in ((True, True), (False, False), (True, False), (False, True)):
                out.append(interval(mu.domain, iid, a, b, cl, cr))
    return out
