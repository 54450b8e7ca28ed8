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
x_0 < ... < x_m by exact integer cross-multiplication, cut it into slots:
slot 2i is the point x_i and slot 2i+1 the open gap (x_i, x_i+1), so slot
s starts exactly at the cut (x_{s//2}, s % 2).  Painting the components
from the highest level down, each slot written once, gives top[slot], the
highest level covering it.  The cuts where top >= k starts or stops
holding are the cuts of support(k), and the same cuts bound its
complement.  The level-k slice is read off the same slots: the level-k
atoms whose slot has top == k and the runs of each level-k density with
top == k, kept as components, so slice masses and recovery never build a
region.  Point queries read top directly; a mass sums per denominator.
"""

from __future__ import annotations

import itertools
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, cmp_to_key
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from levelring.values import _ECHO, DEFAULT_HEIGHT_BOUND, INF, LevelValue, XRat, ZERO, pair

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


# ---------------------------------------------------------------------------
# domains and regions

@dataclass(frozen=True)
class Domain:
    """Disjoint union of closed intervals [0, length], keyed by id."""

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
        object.__setattr__(self, "intervals", rows)

    @cached_property
    def _lengths(self) -> dict[str, Fraction]:
        # not a field: equality, hash and repr see only the intervals
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


def _overlap(cuts: Sequence[Cut], lo: Fraction, hi: Fraction) -> Fraction:
    """Length of the part of the region's cuts inside [lo, hi]."""
    total = Fraction(0)
    # from the piece holding the first cut past lo
    k = bisect_right(cuts, (lo, 1)) & ~1
    for (a, _), (b, _) in _pieces(cuts[k:]):
        if a >= hi:
            break
        total += min(b, hi) - max(a, lo)
    return total


@dataclass(frozen=True)
class Region:
    """A finite union of sub-intervals and points of a domain, exact.

    Immutable and hashable; supports union/intersection/difference,
    closure, length, membership, and relative-openness tests.  Each
    interval's part is its canonical tuple of cuts, so every set operation
    is one merge of two cut tuples.  Build one with ``Region.of`` or the
    ``interval``/``points`` helpers.
    """

    domain: Domain
    parts: tuple[tuple[str, tuple[Cut, ...]], ...]

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

    @cached_property
    def _by_id(self) -> dict[str, tuple[Cut, ...]]:
        # not a field: equality, hash and repr see only the parts
        return dict(self.parts)

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
        # x lies past (x, 0): inside when an odd number of cuts come first
        return bisect_right(self._cuts(interval), (_frac(x), 0)) & 1 == 1

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

@dataclass(frozen=True)
class Atom:
    """A point mass: `mass` (possibly infinite) at `position`, at `level`."""

    interval: str
    position: Fraction
    level: int
    mass: XRat

    def __init__(self, interval: str, position: Rat, level: int, mass):
        object.__setattr__(self, "interval", str(interval))
        object.__setattr__(self, "position", _frac(position))
        object.__setattr__(self, "level", int(level))
        object.__setattr__(self, "mass", XRat(mass))
        if self.level < 0:
            raise ValueError("level must be nonnegative")
        if not self.mass:
            raise ValueError("atom mass must be positive")


@dataclass(frozen=True)
class Density:
    """Constant-rate mass on the closed sub-interval [lo, hi], at `level`.

    An infinite rate means every positive-length subset of [lo, hi] has
    infinite mass at this level.
    """

    interval: str
    lo: Fraction
    hi: Fraction
    level: int
    rate: XRat

    def __init__(self, interval: str, lo: Rat, hi: Rat, level: int, rate):
        object.__setattr__(self, "interval", str(interval))
        object.__setattr__(self, "lo", _frac(lo))
        object.__setattr__(self, "hi", _frac(hi))
        object.__setattr__(self, "level", int(level))
        object.__setattr__(self, "rate", XRat(rate))
        if self.level < 0:
            raise ValueError("level must be nonnegative")
        if self.lo >= self.hi:
            raise ValueError("density needs lo < hi")
        if not self.rate:
            raise ValueError("density rate must be positive")


Component = Union[Atom, Density]


@dataclass(frozen=True)
class FHMeasure:
    """A finite-height measure: a domain plus atom/density components."""

    domain: Domain
    components: tuple[Component, ...]
    height_bound: int = DEFAULT_HEIGHT_BOUND

    def __init__(
        self,
        domain: Domain,
        components: Iterable[Component] = (),
        height_bound: int = DEFAULT_HEIGHT_BOUND,
    ):
        if height_bound < 1:
            raise ValueError("height bound must be at least 1")
        comps = tuple(components)
        for c in comps:
            if not isinstance(c, (Atom, Density)):
                raise TypeError(f"not a measure component: {c!r}")
            length = domain.length_of(c.interval)
            if isinstance(c, Atom):
                if not (0 <= c.position <= length):
                    raise ValueError(
                        f"atom position {_ECHO.repr(str(c.position))} outside interval"
                    )
            else:
                if c.lo < 0 or c.hi > length:
                    raise ValueError(
                        f"density [{_ECHO.repr(str(c.lo))}, {_ECHO.repr(str(c.hi))}] "
                        "outside interval"
                    )
            if c.level >= height_bound:
                raise ValueError(
                    f"component level {_ECHO.repr(c.level)} exceeds height bound "
                    f"{_ECHO.repr(height_bound)}"
                )
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "height_bound", int(height_bound))

    @cached_property
    def _index(self) -> _LevelIndex:
        # not a field: equality, hash and repr see only the measure
        return _LevelIndex(self)

    @property
    def height(self) -> Optional[int]:
        """Largest level carrying a component, or None for the zero measure."""
        levels = self.levels()
        return levels[-1] if levels else None

    def levels(self) -> tuple[int, ...]:
        return self._index.levels


def _ends(c: Component) -> tuple[Fraction, Fraction]:
    """The ends of a component's closed carrier (an atom's are its point)."""
    return (c.position, c.position) if isinstance(c, Atom) else (c.lo, c.hi)


# Sorts reduced (numerator, denominator) pairs by the sign of an exact
# integer cross product: cheaper than Fraction.__lt__, and never rounds.
_BY_VALUE = cmp_to_key(lambda p, q: p[0] * q[1] - q[0] * p[1])


def _span(at: dict[tuple[int, int], int], c: Component) -> tuple[int, int]:
    """The point slots of c's carrier ends, found by their integer pairs."""
    lo, hi = _ends(c)
    return 2 * at[lo.as_integer_ratio()], 2 * at[hi.as_integer_ratio()]


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
    covering the slot, or -1.  The supports and their complements are runs
    of slots, and the slices are the components cut to the slots whose top
    is their own level; each is built on first use and then kept.
    """

    def __init__(self, mu: FHMeasure):
        by_level: dict[int, list[Component]] = {}
        for c in mu.components:
            by_level.setdefault(c.level, []).append(c)
        self.domain = mu.domain
        self.levels = tuple(sorted(by_level))
        self.by_level = by_level
        self._splits: dict[int, tuple[Region, Region]] = {}

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
            marks = {v.as_integer_ratio(): v for c in comps[iid] for v in _ends(c)}
            marks[0, 1], marks[length.as_integer_ratio()] = Fraction(0), length
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

    def _split(self, k: int) -> tuple[Region, Region]:
        """support(k), the slots covered at level k or higher (at least 0),
        and its complement, kept per distinct support."""
        i = bisect_left(self.levels, k)
        if i not in self._splits:
            sides: tuple[list, list] = ([], [])  # the parts of (support, complement)
            for iid, (x, _, top) in self.sweep.items():
                cuts: tuple[list[Cut], list[Cut]] = ([], [])
                for below, start, end in _runs(x, top, lambda t: t < max(k, 0)):
                    cuts[below].extend((start, end))
                for side, part in zip(sides, cuts):
                    if part:
                        side.append((iid, tuple(part)))
            self._splits[i] = tuple(Region(self.domain, tuple(side)) for side in sides)
        return self._splits[i]

    def support(self, k: int) -> Region:
        return self._split(k)[0]

    def outside(self, k: int) -> Region:
        return self._split(k)[1]

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

    @cached_property
    def top_atom(self) -> dict[tuple[str, tuple[int, int]], int]:
        """The highest atom level at each (interval, position pair) with one."""
        out: dict[tuple[str, tuple[int, int]], int] = {}
        for c in itertools.chain.from_iterable(self.by_level.values()):
            if isinstance(c, Atom):
                spot = (c.interval, c.position.as_integer_ratio())
                out[spot] = max(out.get(spot, c.level), c.level)
        return out


def _mass(comps: Iterable[Component], region: Region) -> XRat:
    """Total mass of the components on the region: atom masses plus rate x
    length, summed as integer numerators per denominator, or infinite at
    the first infinite term."""
    sums: dict[int, int] = {}
    for c in comps:
        if isinstance(c, Atom):
            if not region.contains(c.interval, c.position):
                continue
            weight = c.mass
        else:
            overlap = _overlap(region._cuts(c.interval), c.lo, c.hi)
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
    """Closed region carrying components of level >= k."""
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

    For each region E the formula reads: with m_k the level-k slice mass of
    E minus support(k+1), the measure is (j, m_j) for the largest j with
    m_j > 0, and ZERO if there is none.
    """
    if regions is None:
        regions = grid_sets(mu)
    index = mu._index
    for region in regions:
        best: LevelValue = ZERO
        for k in index.levels:
            m = nu_hat(mu, k, region.intersect(index.outside(k + 1)))
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
    formula reproducing evaluation on every region.
    """
    index = mu._index
    for c in mu.components:
        if (
            isinstance(c, Atom)
            and index.top_atom[c.interval, c.position.as_integer_ratio()] == c.level
            and index.peak(c) > c.level
        ):
            return False
    return True


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
    comps: list[Component] = []
    for c in mu.components:
        if isinstance(c, Atom):
            comps.append(Atom(c.interval, c.position, rank[c.level], c.mass))
        else:
            comps.append(Density(c.interval, c.lo, c.hi, rank[c.level], c.rate))
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
