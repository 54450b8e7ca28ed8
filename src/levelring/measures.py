"""Finite-height leveled measures on unions of closed intervals.

The domain is a finite disjoint union of closed intervals, each with an id
and a rational length.  Measurable test sets are finite unions of
sub-intervals (any mix of open/closed endpoints) and isolated points,
handled exactly by the ``Region`` algebra below.

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
interval (0, its length, every atom position and density end), sorted as
x_0 < ... < x_m, cut it into slots: slot 2i is the point x_i and slot 2i+1
the open gap (x_i, x_i+1).  Painting the components from the highest level
down, each slot written once, gives top[slot], the highest level covering
it.  A maximal run of slots is one normalized piece, so support(k) is the
runs with top >= k, its complement the runs with top < k, and every
stratum (top == k) comes out of one pass.  Point queries read top
directly.  Region operations are linear merges over sorted, disjoint piece
lists.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from levelring.values import _ECHO, DEFAULT_HEIGHT_BOUND, LevelValue, XRat, ZERO, pair

__all__ = [
    "Atom",
    "Density",
    "Domain",
    "FHMeasure",
    "Region",
    "align",
    "evaluate",
    "grid_sets",
    "is_locally_finite",
    "is_open_graded",
    "nu_hat",
    "nu_k",
    "recover",
    "recover_check",
    "support",
]

Rat = Union[Fraction, int, str]


def _frac(x: Rat) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


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


# One piece: (lo, hi, closed_lo, closed_hi).  lo < hi, or lo == hi with both
# ends closed (an isolated point).  A region keeps each interval's pieces
# normalized (``_norm``): sorted, disjoint and not touching, so both the
# starts and the ends increase along the list.
Piece = tuple[Fraction, Fraction, bool, bool]
_LO, _HI = itemgetter(0), itemgetter(1)


def _piece_contains(p: Piece, x: Fraction) -> bool:
    lo, hi, cl, cr = p
    if x < lo or x > hi:
        return False
    if x == lo and not cl:
        return False
    if x == hi and not cr:
        return False
    return True


def _piece_intersect(p: Piece, q: Piece) -> Optional[Piece]:
    # The later start and the earlier end bound the overlap; a shared end
    # stays closed only when both pieces close it.
    if p[0] > q[0]:
        lo, cl = p[0], p[2]
    elif q[0] > p[0]:
        lo, cl = q[0], q[2]
    else:
        lo, cl = p[0], p[2] and q[2]
    if p[1] < q[1]:
        hi, cr = p[1], p[3]
    elif q[1] < p[1]:
        hi, cr = q[1], q[3]
    else:
        hi, cr = p[1], p[3] and q[3]
    if lo < hi:
        return (lo, hi, cl, cr)
    if lo == hi and cl and cr:
        return (lo, hi, True, True)
    return None


def _intersect(ps: Sequence[Piece], qs: Sequence[Piece]) -> tuple[Piece, ...]:
    """Intersection of two normalized piece lists, in one merge pass.  The
    result is normalized already: its pieces keep the gaps of both lists."""
    out: list[Piece] = []
    i = j = 0
    while i < len(ps) and j < len(qs):
        p, q = ps[i], qs[j]
        r = _piece_intersect(p, q)
        if r is not None:
            out.append(r)
        # The piece that ends first meets nothing further along the other
        # list; on a shared end neither does (the next pieces of both lists
        # start at or after it, open there if they start on it).
        if p[1] < q[1]:
            i += 1
        elif q[1] < p[1]:
            j += 1
        else:
            i += 1
            j += 1
    return tuple(out)


def _overlap(pieces: Sequence[Piece], lo: Fraction, hi: Fraction) -> Fraction:
    """Length of the part of the normalized pieces inside [lo, hi]."""
    total = Fraction(0)
    for k in range(bisect_right(pieces, lo, key=_HI), len(pieces)):
        a, b, _, _ = pieces[k]
        if a >= hi:
            break
        total += min(b, hi) - max(a, lo)
    return total


def _touches(p: Piece, q: Piece) -> bool:
    """Whether two start-sorted pieces p <= q overlap or abut with no gap."""
    if q[0] < p[1]:
        return True
    if q[0] == p[1]:
        return p[3] or q[2]
    return False


def _norm(pieces: Iterable[Piece]) -> tuple[Piece, ...]:
    todo = sorted(pieces, key=lambda p: (p[0], p[1]))
    out: list[Piece] = []
    for p in todo:
        if p[0] == p[1] and not (p[2] and p[3]):
            continue  # empty
        # Merging can close an endpoint that was open (e.g. absorbing a
        # point at a half-open boundary), which may put the grown piece in
        # contact with an earlier one — so keep folding backwards.
        while out and _touches(out[-1], p):
            a = out.pop()
            lo, cl = (
                (a[0], a[2])
                if a[0] < p[0]
                else (p[0], p[2])
                if p[0] < a[0]
                else (a[0], a[2] or p[2])
            )
            hi, cr = (
                (a[1], a[3])
                if a[1] > p[1]
                else (p[1], p[3])
                if p[1] > a[1]
                else (a[1], a[3] or p[3])
            )
            p = (lo, hi, cl, cr)
        out.append(p)
    return tuple(out)


def _complement(pieces: Sequence[Piece], length: Fraction) -> tuple[Piece, ...]:
    """Complement of a normalized piece list within [0, length].  The gaps
    come out normalized: each is nonempty, and a nonempty piece separates
    any two of them."""
    out: list[Piece] = []
    pos, incl = Fraction(0), True
    for lo, hi, cl, cr in pieces:
        gap_hi_closed = not cl
        if pos < lo or (pos == lo and incl and gap_hi_closed):
            out.append((pos, lo, incl, gap_hi_closed))
        pos, incl = hi, not cr
    if pos < length or (pos == length and incl):
        out.append((pos, length, incl, True))
    return tuple(out)


@dataclass(frozen=True)
class Region:
    """A finite union of sub-intervals and points of a domain, exact.

    Immutable and hashable; supports union/intersection/difference,
    closure, length, membership, and relative-openness tests.  Build one
    with ``Region.of`` or the ``interval``/``points`` helpers.
    """

    domain: Domain
    parts: tuple[tuple[str, tuple[Piece, ...]], ...]

    @staticmethod
    def of(
        domain: Domain,
        spans: Iterable[tuple[str, Rat, Rat, bool, bool]] = (),
        points: Iterable[tuple[str, Rat]] = (),
    ) -> "Region":
        """Build a region from (interval, lo, hi, closed_lo, closed_hi)
        spans and (interval, position) points."""
        by_id: dict[str, list[Piece]] = {}
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
            by_id.setdefault(interval, []).append((lo, hi, cl, cr))
        for interval, x in points:
            x = _frac(x)
            if x < 0 or x > domain.length_of(interval):
                raise ValueError(
                    f"point {_ECHO.repr(str(x))} outside interval {_ECHO.repr(interval)}"
                )
            by_id.setdefault(interval, []).append((x, x, True, True))
        parts = tuple(
            (i, _norm(by_id[i])) for i in domain.ids if by_id.get(i)
        )
        return Region(domain, tuple((i, ps) for i, ps in parts if ps))

    @staticmethod
    def empty(domain: Domain) -> "Region":
        return Region(domain, ())

    @staticmethod
    def whole(domain: Domain) -> "Region":
        return Region.of(
            domain, [(i, 0, l, True, True) for i, l in domain.intervals]
        )

    @cached_property
    def _by_id(self) -> dict[str, tuple[Piece, ...]]:
        # not a field: equality, hash and repr see only the parts
        return dict(self.parts)

    def _pieces(self, interval: str) -> tuple[Piece, ...]:
        return self._by_id.get(interval, ())

    def _check_same_domain(self, other: "Region") -> None:
        if self.domain != other.domain:
            raise ValueError("regions live on different domains")

    def _rebuild(self, by_id: dict[str, tuple[Piece, ...]]) -> "Region":
        """The region of the nonempty pieces of by_id, whose keys come in
        domain order."""
        return Region(self.domain, tuple((i, ps) for i, ps in by_id.items() if ps))

    def union(self, other: "Region") -> "Region":
        self._check_same_domain(other)
        return self._rebuild(
            {
                i: _norm(self._pieces(i) + other._pieces(i))
                for i in self.domain.ids
            }
        )

    def intersect(self, other: "Region") -> "Region":
        """Walks the parts of whichever region has fewer and looks the
        other's up by id, so the cost follows the smaller region."""
        self._check_same_domain(other)
        if len(self.parts) <= len(other.parts):
            return self._rebuild({i: _intersect(ps, other._pieces(i)) for i, ps in self.parts})
        return self._rebuild({i: _intersect(self._pieces(i), ps) for i, ps in other.parts})

    def complement(self) -> "Region":
        return self._rebuild(
            {
                i: _complement(self._pieces(i), self.domain.length_of(i))
                for i in self.domain.ids
            }
        )

    def minus(self, other: "Region") -> "Region":
        return self.intersect(other.complement())

    def closure(self) -> "Region":
        return self._rebuild(
            {
                i: _norm((lo, hi, True, True) for lo, hi, _, _ in self._pieces(i))
                for i in self.domain.ids
            }
        )

    def length(self) -> Fraction:
        return sum(
            (hi - lo for _, ps in self.parts for lo, hi, _, _ in ps), Fraction(0)
        )

    def contains(self, interval: str, x: Rat) -> bool:
        x = _frac(x)
        pieces = self._pieces(interval)
        # only the last piece starting at or before x can hold it
        k = bisect_right(pieces, x, key=_LO)
        return k > 0 and _piece_contains(pieces[k - 1], x)

    @property
    def is_empty(self) -> bool:
        return not self.parts

    def is_closed(self) -> bool:
        return self == self.closure()

    def is_open(self) -> bool:
        """Open in the domain's own (relative) topology."""
        return self.complement().is_closed()

    def __str__(self) -> str:
        def end(piece: Piece) -> str:
            lo, hi, cl, cr = piece
            if lo == hi:
                return f"{{{lo}}}"
            return ("[" if cl else "(") + f"{lo},{hi}" + ("]" if cr else ")")

        return (
            "∅"
            if self.is_empty
            else " ∪ ".join(
                f"{i}:{end(p)}" for i, ps in self.parts for p in ps
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
    # the level index, built on first use by _index_of
    _index: Optional[_LevelIndex] = field(
        default=None, init=False, compare=False, repr=False
    )

    def __init__(
        self,
        domain: Domain,
        components: Iterable[Component] = (),
        height_bound: int = DEFAULT_HEIGHT_BOUND,
    ):
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
        object.__setattr__(self, "_index", None)

    @property
    def height(self) -> Optional[int]:
        """Largest level carrying a component, or None for the zero measure."""
        levels = self.levels()
        return levels[-1] if levels else None

    def levels(self) -> tuple[int, ...]:
        return _index_of(self).levels


def _ends(c: Component) -> tuple[Fraction, Fraction]:
    """The ends of a component's closed carrier (an atom's are its point)."""
    return (c.position, c.position) if isinstance(c, Atom) else (c.lo, c.hi)


def _runs(
    x: Sequence[Fraction], top: Sequence[int], key: Optional[Callable[[int], object]] = None
) -> Iterator[tuple[object, Piece]]:
    """Each maximal run of slots over which key(top) keeps one value, as
    (value, piece).  Slot 2i is the mark x[i] and slot 2i+1 the open gap
    after it, so slots s..e-1 make the piece from x[s // 2] to x[e // 2],
    closed at each end that is a mark.  A slot of another value parts any
    two runs of one value, so the pieces of one value come out normalized."""
    s = 0
    for value, run in itertools.groupby(top, key):
        e = s + len(tuple(run))
        yield value, (x[s // 2], x[e // 2], s % 2 == 0, e % 2 == 1)
        s = e


class _LevelIndex:
    """Per-level views of one measure.

    The components by level are sorted out at once.  On first use each
    interval is swept: its marks (0, the length, every atom position and
    density end) cut it into slots, and top[slot] is the highest level
    covering the slot, or -1.  The supports, their complements and the
    strata are runs of slots; each is built on first use and then kept.
    """

    def __init__(self, mu: FHMeasure):
        by_level: dict[int, list[Component]] = {}
        for c in mu.components:
            by_level.setdefault(c.level, []).append(c)
        self.domain = mu.domain
        self.levels = tuple(sorted(by_level))
        self.by_level = by_level
        self._cuts: dict[int, tuple[Region, Region]] = {}

    @cached_property
    def sweep(self) -> dict[str, tuple[list[Fraction], dict[Fraction, int], list[int]]]:
        """Per interval, in domain order: its sorted marks, the index of
        each mark, and top[slot], painted from the highest level down."""
        comps: dict[str, list[Component]] = {i: [] for i in self.domain.ids}
        for k in reversed(self.levels):
            for c in self.by_level[k]:
                comps[c.interval].append(c)
        out = {}
        for iid, length in self.domain.intervals:
            marks = {Fraction(0), length}
            for c in comps[iid]:
                marks.update(_ends(c))
            x = sorted(marks)
            at = {v: i for i, v in enumerate(x)}
            top = [-1] * (2 * len(x) - 1)
            # skip[s] leads to the first unpainted slot at or after s, so
            # each slot is painted once, by the highest level covering it
            skip = list(range(len(top) + 1))
            for c in comps[iid]:
                lo, hi = _ends(c)
                s, last = 2 * at[lo], 2 * at[hi]
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
            out[iid] = (x, at, top)
        return out

    def _regions(self, key: Optional[Callable[[int], object]] = None) -> dict[object, Region]:
        """The slots grouped by key(top level), one region per value."""
        parts: dict[object, list] = {}
        for iid, (x, _, top) in self.sweep.items():
            pieces: dict[object, list[Piece]] = {}
            for value, p in _runs(x, top, key):
                pieces.setdefault(value, []).append(p)
            for value, ps in pieces.items():
                parts.setdefault(value, []).append((iid, tuple(ps)))
        return {value: Region(self.domain, tuple(ps)) for value, ps in parts.items()}

    def _cut(self, k: int) -> tuple[Region, Region]:
        """support(k), the slots covered at level k or higher (at least 0),
        and its complement, kept per distinct support."""
        i = bisect_left(self.levels, k)
        if i not in self._cuts:
            sides = self._regions(lambda t: t >= max(k, 0))
            empty = Region.empty(self.domain)
            self._cuts[i] = (sides.get(True, empty), sides.get(False, empty))
        return self._cuts[i]

    def support(self, k: int) -> Region:
        return self._cut(k)[0]

    def outside(self, k: int) -> Region:
        return self._cut(k)[1]

    @cached_property
    def strata(self) -> dict[int, Region]:
        """The slots whose top level is k, for every k at once: each slot
        lies in exactly one stratum (-1 holds the uncovered slots)."""
        return self._regions()

    def stratum(self, k: int) -> Region:
        """support(k) clear of support(k+1); empty at unoccupied levels."""
        if k < 0 or k not in self.strata:
            return Region.empty(self.domain)
        return self.strata[k]

    def peak(self, c: Component) -> int:
        """The highest level covering any point of c's carrier."""
        _, at, top = self.sweep[c.interval]
        lo, hi = _ends(c)
        return max(top[2 * at[lo] : 2 * at[hi] + 1])

    def clear(self, c: Density) -> list[tuple[Fraction, Fraction]]:
        """The runs of a density's carrier that no higher level covers.  No
        run is a lone point: a carrier covering a gap covers its ends."""
        x, at, top = self.sweep[c.interval]
        a, b = at[c.lo], at[c.hi]
        runs = _runs(x[a : b + 1], top[2 * a : 2 * b + 1], lambda t: t == c.level)
        return [(lo, hi) for bare, (lo, hi, _, _) in runs if bare]

    @cached_property
    def top_atom(self) -> dict[tuple[str, Fraction], int]:
        """The highest atom level at each (interval, position) holding one."""
        out: dict[tuple[str, Fraction], int] = {}
        for c in itertools.chain.from_iterable(self.by_level.values()):
            if isinstance(c, Atom):
                spot = (c.interval, c.position)
                out[spot] = max(out.get(spot, c.level), c.level)
        return out


def _index_of(mu: FHMeasure) -> _LevelIndex:
    if mu._index is None:
        object.__setattr__(mu, "_index", _LevelIndex(mu))
    return mu._index


def _level_mass(mu: FHMeasure, k: int, region: Region) -> XRat:
    """Total level-k mass of the region: atom masses plus rate x length."""
    out = XRat(0)
    for c in _index_of(mu).by_level.get(k, ()):
        if isinstance(c, Atom):
            if region.contains(c.interval, c.position):
                out = out + c.mass
        else:
            overlap = _overlap(region._pieces(c.interval), c.lo, c.hi)
            if overlap > 0:
                out = out + c.rate * overlap
    return out


def evaluate(mu: FHMeasure, region: Region) -> LevelValue:
    """Measure of the region: its highest level with positive mass, paired
    with that mass; ZERO when nothing meets the region."""
    if region.domain != mu.domain:
        raise ValueError("region is not on this measure's domain")
    for k in reversed(mu.levels()):
        m = _level_mass(mu, k, region)
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
    return _index_of(mu).support(k)


def nu_hat(mu: FHMeasure, k: int, region: Region) -> XRat:
    """Level-k mass of the part of the region in support(k) and clear of
    support(k+1) — the level-k slice used by the recovery formula."""
    return _level_mass(mu, k, region.intersect(_index_of(mu).stratum(k)))


def recover(mu: FHMeasure) -> FHMeasure:
    """The measure rebuilt from the per-level slices.

    Each level-k component is restricted to the part of its carrier clear
    of support(k+1): atoms inside the higher support are dropped, densities
    are clipped to what survives (up to endpoints, which carry no density
    mass).  For gradable measures this evaluates identically to mu.
    """
    index = _index_of(mu)
    comps: list[Component] = []
    for k in index.levels:
        for c in index.by_level[k]:
            if isinstance(c, Atom):
                if index.peak(c) == k:
                    comps.append(c)
            else:
                for lo, hi in index.clear(c):
                    comps.append(Density(c.interval, lo, hi, k, c.rate))
    return FHMeasure(mu.domain, comps, mu.height_bound)


def recover_check(
    mu: FHMeasure,
    regions: Optional[Iterable[Region]] = None,
    slice_mass: Optional[Callable[[int, Region], XRat]] = None,
) -> bool:
    """Verify the recovery formula on a family of test regions.

    For each region E the formula reads: with m_k the level-k slice mass of
    E minus support(k+1), the measure is (j, m_j) for the largest j with
    m_j > 0, and ZERO if there is none.  `slice_mass` defaults to nu_hat
    and exists so tests can inject a corrupted slice table.
    """
    if regions is None:
        regions = grid_sets(mu)
    if slice_mass is None:
        slice_mass = lambda k, region: nu_hat(mu, k, region)
    index = _index_of(mu)
    for region in regions:
        best: LevelValue = ZERO
        for k in index.levels:
            m = slice_mass(k, region.intersect(index.outside(k + 1)))
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
    index = _index_of(mu)
    for c in mu.components:
        if (
            isinstance(c, Atom)
            and index.top_atom[(c.interval, c.position)] == c.level
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
    index = _index_of(mu)
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
    for iid, (grid, _, _) in _index_of(mu).sweep.items():
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
