"""Tests for the interval-region algebra and finite-height measures."""

import contextlib
import copy
import dataclasses
import io
import itertools
import json
import pickle
from bisect import bisect_left
from fractions import Fraction
from functools import cached_property
from math import gcd
from random import Random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from helpers import random_components, random_domain, random_measure, random_open_graded
from levelring.cli import main
from levelring import jsonio, measures
from levelring.measures import (
    Atom,
    Density,
    Domain,
    FHMeasure,
    Region,
    align,
    evaluate,
    grid_sets,
    interval,
    is_locally_finite,
    is_open_graded,
    nu_hat,
    nu_k,
    points,
    recover,
    recover_check,
    support,
)
from levelring.values import XRat, ZERO, _cmp, pair

DOM = Domain([("I", 1), ("J", 2)])


# the oracle tests run at least 500 examples, and more under a profile
# that asks for more (``--hypothesis-profile=ci``)
at_least_500 = settings(max_examples=max(500, settings.default.max_examples))


# ---------------------------------------------------------------------------
# region strategies: small rational endpoints with random open/closed ends

coords = st.sampled_from([Fraction(n, 4) for n in range(5)])


def _span(iid):
    return st.tuples(coords, coords, st.booleans(), st.booleans()).map(
        lambda t: (iid, min(t[0], t[1]), max(t[0], t[1]), t[2], t[3])
    )


regions = st.lists(
    st.one_of(_span("I"), _span("J")), max_size=4
).map(lambda spans: Region.of(DOM, spans))


# ---------------------------------------------------------------------------
# oracles: the piece algebra regions used before they kept cuts, the
# all-pairs intersection and the per-call support, as they were before
# regions were merged linearly and measures kept a level index, and the
# measure functions rebuilt on them
#
# A piece is (lo, hi, closed_lo, closed_hi): lo < hi, or lo == hi with both
# ends closed (an isolated point).  A normalized piece list is sorted,
# disjoint and not touching.

def pieces_of(region, iid):
    """The normalized pieces of one interval of a region, read off its
    cuts."""
    cuts = region._cuts(iid)
    return tuple((lo, hi, side_lo == 0, side_hi == 1) for (lo, side_lo), (hi, side_hi) in zip(cuts[::2], cuts[1::2]))


def region_of_pieces(domain, by_id):
    """The region whose parts are the given normalized pieces, written as
    cuts directly, so that it compares equal only to a canonical region."""
    parts = []
    for i in domain.ids:
        cuts = tuple(c for lo, hi, cl, cr in by_id.get(i, ()) for c in ((lo, int(not cl)), (hi, int(cr))))
        if cuts:
            parts.append((i, cuts))
    return Region(domain, tuple(parts))


def _piece_contains(p, x):
    lo, hi, cl, cr = p
    if x < lo or x > hi:
        return False
    if x == lo and not cl:
        return False
    if x == hi and not cr:
        return False
    return True


def _touches(p, q):
    """Whether two start-sorted pieces p <= q overlap or abut with no gap."""
    if q[0] < p[1]:
        return True
    if q[0] == p[1]:
        return p[3] or q[2]
    return False


def _complement(pieces, length):
    """Complement of a normalized piece list within [0, length]."""
    out = []
    pos, incl = Fraction(0), True
    for lo, hi, cl, cr in pieces:
        gap_hi_closed = not cl
        if pos < lo or (pos == lo and incl and gap_hi_closed):
            out.append((pos, lo, incl, gap_hi_closed))
        pos, incl = hi, not cr
    if pos < length or (pos == length and incl):
        out.append((pos, length, incl, True))
    return tuple(out)


def oracle_piece_intersect(p, q):
    lo = max(p[0], q[0])
    hi = min(p[1], q[1])
    if lo > hi:
        return None
    cl = _piece_contains(p, lo) and _piece_contains(q, lo)
    cr = _piece_contains(p, hi) and _piece_contains(q, hi)
    if lo == hi:
        return (lo, hi, True, True) if cl and cr else None
    return (lo, hi, cl, cr)


def oracle_intersect(a, b):
    return region_of_pieces(
        a.domain,
        {
            i: oracle_norm(
                r
                for p in pieces_of(a, i)
                for q in pieces_of(b, i)
                if (r := oracle_piece_intersect(p, q)) is not None
            )
            for i in a.domain.ids
        },
    )


def oracle_norm(pieces):
    """Sorted, disjoint, not touching pieces of the same set: each merge
    picks its ends by explicit three-way comparison, and since a merge can
    close an open end, it keeps folding backwards."""
    out = []
    for p in sorted(pieces, key=lambda p: (p[0], p[1])):
        if p[0] == p[1] and not (p[2] and p[3]):
            continue
        while out and _touches(out[-1], p):
            a = out.pop()
            lo, cl = (a[0], a[2]) if a[0] < p[0] else (p[0], p[2]) if p[0] < a[0] else (a[0], a[2] or p[2])
            hi, cr = (a[1], a[3]) if a[1] > p[1] else (p[1], p[3]) if p[1] > a[1] else (a[1], a[3] or p[3])
            p = (lo, hi, cl, cr)
        out.append(p)
    return tuple(out)


def oracle_complement(a):
    return region_of_pieces(
        a.domain, {i: oracle_norm(_complement(pieces_of(a, i), length)) for i, length in a.domain.intervals}
    )


def oracle_union(a, b):
    return region_of_pieces(a.domain, {i: oracle_norm(pieces_of(a, i) + pieces_of(b, i)) for i in a.domain.ids})


def oracle_closure(a):
    return region_of_pieces(
        a.domain, {i: oracle_norm((lo, hi, True, True) for lo, hi, _, _ in pieces_of(a, i)) for i in a.domain.ids}
    )


def oracle_minus(a, b):
    return oracle_intersect(a, oracle_complement(b))


def oracle_contains(a, iid, x):
    return any(_piece_contains(p, x) for p in pieces_of(a, iid))


def oracle_support(mu, k):
    spans = [
        (c.interval, c.lo, c.hi, True, True)
        for c in mu.components
        if isinstance(c, Density) and c.level >= k
    ]
    pts = [(c.interval, c.position) for c in mu.components if isinstance(c, Atom) and c.level >= k]
    return Region.of(mu.domain, spans, pts)


def oracle_level_mass(mu, k, region):
    out = XRat(0)
    for c in mu.components:
        if c.level != k:
            continue
        if isinstance(c, Atom):
            if oracle_contains(region, c.interval, c.position):
                out = out + c.mass
        else:
            carrier = interval(mu.domain, c.interval, c.lo, c.hi)
            overlap = oracle_intersect(region, carrier).length()
            if overlap > 0:
                out = out + c.rate * overlap
    return out


def oracle_evaluate(mu, region):
    for k in sorted({c.level for c in mu.components}, reverse=True):
        m = oracle_level_mass(mu, k, region)
        if m:
            return pair(k, m)
    return ZERO


def oracle_nu_hat(mu, k, region):
    stratum = oracle_minus(oracle_support(mu, k), oracle_support(mu, k + 1))
    return oracle_level_mass(mu, k, oracle_intersect(region, stratum))


def oracle_recover(mu):
    comps = []
    for k in sorted({c.level for c in mu.components}):
        higher = oracle_support(mu, k + 1)
        for c in mu.components:
            if c.level != k:
                continue
            if isinstance(c, Atom):
                if not oracle_contains(higher, c.interval, c.position):
                    comps.append(c)
            else:
                kept = oracle_minus(interval(mu.domain, c.interval, c.lo, c.hi), higher)
                for lo, hi, _, _ in pieces_of(kept, c.interval):
                    if lo < hi:
                        comps.append(Density(c.interval, lo, hi, k, c.rate))
    return FHMeasure(mu.domain, comps, mu.height_bound)


def oracle_is_open_graded(mu):
    for c in mu.components:
        if not isinstance(c, Atom):
            continue
        if not oracle_contains(oracle_support(mu, c.level + 1), c.interval, c.position):
            continue
        stacked = any(
            isinstance(d, Atom)
            and d.level > c.level
            and d.interval == c.interval
            and d.position == c.position
            for d in mu.components
        )
        if not stacked:
            return False
    return True


def oracle_is_locally_finite(mu):
    for c in mu.components:
        higher = oracle_support(mu, c.level + 1)
        if isinstance(c, Atom):
            if c.mass.is_infinite and not oracle_contains(higher, c.interval, c.position):
                return False
        elif c.rate.is_infinite:
            carrier = interval(mu.domain, c.interval, c.lo, c.hi)
            if oracle_intersect(carrier, higher).is_empty:
                return False
    return True


class OracleLevelIndex:
    """The level index as it was before the slot sweep: each occupied
    level's support joined to the one above it with Region.union, top
    down, and the complements taken by region algebra."""

    def __init__(self, mu):
        self.domain = mu.domain
        self.levels = sorted({c.level for c in mu.components})
        self.supports = []
        above = Region.empty(mu.domain)
        for k in reversed(self.levels):
            comps = [c for c in mu.components if c.level == k]
            above = above.union(
                Region.of(
                    mu.domain,
                    [(c.interval, c.lo, c.hi, True, True) for c in comps if isinstance(c, Density)],
                    [(c.interval, c.position) for c in comps if isinstance(c, Atom)],
                )
            )
            self.supports.append(above)
        self.supports.reverse()

    def support(self, k):
        i = bisect_left(self.levels, k)
        return self.supports[i] if i < len(self.levels) else Region.empty(self.domain)

    def outside(self, k):
        return self.support(k).complement()


def oracle_grid_sets(mu, midpoints=True):
    """grid_sets as it was before it read its marks from the level index:
    each interval's marks gathered by scanning every component."""
    out = [Region.empty(mu.domain), Region.whole(mu.domain)]
    for iid, length in mu.domain.intervals:
        marks = {Fraction(0), length}
        for c in mu.components:
            if c.interval == iid:
                marks.update((c.position,) if isinstance(c, Atom) else (c.lo, c.hi))
        grid = sorted(marks)
        if midpoints:
            grid = sorted(set(grid) | {(a + b) / 2 for a, b in zip(grid, grid[1:])})
        out += [points(mu.domain, (iid, x)) for x in grid]
        for a, b in itertools.combinations(grid, 2):
            for cl, cr in ((True, True), (False, False), (True, False), (False, True)):
                out.append(interval(mu.domain, iid, a, b, cl, cr))
    return out


# regions on three intervals mixing points, open, half-open and closed
# pieces on a coarse grid, so that pieces often abut or share an end
TRIO = Domain([("I", 1), ("J", 2), ("K", Fraction(1, 3))])


def _trio_span(iid, length):
    return st.tuples(
        st.integers(0, 6), st.integers(0, 6), st.booleans(), st.booleans()
    ).map(lambda t: (iid, length * min(t[:2]) / 6, length * max(t[:2]) / 6, t[2], t[3]))


trio_regions = st.tuples(
    st.lists(st.one_of(*[_trio_span(i, l) for i, l in TRIO.intervals]), max_size=8),
    st.lists(
        st.tuples(st.sampled_from(TRIO.intervals), st.integers(0, 6)).map(
            lambda t: (t[0][0], t[0][1] * t[1] / 6)
        ),
        max_size=3,
    ),
).map(lambda t: Region.of(TRIO, *t))


# ---------------------------------------------------------------------------
# region algebra

def test_region_basics():
    a = interval(DOM, "I", 0, Fraction(1, 2), True, False)
    b = interval(DOM, "I", Fraction(1, 2), 1, False, True)
    u = a.union(b)
    assert u.length() == 1
    assert u.complement() == points(DOM, ("I", Fraction(1, 2))).union(
        interval(DOM, "J", 0, 2)
    )
    assert u.closure() == interval(DOM, "I", 0, 1)
    assert a.is_open() and u.is_open()
    assert not u.is_closed()
    assert interval(DOM, "I", 0, 1).is_open()  # a whole component is clopen
    assert a.intersect(b).is_empty
    assert u.contains("I", Fraction(1, 4))
    assert not u.contains("I", Fraction(1, 2))


def test_region_str_pins_every_shape():
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    cases = [
        (Region.empty(DOM), "∅"),
        (points(DOM, ("I", half)), "I:{1/2}"),
        (interval(DOM, "I", 0, 1), "I:[0,1]"),
        (interval(DOM, "I", quarter, 3 * quarter, False, False), "I:(1/4,3/4)"),
        (interval(DOM, "I", 0, half, True, False), "I:[0,1/2)"),
        (interval(DOM, "J", half, 2, False, True), "J:(1/2,2]"),
        (
            Region.of(
                DOM,
                [("I", 0, quarter, True, False), ("J", half, 3 * half, False, True)],
                [("I", half), ("J", 2)],
            ),
            "I:[0,1/4) ∪ I:{1/2} ∪ J:(1/2,3/2] ∪ J:{2}",
        ),
    ]
    for region, text in cases:
        assert str(region) == text


def test_region_rejects_bad_spans():
    with pytest.raises(ValueError):
        interval(DOM, "I", Fraction(3, 4), Fraction(1, 4))
    with pytest.raises(ValueError):
        interval(DOM, "I", 0, 2)  # beyond the interval's length
    with pytest.raises(KeyError):
        interval(DOM, "K", 0, 1)


def test_degenerate_spans():
    assert interval(DOM, "I", Fraction(1, 2), Fraction(1, 2)) == points(
        DOM, ("I", Fraction(1, 2))
    )
    assert interval(DOM, "I", Fraction(1, 2), Fraction(1, 2), True, False).is_empty


def test_adjacent_pieces_merge():
    u = interval(DOM, "I", 0, Fraction(1, 2)).union(
        interval(DOM, "I", Fraction(1, 2), 1, False, True)
    )
    assert u == interval(DOM, "I", 0, 1)


@given(regions)
def test_double_complement(a):
    assert a.complement().complement() == a


@given(regions, regions)
def test_de_morgan(a, b):
    assert a.union(b).complement() == a.complement().intersect(b.complement())
    assert a.intersect(b).complement() == a.complement().union(b.complement())


def test_union_merges_across_closed_point():
    # Regression: merging a closed endpoint into a half-open piece must
    # cascade — {1/4} complement unioned with (0, 1/4) complement once
    # left [0, 1/4) and [1/4, 2] sitting side by side unmerged.
    a = Region.of(DOM, [("J", Fraction(1, 4), Fraction(1, 4), True, True)])
    b = Region.of(DOM, [("J", 0, Fraction(1, 4), False, False)])
    merged = a.complement().union(b.complement())
    assert merged == Region.whole(DOM)
    assert a.intersect(b).complement() == merged


@given(regions, regions)
def test_length_is_modular(a, b):
    assert a.length() + b.length() == a.union(b).length() + a.intersect(b).length()


@given(regions, regions)
def test_difference_partitions(a, b):
    assert a.minus(b).union(a.intersect(b)) == a
    assert a.minus(b).intersect(b).is_empty


@given(regions)
def test_closure_is_idempotent_and_grows(a):
    c = a.closure()
    assert c.closure() == c
    assert a.minus(c).is_empty
    assert c.is_closed()
    assert c.length() == a.length()


@given(regions)
def test_open_iff_complement_closed(a):
    assert a.is_open() == a.complement().is_closed()


@given(regions, regions)
def test_contains_tracks_set_ops(a, b):
    for iid, x in [("I", Fraction(1, 4)), ("J", Fraction(3, 4))]:
        assert a.union(b).contains(iid, x) == (a.contains(iid, x) or b.contains(iid, x))
        assert a.intersect(b).contains(iid, x) == (
            a.contains(iid, x) and b.contains(iid, x)
        )
        assert a.complement().contains(iid, x) == (not a.contains(iid, x))


@at_least_500
@given(trio_regions, trio_regions)
def test_region_ops_agree_with_the_all_pairs_oracle(a, b):
    assert a.intersect(b) == oracle_intersect(a, b)
    assert a.minus(b) == oracle_minus(a, b)
    assert a.complement() == oracle_complement(a)
    assert a.union(b) == oracle_union(a, b)
    assert a.closure() == oracle_closure(a)
    for iid, length in TRIO.intervals:
        for n in range(13):
            x = length * n / 12
            assert a.contains(iid, x) == oracle_contains(a, iid, x)


raw_pieces = st.lists(
    st.tuples(coords, coords, st.booleans(), st.booleans()).map(
        lambda t: (min(t[0], t[1]), max(t[0], t[1]), t[2], t[3])
    ),
    max_size=6,
)


@at_least_500
@given(raw_pieces)
def test_norm_agrees_with_the_three_way_oracle(pieces):
    """Region.of folds its spans into the same canonical set."""
    assert Region.of(UNIT, [("I", *p) for p in pieces]) == region_of_pieces(UNIT, {"I": oracle_norm(pieces)})


# Raw spans on a 1/8 grid of DOM, as (interval, lo, hi, closed_lo,
# closed_hi) in eighths; lo == hi makes a point or an empty span.  Sample
# points are in sixteenths: an even one is a grid point, an odd one the
# midpoint of a grid cell.
def _raw_span(iid, length):
    return st.tuples(st.integers(0, 8 * length), st.integers(0, 8 * length), st.booleans(), st.booleans()).map(
        lambda t: (iid, min(t[:2]), max(t[:2]), t[2], t[3])
    )


raw_spans = st.lists(st.one_of(*[_raw_span(i, int(l)) for i, l in DOM.intervals]), max_size=6)
SAMPLES = [(i, x) for i, l in DOM.intervals for x in range(16 * int(l) + 1)]
# each grid point's adjacent midpoints inside its interval
BESIDE = {
    (i, x): [(i, y) for y in (x - 1, x + 1) if 0 <= y <= 16 * DOM.length_of(i)] for i, x in SAMPLES if x % 2 == 0
}


def _in_raw(spans, iid, x):
    return any(
        i == iid and (2 * lo < x or (2 * lo == x and cl)) and (x < 2 * hi or (x == 2 * hi and cr))
        for i, lo, hi, cl, cr in spans
    )


@at_least_500
@given(raw_spans, raw_spans)
def test_membership_matches_raw_spans(a_spans, b_spans):
    """Each result is judged by membership alone, which the samples fix
    for a set whose ends lie on the grid.  Its closure adds the grid points
    beside a member midpoint; it is closed when that adds none and open
    when every member grid point has only members beside it; its length
    is 1/8 per member midpoint."""
    a, b = (
        Region.of(DOM, [(i, Fraction(lo, 8), Fraction(hi, 8), cl, cr) for i, lo, hi, cl, cr in spans])
        for spans in (a_spans, b_spans)
    )
    in_a = {spot: _in_raw(a_spans, *spot) for spot in SAMPLES}
    in_b = {spot: _in_raw(b_spans, *spot) for spot in SAMPLES}
    cases = [
        (a, in_a),
        (a.union(b), {s: in_a[s] or in_b[s] for s in SAMPLES}),
        (a.intersect(b), {s: in_a[s] and in_b[s] for s in SAMPLES}),
        (a.minus(b), {s: in_a[s] and not in_b[s] for s in SAMPLES}),
        (a.complement(), {s: not in_a[s] for s in SAMPLES}),
    ]
    for region, member in cases:
        closure = dict(member)
        for spot, sides in BESIDE.items():
            closure[spot] = member[spot] or any(member[y] for y in sides)
        for spot in SAMPLES:
            i, x = spot
            assert region.contains(i, Fraction(x, 16)) == member[spot]
            assert region.closure().contains(i, Fraction(x, 16)) == closure[spot]
        assert region.is_closed() == (closure == member)
        assert region.is_open() == all(all(member[y] for y in sides) for s, sides in BESIDE.items() if member[s])
        assert region.length() == Fraction(sum(member[s] for s in SAMPLES if s[1] % 2), 8)


def test_region_echoes_are_bounded():
    huge = Fraction(10**4000, 3)
    for bad in (
        lambda: interval(DOM, "I", huge, 0),
        lambda: interval(DOM, "I", 0, huge),
        lambda: points(DOM, ("I", huge)),
        lambda: interval(DOM, "K" * 60000, 0, 1),
        lambda: FHMeasure(UNIT, [Atom("I", huge, 0, 1)]),
        lambda: FHMeasure(UNIT, [Density("I", 0, huge, 0, 1)]),
        lambda: FHMeasure(UNIT, [Atom("I", 0, 10**4000, 1)]),
        lambda: FHMeasure(UNIT, [Atom("K" * 60000, 0, 0, 1)]),
    ):
        with pytest.raises((ValueError, KeyError)) as caught:
            bad()
        assert len(caught.value.args[0]) < 200


# ---------------------------------------------------------------------------
# evaluation

UNIT = Domain([("I", 1)])
TWO_PIECE = FHMeasure(
    UNIT, [Atom("I", Fraction(1, 2), 1, 1), Density("I", 0, 1, 0, 1)]
)


def test_evaluate_examples():
    whole = interval(UNIT, "I", 0, 1)
    assert evaluate(TWO_PIECE, whole) == pair(1, 1)
    assert evaluate(TWO_PIECE, interval(UNIT, "I", 0, Fraction(1, 4))) == pair(
        0, Fraction(1, 4)
    )
    flagged = FHMeasure(UNIT, [Density("I", 0, 1, 0, "inf")])
    assert evaluate(flagged, interval(UNIT, "I", Fraction(1, 4), Fraction(1, 2))) == pair(
        0, "inf"
    )
    assert evaluate(TWO_PIECE, Region.empty(UNIT)) == ZERO


def test_evaluate_ignores_zero_length_density_overlap():
    flagged = FHMeasure(UNIT, [Density("I", 0, Fraction(1, 2), 0, "inf")])
    assert evaluate(flagged, points(UNIT, ("I", Fraction(1, 4)))) == ZERO


def test_nu_k_three_cases():
    whole = interval(UNIT, "I", 0, 1)
    assert nu_k(TWO_PIECE, 0, whole) == XRat("inf")
    assert nu_k(TWO_PIECE, 1, whole) == XRat(1)
    assert nu_k(TWO_PIECE, 2, whole) == XRat(0)
    assert nu_k(TWO_PIECE, 0, Region.empty(UNIT)) == XRat(0)


def test_support_examples():
    assert support(TWO_PIECE, 0) == interval(UNIT, "I", 0, 1)
    assert support(TWO_PIECE, 1) == points(UNIT, ("I", Fraction(1, 2)))
    assert support(TWO_PIECE, 2).is_empty
    lone = FHMeasure(UNIT, [Atom("I", Fraction(1, 2), 2, 1)])
    assert support(lone, 2) == points(UNIT, ("I", Fraction(1, 2)))
    assert support(lone, 3).is_empty


def test_nu_hat_examples():
    whole = interval(UNIT, "I", 0, 1)
    assert nu_hat(TWO_PIECE, 0, whole) == XRat(1)
    assert nu_hat(TWO_PIECE, 1, whole) == XRat(1)
    assert nu_hat(TWO_PIECE, 2, whole) == XRat(0)


def test_recovery_round_trip_examples():
    assert recover_check(TWO_PIECE)
    assert recover_check(FHMeasure(UNIT, [Density("I", 0, 1, 0, 3)]))
    assert recover_check(FHMeasure(UNIT, []))


def test_corrupted_slice_table_is_detected(monkeypatch):
    whole = interval(UNIT, "I", 0, 1)

    def corrupted(mu, k, region):
        honest = nu_hat(mu, k, region)
        if k == 1 and region == whole:  # one edited mass in the slice table
            return honest + XRat(1)
        return honest

    assert recover_check(TWO_PIECE)
    monkeypatch.setattr(measures, "nu_hat", corrupted)
    assert not recover_check(TWO_PIECE)


def test_open_gradedness():
    assert is_open_graded(TWO_PIECE)
    assert is_open_graded(FHMeasure(UNIT, []))
    stacked = FHMeasure(
        UNIT,
        [Density("I", 0, Fraction(1, 2), 1, 1), Density("I", Fraction(1, 2), 1, 0, 1)],
    )
    assert is_open_graded(stacked)
    assert support(stacked, 1).complement().is_open()
    buried = FHMeasure(
        UNIT, [Atom("I", Fraction(1, 4), 0, 1), Density("I", 0, 1, 1, 1)]
    )
    assert not is_open_graded(buried)
    assert not recover_check(buried)
    # a lower atom under a higher atom at its point is shadowed, unless a
    # still higher level covers the point
    quarter = Fraction(1, 4)
    atoms = [Atom("I", quarter, 0, 1), Atom("I", quarter, 1, 1)]
    for over, graded in ([], True), ([Density("I", 0, 1, 2, 1)], False), ([Density("I", 0, 1, 1, 1)], True):
        mu = FHMeasure(UNIT, atoms + over)
        assert is_open_graded(mu) == recover_check(mu) == graded


def test_local_finiteness():
    assert is_locally_finite(TWO_PIECE)
    lone_flag = FHMeasure(UNIT, [Density("I", 0, 1, 0, "inf")])
    assert not is_locally_finite(lone_flag)
    near_higher = FHMeasure(
        UNIT,
        [Density("I", 0, Fraction(1, 2), 0, "inf"), Atom("I", Fraction(1, 2), 1, 1)],
    )
    assert is_locally_finite(near_higher)
    lone_heavy_atom = FHMeasure(UNIT, [Atom("I", Fraction(1, 2), 0, "inf")])
    assert not is_locally_finite(lone_heavy_atom)


def test_align_examples():
    gapped = FHMeasure(
        UNIT, [Atom("I", Fraction(1, 2), 2, 1), Density("I", 0, 1, 0, 1)]
    )
    assert align(gapped).levels() == (0, 1)
    assert align(FHMeasure(UNIT, [Atom("I", 0, 1, 1)])).levels() == (0,)
    assert align(TWO_PIECE) is TWO_PIECE
    assert align(align(gapped)) == align(gapped)


def test_component_guards():
    with pytest.raises(ValueError):
        Atom("I", 0, -1, 1)
    with pytest.raises(ValueError):
        Atom("I", 0, 0, 0)
    with pytest.raises(ValueError):
        Density("I", Fraction(1, 2), Fraction(1, 2), 0, 1)
    with pytest.raises(ValueError):
        FHMeasure(UNIT, [Atom("I", 2, 0, 1)])  # position beyond length
    with pytest.raises(ValueError):
        FHMeasure(UNIT, [Atom("I", 0, 99, 1)])  # level beyond height bound
    # levels and the height bound are exactly ints, never truncated or parsed
    for build in (
        lambda: Atom("I", 0, 2.5, 1),
        lambda: Atom("I", 0, True, 1),
        lambda: Density("I", 0, 1, "3", 1),
        lambda: FHMeasure(UNIT, [], 2.5),
    ):
        with pytest.raises(TypeError, match="must be an int"):
            build()


# one part in 10**12 past an interval's end: a check that rounded would let it through
PAST = Fraction(10**12 + 1, 10**12)


def test_range_checks_at_the_ends():
    seven_thirds = Fraction(7, 3)
    dom = Domain([("I", 1), ("K", seven_thirds)])
    whole = Region.whole(dom)
    kept = [Atom("I", 0, 0, 1), Atom("I", 1, 0, 1), Atom("K", seven_thirds, 0, 1), Density("K", 0, seven_thirds, 1, 3)]
    assert evaluate(FHMeasure(dom, kept), whole) == pair(1, 7)
    refusals = [
        (Atom("I", PAST, 0, 1), "atom position '1000000000001/1000000000000' outside interval"),
        (Atom("I", Fraction(-1, 2), 0, 1), "atom position '-1/2' outside interval"),
        (Atom("K", seven_thirds + Fraction(1, 10**12), 0, 1), "atom position '7000000000003/3000000000000' outside interval"),
        (Density("I", 0, PAST, 0, 1), "density ['0', '1000000000001/1000000000000'] outside interval"),
        (Density("I", Fraction(-1, 10**12), 1, 0, 1), "density ['-1/1000000000000', '1'] outside interval"),
    ]
    for comp, text in refusals:
        with pytest.raises(ValueError) as err:
            FHMeasure(dom, kept + [comp])
        assert err.value.args == (text,)


# ---------------------------------------------------------------------------
# randomized battery

def test_random_open_graded_battery():
    rng = Random(20240816)
    for _ in range(60):
        mu = random_open_graded(rng)
        assert is_open_graded(mu)
        sets = grid_sets(mu, midpoints=False)
        assert recover_check(mu, regions=sets)
        rebuilt = recover(mu)
        for region in sets:
            assert evaluate(rebuilt, region) == evaluate(mu, region)
        # nested closed supports
        top = mu.height if mu.height is not None else 0
        for k in range(top + 2):
            sk, sk1 = support(mu, k), support(mu, k + 1)
            assert sk1.minus(sk).is_empty
            assert sk.is_closed()
        assert align(align(mu)) == align(mu)
        assert align(mu).levels() == tuple(range(len(mu.levels())))


def test_random_additivity():
    rng = Random(77)
    for _ in range(40):
        mu = random_open_graded(rng)
        sets = grid_sets(mu, midpoints=False)
        assert evaluate(mu, Region.empty(mu.domain)) == ZERO
        pairs_checked = 0
        for a, b in itertools.combinations(sets, 2):
            if not a.intersect(b).is_empty:
                continue
            assert evaluate(mu, a.union(b)) == evaluate(mu, a) + evaluate(mu, b)
            pairs_checked += 1
            if pairs_checked >= 25:
                break


def test_gradedness_is_exactly_recoverability():
    rng = Random(99)
    broken = 0
    for _ in range(200):
        mu = random_measure(rng)
        graded = is_open_graded(mu)
        assert recover_check(mu, regions=grid_sets(mu, midpoints=False)) == graded
        broken += not graded
    assert broken > 5  # the unrepaired generator does produce buried atoms


def test_grid_sets_agree_with_the_component_scan_oracle():
    rng = Random(31)
    for n in range(60):
        mu = random_measure(rng)
        assert grid_sets(mu, midpoints=n % 2 == 0) == oracle_grid_sets(mu, midpoints=n % 2 == 0)


def test_atom_stacked_under_higher_atom_is_invisible_but_safe():
    p = Fraction(1, 2)
    stacked = FHMeasure(UNIT, [Atom("I", p, 0, 7), Atom("I", p, 1, 2)])
    assert is_open_graded(stacked)
    assert recover_check(stacked)
    # the lower atom never surfaces: deleting it changes no evaluation
    thinned = FHMeasure(UNIT, [Atom("I", p, 1, 2)])
    for region in grid_sets(stacked):
        assert evaluate(stacked, region) == evaluate(thinned, region)


# ---------------------------------------------------------------------------
# the level index against the oracles


def _lumped_measure(rng):
    """Several random component draws on one domain: up to 20 components,
    often stacked or abutting."""
    dom = random_domain(rng)
    comps = [c for _ in range(4) for c in random_components(rng, dom, 3, True)]
    return FHMeasure(dom, comps)


def _assert_index_agrees(mu):
    """The slot sweep against the union-built index and the per-call
    oracles, at every level from -1 to two above the top; returns the
    (open-graded, locally-finite) verdicts."""
    index, old, rebuilt = mu._index, OracleLevelIndex(mu), oracle_recover(mu)
    top = mu.height if mu.height is not None else 0
    for k in range(-1, top + 3):
        assert support(mu, k) == old.support(k) == oracle_support(mu, k)
        assert index.support(k).complement() == old.outside(k)
        assert index.slices.get(k, []) == [c for c in rebuilt.components if c.level == k]
    assert tuple(index.slices) == index.levels
    assert recover(mu) == rebuilt
    graded, finite = is_open_graded(mu), is_locally_finite(mu)
    assert graded == oracle_is_open_graded(mu)
    assert finite == oracle_is_locally_finite(mu)
    return graded, finite


def test_level_index_agrees_with_the_oracle_supports():
    rng = Random(6)
    makers = (random_measure, random_open_graded, _lumped_measure)
    seen = set()
    for n in range(90):
        maker = makers[n % 3]
        mu = maker(rng) if maker is _lumped_measure else maker(rng, max_level=3)
        seen.add(_assert_index_agrees(mu))
        top = mu.height if mu.height is not None else 0
        sets = grid_sets(mu, midpoints=False)
        for region in rng.sample(sets, min(len(sets), 30)):
            assert evaluate(mu, region) == oracle_evaluate(mu, region)
            for k in range(-1, top + 3):
                assert nu_hat(mu, k, region) == oracle_nu_hat(mu, k, region)
    assert len(seen) == 4  # every verdict pair is exercised


def _dense_measure(rng):
    """40-200 components on 1-3 intervals, all ends on a 1/8 grid so they
    often coincide: abutting densities, atoms on density ends, atoms
    stacked on one spot, same-level overlaps and infinite weights.  The
    domain's last interval carries no component."""
    lengths = [Fraction(rng.randint(1, 3), rng.choice((1, 2))) for _ in range(rng.randint(1, 3))]
    dom = Domain([(f"I{i}", l) for i, l in enumerate(lengths)] + [("E", 1)])
    top = rng.randint(1, 6)
    comps = []
    for _ in range(rng.randint(40, 200)):
        i = rng.randrange(len(lengths))
        iid, step = f"I{i}", lengths[i] / 8
        level = rng.randint(0, top)
        weight = XRat("inf") if rng.random() < 0.05 else XRat(Fraction(rng.randint(1, 9), rng.randint(1, 3)))
        ours = [c for c in comps if c.interval == iid]
        kind = rng.random()
        if kind < 0.4:
            a, b = sorted(rng.sample(range(9), 2))
            comps.append(Density(iid, a * step, b * step, level, weight))
        elif kind < 0.55 and ours:
            # abut a density already there, on either side
            d = rng.choice([c for c in ours if isinstance(c, Density)] or [None])
            if d is not None and d.hi < lengths[i]:
                comps.append(Density(iid, d.hi, lengths[i], level, weight))
            elif d is not None and d.lo > 0:
                comps.append(Density(iid, 0, d.lo, level, weight))
        elif kind < 0.7 and ours:
            # an atom on a density end, or stacked on another atom
            c = rng.choice(ours)
            spot = c.position if isinstance(c, Atom) else rng.choice((c.lo, c.hi))
            comps.append(Atom(iid, spot, level, weight))
        else:
            comps.append(Atom(iid, rng.randint(0, 8) * step, level, weight))
    return FHMeasure(dom, comps)


def test_level_index_agrees_with_the_oracle_on_dense_ends():
    rng = Random(7)
    seen = set()
    for _ in range(40):
        mu = _dense_measure(rng)
        assert 40 <= len(mu.components) <= 200
        seen.add(_assert_index_agrees(mu))
        assert support(mu, 0)._cuts("E") == ()
        assert mu._index.support(0).complement()._cuts("E") == ((Fraction(0), 0), (Fraction(1), 1))
    assert len(seen) >= 3


def _neighbours(q, q2):
    """The two fractions in (0, 1) with denominators q and q2 (coprime)
    that differ by exactly 1/(q*q2), lower first."""
    a = pow(q2, -1, q)  # a*q2 - b*q == 1
    return Fraction((a * q2 - 1) // q, q2), Fraction(a, q)


def test_sweep_sorts_marks_exactly():
    # neighbours 1/(q*q2) apart with denominators near 10**20 and 10**40,
    # in shuffled order: no float tells them apart, so only an exact order
    # sorts them
    rng = Random(12)
    for big in (10**20, 10**40):
        pairs = []
        while len(pairs) < 30:
            q, q2 = rng.randrange(big, 2 * big), rng.randrange(big, 2 * big)
            if gcd(q, q2) == 1:
                pairs.append(_neighbours(q, q2))
        assert all(lo < hi and hi - lo == Fraction(1, lo.denominator * hi.denominator) for lo, hi in pairs)
        assert any(float(lo) == float(hi) for lo, hi in pairs)
        ends = [x for pair in pairs for x in pair]
        rng.shuffle(ends)
        atoms = [Atom("I", x, i % 3, 1) for i, x in enumerate(ends + ends[:5])]
        dens = [Density("J", *sorted(pair), 1 + i % 2, 2) for i, pair in enumerate(zip(ends[::2], ends[1::2]))]
        mu = FHMeasure(DOM, atoms + dens)
        for iid, comps in (("I", atoms), ("J", dens)):
            x, at, _ = mu._index.sweep[iid]
            marks = {Fraction(0), DOM.length_of(iid)}
            marks.update(e for c in comps for e in ((c.position,) if isinstance(c, Atom) else (c.lo, c.hi)))
            assert x == sorted(marks)
            assert [at[v.as_integer_ratio()] for v in x] == list(range(len(x)))
        whole = Region.whole(DOM)
        assert [nu_hat(mu, k, whole) for k in range(4)] == [oracle_nu_hat(mu, k, whole) for k in range(4)]
        assert recover(mu) == oracle_recover(mu)


# ---------------------------------------------------------------------------
# mixed denominators: 1/8-grid marks beside large ones, against the oracles

def oracle_overlap(region, iid, lo, hi):
    """The length of the region's part of [lo, hi], piece by piece, with
    the ends compared as Fractions."""
    return sum((max(min(b, hi) - max(a, lo), Fraction(0)) for a, b, _, _ in pieces_of(region, iid)), Fraction(0))


def oracle_mass(comps, region):
    """The left fold of XRat additions that _mass ran before it summed per
    denominator, with membership and overlap read off the pieces by
    Fraction comparisons."""
    out = XRat(0)
    for c in comps:
        if isinstance(c, Atom):
            if oracle_contains(region, c.interval, c.position):
                out = out + c.mass
        else:
            overlap = oracle_overlap(region, c.interval, c.lo, c.hi)
            if overlap > 0:
                out = out + c.rate * overlap
    return out


# The measure path as it read positions before components kept their
# reduced pairs: each reader turned a Fraction field into its pair on
# every use.  The new readers must agree with it.

def fraction_span(at, c):
    lo, hi = (c.position, c.position) if isinstance(c, Atom) else (c.lo, c.hi)
    return 2 * at[lo.as_integer_ratio()], 2 * at[hi.as_integer_ratio()]


class FractionIndex(measures._LevelIndex):
    """The level index with the mark keys, slot spans and atom spots read
    off the components' Fraction fields."""

    @cached_property
    def sweep(self):
        comps = {i: [] for i in self.domain.ids}
        for k in reversed(self.levels):
            for c in self.by_level[k]:
                comps[c.interval].append(c)
        out = {}
        for iid, length in self.domain.intervals:
            ends = ((c.position,) if isinstance(c, Atom) else (c.lo, c.hi) for c in comps[iid])
            marks = {v.as_integer_ratio(): v for e in ends for v in e}
            marks[0, 1], marks[length.as_integer_ratio()] = Fraction(0), length
            keys = sorted(marks, key=measures._BY_VALUE)
            at = {key: i for i, key in enumerate(keys)}
            top = [-1] * (2 * len(keys) - 1)
            for c in comps[iid]:
                s, e = fraction_span(at, c)
                for slot in range(s, e + 1):
                    if top[slot] < 0:
                        top[slot] = c.level
            out[iid] = ([marks[key] for key in keys], at, top)
        return out

    def peak(self, c):
        _, at, top = self.sweep[c.interval]
        s, e = fraction_span(at, c)
        return max(top[s : e + 1])

    @cached_property
    def slices(self):
        out = {}
        for k in self.levels:
            cut = out[k] = []
            for c in self.by_level[k]:
                if isinstance(c, Atom):
                    if self.peak(c) == k:
                        cut.append(c)
                    continue
                x, at, top = self.sweep[c.interval]
                s, e = fraction_span(at, c)
                for bare, (lo, _), (hi, _) in measures._runs(x[s // 2 : e // 2 + 1], top[s : e + 1], k.__eq__):
                    if bare:
                        cut.append(Density(c.interval, lo, hi, k, c.rate))
        return out

    @cached_property
    def top_atom(self):
        out = {}
        for c in itertools.chain.from_iterable(self.by_level.values()):
            if isinstance(c, Atom):
                spot = (c.interval, c.position.as_integer_ratio())
                out[spot] = max(out.get(spot, c.level), c.level)
        return out


def fraction_overlap(cuts, lo, hi):
    total = Fraction(0)
    lo_p, hi_p = lo.as_integer_ratio(), hi.as_integer_ratio()
    k = measures._rank(cuts, lo_p, 1) & ~1
    for (a, _), (b, _) in measures._pieces(cuts[k:]):
        a_p = a.as_integer_ratio()
        if _cmp(a_p, hi_p) >= 0:
            break
        total += (b if _cmp(b.as_integer_ratio(), hi_p) < 0 else hi) - (a if _cmp(a_p, lo_p) > 0 else lo)
    return total


def fraction_mass(comps, region):
    sums = {}
    for c in comps:
        if isinstance(c, Atom):
            if not region.contains(c.interval, c.position):
                continue
            weight = c.mass
        else:
            overlap = fraction_overlap(region._cuts(c.interval), c.lo, c.hi)
            if not overlap:
                continue
            weight = c.rate * overlap
        if weight.is_infinite:
            return XRat("inf")
        p, q = weight.as_fraction.as_integer_ratio()
        sums[q] = sums.get(q, 0) + p
    return XRat(sum((Fraction(p, q) for q, p in sums.items()), Fraction(0)))


def fraction_evaluate(index, region):
    for k in reversed(index.levels):
        m = fraction_mass(index.by_level[k], region)
        if m:
            return pair(k, m)
    return ZERO


def fraction_is_open_graded(mu, index):
    return not any(
        isinstance(c, Atom)
        and index.top_atom[c.interval, c.position.as_integer_ratio()] == c.level
        and index.peak(c) > c.level
        for c in mu.components
    )


def fraction_is_locally_finite(mu, index):
    return not any(
        (c.mass if isinstance(c, Atom) else c.rate).is_infinite and index.peak(c) == c.level
        for c in mu.components
    )


BIG = 10**12


@st.composite
def mixed_cases(draw, max_components=12, max_regions=3):
    """Up to max_components components on DOM whose marks mix the 1/8 grid
    with denominators up to BIG, often reusing an earlier mark so
    components meet, and about one weight in 20 infinite; with the whole
    domain and up to max_regions regions built from the marks and the
    midpoints between them."""
    marks = {iid: [Fraction(0), length] for iid, length in DOM.intervals}

    def mark(iid):
        kind = draw(st.integers(0, 2))
        if kind == 0:
            x = draw(st.sampled_from(marks[iid]))
        else:
            q = 8 if kind == 1 else draw(st.integers(BIG // 10, BIG))
            x = DOM.length_of(iid) * Fraction(draw(st.integers(0, q)), q)
        marks[iid].append(x)
        return x

    def weight():
        if draw(st.integers(0, 19)) == 0:
            return XRat("inf")
        q = draw(st.sampled_from([1, 2, 8]) | st.integers(BIG // 10, BIG))
        return XRat(Fraction(draw(st.integers(1, 9 * q)), q))

    comps = []
    for _ in range(draw(st.integers(0, max_components))):
        iid, level = draw(st.sampled_from(DOM.ids)), draw(st.integers(0, 3))
        a, b = sorted((mark(iid), mark(iid)))
        if a == b or draw(st.booleans()):
            comps.append(Atom(iid, a, level, weight()))
        else:
            comps.append(Density(iid, a, b, level, weight()))
    grid = {}
    for iid, xs in marks.items():
        xs = sorted(set(xs))
        grid[iid] = xs + [(a + b) / 2 for a, b in zip(xs, xs[1:])]

    def region():
        spans = []
        for _ in range(draw(st.integers(0, 3))):
            iid = draw(st.sampled_from(DOM.ids))
            a, b = sorted((draw(st.sampled_from(grid[iid])), draw(st.sampled_from(grid[iid]))))
            spans.append((iid, a, b, draw(st.booleans()), draw(st.booleans())))
        pts = [(iid, draw(st.sampled_from(grid[iid]))) for iid in draw(st.lists(st.sampled_from(DOM.ids), max_size=2))]
        return Region.of(DOM, spans, pts)

    regions = [Region.whole(DOM)] + [region() for _ in range(draw(st.integers(0, max_regions)))]
    return FHMeasure(DOM, comps), regions


@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(mixed_cases())
def test_mixed_denominators_agree_with_the_oracles(case):
    """The index and the masses, read by stored pairs, against the
    Fraction-reading index and against the region-algebra oracles."""
    mu, regions = case
    index, old = mu._index, FractionIndex(mu)
    top = mu.height if mu.height is not None else 0
    assert index.sweep == old.sweep
    assert index.slices == old.slices
    assert [index.peak(c) for c in mu.components] == [old.peak(c) for c in mu.components]
    for k in range(-1, top + 2):
        assert index.support(k) == old.support(k)
    for region in regions:
        assert evaluate(mu, region) == fraction_evaluate(old, region) == oracle_evaluate(mu, region)
        for k in range(-1, top + 2):
            slice_mass = fraction_mass(old.slices.get(k, ()), region)
            assert nu_hat(mu, k, region) == slice_mass == oracle_nu_hat(mu, k, region)
        for comps in (mu.components, *index.by_level.values(), *index.slices.values()):
            assert measures._mass(comps, region) == fraction_mass(comps, region) == oracle_mass(comps, region)
    assert is_open_graded(mu) == fraction_is_open_graded(mu, old) == oracle_is_open_graded(mu)
    assert is_locally_finite(mu) == fraction_is_locally_finite(mu, old) == oracle_is_locally_finite(mu)
    assert recover(mu) == oracle_recover(mu)


# one part in BIG**2: a step past an end that a 12-digit denominator sees
STEP = Fraction(1, BIG * BIG)


@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(mixed_cases())
def test_membership_and_overlap_by_pairs_on_mixed_denominators(case):
    """contains, _overlap and _mass compare positions as integer pairs,
    the components' by their stored pairs; the oracles compare the same
    positions as Fractions.  The points tested are every cut of the region
    (open and closed ends alike), every atom, the interval's ends, and one
    step either side of each, each point also as a lone atom; every two
    of the points but the steps bound a density."""
    mu, regions = case
    for region in regions:
        for iid, length in DOM.intervals:
            cuts = region._cuts(iid)
            ends = {Fraction(0), length} | {x for x, _ in cuts}
            ends |= {c.position for c in mu.components if isinstance(c, Atom) and c.interval == iid}
            near = {y for x in ends for y in (x - STEP, x, x + STEP)}
            for y in near:
                inside = oracle_contains(region, iid, y)
                assert region.contains(iid, y) == inside
                assert bool(measures._mass([Atom(iid, y, 0, 1)], region)) == inside
            for lo, hi in itertools.combinations(sorted(ends), 2):
                length_in = oracle_overlap(region, iid, lo, hi)
                assert measures._overlap(cuts, Density(iid, lo, hi, 0, 1)) == length_in
                assert fraction_overlap(cuts, lo, hi) == length_in
        assert measures._mass(mu.components, region) == oracle_mass(mu.components, region)


def oracle_recover_check(mu, regions):
    """recover_check as it was: each level's slice mass read on the region
    minus the support above it."""
    for region in regions:
        best = ZERO
        for k in mu.levels():
            m = nu_hat(mu, k, region.minus(support(mu, k + 1)))
            if m:
                best = pair(k, m)
        if best != evaluate(mu, region):
            return False
    return True


# an atom at 1/3 under a level-1 density whose ends have 12-digit
# denominators: buried, so the singleton there loses its mass on recovery
BURIED = FHMeasure(DOM, [
    Atom("I", Fraction(1, 3), 0, 2),
    Density("I", Fraction(1, BIG), Fraction(BIG - 1, BIG), 1, Fraction(3, 8)),
    Atom("J", Fraction(7, 8), 2, 1),
])


@settings(max_examples=max(100, settings.default.max_examples), deadline=None)
@given(mixed_cases(max_components=6, max_regions=0))
@example((BURIED, []))
def test_recover_check_needs_no_subtraction_on_mixed_denominators(case):
    # the level-k slice holds only what no higher level covers, so reading
    # it on the region minus support(k+1) changes no mass
    mu, _ = case
    sets = grid_sets(mu, midpoints=False)
    graded = is_open_graded(mu)
    assert recover_check(mu, sets) == oracle_recover_check(mu, sets) == graded
    if mu is BURIED:
        assert not graded


def test_membership_on_open_and_closed_ends_with_mixed_denominators():
    a, b = Fraction(1, 3), Fraction(999999999989, 10**12)  # 1/3 < b < 1
    region = Region.of(UNIT, [("I", a, b, False, True)], [("I", Fraction(1, 7))])
    assert [region.contains("I", x) for x in (a - STEP, a, a + STEP, b - STEP, b, b + STEP)] == [
        False, False, True, True, True, False,
    ]
    seventh = Fraction(1, 7)
    assert [region.contains("I", x) for x in (seventh - STEP, seventh, seventh + STEP)] == [False, True, False]
    cuts = region._cuts("I")
    carrier = lambda lo, hi: Density("I", lo, hi, 0, 1)
    assert measures._overlap(cuts, carrier(Fraction(0), Fraction(1))) == b - a
    assert measures._overlap(cuts, carrier(a + STEP, b)) == b - a - STEP
    assert measures._overlap(cuts, carrier(b, Fraction(1))) == 0
    assert measures._overlap(cuts, carrier(Fraction(0), seventh)) == 0
    mu = FHMeasure(UNIT, [Atom("I", a, 1, 5), Atom("I", b, 1, 7), Atom("I", seventh, 0, 2), Density("I", 0, a, 2, 1)])
    assert measures._mass(mu.components, region) == 9 == oracle_mass(mu.components, region)
    assert evaluate(mu, region) == pair(1, 7)


def test_nu_hat_refuses_a_region_on_another_domain():
    mu = FHMeasure(DOM, [Atom("I", Fraction(1, 2), 1, 3), Density("J", 0, 1, 0, 2)])
    whole = Region.whole(DOM)
    assert [nu_hat(mu, k, whole) for k in (-1, 0, 1, 2, 5)] == [XRat(0), XRat(2), XRat(3), XRat(0), XRat(0)]
    for k in (-1, 0, 1, 2, 5):
        with pytest.raises(ValueError, match="regions live on different domains"):
            nu_hat(mu, k, Region.whole(UNIT))


def test_measure_identity_ignores_index():
    comps = [Atom("I", Fraction(1, 2), 3, 1), Density("I", 0, 1, 1, 2)]
    warm, cold = FHMeasure(UNIT, comps), FHMeasure(UNIT, comps)
    assert nu_hat(warm, 1, Region.whole(UNIT)) == XRat(2)
    # the index is cached in the instance dict on first use
    assert "_index" in vars(warm) and "_index" not in vars(cold)
    assert warm == cold
    assert hash(warm) == hash(cold)
    assert repr(warm) == repr(cold)
    assert warm in {cold}
    # derived measures start with an index of their own
    aligned, rebuilt = align(warm), recover(warm)
    assert "_index" not in vars(aligned) and "_index" not in vars(rebuilt)
    assert support(aligned, 1) == points(UNIT, ("I", Fraction(1, 2)))
    assert support(aligned, 1) == oracle_support(aligned, 1)
    assert aligned._index is not warm._index
    assert support(warm, 2) == support(warm, 3) == points(UNIT, ("I", Fraction(1, 2)))
    assert support(rebuilt, 0) == oracle_support(rebuilt, 0)


def test_components_keep_their_value_semantics():
    # slotted components with stored position pairs compare, hash, print,
    # copy and refuse assignment as the plain frozen dataclasses did
    atom = Atom("i", "1/2", 0, 1)
    assert atom == Atom("i", Fraction(1, 2), 0, "1")
    assert hash(atom) == hash(Atom("i", Fraction(1, 2), 0, "1"))
    assert atom != Atom("i", Fraction(1, 2), 1, 1)
    dens = Density("i", "1/4", Fraction(1, 2), 1, "3")
    assert repr(atom) == "Atom(interval='i', position=Fraction(1, 2), level=0, mass=XRat('1'))"
    assert repr(dens) == "Density(interval='i', lo=Fraction(1, 4), hi=Fraction(1, 2), level=1, rate=XRat('3'))"
    assert (atom._at, dens._lo_at, dens._hi_at) == ((1, 2), (1, 4), (1, 2))
    weight = XRat(5)
    assert Atom("i", 0, 0, weight).mass is weight and Density("i", 0, 1, 0, weight).rate is weight
    heavy = Atom("i", Fraction(2, 6), 3, "inf")
    for c in (atom, dens, heavy):
        copies = [pickle.loads(pickle.dumps(c, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in copies + [copy.copy(c), copy.deepcopy(c)]:
            assert (twin, hash(twin), repr(twin)) == (c, hash(c), repr(c))
            assert [getattr(twin, f.name) for f in dataclasses.fields(c)] == [getattr(c, f.name) for f in dataclasses.fields(c)]
    # an end too long for str pickles as its stored pair from protocol 2
    # on; protocols 0 and 1 write ints as decimal text, so under the
    # interpreter's digit limit they refuse it there, as for XRat
    tiny = Fraction(1, 10**4400)
    long_atom, long_dens = Atom("i", tiny, 0, 1), Density("i", tiny, Fraction(1, 2), 1, "inf")
    for c in (long_atom, long_dens, FHMeasure(Domain([("i", 1)]), [long_atom, long_dens])):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            try:
                pickle.dumps(tiny.denominator, protocol)
            except ValueError:
                assert protocol < 2
                with pytest.raises(ValueError):
                    pickle.dumps(c, protocol)
                continue
            twin = pickle.loads(pickle.dumps(c, protocol))
            assert type(twin) is type(c) and twin == c
        assert copy.copy(c) == c and copy.deepcopy(c) == c
    assert dataclasses.replace(long_atom, level=2)._at == dataclasses.replace(long_dens, level=2)._lo_at == (1, 10**4400)
    moved = dataclasses.replace(atom, position="3/4", level=2)
    assert moved == Atom("i", Fraction(3, 4), 2, 1) and moved._at == (3, 4)
    wider = dataclasses.replace(dens, lo=0, hi=Fraction(4, 6))
    assert wider == Density("i", 0, Fraction(2, 3), 1, 3) and (wider._lo_at, wider._hi_at) == ((0, 1), (2, 3))
    with pytest.raises(ValueError, match="density needs lo < hi"):
        dataclasses.replace(dens, hi=Fraction(1, 4))
    for c, name in ((atom, "position"), (atom, "_at"), (dens, "hi"), (dens, "_lo_at")):
        with pytest.raises(dataclasses.FrozenInstanceError) as err:
            setattr(c, name, Fraction(1, 3))
        assert err.value.args == (f"cannot assign to field {name!r}",)
        with pytest.raises(dataclasses.FrozenInstanceError) as err:
            delattr(c, name)
        assert err.value.args == (f"cannot delete field {name!r}",)
    assert not hasattr(atom, "__dict__") and not hasattr(dens, "__dict__")


# ---------------------------------------------------------------------------
# the paper's laws for measures, through the CLI

def measure_through_cli(folder, sub, doc):
    """The result `measure <sub>` reports for the measure document, written
    to the folder and run through cli.main."""
    path = folder / "measure.json"
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["measure", sub, str(path)]) == 0
    return json.loads(out.getvalue())["result"]


@settings(deadline=None)
@given(case=mixed_cases(max_regions=0))
def test_eval_is_the_top_row_of_decompose_through_cli(tmp_path_factory, case):
    # nothing lies above the top level, so its slice is all of its mass
    mu, _ = case
    assume(mu.components)
    folder, doc = tmp_path_factory.getbasetemp(), jsonio.measure_to_json(mu)
    top = measure_through_cli(folder, "decompose", doc)["table"][-1]
    assert measure_through_cli(folder, "eval", doc)["value"] == {"level": top["level"], "real": top["mass"]}


@settings(deadline=None)
@given(case=mixed_cases(max_regions=0))
def test_align_keeps_the_decompose_masses_through_cli(tmp_path_factory, case):
    # deleting empty levels renames the occupied ones in order, and moves
    # no mass between strata
    folder, doc = tmp_path_factory.getbasetemp(), jsonio.measure_to_json(case[0])
    before = measure_through_cli(folder, "decompose", doc)["table"]
    aligned = measure_through_cli(folder, "align", doc)["measure"]
    after = measure_through_cli(folder, "decompose", aligned)["table"]
    assert [row["mass"] for row in after] == [row["mass"] for row in before]
    assert [row["level"] for row in after] == list(range(len(before)))


def test_stacked_levels_scale(tmp_path, capsys):
    # n atoms at n distinct levels: every level is its own stratum, so each
    # slice holds exactly its own atom's mass
    n = 2000
    comps = [Atom("I", Fraction(i, n), i, i + 1) for i in range(n)]
    mu = FHMeasure(UNIT, comps, height_bound=n)
    whole = Region.whole(UNIT)
    assert [nu_hat(mu, k, whole) for k in mu.levels()] == [XRat(k + 1) for k in range(n)]
    assert is_open_graded(mu) and is_locally_finite(mu)

    doc = {
        "domain": {"intervals": [{"id": "I", "length": "1"}]},
        "height_bound": n,
        "components": [
            {"kind": "atom", "interval": "I", "position": str(c.position), "level": c.level, "mass": str(c.level + 1)}
            for c in comps
        ],
    }
    target = tmp_path / "stacked.json"
    target.write_text(json.dumps(doc))
    assert main(["measure", "decompose", str(target)]) == 0
    table = json.loads(capsys.readouterr().out)["result"]["table"]
    assert table == [{"level": k, "mass": str(k + 1)} for k in range(n)]


def test_one_level_per_interval_scale(tmp_path, capsys):
    # one atom on each of n intervals, each at its own level: every stratum
    # lies on a single interval, so intersecting it with the whole region
    # walks one part, not all n
    n = 2000
    doc = {
        "domain": {"intervals": [{"id": f"I{i}", "length": "1"} for i in range(n)]},
        "height_bound": n,
        "components": [
            {"kind": "atom", "interval": f"I{i}", "position": "1/2", "level": i, "mass": str(i + 1)}
            for i in range(n)
        ],
    }
    target = tmp_path / "spread.json"
    target.write_text(json.dumps(doc))
    assert main(["measure", "decompose", str(target)]) == 0
    table = json.loads(capsys.readouterr().out)["result"]["table"]
    assert table == [{"level": k, "mass": str(k + 1)} for k in range(n)]


def test_many_intervals_keep_identity():
    # the id lookups domains and regions keep take no part in identity
    n = 3000
    rows = [(f"I{i}", Fraction(i + 1, 7)) for i in range(n)]
    dom = Domain(rows)
    comps = [Atom(f"I{i}", 0, i % 3, 1) for i in range(n)]
    mu = FHMeasure(dom, comps)
    whole = Region.whole(dom)
    assert evaluate(mu, whole) == pair(2, 1000)
    assert whole.contains(f"I{n - 1}", Fraction(n, 7))

    fresh_dom = Domain(rows)
    assert "_lengths" in dom.__dict__ and "_lengths" not in fresh_dom.__dict__
    assert (dom == fresh_dom, hash(dom), repr(dom)) == (True, hash(fresh_dom), repr(fresh_dom))
    fresh_whole = Region.of(fresh_dom, [(i, 0, l, True, True) for i, l in rows])
    assert (whole == fresh_whole, hash(whole), repr(whole)) == (True, hash(fresh_whole), repr(fresh_whole))
    fresh = FHMeasure(fresh_dom, comps)
    assert (mu == fresh, hash(mu), repr(mu)) == (True, hash(fresh), repr(fresh))
