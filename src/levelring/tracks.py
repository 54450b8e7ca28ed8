"""Combinatorial branched graphs with leveled edge weights.

A ``TrainTrack`` is a list of segments and a list of switches; each switch
has two sides, and each side is a multiset of segment ids (one entry per
segment END meeting the switch from that side — a segment may meet the
same switch with both ends, or the same side twice).  Segment ends not on
any switch must be declared free, so that ends always total two.

A weight vector assigns a ``LevelValue`` to every segment, in segment
order.  The vector is invariant when, at every switch, the two sides have
equal weight sums.  On top of validation this module provides:

* ``align_weights`` — close gaps in the set of levels used (the canonical
  downward normalization; fixed points are called proximal),
* ``adjustments`` — all subsets of segments whose level-raise-by-one keeps
  the vector invariant (tracks with more than ``MAX_ADJUST_SUBSETS``
  nonempty subsets are refused),
* ``is_contiguous`` — proximal vectors that no height-preserving
  adjustment can move to a genuinely different vector,
* ``enumerate_strata`` — exhaustive enumeration of the proximal
  level/finiteness patterns below a height bound, with exact rational
  feasibility decisions and witness vectors,
* ``height_filtration`` — the leveled weight vector induced by a family of
  level-0 monomial weights that balances every switch identically in the
  parameter.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from levelring.values import _ECHO, INF, LevelValue, ZERO, _from_ratio, _Memo, _ratio, _slot_setters, pair, total
from levelring.vectors import Monomial, Vector, _as_family, _as_vector

__all__ = [
    "MAX_ADJUST_SUBSETS",
    "MAX_STRATA",
    "Stratum",
    "TrainTrack",
    "Violation",
    "adjustments",
    "align_weights",
    "enumerate_strata",
    "height_filtration",
    "is_contiguous",
    "is_proximal",
    "raise_levels",
    "strata_count",
    "validate",
]


@dataclass(frozen=True)
class TrainTrack:
    """Segments plus switches; each switch side is a multiset of segment
    ends.  `free_ends` counts ends not incident to any switch, and names
    segments only; omitted, it is inferred so that every segment has
    exactly two ends in total."""

    segments: tuple[str, ...]
    switches: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]
    free_ends: tuple[tuple[str, int], ...]

    def __init__(
        self,
        segments: Iterable[str],
        switches: Iterable[tuple[Iterable[str], Iterable[str]]] = (),
        free_ends: Optional[Mapping[str, int]] = None,
    ):
        segs = tuple(str(s) for s in segments)
        if len(set(segs)) != len(segs):
            raise ValueError("segment ids must be unique")
        if not segs:
            raise ValueError("a track needs at least one segment")
        sw = tuple(
            (tuple(sorted(str(s) for s in a)), tuple(sorted(str(s) for s in b)))
            for a, b in switches
        )
        ends = Counter(s for a, b in sw for s in a + b)
        unknown = set(ends) - set(segs)
        if unknown:
            raise ValueError(f"switches mention unknown segments: {_ECHO.repr(sorted(unknown))}")
        if free_ends is None:
            declared = {s: 2 - ends[s] for s in segs}
            if any(v < 0 for v in declared.values()):
                worst = [s for s in segs if declared[s] < 0]
                raise ValueError(f"segments with more than two ends: {_ECHO.repr(worst)}")
        else:
            unknown = set(free_ends) - set(segs)
            if unknown:
                raise ValueError(f"free_ends mention unknown segments: {_ECHO.repr(sorted(unknown, key=str))}")
            declared = {s: free_ends.get(s, 0) for s in segs}
        for s in segs:
            if type(declared[s]) is not int:
                raise TypeError(f"free end count of {_ECHO.repr(s)} must be an int: {_ECHO.repr(declared[s])}")
            if ends[s] + declared[s] != 2:
                raise ValueError(
                    f"segment {_ECHO.repr(s)} has {ends[s]} switch ends and "
                    f"{declared[s]} free ends; ends must total 2"
                )
        object.__setattr__(self, "segments", segs)
        object.__setattr__(self, "switches", sw)
        object.__setattr__(
            self, "free_ends", tuple((s, declared[s]) for s in segs)
        )

    @property
    def free_end_map(self) -> dict[str, int]:
        return dict(self.free_ends)


class Violation(NamedTuple):
    switch: int
    left: LevelValue
    right: LevelValue

    def __str__(self) -> str:
        try:
            return f"switch {self.switch}: {self.left} != {self.right}"
        except ValueError as exc:  # a side too long to write
            raise ValueError(f"switch {self.switch}: {exc}") from None


def _as_weights(track: TrainTrack, w: Sequence[LevelValue]) -> Vector:
    vec = tuple(w)
    if len(vec) != len(track.segments):
        raise ValueError(
            f"expected {len(track.segments)} weights, got {len(vec)}"
        )
    return _as_vector(vec)


def validate(track: TrainTrack, w: Sequence[LevelValue]) -> list[Violation]:
    """Switch-equation check: one Violation per switch whose sides sum
    differently; empty list means the weights are invariant."""
    vec = _as_weights(track, w)
    at = {s: vec[i] for i, s in enumerate(track.segments)}
    out = []
    for i, (a, b) in enumerate(track.switches):
        left = total(at[s] for s in a)
        right = total(at[s] for s in b)
        if left != right:
            out.append(Violation(i, left, right))
    return out


def _levels_used(w: Sequence[LevelValue]) -> list[int]:
    return sorted({e.level for e in w if not e.is_zero})


def align_weights(w: Sequence[LevelValue]) -> Vector:
    """Close every gap in the set of levels used: the distinct nonzero
    levels are remapped, in order, onto 0..m-1.  Idempotent; preserves
    switch-validity on any track (each side's top level moves the same
    way, so equal sums stay equal)."""
    rank = {lev: i for i, lev in enumerate(_levels_used(w))}
    return tuple(
        e if e.is_zero else LevelValue(rank[e.level], e.magnitude) for e in w
    )


def is_proximal(w: Sequence[LevelValue]) -> bool:
    return align_weights(w) == tuple(w)


def raise_levels(
    track: TrainTrack, w: Sequence[LevelValue], subset: Iterable[str]
) -> Vector:
    """Raise by one the level of every nonzero weight on the named
    segments; zero weights stay zero."""
    chosen = set(subset)
    unknown = chosen - set(track.segments)
    if unknown:
        raise ValueError(f"unknown segments: {_ECHO.repr(sorted(unknown))}")
    vec = _as_weights(track, w)
    return tuple(
        e if e.is_zero or s not in chosen else LevelValue(e.level + 1, e.magnitude)
        for s, e in zip(track.segments, vec)
    )


# `adjustments` refuses a track whose 2**n - 1 nonempty segment subsets
# number more than this: 16 segments pass, 17 do not.
MAX_ADJUST_SUBSETS = 2**16


def _require_invariant(track: TrainTrack, vec: Vector) -> None:
    bad = validate(track, vec)
    if bad:
        raise ValueError(f"weights are not invariant: {[str(v) for v in bad]}")


def _adjustments(
    track: TrainTrack, vec: Vector
) -> Iterator[tuple[tuple[str, ...], Vector]]:
    """The valid adjustments of an invariant vector, smallest subsets
    first, in segment order, as they are asked for; the subset bound is
    checked at the call, and invariance is the caller's to check."""
    n = len(track.segments)
    if 2**n - 1 > MAX_ADJUST_SUBSETS:
        raise ValueError(
            f"{n} segments give more than {MAX_ADJUST_SUBSETS} subsets to "
            "adjust; refusing to try them"
        )
    subsets = itertools.chain.from_iterable(
        itertools.combinations(track.segments, size) for size in range(1, n + 1)
    )
    raised = ((subset, raise_levels(track, vec, subset)) for subset in subsets)
    return ((subset, w) for subset, w in raised if not validate(track, w))


def adjustments(
    track: TrainTrack, w: Sequence[LevelValue]
) -> list[tuple[tuple[str, ...], Vector]]:
    """All nonempty segment subsets whose raise-by-one stays invariant,
    each with the raised vector.  Subsets are emitted smallest-first, in
    segment order, so output order is deterministic.  Requires an
    invariant input.  Every one of the 2**n - 1 subsets is tried, so a
    track whose subsets exceed `MAX_ADJUST_SUBSETS` is refused with a
    ValueError before any is tried."""
    vec = _as_weights(track, w)
    found = _adjustments(track, vec)
    _require_invariant(track, vec)
    return list(found)


def _max_level(w: Sequence[LevelValue]) -> Optional[int]:
    used = _levels_used(w)
    return used[-1] if used else None


def is_contiguous(track: TrainTrack, w: Sequence[LevelValue]) -> bool:
    """Whether no alignment and no level-preserving adjustment moves w.

    The vector must be proximal, and every valid adjustment must either
    raise the vector's overall height (such a move climbs out of the
    current level range rather than reshuffling it — the uniform
    all-segments raise always exists and must not disqualify anything) or
    come back to w after alignment.  A valid adjustment that keeps the
    height yet aligns to a different vector disqualifies w, and the search
    stops there.  A vector that is not invariant is refused first, as in
    `adjustments`.  A proximal vector is then searched as in `adjustments`,
    under the same `MAX_ADJUST_SUBSETS` refusal; a vector that is not
    proximal is answered without a search.
    """
    vec = _as_weights(track, w)
    _require_invariant(track, vec)
    if not is_proximal(vec):
        return False
    h = _max_level(vec)
    for _, raised in _adjustments(track, vec):
        if _max_level(raised) == h and align_weights(raised) != vec:
            return False
    return True


# ---------------------------------------------------------------------------
# stratified feasibility
#
# A stratum fixes, per segment, either ZERO or a (level, finiteness) shape.
# Each switch equation then reduces to conditions on the shapes plus at most
# one homogeneous linear equation over the finite top-level magnitudes; a
# strictly positive solution of those equations is found, or ruled out, by
# exact Fourier-Motzkin elimination with no constant terms.

FIN = "fin"
INFINITE = "inf"  # sorts after FIN, as `_switch_reduction` needs

Shape = Optional[tuple[int, str]]  # None for ZERO, else (level, FIN|INFINITE)


@dataclass(frozen=True, slots=True)
class Stratum:
    """One proximal shape pattern with its feasibility verdict and, when
    feasible, an invariant witness vector."""

    pattern: tuple[Shape, ...]
    feasible: bool
    witness: Optional[Vector] = None

    def __init__(self, pattern: tuple[Shape, ...], feasible: bool, witness: Optional[Vector] = None):
        set_pattern, set_feasible, set_witness = _STRATUM_SETTERS
        set_pattern(self, pattern)
        set_feasible(self, feasible)
        set_witness(self, witness)


_STRATUM_SETTERS = _slot_setters(Stratum)


def _fm_feasible(
    variables: Sequence[str],
    equations: Sequence[Mapping[str, int | Fraction] | Iterable[tuple[str, int | Fraction]]],
) -> Optional[dict[str, Fraction]]:
    """Strictly positive rational solution of the homogeneous equations,
    or None.  An equation is a coefficient dict, or its (variable,
    coefficient) items as `_switch_reduction` gives them; a coefficient
    is an int or a Fraction, and is made a Fraction here.  Each equation
    in turn is solved for its smallest variable and substituted away;
    Fourier-Motzkin then eliminates the other variables, in sorted order,
    from the strict inequalities, which start as v > 0; back-substitution
    in reverse order gives the witness.  Constraints are bare coefficient
    dicts (equalities = 0, inequalities > 0) and stay homogeneous, so the
    system is infeasible exactly when an inequality is left with no
    variables, and v > 0 is a lower bound of v until v goes.  The witness
    is checked against the system; one that fails raises RuntimeError,
    so a solver fault never reads as an infeasible system.
    """
    given = [{k: Fraction(c) for k, c in dict(eq).items() if c} for eq in equations]
    eqs = list(given)
    cons = [{v: Fraction(1)} for v in variables]
    steps: list[tuple[str, object]] = []  # (var, expr) or (var, (lowers, uppers))

    def substitute(target: dict[str, Fraction], var: str, expr: dict[str, Fraction]):
        c = target.get(var)
        if c is None:
            return target
        out = {k: v for k, v in target.items() if k != var}
        for k, v in expr.items():
            out[k] = out.get(k, 0) + c * v
        return {k: v for k, v in out.items() if v}

    # 1) solve each equation, first to last, for its smallest variable
    while eqs:
        coeffs = eqs.pop(0)
        if not coeffs:
            continue
        var = min(coeffs)
        expr = {k: -v / coeffs[var] for k, v in coeffs.items() if k != var}
        steps.append((var, expr))
        eqs = [substitute(eq, var, expr) for eq in eqs]
        cons = [substitute(co, var, expr) for co in cons]

    # 2) Fourier-Motzkin on the strict inequalities
    for var in sorted({v for co in cons for v in co}):
        lowers = [co for co in cons if co.get(var, 0) > 0]
        uppers = [co for co in cons if co.get(var, 0) < 0]
        steps.append((var, (lowers, uppers)))
        cons = [co for co in cons if var not in co]
        for lo, up in itertools.product(lowers, uppers):
            lc, uc = lo[var], up[var]
            co = {
                k: -uc * lo.get(k, 0) + lc * up.get(k, 0)
                for k in lo.keys() | up.keys()
                if k != var
            }
            cons.append({k: v for k, v in co.items() if v})
    if cons:  # each constraint left reads 0 > 0
        return None

    # 3) back-substitute a witness
    values: dict[str, Fraction] = {}

    def value(co: dict[str, Fraction], skip: Optional[str] = None) -> Fraction:
        return sum((c * values[k] for k, c in co.items() if k != skip), Fraction(0))

    for var, data in reversed(steps):
        if isinstance(data, dict):
            values[var] = value(data)
            continue
        lowers, uppers = data
        lo = max(-value(co, var) / co[var] for co in lowers)
        ups = [-value(co, var) / co[var] for co in uppers]
        values[var] = (lo + min(ups)) / 2 if ups else lo + 1
    if any(values[v] <= 0 for v in variables) or any(value(eq) for eq in given):
        raise RuntimeError("Fourier-Motzkin witness fails its own system")
    return values


def _switch_reduction(
    shape_of: Mapping[str, Shape],
    side_a: Sequence[str],
    side_b: Sequence[str],
) -> Optional[tuple[tuple[str, int], ...]]:
    """Reduce one switch to its stratum constraint.

    Returns None when the shapes alone are contradictory; () when the
    switch is satisfied with no condition on magnitudes; otherwise one
    homogeneous linear equation over the finite top-level magnitudes, as
    its sorted (segment, nonzero int coefficient) items, so that a system
    of them hashes no Fraction.  A side's top
    is its largest shape: shapes order by level, then FIN before INFINITE,
    so the top is infinite exactly when a segment at the top level is.
    """
    top = max(filter(None, map(shape_of.__getitem__, side_a)), default=None)
    if top != max(filter(None, map(shape_of.__getitem__, side_b)), default=None):
        return None
    if top is None or top[1] == INFINITE:
        return ()
    coeffs: dict[str, int] = {}
    for side, sign in ((side_a, 1), (side_b, -1)):
        for s in side:
            if shape_of[s] == top:
                coeffs[s] = coeffs.get(s, 0) + sign
    return tuple(sorted((s, c) for s, c in coeffs.items() if c))


def _switch_rows(names: Sequence[str], last: str, sides: tuple) -> _Memo:
    """One switch's reductions, in tables made on first use: the shapes of
    its segments before its last (named in order) -> a row, and a row's
    shape of the last segment -> `_switch_reduction` of the switch."""

    def row(key: tuple[Shape, ...]) -> _Memo:
        shape_of = dict(zip(names, key))

        def reduce(shape: Shape) -> Optional[tuple[tuple[str, int], ...]]:
            shape_of[last] = shape
            return _switch_reduction(shape_of, *sides)

        return _Memo(reduce)

    return _Memo(row)


def _choices(options: Sequence[Shape], n: int, k: int, used: int) -> list[tuple[Shape, int]]:
    """The options at position k of n, given the levels used before it as
    a bit set, each with the levels used after it, that leave no more
    levels missing below the highest than segments after k."""
    out = []
    for shape in options:
        now = used if shape is None else used | 1 << shape[0]
        if now.bit_length() - now.bit_count() > n - 1 - k:
            # if this option raised the highest level, every later one
            # sits higher still
            if now.bit_length() > used.bit_length():
                break
            continue
        out.append((shape, now))
    return out


# `enumerate_strata` refuses a track and height bound with more proximal
# patterns than this (`strata_count`): 6 segments give at most 423,857.
MAX_STRATA = 10**6


def _surjections(j: int, m: int) -> int:
    return sum((-1) ** i * comb(m, i) * (m - i) ** j for i in range(m + 1))


def strata_count(n_segments: int, height_bound: int) -> int:
    """Number of proximal shape patterns on n segments with levels below
    the height bound: choose the j nonzero segments, their fin/inf kinds,
    and a surjection of them onto levels 0..m-1 with m <= height bound."""
    return sum(
        comb(n_segments, j) * 2**j * _surjections(j, m)
        for j in range(n_segments + 1)
        for m in range(min(j, height_bound) + 1)
    )


def enumerate_strata(track: TrainTrack, height_bound: int) -> list[Stratum]:
    """All proximal shape patterns with levels below the height bound,
    each decided for feasibility.

    A pattern assigns every segment ZERO or (level, fin/inf); proximal
    means the levels used are exactly 0..m-1 for some m.  Feasibility
    asks for strictly positive finite magnitudes satisfying every switch;
    witnesses are attached when they exist.  The patterns are walked
    depth first over prefixes.  A prefix is dropped as soon as the
    segments left cannot fill the levels missing below its highest level.
    Every table below is a `_Memo`, made afresh for each call and filled
    on first lookup: the options left at a position, per set of levels
    used before it; per switch, a row per shapes of its segments before
    its last, which each option at the last segment's position reads at
    its own shape, so `_switch_reduction` runs once for each distinct
    restriction of a prefix to the switch's segments; one `_fm_feasible`
    solution per distinct system (finite variables, equations in switch
    order with int coefficients, so the lookup hashes no Fraction); per
    solved system, its witness values by (segment, shape); and the values
    made by (level, reduced pair), so `pair` builds each distinct witness
    value once and equal witness values are one object.  Every proximal
    completion of a prefix that contradicts a switch is infeasible with
    no further work.  Every witness is still checked with `validate`, and
    one that fails raises RuntimeError.

    Order contract: patterns come in the lexicographic order of their
    per-segment options, first segment first, where each segment's options
    run ZERO, then by level ascending, finite before infinite.  Only
    proximal patterns are generated, so levels stop below
    min(height_bound, number of segments), and every height bound at or
    above the number of segments gives the same list.

    Raises ValueError for a height bound below 1 and when `strata_count`
    exceeds `MAX_STRATA`, before any pattern is generated.  That count is
    the only size limit: 12 segments pass at height bound 1 (531,441
    strata), 13 segments never do, so the walk is at most 12 deep.
    """
    n = len(track.segments)
    if height_bound < 1:
        raise ValueError("height bound must be at least 1")
    # Patterns of ZERO and level-0 shapes alone number 3**n, so that cheap
    # bound refuses long tracks before the exact count is worked out.
    if 3**n > MAX_STRATA or strata_count(n, height_bound) > MAX_STRATA:
        raise ValueError(
            f"{n} segments at height bound {height_bound} give more than "
            f"{MAX_STRATA} strata; refusing to enumerate them"
        )
    segments = track.segments
    index = {s: i for i, s in enumerate(segments)}
    options: list[Shape] = [None]
    for lev in range(min(height_bound, n)):  # n segments use at most n levels
        options += [(lev, FIN), (lev, INFINITE)]
    finite = set(options[1::2])  # the shapes whose magnitudes are variables
    # Per position: the switches whose last segment sits there, each with
    # its index, the positions of its other distinct segments and its
    # `_switch_rows` table.
    decided_at: list[list] = [[] for _ in segments]
    for i, (a, b) in enumerate(track.switches):
        at = sorted({index[s] for s in a + b})
        if at:  # a switch with no ends is satisfied by every pattern
            table = _switch_rows([segments[j] for j in at[:-1]], segments[at[-1]], (a, b))
            decided_at[at[-1]].append((i, at[:-1], table))
    choices = _Memo(lambda key: _choices(options, n, *key))
    pattern: list[Shape] = [None] * n
    equations: list = [()] * len(track.switches)  # by switch, on this prefix
    # (level, reduced pair of the magnitude, infinity as 1/0) -> its witness
    # value, so that `pair` builds each distinct value once, equal values
    # are one object and no Fraction is hashed
    made = _Memo(lambda at: pair(at[0], _from_ratio(*at[1])))

    def solve(system: tuple) -> Optional[_Memo]:
        """(segment, shape) -> that segment's witness value under the
        system's solution: ZERO for no shape, infinity for an infinite
        one, else the solved magnitude; or None when `_fm_feasible` finds
        no solution."""
        solution = _fm_feasible(*system)
        if solution is None:
            return None

        def value(key: tuple[str, Shape]) -> LevelValue:
            s, shape = key
            if shape is None:
                return ZERO
            level, kind = shape
            return made[level, _ratio(INF if kind == INFINITE else solution[s])]

        return _Memo(value)

    solutions = _Memo(solve)  # (finite variables, equations) -> `solve`'s table
    out: list[Stratum] = []

    def stratum() -> Stratum:
        """The stratum of a pattern that contradicts no switch."""
        shapes = tuple(pattern)
        values = solutions[
            tuple(itertools.compress(segments, map(finite.__contains__, shapes))),
            tuple(filter(None, equations)),
        ]
        if values is None:
            return Stratum(shapes, False)
        witness = tuple(map(values.__getitem__, zip(segments, shapes)))
        if validate(track, witness):
            raise RuntimeError(
                f"feasibility witness fails validation for pattern {shapes}"
            )
        return Stratum(shapes, True, witness)

    def walk(k: int, used: int, alive: bool) -> None:
        """Extend the prefix before k, whose levels are the set bits of
        used; alive is False once a switch of the prefix is contradicted."""
        rows = []  # (switch, its row for this prefix) for the switches decided at k
        for i, before, table in decided_at[k] if alive else ():
            rows.append((i, table[tuple(map(pattern.__getitem__, before))]))
        last = k == n - 1
        for shape, now in choices[k, used]:
            pattern[k] = shape
            ok = alive
            for i, row in rows:
                reduction = equations[i] = row[shape]
                if reduction is None:
                    ok = False
                    break
            if not last:
                walk(k + 1, now, ok)
            else:
                out.append(stratum() if ok else Stratum(tuple(pattern), False))

    walk(0, 0, True)
    # walk holds itself through its closure: break that cycle, so that the
    # call's tables are freed now and not at some later collection
    del walk
    return out


def height_filtration(
    track: TrainTrack, family: Sequence[Optional[Monomial]]
) -> Vector:
    """Leveled weights induced by a parametric family of flat weights.

    The family gives segment i the level-0 weight a_i * t^degree_i; it must
    balance every switch identically in t (per-degree coefficient sums
    equal on both sides).  Segments are then graded by their degree's rank
    among the distinct degrees present, keeping their coefficients:
    faster-growing weights sit at higher levels.  The result is proximal
    and invariant.
    """
    fam = tuple(family)
    if len(fam) != len(track.segments):
        raise ValueError(
            f"expected {len(track.segments)} family entries, got {len(fam)}"
        )
    for m in _as_family(fam):
        if m is None:
            raise ValueError("every segment needs a (positive) family entry")
        if m.level != 0:
            raise ValueError("family entries must sit at level 0")
    mono = dict(zip(track.segments, fam))
    for i, (a, b) in enumerate(track.switches):
        sums_a: Counter = Counter()
        sums_b: Counter = Counter()
        for s in a:
            sums_a[mono[s].degree] += mono[s].coeff
        for s in b:
            sums_b[mono[s].degree] += mono[s].coeff
        if sums_a != sums_b:
            raise ValueError(
                f"switch {i} is not balanced identically in the parameter"
            )
    rank = {d: i for i, d in enumerate(sorted({m.degree for m in fam}))}
    return tuple(pair(rank[m.degree], m.coeff) for m in fam)
