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
  the vector invariant,
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

from levelring.values import _ECHO, INF, LevelValue, XRat, ZERO, pair, total
from levelring.vectors import Monomial

__all__ = [
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
    ends.  `free_ends` counts ends not incident to any switch; omitted, it
    is inferred so that every segment has exactly two ends in total."""

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
            declared = {s: int(free_ends.get(s, 0)) for s in segs}
        for s in segs:
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

    def index(self, segment: str) -> int:
        return self.segments.index(segment)

    @property
    def free_end_map(self) -> dict[str, int]:
        return dict(self.free_ends)


Weights = tuple[LevelValue, ...]


class Violation(NamedTuple):
    switch: int
    left: LevelValue
    right: LevelValue

    def __str__(self) -> str:
        return f"switch {self.switch}: {self.left} != {self.right}"


def _as_weights(track: TrainTrack, w: Sequence[LevelValue]) -> Weights:
    vec = tuple(w)
    if len(vec) != len(track.segments):
        raise ValueError(
            f"expected {len(track.segments)} weights, got {len(vec)}"
        )
    for e in vec:
        if not isinstance(e, LevelValue):
            raise TypeError(f"not a LevelValue: {e!r}")
    return vec


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


def align_weights(w: Sequence[LevelValue]) -> Weights:
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
) -> Weights:
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


def adjustments(
    track: TrainTrack, w: Sequence[LevelValue]
) -> list[tuple[tuple[str, ...], Weights]]:
    """All nonempty segment subsets whose raise-by-one stays invariant,
    each with the raised vector.  Subsets are emitted smallest-first, in
    segment order, so output order is deterministic.  Exponential in the
    number of segments.  Requires an invariant input."""
    vec = _as_weights(track, w)
    bad = validate(track, vec)
    if bad:
        raise ValueError(f"weights are not invariant: {[str(v) for v in bad]}")
    out = []
    for size in range(1, len(track.segments) + 1):
        for subset in itertools.combinations(track.segments, size):
            raised = raise_levels(track, vec, subset)
            if not validate(track, raised):
                out.append((subset, raised))
    return out


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
    height yet aligns to a different vector disqualifies w.
    """
    vec = _as_weights(track, w)
    if not is_proximal(vec):
        return False
    h = _max_level(vec)
    for _, raised in adjustments(track, vec):
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
INFINITE = "inf"

Shape = Optional[tuple[int, str]]  # None for ZERO, else (level, FIN|INFINITE)


@dataclass(frozen=True)
class Stratum:
    """One proximal shape pattern with its feasibility verdict and, when
    feasible, an invariant witness vector."""

    pattern: tuple[Shape, ...]
    feasible: bool
    witness: Optional[Weights] = None


def _fm_feasible(
    variables: Sequence[str], equations: Sequence[dict[str, Fraction]]
) -> Optional[dict[str, Fraction]]:
    """Strictly positive rational solution of the homogeneous equations,
    or None.  Each equation in turn is solved for its smallest variable and
    substituted away; Fourier-Motzkin then eliminates the other variables,
    in sorted order, from the strict inequalities, which start as v > 0;
    back-substitution in reverse order gives the witness.  Constraints are
    bare coefficient dicts (equalities = 0, inequalities > 0) and stay
    homogeneous, so the system is infeasible exactly when an inequality is
    left with no variables, and v > 0 is a lower bound of v until v goes.
    """
    eqs = [{k: c for k, c in eq.items() if c} for eq in equations]
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
    if any(values[v] <= 0 for v in variables) or any(value(eq) for eq in equations):
        return None
    return values


def _side_shapes(
    side: Sequence[str], shape_of: Mapping[str, Shape]
) -> list[tuple[str, int, str]]:
    return [
        (s, shape_of[s][0], shape_of[s][1]) for s in side if shape_of[s] is not None
    ]


def _switch_reduction(
    shape_of: Mapping[str, Shape],
    side_a: Sequence[str],
    side_b: Sequence[str],
) -> Optional[Optional[dict[str, Fraction]]]:
    """Reduce one switch to its stratum constraint.

    Returns None when the shapes alone are contradictory; {} when the
    switch is satisfied with no condition on magnitudes; otherwise the
    coefficient dict of one homogeneous linear equation over the finite
    top-level magnitudes.
    """
    ents_a, ents_b = _side_shapes(side_a, shape_of), _side_shapes(side_b, shape_of)
    top_a = max((lev for _, lev, _ in ents_a), default=None)
    top_b = max((lev for _, lev, _ in ents_b), default=None)
    if top_a != top_b:
        return None
    if top_a is None:
        return {}
    inf_a = any(f == INFINITE for _, lev, f in ents_a if lev == top_a)
    inf_b = any(f == INFINITE for _, lev, f in ents_b if lev == top_b)
    if inf_a or inf_b:
        return {} if (inf_a and inf_b) else None
    coeffs: dict[str, Fraction] = {}
    for s, lev, _ in ents_a:
        if lev == top_a:
            coeffs[s] = coeffs.get(s, Fraction(0)) + 1
    for s, lev, _ in ents_b:
        if lev == top_b:
            coeffs[s] = coeffs.get(s, Fraction(0)) - 1
    return {k: v for k, v in coeffs.items() if v}


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


def _proximal_patterns(n: int, height_bound: int) -> Iterator[tuple[Shape, ...]]:
    """Every proximal pattern on n segments with levels below the height
    bound, in the lexicographic order of per-segment options ZERO, (0, fin),
    (0, inf), (1, fin), ...  A depth-first walk over prefixes that drops an
    option as soon as the segments left cannot fill the levels missing
    below the prefix's highest level."""
    levels = min(height_bound, n)  # n segments use at most n levels
    options: list[Shape] = [None]
    for lev in range(levels):
        options += [(lev, FIN), (lev, INFINITE)]
    pattern: list[Shape] = [None] * n
    choice = [0] * n  # option index tried next at each segment
    at_level = [0] * levels  # segments before k on each level
    top = [-1] * n  # highest level used before segment k
    used = [0] * n  # distinct levels used before segment k
    k = 0
    while k >= 0:
        if choice[k] == len(options):
            choice[k] = 0
            k -= 1
            if k >= 0 and pattern[k] is not None:
                at_level[pattern[k][0]] -= 1
            continue
        shape = pattern[k] = options[choice[k]]
        choice[k] += 1
        t, u = top[k], used[k]
        if shape is not None:
            t = max(t, shape[0])
            u += not at_level[shape[0]]
        if t + 1 - u > n - 1 - k:  # more missing levels than segments left
            if t > top[k]:  # every later option sits higher still
                choice[k] = len(options)
            continue
        if k == n - 1:
            yield tuple(pattern)
            continue
        if shape is not None:
            at_level[shape[0]] += 1
        k += 1
        top[k], used[k] = t, u


def enumerate_strata(
    track: TrainTrack, height_bound: int, max_segments: int = 10
) -> list[Stratum]:
    """All proximal shape patterns with levels below the height bound,
    each decided for feasibility.

    A pattern assigns every segment ZERO or (level, fin/inf); proximal
    means the levels used are exactly 0..m-1 for some m.  Feasibility
    asks for strictly positive finite magnitudes satisfying every switch;
    witnesses are attached when they exist.

    Order contract: patterns come in the lexicographic order of their
    per-segment options, first segment first, where each segment's options
    run ZERO, then by level ascending, finite before infinite.  Only
    proximal patterns are generated, so levels stop below
    min(height_bound, number of segments), and every height bound at or
    above the number of segments gives the same list.

    Raises ValueError for a height bound below 1, for more than
    `max_segments` segments, and when `strata_count` exceeds
    `MAX_STRATA`, before any pattern is generated.
    """
    n = len(track.segments)
    if height_bound < 1:
        raise ValueError("height bound must be at least 1")
    if n > max_segments:
        raise ValueError(f"{n} segments exceeds the enumeration cap {max_segments}")
    # Patterns of ZERO and level-0 shapes alone number 3**n, so that cheap
    # bound refuses long tracks before the exact count is worked out.
    if 3**n > MAX_STRATA or strata_count(n, height_bound) > MAX_STRATA:
        raise ValueError(
            f"{n} segments at height bound {height_bound} give more than "
            f"{MAX_STRATA} strata; refusing to enumerate them"
        )
    out: list[Stratum] = []
    for pattern in _proximal_patterns(n, height_bound):
        shape_of = dict(zip(track.segments, pattern))
        equations: list[dict[str, Fraction]] = []
        for a, b in track.switches:
            red = _switch_reduction(shape_of, a, b)
            if red is None:
                break
            if red:
                equations.append(red)
        else:
            fin_vars = [s for s in track.segments if shape_of[s] and shape_of[s][1] == FIN]
            solution = _fm_feasible(fin_vars, equations)
            if solution is not None:
                witness = tuple(
                    ZERO
                    if shape_of[s] is None
                    else pair(shape_of[s][0], INF)
                    if shape_of[s][1] == INFINITE
                    else pair(shape_of[s][0], solution[s])
                    for s in track.segments
                )
                if validate(track, witness):
                    raise RuntimeError(
                        f"feasibility witness fails validation for pattern {pattern}"
                    )
                out.append(Stratum(pattern, True, witness))
                continue
        out.append(Stratum(pattern, False))
    return out


def height_filtration(
    track: TrainTrack, family: Sequence[Optional[Monomial]]
) -> Weights:
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
    for m in fam:
        if m is None:
            raise ValueError("every segment needs a (positive) family entry")
        if not isinstance(m, Monomial):
            raise TypeError(f"not a Monomial: {m!r}")
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
        if {d: c for d, c in sums_a.items() if c} != {
            d: c for d, c in sums_b.items() if c
        }:
            raise ValueError(
                f"switch {i} is not balanced identically in the parameter"
            )
    rank = {d: i for i, d in enumerate(sorted({m.degree for m in fam}))}
    return tuple(pair(rank[m.degree], m.coeff) for m in fam)
