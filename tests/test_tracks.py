"""Tests for branched graphs: validation, alignment, adjustment,
contiguity, strata, and the degree filtration."""

import itertools
from fractions import Fraction
from random import Random
from typing import Optional, Sequence

import pytest
from hypothesis import given, strategies as st

from helpers import random_track_family
from levelring import tracks
from levelring.tracks import (
    FIN,
    INFINITE,
    MAX_STRATA,
    Stratum,
    TrainTrack,
    adjustments,
    align_weights,
    enumerate_strata,
    height_filtration,
    is_contiguous,
    is_proximal,
    raise_levels,
    strata_count,
    validate,
)
from levelring.values import INF, XRat, ZERO, pair
from levelring.vectors import monomial, scale_vec

# the one-switch track with equation x + y = y
XY = TrainTrack(["x", "y"], [(["x", "y"], ["y"])])

# spiral-onto-a-curve track: x and y merge into w, which splits into y and z
SPIRAL = TrainTrack(
    ["x", "y", "z", "w"], [(["x", "y"], ["w"]), (["w"], ["y", "z"])]
)
SPIRAL_W = (pair(0, 1), pair(1, 1), pair(0, 1), pair(1, 1))

# same picture with the determined segment merged away: x + y = y + z
MERGED = TrainTrack(["x", "y", "z"], [(["x", "y"], ["y", "z"])])


# ---------------------------------------------------------------------------
# structure

def test_end_counting_and_free_ends():
    assert XY.free_end_map == {"x": 1, "y": 0}
    assert SPIRAL.free_end_map == {"x": 1, "y": 0, "z": 1, "w": 0}
    loops = TrainTrack(["a", "b"], [], free_ends={"a": 2, "b": 2})
    assert loops.free_end_map == {"a": 2, "b": 2}


def test_structure_guards():
    with pytest.raises(ValueError):
        TrainTrack(["x", "x"], [])
    with pytest.raises(ValueError):
        TrainTrack(["x"], [(["x", "x"], ["y"])])  # unknown segment y
    with pytest.raises(ValueError):
        TrainTrack(["x"], [(["x", "x"], ["x"])])  # three ends of x
    with pytest.raises(ValueError):
        TrainTrack(["x", "y"], [(["x", "y"], ["y"])], free_ends={"x": 0})
    with pytest.raises(ValueError):
        TrainTrack([], [])


def test_weight_length_checked():
    with pytest.raises(ValueError):
        validate(XY, (pair(0, 1),))


# ---------------------------------------------------------------------------
# validation

def test_validate_examples():
    assert validate(SPIRAL, SPIRAL_W) == []
    assert validate(XY, (pair(0, 1), pair(1, 1))) == []
    bad = validate(XY, (pair(0, 1), pair(0, 1)))
    assert len(bad) == 1
    assert bad[0].switch == 0
    assert (bad[0].left, bad[0].right) == (pair(0, 2), pair(0, 1))


def test_validate_respects_multiplicity():
    # y enters the switch with both of its ends on side A: x = y + y
    double = TrainTrack(["x", "y"], [(["y", "y"], ["x"])], free_ends={"x": 1})
    assert validate(double, (pair(0, 2), pair(0, 1))) == []
    assert validate(double, (pair(0, 1), pair(0, 1))) != []


@given(st.integers(min_value=0, max_value=4))
def test_uniform_level_shift_preserves_validity(k):
    shifted = scale_vec(pair(k, 1), SPIRAL_W)
    assert validate(SPIRAL, shifted) == []


# ---------------------------------------------------------------------------
# alignment

def test_align_closes_gaps_only():
    assert align_weights((pair(0, 1), pair(2, 1), pair(1, 1))) == (
        pair(0, 1),
        pair(2, 1),
        pair(1, 1),
    )
    assert align_weights((pair(0, 1), pair(2, 1), pair(2, 1))) == (
        pair(0, 1),
        pair(1, 1),
        pair(1, 1),
    )
    assert align_weights((pair(1, 1), pair(2, 1), pair(1, 1))) == (
        pair(0, 1),
        pair(1, 1),
        pair(0, 1),
    )
    assert align_weights((ZERO, pair(3, "inf"))) == (ZERO, pair(0, "inf"))


levels = st.integers(min_value=0, max_value=5)
weights_vecs = st.lists(
    st.one_of(
        st.just(ZERO),
        st.builds(pair, levels, st.sampled_from([XRat(1), XRat(Fraction(1, 2)), INF])),
    ),
    min_size=1,
    max_size=5,
).map(tuple)


@given(weights_vecs)
def test_align_is_idempotent(w):
    assert align_weights(align_weights(w)) == align_weights(w)


@given(weights_vecs)
def test_align_levels_are_an_initial_range(w):
    aligned = align_weights(w)
    used = sorted({e.level for e in aligned if not e.is_zero})
    assert used == list(range(len(used)))
    assert is_proximal(aligned)


def test_align_preserves_validity_on_spiral():
    gapped = scale_vec(pair(2, 1), SPIRAL_W)  # levels {2,3}
    assert validate(SPIRAL, gapped) == []
    aligned = align_weights(gapped)
    assert validate(SPIRAL, aligned) == []
    assert aligned == SPIRAL_W


# ---------------------------------------------------------------------------
# adjustments and contiguity

def test_adjustment_moves_spiral_level_up():
    adj = adjustments(XY, (pair(0, 1), pair(1, "inf")))
    by_subset = dict(adj)
    assert ("x",) in by_subset
    assert by_subset[("x",)] == (pair(1, 1), pair(1, "inf"))


def test_adjustments_with_finite_top_weight():
    # raising x alone breaks x + y = y when y is finite
    adj = adjustments(XY, (pair(0, 1), pair(1, 2)))
    assert [s for s, _ in adj] == [("y",), ("x", "y")]


def test_all_segments_adjustment_always_valid():
    for track, w in [(XY, (pair(0, 1), pair(1, 1))), (SPIRAL, SPIRAL_W)]:
        adj = adjustments(track, w)
        assert (track.segments, raise_levels(track, w, track.segments)) in adj


def test_adjust_all_then_align_round_trips():
    for track, w in [(XY, (pair(0, 1), pair(1, 1))), (SPIRAL, SPIRAL_W)]:
        raised = raise_levels(track, w, track.segments)
        assert align_weights(raised) == align_weights(w)


def test_adjustments_require_invariant_input():
    with pytest.raises(ValueError):
        adjustments(XY, (pair(0, 1), pair(0, 1)))


def test_contiguity_on_the_one_switch_track():
    expected = {
        (ZERO, ZERO): True,
        (ZERO, pair(0, 1)): True,
        (ZERO, pair(0, "inf")): True,
        (pair(0, 1), pair(1, 2)): True,  # finite spiral-onto-curve weights
        (pair(0, 1), pair(1, "inf")): False,  # the excluded boundary ray
        (pair(0, 1), pair(0, "inf")): True,
        (pair(0, "inf"), pair(0, "inf")): True,
        (pair(0, "inf"), pair(1, 2)): True,
        (pair(0, "inf"), pair(1, "inf")): False,  # the excluded corner
    }
    for w, want in expected.items():
        assert is_contiguous(XY, w) == want, w


def test_contiguity_rejects_non_proximal():
    assert not is_contiguous(XY, (ZERO, pair(1, 1)))


def test_spiral_weights_are_contiguous():
    assert is_contiguous(SPIRAL, SPIRAL_W)


# ---------------------------------------------------------------------------
# strata

def shapes(*pairs):
    return tuple(pairs)


def test_one_switch_strata_exactly():
    strata = enumerate_strata(XY, 2)
    feasible = {s.pattern for s in strata if s.feasible}
    zero_axis = {
        shapes(None, None),
        shapes(None, (0, "fin")),
        shapes(None, (0, "inf")),
    }
    lower_x = {
        shapes((0, a), (1, b)) for a in ("fin", "inf") for b in ("fin", "inf")
    }
    equal_with_inf_y = {
        shapes((0, "fin"), (0, "inf")),
        shapes((0, "inf"), (0, "inf")),
    }
    assert feasible == zero_axis | lower_x | equal_with_inf_y
    # and the level inversion is enumerated but infeasible
    verdict = {s.pattern: s.feasible for s in strata}
    assert verdict[shapes((1, "fin"), (0, "fin"))] is False
    assert verdict[shapes((0, "fin"), (0, "fin"))] is False


def test_strata_witnesses_validate():
    for track in (XY, SPIRAL, MERGED):
        for s in enumerate_strata(track, 2):
            if s.feasible:
                assert s.witness is not None
                assert validate(track, s.witness) == []
                assert is_proximal(s.witness)
            else:
                assert s.witness is None


def test_unconstrained_track_has_all_patterns_feasible():
    curves = TrainTrack(["a", "b"], [], free_ends={"a": 2, "b": 2})
    strata = enumerate_strata(curves, 2)
    assert all(s.feasible for s in strata)
    assert len(strata) == 17  # 25 raw patterns minus 8 non-proximal ones


def test_strata_cap():
    big = TrainTrack([f"s{i}" for i in range(11)], [], free_ends=None)
    with pytest.raises(ValueError):
        enumerate_strata(big, 1)
    small = TrainTrack(["a", "b", "c", "d"], [], free_ends=None)
    assert len(enumerate_strata(small, 1)) == 3**4


def test_strata_deterministic_order():
    a = enumerate_strata(XY, 2)
    b = enumerate_strata(XY, 2)
    assert [s.pattern for s in a] == [s.pattern for s in b]


def test_witness_solves_a_genuine_linear_system():
    # u + v = w forces the two finite magnitudes to split w's
    merge = TrainTrack(["u", "v", "w"], [(["u", "v"], ["w"])])
    strata = enumerate_strata(merge, 1)
    flat = shapes((0, "fin"), (0, "fin"), (0, "fin"))
    hit = next(s for s in strata if s.pattern == flat)
    assert hit.feasible
    u, v, w = hit.witness
    assert u.magnitude + v.magnitude == w.magnitude


def oracle_fm_feasible(
    variables: Sequence[str], equations: Sequence[dict[str, Fraction]]
) -> Optional[dict[str, Fraction]]:
    """The former affine eliminator, kept as the oracle: it carries a
    constant term through every step, which homogeneous input keeps 0.
    Strictly positive rational solution of the homogeneous equations, or
    None.  Equality elimination by substitution, then Fourier-Motzkin on
    the strict inequalities, then back-substitution for a witness."""
    # constraints: (coeffs, const, is_eq); meaning sum + const (= or >) 0
    cons: list[tuple[dict[str, Fraction], Fraction, bool]] = [
        ({k: v for k, v in eq.items() if v}, Fraction(0), True) for eq in equations
    ]
    cons += [({v: Fraction(1)}, Fraction(0), False) for v in variables]
    order: list[tuple[str, str, object]] = []  # (kind, var, data) in elim order

    def substitute(
        target: dict[str, Fraction], const: Fraction, var: str,
        expr: dict[str, Fraction], expr_const: Fraction,
    ) -> tuple[dict[str, Fraction], Fraction]:
        if var not in target:
            return target, const
        c = target[var]
        out = {k: v for k, v in target.items() if k != var}
        for k, v in expr.items():
            out[k] = out.get(k, Fraction(0)) + c * v
        return {k: v for k, v in out.items() if v}, const + c * expr_const

    # 1) consume equalities
    while True:
        eq_idx = next(
            (i for i, (co, _, is_eq) in enumerate(cons) if is_eq and co), None
        )
        if eq_idx is None:
            break
        coeffs, const, _ = cons.pop(eq_idx)
        var = sorted(coeffs)[0]
        c = coeffs[var]
        expr = {k: -v / c for k, v in coeffs.items() if k != var}
        expr_const = -const / c
        order.append(("sub", var, (expr, expr_const)))
        cons = [
            (*substitute(co, k, var, expr, expr_const), is_eq)
            for co, k, is_eq in cons
        ]
    for co, const, is_eq in cons:
        if is_eq and not co and const != 0:
            return None
    cons = [(co, const, is_eq) for co, const, is_eq in cons if not is_eq]

    # 2) Fourier-Motzkin on the strict inequalities
    remaining = sorted({v for co, _, _ in cons for v in co})
    for var in remaining:
        lowers, uppers, rest = [], [], []
        for co, const, _ in cons:
            c = co.get(var, Fraction(0))
            if c > 0:
                lowers.append((co, const))
            elif c < 0:
                uppers.append((co, const))
            else:
                rest.append((co, const, False))
        order.append(("fm", var, (lowers, uppers)))
        combined = []
        for (lco, lconst), (uco, uconst) in itertools.product(lowers, uppers):
            lc, uc = lco[var], uco[var]
            co = {
                k: -uc * lco.get(k, Fraction(0)) + lc * uco.get(k, Fraction(0))
                for k in set(lco) | set(uco)
                if k != var
            }
            co = {k: v for k, v in co.items() if v}
            combined.append((co, -uc * lconst + lc * uconst, False))
        cons = rest + combined
    for co, const, _ in cons:
        if const <= 0:  # variables all gone; strict inequality on a constant
            return None

    # 3) back-substitute a witness
    values: dict[str, Fraction] = {}

    def eval_affine(co: dict[str, Fraction], const: Fraction) -> Fraction:
        return const + sum((c * values[k] for k, c in co.items()), Fraction(0))

    for kind, var, data in reversed(order):
        if kind == "fm":
            lowers, uppers = data
            los = [
                -eval_affine({k: v for k, v in co.items() if k != var}, const)
                / co[var]
                for co, const in lowers
            ]
            ups = [
                -eval_affine({k: v for k, v in co.items() if k != var}, const)
                / co[var]
                for co, const in uppers
            ]
            if los and ups:
                values[var] = (max(los) + min(ups)) / 2
            elif los:
                values[var] = max(los) + 1
            elif ups:
                values[var] = min(ups) - 1
            else:
                values[var] = Fraction(1)
        else:
            expr, expr_const = data
            values[var] = eval_affine(expr, expr_const)
    for v in variables:
        values.setdefault(v, Fraction(1))
        if values[v] <= 0:
            return None
    for eq in equations:
        if eval_affine({k: v for k, v in eq.items() if v}, Fraction(0)) != 0:
            return None
    return values


def product_strata(track, height_bound):
    """The former enumerator, kept as the oracle: walk the whole product of
    per-segment options and drop the patterns that are not proximal."""
    options = [None]
    for lev in range(height_bound):
        options += [(lev, FIN), (lev, INFINITE)]
    out = []
    for pattern in itertools.product(options, repeat=len(track.segments)):
        used = sorted({sh[0] for sh in pattern if sh is not None})
        if used != list(range(len(used))):
            continue  # not proximal
        shape_of = dict(zip(track.segments, pattern))
        equations = []
        contradictory = False
        for a, b in track.switches:
            red = tracks._switch_reduction(shape_of, a, b)
            if red is None:
                contradictory = True
                break
            if red:
                equations.append(red)
        if contradictory:
            out.append(Stratum(pattern, False))
            continue
        fin_vars = [s for s in track.segments if shape_of[s] and shape_of[s][1] == FIN]
        solution = oracle_fm_feasible(fin_vars, equations)
        if solution is None:
            out.append(Stratum(pattern, False))
            continue
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
    return out


def random_system(rng):
    """0-6 variables in a shuffled order and 0-4 homogeneous equations over
    them with coefficients in -2..2, some rows empty or all zero and some
    a combination of the rows before them."""
    variables = [f"v{i}" for i in range(rng.randint(0, 6))]
    rng.shuffle(variables)
    equations = []
    for _ in range(rng.randint(0, 4)):
        roll = rng.random()
        if roll < 0.1:
            equations.append({})
        elif roll < 0.3 and equations:
            a, b = rng.choice(equations), rng.choice(equations)
            ka, kb = rng.randint(-2, 2), rng.randint(-2, 2)
            equations.append({
                v: ka * a.get(v, 0) + kb * b.get(v, 0) for v in a.keys() | b.keys()
            })
        else:
            chosen = rng.sample(variables, rng.randint(0, len(variables)))
            equations.append({v: Fraction(rng.randint(-2, 2)) for v in chosen})
    return variables, equations


def test_fm_agrees_with_the_affine_oracle():
    rng = Random(9)
    verdicts = []
    for _ in range(5000):
        variables, equations = random_system(rng)
        got = tracks._fm_feasible(variables, equations)
        assert got == oracle_fm_feasible(variables, equations), (variables, equations)
        verdicts.append(got is not None)
    assert 500 < sum(verdicts) < 4500  # both verdicts are well exercised


def random_track(rng, n):
    """n segments whose ends are dealt onto the sides of random switches;
    the ends left over are free."""
    segments = [f"s{i}" for i in range(n)]
    ends = [s for s in segments for _ in range(2)]
    rng.shuffle(ends)
    switches = []
    while len(ends) >= 2 and rng.random() < 0.9:
        a = [ends.pop() for _ in range(rng.randint(1, min(2, len(ends) - 1)))]
        b = [ends.pop() for _ in range(rng.randint(1, min(2, len(ends))))]
        switches.append((a, b))
    return TrainTrack(segments, switches)


def test_strata_agree_with_the_product_oracle():
    # every (segments, height) pair with 1-5 segments and heights 1-6; five
    # segments once per height, because the oracle walks up to 13**5 patterns
    cases = [(5, h) for h in range(1, 7)]
    cases += [(1 + i % 4, 1 + i // 4 % 6) for i in range(194)]
    rng = Random(2024)
    for n, height in cases:
        track = random_track(rng, n)
        want = product_strata(track, height)
        assert enumerate_strata(track, height) == want, (track, height)
        assert strata_count(n, height) == len(want)


def test_heights_past_the_segment_count_add_nothing():
    rng = Random(7)
    for n in range(1, 6):
        for _ in range(3 if n < 5 else 1):
            track = random_track(rng, n)
            base = enumerate_strata(track, n)
            for height in (n + 1, 3 * n, 10**9):
                assert enumerate_strata(track, height) == base


def test_strata_count_cap():
    assert strata_count(6, 6) == 423_857 <= MAX_STRATA
    assert strata_count(7, 3) <= MAX_STRATA < strata_count(7, 4)
    assert strata_count(7, 7) == strata_count(7, 16) == 8_560_947


def test_oversized_strata_are_refused_before_enumerating(monkeypatch):
    def never(*args):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(tracks, "_proximal_patterns", never)
    seven = TrainTrack([f"s{i}" for i in range(7)], [(["s0"], ["s1"])])
    with pytest.raises(ValueError, match=f"more than {MAX_STRATA} strata"):
        enumerate_strata(seven, 4)
    # a long track is refused without working out its exact count
    monkeypatch.setattr(tracks, "strata_count", never)
    long = TrainTrack([f"s{i}" for i in range(5000)], [])
    with pytest.raises(ValueError, match=f"more than {MAX_STRATA} strata"):
        enumerate_strata(long, 16, max_segments=10**4)


# ---------------------------------------------------------------------------
# height filtration

def test_spiral_filtration():
    fam = (monomial(0, 1, 0), monomial(0, 1, 1), monomial(0, 1, 0))
    assert height_filtration(MERGED, fam) == (pair(0, 1), pair(1, 1), pair(0, 1))


def test_constant_family_stays_flat():
    fam = (monomial(0, 2, 0), monomial(0, 3, 0), monomial(0, 2, 0))
    assert height_filtration(MERGED, fam) == (pair(0, 2), pair(0, 3), pair(0, 2))


def test_three_distinct_degrees():
    curves = TrainTrack(["a", "b", "c"], [], free_ends={"a": 2, "b": 2, "c": 2})
    fam = (monomial(0, 1, 5), monomial(0, 2, 0), monomial(0, 3, 2))
    got = height_filtration(curves, fam)
    assert got == (pair(2, 1), pair(0, 2), pair(1, 3))
    assert is_proximal(got)
    assert validate(curves, got) == []


def test_filtration_guards():
    with pytest.raises(ValueError):
        height_filtration(MERGED, (monomial(0, 1, 0), monomial(0, 1, 1)))
    with pytest.raises(ValueError):
        height_filtration(
            MERGED, (monomial(0, 1, 0), monomial(0, 1, 1), monomial(1, 1, 0))
        )
    with pytest.raises(ValueError):
        height_filtration(
            MERGED, (monomial(0, 1, 0), monomial(0, 1, 1), monomial(0, 2, 0))
        )
    with pytest.raises(ValueError):
        height_filtration(MERGED, (None, monomial(0, 1, 1), monomial(0, 1, 0)))


def test_random_balanced_families_filter_cleanly():
    rng = Random(4242)
    for _ in range(50):
        track, family = random_track_family(rng)
        got = height_filtration(track, family)
        assert validate(track, got) == []
        assert is_proximal(got)
