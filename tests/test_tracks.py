"""Tests for branched graphs: validation, alignment, adjustment,
contiguity, strata, and the degree filtration."""

import itertools
from collections import Counter
from fractions import Fraction
from random import Random
from typing import Optional, Sequence

import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import random_track_family
from levelring import tracks
from levelring.tracks import (
    FIN,
    INFINITE,
    MAX_ADJUST_SUBSETS,
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
    # a count is exactly an int, never truncated or parsed
    for count in (2.7, "2", True):
        with pytest.raises(TypeError, match="free end count of 'a' must be an int"):
            TrainTrack(["a"], [], free_ends={"a": count})


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


def test_free_ends_name_only_segments():
    with pytest.raises(ValueError) as exc:
        TrainTrack(["x"], [], free_ends={"x": 2, "ghost": 5})
    assert str(exc.value) == "free_ends mention unknown segments: ['ghost']"
    # a zero count names no end, but a misspelt id is refused all the same
    with pytest.raises(ValueError) as exc:
        TrainTrack(["x", "y"], [(["x"], ["y"])], free_ends={"x": 1, "y": 1, "z": 0})
    assert str(exc.value) == "free_ends mention unknown segments: ['z']"


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


@pytest.mark.parametrize("w", [
    (pair(1, 1), pair(1, 1)),  # not proximal
    (pair(0, 1), pair(0, 1)),  # proximal
    (pair(0, 1), ZERO),
])
def test_contiguity_refuses_weights_that_are_not_invariant(w):
    assert validate(XY, w)
    with pytest.raises(ValueError, match="weights are not invariant: .'switch 0: "):
        is_contiguous(XY, w)


def test_spiral_weights_are_contiguous():
    assert is_contiguous(SPIRAL, SPIRAL_W)


def oracle_adjustments(track, w):
    """Every nonempty subset tried in turn, the valid ones collected."""
    bad = validate(track, w)
    if bad:
        raise ValueError(f"weights are not invariant: {[str(v) for v in bad]}")
    out = []
    for size in range(1, len(track.segments) + 1):
        for subset in itertools.combinations(track.segments, size):
            raised = raise_levels(track, w, subset)
            if not validate(track, raised):
                out.append((subset, raised))
    return out


def oracle_is_contiguous(track, w):
    bad = validate(track, w)
    if bad:
        raise ValueError(f"weights are not invariant: {[str(v) for v in bad]}")
    if not is_proximal(w):
        return False
    h = max((e.level for e in w if not e.is_zero), default=None)
    for _, raised in oracle_adjustments(track, w):
        top = max((e.level for e in raised if not e.is_zero), default=None)
        if top == h and align_weights(raised) != tuple(w):
            return False
    return True


def outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return ("refused", str(exc))


def test_adjustments_and_contiguity_agree_with_the_oracle():
    options = [ZERO, pair(0, 1), pair(0, 2), pair(0, "inf"), pair(1, 1), pair(1, 2), pair(1, "inf")]
    answers = Counter()
    for track in (XY, SPIRAL):
        for w in itertools.product(options, repeat=len(track.segments)):
            got = outcome(adjustments, track, w)
            assert got == outcome(oracle_adjustments, track, w), (track, w)
            contiguous = outcome(is_contiguous, track, w)
            assert contiguous == outcome(oracle_is_contiguous, track, w), (track, w)
            answers[type(got) is list, contiguous is True] += 1
    # invariant vectors, contiguous and not, are all well represented
    assert min(answers[True, True], answers[True, False]) > 20, answers


def test_contiguity_stops_at_the_first_disqualifying_adjustment(monkeypatch):
    tried = []

    def counted(track, w, subset):
        tried.append(subset)
        return raise_levels(track, w, subset)

    monkeypatch.setattr(tracks, "raise_levels", counted)
    # raising x alone keeps x + y = y with y infinite and disqualifies
    assert not is_contiguous(XY, (pair(0, 1), pair(1, "inf")))
    assert tried == [("x",)]


def test_oversized_adjustments_are_refused_before_any_subset(monkeypatch):
    def never(*args):
        raise AssertionError("a subset was tried")

    monkeypatch.setattr(tracks, "raise_levels", never)
    assert 2**16 - 1 <= MAX_ADJUST_SUBSETS < 2**17 - 1
    seventeen = TrainTrack([f"s{i}" for i in range(17)], [(["s0"], ["s1"])])
    w = (pair(0, 1),) * 17
    refusal = f"17 segments give more than {MAX_ADJUST_SUBSETS} subsets to adjust"
    with pytest.raises(ValueError, match=refusal):
        adjustments(seventeen, w)
    with pytest.raises(ValueError, match=refusal):
        is_contiguous(seventeen, w)
    # sixteen segments pass the bound and start trying subsets
    sixteen = TrainTrack([f"s{i}" for i in range(16)], [(["s0"], ["s1"])])
    with pytest.raises(AssertionError, match="a subset was tried"):
        adjustments(sixteen, (pair(0, 1),) * 16)


def test_input_weights_are_validated_once(monkeypatch):
    # every entry of SPIRAL_W is nonzero, so no raised vector equals it
    checked = []

    def counted(track, w):
        checked.append(tuple(w) == SPIRAL_W)
        return validate(track, w)

    monkeypatch.setattr(tracks, "validate", counted)
    for search in (is_contiguous, adjustments):
        checked.clear()
        search(SPIRAL, SPIRAL_W)
        assert checked.count(True) == 1, search
        assert len(checked) == 2**4, search  # the input, then 15 subsets


def test_each_search_keeps_its_first_refusal():
    # 17 segments whose weights are not invariant: adjustments refuses the
    # subset count first, contiguity the weights
    seventeen = TrainTrack([f"s{i}" for i in range(17)], [(["s0"], ["s1"])])
    w = (pair(0, 1), pair(0, 2)) + (pair(0, 1),) * 15
    with pytest.raises(ValueError, match="17 segments give more than"):
        adjustments(seventeen, w)
    with pytest.raises(ValueError, match="weights are not invariant"):
        is_contiguous(seventeen, w)


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
    # 13 segments give 3**13 > MAX_STRATA strata even at height bound 1
    big = TrainTrack([f"s{i}" for i in range(13)], [], free_ends=None)
    with pytest.raises(ValueError, match=f"more than {MAX_STRATA} strata"):
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
    the strict inequalities, then back-substitution for a witness.  A
    coefficient may be an int, as `_switch_reduction` gives it, and is
    made a Fraction first, so that no division yields a float."""
    equations = [{k: Fraction(v) for k, v in dict(eq).items() if v} for eq in equations]
    # constraints: (coeffs, const, is_eq); meaning sum + const (= or >) 0
    cons: list[tuple[dict[str, Fraction], Fraction, bool]] = [
        (eq, Fraction(0), True) for eq in equations
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
        if eval_affine(eq, Fraction(0)) != 0:
            return None
    return values


def product_patterns(n, height_bound):
    """Every proximal pattern on n segments, in order: the whole product
    of per-segment options with the patterns that are not proximal
    dropped."""
    options = [None]
    for lev in range(height_bound):
        options += [(lev, FIN), (lev, INFINITE)]
    for pattern in itertools.product(options, repeat=n):
        used = sorted({sh[0] for sh in pattern if sh is not None})
        if used == list(range(len(used))):
            yield pattern


def product_strata(track, height_bound):
    """The former enumerator, kept as the oracle: walk the whole product of
    per-segment options and drop the patterns that are not proximal."""
    out = []
    for pattern in product_patterns(len(track.segments), height_bound):
        shape_of = dict(zip(track.segments, pattern))
        equations = []
        contradictory = False
        for a, b in track.switches:
            red = tracks._switch_reduction(shape_of, a, b)
            if red is None:
                contradictory = True
                break
            if red:
                equations.append(dict(red))
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


def oracle_enumerate_strata(track, height_bound):
    """The per-pattern enumerator, kept as the oracle: every switch reduced
    and every system solved afresh for each pattern of the product walk."""
    out = []
    for pattern in product_patterns(len(track.segments), height_bound):
        shape_of = dict(zip(track.segments, pattern))
        equations = []
        for a, b in track.switches:
            red = tracks._switch_reduction(shape_of, a, b)
            if red is None:
                break
            if red:
                equations.append(red)
        else:
            fin_vars = [s for s in track.segments if shape_of[s] and shape_of[s][1] == FIN]
            solution = tracks._fm_feasible(fin_vars, equations)
            if solution is not None:
                witness = tuple(
                    ZERO
                    if shape_of[s] is None
                    else pair(shape_of[s][0], INF)
                    if shape_of[s][1] == INFINITE
                    else pair(shape_of[s][0], solution[s])
                    for s in track.segments
                )
                assert validate(track, witness) == []
                out.append(Stratum(pattern, True, witness))
                continue
        out.append(Stratum(pattern, False))
    return out


def random_system(rng):
    """0-6 variables in a shuffled order and 0-4 homogeneous equations over
    them with coefficients in -2..2, as Fractions or, as `_switch_reduction`
    gives them, plain ints; some rows empty or all zero and some a
    combination of the rows before them."""
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
            kind = rng.choice((int, Fraction))
            equations.append({v: kind(rng.randint(-2, 2)) for v in chosen})
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


def dealt_track(rng, n, k):
    """n segments and k <= n switches; each switch side takes one or two
    of the shuffled segment ends, so a segment may meet one switch twice,
    and the ends left over are free."""
    ends = [f"s{i}" for i in range(n) for _ in range(2)]
    rng.shuffle(ends)
    switches = []
    for left in range(k, 0, -1):
        # leave at least two ends for each switch still to come
        a = [ends.pop() for _ in range(rng.randint(1, min(2, len(ends) - 2 * left + 1)))]
        b = [ends.pop() for _ in range(rng.randint(1, min(2, len(ends) - 2 * left + 2)))]
        switches.append((a, b))
    return TrainTrack([f"s{i}" for i in range(n)], switches)


def test_strata_agree_with_the_per_pattern_oracle():
    # 200 tracks, 1-5 segments and 0-3 switches, at heights 1, 2 and n.
    # The oracle is slowest where every pattern is feasible, so four or
    # five segments with no switch run at height 1 only.  It takes a tenth
    # of a second over the 2,883 patterns of five segments at height 2 and
    # a second over the 24,483 at height 5, so those go to a third of such
    # tracks and to two; four segments run at height 4 (1,697 patterns) on
    # every other pair of switch counts.
    rng = Random(16)
    twice = feasible = 0
    for i in range(200):
        n = 1 + i % 5
        switches = min(i // 5 % 4, n)
        track = dealt_track(rng, n, switches)
        twice += any(max(Counter(a + b).values()) == 2 for a, b in track.switches)
        heights = {1, 2, n}
        if n >= 4 and not switches:
            heights = {1}
        elif n == 5:
            heights = {1, 2} if i // 5 % 3 == 1 else {1, 5} if i // 5 in (14, 23) else {1}
        elif n == 4 and i // 10 % 2:
            heights = {1, 2}
        for height in sorted(heights):
            got = enumerate_strata(track, height)
            assert got == oracle_enumerate_strata(track, height), (track, height)
            feasible += sum(s.feasible for s in got)
    # 99 tracks meet a switch twice with one segment; 25,978 witnesses
    assert twice > 80 and feasible > 20_000


@st.composite
def drawn_tracks(draw):
    """A dealt track of 1-5 segments and 0-3 switches with a height bound
    of 1..n, kept to at most 3,000 patterns so that the oracle stays fast."""
    n = draw(st.integers(1, 5))
    switches = draw(st.integers(0, min(3, n)))
    height = draw(st.integers(1, n))
    assume(strata_count(n, height) <= 3000)
    return dealt_track(Random(draw(st.integers(0, 2**32 - 1))), n, switches), height


@settings(max_examples=max(100, settings.default.max_examples), deadline=None)
@given(drawn_tracks())
def test_strata_oracle_on_drawn_tracks(drawn):
    track, height = drawn
    assert enumerate_strata(track, height) == oracle_enumerate_strata(track, height)


def test_each_witness_value_is_built_once(monkeypatch):
    # x + y = z beside a free w at height 3: 147 feasible strata with 534
    # nonzero witness entries share their systems, and pair may run at
    # most once per (system, segment, shape): 164 times.
    track = TrainTrack(["x", "y", "z", "w"], [(["x", "y"], ["z"])])
    built = []
    real = tracks.pair

    def counted(level, magnitude):
        built.append((level, magnitude))
        return real(level, magnitude)

    monkeypatch.setattr(tracks, "pair", counted)
    strata = enumerate_strata(track, 3)
    keys = set()
    for s in strata:
        if s.feasible:
            shape_of = dict(zip(track.segments, s.pattern))
            fin = tuple(seg for seg in track.segments if shape_of[seg] and shape_of[seg][1] == FIN)
            eqs = tuple(r for a, b in track.switches if (r := tracks._switch_reduction(shape_of, a, b)))
            keys |= {((fin, eqs), seg, sh) for seg, sh in shape_of.items() if sh is not None}
    entries = [v for s in strata if s.feasible for v in s.witness if not v.is_zero]
    assert len(built) <= len(keys) < len(entries) // 2
    # and once per distinct value in the call: equal values are one object
    assert len(built) == len(set(entries)) == len(set(map(id, entries)))
    monkeypatch.setattr(tracks, "pair", real)
    assert strata == oracle_enumerate_strata(track, 3)


def test_enumeration_hashes_no_fraction(monkeypatch):
    # switch equations keep int coefficients, and witness values are found
    # by their levels and reduced pairs, so a system key or a witness value
    # never hashes a Fraction
    track = TrainTrack(["a", "b", "c", "d"], [(["a", "b"], ["c"]), (["c"], ["b", "d"])])
    hashed = []
    real = Fraction.__hash__
    monkeypatch.setattr(Fraction, "__hash__", lambda self: hashed.append(self) or real(self))
    assert hash(Fraction(1, 3)) == real(Fraction(1, 3)) and len(hashed) == 1
    hashed.clear()
    strata = enumerate_strata(track, 4)
    assert hashed == []
    assert len(strata) == 1697 and sum(s.feasible for s in strata) == 59


@pytest.mark.parametrize(
    "track, height, work",
    [
        # strata, feasible, then calls of _switch_reduction, _fm_feasible,
        # pair and validate
        (TrainTrack(["a", "b", "c", "d"], [(["a", "b"], ["c"]), (["c"], ["b", "d"])]), 4, (1697, 59, 561, 16, 7, 59)),
        (TrainTrack(["x", "y", "z", "w"], [(["x", "y"], ["z"])]), 3, (1313, 147, 317, 16, 8, 147)),
    ],
)
def test_enumeration_tables_pin_the_work_they_save(monkeypatch, track, height, work):
    # one reduction per distinct restriction of a prefix to a switch, one
    # solve per distinct system, one pair per distinct witness value, and
    # one validate per feasible witness
    calls = Counter()
    for name in ("_switch_reduction", "_fm_feasible", "pair", "validate"):
        real = getattr(tracks, name)
        monkeypatch.setattr(tracks, name, lambda *args, _real=real, _name=name: calls.update([_name]) or _real(*args))
    strata = enumerate_strata(track, height)
    counted = (calls["_switch_reduction"], calls["_fm_feasible"], calls["pair"], calls["validate"])
    assert (len(strata), sum(s.feasible for s in strata), *counted) == work
    monkeypatch.undo()
    assert strata == oracle_enumerate_strata(track, height)


def test_switches_decided_at_different_depths_agree_with_both_oracles():
    # 5-6 segments and 2-3 switches whose last segments differ, so the
    # walk decides them at different prefix depths; heights 1 and 2, and 3
    # on five segments (the product oracle walks up to 7**5 patterns)
    rng = Random(17)
    tracks_seen = feasible = 0
    while tracks_seen < 12:
        n = 5 + tracks_seen % 2
        track = dealt_track(rng, n, rng.randint(2, 3))
        position = {s: i for i, s in enumerate(track.segments)}
        if len({max(position[s] for s in a + b) for a, b in track.switches}) < 2:
            continue
        tracks_seen += 1
        for height in (1, 2) if n == 6 else (1, 2, 3):
            got = enumerate_strata(track, height)
            assert got == product_strata(track, height), (track, height)
            assert got == oracle_enumerate_strata(track, height), (track, height)
            feasible += sum(s.feasible for s in got)
    assert feasible > 100


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

    monkeypatch.setattr(tracks, "Stratum", never)
    seven = TrainTrack([f"s{i}" for i in range(7)], [(["s0"], ["s1"])])
    with pytest.raises(ValueError, match=f"more than {MAX_STRATA} strata"):
        enumerate_strata(seven, 4)
    # a long track is refused without working out its exact count
    monkeypatch.setattr(tracks, "strata_count", never)
    long = TrainTrack([f"s{i}" for i in range(5000)], [])
    with pytest.raises(ValueError, match=f"more than {MAX_STRATA} strata"):
        enumerate_strata(long, 16)


def test_twelve_segments_at_height_one_pass_every_refusal(monkeypatch):
    # 3**12 = 531,441 strata is within MAX_STRATA, so the count alone lets
    # it through; stop at the first pattern rather than enumerate them all
    class Started(Exception):
        pass

    def started(*args):
        raise Started

    monkeypatch.setattr(tracks, "Stratum", started)
    twelve = TrainTrack([f"s{i}" for i in range(12)], [(["s0"], ["s1"])])
    assert strata_count(12, 1) == 3**12 <= MAX_STRATA < 3**13
    with pytest.raises(Started):
        enumerate_strata(twelve, 1)


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
