"""Tests for weight vectors: scaling, cones, projective classes, limits."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, strategies as st

from levelring import vectors as vectors_module
from levelring.values import INF, XRat, ZERO, pair
from levelring.vectors import (
    Monomial,
    ProjClass,
    is_cone_closed,
    is_lattice_point,
    level_pattern,
    limit_points,
    monomial,
    normalized_limit,
    proj_canonical,
    scale_vec,
    value_at,
)


def brute_canonical(vec):
    """Independent oracle for proj_canonical.

    Try rescaling by the reciprocal of every finite magnitude present and
    keep the results whose largest finite magnitude is exactly 1.  All hits
    must agree (the representative is unique), and that is the answer.
    """
    vec = tuple(vec)
    finite = [e.magnitude for e in vec if not e.is_zero and not e.magnitude.is_infinite]
    if not finite:
        return vec
    hits = set()
    for r in finite:
        w = tuple(e if e.is_zero else e.scale(XRat(1) / r) for e in vec)
        wf = [e.magnitude for e in w if not e.is_zero and not e.magnitude.is_infinite]
        if max(wf) == XRat(1):
            hits.add(w)
    assert len(hits) == 1, "canonical representative should be unique"
    return next(iter(hits))


def oracle_limit_points(f):
    """The former class-by-class search, kept as the oracle: one class per
    nonzero reference entry, compared with every class seen so far and
    kept in first-seen order when new."""
    if all(m is None for m in f):
        raise ValueError("family has no nonzero entry")
    seen = []
    for j, m in enumerate(f):
        if m is None:
            continue
        cls = ProjClass(normalized_limit(f, j))
        if cls not in seen:
            seen.append(cls)
    return seen


def random_family(rng):
    """1-7 entries, some None, with degrees from a small range so that
    they repeat."""
    return tuple(
        None if rng.random() < 0.2
        else Monomial(rng.randint(0, 3), Fraction(rng.randint(1, 9), rng.randint(1, 4)),
                      rng.randint(-2, 2))
        for _ in range(rng.randint(1, 7))
    )


# ---------------------------------------------------------------------------
# strategies

finite_mags = st.builds(
    Fraction,
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=8),
)

entries = st.one_of(
    st.just(ZERO),
    st.builds(pair, st.integers(min_value=0, max_value=4), finite_mags.map(XRat)),
    st.builds(pair, st.integers(min_value=0, max_value=4), st.just(INF)),
)

vectors = st.lists(entries, min_size=1, max_size=6).map(tuple)

nonzero_vectors = vectors.filter(lambda v: any(not e.is_zero for e in v))

positive_rationals = finite_mags

families = st.lists(
    st.one_of(
        st.none(),
        st.builds(
            Monomial,
            st.integers(min_value=0, max_value=3),
            finite_mags,
            st.integers(min_value=-3, max_value=3),
        ),
    ),
    min_size=1,
    max_size=5,
).map(tuple)

nonzero_families = families.filter(lambda f: any(m is not None for m in f))


# ---------------------------------------------------------------------------
# scaling and predicates

def test_scaling_by_level_one_scalar_shifts_levels():
    assert scale_vec(pair(1, 1), (pair(0, 1), pair(0, 2))) == (pair(1, 1), pair(1, 2))


def test_scaling_by_real_scalar_keeps_levels():
    assert scale_vec(pair(0, 3), (pair(2, 1), ZERO)) == (pair(2, 3), ZERO)


def test_scaling_by_zero_annihilates():
    assert scale_vec(ZERO, (pair(2, 1), pair(0, "inf"))) == (ZERO, ZERO)


def test_lattice_points():
    assert is_lattice_point((pair(1, "inf"), pair(0, "inf")))
    assert not is_lattice_point((pair(1, "inf"), pair(0, 5)))
    assert not is_lattice_point((ZERO, ZERO))
    assert not is_lattice_point((pair(0, "inf"), ZERO))


def test_cone_closure_check():
    ray = {(pair(0, Fraction(k)), pair(1, Fraction(2 * k))) for k in range(1, 5)}
    # closed under the scalars that permute this finite sample
    assert is_cone_closed(ray, [pair(0, 1)])
    assert not is_cone_closed(ray, [pair(0, 2)])  # (0,4),(1,8) scales out of sample
    with_doubles = ray | {(pair(0, Fraction(2 * k)), pair(1, Fraction(4 * k))) for k in range(1, 5)}
    assert not is_cone_closed(with_doubles, [pair(0, 2)])  # k=4 row still escapes
    axis = {(ZERO, ZERO)}
    assert is_cone_closed(axis, [ZERO, pair(0, 7), pair(3, "inf")])


# ---------------------------------------------------------------------------
# canonical forms

def test_canonical_form_examples():
    assert proj_canonical((pair(0, 1), pair(0, 4), pair(0, 1))) == (
        pair(0, Fraction(1, 4)),
        pair(0, 1),
        pair(0, Fraction(1, 4)),
    )
    fixed = (pair(1, "inf"), pair(0, "inf"))
    assert proj_canonical(fixed) == fixed


def test_canonical_form_mixed_infinite_derived():
    v = (pair(2, 6), pair(1, "inf"), pair(2, 2))
    expected = brute_canonical(v)
    assert proj_canonical(v) == expected
    assert expected == (pair(2, 1), pair(1, "inf"), pair(2, Fraction(1, 3)))


def test_zero_vector_has_no_class():
    with pytest.raises(ValueError):
        proj_canonical((ZERO, ZERO))
    with pytest.raises(ValueError):
        ProjClass((ZERO,))


@given(nonzero_vectors)
def test_canonical_matches_brute_force(v):
    assert proj_canonical(v) == brute_canonical(v)


@given(nonzero_vectors)
def test_canonical_is_idempotent(v):
    w = proj_canonical(v)
    assert proj_canonical(w) == w


@given(nonzero_vectors, positive_rationals)
def test_canonical_kills_real_scaling(v, lam):
    scaled = scale_vec(pair(0, lam), v)
    assert proj_canonical(scaled) == proj_canonical(v)
    assert ProjClass(scaled) == ProjClass(v)
    assert level_pattern(scaled) == level_pattern(v)


@given(nonzero_vectors, positive_rationals)
def test_class_membership(v, lam):
    cls = ProjClass(v)
    assert scale_vec(pair(0, lam), v) in cls


def test_level_patterns():
    assert level_pattern((pair(1, 3), pair(1, 1))) == (1, 1)
    assert level_pattern((ZERO, pair(0, 5))) == (None, 0)
    assert level_pattern((pair(0, "inf"), pair(1, 2))) == (0, 1)


# ---------------------------------------------------------------------------
# monomial families and their limits

def test_spiral_family_limits():
    f = (monomial(0, 1, 0), monomial(0, 1, 1), monomial(0, 1, 0))
    assert normalized_limit(f, 1) == (ZERO, pair(0, 1), ZERO)
    assert normalized_limit(f, 0) == (pair(0, 1), pair(0, "inf"), pair(0, 1))


def test_level_one_family_two_limits():
    g = (monomial(1, 1, 1), monomial(1, 1, 0))
    assert normalized_limit(g, 0) == (pair(1, 1), pair(0, "inf"))
    assert normalized_limit(g, 1) == (pair(1, "inf"), pair(1, 1))
    got = {c.canon for c in limit_points(g)}
    assert got == {
        (pair(1, 1), pair(0, "inf")),
        (pair(1, "inf"), pair(1, 1)),
    }


def test_equal_degree_family_single_limit():
    f = (monomial(0, 2, 3), monomial(0, 4, 3))
    classes = limit_points(f)
    assert [c.canon for c in classes] == [(pair(0, Fraction(1, 2)), pair(0, 1))]


def test_constant_family():
    assert [c.canon for c in limit_points((monomial(0, 1, 0),))] == [(pair(0, 1),)]


def test_family_guards():
    with pytest.raises(ValueError):
        limit_points((None, None))
    f = (None, monomial(0, 1, 0))
    with pytest.raises(ValueError):
        normalized_limit(f, 0)
    with pytest.raises(ValueError):
        monomial(0, 0, 1)  # zero coefficient
    with pytest.raises(ValueError):
        monomial(0, "inf", 1)
    for level, degree in ((0.5, 1), (0, 1.5), (True, 0)):
        with pytest.raises(TypeError, match="level and degree must be ints"):
            Monomial(level, Fraction(1), degree)


def test_limit_points_agree_with_the_oracle():
    rng = Random(41)
    repeated = gaps = 0
    for _ in range(1500):
        f = random_family(rng)
        if all(m is None for m in f):
            continue
        assert limit_points(f) == oracle_limit_points(f), f
        degrees = [m.degree for m in f if m is not None]
        repeated += len(set(degrees)) < len(degrees)
        gaps += None in f
    assert repeated > 500 and gaps > 500  # both shapes are well exercised


def test_limit_points_build_one_class_per_degree(monkeypatch):
    calls = []

    def counted(f, j):
        calls.append(j)
        return normalized_limit(f, j)

    monkeypatch.setattr(vectors_module, "normalized_limit", counted)
    f = (None, monomial(0, 1, 2), monomial(1, 3, 0), monomial(0, 2, 2), None,
         monomial(2, 1, 0), monomial(0, 5, 1))
    classes = limit_points(f)
    assert calls == [1, 2, 6]  # each degree's first index, in first-seen order
    assert classes == oracle_limit_points(f)


def test_oversized_limit_report_is_refused_up_front(monkeypatch):
    def never(f, j):
        raise AssertionError("a limit was built")

    monkeypatch.setattr(vectors_module, "normalized_limit", never)
    # 1,001 entries of 1,000 degrees: 1,001,000 limit entries
    f = tuple(monomial(0, 1, d % 1000) for d in range(1001))
    with pytest.raises(ValueError) as exc:
        limit_points(f)
    assert str(exc.value) == (
        f"1001 entries of 1000 distinct degrees give more than "
        f"{vectors_module.MAX_LIMIT_ENTRIES} limit entries; refusing to build them"
    )


def test_value_at_evaluates_monomials():
    g = (monomial(1, 1, 1), monomial(1, 1, 0), None)
    assert value_at(g, 10) == (pair(1, 10), pair(1, 1), ZERO)
    assert value_at(g, Fraction(1, 2)) == (pair(1, Fraction(1, 2)), pair(1, 1), ZERO)
    with pytest.raises(ValueError):
        value_at(g, 0)


@given(nonzero_families)
def test_reference_entry_normalizes_to_one(f):
    for j, m in enumerate(f):
        if m is None:
            continue
        lim = normalized_limit(f, j)
        assert lim[j] == pair(m.level, 1)


@given(nonzero_families)
def test_limit_classes_are_distinct_and_canonical(f):
    classes = limit_points(f)
    assert len({c.canon for c in classes}) == len(classes)
    for c in classes:
        assert proj_canonical(c.canon) == c.canon


@given(nonzero_families, positive_rationals)
def test_limits_ignore_constant_rescaling(f, lam):
    rescaled = tuple(
        None if m is None else Monomial(m.level, m.coeff * lam, m.degree) for m in f
    )
    assert {c.canon for c in limit_points(rescaled)} == {
        c.canon for c in limit_points(f)
    }


def test_switch_sum_survives_the_limit():
    # entries satisfy first + second == second + third for every parameter
    f = (monomial(0, 1, 0), monomial(0, 1, 1), monomial(0, 1, 0))
    for t in (1, 2, Fraction(7, 3)):
        v = value_at(f, t)
        assert v[0] + v[1] == v[1] + v[2]
    for j in (0, 1, 2):
        lim = normalized_limit(f, j)
        assert lim[0] + lim[1] == lim[1] + lim[2]
