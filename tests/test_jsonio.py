"""Round trips and rejection behavior of the JSON encodings."""

import itertools
import json
import re
import time
from fractions import Fraction
from random import Random
from typing import Any

import pytest
from hypothesis import example, given, settings, strategies as st

from levelring import jsonio
from levelring.jsonio import (
    FormatError,
    MAX_RATIONAL_DIGITS,
    chords_from_json,
    family_from_json,
    measure_from_json,
    measure_to_json,
    rat_from_str,
    rat_to_str,
    svalue_from_json,
    svalue_to_json,
    track_from_json,
    tree_from_json,
    tree_to_json,
    vector_from_json,
    vector_to_json,
)
from levelring.measures import Atom, Density, Domain, FHMeasure
from levelring.tracks import TrainTrack
from levelring.trees import ChordFamily, STree
from levelring.values import _ECHO, DEFAULT_HEIGHT_BOUND, INF, XRat, ZERO, pair
from levelring.vectors import MonomialFamily, monomial

from helpers import (
    _edge_length,
    random_chords,
    random_measure,
    random_track_family,
    random_tree,
)


def rewire(doc):
    """Force a pass through the serializer, as a file would."""
    return json.loads(json.dumps(doc))


# Encoders for the formats the program only reads.

def family_doc(family: MonomialFamily) -> list:
    return [
        None if m is None else {"level": m.level, "coeff": str(XRat(m.coeff)), "degree": m.degree}
        for m in family
    ]


def track_doc(track: TrainTrack) -> dict:
    return {
        "segments": list(track.segments),
        "switches": [{"a": list(a), "b": list(b)} for a, b in track.switches],
        "free_ends": {seg: count for seg, count in track.free_ends if count},
    }


def chords_doc(family: ChordFamily) -> dict:
    return {
        "marks": family.marks,
        "chords": [{"ends": [i, j], "weight": svalue_to_json(w)} for i, j, w in family.chords],
    }


def test_rational_strings():
    assert rat_to_str(XRat("3/4")) == "3/4"
    assert rat_to_str(XRat(7)) == "7"
    assert rat_to_str(INF) == "inf"
    assert rat_from_str("3/4") == XRat("3/4")
    assert rat_from_str("006/08").as_fraction == Fraction(3, 4)
    assert rat_from_str("0/5") == XRat(0) and rat_from_str("12") == XRat(12)
    assert rat_from_str("inf").is_infinite
    with pytest.raises(FormatError):
        rat_from_str("-1/2")
    with pytest.raises(FormatError):
        rat_from_str("0.5")
    with pytest.raises(FormatError):
        rat_from_str("1/0")
    with pytest.raises(FormatError):
        rat_from_str(7)  # numbers travel as strings
    for s in ("12\n", "3/4\n", "\n", "inf\n", "9" * MAX_RATIONAL_DIGITS + "7\n"):
        with pytest.raises(FormatError) as exc:
            rat_from_str(s, "x")
        assert str(exc.value) == f'x: not a "p/q" rational or "inf": {_ECHO.repr(s)}'
    # digit runs stop at MAX_RATIONAL_DIGITS, short of int()'s own limit
    most = "7" * MAX_RATIONAL_DIGITS
    assert rat_from_str(f"{most}/{most}") == XRat(1)
    for s in (most + "7", f"1/{most}7", f"{most}7/{most}7"):
        with pytest.raises(FormatError) as exc:
            rat_from_str(s, "x")
        assert str(exc.value) == f"x: more than {MAX_RATIONAL_DIGITS} digits: {_ECHO.repr(s)}"
    # a result past the bound is refused on the way out by every printer,
    # with one message, not by the interpreter
    huge = Fraction(10**MAX_RATIONAL_DIGITS, 3)
    for x in (huge, 1 / huge, XRat(huge)):
        for write in (rat_to_str, lambda x: str(XRat(x)), lambda x: str(pair(2, x))):
            with pytest.raises(ValueError) as exc:
                write(x)
            assert str(exc.value) == f"result has more than {MAX_RATIONAL_DIGITS} digits"
    assert rat_to_str(Fraction(10**MAX_RATIONAL_DIGITS - 1, 3)) == f"{'3' * MAX_RATIONAL_DIGITS}"


def read_rational(parse, text):
    """What parse(text) gives: the value, or the why-text of its refusal."""
    try:
        return "ok", parse(text)
    except FormatError as exc:
        return "refused", exc.why
    except ValueError as exc:
        return "refused", str(exc)


GRAMMAR_SAMPLES = [
    " 2 ", "1.5", "1e7", "+3", "1_0", "-0", "12\n", "1/0", "0/0", "006/08", "0", "inf", " inf", "Inf",
    "", "/", "1/", "/2", "1/2/3", "٣", "1e10000000",
    "7" * MAX_RATIONAL_DIGITS, "7" * (MAX_RATIONAL_DIGITS + 1),
    f"1/{'7' * MAX_RATIONAL_DIGITS}", f"1/{'7' * (MAX_RATIONAL_DIGITS + 1)}",
]


@settings(max_examples=500)
@given(st.one_of(st.sampled_from(GRAMMAR_SAMPLES), st.text(alphabet="0123456789/inf+-._e \n٣", max_size=8)))
@example("7" * MAX_RATIONAL_DIGITS + "/0")
def test_xrat_and_the_decoder_read_one_grammar(text):
    got = read_rational(XRat, text)
    assert got == read_rational(rat_from_str, text)
    if got[0] == "ok":
        assert rat_from_str(rat_to_str(got[1])) == got[1]


def test_rational_grammar_refuses_an_exponent_at_once():
    # Fraction("1e10000000") builds a ten-million-digit integer
    start = time.perf_counter()
    with pytest.raises(ValueError) as exc:
        XRat("1e10000000")
    assert time.perf_counter() - start < 0.01
    assert str(exc.value) == "not a \"p/q\" rational or \"inf\": '1e10000000'"


def test_svalue_encoding():
    assert svalue_to_json(ZERO) is None
    assert svalue_to_json(pair(3, "7/2")) == {"level": 3, "real": "7/2"}
    assert svalue_from_json(None) == ZERO
    assert svalue_from_json({"level": 2, "real": "inf"}) == pair(2, INF)
    for doc in [
        {"level": 0},
        {"level": "0", "real": "1"},
        {"level": True, "real": "1"},
        {"level": -1, "real": "1"},
        {"level": 0, "real": "0"},
        {"level": 0, "real": "1", "extra": 1},
        "not an object",
    ]:
        with pytest.raises(FormatError):
            svalue_from_json(doc)


def test_vector_and_family_round_trip():
    vec = (pair(0, 1), ZERO, pair(1, INF))
    assert vector_from_json(rewire(vector_to_json(vec))) == vec
    fam = (monomial(0, "3/4", 2), None, monomial(1, 5, -1))
    doc = [{"level": 0, "coeff": "3/4", "degree": 2}, None, {"level": 1, "coeff": "5", "degree": -1}]
    assert family_from_json(doc) == fam and family_doc(fam) == doc
    with pytest.raises(FormatError):
        family_from_json([{"level": 0, "coeff": "inf", "degree": 1}])
    with pytest.raises(FormatError) as exc:
        family_from_json([{"level": "0", "coeff": "1", "degree": 0}])
    assert str(exc.value) == "family[0].level: expected an integer, got '0'"
    with pytest.raises(FormatError):
        vector_from_json({"not": "a list"})


def test_track_round_trip():
    spiral = TrainTrack(
        ["x", "y", "z", "w"], [(["x", "y"], ["w"]), (["w"], ["y", "z"])]
    )
    doc = {
        "segments": ["x", "y", "z", "w"],
        "switches": [{"a": ["x", "y"], "b": ["w"]}, {"a": ["w"], "b": ["y", "z"]}],
        "free_ends": {"x": 1, "z": 1},
    }
    assert track_from_json(doc) == spiral and track_doc(spiral) == doc
    # free_ends may be omitted and is then inferred
    del doc["free_ends"]
    assert track_from_json(doc) == spiral
    with pytest.raises(FormatError):
        track_from_json(
            {"segments": ["x"], "switches": [{"a": ["x"], "b": ["x", "x"]}]}
        )
    with pytest.raises(FormatError) as exc:
        track_from_json({"segments": ["x"], "switches": [], "free_ends": {"x": "2"}})
    assert str(exc.value) == "track.free_ends['x']: expected an integer, got '2'"


def test_random_round_trips():
    rng = Random(19)
    for _ in range(40):
        track, _ = random_track_family(rng)
        assert track_from_json(rewire(track_doc(track))) == track
        mu = random_measure(rng)
        assert measure_from_json(rewire(measure_to_json(mu))) == mu
        tree = random_tree(rng)
        assert tree_from_json(rewire(tree_to_json(tree))) == tree
        fam = random_chords(rng)
        assert chords_from_json(rewire(chords_doc(fam))) == fam


def test_measure_rejections():
    base = {
        "domain": {"intervals": [{"id": "I", "length": "1"}]},
        "components": [],
    }
    assert measure_from_json(rewire(base)).components == ()
    for components in [
        [{"kind": "blob"}],
        [{"kind": "atom", "interval": "I", "position": "2", "level": 0, "mass": "1"}],
        [{"kind": "atom", "interval": "J", "position": "0", "level": 0, "mass": "1"}],
        [{"kind": "density", "interval": "I", "lo": "1/2", "hi": "1/2", "level": 0, "rate": "1"}],
        [{"kind": "atom", "interval": "I", "position": "0", "level": -1, "mass": "1"}],
    ]:
        with pytest.raises(FormatError):
            measure_from_json({**base, "components": components})
    with pytest.raises(FormatError):
        measure_from_json({**base, "height_bound": "16"})


def test_measure_range_checks_at_the_ends():
    def unit(*components):
        return {"domain": {"intervals": [{"id": "I", "length": "1"}]}, "components": list(components)}

    def atom(x):
        return {"kind": "atom", "interval": "I", "position": x, "level": 0, "mass": "1"}

    def density(lo, hi):
        return {"kind": "density", "interval": "I", "lo": lo, "hi": hi, "level": 0, "rate": "1"}

    kept = measure_from_json(unit(atom("0"), atom("1"), density("0", "1")))
    assert kept.components == (Atom("I", 0, 0, 1), Atom("I", 1, 0, 1), Density("I", 0, 1, 0, 1))
    past = "1000000000001/1000000000000"
    for component, text in [
        (atom(past), f"measure: atom position '{past}' outside interval"),
        (density("0", past), f"measure: density ['0', '{past}'] outside interval"),
    ]:
        with pytest.raises(FormatError) as err:
            measure_from_json(unit(atom("1"), component))
        assert str(err.value) == text


def test_tree_and_chords_rejections():
    with pytest.raises(FormatError):
        tree_from_json({"nodes": ["a", "b"], "edges": []})
    with pytest.raises(FormatError):
        tree_from_json(
            {"nodes": ["a", "b"], "edges": [{"a": "a", "b": "b", "len": None}]}
        )
    with pytest.raises(FormatError):
        chords_from_json(
            {
                "marks": 4,
                "chords": [
                    {"ends": [1, 3], "weight": {"level": 0, "real": "1"}},
                    {"ends": [2, 4], "weight": {"level": 0, "real": "1"}},
                ],
            }
        )
    with pytest.raises(FormatError):
        chords_from_json({"marks": 2, "chords": [{"ends": [1], "weight": None}]})


# --- the value table ---------------------------------------------------------------
# Each public decode parses each distinct rational text, and builds each
# distinct (level, text) value, once; the table is emptied as the call ends.


def _path(texts, levels=None):
    """A path tree whose edge i has length (levels[i], texts[i])."""
    levels = levels or [0] * len(texts)
    return {
        "nodes": [f"n{i}" for i in range(len(texts) + 1)],
        "edges": [
            {"a": f"n{i}", "b": f"n{i + 1}", "len": {"level": level, "real": text}}
            for i, (level, text) in enumerate(zip(levels, texts))
        ],
    }


def test_table_refuses_a_bool_level_after_an_equal_int():
    # True == 1 and hash(True) == hash(1), so a lookup before the type check
    # would return the cached (1, "1/2")
    with pytest.raises(FormatError) as exc:
        vector_from_json([{"level": 1, "real": "1/2"}, {"level": True, "real": "1/2"}])
    assert str(exc.value) == "vector[1].level: expected an integer, got True"


def test_table_reports_a_repeated_bad_text_at_its_first_spot():
    texts = ["1"] * 9
    texts[3] = texts[7] = "1/0"
    with pytest.raises(FormatError) as exc:
        tree_from_json(_path(texts))
    assert str(exc.value) == "tree.edges[3].len.real: zero denominator: '1/0'"


def test_table_refuses_a_negative_level_after_a_cached_text():
    with pytest.raises(FormatError) as exc:
        vector_from_json([{"level": 0, "real": "1/2"}, {"level": -1, "real": "1/2"}])
    assert str(exc.value) == "vector[1]: level must be a nonnegative int: -1"


def test_table_shares_values_within_one_decode_only():
    doc = _path(["1/2", "3", "1/2", "06/4", "3"], [0, 1, 0, 0, 2])
    first, second = tree_from_json(doc), tree_from_json(doc)
    lengths = [length for _, _, length in first.edges]
    assert lengths[0] is lengths[2]
    assert lengths[1].magnitude.as_fraction is lengths[4].magnitude.as_fraction
    assert lengths[3] == pair(0, "3/2")

    def objects(tree):
        return {id(obj) for _, _, v in tree.edges for obj in (v, v.magnitude, v.magnitude.as_fraction)}

    assert not objects(first) & objects(second)


@pytest.mark.parametrize("decode, doc", [
    (svalue_from_json, {"level": 0, "real": "1/2"}),
    (svalue_from_json, {"level": 0, "real": "1/0"}),
    (rat_from_str, "1/2"),
    (rat_from_str, "x"),
    (vector_from_json, [{"level": 0, "real": "1/2"}, {"level": 0, "real": "1/2"}]),
    (vector_from_json, [{"level": 0, "real": "1/2"}, {"level": 0, "real": "0"}]),
    (family_from_json, [{"level": 0, "coeff": "1/2", "degree": 1}]),
    (family_from_json, [{"level": 0, "coeff": "1/2", "degree": 1}, {"level": 0, "coeff": "inf", "degree": 1}]),
    (measure_from_json, {"domain": {"intervals": [{"id": "I", "length": "1"}]}, "components": [
        {"kind": "atom", "interval": "I", "position": "1/2", "level": 0, "mass": "1/2"}]}),
    (measure_from_json, {"domain": {"intervals": [{"id": "I", "length": "1"}]}, "components": [
        {"kind": "atom", "interval": "I", "position": "2", "level": 0, "mass": "1/2"}]}),
    (tree_from_json, _path(["1/2", "1/2"])),
    (tree_from_json, _path(["1/2", "1/2/"])),
    (chords_from_json, {"marks": 2, "chords": [{"ends": [1, 2], "weight": {"level": 0, "real": "1"}}]}),
    (chords_from_json, {"marks": 2, "chords": [{"ends": [1, 3], "weight": {"level": 0, "real": "1"}}]}),
])
def test_table_is_empty_after_each_public_decode(decode, doc):
    try:
        decode(doc)
    except FormatError:
        pass
    assert jsonio._TABLE == {}


def test_table_parses_each_distinct_text_once(monkeypatch):
    calls = []
    parse = jsonio._parse_rational
    monkeypatch.setattr(jsonio, "_parse_rational", lambda text: calls.append(text) or parse(text))
    rng = Random(7)
    reals = [f"{p}/{q}" for p in range(1, 10) for q in range(1, 5)]  # 36 texts
    texts = [rng.choice(reals) for _ in range(1200)]
    tree = tree_from_json(_path(texts, [rng.randrange(3) for _ in texts]))
    assert len(tree.edges) == 1200
    assert sorted(calls) == sorted(set(texts))
    # a measure's lengths, positions, masses and rates share one table
    calls.clear()
    atoms = [
        {"kind": "atom", "interval": "I", "position": f"{rng.randrange(9)}/8", "level": rng.randrange(3),
         "mass": rng.choice(reals)}
        for _ in range(300)
    ]
    density = {"kind": "density", "interval": "I", "lo": "0", "hi": "1/8", "level": 0, "rate": "1/8"}
    measure_from_json({"domain": {"intervals": [{"id": "I", "length": "1"}]}, "components": atoms + [density]})
    texts = {"1", "0", "1/8"} | {a["position"] for a in atoms} | {a["mass"] for a in atoms}
    assert sorted(calls) == sorted(texts)


def test_table_refuses_a_repeated_overlong_text():
    # the digit bound holds on a hit too, whatever PYTHONINTMAXSTRDIGITS says
    most, over = "7" * MAX_RATIONAL_DIGITS, "7" * (MAX_RATIONAL_DIGITS + 1)
    tree = tree_from_json(_path([most, "1", most]))
    assert tree.edges[0][2] is tree.edges[2][2]
    with pytest.raises(FormatError) as exc:
        tree_from_json(_path(["1", over, over]))
    assert str(exc.value) == f"tree.edges[1].len.real: more than {MAX_RATIONAL_DIGITS} digits: {_ECHO.repr(over)}"


@pytest.mark.parametrize("level", [10**MAX_RATIONAL_DIGITS, -(10**MAX_RATIONAL_DIGITS)], ids=["high", "negative"])
def test_overlong_level_is_refused_on_input(level):
    # by comparison, so whatever PYTHONINTMAXSTRDIGITS says; 4300 nines pass
    most = 10**MAX_RATIONAL_DIGITS - 1
    assert svalue_from_json({"level": most, "real": "1"}).level == most
    with pytest.raises(FormatError) as exc:
        vector_from_json([None, {"level": level, "real": "1"}])
    assert str(exc.value) == f"vector[1].level: more than {MAX_RATIONAL_DIGITS} digits"


def test_overlong_level_is_refused_on_output():
    with pytest.raises(ValueError, match=f"^result level has more than {MAX_RATIONAL_DIGITS} digits$"):
        svalue_to_json(pair(10**MAX_RATIONAL_DIGITS, 1))


# --- differential tests ----------------------------------------------------------
# The oracle decoders are the ones that formatted every location up front,
# before a check failed; the decoders must keep their results and their
# diagnostics, byte for byte.


class OracleFormatError(ValueError):
    pass


def _o_fail(where, why):
    return OracleFormatError(f"{where}: {why}")


def _o_int(obj, where):
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise _o_fail(where, f"expected an integer, got {_ECHO.repr(obj)}")
    return obj


def _o_str(obj, where):
    if not isinstance(obj, str):
        raise _o_fail(where, f"expected a string, got {_ECHO.repr(obj)}")
    return obj


def _o_list(obj, where):
    if not isinstance(obj, list):
        raise _o_fail(where, f"expected an array, got {_ECHO.repr(obj)}")
    return obj


def _o_obj(obj, keys, where):
    if not isinstance(obj, dict):
        raise _o_fail(where, f"expected an object, got {_ECHO.repr(obj)}")
    if obj.keys() == keys:
        return obj
    missing = keys - obj.keys()
    if missing:
        raise _o_fail(where, f"missing keys {sorted(missing)}")
    stray = obj.keys() - keys - {"comment"}
    if stray:
        raise _o_fail(where, f"unknown keys {_ECHO.repr(sorted(stray))}")
    return obj


_O_RATIONAL = re.compile(r"^([0-9]+)(?:/([0-9]+))?\Z")


def oracle_rat(s: Any, where: str = "rational"):
    text = _o_str(s, where)
    if text == "inf":
        return XRat("inf")
    match = _O_RATIONAL.match(text)
    if not match:
        raise _o_fail(where, f'not a "p/q" rational or "inf": {_ECHO.repr(text)}')
    # refused before int() would raise the interpreter's own bare ValueError
    if max(len(match[1]), len(match[2] or "")) > MAX_RATIONAL_DIGITS:
        raise _o_fail(where, f"more than {MAX_RATIONAL_DIGITS} digits: {_ECHO.repr(text)}")
    try:
        return XRat(Fraction(int(match[1]), int(match[2] or 1)))
    except ZeroDivisionError:
        raise _o_fail(where, f"zero denominator: {_ECHO.repr(text)}")


def _o_finite(s, where):
    x = oracle_rat(s, where)
    if x.is_infinite:
        raise _o_fail(where, '"inf" is not allowed here')
    return x.as_fraction


def oracle_svalue(obj, where="value"):
    if obj is None:
        return ZERO
    doc = _o_obj(obj, {"level", "real"}, where)
    level = _o_int(doc["level"], f"{where}.level")
    magnitude = oracle_rat(doc["real"], f"{where}.real")
    try:
        return pair(level, magnitude)
    except ValueError as exc:
        raise _o_fail(where, str(exc))


def oracle_vector(obj, where="vector"):
    return tuple(
        oracle_svalue(entry, f"{where}[{i}]") for i, entry in enumerate(_o_list(obj, where))
    )


def oracle_family(obj, where="family"):
    out = []
    for i, entry in enumerate(_o_list(obj, where)):
        spot = f"{where}[{i}]"
        if entry is None:
            out.append(None)
            continue
        doc = _o_obj(entry, {"level", "coeff", "degree"}, spot)
        coeff = _o_finite(doc["coeff"], f"{spot}.coeff")
        level = _o_int(doc["level"], f"{spot}.level")
        degree = _o_int(doc["degree"], f"{spot}.degree")
        try:
            out.append(monomial(level, coeff, degree))
        except ValueError as exc:
            raise _o_fail(spot, str(exc))
    return tuple(out)


def oracle_track(obj, where="track"):
    doc = _o_obj(obj, {"segments", "switches"} | (
        {"free_ends"} if isinstance(obj, dict) and "free_ends" in obj else set()
    ), where)
    segments = [
        _o_str(s, f"{where}.segments[{i}]")
        for i, s in enumerate(_o_list(doc["segments"], f"{where}.segments"))
    ]
    switches = []
    for i, sw in enumerate(_o_list(doc["switches"], f"{where}.switches")):
        spot = f"{where}.switches[{i}]"
        sw_doc = _o_obj(sw, {"a", "b"}, spot)
        side_a = [_o_str(s, f"{spot}.a[{j}]") for j, s in enumerate(_o_list(sw_doc["a"], f"{spot}.a"))]
        side_b = [_o_str(s, f"{spot}.b[{j}]") for j, s in enumerate(_o_list(sw_doc["b"], f"{spot}.b"))]
        switches.append((side_a, side_b))
    free_ends = None
    if "free_ends" in doc:
        raw = doc["free_ends"]
        if not isinstance(raw, dict):
            raise _o_fail(f"{where}.free_ends", f"expected an object, got {_ECHO.repr(raw)}")
        free_ends = {seg: _o_int(count, f"{where}.free_ends[{_ECHO.repr(seg)}]") for seg, count in raw.items()}
    try:
        return TrainTrack(segments, switches, free_ends)
    except ValueError as exc:
        raise _o_fail(where, str(exc))


def oracle_measure(obj, where="measure"):
    doc = _o_obj(
        obj,
        {"domain", "components"}
        | ({"height_bound"} if isinstance(obj, dict) and "height_bound" in obj else set()),
        where,
    )
    dom_doc = _o_obj(doc["domain"], {"intervals"}, f"{where}.domain")
    intervals = []
    for i, row in enumerate(_o_list(dom_doc["intervals"], f"{where}.domain.intervals")):
        spot = f"{where}.domain.intervals[{i}]"
        row_doc = _o_obj(row, {"id", "length"}, spot)
        intervals.append((_o_str(row_doc["id"], f"{spot}.id"), _o_finite(row_doc["length"], f"{spot}.length")))
    try:
        domain = Domain(intervals)
    except ValueError as exc:
        raise _o_fail(f"{where}.domain", str(exc))
    components = []
    for i, raw in enumerate(_o_list(doc["components"], f"{where}.components")):
        spot = f"{where}.components[{i}]"
        if not isinstance(raw, dict) or "kind" not in raw:
            raise _o_fail(spot, "expected an object with a \"kind\" tag")
        kind = raw["kind"]
        try:
            if kind == "atom":
                c_doc = _o_obj(raw, {"kind", "interval", "position", "level", "mass"}, spot)
                components.append(Atom(
                    _o_str(c_doc["interval"], f"{spot}.interval"),
                    _o_finite(c_doc["position"], f"{spot}.position"),
                    _o_int(c_doc["level"], f"{spot}.level"),
                    oracle_rat(c_doc["mass"], f"{spot}.mass"),
                ))
            elif kind == "density":
                c_doc = _o_obj(raw, {"kind", "interval", "lo", "hi", "level", "rate"}, spot)
                components.append(Density(
                    _o_str(c_doc["interval"], f"{spot}.interval"),
                    _o_finite(c_doc["lo"], f"{spot}.lo"),
                    _o_finite(c_doc["hi"], f"{spot}.hi"),
                    _o_int(c_doc["level"], f"{spot}.level"),
                    oracle_rat(c_doc["rate"], f"{spot}.rate"),
                ))
            else:
                raise _o_fail(spot, f"unknown component kind {_ECHO.repr(kind)}")
        except (ValueError, KeyError) as exc:
            if isinstance(exc, OracleFormatError):
                raise
            raise _o_fail(spot, exc.args[0] if exc.args else str(exc))
    height_bound = DEFAULT_HEIGHT_BOUND
    if "height_bound" in doc:
        height_bound = _o_int(doc["height_bound"], f"{where}.height_bound")
    try:
        return FHMeasure(domain, components, height_bound)
    except (ValueError, KeyError) as exc:
        raise _o_fail(where, exc.args[0] if exc.args else str(exc))


def oracle_tree(obj, where="tree"):
    doc = _o_obj(obj, {"nodes", "edges"}, where)
    nodes = [_o_str(n, f"{where}.nodes[{i}]") for i, n in enumerate(_o_list(doc["nodes"], f"{where}.nodes"))]
    edges = []
    for i, raw in enumerate(_o_list(doc["edges"], f"{where}.edges")):
        spot = f"{where}.edges[{i}]"
        e_doc = _o_obj(raw, {"a", "b", "len"}, spot)
        edges.append((
            _o_str(e_doc["a"], f"{spot}.a"),
            _o_str(e_doc["b"], f"{spot}.b"),
            oracle_svalue(e_doc["len"], f"{spot}.len"),
        ))
    try:
        return STree(nodes, edges)
    except ValueError as exc:
        raise _o_fail(where, str(exc))


def oracle_chords(obj, where="chords"):
    doc = _o_obj(obj, {"marks", "chords"}, where)
    marks = _o_int(doc["marks"], f"{where}.marks")
    chords = []
    for i, raw in enumerate(_o_list(doc["chords"], f"{where}.chords")):
        spot = f"{where}.chords[{i}]"
        c_doc = _o_obj(raw, {"ends", "weight"}, spot)
        ends = _o_list(c_doc["ends"], f"{spot}.ends")
        if len(ends) != 2:
            raise _o_fail(f"{spot}.ends", f"expected two marks, got {len(ends)}")
        chords.append((
            _o_int(ends[0], f"{spot}.ends[0]"),
            _o_int(ends[1], f"{spot}.ends[1]"),
            oracle_svalue(c_doc["weight"], f"{spot}.weight"),
        ))
    try:
        return ChordFamily(marks, chords)
    except ValueError as exc:
        raise _o_fail(where, str(exc))


def _value_doc(rng):
    return None if rng.random() < 0.15 else svalue_to_json(_edge_length(rng, levels=(0, 1, 5)))


def _track_doc(rng):
    doc = track_doc(random_track_family(rng)[0])
    if rng.random() < 0.3:
        del doc["free_ends"]
    return doc


def _measure_doc(rng):
    doc = measure_to_json(random_measure(rng))
    if rng.random() < 0.3:
        del doc["height_bound"]
    return doc


# The rationals that any positive value may fill, so that a valid document
# stays valid with each drawn from a pool.
FREE_RATIONALS = {"real", "coeff", "mass", "rate"}
POOL = ("1/2", "3", "06/4")


def pooled(make):
    """make, with every free rational but "inf" drawn from three texts: most
    values of the document are then table hits."""
    def make_pooled(rng):
        doc = make(rng)
        for container, key in spots(doc):
            if key in FREE_RATIONALS and isinstance(container[key], str) and container[key] != "inf":
                container[key] = rng.choice(POOL)
        return doc
    return make_pooled


# kind -> (new decoder, oracle decoder, a seeded valid document)
KINDS = {
    "value": (svalue_from_json, oracle_svalue, _value_doc),
    "vector": (vector_from_json, oracle_vector, lambda rng: [_value_doc(rng) for _ in range(rng.randint(0, 5))]),
    "family": (family_from_json, oracle_family, lambda rng: family_doc(random_track_family(rng)[1])),
    "track": (track_from_json, oracle_track, _track_doc),
    "measure": (measure_from_json, oracle_measure, _measure_doc),
    "tree": (tree_from_json, oracle_tree, lambda rng: tree_to_json(random_tree(rng))),
    "chords": (chords_from_json, oracle_chords, lambda rng: chords_doc(random_chords(rng))),
}
KINDS.update({
    f"pooled {kind}": (decode, oracle, pooled(make))
    for kind, (decode, oracle, make) in list(KINDS.items())
    if kind in ("vector", "family", "measure", "tree", "chords")
})


def outcome(decode, doc, format_error):
    """What decoding gives: the value, or the exception's kind and text."""
    try:
        return "ok", decode(rewire(doc))
    except format_error as exc:
        return "FormatError", str(exc)
    except (ValueError, KeyError, TypeError) as exc:
        return type(exc).__name__, str(exc)


def spots(doc):
    """Every (container, key) position below doc, depth first."""
    out = []
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        out.append((doc, key))
        out += spots(value)
    return out


RATIONAL_KEYS = {"real", "coeff", "length", "position", "mass", "lo", "hi", "rate"}
NOT_RATIONAL = ["1.5", "-1", "1/", "/2", " 1", "1/2/3", "x", "", "1e3", "٣", "+3", "1_0", "9" * 5000]


def corrupt(rng, doc, how):
    """Apply one corruption of the given kind at a random spot; False when
    the document has no spot of that kind."""
    places = spots(doc)
    if how == "wrong type":
        pool = places
        replace = lambda old: rng.choice([v for v in (None, True, 7, "x", [], {}) if type(v) is not type(old)])
    elif how == "bool for int":
        pool = [(c, k) for c, k in places if type(c[k]) is int]
        replace = lambda old: rng.choice([True, False])
    elif how in ("missing key", "stray key"):
        dicts = [doc] * isinstance(doc, dict) + [c[k] for c, k in places if isinstance(c[k], dict)]
        if how == "missing key":
            dicts = [d for d in dicts if d]
        if not dicts:
            return False
        target = rng.choice(dicts)
        if how == "missing key":
            del target[rng.choice(sorted(target))]
        else:
            target[rng.choice(["comment", "extra", "level"])] = 1
        return True
    elif how in ("malformed rational", "zero denominator"):
        pool = [(c, k) for c, k in places if k in RATIONAL_KEYS and isinstance(c[k], str)]
        if how == "malformed rational":
            replace = lambda old: rng.choice(NOT_RATIONAL + [old + "\n"])
        else:
            replace = lambda old: f"{rng.randint(0, 5)}/0"
    elif how == "negative level":
        pool = [(c, k) for c, k in places if k in ("level", "degree", "marks", "height_bound")]
        replace = lambda old: -rng.randint(1, 3)
    elif how == "zero magnitude":
        pool = [(c, k) for c, k in places if k in RATIONAL_KEYS]
        replace = lambda old: rng.choice(["0", "0/4"])
    else:  # unknown node: a name no node, segment or interval has, or a mark past the last
        pool = [(c, k) for c, k in places
                if isinstance(c[k], str) and (isinstance(c, list) or k in ("a", "b", "interval"))
                or type(c[k]) is int and isinstance(c, list)]
        replace = lambda old: "ghost" if isinstance(old, str) else 99
    if not pool:
        return False
    container, key = rng.choice(pool)
    container[key] = replace(container[key])
    return True


CORRUPTIONS = [
    "wrong type", "bool for int", "missing key", "stray key", "malformed rational",
    "zero denominator", "negative level", "zero magnitude", "unknown node",
]


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(KINDS)), st.randoms(use_true_random=False))
def test_valid_documents_decode_as_the_oracle_does(kind, rng):
    decode, oracle, make = KINDS[kind]
    doc = make(rng)
    got = outcome(decode, doc, FormatError)
    assert got[0] == "ok"
    assert got == outcome(oracle, doc, OracleFormatError)


@settings(max_examples=1500, deadline=None)
@given(st.sampled_from(sorted(KINDS)), st.sampled_from(CORRUPTIONS), st.randoms(use_true_random=False))
def test_corrupted_documents_fail_as_the_oracle_does(kind, how, rng):
    decode, oracle, make = KINDS[kind]
    doc = rewire(make(rng))
    corrupt(rng, doc, how)
    assert outcome(decode, doc, FormatError) == outcome(oracle, doc, OracleFormatError)


def test_corruptions_reach_every_decoder_diagnostic():
    # the corruptions above do produce diagnostics, of every kind, nested deep
    rng = Random(5)
    messages = set()
    for kind, how in itertools.product(sorted(KINDS), CORRUPTIONS):
        for _ in range(30):
            decode, _, make = KINDS[kind]
            doc = rewire(make(rng))
            if corrupt(rng, doc, how):
                got = outcome(decode, doc, FormatError)
                if got[0] != "ok":
                    messages.add(got[1])
    text = "\n".join(messages)
    for needle in (
        "tree.edges[", ".len.real: ", "measure.components[", "measure.domain.intervals[",
        "track.switches[", "chords.chords[", "family[", "vector[", "value.level: ",
        "zero denominator", "expected an integer, got True", "missing keys", "unknown keys",
        "mentions unknown nodes", "level must be a nonnegative int", "positive magnitude",
    ):
        assert needle in text, needle
