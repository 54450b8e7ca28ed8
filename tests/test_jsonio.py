"""Round trips and rejection behavior of the JSON encodings."""

import itertools
import json
import re
from fractions import Fraction
from random import Random
from typing import Any

import pytest
from hypothesis import given, settings, strategies as st

from levelring.jsonio import (
    FormatError,
    chords_from_json,
    chords_to_json,
    family_from_json,
    family_to_json,
    measure_from_json,
    measure_to_json,
    rat_from_str,
    rat_to_str,
    svalue_from_json,
    svalue_to_json,
    track_from_json,
    track_to_json,
    tree_from_json,
    tree_to_json,
    vector_from_json,
    vector_to_json,
)
from levelring.measures import Atom, Density, Domain, FHMeasure
from levelring.tracks import TrainTrack
from levelring.trees import ChordFamily, STree
from levelring.values import _ECHO, DEFAULT_HEIGHT_BOUND, INF, XRat, ZERO, pair
from levelring.vectors import monomial

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
    assert family_from_json(rewire(family_to_json(fam))) == fam
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
    doc = rewire(track_to_json(spiral))
    assert doc["free_ends"] == {"x": 1, "z": 1}
    assert track_from_json(doc) == spiral
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
        assert track_from_json(rewire(track_to_json(track))) == track
        mu = random_measure(rng)
        assert measure_from_json(rewire(measure_to_json(mu))) == mu
        tree = random_tree(rng)
        assert tree_from_json(rewire(tree_to_json(tree))) == tree
        fam = random_chords(rng)
        assert chords_from_json(rewire(chords_to_json(fam))) == fam


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


_O_RATIONAL = re.compile(r"^([0-9]+)(?:/([0-9]+))?$")


def oracle_rat(s: Any, where: str = "rational"):
    text = _o_str(s, where)
    if text == "inf":
        return XRat("inf")
    match = _O_RATIONAL.match(text)
    if not match:
        raise _o_fail(where, f'not a "p/q" rational or "inf": {_ECHO.repr(text)}')
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
        side_a = [_o_str(s, f"{spot}.a") for s in _o_list(sw_doc["a"], f"{spot}.a")]
        side_b = [_o_str(s, f"{spot}.b") for s in _o_list(sw_doc["b"], f"{spot}.b")]
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
    doc = track_to_json(random_track_family(rng)[0])
    if rng.random() < 0.3:
        del doc["free_ends"]
    return doc


def _measure_doc(rng):
    doc = measure_to_json(random_measure(rng))
    if rng.random() < 0.3:
        del doc["height_bound"]
    return doc


# kind -> (new decoder, oracle decoder, a seeded valid document)
KINDS = {
    "value": (svalue_from_json, oracle_svalue, _value_doc),
    "vector": (vector_from_json, oracle_vector, lambda rng: [_value_doc(rng) for _ in range(rng.randint(0, 5))]),
    "family": (family_from_json, oracle_family, lambda rng: family_to_json(random_track_family(rng)[1])),
    "track": (track_from_json, oracle_track, _track_doc),
    "measure": (measure_from_json, oracle_measure, _measure_doc),
    "tree": (tree_from_json, oracle_tree, lambda rng: tree_to_json(random_tree(rng))),
    "chords": (chords_from_json, oracle_chords, lambda rng: chords_to_json(random_chords(rng))),
}


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
