"""JSON encodings shared by the file formats and the command line.

Leveled values travel as ``null`` (the zero element) or
``{"level": k, "real": "p/q"}`` with ``"inf"`` as the only non-rational
token; rationals are reduced strings.  The composite formats:

* weight vectors — arrays of value encodings;
* monomial families — arrays of ``null`` or
  ``{"level": l, "coeff": "p/q", "degree": d}``;
* tracks — ``{"segments": [...], "switches": [{"a": [...], "b": [...]}],
  "free_ends": {...}}``;
* measures — ``{"domain": {"intervals": [{"id": ..., "length": "p/q"}]},
  "components": [{"kind": "atom" | "density", ...}]}`` plus an optional
  ``"height_bound"``;
* trees — ``{"nodes": [...], "edges": [{"a": ..., "b": ..., "len": ...}]}``;
* chord families — ``{"marks": 2m, "chords": [{"ends": [i, j],
  "weight": ...}]}``.

Decoders validate shape and raise ``FormatError`` with the offending
location; encoders emit plain JSON-ready structures (no custom classes).
Locations are formatted only when a check fails: each private decoder
reports a fault relative to the value it was handed, every enclosing
array or object decoder prefixes its own segment (``.edges``, ``[12]``)
as the error passes out, and the public ``*_from_json`` prefixes its
``where``.  The text is the same as if every spot had been named up front.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Any, Optional

from levelring.measures import Atom, Density, Domain, FHMeasure
from levelring.tracks import TrainTrack
from levelring.trees import ChordFamily, STree
from levelring.values import _ECHO, DEFAULT_HEIGHT_BOUND, INF, LevelValue, XRat, ZERO
from levelring.vectors import Monomial, MonomialFamily, Vector

__all__ = [
    "FormatError",
    "chords_from_json",
    "chords_to_json",
    "family_from_json",
    "family_to_json",
    "measure_from_json",
    "measure_to_json",
    "rat_from_str",
    "rat_to_str",
    "svalue_from_json",
    "svalue_to_json",
    "track_from_json",
    "track_to_json",
    "tree_from_json",
    "tree_to_json",
    "vector_from_json",
    "vector_to_json",
]


class FormatError(ValueError):
    """Malformed input document; the message reads ``"<where>: <why>"``.

    ``where`` locates the fault relative to the value being decoded, and
    ``within`` prefixes an enclosing segment.
    """

    def __init__(self, where: str, why: str):
        super().__init__(f"{where}: {why}")
        self.where = where
        self.why = why

    def within(self, prefix: str) -> "FormatError":
        return FormatError(prefix + self.where, self.why)


def _wrong(obj: Any, what: str, where: str) -> FormatError:
    return FormatError(where, f"expected {what}, got {_ECHO.repr(obj)}")


def _expect_int(obj: Any, where: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise _wrong(obj, "an integer", where)
    return obj


def _expect_str(obj: Any, where: str) -> str:
    if not isinstance(obj, str):
        raise _wrong(obj, "a string", where)
    return obj


def _expect_list(obj: Any, where: str) -> list:
    if not isinstance(obj, list):
        raise _wrong(obj, "an array", where)
    return obj


def _expect_obj(obj: Any, keys: "set | frozenset", where: str) -> dict:
    if not isinstance(obj, dict):
        raise _wrong(obj, "an object", where)
    if obj.keys() == keys:
        return obj
    missing = keys - obj.keys()
    if missing:
        raise FormatError(where, f"missing keys {sorted(missing)}")
    stray = obj.keys() - keys - {"comment"}
    if stray:
        raise FormatError(where, f"unknown keys {_ECHO.repr(sorted(stray))}")
    return obj


def _located(decode, obj: Any, where: str):
    """decode(obj), with any fault's location prefixed by where."""
    try:
        return decode(obj)
    except FormatError as exc:
        raise exc.within(where) from None


def _each(decode, obj: Any, where: str) -> list:
    """decode each entry of the array obj; a fault in entry i is located
    at where[i]."""
    out = []
    for i, entry in enumerate(_expect_list(obj, where)):
        try:
            out.append(decode(entry))
        except FormatError as exc:
            raise exc.within(f"{where}[{i}]") from None
    return out


def _strings(obj: Any, where: str) -> list:
    """An array of strings; a bad entry is located at ``where[i]``.  (The
    check is inline, not an ``_each`` call per entry: a tree lists every
    node id here.)"""
    items = _expect_list(obj, where)
    for i, s in enumerate(items):
        if not isinstance(s, str):
            raise _wrong(s, "a string", f"{where}[{i}]")
    return items


# --- scalars -------------------------------------------------------------------

def rat_to_str(x) -> str:
    """Reduced rational (or "inf") as a string."""
    if isinstance(x, XRat):
        return "inf" if x.is_infinite else str(x.as_fraction)
    return str(Fraction(x))


_RATIONAL = re.compile(r"^([0-9]+)(?:/([0-9]+))?$")


def _fraction(s: Any, where: str) -> Optional[Fraction]:
    """A "p/q" or "p" string as a Fraction; None for "inf"."""
    if not isinstance(s, str):
        raise _wrong(s, "a string", where)
    if s == "inf":
        return None
    match = _RATIONAL.match(s)
    if not match:
        raise FormatError(where, f'not a "p/q" rational or "inf": {_ECHO.repr(s)}')
    num, den = match.groups()
    if den is None:
        return Fraction(int(num))
    try:
        return Fraction(int(num), int(den))
    except ZeroDivisionError:
        raise FormatError(where, f"zero denominator: {_ECHO.repr(s)}") from None


def rat_from_str(s: Any, where: str = "rational") -> XRat:
    frac = _fraction(s, where)
    return INF if frac is None else XRat(frac)


def _finite_from_str(s: Any, where: str) -> Fraction:
    frac = _fraction(s, where)
    if frac is None:
        raise FormatError(where, '"inf" is not allowed here')
    return frac


# --- leveled values --------------------------------------------------------------

def svalue_to_json(v: LevelValue) -> Optional[dict]:
    if v.is_zero:
        return None
    return {"level": v.level, "real": rat_to_str(v.magnitude)}


_VALUE = frozenset({"level", "real"})


def _svalue(obj: Any) -> LevelValue:
    if obj is None:
        return ZERO
    doc = _expect_obj(obj, _VALUE, "")
    level = _expect_int(doc["level"], ".level")
    frac = _fraction(doc["real"], ".real")
    try:
        return LevelValue(level, INF if frac is None else XRat(frac))
    except ValueError as exc:
        raise FormatError("", str(exc)) from None


def svalue_from_json(obj: Any, where: str = "value") -> LevelValue:
    return _located(_svalue, obj, where)


def vector_to_json(vec) -> list:
    return [svalue_to_json(v) for v in vec]


def vector_from_json(obj: Any, where: str = "vector") -> Vector:
    return tuple(_each(_svalue, obj, where))


# --- monomial families ------------------------------------------------------------

def family_to_json(family: MonomialFamily) -> list:
    return [
        None
        if m is None
        else {"level": m.level, "coeff": rat_to_str(m.coeff), "degree": m.degree}
        for m in family
    ]


_MONOMIAL = frozenset({"level", "coeff", "degree"})


def _monomial(obj: Any) -> Optional[Monomial]:
    if obj is None:
        return None
    doc = _expect_obj(obj, _MONOMIAL, "")
    coeff = _finite_from_str(doc["coeff"], ".coeff")
    level = _expect_int(doc["level"], ".level")
    degree = _expect_int(doc["degree"], ".degree")
    try:
        return Monomial(level, coeff, degree)
    except ValueError as exc:
        raise FormatError("", str(exc)) from None


def family_from_json(obj: Any, where: str = "family") -> MonomialFamily:
    return tuple(_each(_monomial, obj, where))


# --- train tracks -------------------------------------------------------------------

def track_to_json(track: TrainTrack) -> dict:
    return {
        "segments": list(track.segments),
        "switches": [{"a": list(a), "b": list(b)} for a, b in track.switches],
        "free_ends": {seg: count for seg, count in track.free_ends if count},
    }


_SWITCH = frozenset({"a", "b"})


def _side(obj: Any, where: str) -> list:
    items = _expect_list(obj, where)
    for s in items:
        _expect_str(s, where)
    return items


def _switch(obj: Any) -> tuple[list, list]:
    doc = _expect_obj(obj, _SWITCH, "")
    return _side(doc["a"], ".a"), _side(doc["b"], ".b")


def _track(obj: Any) -> TrainTrack:
    has_free = isinstance(obj, dict) and "free_ends" in obj
    doc = _expect_obj(obj, {"segments", "switches"} | ({"free_ends"} if has_free else set()), "")
    segments = _strings(doc["segments"], ".segments")
    switches = _each(_switch, doc["switches"], ".switches")
    free_ends = None
    if has_free:
        raw = doc["free_ends"]
        if not isinstance(raw, dict):
            raise _wrong(raw, "an object", ".free_ends")
        free_ends = {}
        for seg, count in raw.items():
            try:
                free_ends[seg] = _expect_int(count, "")
            except FormatError as exc:
                raise exc.within(f".free_ends[{_ECHO.repr(seg)}]") from None
    try:
        return TrainTrack(segments, switches, free_ends)
    except ValueError as exc:
        raise FormatError("", str(exc)) from None


def track_from_json(obj: Any, where: str = "track") -> TrainTrack:
    return _located(_track, obj, where)


# --- measures -------------------------------------------------------------------------

def measure_to_json(mu: FHMeasure) -> dict:
    components = []
    for c in mu.components:
        if isinstance(c, Atom):
            components.append(
                {
                    "kind": "atom",
                    "interval": c.interval,
                    "position": rat_to_str(c.position),
                    "level": c.level,
                    "mass": rat_to_str(c.mass),
                }
            )
        else:
            components.append(
                {
                    "kind": "density",
                    "interval": c.interval,
                    "lo": rat_to_str(c.lo),
                    "hi": rat_to_str(c.hi),
                    "level": c.level,
                    "rate": rat_to_str(c.rate),
                }
            )
    return {
        "domain": {
            "intervals": [
                {"id": iid, "length": rat_to_str(length)}
                for iid, length in mu.domain.intervals
            ]
        },
        "components": components,
        "height_bound": mu.height_bound,
    }


_INTERVAL = frozenset({"id", "length"})
_ATOM = frozenset({"kind", "interval", "position", "level", "mass"})
_DENSITY = frozenset({"kind", "interval", "lo", "hi", "level", "rate"})


def _interval(obj: Any) -> tuple[str, Fraction]:
    doc = _expect_obj(obj, _INTERVAL, "")
    return _expect_str(doc["id"], ".id"), _finite_from_str(doc["length"], ".length")


def _component(obj: Any):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise FormatError("", "expected an object with a \"kind\" tag")
    kind = obj["kind"]
    if kind == "atom":
        doc = _expect_obj(obj, _ATOM, "")
        make, fields = Atom, (
            _expect_str(doc["interval"], ".interval"),
            _finite_from_str(doc["position"], ".position"),
            _expect_int(doc["level"], ".level"),
            rat_from_str(doc["mass"], ".mass"),
        )
    elif kind == "density":
        doc = _expect_obj(obj, _DENSITY, "")
        make, fields = Density, (
            _expect_str(doc["interval"], ".interval"),
            _finite_from_str(doc["lo"], ".lo"),
            _finite_from_str(doc["hi"], ".hi"),
            _expect_int(doc["level"], ".level"),
            rat_from_str(doc["rate"], ".rate"),
        )
    else:
        raise FormatError("", f"unknown component kind {_ECHO.repr(kind)}")
    try:
        return make(*fields)
    except (ValueError, KeyError) as exc:
        raise FormatError("", exc.args[0] if exc.args else str(exc)) from None


def _measure(obj: Any) -> FHMeasure:
    has_bound = isinstance(obj, dict) and "height_bound" in obj
    doc = _expect_obj(obj, {"domain", "components"} | ({"height_bound"} if has_bound else set()), "")
    dom_doc = _expect_obj(doc["domain"], {"intervals"}, ".domain")
    intervals = _each(_interval, dom_doc["intervals"], ".domain.intervals")
    try:
        domain = Domain(intervals)
    except ValueError as exc:
        raise FormatError(".domain", str(exc)) from None

    components = _each(_component, doc["components"], ".components")
    height_bound = DEFAULT_HEIGHT_BOUND
    if has_bound:
        height_bound = _expect_int(doc["height_bound"], ".height_bound")
    try:
        return FHMeasure(domain, components, height_bound)
    except (ValueError, KeyError) as exc:
        raise FormatError("", exc.args[0] if exc.args else str(exc)) from None


def measure_from_json(obj: Any, where: str = "measure") -> FHMeasure:
    return _located(_measure, obj, where)


# --- trees and chords --------------------------------------------------------------------

def tree_to_json(tree: STree) -> dict:
    return {
        "nodes": list(tree.nodes),
        "edges": [
            {"a": a, "b": b, "len": svalue_to_json(length)}
            for a, b, length in tree.edges
        ],
    }


_EDGE = frozenset({"a", "b", "len"})


def _edge(obj: Any) -> tuple[str, str, LevelValue]:
    doc = _expect_obj(obj, _EDGE, "")
    a = _expect_str(doc["a"], ".a")
    b = _expect_str(doc["b"], ".b")
    return a, b, _located(_svalue, doc["len"], ".len")


def _tree(obj: Any) -> STree:
    doc = _expect_obj(obj, {"nodes", "edges"}, "")
    nodes = _strings(doc["nodes"], ".nodes")
    edges = _each(_edge, doc["edges"], ".edges")
    try:
        return STree(nodes, edges)
    except ValueError as exc:
        raise FormatError("", str(exc)) from None


def tree_from_json(obj: Any, where: str = "tree") -> STree:
    return _located(_tree, obj, where)


def chords_to_json(family: ChordFamily) -> dict:
    return {
        "marks": family.marks,
        "chords": [
            {"ends": [i, j], "weight": svalue_to_json(w)}
            for i, j, w in family.chords
        ],
    }


_CHORD = frozenset({"ends", "weight"})


def _chord(obj: Any) -> tuple[int, int, LevelValue]:
    doc = _expect_obj(obj, _CHORD, "")
    ends = _expect_list(doc["ends"], ".ends")
    if len(ends) != 2:
        raise FormatError(".ends", f"expected two marks, got {len(ends)}")
    i = _expect_int(ends[0], ".ends[0]")
    j = _expect_int(ends[1], ".ends[1]")
    return i, j, _located(_svalue, doc["weight"], ".weight")


def _chords(obj: Any) -> ChordFamily:
    doc = _expect_obj(obj, {"marks", "chords"}, "")
    marks = _expect_int(doc["marks"], ".marks")
    chords = _each(_chord, doc["chords"], ".chords")
    try:
        return ChordFamily(marks, chords)
    except ValueError as exc:
        raise FormatError("", str(exc)) from None


def chords_from_json(obj: Any, where: str = "chords") -> ChordFamily:
    return _located(_chords, obj, where)
