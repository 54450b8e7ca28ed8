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
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Any, Optional

from levelring.measures import Atom, Density, Domain, FHMeasure
from levelring.tracks import TrainTrack
from levelring.trees import ChordFamily, STree
from levelring.values import _ECHO, DEFAULT_HEIGHT_BOUND, LevelValue, XRat, ZERO, pair
from levelring.vectors import Monomial, MonomialFamily, Vector, monomial

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
    """Malformed input document."""


def _fail(where: str, why: str) -> "FormatError":
    return FormatError(f"{where}: {why}")


def _expect_int(obj: Any, where: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise _fail(where, f"expected an integer, got {_ECHO.repr(obj)}")
    return obj


def _expect_str(obj: Any, where: str) -> str:
    if not isinstance(obj, str):
        raise _fail(where, f"expected a string, got {_ECHO.repr(obj)}")
    return obj


def _expect_list(obj: Any, where: str) -> list:
    if not isinstance(obj, list):
        raise _fail(where, f"expected an array, got {_ECHO.repr(obj)}")
    return obj


def _expect_obj(obj: Any, keys: set, where: str) -> dict:
    if not isinstance(obj, dict):
        raise _fail(where, f"expected an object, got {_ECHO.repr(obj)}")
    if obj.keys() == keys:
        return obj
    missing = keys - obj.keys()
    if missing:
        raise _fail(where, f"missing keys {sorted(missing)}")
    stray = obj.keys() - keys - {"comment"}
    if stray:
        raise _fail(where, f"unknown keys {_ECHO.repr(sorted(stray))}")
    return obj


# --- scalars -------------------------------------------------------------------

def rat_to_str(x) -> str:
    """Reduced rational (or "inf") as a string."""
    if isinstance(x, XRat):
        return "inf" if x.is_infinite else str(x.as_fraction)
    return str(Fraction(x))


_RATIONAL = re.compile(r"^([0-9]+)(?:/([0-9]+))?$")


def rat_from_str(s: Any, where: str = "rational") -> XRat:
    text = _expect_str(s, where)
    if text == "inf":
        return XRat("inf")
    match = _RATIONAL.match(text)
    if not match:
        raise _fail(where, f'not a "p/q" rational or "inf": {_ECHO.repr(text)}')
    try:
        return XRat(Fraction(int(match[1]), int(match[2] or 1)))
    except ZeroDivisionError:
        raise _fail(where, f"zero denominator: {_ECHO.repr(text)}")


def _finite_from_str(s: Any, where: str) -> Fraction:
    x = rat_from_str(s, where)
    if x.is_infinite:
        raise _fail(where, '"inf" is not allowed here')
    return x.as_fraction


# --- leveled values --------------------------------------------------------------

def svalue_to_json(v: LevelValue) -> Optional[dict]:
    if v.is_zero:
        return None
    return {"level": v.level, "real": rat_to_str(v.magnitude)}


def svalue_from_json(obj: Any, where: str = "value") -> LevelValue:
    if obj is None:
        return ZERO
    doc = _expect_obj(obj, {"level", "real"}, where)
    level = _expect_int(doc["level"], f"{where}.level")
    magnitude = rat_from_str(doc["real"], f"{where}.real")
    try:
        return pair(level, magnitude)
    except ValueError as exc:
        raise _fail(where, str(exc))


def vector_to_json(vec) -> list:
    return [svalue_to_json(v) for v in vec]


def vector_from_json(obj: Any, where: str = "vector") -> Vector:
    return tuple(
        svalue_from_json(entry, f"{where}[{i}]")
        for i, entry in enumerate(_expect_list(obj, where))
    )


# --- monomial families ------------------------------------------------------------

def family_to_json(family: MonomialFamily) -> list:
    return [
        None
        if m is None
        else {"level": m.level, "coeff": rat_to_str(m.coeff), "degree": m.degree}
        for m in family
    ]


def family_from_json(obj: Any, where: str = "family") -> MonomialFamily:
    out = []
    for i, entry in enumerate(_expect_list(obj, where)):
        spot = f"{where}[{i}]"
        if entry is None:
            out.append(None)
            continue
        doc = _expect_obj(entry, {"level", "coeff", "degree"}, spot)
        coeff = _finite_from_str(doc["coeff"], f"{spot}.coeff")
        try:
            out.append(
                monomial(
                    _expect_int(doc["level"], f"{spot}.level"),
                    coeff,
                    _expect_int(doc["degree"], f"{spot}.degree"),
                )
            )
        except ValueError as exc:
            raise _fail(spot, str(exc))
    return tuple(out)


# --- train tracks -------------------------------------------------------------------

def track_to_json(track: TrainTrack) -> dict:
    return {
        "segments": list(track.segments),
        "switches": [{"a": list(a), "b": list(b)} for a, b in track.switches],
        "free_ends": {seg: count for seg, count in track.free_ends if count},
    }


def track_from_json(obj: Any, where: str = "track") -> TrainTrack:
    doc = _expect_obj(obj, {"segments", "switches"} | (
        {"free_ends"} if isinstance(obj, dict) and "free_ends" in obj else set()
    ), where)
    segments = [
        _expect_str(s, f"{where}.segments[{i}]")
        for i, s in enumerate(_expect_list(doc["segments"], f"{where}.segments"))
    ]
    switches = []
    for i, sw in enumerate(_expect_list(doc["switches"], f"{where}.switches")):
        spot = f"{where}.switches[{i}]"
        sw_doc = _expect_obj(sw, {"a", "b"}, spot)
        side_a = [_expect_str(s, f"{spot}.a") for s in _expect_list(sw_doc["a"], f"{spot}.a")]
        side_b = [_expect_str(s, f"{spot}.b") for s in _expect_list(sw_doc["b"], f"{spot}.b")]
        switches.append((side_a, side_b))
    free_ends = None
    if "free_ends" in doc:
        raw = doc["free_ends"]
        if not isinstance(raw, dict):
            raise _fail(f"{where}.free_ends", f"expected an object, got {_ECHO.repr(raw)}")
        free_ends = {
            seg: _expect_int(count, f"{where}.free_ends[{seg}]")
            for seg, count in raw.items()
        }
    try:
        return TrainTrack(segments, switches, free_ends)
    except ValueError as exc:
        raise _fail(where, str(exc))


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


def measure_from_json(obj: Any, where: str = "measure") -> FHMeasure:
    doc = _expect_obj(
        obj,
        {"domain", "components"}
        | ({"height_bound"} if isinstance(obj, dict) and "height_bound" in obj else set()),
        where,
    )
    dom_doc = _expect_obj(doc["domain"], {"intervals"}, f"{where}.domain")
    intervals = []
    for i, row in enumerate(_expect_list(dom_doc["intervals"], f"{where}.domain.intervals")):
        spot = f"{where}.domain.intervals[{i}]"
        row_doc = _expect_obj(row, {"id", "length"}, spot)
        intervals.append(
            (
                _expect_str(row_doc["id"], f"{spot}.id"),
                _finite_from_str(row_doc["length"], f"{spot}.length"),
            )
        )
    try:
        domain = Domain(intervals)
    except ValueError as exc:
        raise _fail(f"{where}.domain", str(exc))

    components = []
    for i, raw in enumerate(_expect_list(doc["components"], f"{where}.components")):
        spot = f"{where}.components[{i}]"
        if not isinstance(raw, dict) or "kind" not in raw:
            raise _fail(spot, "expected an object with a \"kind\" tag")
        kind = raw["kind"]
        try:
            if kind == "atom":
                c_doc = _expect_obj(raw, {"kind", "interval", "position", "level", "mass"}, spot)
                components.append(
                    Atom(
                        _expect_str(c_doc["interval"], f"{spot}.interval"),
                        _finite_from_str(c_doc["position"], f"{spot}.position"),
                        _expect_int(c_doc["level"], f"{spot}.level"),
                        rat_from_str(c_doc["mass"], f"{spot}.mass"),
                    )
                )
            elif kind == "density":
                c_doc = _expect_obj(
                    raw, {"kind", "interval", "lo", "hi", "level", "rate"}, spot
                )
                components.append(
                    Density(
                        _expect_str(c_doc["interval"], f"{spot}.interval"),
                        _finite_from_str(c_doc["lo"], f"{spot}.lo"),
                        _finite_from_str(c_doc["hi"], f"{spot}.hi"),
                        _expect_int(c_doc["level"], f"{spot}.level"),
                        rat_from_str(c_doc["rate"], f"{spot}.rate"),
                    )
                )
            else:
                raise _fail(spot, f"unknown component kind {_ECHO.repr(kind)}")
        except (ValueError, KeyError) as exc:
            if isinstance(exc, FormatError):
                raise
            raise _fail(spot, exc.args[0] if exc.args else str(exc))
    height_bound = DEFAULT_HEIGHT_BOUND
    if "height_bound" in doc:
        height_bound = _expect_int(doc["height_bound"], f"{where}.height_bound")
    try:
        return FHMeasure(domain, components, height_bound)
    except (ValueError, KeyError) as exc:
        raise _fail(where, exc.args[0] if exc.args else str(exc))


# --- trees and chords --------------------------------------------------------------------

def tree_to_json(tree: STree) -> dict:
    return {
        "nodes": list(tree.nodes),
        "edges": [
            {"a": a, "b": b, "len": svalue_to_json(length)}
            for a, b, length in tree.edges
        ],
    }


def tree_from_json(obj: Any, where: str = "tree") -> STree:
    doc = _expect_obj(obj, {"nodes", "edges"}, where)
    nodes = [
        _expect_str(n, f"{where}.nodes[{i}]")
        for i, n in enumerate(_expect_list(doc["nodes"], f"{where}.nodes"))
    ]
    edges = []
    for i, raw in enumerate(_expect_list(doc["edges"], f"{where}.edges")):
        spot = f"{where}.edges[{i}]"
        e_doc = _expect_obj(raw, {"a", "b", "len"}, spot)
        edges.append(
            (
                _expect_str(e_doc["a"], f"{spot}.a"),
                _expect_str(e_doc["b"], f"{spot}.b"),
                svalue_from_json(e_doc["len"], f"{spot}.len"),
            )
        )
    try:
        return STree(nodes, edges)
    except ValueError as exc:
        raise _fail(where, str(exc))


def chords_to_json(family: ChordFamily) -> dict:
    return {
        "marks": family.marks,
        "chords": [
            {"ends": [i, j], "weight": svalue_to_json(w)}
            for i, j, w in family.chords
        ],
    }


def chords_from_json(obj: Any, where: str = "chords") -> ChordFamily:
    doc = _expect_obj(obj, {"marks", "chords"}, where)
    marks = _expect_int(doc["marks"], f"{where}.marks")
    chords = []
    for i, raw in enumerate(_expect_list(doc["chords"], f"{where}.chords")):
        spot = f"{where}.chords[{i}]"
        c_doc = _expect_obj(raw, {"ends", "weight"}, spot)
        ends = _expect_list(c_doc["ends"], f"{spot}.ends")
        if len(ends) != 2:
            raise _fail(f"{spot}.ends", f"expected two marks, got {len(ends)}")
        chords.append(
            (
                _expect_int(ends[0], f"{spot}.ends[0]"),
                _expect_int(ends[1], f"{spot}.ends[1]"),
                svalue_from_json(c_doc["weight"], f"{spot}.weight"),
            )
        )
    try:
        return ChordFamily(marks, chords)
    except ValueError as exc:
        raise _fail(where, str(exc))
