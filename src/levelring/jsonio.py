"""JSON encodings shared by the file formats and the command line.

Leveled values travel as ``null`` (the zero element) or
``{"level": k, "real": "p/q"}``.  Every rational is a JSON string in the
one grammar of ``values`` that ``XRat(str)`` also reads: ``"p"``,
``"p/q"`` or ``"inf"``, each digit run at most ``MAX_RATIONAL_DIGITS``
long, not necessarily reduced on the way in and always reduced on the way
out.  A level is an integer of at most ``MAX_RATIONAL_DIGITS`` digits, read
and written.  A result past the digit bound is refused by ``str(XRat)``
or, for a level, by ``svalue_to_json``, whatever ``PYTHONINTMAXSTRDIGITS``
says.  The composite formats:

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
``where``.  A library constructor's ValueError or KeyError, raised on
fields already checked, is located the same way, at the value it would
have built.  The text is the same as if every spot had been named up
front.

A public decoder (each ``*_from_json``, and ``rat_from_str``) parses each
distinct rational text, and builds each distinct ``(level, text)`` value,
once: equal values in one decoded document may be one shared immutable
``Fraction`` or ``LevelValue``.  The table that holds them lives for one
public call and is emptied as it returns or raises, so two calls share
nothing.  A faulty value is refused where it first occurs and never
stored.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Optional

from levelring.measures import Atom, Density, Domain, FHMeasure
from levelring.tracks import TrainTrack
from levelring.trees import ChordFamily, STree
from levelring.values import (
    _ECHO,
    DEFAULT_HEIGHT_BOUND,
    INF,
    MAX_RATIONAL_DIGITS,
    LevelValue,
    XRat,
    ZERO,
    _TOO_LONG,
    _parse_rational,
)
from levelring.vectors import Monomial, MonomialFamily, Vector

__all__ = [
    "FormatError",
    "MAX_RATIONAL_DIGITS",
    "chords_from_json",
    "family_from_json",
    "measure_from_json",
    "measure_to_json",
    "rat_from_str",
    "rat_to_str",
    "svalue_from_json",
    "svalue_to_json",
    "track_from_json",
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


# The decoders run per value (_svalue, _edge, _component) test shapes inline
# with ``type(...) is`` and call the _expect_* helpers only to word a fault.

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


def _expect_obj(
    obj: Any, keys: "set | frozenset", where: str, optional: "set | frozenset" = frozenset()
) -> dict:
    """An object with every one of keys, and no others but the optional
    ones and "comment"."""
    if not isinstance(obj, dict):
        raise _wrong(obj, "an object", where)
    if obj.keys() == keys:
        return obj
    missing = keys - obj.keys()
    if missing:
        raise FormatError(where, f"missing keys {sorted(missing)}")
    stray = obj.keys() - keys - optional - {"comment"}
    if stray:
        raise FormatError(where, f"unknown keys {_ECHO.repr(sorted(stray))}")
    return obj


def _relocated(exc: Exception, where: str) -> FormatError:
    """A fault raised while decoding the value at where, located there: a
    FormatError gets where as a prefix, and a library constructor's
    ValueError or KeyError (the decoders call constructors last, on
    checked fields) becomes a FormatError at where."""
    if isinstance(exc, FormatError):
        return exc.within(where)
    return FormatError(where, exc.args[0] if exc.args else str(exc))


def _located(convert, obj: Any, where: str):
    """convert(obj), with any fault located at where: a decoder's fault in
    the document, or an encoder's refusal of a value too long to write."""
    try:
        return convert(obj)
    except (ValueError, KeyError) as exc:
        raise _relocated(exc, where) from None


# The values built so far by the running public decoder: a rational text
# maps to its Fraction (None for "inf"), and a (level, text) pair to its
# LevelValue.  A lookup follows the type checks, so a key is a checked str or
# (int, str), never a bool level (True == 1), and a faulty value raises before
# it is stored.  Every public decoder empties the table on the way out
# (``_decode``) and no private decoder calls a public one, so no entry
# outlives one call.  A value depends on its key alone, so a decode on
# another thread can cost hits but never change a result.
_TABLE: dict = {}
_MISS = object()


def _decode(decode, obj: Any, where: str):
    """A public decoder: decode(obj), with any fault located at where and
    the value table emptied whatever the outcome."""
    try:
        return _located(decode, obj, where)
    finally:
        _TABLE.clear()


def _each(decode, obj: Any, where: str) -> list:
    """decode each entry of the array obj; a fault in entry i is located
    at where[i]."""
    out = []
    for i, entry in enumerate(_expect_list(obj, where)):
        try:
            out.append(decode(entry))
        except (ValueError, KeyError) as exc:
            raise _relocated(exc, f"{where}[{i}]") from None
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
    """A nonnegative rational, or "inf", in the text form ``XRat`` reads;
    ValueError past ``MAX_RATIONAL_DIGITS``."""
    return str(x if isinstance(x, XRat) else XRat(x))


def _fraction(s: Any, where: str) -> Optional[Fraction]:
    """A rational string as a Fraction; None for "inf".  Each distinct text
    is parsed once per public decode."""
    if type(s) is str:
        frac = _TABLE.get(s, _MISS)
        if frac is not _MISS:
            return frac
    elif not isinstance(s, str):
        raise _wrong(s, "a string", where)
    try:
        frac = _TABLE[s] = _parse_rational(s)
    except ValueError as exc:
        raise FormatError(where, str(exc)) from None
    return frac


def _xrat(s: Any, where: str = "") -> XRat:
    frac = _fraction(s, where)
    return INF if frac is None else XRat(frac)


def rat_from_str(s: Any, where: str = "rational") -> XRat:
    return _decode(_xrat, s, where)


def _finite_from_str(s: Any, where: str) -> Fraction:
    frac = _fraction(s, where)
    if frac is None:
        raise FormatError(where, '"inf" is not allowed here')
    return frac


# --- leveled values --------------------------------------------------------------

def svalue_to_json(v: LevelValue) -> Optional[dict]:
    """A value's encoding; ValueError when its level or magnitude is past
    ``MAX_RATIONAL_DIGITS``."""
    if v.is_zero:
        return None
    if v.level >= _TOO_LONG:
        raise ValueError(f"result level has more than {MAX_RATIONAL_DIGITS} digits")
    return {"level": v.level, "real": rat_to_str(v.magnitude)}


_VALUE = frozenset({"level", "real"})


def _svalue(obj: Any) -> LevelValue:
    """A value encoding, built once per distinct (level, text) in a public
    decode."""
    if obj is None:
        return ZERO
    if type(obj) is not dict or obj.keys() != _VALUE:
        _expect_obj(obj, _VALUE, "")
    level, real = obj["level"], obj["real"]
    if type(level) is not int:
        _expect_int(level, ".level")
    if type(real) is str:
        value = _TABLE.get((level, real))
        if value is not None:
            return value
    if abs(level) >= _TOO_LONG:
        raise FormatError(".level", f"more than {MAX_RATIONAL_DIGITS} digits")
    frac = _fraction(real, ".real")
    value = _TABLE[level, real] = LevelValue(level, INF if frac is None else XRat(frac))
    return value


def svalue_from_json(obj: Any, where: str = "value") -> LevelValue:
    return _decode(_svalue, obj, where)


def vector_to_json(vec, where: str = "vector") -> list:
    """A vector's encoding; an entry too long to write is refused at
    where[j], as a decoder locates a fault."""
    return _each(svalue_to_json, list(vec), where)


def _vector(obj: Any) -> Vector:
    return tuple(_each(_svalue, obj, ""))


def vector_from_json(obj: Any, where: str = "vector") -> Vector:
    return _decode(_vector, obj, where)


# --- monomial families ------------------------------------------------------------

_MONOMIAL = frozenset({"level", "coeff", "degree"})


def _monomial(obj: Any) -> Optional[Monomial]:
    if obj is None:
        return None
    doc = _expect_obj(obj, _MONOMIAL, "")
    coeff = _finite_from_str(doc["coeff"], ".coeff")
    level = _expect_int(doc["level"], ".level")
    degree = _expect_int(doc["degree"], ".degree")
    return Monomial(level, coeff, degree)


def _family(obj: Any) -> MonomialFamily:
    return tuple(_each(_monomial, obj, ""))


def family_from_json(obj: Any, where: str = "family") -> MonomialFamily:
    return _decode(_family, obj, where)


# --- train tracks -------------------------------------------------------------------

_SWITCH = frozenset({"a", "b"})


def _switch(obj: Any) -> tuple[list, list]:
    doc = _expect_obj(obj, _SWITCH, "")
    return _strings(doc["a"], ".a"), _strings(doc["b"], ".b")


def _track(obj: Any) -> TrainTrack:
    doc = _expect_obj(obj, {"segments", "switches"}, "", {"free_ends"})
    segments = _strings(doc["segments"], ".segments")
    switches = _each(_switch, doc["switches"], ".switches")
    free_ends = None
    if "free_ends" in doc:
        raw = doc["free_ends"]
        if not isinstance(raw, dict):
            raise _wrong(raw, "an object", ".free_ends")
        free_ends = {}
        for seg, count in raw.items():
            try:
                free_ends[seg] = _expect_int(count, "")
            except FormatError as exc:
                raise exc.within(f".free_ends[{_ECHO.repr(seg)}]") from None
    return TrainTrack(segments, switches, free_ends)


def track_from_json(obj: Any, where: str = "track") -> TrainTrack:
    return _decode(_track, obj, where)


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
        if obj.keys() != _ATOM:
            _expect_obj(obj, _ATOM, "")
        interval, level = obj["interval"], obj["level"]
        if type(interval) is not str:
            _expect_str(interval, ".interval")
        position = _finite_from_str(obj["position"], ".position")
        if type(level) is not int:
            _expect_int(level, ".level")
        return Atom(interval, position, level, _xrat(obj["mass"], ".mass"))
    if kind == "density":
        if obj.keys() != _DENSITY:
            _expect_obj(obj, _DENSITY, "")
        interval, level = obj["interval"], obj["level"]
        if type(interval) is not str:
            _expect_str(interval, ".interval")
        lo = _finite_from_str(obj["lo"], ".lo")
        hi = _finite_from_str(obj["hi"], ".hi")
        if type(level) is not int:
            _expect_int(level, ".level")
        return Density(interval, lo, hi, level, _xrat(obj["rate"], ".rate"))
    raise FormatError("", f"unknown component kind {_ECHO.repr(kind)}")


def _measure(obj: Any) -> FHMeasure:
    doc = _expect_obj(obj, {"domain", "components"}, "", {"height_bound"})
    dom_doc = _expect_obj(doc["domain"], {"intervals"}, ".domain")
    intervals = _each(_interval, dom_doc["intervals"], ".domain.intervals")
    domain = _located(Domain, intervals, ".domain")
    components = _each(_component, doc["components"], ".components")
    height_bound = DEFAULT_HEIGHT_BOUND
    if "height_bound" in doc:
        height_bound = _expect_int(doc["height_bound"], ".height_bound")
    return FHMeasure(domain, components, height_bound)


def measure_from_json(obj: Any, where: str = "measure") -> FHMeasure:
    return _decode(_measure, obj, where)


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
    if type(obj) is not dict or obj.keys() != _EDGE:
        _expect_obj(obj, _EDGE, "")
    a, b = obj["a"], obj["b"]
    if type(a) is not str:
        _expect_str(a, ".a")
    if type(b) is not str:
        _expect_str(b, ".b")
    try:
        return a, b, _svalue(obj["len"])
    except (ValueError, KeyError) as exc:
        raise _relocated(exc, ".len") from None


def _tree(obj: Any) -> STree:
    doc = _expect_obj(obj, {"nodes", "edges"}, "")
    nodes = _strings(doc["nodes"], ".nodes")
    edges = _each(_edge, doc["edges"], ".edges")
    return STree(nodes, edges)


def tree_from_json(obj: Any, where: str = "tree") -> STree:
    return _decode(_tree, obj, where)


_CHORD = frozenset({"ends", "weight"})


def _chord(obj: Any) -> tuple[int, int, LevelValue]:
    doc = _expect_obj(obj, _CHORD, "")
    ends = _expect_list(doc["ends"], ".ends")
    if len(ends) != 2:
        raise FormatError(".ends", f"expected two marks, got {len(ends)}")
    i = _expect_int(ends[0], ".ends[0]")
    j = _expect_int(ends[1], ".ends[1]")
    try:
        return i, j, _svalue(doc["weight"])
    except (ValueError, KeyError) as exc:
        raise _relocated(exc, ".weight") from None


def _chords(obj: Any) -> ChordFamily:
    doc = _expect_obj(obj, {"marks", "chords"}, "")
    marks = _expect_int(doc["marks"], ".marks")
    chords = _each(_chord, doc["chords"], ".chords")
    return ChordFamily(marks, chords)


def chords_from_json(obj: Any, where: str = "chords") -> ChordFamily:
    return _decode(_chords, obj, where)
