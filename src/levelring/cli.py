"""Command-line front end.

One operation per invocation; inputs are JSON files in the formats of the
library modules, stdout carries a deterministic JSON (or text) report, and
stderr repeats any diagnostics in human-readable form.  The report holds a
command echo, a sha256 digest per input file, the result payload, and a
diagnostics list; the exit code is 0 exactly when no diagnostic has
severity "error".  Negative answers to honest questions (a weight vector
that is not contiguous, say) are results, not errors; malformed input and
failed validation are errors.  Every malformed input ends as an "error"
diagnostic with exit 1, never as a traceback.  A fault with a place in a
document or in the report is a ``jsonio.FormatError``, located relative to
the value being decoded or written; each enclosing value prefixes its part
of the location as the fault passes out (``exprs[0].args[1].real``).

    levelring svalue  EXPRS                      evaluate value expressions
    levelring track   SUB TRACK [SECOND]         validate|align|adjust|
                                                 contiguous|strata|filtration
    levelring measure SUB MEASURE                eval|decompose|validate|align
    levelring tree    SUB INPUT                  dist|metric|insert|collapse|dual
    levelring family  SUB INPUT                  limit|limits

``track validate|align|adjust|contiguous`` read a weights file as SECOND,
``track filtration`` a family file; ``family limit`` takes
``{"family": [...], "reference": j}`` with ``0 <= j < len(family)``.  Each
command is one entry of ``COMMANDS``.

Shared flags: --height-bound (default 16), --format json|text.

An argv in the plain form, ``GROUP [SUB] FILE [FILE]`` (no file starting
with ``-``) followed by any number of ``--height-bound N`` and
``--format F`` pairs, each flag spelled in full as its own word, is read
straight from ``COMMANDS``, ``GROUPS`` and ``FLAGS``, and argparse is not
loaded for it.  Every other spelling (an abbreviated flag, ``--flag=value``,
a flag before a file, ``--``, ``-h``) goes to argparse, with the same
meaning and the same usage errors (exit 2), and every ``--help`` text
comes from argparse alone.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import sys
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Optional

from levelring import jsonio, measures, tracks, trees, values, vectors

if TYPE_CHECKING:  # loaded at run time only for help and usage errors
    import argparse

__all__ = ["main"]


def _load(path: str, role: str, inputs: dict) -> Any:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {role} file: {exc}")
    inputs[role] = hashlib.sha256(raw).hexdigest()
    try:
        return json.loads(raw)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{role} file is not JSON: {exc}")


# --- svalue expressions ----------------------------------------------------------

def _eval_expr(doc: Any, height: int) -> Any:
    """One expression's result; a fault is located relative to doc."""
    if not isinstance(doc, dict) or "op" not in doc:
        raise jsonio.FormatError("", "expected an object with an \"op\" field")
    op = doc["op"]
    args = doc.get("args", [])
    if op in ("add", "mul", "compare") and not isinstance(args, list):
        raise jsonio.FormatError("", f"{op} wants an \"args\" array")
    if op == "add":
        return jsonio.svalue_to_json(values.total(jsonio.vector_from_json(args, ".args")))
    if op == "mul":
        out = values.LevelValue(0, values.XRat(1))
        for a in jsonio.vector_from_json(args, ".args"):
            out = out * a
        return jsonio.svalue_to_json(out)
    if op == "scale":
        scalar = jsonio.rat_from_str(doc.get("scalar"), ".scalar")
        value = jsonio.svalue_from_json(doc.get("value"), ".value")
        return jsonio.svalue_to_json(value.scale(scalar))
    if op == "compare":
        if len(args) != 2:
            raise jsonio.FormatError("", "compare wants exactly two arguments")
        a, b = jsonio.vector_from_json(args, ".args")
        return {-1: "LT", 0: "EQ", 1: "GT"}[values.compare(a, b)]
    if op == "psi":
        value = jsonio.svalue_from_json(doc.get("value"), ".value")
        return [jsonio.rat_to_str(x) for x in values.to_sequence(value, height)]
    if op == "unpsi":
        seq = doc.get("sequence")
        if not isinstance(seq, list):
            raise jsonio.FormatError("", "unpsi wants a \"sequence\" array")
        entries = jsonio._each(lambda s: jsonio.rat_from_str(s, ""), seq, ".sequence")
        return jsonio.svalue_to_json(values.from_sequence(entries))
    raise jsonio.FormatError("", f"unknown op {values._ECHO.repr(op)}")


def _svalue(args, diagnostics: list, doc: Any) -> Any:
    if isinstance(doc, dict):
        doc = [doc]
    if not isinstance(doc, list):
        raise jsonio.FormatError("exprs", "expected an expression object or array")
    return jsonio._each(lambda entry: _eval_expr(entry, args.height_bound), doc, "exprs")


# --- track ------------------------------------------------------------------------

def _track_validate(args, diagnostics: list, track, weights) -> Any:
    violations = tracks.validate(track, weights)
    for v in violations:
        diagnostics.append({"severity": "error", "message": str(v)})
    return {
        "valid": not violations,
        "violations": [
            {
                "switch": v.switch,
                "left": jsonio.svalue_to_json(v.left),
                "right": jsonio.svalue_to_json(v.right),
            }
            for v in violations
        ],
    }


def _track_strata(args, diagnostics: list, track) -> Any:
    return {"height_bound": args.height_bound, "strata": tracks.enumerate_strata(track, args.height_bound)}


def _shape(shape: tracks.Shape) -> Optional[dict]:
    return None if shape is None else {"level": shape[0], "kind": shape[1]}


# --- measure ----------------------------------------------------------------------

def _measure_decompose(args, diagnostics: list, mu) -> Any:
    whole = measures.Region.whole(mu.domain)
    table = []
    for i, k in enumerate(mu.levels()):
        mass = jsonio._located(jsonio.rat_to_str, measures.nu_hat(mu, k, whole), f"table[{i}].mass")
        table.append({"level": k, "mass": mass})
    return {"table": table}


def _measure_validate(args, diagnostics: list, mu) -> Any:
    graded = measures.is_open_graded(mu)
    finite = measures.is_locally_finite(mu)
    if not graded:
        diagnostics.append(
            {
                "severity": "error",
                "message": "measure is not open-graded: some level is buried in higher support",
            }
        )
    if not finite:
        diagnostics.append(
            {
                "severity": "error",
                "message": "measure is not locally finite: an infinite component evades higher levels",
            }
        )
    return {"open_graded": graded, "locally_finite": finite}


# --- tree -------------------------------------------------------------------------

def _tree_field(args, doc: Any):
    if not isinstance(doc, dict) or "tree" not in doc:
        raise ValueError(f"tree {args.subcommand} input needs a \"tree\" field")
    return jsonio.tree_from_json(doc["tree"])


def _tree_dist(args, diagnostics: list, doc: Any) -> Any:
    tree = _tree_field(args, doc)
    pairs = doc.get("pairs")
    if not isinstance(pairs, list):
        raise ValueError("tree dist input needs a \"pairs\" array")
    out = []
    for i, row in enumerate(pairs):
        if not (isinstance(row, list) and len(row) == 2):
            raise jsonio.FormatError(f"pairs[{i}]", "expected [x, y]")
        x, y = row
        value = jsonio._located(jsonio.svalue_to_json, trees.distance(tree, x, y), f"distances[{i}].value")
        out.append({"pair": [x, y], "value": value})
    return {"distances": out}


def _tree_insert(args, diagnostics: list, doc: Any) -> Any:
    tree = _tree_field(args, doc)
    for key in ("at", "insertion", "attach"):
        if key not in doc:
            raise ValueError(f"tree insert input needs a \"{key}\" field")
    sub_tree = jsonio.tree_from_json(doc["insertion"])
    attach = doc["attach"]
    if not isinstance(attach, dict) or not all(isinstance(n, str) for n in attach.values()):
        raise ValueError("tree insert \"attach\" must map insertion nodes to neighbors")
    return {"tree": jsonio.tree_to_json(trees.insert(tree, doc["at"], sub_tree, attach))}


def _tree_collapse(args, diagnostics: list, doc: Any) -> Any:
    tree = _tree_field(args, doc)
    group = doc.get("group")
    if not isinstance(group, list):
        raise ValueError("tree collapse input needs a \"group\" array")
    return {"tree": jsonio.tree_to_json(trees.collapse(tree, jsonio._strings(group, "group")))}


def _tree_dual(args, diagnostics: list, family) -> Any:
    tree, regions = trees.dual_tree(family)
    encoded = {}
    for name in tree.nodes:
        tag = regions[name]
        encoded[name] = {"kind": "outer"} if tag[0] == "outer" else {"kind": "chord", "ends": list(tag[1])}
    return {"tree": jsonio.tree_to_json(tree), "regions": encoded}


# --- family -----------------------------------------------------------------------

def _family_limits(args, diagnostics: list, doc: Any) -> Any:
    if isinstance(doc, dict) and "family" in doc:
        doc = doc["family"]
    classes = vectors.limit_points(jsonio.family_from_json(doc))
    return {"classes": [jsonio.vector_to_json(c.canon, f"classes[{i}]") for i, c in enumerate(classes)]}


def _family_limit(args, diagnostics: list, doc: Any) -> Any:
    if not isinstance(doc, dict) or "family" not in doc or "reference" not in doc:
        raise ValueError('family limit input needs "family" and "reference" fields')
    family = jsonio.family_from_json(doc["family"])
    reference = doc["reference"]
    if isinstance(reference, bool) or not isinstance(reference, int):
        raise ValueError("family limit \"reference\" must be an entry index")
    return {"vector": jsonio.vector_to_json(vectors.normalized_limit(family, reference))}


# --- the command table -------------------------------------------------------------

# group -> (help, file arguments as (name, help)).  The second track file is
# optional because ``track strata`` reads none.
GROUPS = {
    "svalue": ("evaluate value expressions", [("exprs", "expression JSON file")]),
    "track": (
        "train-track operations",
        [
            ("track", "track JSON file"),
            ("second", "weights file (validate/align/adjust/contiguous) or family file (filtration)"),
        ],
    ),
    "measure": ("interval-measure operations", [("measure", "measure JSON file")]),
    "tree": ("metric-tree operations", [("input", "operation input JSON file")]),
    "family": ("monomial-family limits", [("input", "family JSON file")]),
}

TRACK = ("track", "track")
WEIGHTS = ("weights", "vector")
MEASURE = ("measure", "measure")
RAW_INPUT = ("input", None)

# Command words -> (inputs, handler).  The inputs are read from the group's
# file arguments in order, each as (role, decoder): the role names the file
# in the report, and the decoder names a ``jsonio.<decoder>_from_json``
# function, or is None for a document the handler takes apart itself.  The
# handler gets the parsed arguments, the diagnostics list and the decoded
# inputs, and returns the result payload.  Handlers call library functions
# through module globals at call time and the table holds only names, so a
# wrapper installed on a module attribute sees every call.
COMMANDS = {
    ("svalue",): ([("exprs", None)], _svalue),
    ("track", "validate"): ([TRACK, WEIGHTS], _track_validate),
    ("track", "align"): (
        [TRACK, WEIGHTS],
        lambda args, diagnostics, track, weights: {
            "weights": jsonio.vector_to_json(tracks.align_weights(weights), "weights")
        },
    ),
    ("track", "adjust"): (
        [TRACK, WEIGHTS],
        lambda args, diagnostics, track, weights: {
            "adjustments": [
                {"segments": list(subset), "weights": jsonio.vector_to_json(vec, f"adjustments[{i}].weights")}
                for i, (subset, vec) in enumerate(tracks.adjustments(track, weights))
            ]
        },
    ),
    ("track", "contiguous"): (
        [TRACK, WEIGHTS],
        lambda args, diagnostics, track, weights: {
            "contiguous": tracks.is_contiguous(track, weights),
            "proximal": tracks.is_proximal(weights),
        },
    ),
    ("track", "strata"): ([TRACK], _track_strata),
    ("track", "filtration"): (
        [TRACK, ("family", "family")],
        lambda args, diagnostics, track, family: {
            "weights": jsonio.vector_to_json(tracks.height_filtration(track, family), "weights")
        },
    ),
    ("measure", "eval"): (
        [MEASURE],
        lambda args, diagnostics, mu: {
            "value": jsonio._located(
                jsonio.svalue_to_json, measures.evaluate(mu, measures.Region.whole(mu.domain)), "value"
            )
        },
    ),
    ("measure", "decompose"): ([MEASURE], _measure_decompose),
    ("measure", "validate"): ([MEASURE], _measure_validate),
    ("measure", "align"): (
        [MEASURE],
        lambda args, diagnostics, mu: {"measure": jsonio.measure_to_json(measures.align(mu))},
    ),
    ("tree", "dist"): ([RAW_INPUT], _tree_dist),
    ("tree", "metric"): (
        [("input", "tree")],
        lambda args, diagnostics, tree: {"metric": trees.verify_metric(tree)},
    ),
    ("tree", "insert"): ([RAW_INPUT], _tree_insert),
    ("tree", "collapse"): ([RAW_INPUT], _tree_collapse),
    ("tree", "dual"): ([("input", "chords")], _tree_dual),
    ("family", "limit"): ([RAW_INPUT], _family_limit),
    ("family", "limits"): ([RAW_INPUT], _family_limits),
}


# group -> its command words after the group, in table order; empty for a
# group of one command
SUBCOMMANDS = {group: [words[1] for words in COMMANDS if words[0] == group and len(words) > 1] for group in GROUPS}

# shared flag -> its argparse keywords, which the plain form reads too
FLAGS = {
    "--height-bound": {
        "dest": "height_bound",
        "type": int,
        "default": values.DEFAULT_HEIGHT_BOUND,
        "help": "level cap for sequence embeddings and strata enumeration",
    },
    "--format": {"dest": "format", "choices": ("json", "text"), "default": "json", "help": "report rendering"},
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    import argparse

    shared = argparse.ArgumentParser(add_help=False)
    for flag, keywords in FLAGS.items():
        shared.add_argument(flag, **keywords)

    parser = argparse.ArgumentParser(
        prog="levelring",
        description="exact arithmetic for leveled weights, measures, tracks and trees",
    )
    groups = parser.add_subparsers(dest="group", required=True)
    for group, (group_help, files) in GROUPS.items():
        p = groups.add_parser(group, parents=[shared], help=group_help)
        if SUBCOMMANDS[group]:
            p.add_argument("subcommand", choices=SUBCOMMANDS[group])
        for i, (name, file_help) in enumerate(files):
            p.add_argument(name, nargs="?" if i else None, help=file_help)
    return parser


def _plain_args(argv: list) -> Optional[SimpleNamespace]:
    """The arguments argparse would parse from an argv in the plain form
    (see the module docstring), or None for any other argv.  Flags come
    after every file: argparse ends an optional second file at a flag, so
    a file after one is an extra argument (a usage error) there."""
    group = argv[0] if argv else None
    if group not in GROUPS:
        return None
    parsed = {"group": group}
    start = 1
    if SUBCOMMANDS[group]:
        if len(argv) < 2 or argv[1] not in SUBCOMMANDS[group]:
            return None
        parsed["subcommand"] = argv[1]
        start = 2
    names = [name for name, _ in GROUPS[group][1]]
    files = list(itertools.takewhile(lambda word: word[:1] != "-", argv[start:start + len(names)]))
    if not files:
        return None
    parsed.update(itertools.zip_longest(names, files))
    parsed.update((keywords["dest"], keywords["default"]) for keywords in FLAGS.values())
    tail = argv[start + len(files):]
    if len(tail) % 2:
        return None
    for flag, word in zip(tail[::2], tail[1::2]):
        keywords = FLAGS.get(flag)
        if keywords is None or word[:1] == "-":
            return None
        try:
            value = keywords.get("type", str)(word)
        except ValueError:
            return None
        if value not in keywords.get("choices", (value,)):
            return None
        parsed[keywords["dest"]] = value
    return SimpleNamespace(**parsed)


# --- report rendering ----------------------------------------------------------------

def _render_text(report: dict) -> str:
    lines = [f"command: {' '.join(report['command']['words'])}"]
    for key in sorted(report["command"]["options"]):
        lines.append(f"option {key}: {report['command']['options'][key]}")
    for role in sorted(report["inputs"]):
        lines.append(f"input {role}: sha256={report['inputs'][role]}")
    lines.append("result: " + _render_json(report["result"], indent=False))
    for d in report["diagnostics"]:
        lines.append(f"{d['severity']}: {d['message']}")
    return "\n".join(lines) + "\n"


def _render_json(report: Any, indent: bool = True) -> str:
    """``json.dumps(report, sort_keys=True)`` byte for byte, with
    ``indent=2`` when indent and ``separators=(",", ":")`` otherwise, for
    the types a report holds: dicts with str keys, lists, tuples, str,
    int, bool, None, and lists of `tracks.Stratum` as `enumerate_strata`
    makes them (a nonempty pattern, a witness of at least one value or
    None); anything else raises TypeError.  A stratum is the object with
    keys "feasible", "pattern" (its shapes) and "witness" (its value
    encodings, or null), written as one head text for its verdict and one
    entry text per shape and per witness value, taken from tables that
    fill themselves for its list (`values._Memo`), so the parts of a
    large report are references to a few shared strings.
    Shapes are looked up by value, and witness values by identity, which
    hashes none: `enumerate_strata` makes equal values one object, and
    equal but distinct values get entries of their own, with the same
    bytes."""
    # an entry at depth d, or a bracket closing one, starts on a new line
    # indented by d steps
    newline, step, colon = ("\n", "  ", ": ") if indent else ("", "", ":")

    def text(obj: Any, depth: int) -> str:
        out: list[str] = []
        write(obj, depth, out)
        return "".join(out)

    def strata(items: Any, depth: int, out: list) -> None:
        """Append a list of strata at depth."""
        item_at, field_at, entry_at = (newline + step * (depth + k) for k in (1, 2, 3))
        head = f'{item_at}{{{field_at}"feasible"{colon}%s,{field_at}"pattern"{colon}['
        true_head, false_head = head % "true", head % "false"

        def texts(show, after: str) -> values._Memo:
            """key -> an entry: a new line at entry depth, show(key), after."""
            return values._Memo(lambda key: entry_at + show(key) + after)

        shape_json = values._Memo(lambda sh: text(_shape(sh), depth + 3)).__getitem__
        shapes = texts(shape_json, ",")
        # a miss finds its value in the witness being written
        witness_texts = texts(
            lambda key: text(jsonio.svalue_to_json(next(v for v in witness if id(v) == key)), depth + 3), ","
        )
        # the last shape closes the pattern and starts the witness; the last
        # witness value, found by id after the whole witness, closes the
        # stratum
        pattern_end = f'{field_at}],{field_at}"witness"{colon}'
        closed = texts(shape_json, f"{pattern_end}null{item_at}}},")
        opened = texts(shape_json, pattern_end + "[")
        stratum_end = f"{field_at}]{item_at}}},"
        last_values = values._Memo(lambda key: witness_texts[key][:-1] + stratum_end)
        out.append("[")
        for item in items:
            if not (isinstance(item, tracks.Stratum) and item.pattern and item.witness != ()):
                raise TypeError(f"not a stratum with a pattern and a witness: {type(item).__name__}")
            pattern, witness = item.pattern, item.witness
            out.append(true_head if item.feasible else false_head)
            out.extend(map(shapes.__getitem__, pattern))
            if witness is None:
                out[-1] = closed[pattern[-1]]
            else:
                out[-1] = opened[pattern[-1]]
                out.extend(map(witness_texts.__getitem__, map(id, witness)))
                out[-1] = last_values[id(witness[-1])]
        out[-1] = out[-1][:-1] + newline + step * depth + "]"

    def write(obj: Any, depth: int, out: list) -> None:
        if isinstance(obj, str):
            out.append(encode_basestring_ascii(obj))
        elif obj is None:
            out.append("null")
        elif obj is True:
            out.append("true")
        elif obj is False:
            out.append("false")
        elif isinstance(obj, int):
            out.append(int.__repr__(obj))
        elif isinstance(obj, (dict, list, tuple)):
            if not obj:
                out.append("{}" if isinstance(obj, dict) else "[]")
                return
            inner = newline + step * (depth + 1)
            if isinstance(obj, dict):
                out.append("{")
                for key, value in sorted(obj.items()):
                    if not isinstance(key, str):
                        raise TypeError(f"keys must be str, not {type(key).__name__}")
                    out.extend((inner, encode_basestring_ascii(key), colon))
                    write(value, depth + 1, out)
                    out.append(",")
                out[-1] = newline + step * depth + "}"
            elif isinstance(obj[0], tracks.Stratum):
                strata(obj, depth, out)
            else:
                out.append("[")
                for value in obj:
                    out.append(inner)
                    write(value, depth + 1, out)
                    out.append(",")
                out[-1] = newline + step * depth + "]"
        else:
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")

    try:
        return text(report, 0)
    finally:
        # the three functions hold each other through their closures: break
        # that cycle, so that they are freed now and not at some later
        # collection
        del text, strata, write


_WRITE_SLICE = 1 << 20  # characters of a report per write


def main(argv: Optional[list] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(argv) or _build_parser().parse_args(argv)

    words = [args.group] + ([args.subcommand] if SUBCOMMANDS[args.group] else [])
    roles, handler = COMMANDS[tuple(words)]
    paths = [getattr(args, name) for name, _ in GROUPS[args.group][1]]
    inputs: dict = {}
    diagnostics: list = []
    result: Any = None
    try:
        docs = []
        for (role, decoder), path in zip(roles, paths):
            if path is None:
                raise ValueError(f"{' '.join(words)} needs a {role} file")
            doc = _load(path, role, inputs)
            docs.append(doc if decoder is None else getattr(jsonio, f"{decoder}_from_json")(doc))
        result = handler(args, diagnostics, *docs)
    # RuntimeError: a library self-check (a solver or strata witness) failed
    except (ValueError, KeyError, ZeroDivisionError, RuntimeError) as exc:
        diagnostics.append({"severity": "error", "message": str(exc.args[0] if exc.args else exc)})

    report = {
        "command": {
            "words": words,
            "options": {
                "format": args.format,
                "height_bound": args.height_bound,
            },
        },
        "inputs": inputs,
        "result": result,
        "diagnostics": diagnostics,
    }
    text = _render_json(report) if args.format == "json" else _render_text(report)
    # written in slices, so that the encoded copy of a large report is
    # never held whole beside it
    for start in range(0, len(text), _WRITE_SLICE):
        sys.stdout.write(text[start:start + _WRITE_SLICE])
    if args.format == "json":
        sys.stdout.write("\n")
    failed = False
    for d in diagnostics:
        if d["severity"] == "error":
            failed = True
        sys.stderr.write(f"{d['severity']}: {d['message']}\n")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
