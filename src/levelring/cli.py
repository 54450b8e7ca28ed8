"""Command-line front end.

One operation per invocation; inputs are JSON files in the formats of the
library modules, stdout carries a deterministic JSON (or text) report, and
stderr repeats any diagnostics in human-readable form.  The report holds a
command echo, a sha256 digest per input file, the result payload, and a
diagnostics list; the exit code is 0 exactly when no diagnostic has
severity "error".  Negative answers to honest questions (a weight vector
that is not contiguous, say) are results, not errors; malformed input and
failed validation are errors.  Every malformed input ends as an "error"
diagnostic with exit 1, never as a traceback.

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

Shared flags: --height-bound (default 16), --max-segments (strata cap,
default 10), --format json|text.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from json.encoder import encode_basestring_ascii
from typing import Any, Optional

from levelring import jsonio, measures, tracks, trees, values, vectors

__all__ = ["main"]


class CommandError(Exception):
    """Operation could not produce a result; message becomes a diagnostic."""


def _load(path: str, role: str, inputs: dict) -> Any:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CommandError(f"cannot read {role} file: {exc}")
    inputs[role] = hashlib.sha256(raw).hexdigest()
    try:
        return json.loads(raw)
    except (ValueError, RecursionError) as exc:
        raise CommandError(f"{role} file is not JSON: {exc}")


# --- svalue expressions ----------------------------------------------------------

def _eval_expr(doc: Any, where: str, height: int) -> Any:
    if not isinstance(doc, dict) or "op" not in doc:
        raise CommandError(f"{where}: expected an object with an \"op\" field")
    op = doc["op"]
    args = doc.get("args", [])
    if op in ("add", "mul", "compare") and not isinstance(args, list):
        raise CommandError(f"{where}: {op} wants an \"args\" array")
    try:
        if op == "add":
            return jsonio.svalue_to_json(values.total([jsonio.svalue_from_json(a, where) for a in args]))
        if op == "mul":
            out = values.LevelValue(0, values.XRat(1))
            for a in args:
                out = out * jsonio.svalue_from_json(a, where)
            return jsonio.svalue_to_json(out)
        if op == "scale":
            scalar = jsonio.rat_from_str(doc.get("scalar"), f"{where}.scalar")
            value = jsonio.svalue_from_json(doc.get("value"), f"{where}.value")
            return jsonio.svalue_to_json(value.scale(scalar))
        if op == "compare":
            if len(args) != 2:
                raise CommandError(f"{where}: compare wants exactly two arguments")
            a = jsonio.svalue_from_json(args[0], where)
            b = jsonio.svalue_from_json(args[1], where)
            return {-1: "LT", 0: "EQ", 1: "GT"}[values.compare(a, b)]
        if op == "psi":
            value = jsonio.svalue_from_json(doc.get("value"), f"{where}.value")
            return [jsonio.rat_to_str(x) for x in values.to_sequence(value, height)]
        if op == "unpsi":
            seq = doc.get("sequence")
            if not isinstance(seq, list):
                raise CommandError(f"{where}: unpsi wants a \"sequence\" array")
            entries = [jsonio.rat_from_str(s, f"{where}.sequence[{i}]") for i, s in enumerate(seq)]
            return jsonio.svalue_to_json(values.from_sequence(entries))
    except jsonio.FormatError:
        raise  # already located
    except ValueError as exc:
        raise CommandError(f"{where}: {exc}")
    raise CommandError(f"{where}: unknown op {values._ECHO.repr(op)}")


def _svalue(args, diagnostics: list, doc: Any) -> Any:
    if isinstance(doc, dict):
        doc = [doc]
    if not isinstance(doc, list):
        raise CommandError("exprs: expected an expression object or array")
    return [_eval_expr(entry, f"exprs[{i}]", args.height_bound) for i, entry in enumerate(doc)]


# --- track ------------------------------------------------------------------------

def _track_validate(args, diagnostics: list, track, weights) -> Any:
    violations = tracks.validate(track, weights)
    for v in violations:
        diagnostics.append({"severity": "error", "message": f"switch {v.switch}: {v.left} != {v.right}"})
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
    strata = tracks.enumerate_strata(track, args.height_bound, max_segments=args.max_segments)
    # One dict per distinct shape, so the report writer renders each once.
    shapes: dict = {None: None}
    for stratum in strata:
        for shape in stratum.pattern:
            if shape not in shapes:
                shapes[shape] = {"level": shape[0], "kind": shape[1]}
    return {
        "height_bound": args.height_bound,
        "strata": [
            {
                "pattern": [shapes[shape] for shape in stratum.pattern],
                "feasible": stratum.feasible,
                "witness": None if stratum.witness is None else jsonio.vector_to_json(stratum.witness),
            }
            for stratum in strata
        ],
    }


# --- measure ----------------------------------------------------------------------

def _measure_decompose(args, diagnostics: list, mu) -> Any:
    whole = measures.Region.whole(mu.domain)
    return {
        "table": [
            {"level": k, "mass": jsonio.rat_to_str(measures.nu_hat(mu, k, whole))}
            for k in mu.levels()
        ]
    }


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
        raise CommandError(f"tree {args.subcommand} input needs a \"tree\" field")
    return jsonio.tree_from_json(doc["tree"])


def _tree_dist(args, diagnostics: list, doc: Any) -> Any:
    tree = _tree_field(args, doc)
    pairs = doc.get("pairs")
    if not isinstance(pairs, list):
        raise CommandError("tree dist input needs a \"pairs\" array")
    out = []
    for i, row in enumerate(pairs):
        if not (isinstance(row, list) and len(row) == 2):
            raise CommandError(f"pairs[{i}]: expected [x, y]")
        x, y = row
        out.append({"pair": [x, y], "value": jsonio.svalue_to_json(trees.distance(tree, x, y))})
    return {"distances": out}


def _tree_insert(args, diagnostics: list, doc: Any) -> Any:
    tree = _tree_field(args, doc)
    for key in ("at", "insertion", "attach"):
        if key not in doc:
            raise CommandError(f"tree insert input needs a \"{key}\" field")
    sub_tree = jsonio.tree_from_json(doc["insertion"])
    attach = doc["attach"]
    if not isinstance(attach, dict) or not all(isinstance(n, str) for n in attach.values()):
        raise CommandError("tree insert \"attach\" must map insertion nodes to neighbors")
    return {"tree": jsonio.tree_to_json(trees.insert(tree, doc["at"], sub_tree, attach))}


def _tree_collapse(args, diagnostics: list, doc: Any) -> Any:
    tree = _tree_field(args, doc)
    group = doc.get("group")
    if not isinstance(group, list):
        raise CommandError("tree collapse input needs a \"group\" array")
    return {"tree": jsonio.tree_to_json(trees.collapse(tree, group))}


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
    return {"classes": [jsonio.vector_to_json(c.canon) for c in classes]}


def _family_limit(args, diagnostics: list, doc: Any) -> Any:
    if not isinstance(doc, dict) or "family" not in doc or "reference" not in doc:
        raise CommandError('family limit input needs "family" and "reference" fields')
    family = jsonio.family_from_json(doc["family"])
    reference = doc["reference"]
    if isinstance(reference, bool) or not isinstance(reference, int):
        raise CommandError("family limit \"reference\" must be an entry index")
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
        lambda args, diagnostics, track, weights: {"weights": jsonio.vector_to_json(tracks.align_weights(weights))},
    ),
    ("track", "adjust"): (
        [TRACK, WEIGHTS],
        lambda args, diagnostics, track, weights: {
            "adjustments": [
                {"segments": list(subset), "weights": jsonio.vector_to_json(vec)}
                for subset, vec in tracks.adjustments(track, weights)
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
            "weights": jsonio.vector_to_json(tracks.height_filtration(track, family))
        },
    ),
    ("measure", "eval"): (
        [MEASURE],
        lambda args, diagnostics, mu: {
            "value": jsonio.svalue_to_json(measures.evaluate(mu, measures.Region.whole(mu.domain)))
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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--height-bound",
        type=int,
        default=values.DEFAULT_HEIGHT_BOUND,
        help="level cap for sequence embeddings and strata enumeration",
    )
    shared.add_argument(
        "--max-segments",
        type=int,
        default=10,
        help="refuse strata enumeration on tracks with more segments",
    )
    shared.add_argument(
        "--format",
        choices=("json", "text"),
        default="json",
        help="report rendering",
    )

    parser = argparse.ArgumentParser(
        prog="levelring",
        description="exact arithmetic for leveled weights, measures, tracks and trees",
    )
    groups = parser.add_subparsers(dest="group", required=True)
    for group, (group_help, files) in GROUPS.items():
        p = groups.add_parser(group, parents=[shared], help=group_help)
        subs = [words[1] for words in COMMANDS if words[0] == group and len(words) > 1]
        if subs:
            p.add_argument("subcommand", choices=subs)
        for i, (name, file_help) in enumerate(files):
            p.add_argument(name, nargs="?" if i else None, help=file_help)
    return parser


# --- report rendering ----------------------------------------------------------------

def _render_text(report: dict) -> str:
    lines = [f"command: {' '.join(report['command']['words'])}"]
    for key in sorted(report["command"]["options"]):
        lines.append(f"option {key}: {report['command']['options'][key]}")
    for role in sorted(report["inputs"]):
        lines.append(f"input {role}: sha256={report['inputs'][role]}")
    lines.append(
        "result: "
        + json.dumps(report["result"], sort_keys=True, separators=(",", ":"))
    )
    for d in report["diagnostics"]:
        lines.append(f"{d['severity']}: {d['message']}")
    return "\n".join(lines) + "\n"


def _render_json(report: dict) -> str:
    """``json.dumps(report, indent=2, sort_keys=True)``, byte for byte, for
    the types a report holds: dicts with str keys, lists, tuples, str, int,
    bool and None; any other type raises TypeError.  A container of scalars
    met again at the same depth reuses the text written for it the first
    time.  Only those are kept: keeping the text of every container would
    hold a large report in memory once per level of nesting."""
    parts: list[str] = []
    written: dict[tuple[int, int], str] = {}  # (id, depth) -> text

    def write(obj: Any, depth: int) -> bool:
        """Append the text of obj; True when obj is a nonempty container."""
        if isinstance(obj, str):
            parts.append(encode_basestring_ascii(obj))
        elif obj is None:
            parts.append("null")
        elif obj is True:
            parts.append("true")
        elif obj is False:
            parts.append("false")
        elif isinstance(obj, int):
            parts.append(int.__repr__(obj))
        elif isinstance(obj, (dict, list, tuple)):
            if not obj:
                parts.append("{}" if isinstance(obj, dict) else "[]")
                return False
            text = written.get((id(obj), depth))
            if text is not None:
                parts.append(text)
                return True
            start = len(parts)
            nested = False
            indent = "\n" + "  " * (depth + 1)
            if isinstance(obj, dict):
                parts.append("{")
                for key, value in sorted(obj.items()):
                    if not isinstance(key, str):
                        raise TypeError(f"keys must be str, not {type(key).__name__}")
                    parts.extend((indent, encode_basestring_ascii(key), ": "))
                    nested |= write(value, depth + 1)
                    parts.append(",")
                parts[-1] = "\n" + "  " * depth + "}"
            else:
                parts.append("[")
                for value in obj:
                    parts.append(indent)
                    nested |= write(value, depth + 1)
                    parts.append(",")
                parts[-1] = "\n" + "  " * depth + "]"
            if not nested:
                text = written[id(obj), depth] = "".join(parts[start:])
                del parts[start:]
                parts.append(text)
            return True
        else:
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        return False

    write(report, 0)
    return "".join(parts)


def main(argv: Optional[list] = None) -> int:
    args = _build_parser().parse_args(argv)

    words = [args.group] + ([args.subcommand] if "subcommand" in args else [])
    roles, handler = COMMANDS[tuple(words)]
    paths = [getattr(args, name) for name, _ in GROUPS[args.group][1]]
    inputs: dict = {}
    diagnostics: list = []
    result: Any = None
    try:
        docs = []
        for (role, decoder), path in zip(roles, paths):
            if path is None:
                raise CommandError(f"{' '.join(words)} needs a {role} file")
            doc = _load(path, role, inputs)
            docs.append(doc if decoder is None else getattr(jsonio, f"{decoder}_from_json")(doc))
        result = handler(args, diagnostics, *docs)
    except (CommandError, ValueError, KeyError, ZeroDivisionError) as exc:
        diagnostics.append({"severity": "error", "message": str(exc.args[0] if exc.args else exc)})

    report = {
        "command": {
            "words": words,
            "options": {
                "format": args.format,
                "height_bound": args.height_bound,
                "max_segments": args.max_segments,
            },
        },
        "inputs": inputs,
        "result": result,
        "diagnostics": diagnostics,
    }
    if args.format == "json":
        sys.stdout.write(_render_json(report) + "\n")
    else:
        sys.stdout.write(_render_text(report))
    failed = False
    for d in diagnostics:
        if d["severity"] == "error":
            failed = True
        sys.stderr.write(f"{d['severity']}: {d['message']}\n")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
