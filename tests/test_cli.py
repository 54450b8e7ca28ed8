"""Command-line reports: golden runs, exit codes, determinism.

``python3 tests/test_cli.py`` (with ``src`` on ``PYTHONPATH``) rewrites the
golden reports under ``tests/golden`` from the current code.
"""

import copy
import gc
import io
import itertools
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import random_track_family
from levelring import cli, jsonio, tracks, values, vectors
from levelring.cli import COMMANDS, main
from levelring.jsonio import MAX_RATIONAL_DIGITS
from levelring.tracks import MAX_ADJUST_SUBSETS, MAX_STRATA
from levelring.values import MAX_SEQUENCE_HEIGHT

GOLDEN = Path(__file__).parent / "golden"

# name -> argv, run from tests/golden/inputs in both --format json and text
GOLDEN_CASES = {
    "svalue": ["svalue", "exprs.json", "--height-bound", "5"],
    "track_validate": ["track", "validate", "spiral_track.json", "spiral_weights.json"],
    "track_validate_violations": ["track", "validate", "xy_track.json", "xy_weights.json"],
    "track_align": ["track", "align", "spiral_track.json", "spiral_weights.json"],
    "track_adjust": ["track", "adjust", "spiral_track.json", "spiral_weights.json"],
    "track_contiguous": ["track", "contiguous", "spiral_track.json", "spiral_weights.json"],
    "track_strata": ["track", "strata", "xy_track.json", "--height-bound", "2"],
    "track_filtration": ["track", "filtration", "merged_track.json", "family3.json"],
    "measure_eval": ["measure", "eval", "measure.json"],
    "measure_decompose": ["measure", "decompose", "measure.json"],
    "measure_validate": ["measure", "validate", "measure.json"],
    "measure_validate_buried": ["measure", "validate", "buried_measure.json"],
    "measure_align": ["measure", "align", "buried_measure.json"],
    "tree_dist": ["tree", "dist", "dist.json"],
    "tree_metric": ["tree", "metric", "tree.json"],
    "tree_insert": ["tree", "insert", "insert.json"],
    "tree_collapse": ["tree", "collapse", "collapse.json"],
    "tree_dual": ["tree", "dual", "chords.json"],
    "family_limits": ["family", "limits", "family.json"],
    "family_limit": ["family", "limit", "limit.json"],
    "error_align_without_weights": ["track", "align", "spiral_track.json"],
    "error_filtration_without_family": ["track", "filtration", "merged_track.json"],
    "error_not_json": ["track", "strata", "not_json.json"],
    "error_unreadable": ["measure", "eval", "missing.json"],
    "error_format": ["measure", "eval", "malformed_measure.json"],
    "error_library_value": ["track", "strata", "xy_track.json", "--height-bound", "0"],
    "error_adjust_not_invariant": ["track", "adjust", "xy_track.json", "xy_weights.json"],
    "error_unknown_node": ["tree", "dist", "dist_unknown_node.json"],
}
HELP_CASES = {
    "help": ["--help"],
    **{f"help_{group}": [group, "--help"] for group in ("svalue", "track", "measure", "tree", "family")},
}


# golden file name -> argv
GOLDEN_RUNS = {
    **{f"{name}.{fmt}.golden": argv + ["--format", fmt]
       for name, argv in GOLDEN_CASES.items() for fmt in ("json", "text")},
    **{f"{name}.golden": argv for name, argv in HELP_CASES.items()},
}


def capture(argv):
    """Exit code, stdout and stderr of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def golden_report(argv):
    code, out, err = capture(argv)
    return f"exit {code}\n--- stdout\n{out}--- stderr\n{err}"


@pytest.mark.parametrize("golden", sorted(GOLDEN_RUNS))
def test_golden_report(golden, monkeypatch):
    monkeypatch.chdir(GOLDEN / "inputs")
    monkeypatch.setenv("COLUMNS", "80")
    assert golden_report(GOLDEN_RUNS[golden]).encode() == (GOLDEN / golden).read_bytes()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, doc):
    target = tmp_path / name
    target.write_text(json.dumps(doc))
    return str(target)


XY_TRACK = {"segments": ["x", "y"], "switches": [{"a": ["x", "y"], "b": ["y"]}]}
SPIRAL_TRACK = {
    "segments": ["x", "y", "z", "w"],
    "switches": [{"a": ["x", "y"], "b": ["w"]}, {"a": ["w"], "b": ["y", "z"]}],
}
MERGED_TRACK = {
    "segments": ["x", "y", "z"],
    "switches": [{"a": ["x", "y"], "b": ["y", "z"]}],
}


def test_svalue_expressions(tmp_path, capsys):
    exprs = write(
        tmp_path,
        "exprs.json",
        [
            {"op": "add", "args": [{"level": 1, "real": "1"}, {"level": 0, "real": "1"}]},
            {"op": "psi", "value": {"level": 2, "real": "7"}},
            {"op": "compare", "args": [None, {"level": 0, "real": "1"}]},
        ],
    )
    code, out, err = run(capsys, "svalue", exprs, "--height-bound", "5")
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["result"] == [
        {"level": 1, "real": "1"},
        ["inf", "inf", "7", "0", "0"],
        "LT",
    ]
    assert report["diagnostics"] == []
    assert set(report["inputs"]) == {"exprs"}


def test_svalue_bad_expression(tmp_path, capsys):
    exprs = write(tmp_path, "exprs.json", [{"op": "warp", "args": []}])
    code, out, err = run(capsys, "svalue", exprs)
    assert code == 1
    report = json.loads(out)
    assert report["result"] is None
    assert report["diagnostics"][0]["severity"] == "error"
    assert "unknown op" in err


def test_track_validate_reports_violations(tmp_path, capsys):
    track = write(tmp_path, "track.json", XY_TRACK)
    weights = write(
        tmp_path,
        "weights.json",
        [{"level": 0, "real": "1"}, {"level": 0, "real": "1"}],
    )
    code, out, err = run(capsys, "track", "validate", track, weights)
    assert code == 1
    report = json.loads(out)
    assert report["result"]["valid"] is False
    assert report["result"]["violations"][0]["switch"] == 0
    assert "switch 0" in err


def test_track_validate_accepts_spiral(tmp_path, capsys):
    track = write(tmp_path, "track.json", SPIRAL_TRACK)
    weights = write(
        tmp_path,
        "weights.json",
        [
            {"level": 0, "real": "1"},
            {"level": 1, "real": "1"},
            {"level": 0, "real": "1"},
            {"level": 1, "real": "1"},
        ],
    )
    code, out, _ = run(capsys, "track", "validate", track, weights)
    assert code == 0
    assert json.loads(out)["result"] == {"valid": True, "violations": []}


def test_track_contiguous_negative_answer_is_not_an_error(tmp_path, capsys):
    track = write(tmp_path, "track.json", XY_TRACK)
    weights = write(
        tmp_path,
        "weights.json",
        [{"level": 0, "real": "1"}, {"level": 1, "real": "inf"}],
    )
    code, out, err = run(capsys, "track", "contiguous", track, weights)
    assert code == 0 and err == ""
    assert json.loads(out)["result"] == {"contiguous": False, "proximal": True}


def test_track_strata_counts(tmp_path, capsys):
    track = write(tmp_path, "track.json", XY_TRACK)
    code, out, _ = run(capsys, "track", "strata", track, "--height-bound", "2")
    assert code == 0
    strata = json.loads(out)["result"]["strata"]
    assert len(strata) == 17
    feasible = [s for s in strata if s["feasible"]]
    assert len(feasible) == 9
    for s in feasible:
        assert s["witness"] is not None


@pytest.mark.parametrize("weights, violation", [
    ([{"level": 1, "real": "1"}, {"level": 1, "real": "1"}], "(1,2) != (1,1)"),  # not proximal
    ([{"level": 0, "real": "1"}, {"level": 0, "real": "1"}], "(0,2) != (0,1)"),  # proximal
])
def test_track_contiguous_refuses_weights_that_are_not_invariant(tmp_path, capsys, weights, violation):
    track = write(tmp_path, "track.json", XY_TRACK)
    code, out, err = run(capsys, "track", "contiguous", track, write(tmp_path, "weights.json", weights))
    assert code == 1
    assert json.loads(out)["result"] is None
    assert err == f"error: weights are not invariant: ['switch 0: {violation}']\n"


# x + y = z and z + w = v + v: finite witnesses split z and z + w
FIVE_TRACK = {
    "segments": ["x", "y", "z", "w", "v"],
    "switches": [{"a": ["x", "y"], "b": ["z"]}, {"a": ["z", "w"], "b": ["v", "v"]}],
}


def _plain(obj):
    """The dict form of a stratum, as `json.dumps(default=...)` reads it:
    the oracle for the report writer's own stratum texts."""
    if not isinstance(obj, tracks.Stratum):
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    return {
        "pattern": [None if sh is None else {"level": sh[0], "kind": sh[1]} for sh in obj.pattern],
        "feasible": obj.feasible,
        "witness": None if obj.witness is None else jsonio.vector_to_json(obj.witness),
    }


def plain_strata(doc, height):
    """A strata result in plain JSON values, built as the report built it
    before strata were written from cached texts."""
    return {
        "height_bound": height,
        "strata": [
            {
                "pattern": [None if sh is None else {"level": sh[0], "kind": sh[1]} for sh in s.pattern],
                "feasible": s.feasible,
                "witness": None if s.witness is None else jsonio.vector_to_json(s.witness),
            }
            for s in tracks.enumerate_strata(jsonio.track_from_json(doc), height)
        ],
    }


@pytest.mark.parametrize("doc, height", [(MERGED_TRACK, 3), (SPIRAL_TRACK, 4), (FIVE_TRACK, 2)])
def test_strata_reports_match_json_dumps(tmp_path, capsys, monkeypatch, doc, height):
    reports = []
    render = cli._render_json
    monkeypatch.setattr(cli, "_render_json", lambda obj, indent=True: reports.append(obj) or render(obj, indent))
    track = write(tmp_path, "track.json", doc)
    code, out, _ = run(capsys, "track", "strata", track, "--height-bound", str(height))
    assert code == 0
    (report,) = reports
    assert out == json.dumps(report, indent=2, sort_keys=True, default=_plain) + "\n"
    plain = plain_strata(doc, height)
    assert sum(s["feasible"] for s in plain["strata"]) > 10
    assert out == json.dumps(dict(report, result=plain), indent=2, sort_keys=True) + "\n"
    code, out, _ = run(capsys, "track", "strata", track, "--height-bound", str(height), "--format", "text")
    assert code == 0
    _, result = reports
    compact = json.dumps(plain, sort_keys=True, separators=(",", ":"))
    assert json.dumps(result, sort_keys=True, separators=(",", ":"), default=_plain) == compact
    assert "result: " + compact in out.splitlines()


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_reports_written_in_slices_read_the_same(tmp_path, capsys, monkeypatch, fmt):
    argv = ["track", "strata", write(tmp_path, "track.json", FIVE_TRACK), "--height-bound", "2", "--format", fmt]
    whole = run(capsys, *argv)
    assert len(whole[1]) > 1000
    monkeypatch.setattr(cli, "_WRITE_SLICE", 7)
    assert run(capsys, *argv) == whole


@pytest.mark.parametrize("k", [1, 17])
def test_failing_witness_check_is_an_error(tmp_path, capsys, monkeypatch, k):
    # With no switch all 17 patterns at height 2 are feasible, and they
    # share 4 systems, one per set of finite segments.
    doc = {"segments": ["a", "b"], "switches": []}
    strata = tracks.enumerate_strata(jsonio.track_from_json(doc), 2)
    assert len(strata) == 17 and all(s.feasible for s in strata)
    solved, checked = [], []
    solve, validate = tracks._fm_feasible, tracks.validate

    def counted(variables, equations):
        solved.append((tuple(variables), repr(equations)))
        return solve(variables, equations)

    def failing(track, w):
        checked.append(w)
        return ["forced failure"] if len(checked) == k else validate(track, w)

    monkeypatch.setattr(tracks, "_fm_feasible", counted)
    monkeypatch.setattr(tracks, "validate", failing)
    code, out, err = run(capsys, "track", "strata", write(tmp_path, "track.json", doc), "--height-bound", "2")
    message = f"feasibility witness fails validation for pattern {strata[k - 1].pattern}"
    assert code == 1
    assert json.loads(out)["result"] is None
    assert json.loads(out)["diagnostics"] == [{"severity": "error", "message": message}]
    assert err == f"error: {message}\n"
    # every witness up to the k-th was checked, though no system was solved twice
    assert checked == [s.witness for s in strata[:k]]
    assert len(set(solved)) == len(solved) == min(k, 4)


def test_strata_runs_leave_no_reference_cycles(tmp_path, capsys):
    # the walk's and the writer's tables are freed as a run ends, with no
    # collection: no table, closure or row holds itself
    argv = ["track", "strata", write(tmp_path, "track.json", SPIRAL_TRACK), "--height-bound", "4"]
    track = jsonio.track_from_json(SPIRAL_TRACK)
    runs = [lambda: run(capsys, *argv), lambda: run(capsys, *argv, "--format", "text"),
            lambda: tracks.enumerate_strata(track, 4)]
    for once in runs:  # first runs fill the caches every later run shares
        once()
    gc.collect()
    gc.disable()
    try:
        for once in runs:
            once()
            assert gc.collect() == 0
    finally:
        gc.enable()


class _NoCombinations:
    """Stands in for `itertools` in `tracks`: Fourier-Motzkin combines no
    lower bound with an upper one, so it can miss an infeasible system."""

    def __getattr__(self, name):
        return getattr(itertools, name)

    @staticmethod
    def product(*iterables, repeat=1):
        return iter(())


def test_failing_fm_self_check_is_an_error(tmp_path, capsys, monkeypatch):
    # a + b = c and c + d = b force a + d = 0.  Fourier-Motzkin sees that
    # only by combining the bounds d > 0 and -d > 0; without it, the
    # back-substituted witness has d = 0.
    doc = {"segments": ["a", "b", "c", "d"],
           "switches": [{"a": ["a", "b"], "b": ["c"]}, {"a": ["c", "d"], "b": ["b"]}]}
    track = write(tmp_path, "track.json", doc)
    code, out, _ = run(capsys, "track", "strata", track, "--height-bound", "1")
    assert code == 0
    finite = next(s for s in json.loads(out)["result"]["strata"]
                  if all(shape == {"kind": "fin", "level": 0} for shape in s["pattern"]))
    assert finite["feasible"] is False
    monkeypatch.setattr(tracks, "itertools", _NoCombinations())
    code, out, err = run(capsys, "track", "strata", track, "--height-bound", "1")
    message = "Fourier-Motzkin witness fails its own system"
    assert code == 1
    assert json.loads(out)["result"] is None
    assert json.loads(out)["diagnostics"] == [{"severity": "error", "message": message}]
    assert err == f"error: {message}\n"


def test_track_filtration_spiral(tmp_path, capsys):
    track = write(tmp_path, "track.json", MERGED_TRACK)
    family = write(
        tmp_path,
        "family.json",
        [
            {"level": 0, "coeff": "1", "degree": 0},
            {"level": 0, "coeff": "1", "degree": 1},
            {"level": 0, "coeff": "1", "degree": 0},
        ],
    )
    code, out, _ = run(capsys, "track", "filtration", track, family)
    assert code == 0
    assert json.loads(out)["result"]["weights"] == [
        {"level": 0, "real": "1"},
        {"level": 1, "real": "1"},
        {"level": 0, "real": "1"},
    ]


def test_track_missing_second_file(tmp_path, capsys):
    track = write(tmp_path, "track.json", XY_TRACK)
    code, out, _ = run(capsys, "track", "align", track)
    assert code == 1
    assert "weights file" in json.loads(out)["diagnostics"][0]["message"]


def test_measure_eval_and_decompose(tmp_path, capsys):
    measure = write(
        tmp_path,
        "mu.json",
        {
            "domain": {"intervals": [{"id": "I", "length": "1"}]},
            "components": [
                {"kind": "atom", "interval": "I", "position": "1/2", "level": 1, "mass": "1"},
                {"kind": "density", "interval": "I", "lo": "0", "hi": "1", "level": 0, "rate": "1"},
            ],
        },
    )
    code, out, _ = run(capsys, "measure", "eval", measure)
    assert code == 0
    assert json.loads(out)["result"] == {"value": {"level": 1, "real": "1"}}

    code, out, _ = run(capsys, "measure", "decompose", measure)
    assert code == 0
    assert json.loads(out)["result"]["table"] == [
        {"level": 0, "mass": "1"},
        {"level": 1, "mass": "1"},
    ]


def test_measure_validate_flags_buried_level(tmp_path, capsys):
    measure = write(
        tmp_path,
        "mu.json",
        {
            "domain": {"intervals": [{"id": "I", "length": "1"}]},
            "components": [
                {"kind": "atom", "interval": "I", "position": "1/2", "level": 0, "mass": "1"},
                {"kind": "density", "interval": "I", "lo": "0", "hi": "1", "level": 1, "rate": "1"},
            ],
        },
    )
    code, out, err = run(capsys, "measure", "validate", measure)
    assert code == 1
    report = json.loads(out)
    assert report["result"] == {"open_graded": False, "locally_finite": True}
    assert "open-graded" in err


def test_measure_validate_flags_an_infinite_atom_with_nothing_above(tmp_path, capsys):
    measure = write(
        tmp_path,
        "mu.json",
        {
            "domain": {"intervals": [{"id": "I", "length": "1"}]},
            "components": [{"kind": "atom", "interval": "I", "position": "1/2", "level": 0, "mass": "inf"}],
        },
    )
    code, out, err = run(capsys, "measure", "validate", measure)
    assert code == 1
    report = json.loads(out)
    assert report["result"] == {"open_graded": True, "locally_finite": False}
    message = "measure is not locally finite: an infinite component evades higher levels"
    assert report["diagnostics"] == [{"severity": "error", "message": message}]
    assert err == f"error: {message}\n"


def _marked_measure(half):
    """A measure whose components meet at the mark written as half."""
    return {
        "domain": {"intervals": [{"id": "I", "length": "1"}, {"id": "J", "length": "2"}]},
        "components": [
            {"kind": "atom", "interval": "I", "position": half[0], "level": 0, "mass": "3"},
            {"kind": "density", "interval": "I", "lo": "0", "hi": half[1], "level": 1, "rate": "2"},
            {"kind": "atom", "interval": "I", "position": half[2], "level": 1, "mass": "5"},
            {"kind": "density", "interval": "I", "lo": half[0], "hi": "1", "level": 0, "rate": "1"},
            {"kind": "atom", "interval": "J", "position": half[1], "level": 0, "mass": "7"},
            {"kind": "density", "interval": "J", "lo": half[2], "hi": "2", "level": 2, "rate": "1"},
        ],
    }


@pytest.mark.parametrize("sub", ["eval", "decompose", "validate"])
def test_equal_marks_written_differently_read_as_one(tmp_path, capsys, sub):
    # the level index keys each mark by its reduced integer pair, so 1/2,
    # 2/4 and 004/8 are one mark
    reports = []
    for name, half in (("reduced", ("1/2",) * 3), ("unreduced", ("1/2", "2/4", "004/8"))):
        code, out, err = run(capsys, "measure", sub, write(tmp_path, f"{name}.json", _marked_measure(half)), "--format", "text")
        reports.append((code, [line for line in out.splitlines() if not line.startswith("input ")], err))
    assert reports[0] == reports[1]
    assert any(line.startswith("result: ") and line != "result: null" for line in reports[0][1])


@pytest.mark.parametrize("bound, components", [
    (-1, []),
    (0, [{"kind": "atom", "interval": "I", "position": "1/2", "level": 0, "mass": "1"}]),
])
@pytest.mark.parametrize("sub", ["eval", "decompose", "validate", "align"])
def test_measure_height_bound_below_one_is_refused(tmp_path, capsys, sub, bound, components):
    doc = {"domain": {"intervals": [{"id": "I", "length": "1"}]}, "height_bound": bound, "components": components}
    code, out, err = run(capsys, "measure", sub, write(tmp_path, "mu.json", doc))
    assert code == 1
    report = json.loads(out)
    assert report["result"] is None
    message = "measure: height bound must be at least 1"
    assert report["diagnostics"] == [{"severity": "error", "message": message}]
    assert err == f"error: {message}\n"


def _golden_input(name, **changes):
    """A golden input document with the named fields replaced, or removed
    where the change is None."""
    doc = dict(json.loads((GOLDEN / "inputs" / name).read_text()), **changes)
    return {k: v for k, v in doc.items() if v is not None}


# input checks on paths the golden reports do not reach
@pytest.mark.parametrize("words, doc, message", [
    (["svalue"], [{"op": "compare", "args": [None]}], "exprs[0]: compare wants exactly two arguments"),
    (["svalue"], [{"op": "unpsi"}], 'exprs[0]: unpsi wants a "sequence" array'),
    (["svalue", "--height-bound", "0"], [{"op": "psi", "value": {"level": 0, "real": "1"}}],
     "exprs[0]: height must be at least 1"),
    (["tree", "dist"], _golden_input("dist.json", pairs=[["a"]]), "pairs[0]: expected [x, y]"),
    *[(["tree", "insert"], _golden_input("insert.json", **{field: None}), f'tree insert input needs a "{field}" field')
      for field in ("tree", "at", "insertion", "attach")],
    (["tree", "collapse"], _golden_input("collapse.json", group=None), 'tree collapse input needs a "group" array'),
    (["tree", "collapse"], _golden_input("collapse.json", group=[]), "nothing to collapse"),
    (["svalue"], 5, "exprs: expected an expression object or array"),
    (["svalue"], [{}], 'exprs[0]: expected an object with an "op" field'),
    (["svalue"], [{"op": "unpsi", "sequence": ["inf", "x"]}],
     "exprs[0].sequence[1]: not a \"p/q\" rational or \"inf\": 'x'"),
    (["svalue"], [{"op": "scale", "scalar": "2", "value": {"level": "0", "real": "1"}}],
     "exprs[0].value.level: expected an integer, got '0'"),
    (["family", "limit"], _golden_input("limit.json", reference=None),
     'family limit input needs "family" and "reference" fields'),
    (["family", "limit"], _golden_input("limit.json", reference=True),
     'family limit "reference" must be an entry index'),
    (["tree", "dist"], _golden_input("dist.json", pairs=None), 'tree dist input needs a "pairs" array'),
    (["track", "validate"], XY_TRACK, "track validate needs a weights file"),
    (["tree", "dual"], {"marks": -4, "chords": []}, "chords: mark count -4 is negative"),
    (["family", "limits"], [{"level": 0, "coeff": "1", "degree": d % 1000} for d in range(1001)],
     f"1001 entries of 1000 distinct degrees give more than {vectors.MAX_LIMIT_ENTRIES} limit entries; "
     "refusing to build them"),
])
def test_input_error_is_one_located_diagnostic(tmp_path, capsys, words, doc, message):
    code, out, err = run(capsys, *words, write(tmp_path, "input.json", doc))
    assert code == 1
    report = json.loads(out)
    assert report["result"] is None
    assert report["diagnostics"] == [{"severity": "error", "message": message}]
    assert err == f"error: {message}\n"


def test_tree_dist_and_dual(tmp_path, capsys):
    doc = write(
        tmp_path,
        "ops.json",
        {
            "tree": {
                "nodes": ["a", "b", "c"],
                "edges": [
                    {"a": "a", "b": "b", "len": {"level": 0, "real": "1"}},
                    {"a": "b", "b": "c", "len": {"level": 1, "real": "2"}},
                ],
            },
            "pairs": [["a", "c"], ["a", "a"]],
        },
    )
    code, out, _ = run(capsys, "tree", "dist", doc)
    assert code == 0
    assert json.loads(out)["result"]["distances"] == [
        {"pair": ["a", "c"], "value": {"level": 1, "real": "2"}},
        {"pair": ["a", "a"], "value": None},
    ]

    chords = write(
        tmp_path,
        "chords.json",
        {
            "marks": 4,
            "chords": [
                {"ends": [1, 4], "weight": {"level": 0, "real": "1"}},
                {"ends": [2, 3], "weight": {"level": 1, "real": "1"}},
            ],
        },
    )
    code, out, _ = run(capsys, "tree", "dual", chords)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["regions"] == {
        "outer": {"kind": "outer"},
        "r1_4": {"kind": "chord", "ends": [1, 4]},
        "r2_3": {"kind": "chord", "ends": [2, 3]},
    }
    assert len(result["tree"]["nodes"]) == 3


def test_tree_insert_collapse(tmp_path, capsys):
    tree = {
        "nodes": ["a", "b", "c"],
        "edges": [
            {"a": "a", "b": "b", "len": {"level": 0, "real": "1"}},
            {"a": "b", "b": "c", "len": {"level": 1, "real": "2"}},
        ],
    }
    grow = write(
        tmp_path,
        "grow.json",
        {
            "tree": tree,
            "at": "b",
            "insertion": {
                "nodes": ["p", "q"],
                "edges": [{"a": "p", "b": "q", "len": {"level": 0, "real": "5"}}],
            },
            "attach": {"p": "a", "q": "c"},
        },
    )
    code, out, _ = run(capsys, "tree", "insert", grow)
    assert code == 0
    grown = json.loads(out)["result"]["tree"]
    assert sorted(grown["nodes"]) == ["a", "c", "p", "q"]

    shrink = write(tmp_path, "shrink.json", {"tree": grown, "group": ["p", "q"]})
    code, out, _ = run(capsys, "tree", "collapse", shrink)
    assert code == 0
    assert len(json.loads(out)["result"]["tree"]["nodes"]) == 3


def test_family_limits(tmp_path, capsys):
    family = write(
        tmp_path,
        "family.json",
        [
            {"level": 1, "coeff": "1", "degree": 1},
            {"level": 1, "coeff": "1", "degree": 0},
        ],
    )
    code, out, _ = run(capsys, "family", "limits", family)
    assert code == 0
    assert json.loads(out)["result"]["classes"] == [
        [{"level": 1, "real": "1"}, {"level": 0, "real": "inf"}],
        [{"level": 1, "real": "inf"}, {"level": 1, "real": "1"}],
    ]


def test_missing_file_is_a_diagnostic(tmp_path, capsys):
    code, out, err = run(capsys, "measure", "eval", str(tmp_path / "nope.json"))
    assert code == 1
    assert json.loads(out)["result"] is None
    assert "cannot read" in err


def test_reports_are_byte_identical(tmp_path, capsys):
    track = write(tmp_path, "track.json", XY_TRACK)
    outputs = []
    for _ in range(2):
        code, out, _ = run(capsys, "track", "strata", track, "--height-bound", "2")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_text_format(tmp_path, capsys):
    track = write(tmp_path, "track.json", XY_TRACK)
    weights = write(
        tmp_path,
        "weights.json",
        [{"level": 0, "real": "1"}, {"level": 1, "real": "inf"}],
    )
    code, out, _ = run(
        capsys, "track", "contiguous", track, weights, "--format", "text"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "command: track contiguous"
    assert any(line.startswith("input track: sha256=") for line in lines)
    assert 'result: {"contiguous":false,"proximal":true}' in lines


def test_module_entry_point(tmp_path):
    exprs = tmp_path / "exprs.json"
    exprs.write_text('[{"op": "compare", "args": [null, null]}]')
    proc = subprocess.run(
        [sys.executable, "-m", "levelring", "svalue", str(exprs)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"] == ["EQ"]


@pytest.mark.parametrize("op", ["add", "mul", "compare"])
def test_svalue_args_must_be_an_array(tmp_path, capsys, op):
    exprs = write(tmp_path, "exprs.json", [{"op": op, "args": 3}])
    code, out, err = run(capsys, "svalue", exprs)
    assert code == 1
    assert json.loads(out)["result"] is None
    assert err == f'error: exprs[0]: {op} wants an "args" array\n'


def test_svalue_format_error_is_located_once(tmp_path, capsys):
    exprs = write(tmp_path, "exprs.json", [{"op": "add", "args": [{"level": 0, "real": "1/0"}]}])
    code, out, err = run(capsys, "svalue", exprs)
    assert code == 1
    assert json.loads(out)["result"] is None
    assert err == "error: exprs[0].args[0].real: zero denominator: '1/0'\n"


@pytest.mark.parametrize("op", ["add", "mul", "compare"])
def test_svalue_bad_argument_is_located_by_its_index(tmp_path, capsys, op):
    bad = {"level": "0", "real": "1"}
    args = [None, bad] if op == "compare" else [None, None, bad]
    exprs = write(tmp_path, "exprs.json", [{"op": "add", "args": [None]}, {"op": op, "args": args}])
    code, out, err = run(capsys, "svalue", exprs)
    assert code == 1
    assert json.loads(out)["result"] is None
    assert err == f"error: exprs[1].args[{len(args) - 1}].level: expected an integer, got '0'\n"


def test_tree_insert_attach_must_name_nodes(tmp_path, capsys):
    grow = write(
        tmp_path,
        "grow.json",
        dict(json.loads((GOLDEN / "inputs" / "insert.json").read_text()), attach={"p": "a", "q": 3}),
    )
    code, _, err = run(capsys, "tree", "insert", grow)
    assert code == 1
    assert err == 'error: tree insert "attach" must map insertion nodes to neighbors\n'


@pytest.mark.parametrize("pair", [[[], "c"], ["a", {"b": 1}], ["a", 3]])
def test_tree_dist_non_string_node_id_is_unknown(tmp_path, capsys, pair):
    doc = dict(json.loads((GOLDEN / "inputs" / "dist.json").read_text()), pairs=[pair])
    code, out, err = run(capsys, "tree", "dist", write(tmp_path, "dist.json", doc))
    assert code == 1
    assert json.loads(out)["result"] is None
    assert err == f"error: unknown node in path query: {pair[0]!r} or {pair[1]!r}\n"


def test_psi_height_over_the_cap_is_a_diagnostic(tmp_path, capsys):
    exprs = write(tmp_path, "exprs.json", [{"op": "psi", "value": None}])
    too_high = MAX_SEQUENCE_HEIGHT + 1
    code, out, err = run(capsys, "svalue", exprs, "--height-bound", str(too_high))
    assert code == 1
    assert json.loads(out)["result"] is None
    assert err == f"error: exprs[0]: height {too_high} exceeds the sequence cap {MAX_SEQUENCE_HEIGHT}\n"


def test_diagnostic_echo_is_bounded(tmp_path, capsys):
    # a measure whose domain is a large array instead of an object
    rows = [{"id": f"I{i}", "length": f"{i + 1}/7"} for i in range(2000)]
    doc = dict(json.loads((GOLDEN / "inputs" / "measure.json").read_text()), domain=rows)
    measure = write(tmp_path, "measure.json", doc)
    assert Path(measure).stat().st_size > 60_000
    code, out, err = run(capsys, "measure", "eval", measure)
    assert code == 1
    assert err.startswith("error: measure.domain: expected an object, got [{")
    assert len(err) < 1024
    assert json.loads(out)["diagnostics"][0]["message"] == err[len("error: "):-1]


BIG = "g" * 100_000


def _tree_with(doc, nodes=(), edges=()):
    """The dist input with extra nodes and edges put in front of its own."""
    tree = doc["tree"]
    return dict(doc, tree={"nodes": tree["nodes"] + list(nodes), "edges": list(edges) + tree["edges"]})


# case -> (command, golden input, the input with one huge offending value,
# start of the diagnostic)
HUGE_ECHOES = {
    "tree collapse": (
        "tree collapse",
        "collapse.json",
        lambda doc: dict(doc, group=[f"ghost{i}" for i in range(5000)]),
        "error: unknown nodes: ['ghost0', 'ghost1', ",
    ),
    "tree dist": (
        "tree dist",
        "dist.json",
        lambda doc: dict(doc, pairs=[["a", "g" * 65536]]),
        "error: unknown node in path query: 'a' or 'ggg",
    ),
    "tree dist unknown edge end": (
        "tree dist",
        "dist.json",
        lambda doc: _tree_with(doc, edges=[{"a": "a", "b": BIG, "len": None}]),
        "error: tree: edge ('a','ggg",
    ),
    "tree dist self-loop": (
        "tree dist",
        "dist.json",
        lambda doc: _tree_with(doc, [BIG], [{"a": BIG, "b": BIG, "len": {"level": 0, "real": "1"}}]),
        "error: tree: self-loop at 'ggg",
    ),
    "tree dist zero length": (
        "tree dist",
        "dist.json",
        lambda doc: _tree_with(doc, [BIG], [{"a": "c", "b": BIG, "len": None}]),
        "error: tree: edge ('c','ggg",
    ),
    "track strata free_ends key": (
        "track strata",
        "spiral_track.json",
        lambda doc: dict(doc, free_ends={BIG: "1"}),
        "error: track.free_ends['ggg",
    ),
    "track strata unknown free end": (
        "track strata",
        "spiral_track.json",
        lambda doc: dict(doc, free_ends={"x": 1, "z": 1, BIG: 1}),
        "error: track: free_ends mention unknown segments: ['ggg",
    ),
    "track strata free ends": (
        "track strata",
        "spiral_track.json",
        lambda doc: dict(doc, segments=doc["segments"] + [BIG], free_ends={"x": 1, "z": 1}),
        "error: track: segment 'ggg",
    ),
    "svalue": (
        "svalue",
        "exprs.json",
        lambda doc: [{"op": "w" * 65536}],
        "error: exprs[0]: unknown op 'www",
    ),
    "measure eval": (
        "measure eval",
        "measure.json",
        lambda doc: dict(doc, components=[dict(doc["components"][0], interval="v" * 60000)]),
        "error: measure: no interval 'vvv",
    ),
}


@pytest.mark.parametrize("case", sorted(HUGE_ECHOES))
def test_library_and_cli_echoes_are_bounded(tmp_path, capsys, case):
    words, name, enlarge, start = HUGE_ECHOES[case]
    doc = enlarge(json.loads((GOLDEN / "inputs" / name).read_text()))
    path = write(tmp_path, name, doc)
    assert Path(path).stat().st_size > 60_000
    code, out, err = run(capsys, *words.split(), path)
    assert code == 1
    assert err.startswith(start)
    assert len(err) < 1024
    assert len(out) < 1024
    assert json.loads(out)["diagnostics"][0]["message"] == err[len("error: "):-1]


@pytest.mark.parametrize("field, value, start", [
    ("level", 10**4000, "error: measure: component level 1000"),
    ("position", f"{10**4000}/3", "error: measure: atom position '1000"),
], ids=["level", "position"])
def test_measure_number_echoes_are_bounded(tmp_path, capsys, field, value, start):
    doc = json.loads((GOLDEN / "inputs" / "measure.json").read_text())
    doc["components"][0][field] = value
    code, out, err = run(capsys, "measure", "eval", write(tmp_path, "measure.json", doc))
    assert code == 1
    assert err.startswith(start)
    assert len(err) < 1024
    assert json.loads(out)["diagnostics"][0]["message"] == err[len("error: "):-1]


NUMBER_ECHOES = {
    "family_limit_reference": (
        "family limit", "limit.json", lambda doc: dict(doc, reference=MOST),
        "error: reference index 9999",
    ),
    "tree_dual_chord_end": (
        "tree dual", "chords.json",
        lambda doc: dict(doc, chords=[dict(doc["chords"][0], ends=[1, MOST])]),
        "error: chords: chord ends (1,9999",
    ),
    "tree_dual_marks": (
        "tree dual", "chords.json",
        lambda doc: dict(doc, marks=MOST, chords=[dict(doc["chords"][0], ends=[0, 1])]),
        "error: chords: chord ends (0,1) out of range 1..9999",
    ),
    "tree_dual_crossing": (
        "tree dual", "chords.json",
        lambda doc: dict(doc, marks=MOST, chords=[
            dict(doc["chords"][0], ends=[1, MOST - 2]), dict(doc["chords"][1], ends=[2, MOST - 1]),
        ]),
        "error: chords: chords (1,9999",
    ),
    "tree_dual_negative_marks": (
        "tree dual", "chords.json", lambda doc: dict(doc, marks=-MOST, chords=[]),
        "error: chords: mark count -9999",
    ),
}


@pytest.mark.parametrize("case", sorted(NUMBER_ECHOES))
def test_cli_number_echoes_are_bounded(tmp_path, capsys, case):
    words, name, enlarge, start = NUMBER_ECHOES[case]
    doc = enlarge(json.loads((GOLDEN / "inputs" / name).read_text()))
    code, out, err = run(capsys, *words.split(), write(tmp_path, name, doc))
    assert code == 1
    assert err.startswith(start)
    assert len(err) < 1024
    assert len(out) < 1024
    assert json.loads(out)["diagnostics"][0]["message"] == err[len("error: "):-1]


def test_height_bound_echo_is_bounded(tmp_path, capsys):
    exprs = write(tmp_path, "exprs.json", [{"op": "psi", "value": {"level": 2, "real": "7"}}])
    code, out, err = run(capsys, "svalue", exprs, "--height-bound", str(MOST))
    assert code == 1
    assert err.startswith("error: exprs[0]: height 9999")
    assert err.endswith(f" exceeds the sequence cap {MAX_SEQUENCE_HEIGHT}\n")
    assert len(err) < 1024  # the report itself echoes the option in full
    assert json.loads(out)["diagnostics"][0]["message"] == err[len("error: "):-1]


def test_oversized_strata_are_refused_up_front(tmp_path, capsys, monkeypatch):
    def never(*args):
        raise AssertionError("enumeration started")

    # the report writer reads tracks.Stratum, so stop the walk at its first switch
    monkeypatch.setattr(tracks, "_switch_reduction", never)
    seven = write(tmp_path, "seven.json", {
        "segments": [f"s{i}" for i in range(7)],
        "switches": [{"a": ["s0", "s1"], "b": ["s2"]}],
    })
    code, out, err = run(capsys, "track", "strata", seven)
    assert code == 1
    assert json.loads(out)["result"] is None
    assert err == (
        f"error: 7 segments at height bound 16 give more than {MAX_STRATA} strata; "
        "refusing to enumerate them\n"
    )


def test_thirteen_segments_are_refused_at_any_height(tmp_path, capsys, monkeypatch):
    def never(*args):
        raise AssertionError("enumeration started")

    # the report writer reads tracks.Stratum, so stop the walk at its first switch
    monkeypatch.setattr(tracks, "_switch_reduction", never)
    thirteen = write(tmp_path, "thirteen.json", {
        "segments": [f"s{i}" for i in range(13)],
        "switches": [{"a": ["s0", "s1"], "b": ["s2"]}],
    })
    code, out, err = run(capsys, "track", "strata", thirteen, "--height-bound", "1")
    assert code == 1
    assert json.loads(out)["result"] is None
    assert err == (
        f"error: 13 segments at height bound 1 give more than {MAX_STRATA} strata; "
        "refusing to enumerate them\n"
    )


@pytest.mark.parametrize("sub", ["adjust", "contiguous"])
def test_oversized_adjustments_are_refused_up_front(tmp_path, capsys, monkeypatch, sub):
    def never(*args):
        raise AssertionError("a subset was tried")

    monkeypatch.setattr(tracks, "raise_levels", never)
    seventeen = write(tmp_path, "seventeen.json", {
        "segments": [f"s{i}" for i in range(17)],
        "switches": [{"a": ["s0"], "b": ["s1"]}],
    })
    weights = write(tmp_path, "weights.json", [{"level": 0, "real": "1"}] * 17)
    code, out, err = run(capsys, "track", sub, seventeen, weights)
    assert code == 1
    assert json.loads(out)["result"] is None
    assert err == (
        f"error: 17 segments give more than {MAX_ADJUST_SUBSETS} subsets to adjust; "
        "refusing to try them\n"
    )


def test_max_segments_is_not_a_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["track", "strata", "track.json", "--max-segments", "12"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-segments 12" in capsys.readouterr().err


LONG = "9" * 5000


@pytest.mark.parametrize("words, doc, where, text", [
    (["tree", "metric"],
     {"nodes": ["a", "b"], "edges": [{"a": "a", "b": "b", "len": {"level": 0, "real": LONG}}]},
     "tree.edges[0].len.real", LONG),
    (["svalue"], [{"op": "scale", "scalar": "1/" + LONG, "value": None}], "exprs[0].scalar", "1/" + LONG),
    (["measure", "eval"],
     {"domain": {"intervals": [{"id": "I", "length": "1"}]},
      "components": [{"kind": "atom", "interval": "I", "position": "1/2", "level": 0, "mass": LONG}]},
     "measure.components[0].mass", LONG),
])
def test_overlong_rational_is_located(tmp_path, capsys, words, doc, where, text):
    code, out, err = run(capsys, *words, write(tmp_path, "input.json", doc))
    assert code == 1
    assert json.loads(out)["result"] is None
    assert err == f"error: {where}: more than {MAX_RATIONAL_DIGITS} digits: {values._ECHO.repr(text)}\n"


HALF = "9" * 3000
# 1/(10^4000 + 1) and 1/(10^4000 - 1) each have 4001 digits; their sum's
# denominator, 10^8000 - 1, has 8000
NEAR = [f"1/{10**4000 + 1}", f"1/{10**4000 - 1}"]
# (10^4000 + 1)/(10^4000 - 1) and its inverse: normalized by the first, the
# second entry is the square of the inverse, with 8000 digits a side
WIDE = [f"{10**4000 + 1}/{10**4000 - 1}", f"{10**4000 - 1}/{10**4000 + 1}"]
WIDE_FAMILY = [{"level": 0, "coeff": coeff, "degree": 1} for coeff in WIDE]
ONE_AND_ONE = {"domain": {"intervals": [{"id": "I", "length": "1"}]}, "components": [
    {"kind": "atom", "interval": "I", "position": f"{k}/3", "level": 0, "mass": mass}
    for k, mass in ((1, NEAR[0]), (2, NEAR[1]))
]}


@pytest.mark.parametrize("words, docs, where", [
    (["svalue"], [[{"op": "mul", "args": [{"level": 0, "real": HALF}, {"level": 0, "real": HALF}]}]], "exprs[0]"),
    (["measure", "eval"],
     [{"domain": {"intervals": [{"id": "I", "length": HALF}]},
       "components": [{"kind": "density", "interval": "I", "lo": "0", "hi": HALF, "level": 0, "rate": HALF}]}],
     "value"),
    (["measure", "decompose"], [ONE_AND_ONE], "table[0].mass"),
    (["tree", "dist"],
     [{"tree": {"nodes": ["a", "b", "c"], "edges": [
         {"a": "a", "b": "b", "len": {"level": 0, "real": NEAR[0]}},
         {"a": "b", "b": "c", "len": {"level": 0, "real": NEAR[1]}},
     ]}, "pairs": [["a", "b"], ["a", "c"]]}],
     "distances[1].value"),
    (["track", "validate"],
     [{"segments": ["x", "y", "z"], "switches": [{"a": ["x", "y"], "b": ["z"]}]},
      [{"level": 0, "real": NEAR[0]}, {"level": 0, "real": NEAR[1]}, {"level": 0, "real": "1"}]],
     "switch 0"),
    (["track", "adjust"],
     [{"segments": ["x", "y", "z"], "switches": [{"a": ["x", "y"], "b": ["z"]}]},
      [{"level": 0, "real": NEAR[0]}, {"level": 0, "real": NEAR[1]}, {"level": 0, "real": "1"}]],
     "switch 0"),
    (["family", "limit"], [{"family": WIDE_FAMILY, "reference": 0}], "vector[1]"),
    (["family", "limits"], [{"family": WIDE_FAMILY}], "classes[0][1]"),
], ids=["svalue", "measure-eval", "measure-decompose", "tree-dist", "track-validate",
        "track-adjust", "family-limit", "family-limits"])
def test_overlong_result_is_refused(tmp_path, capsys, words, docs, where):
    # each input is within the digit bound, but the product or sum is not
    files = [write(tmp_path, f"input{k}.json", doc) for k, doc in enumerate(docs)]
    code, out, err = run(capsys, *words, *files)
    assert code == 1
    assert json.loads(out)["result"] is None
    assert err == f"error: {where}: result has more than {MAX_RATIONAL_DIGITS} digits\n"


MOST = 10**MAX_RATIONAL_DIGITS - 1  # the longest level a document may hold


@pytest.mark.parametrize("words, docs, where", [
    (["svalue"], [[{"op": "mul", "args": [{"level": MOST, "real": "1"}, {"level": MOST, "real": "1"}]}]],
     "exprs[0]"),
    (["track", "adjust"], [{"segments": ["x"], "switches": []}, [{"level": MOST, "real": "1"}]],
     "adjustments[0].weights[0]"),
], ids=["svalue", "track-adjust"])
def test_overlong_level_is_refused(tmp_path, capsys, words, docs, where):
    # each input level has 4300 digits, but the product's or the raise's has 4301
    files = [write(tmp_path, f"input{k}.json", doc) for k, doc in enumerate(docs)]
    code, out, err = run(capsys, *words, *files)
    assert code == 1
    assert json.loads(out)["result"] is None
    assert err == f"error: {where}: result level has more than {MAX_RATIONAL_DIGITS} digits\n"


def test_overlong_level_input_is_refused(tmp_path, capsys):
    # a 4301-digit level: the JSON reader refuses it under the interpreter's
    # digit limit, and the value decoder where PYTHONINTMAXSTRDIGITS=0 lifts it
    exprs = tmp_path / "exprs.json"
    exprs.write_text('[{"op": "add", "args": [{"level": 1' + "0" * MAX_RATIONAL_DIGITS + ', "real": "1"}]}]')
    code, out, err = run(capsys, "svalue", str(exprs))
    assert code == 1
    assert json.loads(out)["result"] is None
    if getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0:  # no limit before 3.10.7
        assert err == f"error: exprs[0].args[0].level: more than {MAX_RATIONAL_DIGITS} digits\n"
    else:
        assert err.startswith("error: exprs file is not JSON: ") and len(err) < 1024


def test_overlong_level_echo_is_bounded(tmp_path, capsys):
    # a negative level of 4300 digits is within the digit bound, so the
    # value refuses it, and its echo of the level is cut short
    exprs = write(tmp_path, "exprs.json", [{"op": "add", "args": [{"level": -MOST, "real": "1"}]}])
    code, out, err = run(capsys, "svalue", exprs)
    assert code == 1
    assert json.loads(out)["result"] is None
    assert err.startswith("error: exprs[0].args[0]: level must be a nonnegative int: -999")
    assert len(out) < 1024 and len(err) < 200


def test_collapse_group_entries_must_be_strings(tmp_path, capsys):
    doc = dict(json.loads((GOLDEN / "inputs" / "collapse.json").read_text()), group=["b", 1])
    code, out, err = run(capsys, "tree", "collapse", write(tmp_path, "collapse.json", doc))
    assert code == 1
    assert json.loads(out)["result"] is None
    assert err == "error: group[1]: expected a string, got 1\n"


def test_free_ends_of_an_unknown_segment_are_refused(tmp_path, capsys):
    track = write(tmp_path, "track.json", {"segments": ["x"], "switches": [], "free_ends": {"x": 2, "ghost": 5}})
    weights = write(tmp_path, "weights.json", [{"level": 0, "real": "1"}])
    code, out, err = run(capsys, "track", "validate", track, weights)
    assert code == 1
    assert json.loads(out)["result"] is None
    assert err == "error: track: free_ends mention unknown segments: ['ghost']\n"


def test_trailing_newline_is_not_a_rational(tmp_path, capsys):
    exprs = write(tmp_path, "exprs.json", [{"op": "add", "args": [{"level": 0, "real": "1\n"}]}])
    code, out, err = run(capsys, "svalue", exprs)
    assert code == 1
    assert json.loads(out)["result"] is None
    assert err == "error: exprs[0].args[0].real: not a \"p/q\" rational or \"inf\": '1\\n'\n"


def test_one_parser_serves_every_call(monkeypatch):
    monkeypatch.chdir(GOLDEN / "inputs")
    monkeypatch.setenv("COLUMNS", "80")
    for golden in (
        "track_strata.json.golden",
        "svalue.text.golden",
        "error_library_value.json.golden",
        "help_track.golden",
        "track_strata.text.golden",
    ):
        assert golden_report(GOLDEN_RUNS[golden]).encode() == (GOLDEN / golden).read_bytes()
    assert cli._build_parser() is cli._build_parser()


@pytest.mark.parametrize("reference", [2, 5, -1])
def test_family_limit_reference_out_of_range(tmp_path, capsys, reference):
    family = json.loads((GOLDEN / "inputs" / "family.json").read_text())
    doc = write(tmp_path, "limit.json", {"family": family, "reference": reference})
    code, out, err = run(capsys, "family", "limit", doc)
    assert code == 1
    assert json.loads(out)["result"] is None
    assert err == f"error: reference index {reference} is out of range 0..1\n"


def test_deeply_nested_file_is_not_json(tmp_path, capsys):
    # deep enough to exhaust the JSON parser's recursion on every supported
    # interpreter (3.13 parses 3000 levels)
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 10**5 + "]" * 10**5)
    code, out, err = run(capsys, "svalue", str(deep))
    assert code == 1
    assert json.loads(out)["result"] is None
    assert err.startswith("error: exprs file is not JSON: maximum recursion depth exceeded")


def test_nested_file_fails_cleanly_at_any_parser_depth(tmp_path, capsys):
    # 3000 levels: not JSON to 3.10-3.12, a non-expression to 3.13
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 3000 + "]" * 3000)
    code, out, err = run(capsys, "svalue", str(deep))
    assert code == 1
    assert json.loads(out)["result"] is None
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


# --- no input escapes as a traceback ----------------------------------------------

OTHER_JSON = st.one_of(
    st.integers(-3, 3),
    st.text(max_size=3),
    st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=2),
    st.none(),
    st.booleans(),
)


def sub_values(doc, path=()):
    """(path, value) for every value inside a JSON document, itself included."""
    yield path, doc
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, child in children:
        yield from sub_values(child, path + (key,))


def replaced(doc, path, value):
    if not path:
        return value
    copy = list(doc) if isinstance(doc, list) else dict(doc)
    copy[path[0]] = replaced(doc[path[0]], path[1:], value)
    return copy


@pytest.mark.parametrize("words", sorted(COMMANDS), ids=" ".join)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_wrong_type_anywhere_is_a_diagnostic(words, data, tmp_path_factory):
    argv = GOLDEN_CASES["_".join(words)]
    files = {a: json.loads((GOLDEN / "inputs" / a).read_text()) for a in argv if a.endswith(".json")}
    name = data.draw(st.sampled_from(sorted(files)))
    path, old = data.draw(st.sampled_from(list(sub_values(files[name]))))
    files[name] = replaced(files[name], path, data.draw(OTHER_JSON.filter(lambda v: type(v) is not type(old))))
    where = tmp_path_factory.mktemp("mutated")
    for a, doc in files.items():
        (where / a).write_text(json.dumps(doc))
    code, out, err = capture([str(where / a) if a in files else a for a in argv])
    assert code in (0, 1)
    if code == 1:
        assert any(d["severity"] == "error" for d in json.loads(out)["diagnostics"])
        assert "error: " in err


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**80), 2**80) | st.text(),
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.tuples(inner, inner)
        | st.dictionaries(st.text(max_size=4), inner, max_size=4)
    ),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_report_writer_matches_json_dumps(doc):
    assert cli._render_json(doc) == json.dumps(doc, indent=2, sort_keys=True)
    assert cli._render_json(doc, indent=False) == json.dumps(doc, sort_keys=True, separators=(",", ":"))


def test_report_writer_reuses_shared_objects():
    shape = {"kind": "fin", "level": 0}
    pattern = [shape, None, shape]
    doc = {"a": [pattern, pattern], "b": shape, "c": [{"d": [shape]}], "e": ("\u00e9\x00", -3, True)}
    assert cli._render_json(doc) == json.dumps(doc, indent=2, sort_keys=True)


SHAPES = st.none() | st.tuples(st.integers(0, 10), st.sampled_from([tracks.FIN, tracks.INFINITE]))
WITNESS_VALUES = st.one_of(
    st.just(values.ZERO),
    st.builds(values.pair, st.integers(0, 10), st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**3))),
    st.builds(values.pair, st.integers(0, 10), st.just(values.INF)),
)
STRATA = st.builds(
    tracks.Stratum,
    st.lists(SHAPES, min_size=1, max_size=6).map(tuple),
    st.booleans(),
    st.none() | st.lists(WITNESS_VALUES, min_size=1, max_size=6).map(tuple),
)
# lists of strata whose witnesses take their values from one pool, each
# value as the pool's own object (as `enumerate_strata` hands out one
# object per value) or as an equal but distinct copy
SHARING_STRATA = st.lists(WITNESS_VALUES, min_size=1, max_size=4).flatmap(
    lambda pool: st.lists(
        st.builds(
            tracks.Stratum,
            st.lists(SHAPES, min_size=1, max_size=6).map(tuple),
            st.booleans(),
            st.none()
            | st.lists(st.sampled_from(pool) | st.sampled_from(pool).map(copy.copy), min_size=1, max_size=6).map(tuple),
        ),
        min_size=1,
        max_size=4,
    )
)
# lists of strata, nested at varying depths in lists and dicts beside
# other JSON values
JSON_LEAVES = st.none() | st.booleans() | st.integers(-9, 9) | st.text(max_size=3) | st.lists(st.integers(), max_size=2)
STRATA_REPORTS = st.recursive(
    st.lists(STRATA, min_size=1, max_size=3) | SHARING_STRATA,
    lambda inner: (
        st.lists(inner | JSON_LEAVES, max_size=2)
        | st.dictionaries(st.text("ab", max_size=2), inner | JSON_LEAVES, max_size=2)
    ),
    max_leaves=3,
)


@settings(max_examples=max(100, settings.default.max_examples), deadline=None)
@given(STRATA_REPORTS)
def test_report_writer_matches_json_dumps_on_strata(doc):
    assert cli._render_json(doc) == json.dumps(doc, indent=2, sort_keys=True, default=_plain)
    compact = json.dumps(doc, sort_keys=True, separators=(",", ":"), default=_plain)
    assert cli._render_json(doc, indent=False) == compact


FIN_STRATUM = tracks.Stratum(((0, tracks.FIN),), False)


@pytest.mark.parametrize(
    "doc",
    [
        {"s": FIN_STRATUM},
        [tracks.Stratum((), False)],
        [tracks.Stratum(((0, tracks.FIN),), True, ())],
        [tracks.Stratum((), True, ())],
        [None, FIN_STRATUM],
        [FIN_STRATUM, None],
    ],
    ids=["lone", "empty_pattern", "empty_witness", "empty_both", "after_other_entry", "before_other_entry"],
)
def test_report_writer_refuses_strata_enumeration_never_makes(doc):
    """A report holds strata only as `enumerate_strata` makes them: in a
    list of strata, each with a pattern and a witness of at least one
    value or None."""
    for indent in (True, False):
        with pytest.raises(TypeError):
            cli._render_json(doc, indent)


@pytest.mark.parametrize(
    "doc",
    [1.5, {"a": {1, 2}}, {1: "int key"}, [b"bytes"], [tracks.Stratum(((0, tracks.FIN),), False), 1.5]],
)
def test_report_writer_refuses_other_types(doc):
    with pytest.raises(TypeError):
        cli._render_json(doc)


# ---------------------------------------------------------------------------
# the paper's laws for strata, through the CLI

@st.composite
def filtered_tracks(draw):
    """A track with a level-0 family that balances each of its one to three
    switches (`random_track_family`), and a height bound at or one past the
    number of levels of its filtration, kept to at most 1,697 strata."""
    track, family = random_track_family(Random(draw(st.integers(0, 2**32 - 1))), draw(st.integers(1, 3)))
    height = len({m.degree for m in family}) + draw(st.integers(0, 1))
    assume(tracks.strata_count(len(track.segments), height) <= 1697)
    return track, family, height


def through_cli(folder, words, docs, *options):
    """The result the command reports on the documents, each written to the
    folder in turn and run through cli.main."""
    files = [write(folder, f"input{i}.json", doc) for i, doc in enumerate(docs)]
    code, out, err = capture([*words, *files, *options])
    assert (code, err) == (0, "")
    return json.loads(out)["result"]


def track_through_cli(folder, track, *argv, second=None):
    """The result a `track` subcommand reports on the track (and a weights
    or family document), run through cli.main."""
    doc = {
        "segments": list(track.segments),
        "switches": [{"a": list(a), "b": list(b)} for a, b in track.switches],
        "free_ends": track.free_end_map,
    }
    return through_cli(folder, ["track", argv[0]], [doc] + ([] if second is None else [second]), *argv[1:])


def _pattern(weights):
    """The level/finiteness pattern of a weights document, as the strata
    report writes patterns."""
    return [None if w is None else {"level": w["level"], "kind": "inf" if w["real"] == "inf" else "fin"} for w in weights]


@settings(deadline=None)
@given(filtered_tracks())
def test_filtration_pattern_is_listed_feasible_through_cli(tmp_path_factory, drawn):
    # the weights a balanced family induces are an invariant proximal
    # vector, so their level/finiteness pattern is a feasible stratum
    track, family, height = drawn
    folder = tmp_path_factory.getbasetemp()
    entries = [{"level": m.level, "coeff": str(m.coeff), "degree": m.degree} for m in family]
    weights = track_through_cli(folder, track, "filtration", second=entries)["weights"]
    strata = track_through_cli(folder, track, "strata", "--height-bound", str(height))["strata"]
    assert [s["feasible"] for s in strata if s["pattern"] == _pattern(weights)] == [True]


@settings(deadline=None)
@given(filtered_tracks())
def test_feasible_witnesses_are_invariant_and_proximal_through_cli(tmp_path_factory, drawn):
    # checked by the library's own validate, not by the switch reductions
    # the enumeration decides with
    track, _, height = drawn
    strata = track_through_cli(tmp_path_factory.getbasetemp(), track, "strata", "--height-bound", str(height))["strata"]
    witnesses = [jsonio.vector_from_json(s["witness"]) for s in strata if s["feasible"]]
    assert witnesses
    for weights in witnesses:
        assert tracks.validate(track, weights) == [] and tracks.is_proximal(weights)


@st.composite
def short_tracks(draw):
    """A balanced track of at most four segments (`random_track_family`,
    one or two switches) and a height bound at or one past its segment
    count, so at most 1,697 strata."""
    track, _ = random_track_family(Random(draw(st.integers(0, 2**32 - 1))), draw(st.integers(1, 2)))
    assume(len(track.segments) <= 4)
    return track, len(track.segments) + draw(st.integers(0, 1))


@settings(deadline=None)
@given(short_tracks(), st.data())
def test_aligned_adjustments_of_witnesses_are_listed_feasible_through_cli(tmp_path_factory, drawn, data):
    # a valid adjustment of an invariant vector is invariant, and aligning
    # it gives a proximal one, with at most as many levels as segments; so
    # at a height bound at or past the segment count its pattern is listed,
    # and feasible.  One feasible witness is drawn per track.
    track, height = drawn
    folder = tmp_path_factory.getbasetemp()
    strata = track_through_cli(folder, track, "strata", "--height-bound", str(height))["strata"]
    feasible = [s["pattern"] for s in strata if s["feasible"]]
    witness = data.draw(st.sampled_from([s["witness"] for s in strata if s["feasible"]]))
    adjustments = track_through_cli(folder, track, "adjust", second=witness)["adjustments"]
    assert adjustments  # raising every segment is always one
    for adjustment in adjustments:
        aligned = track_through_cli(folder, track, "align", second=adjustment["weights"])["weights"]
        assert _pattern(aligned) in feasible


MONOMIALS = st.builds(
    lambda level, p, q, degree: {"level": level, "coeff": f"{p}/{q}", "degree": degree},
    st.integers(0, 3), st.integers(1, 9), st.integers(1, 4), st.integers(0, 3),
)


@settings(deadline=None)
@given(st.lists(st.none() | MONOMIALS, min_size=1, max_size=6).filter(lambda f: any(f)))
def test_family_limits_hold_each_entry_limit_through_cli(tmp_path_factory, family):
    # one class per distinct degree among the nonzero entries, and the
    # limit normalized at each nonzero entry lies in one of them
    folder = tmp_path_factory.getbasetemp()
    classes = through_cli(folder, ["family", "limits"], [family])["classes"]
    nonzero = [j for j, m in enumerate(family) if m is not None]
    assert len(classes) == len({family[j]["degree"] for j in nonzero})
    canons = [jsonio.vector_from_json(c) for c in classes]
    for j in nonzero:
        limit = through_cli(folder, ["family", "limit"], [{"family": family, "reference": j}])["vector"]
        assert vectors.proj_canonical(jsonio.vector_from_json(limit)) in canons


if __name__ == "__main__":
    import os

    os.chdir(GOLDEN / "inputs")
    os.environ["COLUMNS"] = "80"
    for golden, argv in GOLDEN_RUNS.items():
        (GOLDEN / golden).write_bytes(golden_report(argv).encode())
