"""Spans around calls into each levelring layer, recorded from outside.

``Tracer.install`` replaces every public function of the package modules
(and the few methods listed in ``METHODS``) with a wrapper that records a
span, in every module namespace that holds the function, so calls between
modules and inside one module are both seen.  Nothing under ``src/`` is
changed, and no interpreter setting (``gc`` and the like) is touched.

Spans are kept in memory for one invocation: (name, parent index, start,
end, extra); the runner folds them into per-layer totals after the
invocation's timed region, so no aggregation or I/O runs inside it and
memory stays flat over a run.  Spans of one invocation share its buffer,
which stands for the invocation id.  Self time is a span's duration minus
its children's.  Scalar constructors and accessors (``pair``, ``level_of``,
``real_part``, ``monomial``, ``rat_from_str``, ``rat_to_str``) and the
operators of ``XRat``/``LevelValue`` stay inside their callers' self
time: a span on each would swamp the run.
"""

from __future__ import annotations

import importlib
import inspect
from collections import defaultdict
from time import perf_counter_ns

LAYERS = ("cli", "jsonio", "values", "vectors", "tracks", "measures", "trees")
SCALAR = {"pair", "level_of", "real_part", "monomial", "rat_from_str", "rat_to_str"}
REGION_OPS = ("union", "intersect", "complement", "minus", "closure")
METHODS = {
    "measures": [("Region", op) for op in REGION_OPS],
    "trees": [("STree", "__init__"), ("STree", "neighbors"), ("ChordFamily", "__init__")],
}


def _extra(name: str):
    """What a span records beyond its times, for the counters below."""
    if name == "trees.STree.neighbors":
        return lambda args, result: len(args[0].edges)
    if name == "measures.support":
        return lambda args, result: (id(args[0]), args[1])
    if name == "tracks.enumerate_strata":
        return lambda args, result: len(result)
    return None


def _assign(owner, key: str, value) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.records: list = []
        self._stack: list[int] = []
        self._plan: list = []  # (namespace or class, key, original, wrapper)

    def _wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        extra = _extra(name)
        records, stack = self.records, self._stack

        def span(*args, **kwargs):
            slot = len(records)
            records.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            t0 = perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                records[slot] = (idx, parent, t0, t1, extra(args, result) if extra and result is not None else None)

        return span

    def _make_plan(self) -> None:
        mods = {layer: importlib.import_module(f"levelring.{layer}") for layer in LAYERS}
        namespaces = [m.__dict__ for m in mods.values()]
        namespaces.append(importlib.import_module("levelring").__dict__)
        for layer, mod in mods.items():
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__ or attr in SCALAR:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                self._plan += [(ns, key, fn, wrapper) for ns in namespaces
                               for key, val in ns.items() if val is fn]
            for cls_name, meth in METHODS.get(layer, ()):
                cls = getattr(mod, cls_name)
                fn = cls.__dict__[meth]
                self._plan.append((cls, meth, fn, self._wrap(f"{layer}.{cls_name}.{meth}", fn)))

    def install(self) -> None:
        if not self._plan:
            self._make_plan()
        for owner, key, _, wrapper in self._plan:
            _assign(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, fn, _ in self._plan:
            _assign(owner, key, fn)

    def take(self) -> list:
        """The spans of the finished invocation, as (name, parent, ns, extra)
        with parent an index into the list; the buffer is emptied."""
        out = [(self.names[i], p, t1 - t0, x) for i, p, t0, t1, x in self.records]
        self.records.clear()
        return out


# --- per-layer metrics --------------------------------------------------------------

JSON_KINDS = ("svalue", "vector", "family", "track", "measure", "tree", "chords")
JSON_DECODE = frozenset(f"jsonio.{k}_from_json" for k in JSON_KINDS)
JSON_ENCODE = frozenset(f"jsonio.{k}_to_json" for k in JSON_KINDS)
TRACK_CHECKS = frozenset(f"tracks.{k}" for k in (
    "validate", "align_weights", "is_proximal", "adjustments", "is_contiguous", "height_filtration"))
REGION = frozenset(f"measures.Region.{op}" for op in REGION_OPS)
PATH = frozenset({"trees.path", "trees.distance"})
LIMITS = frozenset({"vectors.limit_points", "vectors.normalized_limit"})
JSONIO = JSON_DECODE | JSON_ENCODE

# (metric, unit, better, should move: e2e metric @ workload).  Times and
# counts are per invocation of the traced run.
PER_LAYER = [
    *[(f"{layer}.self_ms", "ms", "lower", "share of every e2e time on the workload that loads it")
      for layer in LAYERS],
    ("jsonio.decode_ms", "ms", "lower", "cmd_ms_p50 @ small, trees, measures"),
    ("jsonio.encode_ms", "ms", "lower", "cmd_ms_p50 @ small, trees, measures"),
    ("jsonio.calls", "count", "lower", "cmd_ms_p50 @ small, trees, measures"),
    ("tracks.strata_ms", "ms", "lower", "cmds_per_s, cmd_ms_p90 @ strata; flat elsewhere"),
    ("tracks.strata_out", "count", "higher", "guards enumeration rewrites; repeats exactly"),
    ("tracks.ms_per_stratum", "ms", "lower", "cmd_ms_p90 @ strata"),
    ("tracks.check_ms", "ms", "lower", "cmd_ms_p50 @ small"),
    ("measures.region_ms", "ms", "lower", "cmds_per_s, cmd_ms_p90 @ measures"),
    ("measures.region_calls", "count", "lower", "cmds_per_s, cmd_ms_p90 @ measures"),
    ("measures.support_ms", "ms", "lower", "cmds_per_s, cmd_ms_p90 @ measures"),
    ("measures.support_calls", "count", "lower", "cmds_per_s, cmd_ms_p90 @ measures"),
    ("measures.support_repeat_share", "ratio", "lower", "cmd_ms_p90 @ measures; flat @ small"),
    ("measures.slice_ms", "ms", "lower", "cmd_ms_p50 @ measures"),
    ("measures.eval_ms", "ms", "lower", "cmd_ms_p50 @ measures"),
    ("measures.check_ms", "ms", "lower", "cmd_ms_p50 @ measures"),
    ("measures.align_ms", "ms", "lower", "cmd_ms_p50 @ measures"),
    ("trees.neighbors_calls", "count", "lower", "cmd_ms_p50, cmd_ms_p90 @ trees"),
    ("trees.edges_scanned", "count", "lower", "cmd_ms_p50, cmd_ms_p90 @ trees"),
    ("trees.path_ms", "ms", "lower", "cmd_ms_p50 @ trees"),
    ("trees.path_calls", "count", "lower", "cmd_ms_p50 @ trees"),
    ("trees.metric_ms", "ms", "lower", "cmd_ms_p90 @ trees"),
    ("trees.dual_ms", "ms", "lower", "cmd_ms_p50 @ trees"),
    ("trees.build_ms", "ms", "lower", "cmd_ms_p50 @ small"),
    ("values.total_ms", "ms", "lower", "cmd_ms_p50 @ trees, small"),
    ("values.total_calls", "count", "lower", "cmd_ms_p50 @ trees, small"),
    ("values.sequence_ms", "ms", "lower", "cmd_ms_p50 @ trees, small"),
    ("vectors.limits_ms", "ms", "lower", "cmd_ms_p50 @ small"),
    ("trace.overhead_share", "ratio", "lower", "none: (traced - untraced wall) / untraced"),
]


class LayerTotals:
    """Per-layer sums over the traced invocations of one run."""

    def __init__(self):
        self.sums: dict[str, float] = defaultdict(float)
        self.invocations = 0
        self.wall_ns = 0

    def add(self, spans: list) -> None:
        """Fold one invocation's spans (the first is the ``cli.main`` root)."""
        self.invocations += 1
        s = self.sums
        child = [0] * len(spans)
        for _, parent, dur, _ in spans:
            if parent >= 0:
                child[parent] += dur
        self.wall_ns += spans[0][2]

        def outer(i: int, group) -> bool:
            p = spans[i][1]
            while p >= 0:
                if spans[p][0] in group:
                    return False
                p = spans[p][1]
            return True

        tracks_names = {n for n, *_ in spans if n.startswith("tracks.")}
        seen_support = set()
        for i, (name, parent, dur, extra) in enumerate(spans):
            s[name.split(".")[0] + ".self_ns"] += dur - child[i]
            if name in JSONIO:
                s["jsonio.calls"] += 1
                if outer(i, JSONIO):
                    s["jsonio.decode_ns" if name in JSON_DECODE else "jsonio.encode_ns"] += dur
            elif name == "tracks.enumerate_strata":
                s["tracks.strata_ns"] += dur
                s["tracks.strata_out"] += extra or 0
            elif name in TRACK_CHECKS:
                if outer(i, tracks_names):
                    s["tracks.check_ns"] += dur
            elif name in REGION:
                s["measures.region_calls"] += 1
                if outer(i, REGION):
                    s["measures.region_ns"] += dur
            elif name == "measures.support":
                s["measures.support_calls"] += 1
                s["measures.support_ns"] += dur
                if extra in seen_support:
                    s["measures.support_repeats"] += 1
                seen_support.add(extra)
            elif name == "measures.nu_hat":
                s["measures.slice_ns"] += dur
            elif name == "measures.evaluate":
                s["measures.eval_ns"] += dur
            elif name in ("measures.is_open_graded", "measures.is_locally_finite"):
                s["measures.check_ns"] += dur
            elif name == "measures.align":
                s["measures.align_ns"] += dur
            elif name == "trees.STree.neighbors":
                s["trees.neighbors_calls"] += 1
                s["trees.edges_scanned"] += extra or 0
            elif name in PATH:
                if outer(i, PATH):
                    s["trees.path_ns"] += dur
                    s["trees.path_calls"] += 1
            elif name == "trees.verify_metric":
                s["trees.metric_ns"] += dur - child[i]
            elif name in ("trees.dual_tree", "trees.ChordFamily.__init__"):
                s["trees.dual_ns"] += dur
            elif name == "trees.STree.__init__":
                s["trees.build_ns"] += dur
            elif name == "values.total":
                s["values.total_calls"] += 1
                s["values.total_ns"] += dur
            elif name in ("values.to_sequence", "values.from_sequence"):
                s["values.sequence_ns"] += dur
            elif name in LIMITS:
                if outer(i, LIMITS):
                    s["vectors.limits_ns"] += dur

    def self_shares(self) -> dict:
        return {layer: self.sums[f"{layer}.self_ns"] / self.wall_ns for layer in LAYERS}

    def metrics(self, overhead_share: float) -> dict:
        n = max(self.invocations, 1)
        s = self.sums
        out = {}
        for name, unit, _, _ in PER_LAYER:
            if name == "trace.overhead_share":
                v = overhead_share
            elif name == "measures.support_repeat_share":
                v = s["measures.support_repeats"] / s["measures.support_calls"] if s["measures.support_calls"] else 0.0
            elif name == "tracks.ms_per_stratum":
                v = s["tracks.strata_ns"] / 1e6 / s["tracks.strata_out"] if s["tracks.strata_out"] else 0.0
            elif unit == "ms":
                v = s[name[:-3] + "_ns"] / 1e6 / n
            else:
                v = s[name] / n
            out[name] = {"value": v, "unit": unit}
        return out
