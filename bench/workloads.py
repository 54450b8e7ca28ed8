"""Seeded workloads: each builds one round of CLI invocations.

A round holds every input slot of its workload once, in a seeded order;
the runner measures whole rounds, so every run of a workload has the same
mix and its latency quantiles fall on the same kind of invocation.  Every
input names its segments, nodes or intervals after a per-process counter,
so no (subcommand, input) pair repeats inside one process and no cache kept
across invocations could ever hit.

Why these four (sizes come from profiling this code):

* ``strata`` -- ``track strata`` on 3-4 segment tracks at height bounds
  above the segment count: the report stops growing (147 or 1697 strata)
  while the (2H+1)^n candidate product keeps growing, so enumeration in
  ``tracks`` dominates and rendering stays a minority share.
* ``measures`` -- ``measure decompose`` (14 of 25), ``validate`` (on
  open-graded measures, so it scans every atom) and ``eval`` on sparse
  measures of 100-300 atoms plus short densities on a 512-step grid:
  per-level ``support`` rebuilds and ``Region`` algebra dominate.
* ``trees`` -- ``tree metric`` on 12-22 nodes, ``tree dist`` on 600 and 1200
  nodes, ``tree dual`` on 40-120 chords: edge scans and path walks.
* ``small`` -- all 18 subcommands on tiny inputs plus 7 malformed ones per
  round: per-invocation overhead in ``cli`` and ``jsonio`` dominates, and a
  per-object index that wins elsewhere shows its build cost here.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Callable, Optional

import reference as ref

# Each workload's round holds 15 or 25 invocations.  The runner reads every
# invocation as the median latency of its slot (kind and size) over the run,
# so p50 and p90 are the medians of whichever slots hold the ranks 0.5*N and
# 0.9*N.  Those ranks sit inside a run of slots of one kind and size (listed
# in cost order below, the quantile slot repeated), so a slot next to it
# that drifts in cost cannot take the quantile over, and that slot's median
# pools all of its invocations of the run: the more of them, the less the
# quantile moves with the seed's inputs (a tree dist walk's cost varies by
# 30% from one input to the next).
STRATA_SLOTS = (
    [(3, h) for h in (4, 5, 6, 7, 8, 10)] + [(3, 12)] * 3  # p50: index 7
    + [(3, 16), (4, 5), (4, 7)] + [(4, 8)] * 3  # p90: index 13
)
MEASURE_SLOTS = (
    [("eval", 100)] * 2 + [("eval", 300)] * 3 + [("validate", 100)] * 3
    + [("decompose", 100)] * 7  # p50: index 12
    + [("validate", 200)] * 3
    + [("decompose", 300)] * 7  # p90: index 22
)
TREE_SLOTS = (
    [("dual", 40 + 80 * i // 7) for i in range(8)] + [("metric", 12)]
    + [("dist", 600)] * 7  # p50: index 12
    + [("metric", 18), ("metric", 22)]
    + [("dist", 1200)] * 7  # p90: index 22
)
GRID = 512
MEASURE_LEVELS = 10


@dataclass
class Call:
    """One CLI invocation: argv with ``@role`` placeholders for input
    files, the file contents per role, the expected exit code, and a check
    on the report's result payload (run when the exit code is 0)."""

    label: str
    argv: list
    files: dict
    expect_exit: int = 0
    check: Optional[Callable[[object], None]] = None
    kind: str = "ok"
    slot: str = ""  # the kind and size of invocation; latencies are summarised per slot


def _dump(doc) -> bytes:
    return json.dumps(doc).encode()


def _call(label, argv, docs, check=None, expect_exit=0, kind="ok") -> Call:
    return Call(label, argv, {r: _dump(d) for r, d in docs.items()}, expect_exit, check, kind)


class Inputs:
    """Seeded input generators; ``uid`` makes every input distinct."""

    def __init__(self, rng: Random):
        self.rng = rng
        self._uids = itertools.count()

    def uid(self) -> int:
        return next(self._uids)

    def rat(self, top: int = 9) -> Fraction:
        return Fraction(self.rng.randint(1, top), self.rng.randint(1, 4))

    def value(self, levels: int = 3, inf_share: float = 0.0) -> dict:
        real = "inf" if self.rng.random() < inf_share else str(self.rat())
        return {"level": self.rng.randrange(levels), "real": real}

    # -- tracks ------------------------------------------------------------

    def track(self, n: int) -> dict:
        """Random track on n segments: one to three switches draw ends at
        random, each side nonempty; the ends left over are free."""
        u = self.uid()
        segs = [f"t{u}s{i}" for i in range(n)]
        ends = segs * 2
        self.rng.shuffle(ends)
        switches = []
        for _ in range(self.rng.randint(1, 3)):
            if len(ends) < 2:
                break
            take = self.rng.randint(2, min(4, len(ends)))
            cut = self.rng.randint(1, take - 1)
            chosen, ends = ends[:take], ends[take:]
            switches.append({"a": chosen[:cut], "b": chosen[cut:]})
        return {"segments": segs, "switches": switches}

    def balanced_track(self, n_min: int, n_max: int):
        """Track, level-0 monomial family balancing every switch
        identically in the parameter, and the invariant weights it induces
        (degree rank as level, coefficient as magnitude)."""
        while True:
            u = self.uid()
            coeff: dict = {}
            degree: dict = {}
            slots: dict = {}

            def fresh(c, d):
                sid = f"b{u}s{len(coeff)}"
                coeff[sid], degree[sid], slots[sid] = c, d, 2
                return sid

            for _ in range(self.rng.randint(1, 2)):
                fresh(Fraction(self.rng.randint(1, 5)), self.rng.randint(0, 2))
            switches = []
            while len(coeff) < n_max:
                avail = [s for s in coeff if slots[s] > 0]
                side_a = self.rng.sample(avail, min(len(avail), self.rng.randint(1, 2)))
                for s in side_a:
                    slots[s] -= 1
                sums: dict = {}
                for s in side_a:
                    sums[degree[s]] = sums.get(degree[s], 0) + coeff[s]
                side_b = [fresh(sums[d], d) for d in sorted(sums)]
                for s in side_b:
                    slots[s] -= 1
                switches.append({"a": side_a, "b": side_b})
                if len(coeff) >= n_min and self.rng.random() < 0.5:
                    break
            if len(coeff) <= n_max:
                break
        segs = list(coeff)
        rank = {d: i for i, d in enumerate(sorted(set(degree.values())))}
        track = {"segments": segs, "switches": switches}
        family = [{"level": 0, "coeff": str(coeff[s]), "degree": degree[s]} for s in segs]
        weights = [{"level": rank[degree[s]], "real": str(coeff[s])} for s in segs]
        return track, family, weights

    # -- measures ------------------------------------------------------------

    def measure(self, atoms: int, densities: int, intervals: int = 3, levels: int = MEASURE_LEVELS,
                graded: bool = False) -> dict:
        """Random measure; ``graded`` lifts each atom to the top level of
        the densities covering it, which makes the measure open-graded, so
        that validating it scans every atom instead of stopping at the
        first buried one."""
        u = self.uid()
        ids = [f"m{u}i{j}" for j in range(intervals)]
        comps = []
        for _ in range(atoms):
            comps.append({
                "kind": "atom", "interval": self.rng.choice(ids),
                "position": str(Fraction(self.rng.randint(0, GRID), GRID)),
                "level": self.rng.randrange(levels), "mass": str(self.rat()),
            })
        for _ in range(densities):
            lo = self.rng.randint(0, GRID - 8)
            comps.append({
                "kind": "density", "interval": self.rng.choice(ids),
                "lo": str(Fraction(lo, GRID)),
                "hi": str(Fraction(lo + self.rng.randint(1, 8), GRID)),
                "level": self.rng.randrange(levels), "rate": str(self.rat()),
            })
        if graded:
            for a in comps[:atoms]:
                x = Fraction(a["position"])
                a["level"] = max([a["level"]] + [
                    d["level"] for d in comps[atoms:]
                    if d["interval"] == a["interval"] and Fraction(d["lo"]) <= x <= Fraction(d["hi"])
                ])
        self.rng.shuffle(comps)
        return {"domain": {"intervals": [{"id": i, "length": "1"} for i in ids]},
                "components": comps}

    # -- trees ------------------------------------------------------------------

    def tree(self, n: int):
        """Random recursive tree (node i hangs off a uniform earlier node)
        with its parent links, depths and parent-edge lengths."""
        u = self.uid()
        names = [f"n{u}_{i}" for i in range(n)]
        parent, depth, length = {}, {names[0]: 0}, {}
        edges = []
        for i in range(1, n):
            p = names[self.rng.randrange(i)]
            v = self.value(levels=3, inf_share=0.1)
            parent[names[i]], depth[names[i]], length[names[i]] = p, depth[p] + 1, ref.value(v)
            edges.append({"a": p, "b": names[i], "len": v})
        return {"nodes": names, "edges": edges}, (parent, depth, length)

    def chords(self, count: int) -> dict:
        """Random non-crossing matching: repeatedly pair two marks that are
        adjacent among the unpaired ones."""
        avail = list(range(1, 2 * count + 1))
        chords = []
        while avail:
            i = self.rng.randrange(len(avail) - 1)
            chords.append({"ends": [avail[i], avail[i + 1]], "weight": self.value(inf_share=0.1)})
            del avail[i:i + 2]
        # The uid as a weight keeps every family distinct.
        chords[0]["weight"]["real"] = str(self.uid() + 1)
        return {"marks": 2 * count, "chords": chords}

    def family(self, n: int) -> list:
        u = self.uid()
        fam = [
            None if self.rng.random() < 0.2 else
            {"level": self.rng.randrange(3), "coeff": str(self.rat()), "degree": self.rng.randrange(4)}
            for _ in range(n)
        ]
        # The uid as a coefficient keeps every family distinct.
        fam[0] = {"level": 0, "coeff": str(u + 1), "degree": self.rng.randrange(4)}
        return fam


# --- well-formed calls ------------------------------------------------------------

def strata_call(g: Inputs, n: int, height: int) -> Call:
    track = g.track(n)
    return _call(
        "track strata", ["track", "strata", "@track", "--height-bound", str(height)],
        {"track": track}, lambda r: ref.check_strata(track, height, r),
    )


def measure_call(g: Inputs, sub: str, m: dict) -> Call:
    check = {
        "eval": ref.check_measure_eval,
        "decompose": ref.check_measure_decompose,
        "validate": ref.check_measure_validate,
        "align": ref.check_measure_align,
    }[sub]
    expect_exit = 0 if sub != "validate" or ref.open_graded(m) else 1
    return _call(f"measure {sub}", ["measure", sub, "@measure"], {"measure": m},
                 lambda r: check(m, r), expect_exit)


def dist_call(g: Inputs, n: int, pairs: int = 3) -> Call:
    tree, links = g.tree(n)
    chosen = [g.rng.sample(tree["nodes"], 2) for _ in range(pairs)]

    def check(result):
        for (x, y), row in zip(chosen, result["distances"]):
            want = ref.tree_distance(*links, x, y)
            ref.expect(ref.value(row["value"]) == want, f"dist({x},{y}) {row['value']}, want {want}")
        ref.expect(len(result["distances"]) == len(chosen), "missing distances")

    return _call("tree dist", ["tree", "dist", "@input"], {"input": {"tree": tree, "pairs": chosen}}, check)


def metric_call(g: Inputs, n: int) -> Call:
    tree, _ = g.tree(n)
    return _call("tree metric", ["tree", "metric", "@input"], {"input": tree},
                 lambda r: ref.expect(r["metric"] is True, "metric audit failed"))


def dual_call(g: Inputs, count: int) -> Call:
    chords = g.chords(count)
    return _call("tree dual", ["tree", "dual", "@input"], {"input": chords},
                 lambda r: ref.check_dual(chords, r))


def _slotted(call: Call, slot: str) -> Call:
    call.slot = slot
    return call


def strata_round(g: Inputs) -> list:
    return [_slotted(strata_call(g, n, h), f"n={n} H={h}") for n, h in STRATA_SLOTS]


def measures_round(g: Inputs) -> list:
    return [
        _slotted(measure_call(g, sub, g.measure(atoms, atoms // 10, graded=sub == "validate")),
                 f"{sub} {atoms}")
        for sub, atoms in MEASURE_SLOTS
    ]


def trees_round(g: Inputs) -> list:
    make = {"metric": metric_call, "dist": dist_call, "dual": dual_call}
    return [_slotted(make[sub](g, size), f"{sub} {size}") for sub, size in TREE_SLOTS]


# --- the small workload -----------------------------------------------------------

def _svalue_exprs(g: Inputs) -> tuple[list, Callable]:
    a, b = g.value(), g.value()
    u = g.uid()
    exprs = [
        {"op": "add", "args": [a, b]},
        {"op": "mul", "args": [a, b]},
        {"op": "scale", "scalar": str(u + 1), "value": a},
        {"op": "compare", "args": [a, b]},
        {"op": "psi", "value": a},
        {"op": "unpsi", "sequence": ["inf"] * a["level"] + [a["real"], "0"]},
    ]

    def check(result):
        want = ref.lsum([ref.value(a), ref.value(b)])
        ref.expect(ref.value(result[0]) == want, f"add gave {result[0]}, want {want}")
        ref.expect(ref.value(result[5]) == ref.value(a), f"unpsi gave {result[5]}, want {a}")

    return exprs, check


def small_wellformed(g: Inputs) -> list:
    """One call per subcommand, all 18, on tiny inputs."""
    calls = []
    exprs, check = _svalue_exprs(g)
    calls.append(_call("svalue", ["svalue", "@exprs", "--height-bound", "6"], {"exprs": exprs}, check))

    track, family, weights = g.balanced_track(2, 4)

    # The weights are invariant and already proximal (levels are degree ranks).
    def same_weights(r):
        ref.expect([ref.value(v) for v in r["weights"]] == [ref.value(v) for v in weights],
                   f"weights {r['weights']}, want {weights}")

    track_checks = {
        "validate": lambda r: ref.expect(r["valid"] is True, "invariant weights reported invalid"),
        "align": same_weights,
        "adjust": lambda r: ref.check_adjust(track, r),
        "contiguous": lambda r: ref.expect(r["proximal"] is True, "proximal weights reported not proximal"),
    }
    for sub, check in track_checks.items():
        calls.append(_call(f"track {sub}", ["track", sub, "@track", "@weights"],
                           {"track": track, "weights": weights}, check))
    calls.append(_call("track filtration", ["track", "filtration", "@track", "@family"],
                       {"track": track, "family": family}, same_weights))
    calls.append(strata_call(g, g.rng.randint(2, 4), 2))

    m = g.measure(g.rng.randint(1, 4), g.rng.randint(1, 2), intervals=2, levels=3)
    for sub in ("eval", "decompose", "validate", "align"):
        calls.append(measure_call(g, sub, m))

    n = g.rng.randint(4, 8)
    calls.append(dist_call(g, n, pairs=2))
    calls.append(metric_call(g, n))
    calls.append(dual_call(g, g.rng.randint(1, 4)))
    tree, (parent, _, _) = g.tree(n)
    leaf = tree["nodes"][-1]
    calls.append(_call("tree collapse", ["tree", "collapse", "@input"],
                       {"input": {"tree": tree, "group": [leaf, parent[leaf]]}},
                       lambda r, n=n: ref.expect(len(r["tree"]["nodes"]) == n - 1, "collapse node count")))
    calls.append(_call("tree insert", ["tree", "insert", "@input"],
                       {"input": _insertion(g, tree, parent, leaf)},
                       lambda r, n=n: ref.expect(len(r["tree"]["nodes"]) == n + 1, "insert node count")))

    fam = g.family(g.rng.randint(2, 4))
    calls.append(_call("family limits", ["family", "limits", "@input"], {"input": fam}))
    calls.append(_call("family limit", ["family", "limit", "@input"],
                       {"input": {"family": fam, "reference": 0}}))
    return calls


def _insertion(g: Inputs, tree: dict, parent: dict, leaf: str) -> dict:
    """Replace a leaf by a two-node path attached at one end."""
    a, b = f"{leaf}x", f"{leaf}y"
    sub = {"nodes": [a, b], "edges": [{"a": a, "b": b, "len": g.value()}]}
    return {"tree": tree, "at": leaf, "insertion": sub, "attach": {a: parent[leaf]}}


# Malformed inputs, one call per mutation kind per round.  Each is expected
# to exit 1 with an error diagnostic.  The seed picks which subcommand a
# generic mutation hits.  The two "wrong_type:" targets named after the
# mutation raise TypeError out of cli.main at the time of writing; they
# stay in the mix so that the failure shows until the program handles it.

def _broken_copy(g: Inputs, kind: str) -> Call:
    u = g.uid()
    tree, _ = g.tree(3)
    track = g.track(2)
    m = g.measure(2, 1, intervals=1, levels=2)
    fam = g.family(2)
    if kind == "wrong_type":
        options = [
            ("track strata", ["track", "strata", "@track"], "track", dict(track, segments=u)),
            ("measure eval", ["measure", "eval", "@measure"], "measure",
             dict(m, components=[dict(m["components"][0], level=str(u))])),
            ("tree metric", ["tree", "metric", "@input"], "input",
             dict(tree, edges=[dict(tree["edges"][0], len=u), tree["edges"][1]])),
            ("family limits", ["family", "limits", "@input"], "input",
             [dict(fam[0], coeff=u + 1)]),
        ]
    elif kind == "missing_key":
        options = [
            ("track strata", ["track", "strata", "@track"], "track", {"segments": track["segments"]}),
            ("measure decompose", ["measure", "decompose", "@measure"], "measure",
             {"domain": m["domain"]}),
            ("tree metric", ["tree", "metric", "@input"], "input", {"nodes": tree["nodes"]}),
            ("tree dist", ["tree", "dist", "@input"], "input", {"tree": tree}),
        ]
    else:  # unknown_ref
        a = tree["nodes"][0]
        options = [
            ("track strata", ["track", "strata", "@track"], "track",
             dict(track, switches=[{"a": [track["segments"][0]], "b": [f"ghost{u}"]}])),
            ("tree dist", ["tree", "dist", "@input"], "input",
             {"tree": tree, "pairs": [[a, f"ghost{u}"]]}),
            ("tree collapse", ["tree", "collapse", "@input"], "input",
             {"tree": tree, "group": [a, f"ghost{u}"]}),
            ("measure eval", ["measure", "eval", "@measure"], "measure",
             dict(m, components=[dict(m["components"][0], interval=f"ghost{u}")])),
        ]
    label, argv, role, doc = g.rng.choice(options)
    return _call(label, argv, {role: doc}, expect_exit=1, kind=kind)


def _non_json(g: Inputs) -> Call:
    call = g.rng.choice(small_wellformed(g))
    role = g.rng.choice(sorted(call.files))
    raw = call.files[role]
    call.files[role] = raw[: -g.rng.randint(1, 3)]  # a cut at the end keeps the input unique
    call.expect_exit, call.check, call.kind = 1, None, "non_json"
    return call


def small_malformed(g: Inputs) -> list:
    u = g.uid()
    hub = [f"u{u}", f"hub{u}", f"w{u}"]
    hub_tree = {
        "nodes": hub,
        "edges": [{"a": hub[0], "b": hub[1], "len": g.value()},
                  {"a": hub[1], "b": hub[2], "len": g.value()}],
    }
    path = {"nodes": ["p", "q"], "edges": [{"a": "p", "b": "q", "len": g.value()}]}
    return [
        _broken_copy(g, "wrong_type"),
        _broken_copy(g, "missing_key"),
        _broken_copy(g, "unknown_ref"),
        _broken_copy(g, "unknown_ref"),
        _non_json(g),
        _call("svalue", ["svalue", "@exprs"], {"exprs": [{"op": "mul", "args": u}]},
              expect_exit=1, kind="wrong_type:svalue_mul_args_int"),
        _call("tree insert", ["tree", "insert", "@input"],
              {"input": {"tree": hub_tree, "at": hub[1], "insertion": path,
                         "attach": {"p": hub[0], "q": u}}},
              expect_exit=1, kind="wrong_type:tree_insert_attach_nonstring"),
    ]


def small_round(g: Inputs) -> list:
    """Every subcommand and every malformed kind has its own slot."""
    return ([_slotted(call, call.label) for call in small_wellformed(g)]
            + [_slotted(call, f"{call.kind} #{i}") for i, call in enumerate(small_malformed(g))])


ROUNDS = {
    "strata": strata_round,
    "measures": measures_round,
    "trees": trees_round,
    "small": small_round,
}
