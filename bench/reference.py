"""Reference results the benchmark checks reports against.

Nothing here imports levelring: each check re-derives the expected answer
from the generated input with its own arithmetic, so a wrong report cannot
agree with its checker by sharing code with it.

A leveled value is held as ``None`` (zero) or ``(level, magnitude)`` with
the magnitude a ``Fraction`` or ``INF``; addition is the absorption rule
(the higher level wins, equal levels add, infinity absorbs).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

INF = "inf"


class CheckError(Exception):
    """A report disagrees with its reference."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# --- leveled values -----------------------------------------------------------

def value(doc):
    """Decode the JSON form ``null`` / ``{"level": k, "real": "p/q"}``."""
    if doc is None:
        return None
    real = doc["real"]
    return doc["level"], INF if real == INF else Fraction(real)


def lsum(values):
    """Absorption-rule sum of decoded values."""
    top = None
    mag = Fraction(0)
    for v in values:
        if v is None:
            continue
        level, m = v
        if top is None or level > top:
            top, mag = level, m
        elif level == top:
            mag = INF if INF in (mag, m) else mag + m
    return None if top is None else (top, mag)


# --- strata ---------------------------------------------------------------------

def surjections(j: int, m: int) -> int:
    """Surjections from a j-set onto an m-set; Surj(0, 0) = 1."""
    return sum((-1) ** i * comb(m, i) * (m - i) ** j for i in range(m + 1))


def strata_count(n: int, height: int) -> int:
    """Proximal patterns on n segments below the height bound: choose the j
    nonzero segments, their fin/inf kinds, and a surjection of them onto
    levels 0..m-1 with m <= height."""
    return sum(
        comb(n, j) * 2**j * surjections(j, m)
        for j in range(n + 1)
        for m in range(min(j, height) + 1)
    )


def check_strata(track: dict, height: int, result: dict) -> None:
    strata = result["strata"]
    n = len(track["segments"])
    want = strata_count(n, height)
    expect(len(strata) == want, f"{len(strata)} strata, want {want}")
    for s in strata:
        pattern, witness = s["pattern"], s["witness"]
        if not s["feasible"]:
            expect(witness is None, "infeasible stratum carries a witness")
            continue
        w = [value(x) for x in witness]
        for shape, x in zip(pattern, w):
            if shape is None:
                expect(x is None, f"witness {witness} breaks pattern {pattern}")
            else:
                expect(
                    x is not None
                    and x[0] == shape["level"]
                    and (x[1] == INF) == (shape["kind"] == INF),
                    f"witness {witness} breaks pattern {pattern}",
                )
        expect(balanced(track, witness), f"witness {witness} unbalances a switch")


def balanced(track: dict, weights: list) -> bool:
    """Whether both sides of every switch have equal absorption-rule sums."""
    at = dict(zip(track["segments"], (value(x) for x in weights)))
    return all(
        lsum(at[seg] for seg in sw["a"]) == lsum(at[seg] for seg in sw["b"])
        for sw in track["switches"]
    )


def check_adjust(track: dict, result: dict) -> None:
    for row in result["adjustments"]:
        expect(row["segments"] != [] and balanced(track, row["weights"]),
               f"adjustment {row['segments']} unbalances a switch")


# --- measures ---------------------------------------------------------------------

def _components(measure: dict):
    for c in measure["components"]:
        if c["kind"] == "atom":
            yield c, Fraction(c["mass"])
        else:
            yield c, Fraction(c["rate"]) * (Fraction(c["hi"]) - Fraction(c["lo"]))


def check_measure_eval(measure: dict, result: dict) -> None:
    """Whole-domain value: the top level with all of that level's mass."""
    comps = list(_components(measure))
    top = max(c["level"] for c, _ in comps)
    want = (top, sum(m for c, m in comps if c["level"] == top))
    got = value(result["value"])
    expect(got == want, f"eval gave {got}, want {want}")


def check_measure_decompose(measure: dict, result: dict) -> None:
    want = sorted({c["level"] for c in measure["components"]})
    got = [row["level"] for row in result["table"]]
    expect(got == want, f"decompose levels {got}, want {want}")


def check_measure_align(measure: dict, result: dict) -> None:
    """Occupied levels close up onto 0..m-1; every component is kept."""
    comps = result["measure"]["components"]
    m = len({c["level"] for c in measure["components"]})
    expect(len(comps) == len(measure["components"]), "align changed the component count")
    expect({c["level"] for c in comps} == set(range(m)), "align left a level gap")


def open_graded(measure: dict) -> bool:
    """No atom sits in the closed support of a higher level unless a
    higher atom sits at its exact position."""
    comps = measure["components"]
    for a in comps:
        if a["kind"] != "atom":
            continue
        x, iid, lev = Fraction(a["position"]), a["interval"], a["level"]
        buried = stacked = False
        for c in comps:
            if c["interval"] != iid or c["level"] <= lev:
                continue
            if c["kind"] == "atom":
                if Fraction(c["position"]) == x:
                    stacked = True
            elif Fraction(c["lo"]) <= x <= Fraction(c["hi"]):
                buried = True
        if buried and not stacked:
            return False
    return True


def check_measure_validate(measure: dict, result: dict) -> None:
    want = open_graded(measure)
    expect(result["open_graded"] == want, f"open_graded {result['open_graded']}, want {want}")
    expect(result["locally_finite"] is True, "finite measure reported not locally finite")


# --- trees ------------------------------------------------------------------------

def tree_distance(parent: dict, depth: dict, length: dict, x: str, y: str):
    """Leveled sum along the generator's parent links from x and y up to
    their meeting node; ``length[v]`` is the edge from v to its parent."""
    steps = []
    while x != y:
        if depth[x] < depth[y]:
            x, y = y, x
        steps.append(length[x])
        x = parent[x]
    return lsum(steps)


def check_dual(chords: dict, result: dict) -> None:
    """One node per chord plus the outer region; each chord's edge joins
    the region just inside it to the region just outside, with its weight."""
    rows = sorted((min(c["ends"]), max(c["ends"]), c["weight"]) for c in chords["chords"])
    tree = result["tree"]
    expect(len(tree["nodes"]) == len(rows) + 1, "dual tree has the wrong node count")
    want = set()
    stack: list[tuple[int, int]] = []
    for lo, hi, weight in rows:
        while stack and stack[-1][1] < lo:
            stack.pop()
        outer = "outer" if not stack else f"r{stack[-1][0]}_{stack[-1][1]}"
        inner = f"r{lo}_{hi}"
        want.add((min(outer, inner), max(outer, inner), value(weight)))
        stack.append((lo, hi))
    got = {(e["a"], e["b"], value(e["len"])) for e in tree["edges"]}
    expect(got == want, "dual tree edges differ from the chord nesting")
