"""Scaling sweep of the costly constructions; reported, not gated.

    python3 bench/sweep.py --seed 1

Run from the root of a levelring source tree.  For each point it times one
untraced invocation and one traced invocation (fresh inputs of the same
size) and prints the wall time and every layer's self time, one JSON line
per point:

* ``track strata`` against the height bound, on 3 and 4 segments;
* ``measure decompose`` against the component count;
* ``tree dist`` (3 pairs) and ``tree metric`` against the node count.

Every point is capped by input size so that none can hang: strata points
stop at 1.2M candidate patterns, (2H+1)^n (4 segments at H=24 would take
about 12 s at the time of writing); tree metric audits n^2 paths of up to
n steps each scanning every edge, so it stops at 40 nodes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path
from random import Random

import run
import tracing
import workloads as wl

STRATA_CANDIDATE_CAP = 1_200_000

SERIES = [
    ("track strata n=3", "height", [h for h in (4, 8, 12, 16, 20, 24) if (2 * h + 1) ** 3 <= STRATA_CANDIDATE_CAP],
     lambda g, h: wl.strata_call(g, 3, h)),
    ("track strata n=4", "height", [h for h in (5, 7, 9, 12, 16, 24) if (2 * h + 1) ** 4 <= STRATA_CANDIDATE_CAP],
     lambda g, h: wl.strata_call(g, 4, h)),
    ("measure decompose", "components", [55, 110, 220, 440, 880],
     lambda g, m: wl.measure_call(g, "decompose", g.measure(m - m // 11, m // 11))),
    ("tree dist", "nodes", [250, 500, 1000, 2000], lambda g, n: wl.dist_call(g, n)),
    ("tree metric", "nodes", [10, 20, 30, 40], lambda g, n: wl.metric_call(g, n)),
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    src = Path.cwd() / "src"
    if not (src / "levelring" / "cli.py").is_file():
        print(f"no levelring sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import levelring.cli as cli

    gen = wl.Inputs(Random(args.seed))
    workdir = Path.cwd() / ".bench_build" / f"levelring-sweep-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    runner = run.Runner(cli, workdir, tracing.Tracer())
    try:
        for label, axis, sizes, make in SERIES:
            for size in sizes:
                runner.run(make(gen, size))
                runner.layers = tracing.LayerTotals()
                runner.run(make(gen, size), traced=True)
                self_ms = {layer: runner.layers.sums[f"{layer}.self_ns"] / 1e6 for layer in tracing.LAYERS}
                print(json.dumps({
                    "series": label, axis: size,
                    "wall_ms": runner.last_ns / 1e6,
                    "self_ms": {k: round(v, 3) for k, v in self_ms.items() if v},
                }), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(runner.failures.values())
    for (label, kind, why), count in sorted(runner.failures.items()):
        print(f"failed {count}x: {label} [{kind}] {why}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
