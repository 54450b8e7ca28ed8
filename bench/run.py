"""levelring benchmark runner.

    python3 bench/run.py --workload strata --seed 1 --seconds 20 --trace 0

Run from the root of a levelring source tree.  The runner imports
``levelring.cli`` from ``src/`` and calls ``cli.main(argv)`` in-process:
one caller, closed loop, whole rounds of the workload's seeded inputs
(see ``workloads.py``) until ``--seconds`` have passed and, untraced, at
least ``MIN_ROUNDS`` rounds were timed.  Every report is checked against
references computed by ``reference.py``.

Every timing is scaled to a fixed reference speed of the host by a
calibration loop run right before and right after it (``hostspeed.py``):
the shared host's speed swings by up to 1.6x for minutes at a time.  The
unscaled figures are printed too.  Latency is summarised per input slot:
a slot is one kind and size of invocation, and a round holds a fixed
number of each.  Each slot's latency is the median of its invocations
over the run; p50 and p90 are quantiles over the invocations of a round
with each invocation read as its slot's latency, and ``cmds_per_s`` is
the rate at those latencies.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` interleaves
untraced and traced calls and prints the per-layer metrics of the traced
ones plus the tracing overhead (see ``tracing.py``).  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  ``correct`` is false when any produced report fails its
check; ``failed`` also counts exceptions that escape ``cli.main``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from array import array
from collections import Counter, defaultdict
from contextlib import redirect_stderr, redirect_stdout
from math import ceil
from pathlib import Path
from random import Random
from time import perf_counter, perf_counter_ns

import hostspeed
import reference as ref
import tracing
import workloads

MIN_ROUNDS = 4  # untraced runs: every slot median pools at least this many rounds
HARD_CAP_S = 120.0  # stop adding rounds after this, whatever the sample count
SETUP_REPEATS = 11

IMPORT_PROBE = (
    "import sys, time, hostspeed\n"
    "before = hostspeed.loop_ns()\n"
    "t = time.perf_counter_ns()\n"
    "import levelring.cli\n"
    "t = time.perf_counter_ns() - t\n"
    "sys.stdout.write(repr(hostspeed.scale(t, before, hostspeed.loop_ns()) / 1e9))\n"
)


def setup_seconds(src: Path) -> float:
    """Median time, at the reference host speed, of a cold ``import
    levelring.cli`` in fresh interpreters (after one discarded run that
    writes the bytecode cache)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(Path(__file__).parent)]))
    times = []
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        if i:
            times.append(float(done.stdout))
    return statistics.median(times)


class Runner:
    """Writes each call's inputs, times ``cli.main`` on them, checks the
    report, and keeps the timings and failures."""

    def __init__(self, cli, workdir: Path, tracer=None):
        self.cli = cli
        self.workdir = workdir
        self.tracer = tracer
        self.layers = tracing.LayerTotals()
        # Untraced invocation walls by slot, scaled to the reference host
        # speed and as measured; arrays keep peak RSS flat in the run length.
        self.samples_ns: dict = defaultdict(lambda: array("d"))
        self.raw_ns: dict = defaultdict(lambda: array("q"))
        self.slots: Counter = Counter()  # invocations of each slot in one round
        self.last_ns = 0  # the latest untraced wall
        self.wall_ns = {False: 0, True: 0}  # summed invocation walls, by traced
        self.attempted = 0
        self.wrong = 0
        self.failures: Counter = Counter()

    def run(self, call: workloads.Call, traced: bool = False) -> None:
        if traced:
            self.tracer.install()
        try:
            self.wall_ns[traced] += self._run(call, traced)
        finally:
            if traced:
                self.tracer.uninstall()

    def _run(self, call: workloads.Call, traced: bool) -> int:
        paths = {}
        for role, data in call.files.items():
            path = self.workdir / f"{role}.json"
            path.write_bytes(data)
            paths[role] = str(path)
        argv = [paths[a[1:]] if a.startswith("@") else a for a in call.argv]
        out, err = io.StringIO(), io.StringIO()
        raised = None
        with redirect_stdout(out), redirect_stderr(err):
            before = hostspeed.loop_ns()
            t0 = perf_counter_ns()
            try:
                code = self.cli.main(argv)
            except Exception as exc:  # an escape is counted, not fatal
                raised, code = exc, None
            elapsed = perf_counter_ns() - t0
            after = hostspeed.loop_ns()
        self.attempted += 1
        if traced:
            self.layers.add(self.tracer.take())
        else:
            self.samples_ns[call.slot].append(hostspeed.scale(elapsed, before, after))
            self.raw_ns[call.slot].append(elapsed)
            self.last_ns = elapsed
        if raised is not None:
            self.failures[(call.label, call.kind, f"raised {type(raised).__name__}")] += 1
            return elapsed
        try:
            check_report(call, code, out.getvalue())
        # A report of an unexpected shape fails its check like a wrong one.
        except (ref.CheckError, KeyError, TypeError, IndexError, ValueError) as exc:
            self.wrong += 1
            self.failures[(call.label, call.kind, f"check: {exc}"[:200])] += 1
        return elapsed


def check_report(call: workloads.Call, code, stdout: str) -> None:
    ref.expect(code == call.expect_exit, f"exit {code}, want {call.expect_exit}")
    report = json.loads(stdout)
    digests = {role: hashlib.sha256(data).hexdigest() for role, data in call.files.items()}
    inputs = report["inputs"]
    ref.expect(all(digests.get(r) == d for r, d in inputs.items()), "input digest mismatch")
    if code == 0:
        ref.expect(set(inputs) == set(digests), "report misses an input digest")
        if call.check is not None:
            call.check(report["result"])
    else:
        ref.expect(any(d["severity"] == "error" for d in report["diagnostics"]),
                   "failed run without an error diagnostic")


def measure(runner: Runner, workload: str, seed: int, seconds: float, traced: bool, rounds: int | None):
    """Run whole rounds until time and sample count (or ``rounds``) are met.
    One untimed warm-up round goes first.  A traced run draws two rounds at
    a time and interleaves them call by call, one untraced and one traced
    call of the same slot, swapping which goes first, so that both halves
    see the same machine and the same input sizes."""
    gen = workloads.Inputs(Random(seed))
    make_round = workloads.ROUNDS[workload]
    warm_up = make_round(gen)
    runner.slots = Counter(call.slot for call in warm_up)
    for call in warm_up:
        runner.run(call)
    runner.samples_ns.clear()
    runner.raw_ns.clear()
    runner.wall_ns[False] = 0
    start = perf_counter()
    done = 0
    while True:
        if traced:
            pairs = list(zip(make_round(gen), make_round(gen)))
            gen.rng.shuffle(pairs)
            for i, (plain, spanned) in enumerate(pairs):
                for call in ((plain, spanned) if i % 2 else (spanned, plain)):
                    runner.run(call, call is spanned)
        else:
            calls = make_round(gen)
            gen.rng.shuffle(calls)
            for call in calls:
                runner.run(call)
        done += 1
        elapsed = perf_counter() - start
        if rounds is not None:
            if done >= rounds:
                break
        elif (elapsed >= seconds and (traced or done >= MIN_ROUNDS)) or elapsed >= HARD_CAP_S:
            break
    return done


def slot_quantile(ranked: list, q: float):
    """The (latency, slot) at quantile ``q`` of a round's invocations,
    ``ranked`` holding one entry per invocation, sorted."""
    return ranked[ceil(q * len(ranked)) - 1]


def slot_latencies(samples_ns: dict, slots: Counter) -> list:
    """One (slot median ms, slot) per invocation of a round, sorted."""
    medians = {slot: statistics.median(ns) / 1e6 for slot, ns in samples_ns.items()}
    return sorted((medians[slot], slot) for slot, count in slots.items() for _ in range(count))


def latencies(samples_ns: dict, slots: Counter) -> dict:
    ranked = slot_latencies(samples_ns, slots)
    return {
        "cmds_per_s": {"value": len(ranked) / (sum(ms for ms, _ in ranked) / 1e3), "unit": "1/s"},
        "cmd_ms_p50": {"value": slot_quantile(ranked, 0.5)[0], "unit": "ms"},
        "cmd_ms_p90": {"value": slot_quantile(ranked, 0.9)[0], "unit": "ms"},
    }


def end_to_end(runner: Runner, setup_s: float) -> dict:
    return {
        **latencies(runner.samples_ns, runner.slots),
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, help="run exactly this many rounds (smoke runs)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "levelring" / "cli.py").is_file():
        print(f"no levelring sources under {src}; run from the root of a levelring tree",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import levelring.cli as cli

    print(f"levelring bench: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} python={platform.python_implementation()}-{platform.python_version()} "
          f"nproc={len(os.sched_getaffinity(0))}")
    setup_s = None if args.trace else setup_seconds(src)
    workdir = root / ".bench_build" / f"levelring-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    runner = Runner(cli, workdir, tracing.Tracer() if args.trace else None)
    try:
        rounds = measure(runner, args.workload, args.seed, args.seconds, bool(args.trace), args.rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(runner.failures.values())
    n = sum(len(ns) for ns in runner.samples_ns.values())
    print(f"rounds={rounds} attempted={runner.attempted} timed_untraced={n} "
          f"failed_share={failed / runner.attempted:.4f} ({failed}/{runner.attempted})")
    if n:
        ranked = slot_latencies(runner.samples_ns, runner.slots)
        for q in (0.5, 0.9):
            ms, slot = slot_quantile(ranked, q)
            print(f"p{round(q * 100)}: {ms:.4g} ms = median of {len(runner.samples_ns[slot])} "
                  f"invocations of slot '{slot}' ({runner.slots[slot]} per round)")
        speed = statistics.median(s / r for slot in runner.raw_ns
                                  for s, r in zip(runner.samples_ns[slot], runner.raw_ns[slot]))
        print(f"host speed: median {speed:.3f} of the reference; unscaled: " + " ".join(
            f"{name}={m['value']:.6g} {m['unit']}"
            for name, m in latencies(runner.raw_ns, runner.slots).items()))
    for (label, kind, why), count in sorted(runner.failures.items()):
        print(f"failed {count}x: {label} [{kind}] {why}")
    if args.trace:
        metrics = runner.layers.metrics(runner.wall_ns[True] / runner.wall_ns[False] - 1)
        shares = runner.layers.self_shares()
        print("self-time shares: " + " ".join(
            f"{layer}={share:.3f}" for layer, share in sorted(shares.items(), key=lambda kv: -kv[1])))
        for name, unit, _, moves in tracing.PER_LAYER:
            print(f"  {name} = {metrics[name]['value']:.6g} {unit}  (moves: {moves})")
    else:
        metrics = end_to_end(runner, setup_s)
        for name, m in metrics.items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": runner.wrong == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
