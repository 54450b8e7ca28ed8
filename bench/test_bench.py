"""Smoke tests of the benchmark runner: one round per workload.

    python3 -m pytest bench

Run from the root of a levelring source tree.  These are not part of the
library's test suite (``tests/``); they check that the benchmark itself
runs, checks its reports and prints what ``BENCHMARK.json`` declares.
"""

import json
import shutil
import subprocess
import sys
from math import ceil
from pathlib import Path
from random import Random

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import hostspeed  # noqa: E402
import reference as ref  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TARGET_LAYER = {"strata": "tracks", "measures": "measures", "trees": "trees", "small": "cli"}
KNOWN_ESCAPES = {"wrong_type:svalue_mul_args_int", "wrong_type:tree_insert_attach_nonstring"}


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def smoke(workload: str, trace: int):
    done = bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0",
                 "--trace", str(trace), "--rounds", "1")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(TARGET_LAYER)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in tracing.PER_LAYER
    ]


@pytest.mark.parametrize("workload", list(TARGET_LAYER))
def test_untraced_round(workload):
    lines, result = smoke(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    escaped = {line.split("[")[1].split("]")[0] for line in lines if line.startswith("failed ")}
    assert escaped <= (KNOWN_ESCAPES if workload == "small" else set())


@pytest.mark.parametrize("workload", list(TARGET_LAYER))
def test_traced_round_leads_with_target_layer(workload):
    lines, result = smoke(workload, 1)
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    shares = next(line for line in lines if line.startswith("self-time shares:"))
    assert shares.split()[2].split("=")[0] == TARGET_LAYER[workload]


@pytest.mark.parametrize("workload", list(TARGET_LAYER))
def test_inputs_never_repeat(workload):
    gen = workloads.Inputs(Random(3))
    seen = set()
    for _ in range(12):
        for call in workloads.ROUNDS[workload](gen):
            key = (call.label, tuple(sorted(call.files.items())))
            assert key not in seen, call.label
            seen.add(key)


@pytest.mark.parametrize("slots", [workloads.STRATA_SLOTS, workloads.MEASURE_SLOTS, workloads.TREE_SLOTS])
def test_quantile_ranks_sit_inside_repeated_slots(slots):
    for q in (0.5, 0.9):
        k = ceil(q * len(slots)) - 1
        assert slots[k - 1] == slots[k] == slots[k + 1], (q, slots[k])


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(tmp_path, "--workload", "small", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_strata_count_reference():
    assert ref.strata_count(3, 2) == 99
    assert ref.strata_count(3, 3) == ref.strata_count(3, 16) == 147
    assert ref.strata_count(4, 4) == ref.strata_count(4, 16) == 1697


def test_absorption_sum():
    from fractions import Fraction

    assert ref.lsum([None, (0, Fraction(2)), (1, Fraction(1, 2)), (1, Fraction(1, 3))]) == (1, Fraction(5, 6))
    assert ref.lsum([(2, Fraction(1)), (2, ref.INF), (0, Fraction(9))]) == (2, ref.INF)
    assert ref.lsum([]) is None


def test_host_speed_scaling():
    ref_ns = hostspeed.REFERENCE_NS
    assert hostspeed.scale(1000, ref_ns, ref_ns) == 1000
    assert hostspeed.scale(1000, 2 * ref_ns, 2 * ref_ns) == 500  # a host at half speed
    assert hostspeed.loop_ns() > 0
