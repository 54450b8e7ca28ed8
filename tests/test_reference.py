"""The benchmark's generated calls, checked against its reference model.

``bench/reference.py`` computes each expected result from the generated
input with its own exact arithmetic, without ``levelring``.  These tests
run seeded rounds of every benchmark workload through ``cli.main``
in-process and check each report as ``bench/run.py`` does: the exit code,
the input digests, and the result or the error diagnostic.
"""

import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from random import Random

import pytest

from levelring import cli

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import run as bench_run  # noqa: E402
import workloads  # noqa: E402

# workload -> rounds; a small round holds every subcommand and every
# malformed kind, the others a few large inputs
ROUNDS = {"small": 40, "strata": 2, "measures": 2, "trees": 2}


@pytest.mark.parametrize("workload", sorted(ROUNDS))
def test_generated_calls_match_the_reference(tmp_path, workload):
    gen = workloads.Inputs(Random(1))
    for _ in range(ROUNDS[workload]):
        for call in workloads.ROUNDS[workload](gen):
            paths = {}
            for role, data in call.files.items():
                path = tmp_path / f"{role}.json"
                path.write_bytes(data)
                paths[role] = str(path)
            argv = [paths[a[1:]] if a.startswith("@") else a for a in call.argv]
            out = io.StringIO()
            try:
                with redirect_stdout(out), redirect_stderr(io.StringIO()):
                    code = cli.main(argv)
                bench_run.check_report(call, code, out.getvalue())
            except Exception as exc:
                raise AssertionError(f"{call.label} [{call.kind}]: {call.argv}") from exc
