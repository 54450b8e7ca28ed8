"""The package namespace and the demo scripts."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import levelring
from levelring import cli, jsonio, measures, tracks, trees, values, vectors

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("module", [values, vectors, measures, tracks, trees, jsonio, cli])
def test_package_names_are_the_modules_own(module):
    """A name the package exports means the same object in every module
    that lists it, so no module's name shadows another's."""
    for name in set(module.__all__) & set(levelring.__all__):
        assert getattr(levelring, name) is getattr(module, name), name


def test_every_demo_is_collected():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    """Each demo prints its golden text, whatever the hash seed."""
    golden = (ROOT / "tests" / "golden" / "demos" / f"{demo.stem}.out").read_text()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for seed in ("1", "2"):
        env["PYTHONHASHSEED"] = seed
        proc = subprocess.run(
            [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == golden
