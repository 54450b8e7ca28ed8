"""The package namespace and the demo scripts."""

import importlib.util
import json
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


def test_failing_hypothesis_test_prints_its_example(tmp_path):
    """Under the repository's warning filters, a failing property reports
    its falsifying example rather than ending in an internal error."""
    (tmp_path / "pyproject.toml").write_text((ROOT / "pyproject.toml").read_text())
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 10\n"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_fails.py"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout
    assert "INTERNALERROR" not in proc.stdout + proc.stderr


def test_bench_tracer_wraps_names_that_exist(tmp_path, capsys):
    """The benchmark's tracer wraps every public function and the methods
    it lists by name; a rename here would break it silently, as the bench
    tests are not part of this suite."""
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tree = tmp_path / "tree.json"
    tree.write_text(json.dumps({"nodes": ["a", "b"], "edges": [
        {"a": "a", "b": "b", "len": {"level": 0, "real": "1"}}]}))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(["tree", "metric", str(tree)]) == 0
    finally:
        tracer.uninstall()
    assert json.loads(capsys.readouterr().out)["result"] == {"metric": True}
    assert "trees.verify_metric" in {name for name, *_ in tracer.take()}
    planned = {(owner, key) for owner, key, _, _ in tracer._plan if not isinstance(owner, dict)}
    for layer, methods in tracing.METHODS.items():
        module = getattr(levelring, layer)
        for cls_name, meth in methods:
            assert (getattr(module, cls_name), meth) in planned, (layer, cls_name, meth)
    for owner, key, original, _ in tracer._plan:
        now = owner[key] if isinstance(owner, dict) else owner.__dict__[key]
        assert now is original, key
