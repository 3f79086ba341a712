"""The demos stay runnable: their gathersim imports resolve, and the quick ones exit 0.

Demos 03, 06 and 07 take 12-26 s each, so only their imports are checked.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# the quick demos, with arguments that keep them small
RUNS = {"01": [], "02": [], "04": ["2"], "05": ["500"]}


def gathersim_imports(path: Path):
    """(module, name) for every name a ``from gathersim... import`` of ``path`` takes."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "gathersim":
            for alias in node.names:
                yield node.module, alias.name


def test_the_demos_are_found():
    assert {p.name[:2] for p in DEMOS} >= set(RUNS) | {"03", "06", "07"}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name[:2])
def test_demo_imports_resolve(demo):
    for module, name in gathersim_imports(demo):
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


@pytest.mark.parametrize("demo", sorted(RUNS))
def test_quick_demo_exits_0(demo):
    (path,) = (p for p in DEMOS if p.name.startswith(demo))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, str(path), *RUNS[demo]], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout
