"""The program runs on the standard library and numpy alone."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import slabreg

ALLOWED = {"numpy", "slabreg"}
SOURCES = sorted(Path(slabreg.__file__).parent.glob("*.py"))
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_import_loads_no_scipy():
    code = "import sys, slabreg; print('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(slabreg.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_imports_only_stdlib_and_numpy(path):
    tops = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            tops.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            tops.add(node.module.split(".")[0])
    assert tops <= set(sys.stdlib_module_names) | ALLOWED


def test_declared_dependencies_are_numpy_alone():
    tomllib = pytest.importorskip("tomllib")
    assert tomllib.loads(PYPROJECT.read_text())["project"]["dependencies"] == ["numpy>=1.24"]
