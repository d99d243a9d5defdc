"""The package's dependencies: a fresh import loads neither mpmath (a test
oracle only) nor scipy.special, and every third-party module the package
imports is declared in pyproject.toml's [project] dependencies."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "focklab"


def test_import_loads_neither_mpmath_nor_scipy_special():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    code = "import sys, focklab, focklab.cli; print(sorted({'mpmath', 'scipy.special'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_package_imports_only_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    deps = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", d).group().lower() for d in deps}
    assert declared == {"numpy", "scipy"}
    roots = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                roots |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots.add(node.module.split(".")[0])
    assert roots - set(sys.stdlib_module_names) == declared
