"""Package structure: every relative import names a module that exists, and a
re-imported package is freed."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import spwaves.grid

PACKAGE = Path(spwaves.grid.__file__).parent


def test_relative_imports_name_existing_modules():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not (isinstance(node, ast.ImportFrom) and node.level == 1):
                continue
            names = [node.module] if node.module else [alias.name for alias in node.names]
            for name in names:
                target = PACKAGE / (name.split(".")[0] + ".py")
                assert target.is_file(), f"{path.name}:{node.lineno} imports missing module .{name}"


REIMPORT = """
import gc, importlib, sys, weakref

def fresh():
    for name in [m for m in sys.modules if m == "spwaves" or m.startswith("spwaves.")]:
        del sys.modules[name]
    return [importlib.import_module(f"spwaves.{m}") for m in ("grid", "profiles", "energy", "minimize")]

grid, profiles, _, _ = fresh()
refs = [weakref.ref(profiles.GaussianProfile), weakref.ref(grid._unit_kernel_hat)]
del grid, profiles
for _ in range(4):
    fresh()
gc.collect()
print(["dead" if ref() is None else "alive" for ref in refs])
"""


def test_reimported_modules_are_freed():
    """A fresh import of spwaves, as the benchmark makes per operation, must
    let the previous one go, with its classes and its kernel cache: nothing
    at module level may hand them to a process-wide cache."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", REIMPORT], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "['dead', 'dead']"
