"""Package structure: every relative import names a module that exists, every
exported name is defined where it is exported, no module imports another's
private name, no module but profiles branches on a doping's type, importing
the package loads no scipy module beyond scipy.fft, and a re-imported package
is freed."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import spwaves.grid

PACKAGE = Path(spwaves.grid.__file__).parent


def parsed_sources():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    return [(path, ast.parse(path.read_text(), filename=str(path))) for path in sources]


def test_relative_imports_name_existing_modules():
    for path, tree in parsed_sources():
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level == 1):
                continue
            names = [node.module] if node.module else [alias.name for alias in node.names]
            for name in names:
                target = PACKAGE / (name.split(".")[0] + ".py")
                assert target.is_file(), f"{path.name}:{node.lineno} imports missing module .{name}"


def test_exported_names_are_defined_in_their_module():
    for path, tree in parsed_sources():
        defined, exported = set(), []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = {t.id for t in targets if isinstance(t, ast.Name)}
                defined |= names
                if "__all__" in names:
                    exported = ast.literal_eval(node.value)
        missing = [name for name in exported if name not in defined]
        assert not missing, f"{path.name} exports names it does not define: {missing}"


def test_no_module_imports_a_private_name():
    for path, tree in parsed_sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                private = [alias.name for alias in node.names if alias.name.startswith("_")]
                assert not private, f"{path.name}:{node.lineno} imports private {private}"


DOPING_TYPES = {"ZeroProfile", "GaussianProfile", "PowerLawProfile", "BallsProfile"}


def test_only_profiles_branches_on_a_dopings_type():
    """Every doping runs one path: profiles samples rho and its fields by
    type, and every other module works on those samples alone."""
    for path, tree in parsed_sources():
        if path.name == "profiles.py":
            continue
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance"):
                continue
            classes = node.args[1:]
            if classes and isinstance(classes[0], ast.Tuple):
                classes = classes[0].elts
            names = {getattr(c, "id", None) or getattr(c, "attr", None) for c in classes}
            assert not names & DOPING_TYPES, f"{path.name}:{node.lineno} branches on {sorted(names & DOPING_TYPES)}"


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


SCIPY_MODULES = """
import sys
import scipy.fft
before = set(sys.modules)
import spwaves.grid, spwaves.profiles, spwaves.energy, spwaves.minimize
print(sorted(m for m in set(sys.modules) - before if m.split(".")[0] == "scipy"))
"""


def test_importing_spwaves_loads_no_further_scipy_module():
    """spwaves needs scipy.fft alone; scipy.linalg or scipy.sparse.linalg
    would add several MB of resident memory to every process that imports
    the package."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", SCIPY_MODULES], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_reimported_modules_are_freed():
    """A fresh import of spwaves, as the benchmark makes per operation, must
    let the previous one go, with its classes and its kernel cache: nothing
    at module level may hand them to a process-wide cache."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", REIMPORT], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "['dead', 'dead']"
