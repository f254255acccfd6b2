"""Package structure: every relative import names a module that exists."""

import ast
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
