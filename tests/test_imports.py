"""Every name a module imports is used in that module.

Package `__init__.py` files are skipped: their imports are the re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "codebrain"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        # quoted annotations such as -> "Tensor" name their types in a string
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            used.add(node.value)
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nfrom typing import Iterable\nos.sep\n") == ["Iterable (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
