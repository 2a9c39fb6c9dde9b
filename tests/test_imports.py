"""Every top-level import of an abplab module is used by that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "abplab"
MODULES = sorted(SRC.glob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by top-level imports that the module never references
    and does not list in __all__."""
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used and name not in exported)


def test_modules_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "contact.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detector_flags_and_accepts():
    src = ("from __future__ import annotations\n"
           "import math\nimport os.path\nfrom typing import Optional, Sequence\n"
           "from .x import exported\n"
           "__all__ = ['exported']\n"
           "def f(v: Optional[int]):\n    return math.pi\n")
    assert unused_imports(src) == ["Sequence (line 4)", "os (line 3)"]
