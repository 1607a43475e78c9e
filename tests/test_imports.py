"""Every name a package module imports is used in that module.

A standard-library stand-in for a lint rule: `__init__.py` is skipped because
its imports are the package's re-exports.
"""

import ast
import pathlib

import pytest

from conftest import REPO_ROOT

MODULES = sorted(
    path
    for path in (REPO_ROOT / "src" / "signelim").glob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Imported names never referenced, nor listed in __all__, in order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_the_scan_sees_every_import_form():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from json import dumps, loads\n"
        "from .errors import DomainError as Bad\n"
        "__all__ = ['loads']\n"
        "np.zeros(1)\n"
    )
    assert unused_imports(source) == ["os", "dumps", "Bad"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
