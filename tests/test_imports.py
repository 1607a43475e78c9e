"""Every name a package module imports is used in that module, every
``__all__`` entry is bound in its module, every name ``__init__.py``
re-exports exists in the module it comes from, every private module-level
name is referenced in the package, no run of three code lines is written
twice in the package, and the test oracles import only the standard library.

A standard-library stand-in for a lint rule: `__init__.py` is skipped by the
unused-import scan because its imports are the package's re-exports.
"""

import ast
import pathlib
import sys
from collections import defaultdict

import pytest

from conftest import REPO_ROOT

PACKAGE = REPO_ROOT / "src" / "signelim"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def declared_all(tree: ast.Module) -> list[str]:
    """The names of a module's literal ``__all__`` list, or none."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


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
    used.update(declared_all(tree))
    return [name for name in imported if name not in used]


def defined_names(tree: ast.Module) -> list[str]:
    """Names bound at module level by definitions and assignments, in order."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return names


def module_names(source: str) -> set[str]:
    """Names bound at module level: definitions, assignments and imports."""
    tree = ast.parse(source)
    names = set(defined_names(tree))
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(a.asname or a.name.partition(".")[0] for a in node.names)
    return names


def stale_exports(source: str) -> list[str]:
    """__all__ entries that name nothing bound at module level, in order."""
    bound = module_names(source)
    return [name for name in declared_all(ast.parse(source)) if name not in bound]


def missing_reexports(init_source: str, read_module) -> list[str]:
    """``module.name`` for every name a relative import in ``__init__.py``
    takes from a package module that does not bind it."""
    missing = []
    for node in ast.parse(init_source).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            bound = module_names(read_module(node.module))
            missing += [f"{node.module}.{a.name}" for a in node.names if a.name not in bound]
    return missing


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


def test_the_export_scans_see_stale_names():
    source = (
        "import os\n"
        "from .errors import DomainError as Bad\n"
        "LIMIT: int = 3\n"
        "X = Y = 1\n"
        "def kept(): pass\n"
        "class Kept: pass\n"
        "if X:\n"
        "    def hidden(): pass\n"
        "__all__ = ['os', 'Bad', 'LIMIT', 'Y', 'kept', 'Kept', 'hidden', 'gone']\n"
    )
    assert stale_exports(source) == ["hidden", "gone"]
    init = "from .mod import kept, gone\nfrom json import nothing\n"
    assert missing_reexports(init, {"mod": source}.__getitem__) == ["mod.gone"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_export_is_defined(path):
    assert stale_exports(path.read_text(encoding="utf-8")) == []


def test_every_package_reexport_exists():
    init = (PACKAGE / "__init__.py").read_text(encoding="utf-8")
    read = lambda module: (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    assert missing_reexports(init, read) == []


def unlisted_reexports(init_source: str, read_module) -> list[str]:
    """``module.name`` for every name a relative import in ``__init__.py``
    takes from a package module whose ``__all__`` leaves it out; a module
    without ``__all__`` exports every public name."""
    unlisted = []
    for node in ast.parse(init_source).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            listed = declared_all(ast.parse(read_module(node.module)))
            unlisted += [f"{node.module}.{a.name}" for a in node.names if listed and a.name not in listed]
    return unlisted


def test_the_listing_scan_sees_a_name_left_out_of_all():
    modules = {"listed": "def kept(): pass\ndef left(): pass\n__all__ = ['kept']\n", "open": "def any(): pass\n"}
    init = "from .listed import kept, left\nfrom .open import any\n"
    assert unlisted_reexports(init, modules.__getitem__) == ["listed.left"]


def test_every_package_reexport_is_in_its_module_all():
    # `from signelim.<module> import *` binds what the package re-exports
    init = (PACKAGE / "__init__.py").read_text(encoding="utf-8")
    read = lambda module: (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    assert unlisted_reexports(init, read) == []


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """``module:name`` for every module-level function, class or assignment
    named with one leading underscore that no source reads by a Name, an
    Attribute or an import alias. Docstrings and comments do not count."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    return [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in defined_names(tree)
        if name.startswith("_") and not name.startswith("__") and name not in referenced
    ]


def test_the_private_name_scan_sees_an_unreferenced_helper():
    helpers = (
        "_LIMIT = 3\n"
        "_unread = 0\n"
        "__version__ = '1'\n"
        "class _Kept: pass\n"
        "def _shim(): pass\n"
        "def _by_attribute(): pass\n"
        "def _by_import(): pass\n"
        "def public(): return _Kept(), _LIMIT\n"
    )
    caller = (
        '"""Names _shim in a docstring only."""\n'
        "from .helpers import _by_import\n"
        "from . import helpers\n"
        "helpers._by_attribute()\n"
        "_unread = 1  # _shim in a comment\n"
    )
    sources = {"helpers.py": helpers, "caller.py": caller}
    assert unreferenced_private_names(sources) == [
        "helpers.py:_unread", "helpers.py:_shim", "caller.py:_unread"
    ]


def test_every_private_name_is_referenced_in_the_package():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_private_names(sources) == []


def code_lines(source: str) -> list[tuple[int, str]]:
    """(line number, stripped text) of every line the copy scan compares: not
    blank, a comment, part of an import or a docstring, nor 12 characters or
    fewer (closing brackets, ``else:``, ``return x``)."""
    tree = ast.parse(source)
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            skipped.update(range(node.lineno, node.end_lineno + 1))
        elif isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                skipped.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = enumerate((line.strip() for line in source.splitlines()), 1)
    return [
        (number, text)
        for number, text in lines
        if number not in skipped and len(text) > 12 and not text.startswith("#")
    ]


def repeated_blocks(sources: dict[str, str], size: int = 3) -> list[list[str]]:
    """Each run of ``size`` consecutive code lines found more than once across
    the sources, as the ``name:line`` of every place it starts."""
    places = defaultdict(list)
    for name, source in sources.items():
        lines = code_lines(source)
        for i in range(len(lines) - size + 1):
            run = tuple(text for _, text in lines[i : i + size])
            places[run].append(f"{name}:{lines[i][0]}")
    return [found for found in places.values() if len(found) > 1]


def test_the_copy_scan_sees_a_repeated_block():
    header = (
        '"""A module docstring line long enough to count.\n'
        "Its second line is long enough too.\n"
        "And its third line, and its fourth line,\n"
        'which the scan leaves out as it does imports."""\n'
        "from json import (\n"
        "    JSONDecodeError,\n"
        "    JSONDecoder,\n"
        "    JSONEncoder,\n"
        ")\n"
    )
    block = [
        "    first = compute_first(value)\n",
        "    second = compute_second(value)\n",
        "    third = compute_third(first, second)\n",
        "    return combine(first, second, third)\n",
    ]
    one = header + "def f(value):\n" + "".join(block)
    two = header + (
        "def g(value):\n"
        '    """A function docstring line that counts for nothing."""\n'
        + block[0]
        + "    # a comment line between the copied lines\n"
        + block[1]
        + "    x = 1\n"
        + "".join(block[2:])
        + "def h(value):\n"
        + "".join(block[1:])
    )
    assert repeated_blocks({"one.py": one, "two.py": two}, size=4) == [["one.py:11", "two.py:12"]]
    # at the guard's three lines, h's copy of the last three lines is seen too
    assert repeated_blocks({"one.py": one, "two.py": two}) == [
        ["one.py:11", "two.py:12"],
        ["one.py:12", "two.py:14", "two.py:19"],
    ]


def test_no_run_of_code_lines_is_written_twice():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert repeated_blocks(sources) == []


def imported_modules(source: str) -> set[str]:
    """The top-level module of every import, at any depth; a relative import
    as its dots and module, e.g. ".errors"."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("." * node.level + (node.module or "").partition(".")[0])
    return names


def test_the_module_scan_sees_every_import_form():
    source = (
        "import os.path\n"
        "import numpy as np\n"
        "from json import dumps\n"
        "from . import oracles\n"
        "from .errors import DomainError\n"
        "def f():\n"
        "    from signelim.gates import expand\n"
    )
    assert imported_modules(source) == {"os", "numpy", "json", ".", ".errors", "signelim"}


def test_the_oracles_import_only_the_standard_library():
    """The oracles are a second route to the package's results, so they may
    not reach them through numpy or the package."""
    source = (REPO_ROOT / "tests" / "oracles.py").read_text(encoding="utf-8")
    assert sorted(imported_modules(source) - sys.stdlib_module_names) == []
