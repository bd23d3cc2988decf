"""Every imported name is read somewhere in its module.

Neither pyflakes nor ruff ships with the toolchain, so this AST scan stands in
for their unused-import rule. A name counts as read when it appears as a loaded
``Name`` node anywhere in the module (a call, an attribute root, an annotation,
a decorator). ``src/flowmt/__init__.py`` is skipped: its imports are the
package's re-exports.

Every name in a package module's ``__all__`` must also exist in that module,
so a deleted function cannot linger as an export that breaks
``from flowmt.<module> import *``.
"""

import ast
import importlib
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for path in [*(ROOT / "src" / "flowmt").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    if path.name != "__init__.py"
)

PACKAGE = sorted((ROOT / "src" / "flowmt").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement in ``source`` that are never read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    unused = sorted((line, name) for name, line in imported.items() if name not in read)
    return [f"line {line}: {name}" for line, name in unused]


def test_scan_flags_only_names_never_read():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "import numpy as np\n"
        "from random import Random, gauss\n"
        "def f(x: Random) -> float:\n"
        "    return np.sqrt(os.path.sep)\n"
    )
    assert unused_imports(source) == ["line 2: math", "line 5: gauss"]


def test_modules_found():
    names = {path.name for path in MODULES}
    assert {"emt.py", "harness.py", "test_imports.py", "oracles.py"} <= names


@pytest.mark.parametrize("path", MODULES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def missing_exports(module) -> list[str]:
    """Names in ``module.__all__`` that ``module`` does not define."""
    return [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]


def test_export_check_flags_only_missing_names():
    module = types.ModuleType("fake")
    module.__all__ = ["kept", "deleted"]
    module.kept = 1
    assert missing_exports(module) == ["deleted"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: path.name)
def test_every_export_exists(path):
    name = "flowmt" if path.name == "__init__.py" else f"flowmt.{path.stem}"
    assert missing_exports(importlib.import_module(name)) == []
