"""Every imported name is read somewhere in its module.

Neither pyflakes nor ruff ships with the toolchain, so this AST scan stands in
for their unused-import rule. A name counts as read when it appears as a loaded
``Name`` node anywhere in the module (a call, an attribute root, an annotation,
a decorator). ``src/flowmt/__init__.py`` is skipped: its imports are the
package's re-exports.

Every name in a package module's ``__all__`` must also exist in that module,
so a deleted function cannot linger as an export that breaks
``from flowmt.<module> import *``.

Every private helper of the package, a module-level ``_function`` or a class's
``_method``, must be read somewhere in ``src/flowmt``: as a loaded name (a call,
an import's later use) or as a loaded attribute (``self._method``), so a helper
whose last caller is deleted goes with it.

Only ``emt.py`` reads the clock: no other package module imports ``time`` or
names ``perf_counter``, so the engine alone decides when a run stops.

Only ``search.py`` builds an ``array.array``: no other package module calls
it, so the packed format of the INSERT-walk batches has one owner.

Every ``fm.<name>`` that the benchmark scripts in ``perfbench/`` read must
exist on the ``flowmt`` package, so deleting a name the benchmark drives fails
here rather than only when the benchmark runs.

Every text-mode ``open``, ``read_text`` and ``write_text`` in ``src/flowmt``
names its ``encoding``, so each file flowmt reads or writes is UTF-8 whatever
the locale.

``import flowmt`` loads neither ``multiprocessing`` nor ``concurrent.futures``:
only a parallel campaign needs its process pool.
"""

import ast
import importlib
import os
import subprocess
import sys
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


def unread_private_helpers(sources: dict[str, str]) -> list[str]:
    """Module-level ``_functions`` and class ``_methods`` (dunders aside) in
    ``sources``, file name -> text, that no source reads by name or attribute."""
    defined, read = [], set()
    for file, source in sorted(sources.items()):
        tree = ast.parse(source)
        for node in tree.body:
            for fn in node.body if isinstance(node, ast.ClassDef) else [node]:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                if fn.name.startswith("_") and not fn.name.startswith("__"):
                    defined.append((file, fn.lineno, fn.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [f"{file} line {line}: {name}" for file, line, name in defined if name not in read]


def test_helper_scan_flags_only_helpers_never_read():
    sources = {
        "a.py": (
            "def _called(): pass\n"
            "def _unread(): pass\n"
            "def __getattr__(name): pass\n"
            "class C:\n"
            "    def __init__(self): self._bound = self._kept\n"
            "    def _kept(self): pass\n"
            "    def _dropped(self): pass\n"
        ),
        "b.py": "from a import _called\n_called()\n",
    }
    assert unread_private_helpers(sources) == ["a.py line 2: _unread", "a.py line 7: _dropped"]


def test_every_private_helper_is_read():
    assert unread_private_helpers({path.name: path.read_text() for path in PACKAGE}) == []


def clock_reads(sources: dict[str, str]) -> list[str]:
    """Each import of ``time`` and each ``perf_counter`` name, imported or
    read, in ``sources``, file name -> text, in file and line order."""
    reads = []
    for file, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                found = any(alias.name.partition(".")[0] == "time" for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                found = node.module == "time" or any(
                    alias.name == "perf_counter" for alias in node.names
                )
            elif isinstance(node, ast.Name):
                found = node.id == "perf_counter"
            elif isinstance(node, ast.Attribute):
                found = node.attr == "perf_counter"
            else:
                continue
            if found:
                reads.append((file, node.lineno))
    return [f"{file} line {line}" for file, line in sorted(reads)]


def test_clock_scan_flags_time_imports_and_perf_counter():
    sources = {
        "a.py": (
            "import timeit\n"
            "import time as t\n"
            "from datetime import time\n"
            "start = t.perf_counter()\n"
        ),
        "b.py": "from time import monotonic\nfrom x import perf_counter\nperf_counter()\n",
    }
    assert clock_reads(sources) == [
        "a.py line 2", "a.py line 4", "b.py line 1", "b.py line 2", "b.py line 3",
    ]


def test_only_the_engine_reads_the_clock():
    reads = clock_reads({path.name: path.read_text() for path in PACKAGE})
    assert any(read.startswith("emt.py ") for read in reads)
    assert [read for read in reads if not read.startswith("emt.py ")] == []


def array_builds(sources: dict[str, str]) -> list[str]:
    """Each call of ``array.array`` in ``sources``, file name -> text, in file
    and line order, whether the name was imported from ``array`` or read as
    an attribute of the imported module (``numpy.array`` is not one)."""
    builds = []
    for file, source in sources.items():
        tree = ast.parse(source)
        names, modules = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound = {alias.asname or alias.name for alias in node.names if alias.name == "array"}
                if isinstance(node, ast.Import):
                    modules |= bound
                elif node.module == "array":
                    names |= bound
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (isinstance(func, ast.Name) and func.id in names) or (
                isinstance(func, ast.Attribute) and func.attr == "array"
                and isinstance(func.value, ast.Name) and func.value.id in modules
            ):
                builds.append((file, node.lineno))
    return [f"{file} line {line}" for file, line in sorted(builds)]


def test_array_scan_flags_only_array_module_calls():
    sources = {
        "a.py": (
            "from array import array\n"
            "import numpy as np\n"
            "rows = array('h')\n"
            "np.array(rows)\n"
            "def f(rows: array) -> array:\n"
            "    return array(rows.typecode, rows)\n"
        ),
        "b.py": "import array as packed\nfrom numpy import array\npacked.array('i')\narray([1])\n",
    }
    assert array_builds(sources) == ["a.py line 3", "a.py line 6", "b.py line 3"]


def test_only_search_builds_packed_arrays():
    builds = array_builds({path.name: path.read_text() for path in PACKAGE})
    assert any(build.startswith("search.py ") for build in builds)
    assert [build for build in builds if not build.startswith("search.py ")] == []


def benchmark_names(sources: dict[str, str]) -> list[str]:
    """Every ``fm.<name>`` read in ``sources``, file name -> text, dunders aside."""
    names = set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "fm" and not node.attr.startswith("__")):
                names.add(node.attr)
    return sorted(names)


def test_benchmark_scan_finds_only_attributes_of_fm():
    source = "fm = load()\nfm.Engine(fm.emt.x).run()\nprint(fm.__file__, other.neh)\n"
    assert benchmark_names({"a.py": source}) == ["Engine", "emt"]


def test_benchmark_names_exist():
    import flowmt
    import flowmt.cli

    sources = {path.name: path.read_text() for path in (ROOT / "perfbench").glob("*.py")}
    names = benchmark_names(sources)
    assert {"Engine", "build_eat", "distance_sweep", "emt"} <= set(names)
    assert [name for name in names if not hasattr(flowmt, name)] == []
    assert callable(flowmt.cli.main)
    assert "run" in flowmt.emt.Engine.__dict__  # the campaign workload wraps it


def unencoded_text_io(sources: dict[str, str]) -> list[str]:
    """Each text-mode ``open`` and each ``read_text`` or ``write_text`` call in
    ``sources``, file name -> text, that passes no ``encoding=``, in file and
    line order. The mode is the second argument of the builtin ``open`` and the
    first of a ``.open`` method (``Path.open``); a mode that is not a literal
    counts as text."""
    calls = []
    for file, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in ("read_text", "write_text"):
                text = True
            elif (isinstance(func, ast.Name) and func.id == "open") or (
                isinstance(func, ast.Attribute) and func.attr == "open"
            ):
                at = 1 if isinstance(func, ast.Name) else 0
                modes = [kw.value for kw in node.keywords if kw.arg == "mode"]
                mode = node.args[at] if len(node.args) > at else (modes[0] if modes else None)
                text = not (isinstance(mode, ast.Constant) and "b" in str(mode.value))
            else:
                continue
            if text and not any(kw.arg == "encoding" for kw in node.keywords):
                calls.append((file, node.lineno))
    return [f"{file} line {line}" for file, line in sorted(calls)]


def test_encoding_scan_flags_only_text_io_without_encoding():
    sources = {
        "a.py": (
            "open(p)\n"
            "open(p, 'rb')\n"
            "open(p, mode='w', encoding='utf-8')\n"
            "open(p, 'a', newline='')\n"
            "path.read_text()\n"
            "path.write_text(t, encoding='utf-8')\n"
            "path.read_bytes()\n"
        ),
        "b.py": "path.open('r+b')\npath.open()\nopen(p, mode)\n",
    }
    assert unencoded_text_io(sources) == [
        "a.py line 1", "a.py line 4", "a.py line 5", "b.py line 2", "b.py line 3",
    ]


def test_package_text_io_names_its_encoding():
    assert unencoded_text_io({path.name: path.read_text() for path in PACKAGE}) == []


def test_package_import_leaves_the_process_pool_unloaded():
    code = (
        "import sys, numpy, flowmt\n"
        "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"
