"""Plumbing shared by the benchmark scripts: importing flowmt from the
checkout's own sources, scratch directories inside the checkout, and the
timing loop."""

from __future__ import annotations

import importlib
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"


def require_sources() -> None:
    if not (SRC / "flowmt" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no flowmt sources at {SRC / 'flowmt'}; "
            "run from the root of a flowmt checkout"
        )


def import_flowmt(fresh: bool = False):
    """Import flowmt from ``src/`` of this checkout, never from elsewhere.

    With ``fresh`` every flowmt module is dropped from ``sys.modules`` first,
    so the import runs the package's module code again.
    """
    require_sources()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if fresh:
        for name in [n for n in sys.modules if n == "flowmt" or n.startswith("flowmt.")]:
            del sys.modules[name]
    fm = importlib.import_module("flowmt")
    if Path(fm.__file__).resolve().parent != (SRC / "flowmt").resolve():
        raise SystemExit(f"perfbench: imported flowmt from {fm.__file__}, not from {SRC}")
    return fm


def scratch_dir(prefix: str) -> Path:
    """A fresh directory under ``.perfbench_work/`` in the checkout."""
    WORK.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=WORK))


def repeat_for(fn, seconds: float, min_rounds: int = 1) -> list:
    """Call ``fn(i)`` in whole rounds until ``seconds`` have passed and at
    least ``min_rounds`` rounds are done; returns the rounds' results."""
    out = []
    start = time.perf_counter()
    while len(out) < min_rounds or time.perf_counter() - start < seconds:
        out.append(fn(len(out)))
    return out
