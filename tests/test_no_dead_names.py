"""No function, method or class under ``src/repro`` may be defined and never used.

Every name a ``def`` or ``class`` statement in ``src/repro/**/*.py`` binds
(dunder names aside) must occur as a whole word at least twice across the
``.py`` files of ``src/``, ``tests/``, ``benchmarks/`` and ``examples/``:
once for the definition and at least once for a use.  A name that occurs
only once is code nothing reaches, and it fails this test.  There is no
allowlist: delete the name, or use it.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED_DIRS = ("src", "tests", "benchmarks", "examples")
WORD = re.compile(r"\b[A-Za-z_][A-Za-z0-9_]*\b")


def _defined_names() -> dict[str, str]:
    """Each defined name -> ``path:line`` of (one of) its definitions."""
    defined: dict[str, str] = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("__"):
                    where = f"{path.relative_to(ROOT)}:{node.lineno}"
                    defined.setdefault(node.name, where)
    return defined


def _word_counts() -> Counter:
    counts: Counter = Counter()
    for directory in SCANNED_DIRS:
        for path in (ROOT / directory).rglob("*.py"):
            counts.update(WORD.findall(path.read_text()))
    return counts


def test_every_defined_name_is_referenced():
    counts = _word_counts()
    dead = sorted(
        f"{where} {name}"
        for name, where in _defined_names().items()
        if counts[name] < 2
    )
    assert not dead, "defined but never referenced:\n" + "\n".join(dead)
