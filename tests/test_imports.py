"""Every module reads each name it imports.

A stale import, left behind when a helper moves to another module or a
constant loses its last reader, still runs, so no other test catches it.
The scan covers src/antwsn, tools, tests and demos. Package `__init__.py`
files re-export what they import, so they are skipped.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src/antwsn", "tools", "tests", "demos")


def unused_imports(source: str) -> list:
    """(line, name) of each name that `source` imports and never reads.

    `import a.b` binds `a`; a `__future__` import binds nothing."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [alias.asname or alias.name for alias in node.names if alias.name != "*"]
        else:
            continue
        for name in names:
            imported.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_the_check_finds_a_name_never_read():
    source = ("import os.path\nimport json as j\nfrom math import pi, tau as t\n"
              "from __future__ import annotations\n"
              "def f():\n    import sys\n    return os.path.join(j.dumps(pi))\n")
    assert unused_imports(source) == [(3, "t"), (6, "sys")]


def test_every_imported_name_is_read():
    stale = [f"{path.relative_to(ROOT)}:{line} {name}"
             for top in SCANNED
             for path in sorted((ROOT / top).rglob("*.py")) if path.name != "__init__.py"
             for line, name in unused_imports(path.read_text())]
    assert stale == []
