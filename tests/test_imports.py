"""Every module of the package uses each name it imports.

No linter runs on this package, so this scan with the standard
library's ``ast`` is the check: an imported name that no expression
reads and ``__all__`` does not export is reported with its line.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "airymoments"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [
        f"{name} (line {line})"
        for name, line in sorted(imported.items(), key=lambda item: item[1])
        if name not in used
    ]


def test_scan_reports_unused_names():
    source = "import math\nfrom os import path, sep\nprint(sep)\n"
    assert unused_imports(source) == ["math (line 1)", "path (line 2)"]
    exported = "from .errors import DomainError\n__all__ = ['DomainError']\n"
    assert unused_imports(exported) == []


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name
)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
