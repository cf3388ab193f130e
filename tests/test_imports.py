"""Every module of the package uses each name it imports, and every
public function and class of the package is reached.

No linter runs on this package, so these scans with the standard
library's ``ast`` are the check: an imported name that no expression
reads and ``__all__`` does not export is reported with its line, and
so is a public module-level function or class, or a non-dunder method
of a public class, that nothing names outside its own definition, in
the package, the benchmark or the acceptance tests.  A private
module-level function or class must be named in the package or the
benchmark: a helper that only a test still calls is dead code.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "airymoments"
#: Where a private name must be reached from.
LIBRARY = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
#: Where a public name must be reached from.
CALLERS = LIBRARY + [ROOT / "tests" / "test_acceptance.py"]


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


def _names(node) -> set[str]:
    """Every name read, attribute taken or imported under ``node``."""
    out = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            out.add(child.id)
        elif isinstance(child, ast.Attribute):
            out.add(child.attr)
        elif isinstance(child, ast.alias):
            out.add(child.name.rpartition(".")[2])
    return out


def unreached_names(
    defining: str, callers: dict[str, str], private: bool = False
) -> list[str]:
    """Public (or, with ``private``, private) module-level functions and
    classes of ``defining`` (the name of one of ``callers``, which maps
    a name to its source) that no caller names outside their own
    definition."""
    reached = set()
    for name, source in callers.items():
        for node in ast.parse(source).body:
            found = _names(node)
            if name == defining and isinstance(
                node, (ast.FunctionDef, ast.ClassDef)
            ):
                found.discard(node.name)
            reached |= found
    return sorted(
        node.name
        for node in ast.parse(callers[defining]).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") == private
        and node.name not in reached
    )


def test_scan_reports_unreached_names():
    callers = {
        "lib": "def used():\n    pass\n\n"
        "def recursive(n):\n    return recursive(n - 1)\n\n"
        "class Orphan:\n    pass\n\n"
        "def _private():\n    pass\n",
        "app": "from lib import used\nused()\n",
    }
    assert unreached_names("lib", callers) == ["Orphan", "recursive"]


def test_scan_reports_unreached_private_names():
    callers = {
        "lib": "def _helper():\n    pass\n\n"
        "def _tested():\n    pass\n\n"
        "class _Kernel:\n    pass\n\n"
        "def _loop(n):\n    return _loop(n - 1)\n\n"
        "def public():\n    return _helper(), _Kernel()\n",
        "app": "from lib import public\npublic()\n",
    }
    assert unreached_names("lib", callers, private=True) == ["_loop", "_tested"]
    # The public scan leaves private names to this one.
    assert unreached_names("lib", callers) == []


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name
)
def test_every_public_name_is_reached(path):
    callers = {
        str(caller): caller.read_text(encoding="utf-8") for caller in CALLERS
    }
    assert unreached_names(str(path), callers) == []


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name
)
def test_every_private_name_is_reached(path):
    callers = {
        str(caller): caller.read_text(encoding="utf-8") for caller in LIBRARY
    }
    assert unreached_names(str(path), callers, private=True) == []


def unreached_methods(defining: str, callers: dict[str, str]) -> list[str]:
    """Non-dunder methods of the public classes of ``defining``, as
    ``Class.method``, that no caller names outside the method's own
    definition.  Coarse: any attribute or name spelt like the method
    reaches it."""
    tree = ast.parse(callers[defining])
    reached = set()
    for name, source in callers.items():
        if name != defining:
            reached |= _names(ast.parse(source))
    for node in tree.body:
        for member in node.body if isinstance(node, ast.ClassDef) else [node]:
            found = _names(member)
            if isinstance(member, ast.FunctionDef):
                found.discard(member.name)
            reached |= found
    return sorted(
        f"{node.name}.{member.name}"
        for node in tree.body
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
        for member in node.body
        if isinstance(member, ast.FunctionDef)
        and not (member.name.startswith("__") and member.name.endswith("__"))
        and member.name not in reached
    )


def test_scan_reports_unreached_methods():
    callers = {
        "lib": "class Shape:\n"
        "    def area(self):\n        return self.side()\n\n"
        "    def side(self):\n        return 1\n\n"
        "    def spin(self):\n        return self.spin()\n\n"
        "    def _hidden(self):\n        pass\n\n"
        "    def __len__(self):\n        return 0\n\n"
        "class _Private:\n    def lost(self):\n        pass\n",
        "app": "from lib import Shape\nShape().area()\n",
    }
    assert unreached_methods("lib", callers) == ["Shape._hidden", "Shape.spin"]


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name
)
def test_every_public_method_is_reached(path):
    callers = {
        str(caller): caller.read_text(encoding="utf-8") for caller in CALLERS
    }
    assert unreached_methods(str(path), callers) == []
