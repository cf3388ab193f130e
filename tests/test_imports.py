"""Every module of the package uses each name it imports, every public
function and class of the package is reached, and every function of
the package runs.

No linter runs on this package, so these scans with the standard
library's ``ast`` are the check: an imported name that no expression
reads and ``__all__`` does not export is reported with its line, and
so is a public module-level function, class or constant, or a
non-dunder method of a public class, that nothing names outside its own
definition, in the package, the benchmark or the acceptance tests.  A
private module-level function, class or constant must be named in the
package or the benchmark: a helper that only a test still calls is dead
code.  The test files get the same scan, with one another as callers:
a module-level helper or constant of a test file, public or private,
that no test file names is left over, but for the test functions and
fixtures that pytest finds by name.

Starting the CLI loads neither ``dataclasses`` nor ``inspect``: the
package defines no dataclass, as that import and the class bodies it
compiles cost every invocation about 15 ms of its set-up.

Every backticked ``module.NAME`` in the README or a package docstring
must name an attribute of that package module, so the docs name no
deleted constant.

A name scan cannot see a dunder method, nor a method whose name some
other class also uses, so the last guard runs the traffic the package
serves and lists each function or method, dunders and properties
included, that it never enters.  The traffic is every case of the
golden CLI corpus, one cached JSON call run twice (a miss, then a
hit), one usage error and the acceptance gate.  It runs in a fresh
interpreter, running this file as a script, because caches filled
earlier in a test session would hide entries.  A global trace function
records call events only: it returns None, so no line is traced.
Lambdas and comprehensions are left out, and so are aliases such as
``__radd__ = __add__``, which define no code of their own.
"""

from __future__ import annotations

import ast
import contextlib
import functools
import importlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from inspect import CO_NEWLOCALS
from pathlib import Path
from types import CodeType

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "airymoments"
#: Where a private name must be reached from.
LIBRARY = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
#: Where a public name must be reached from.
CALLERS = LIBRARY + [ROOT / "tests" / "test_acceptance.py"]
#: Where a test helper is defined and must be reached from.
TESTS = sorted((ROOT / "tests").glob("*.py"))


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


def _defined(node) -> set[str]:
    """Names a module-level statement defines: a function, a class, or
    the plain names an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return set()
    return {target.id for target in targets if isinstance(target, ast.Name)}


@functools.cache
def _statements(source: str) -> tuple[tuple[set[str], set[str]], ...]:
    """(names read, names defined) of each module-level statement of
    ``source``, parsed once however many scans read it."""
    return tuple(
        (_names(node), _defined(node)) for node in ast.parse(source).body
    )


def unreached_names(
    defining: str, callers: dict[str, str], private: bool = False
) -> list[str]:
    """Public (or, with ``private``, private) module-level functions,
    classes and constants of ``defining`` (the name of one of
    ``callers``, which maps a name to its source) that no caller names
    outside their own definition.  Dunders such as ``__all__`` are
    neither."""
    reached = set()
    for name, source in callers.items():
        for found, defined in _statements(source):
            reached |= found - defined if name == defining else found
    return sorted(
        name
        for _, defined in _statements(callers[defining])
        for name in defined
        if name.startswith("_") == private
        and not name.startswith("__")
        and name not in reached
    )


def test_scan_reports_unreached_names():
    callers = {
        "lib": "def used():\n    pass\n\n"
        "def recursive(n):\n    return recursive(n - 1)\n\n"
        "class Orphan:\n    pass\n\n"
        "def _private():\n    pass\n\n"
        "LIMIT = 3\nLONELY: int = 4\nDOUBLED = LIMIT * 2\n"
        "__all__ = []\n",
        "app": "from lib import used, DOUBLED\nused(DOUBLED)\n",
    }
    assert unreached_names("lib", callers) == [
        "LONELY", "Orphan", "recursive"
    ]


def test_scan_reports_unreached_private_names():
    callers = {
        "lib": "def _helper():\n    pass\n\n"
        "def _tested():\n    pass\n\n"
        "class _Kernel:\n    pass\n\n"
        "def _loop(n):\n    return _loop(n - 1)\n\n"
        "_TABLE = {}\n_SPARE = ()\n"
        "def public():\n    return _helper(), _Kernel(), _TABLE\n",
        "app": "from lib import public\npublic()\n",
    }
    assert unreached_names("lib", callers, private=True) == [
        "_SPARE", "_loop", "_tested"
    ]
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


def unreached_test_helpers(defining: str, callers: dict[str, str]) -> list[str]:
    """Module-level functions, classes and constants of the test file
    ``defining``, public or private, that no caller names outside their
    own definition; test functions and fixtures are left out."""
    fixtures = {
        node.name
        for node in ast.parse(callers[defining]).body
        if isinstance(node, ast.FunctionDef)
        and any("fixture" in _names(d) for d in node.decorator_list)
    }
    return sorted(
        name
        for private in (False, True)
        for name in unreached_names(defining, callers, private)
        if not name.startswith("test_") and name not in fixtures
    )


def test_scan_reports_unreached_test_helpers():
    callers = {
        "test_lib": "import pytest\n\n"
        "BUDGET = 1\nSPARE = 2\n_LEFT = 3\n\n"
        "def _helper():\n    return BUDGET\n\n"
        "def _orphan():\n    pass\n\n"
        "@pytest.fixture\ndef cache():\n    return {}\n\n"
        "def test_uses(cache):\n    assert _helper()\n",
        "test_other": "from test_lib import _LEFT\n",
    }
    assert unreached_test_helpers("test_lib", callers) == ["SPARE", "_orphan"]


@pytest.mark.parametrize("path", TESTS, ids=lambda path: path.name)
def test_every_test_helper_is_reached(path):
    callers = {
        str(caller): caller.read_text(encoding="utf-8") for caller in TESTS
    }
    assert unreached_test_helpers(str(path), callers) == []


def test_cli_starts_without_dataclasses():
    # -S keeps the environment's site hooks, such as a .pth file that
    # imports its own modules, out of the count.
    probe = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "from airymoments import cli\n"
        "cli.build_parser()\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    run = subprocess.run(
        [sys.executable, "-I", "-S", "-c", probe],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


def dotted_doc_names(text: str, modules: set[str]) -> list[tuple[str, str]]:
    """(module, NAME) of every ``module.NAME`` that opens a backticked
    span of ``text``, in order, for the module names in ``modules``."""
    return [
        (module, name)
        for module, name in re.findall(r"`(\w+)\.(\w+)", text)
        if module in modules
    ]


def test_scan_reports_dotted_doc_names():
    text = (
        "See `cli.run`, ``hodge.verify``, `cli.LIMITS['x']`, "
        "`airymoments.cli`, `fractions.Fraction` and cli.main."
    )
    assert dotted_doc_names(text, {"cli", "hodge"}) == [
        ("cli", "run"), ("hodge", "verify"), ("cli", "LIMITS")
    ]


def test_every_dotted_doc_name_resolves():
    modules = {
        path.stem for path in PACKAGE.glob("*.py") if path.stem[0] != "_"
    }
    texts = [(ROOT / "README.md").read_text(encoding="utf-8")]
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        texts.extend(
            ast.get_docstring(node) or ""
            for node in ast.walk(tree)
            if isinstance(
                node,
                (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
            )
        )
    names = [pair for text in texts for pair in dotted_doc_names(text, modules)]
    assert names
    missing = [
        f"{module}.{name}"
        for module, name in names
        if not hasattr(importlib.import_module(f"airymoments.{module}"), name)
    ]
    assert missing == []


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


def functions(source: str, filename: str) -> dict[int, str]:
    """Every function and method that ``source`` defines, keyed by the
    first line of its code object (a decorated function's first
    decorator), with its qualified name.  Lambdas, comprehensions and
    class bodies are left out, and aliases define no code object."""
    out = {}
    stack = [compile(source, filename, "exec")]
    while stack:
        for code in stack.pop().co_consts:
            if not isinstance(code, CodeType):
                continue
            stack.append(code)
            if code.co_flags & CO_NEWLOCALS and code.co_name[0] != "<":
                out[code.co_firstlineno] = code.co_qualname
    return out


def test_functions_lists_what_a_trace_can_enter():
    source = (
        "class Shape:\n"
        "    @property\n"
        "    def side(self):\n        return 1\n\n"
        "    def __len__(self):\n        return [n for n in ()]\n\n"
        "    size = __len__\n\n"
        "def outer():\n"
        "    key = lambda n: n\n"
        "    def inner():\n        pass\n"
        "    return inner\n"
    )
    assert functions(source, "lib.py") == {
        2: "Shape.side",
        6: "Shape.__len__",
        11: "outer",
        13: "outer.<locals>.inner",
    }


def entered_by_the_traffic() -> set[tuple[str, int]]:
    """(file, first line) of every code object the traffic enters.
    Traced from before the package is imported, so calls made while
    it loads count too; exits if the acceptance gate fails."""
    entered = set()
    package = str(PACKAGE)

    def trace(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(package):
            entered.add((code.co_filename, code.co_firstlineno))

    sys.settrace(trace)
    try:
        from test_golden_cli import CASES, run_case

        from airymoments import cli

        os.environ.pop(cli.CACHE_ENV, None)
        for case in CASES:
            run_case(case)
        cached = ["hodge", "--k", "2..5", "--format", "json", "--cache-dir"]
        with tempfile.TemporaryDirectory() as cache:
            with contextlib.redirect_stdout(io.StringIO()):
                for _ in range(2):  # a miss, then a hit
                    cli.main(cached + [cache])
        run_case("dims")  # a usage error: no --k
        acceptance = ROOT / "tests" / "test_acceptance.py"
        gate = pytest.main(["-q", "-p", "no:cacheprovider", str(acceptance)])
    finally:
        sys.settrace(None)
    if gate != 0:
        sys.exit(f"the acceptance gate failed under the trace: exit {gate}")
    return entered


def test_every_function_is_entered_by_the_traffic():
    run = subprocess.run(
        [sys.executable, __file__],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stdout[-3000:] + run.stderr[-3000:]
    never = json.loads(run.stdout.splitlines()[-1])
    assert never == [], "never entered by the traffic:\n" + "\n".join(never)


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    entered = entered_by_the_traffic()
    never = [
        f"{path.name}:{line} {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, name in sorted(
            functions(path.read_text(encoding="utf-8"), str(path)).items()
        )
        if (str(path), line) not in entered
    ]
    print(json.dumps(never))
