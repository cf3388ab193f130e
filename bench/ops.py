"""Execution of benchmark ops, shared by the measured pass and the golden
generator.

Every package function is reached through its module attribute
(``connection.build_symk``, ``cli.main``), so the wrappers the traced
pass installs on those attributes see each call.
"""

from __future__ import annotations

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout

from airymoments import asymptotics, cli, connection, errors, moments

from workloads import CACHE_DIR


class CheckFailed(Exception):
    """A cross-route check inside a library op disagreed."""


def bruteforce(n: int, k: int) -> str:
    """Brute-force H^1 over the affine line, checked against the closed
    form ``h1_dims(n, k).all``."""
    dim, degree = connection.h1_dim_bruteforce(connection.build_symk(n, k), "a1")
    closed = moments.h1_dims(n, k).all
    if dim != closed:
        raise CheckFailed(f"brute-force dimension {dim} != closed form {closed}")
    return f"{dim} {degree}\n"


def midreduce(k: int) -> str:
    """Build the a1 echelon, then reduce every middle-basis class to its
    coordinates: each must come back as a unit vector, and the pivot
    class ``omega_class(k/4)`` must be refused as outside the span."""
    module = connection.build_symk(2, k)
    connection.h1_dim_bruteforce(module, "a1")
    basis = asymptotics.mid_basis(k)
    lines = []
    for i, element in enumerate(basis.classes):
        coords = connection.reduce_to_basis(element, basis, module)
        if coords != tuple(int(j == i) for j in range(len(basis))):
            raise CheckFailed(f"class {i} reduced to {coords}, not a unit vector")
        lines.append(" ".join(str(c) for c in coords))
    try:
        connection.reduce_to_basis(connection.omega_class(k // 4), basis, module)
    except errors.InconsistencyError:
        lines.append("omega_class(k/4) is outside the middle span")
    else:
        raise CheckFailed("omega_class(k/4) reduced inside the middle span")
    return "\n".join(lines) + "\n"


def series(terms: int) -> str:
    """The product-route series, checked equal to the ODE oracle."""
    product = asymptotics.aibi_series(terms)
    oracle = asymptotics.aibi_series_ode_oracle(terms)
    if product != oracle:
        raise CheckFailed("product series differs from the ODE oracle")
    return "\n".join(str(c) for c in product.coefficients) + "\n"


LIBRARY = {"bruteforce": bruteforce, "midreduce": midreduce, "series": series}


def execute(op: dict, cache_dir: str | None) -> tuple[int, str]:
    """Run one op; returns (exit code, standard output).

    A CLI op runs ``cli.main`` in process with stdout and stderr
    captured.  ``cache_dir`` replaces the cache placeholder; with None
    the op runs uncached, which is how its golden output is made.
    """
    if op["kind"] != "cli":
        return 0, LIBRARY[op["kind"]](*op["args"])
    argv = list(op["argv"])
    if CACHE_DIR in argv:
        at = argv.index(CACHE_DIR)
        if cache_dir is None:
            del argv[at - 1 : at + 1]
        else:
            argv[at] = cache_dir
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def digest(code: int, text: str) -> str:
    return hashlib.sha256(f"{code}\n{text}".encode()).hexdigest()
