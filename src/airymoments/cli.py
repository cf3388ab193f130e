"""Command-line front end: computes tables, runs the verifier, and
emits text, JSON, CSV or LaTeX, with optional JSON result caching.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import re
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

from . import __version__
from .asymptotics import gamma, mid_basis
from .connection import SPACES, gm_cokernel_basis, h1_a1_basis
from .errors import (
    DomainError,
    InconsistencyError,
    SizeLimitError,
    StabilityError,
)
from .exact import format_rational, format_terms
from .hodge import format_thirds, hodge_numbers, tilde_mid_hodge, verify
from .moments import cyclotomic, exponent_bound, formal_decomposition
from .moments import h1_dims, s_nk_visits

USAGE_EXIT = 64
CACHE_ENV = "AIRYMOMENTS_CACHE_DIR"
#: Largest accepted ``--series-terms``: the exact coefficients grow so
#: fast that a table of this length takes about 1.5 s at any k (2-vCPU
#: VM), and the integer power recurrence is quadratic in the length.
MAX_SERIES_TERMS = 400
#: Largest accepted k: every table grows with k, and several commands
#: never return at a huge one.  It also bounds a range's length.
MAX_K = 10_000
#: Largest accepted k for ``basis --space mid``: the table there takes
#: about 0.7 s at k = 4000 and 7 s at 8000 (2-vCPU VM), and from about
#: k = 8200 on a coefficient has more digits than Python prints.
MAX_MID_K = 4_000
#: Longest accepted k literal, checked before ``int()``, which refuses
#: literals from 4300 digits on.
MAX_K_DIGITS = 100
#: The output formats, in the order ``--format`` lists them.
FORMATS = ("text", "json", "csv", "latex")


@dataclass(frozen=True)
class RunConfig:
    """One fully-resolved CLI invocation.  Its defaults are the only
    ones: the parser leaves out every option not given."""

    command: str
    k_values: tuple[int, ...]
    n: int = 2
    format: str = "text"
    cache_dir: str | None = None
    series_terms: int = 30
    space: str = "a1"
    twist: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "twist", Fraction(self.twist))


class _UsageError(Exception):
    pass


def parse_k_range(text: str, parity: str | None = None) -> tuple[int, ...]:
    """Parse "7" or "2..20" (inclusive), optionally filtered by parity.

    Literals longer than MAX_K_DIGITS digits and values above MAX_K
    raise SizeLimitError."""
    match = re.fullmatch(r"(\d+)(?:\.\.(\d+))?", text)
    if not match:
        raise _UsageError(f"malformed k range {text!r} (use K or A..B)")
    literals = [g for g in match.groups() if g is not None]
    if any(len(literal) > MAX_K_DIGITS for literal in literals):
        raise SizeLimitError(f"k literal longer than {MAX_K_DIGITS} digits")
    low, high = int(literals[0]), int(literals[-1])
    if high > MAX_K:
        raise SizeLimitError(f"k = {high} is above the cap {MAX_K}")
    if low > high:
        raise _UsageError(f"empty k range {text!r}")
    values = range(low, high + 1)
    if parity == "odd":
        values = [k for k in values if k % 2]
    elif parity == "even":
        values = [k for k in values if k % 2 == 0]
    if not values:
        raise _UsageError(f"k range {text!r} is empty after the parity filter")
    return tuple(values)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parse tree, built on the first call and then reused by every
    ``main`` call in the process.  Every option is suppressed when not
    given, so a parse leaves nothing behind for the next one."""
    parser = _Parser(
        prog="airymoments",
        description=(
            "Exact cohomology dimensions, bases, asymptotic coefficients "
            "and Hodge-number tables for symmetric powers of Airy-type "
            "connections."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        cmd = sub.add_parser(
            name, help=command.help, argument_default=argparse.SUPPRESS
        )
        cmd.add_argument("--k", required=True, help="value K or range A..B")
        cmd.add_argument("--format", choices=FORMATS)
        cmd.add_argument("--parity", choices=("odd", "even"))
        cmd.add_argument("--cache-dir")
        for flag in command.options:
            cmd.add_argument(flag, **OPTIONS[flag])
    return parser


def config_from_args(args) -> RunConfig:
    settings = dict(vars(args))
    k_values = parse_k_range(settings.pop("k"), settings.pop("parity", None))
    settings["cache_dir"] = (
        settings.get("cache_dir") or os.environ.get(CACHE_ENV)
    )
    return RunConfig(k_values=k_values, **settings)


class Command(NamedTuple):
    """One entry of ``COMMANDS``.  The handler maps a RunConfig to
    (exit code, document), the finished text of its format.  It looks
    library functions up in this module when called, so tests can
    replace them.  ``limits`` maps a RunConfig to (the cost of one k,
    the cap on one k's cost, the cap on a range's summed cost): ``run``
    refuses a config past either cap before the handler runs."""

    help: str
    options: tuple[str, ...]
    handler: Callable[[RunConfig], tuple[int, str]]
    limits: Callable[[RunConfig], tuple[Callable[[int], int], int, int]]


def _each_k(headers, one_k):
    """Handler from a per-k one, which maps (config, k) to the JSON
    object when the format is ``json`` and to rows otherwise.  Each k's
    payload goes to the format's encoder as soon as it is computed, so
    only the encoded text outlives its k."""

    def compute(config: RunConfig):
        payloads = (one_k(config, k) for k in config.k_values)
        return 0, _ENCODERS[config.format](headers, payloads)

    return compute


def _dims(config: RunConfig, k: int):
    dims = h1_dims(config.n, k)
    if config.format != "json":
        return [[str(k), str(dims.all), str(dims.mid)]]
    obj = {"all": dims.all, "mid": dims.mid}
    if len(config.k_values) > 1:
        obj = {"k": k, **obj}
    return obj


def _element_json(element) -> dict:
    return {
        label: [format_rational(c) for c in poly.coefficients()]
        for label, poly in element.coordinates
    }


def _basis(config: RunConfig, k: int):
    if config.space == "gm":
        basis = gm_cokernel_basis(k, config.twist)
    elif config.twist:
        raise DomainError(
            "the half twist only applies to the punctured-line basis"
        )
    elif config.space == "a1":
        basis = h1_a1_basis(k)
    else:
        basis = mid_basis(k)
    levels = (
        None
        if basis.g_levels is None
        else [format_rational(level) for level in basis.g_levels]
    )
    if config.format != "json":
        return [
            [str(k), str(pos + 1), str(element), levels[pos] if levels else ""]
            for pos, element in enumerate(basis.classes)
        ]
    return {
        "k": k,
        "space": basis.space,
        "twist": format_rational(basis.twist),
        "classes": [_element_json(c) for c in basis.classes],
        "g_levels": levels,
    }


def _gamma(config: RunConfig, k: int):
    table = gamma(k, config.series_terms)
    if config.format != "json":
        return [
            [str(k), format_rational(table.offset + 3 * j), format_rational(value)]
            for j, value in enumerate(table.coefficients)
        ]
    return {
        "k": k,
        "offset": format_rational(table.offset),
        "values": [format_rational(v) for v in table.coefficients],
    }


def _table_payload(config: RunConfig, table, k: int):
    if config.format != "json":
        return [
            [str(k), format_thirds(p), format_thirds(q), str(h)]
            for p, q, h in table.thirds
        ]
    return {
        "k": k,
        "family": table.family,
        "weight": table.weight,
        "entries": [
            {"p": format_thirds(p), "q": format_thirds(q), "h": h}
            for p, q, h in table.thirds
        ],
    }


def _decomp(config: RunConfig, k: int):
    decomposition = formal_decomposition(config.n, k)
    if config.format == "json":
        return {
            "n": config.n,
            "k": k,
            "regular_rank": decomposition.regular_rank,
            "exponents": [
                {
                    "coefficients": [format_rational(c) for c in coeffs],
                    "multiplicity": mult,
                }
                for coeffs, mult in decomposition.entries
            ],
        }
    rows = []
    if decomposition.regular_rank:
        rows.append(
            [str(config.n), str(k), "0", str(decomposition.regular_rank)]
        )
    for coeffs, mult in decomposition.entries:
        rows.append(
            [
                str(config.n),
                str(k),
                format_terms(tuple(enumerate(coeffs)), "x"),
                str(mult),
            ]
        )
    return rows


#: Columns of ``verify``'s CSV and LaTeX forms, one row per check.
_VERIFY_HEADERS = ("k", "check", "passed", "expected", "got")


def _verify_lines(k: int, report) -> str:
    """A line per failed check of ``k``, or one line if all passed."""
    if report.passed:
        return f"k={k}: {len(report.results)} checks passed\n"
    return "".join(
        f"k={k} {r.check}: FAILED (expected {r.expected}, got {r.got})\n"
        for r in report.failures()
    )


def _verify(config: RunConfig):
    """The verifier one k at a time, with exit code 2 when a check
    fails.  CSV and LaTeX list every check as its k comes; the text
    report has the lines of each k, then a summary; JSON is a summary.
    Across k only the failures and the count of checks are kept."""
    failures = []
    checks = 0

    def each_k():
        nonlocal checks
        for k in config.k_values:
            report = verify((k,))
            checks += len(report.results)
            failures.extend(report.failures())
            yield k, report

    if config.format == "text":
        lines = "".join(_verify_lines(k, report) for k, report in each_k())
        summary = (
            f"{len(failures)} of {checks} checks failed"
            if failures
            else "all passed"
        )
        document = lines + summary + "\n"
    elif config.format == "json":
        for _ in each_k():
            pass
        summary = {
            "k": list(config.k_values),
            "passed": not failures,
            "checks": checks,
            "failures": [
                {"k": r.k, "check": r.check, "expected": r.expected, "got": r.got}
                for r in failures
            ],
        }
        document = json.dumps(summary, separators=(",", ":")) + "\n"
    else:
        rows = (
            [
                [str(r.k), r.check, "yes" if r.passed else "NO", r.expected, r.got]
                for r in report.results
            ]
            for _, report in each_k()
        )
        document = _ENCODERS[config.format](_VERIFY_HEADERS, rows)
    return (2 if failures else 0), document


#: ``add_argument`` keywords of every option beyond the shared ones.
#: None has a parser default (see RunConfig).
OPTIONS = {
    "--n": {"type": int},
    "--space": {"choices": SPACES},
    "--rho": {"dest": "twist", "choices": ("0", "1/2")},
    "--series-terms": {"type": int},
}


def _linear(k: int) -> int:
    """The cost of one k of a command whose time grows as k."""
    return k


def _decomp_cost(n: int, k: int) -> int:
    """One ``decomp`` k: visits, and four per exponent and coefficient."""
    visits, exponents = exponent_bound(n, k)
    return visits + 4 * (cyclotomic(n).degree + 1) * exponents


# Each range cap is set so that the widest range it accepts takes about
# 2 s (2-vCPU VM); the times beside each are from there.  verify, tilde
# and decomp have since become faster, so their caps leave headroom.
COMMANDS = {
    "dims": Command(
        "closed-form cohomology dimensions (all and middle)",
        ("--n",),
        _each_k(("k", "all", "mid"), _dims),
        # The sums s_nk visits, none at prime n, times their width, the
        # degree phi(n) of the n-th cyclotomic: --n 8 --k 60 (1.27M
        # visits, phi 4) takes 1.3 to 2.6 s and --k 80 (3.86M) 6.6 to
        # 9.0 s, and --n 8 --k 2..34 (1.15M) 1.2 s, where --n 8 --k
        # 2..60 took 26 s uncapped.  Visits alone undercount high
        # orders: --n 100 --k 4 (632k visits, phi 40) took 2.5 s.  At
        # phi 2 the widest accepted k, --n 4 --k 1610, takes 2.2 s.
        # s_nk_visits goes first: it refuses an order above the cap
        # before any cyclotomic is built.
        limits=lambda config: (
            lambda k: s_nk_visits(config.n, k) * cyclotomic(config.n).degree,
            4 * 1_300_000,
            4 * 1_300_000,
        ),
    ),
    "basis": Command(
        "cohomology basis classes",
        ("--space", "--rho"),
        _each_k(("k", "index", "class", "level"), _basis),
        limits=lambda config: {
            # Σ 1..600: --k 2..600 takes 1.2 to 1.9 s in any format but
            # json, whose dense coefficient lists take about 26 s there.
            # Uncapped, --k 2..10000 had not returned after 150 s.
            "a1": (_linear, MAX_K, 180_300),
            "mid": (_linear, MAX_MID_K, 180_300),
            # An odd k takes about 40 us * k, an even k, which inserts
            # kernel rows, 4 us * k^2: --k 2..140, 2..144 --parity even
            # and 1..417 --parity odd take 1.5 to 2.8 s.  A k the library
            # accepts costs at most 512^2, so it refuses one k itself, up
            # to the even k = 726 whose cost alone passes the cap.
            "gm": (lambda k: 12 * k if k % 2 else k * k, 527_000, 527_000),
        }[config.space],
    ),
    "gamma": Command(
        "asymptotic correction coefficients",
        ("--series-terms",),
        _each_k(("k", "exponent", "value"), _gamma),
        # One table's time does not depend on k but grows about as the
        # cube of its length: --k 2..10000 --parity even at 30 terms and
        # two k at 400 terms take 1.8 to 2.6 s, where ten k at 400 terms
        # took 8.4 to 11.1 s.
        limits=lambda config: (
            lambda k: config.series_terms**3, MAX_SERIES_TERMS**3, 150_000_000
        ),
    ),
    "hodge": Command(
        "Hodge-number table",
        (),
        _each_k(
            ("k", "p", "q", "h"),
            lambda config, k: _table_payload(config, hodge_numbers(k)[0], k),
        ),
        # Σ 1..1500: --k 2..1500 takes 1.2 to 2.4 s, where --k 2..10000
        # took 65 s and 1.4 GB uncapped.
        limits=lambda config: (_linear, MAX_K, 1_125_750),
    ),
    "tilde": Command(
        "graded table of the extended family (even k >= 4)",
        (),
        _each_k(
            ("k", "p", "q", "h"),
            lambda config, k: _table_payload(config, tilde_mid_hodge(k), k),
        ),
        # The even k up to 1000: --k 4..1000 --parity even takes 0.5 to
        # 0.8 s, where --k 4..10000 --parity even took 100 s and 1.6 GB.
        limits=lambda config: (_linear, MAX_K, 250_500),
    ),
    "decomp": Command(
        "formal exponents at infinity",
        ("--n",),
        _each_k(("n", "k", "exponent", "multiplicity"), _decomp),
        # Its time follows its output more than its visits, so both
        # count (see _decomp_cost): --n 4 --k 188 takes 1.6 to 1.8 s,
        # --n 2 --k 2..665 1.0 to 1.3 s, --n 5 --k 36, --n 7 --k 15 and
        # --n 8 --k 17 0.6 to 1.1 s and --n 3 --k 370 0.5 to 0.8 s;
        # --n 8 --k 29 took 25.5 s.
        limits=lambda config: (
            lambda k: _decomp_cost(config.n, k), 2_000_000, 2_000_000
        ),
    ),
    "verify": Command(
        "internal consistency checks",
        (),
        _verify,
        # Σ 1..1000: --k 2..1000 takes 0.9 s, where --k 2..2000 took
        # 7.8 s and --k 2..10000 about 349 s.
        limits=lambda config: (_linear, MAX_K, 500_500),
    ),
}


# The encoders: each maps (headers, the payloads of every k in order) to
# the finished document.  A payload is encoded as soon as it arrives, so
# only its text is held past its k.


def _encode_text(headers, tables) -> str:
    """Columns padded two spaces apart.  Each k's rows are held as one
    tab-separated string until the last k has set the widths."""
    widths = list(map(len, headers))
    held = ["\t".join(headers)]
    for rows in tables:
        if rows:
            widths = [
                max(width, *map(len, column))
                for width, column in zip(widths, zip(*rows))
            ]
            held.append("\n".join(map("\t".join, rows)))
    for pos, chunk in enumerate(held):
        held[pos] = "".join(
            "  ".join(map(str.ljust, line.split("\t"), widths)).rstrip() + "\n"
            for line in chunk.split("\n")
        )
    return "".join(held)


def _csv_lines(rows) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def _encode_csv(headers, tables) -> str:
    return "".join([_csv_lines([headers]), *map(_csv_lines, tables)])


def _encode_latex(headers, tables) -> str:
    held = [
        "\\begin{tabular}{" + "l" * len(headers) + "}\n",
        " & ".join(headers) + " \\\\\n\\hline\n",
    ]
    for rows in tables:
        held.append("".join(" & ".join(row) + " \\\\\n" for row in rows))
    held.append("\\end{tabular}\n")
    return "".join(held)


def _encode_json(headers, objects) -> str:
    """A bare object for one k, else a list of them."""
    held = [json.dumps(obj, separators=(",", ":")) for obj in objects]
    if len(held) > 1:
        held[0] = "[" + held[0]
        held[-1] += "]"
    held[-1] += "\n"
    return ",".join(held)


_ENCODERS = {
    "text": _encode_text,
    "json": _encode_json,
    "csv": _encode_csv,
    "latex": _encode_latex,
}


def cache_key(config: RunConfig) -> str:
    """SHA-256 of every resolved setting except the cache directory,
    plus the package version: two runs share a cache entry only if
    they ask for the same answer from the same code."""
    import hashlib  # imported here: only cached runs pay for it at start-up

    settings = asdict(config)
    del settings["cache_dir"]
    settings["twist"] = format_rational(config.twist)
    settings["version"] = __version__
    canonical = json.dumps(settings, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _cache_path(config: RunConfig) -> str | None:
    if config.format != "json" or not config.cache_dir:
        return None
    name = f"{config.command}_{cache_key(config)}.json"
    return os.path.join(config.cache_dir, name)


def _write_atomically(path: str, document: str) -> None:
    """Write to a temporary file beside ``path``, then rename it into
    place, so a reader never sees a partial entry."""
    import tempfile  # imported here: only cached runs pay for it at start-up

    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    handle, temporary = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as out:
            out.write(document)
        os.replace(temporary, path)
    except BaseException:
        os.unlink(temporary)
        raise


def run(config: RunConfig) -> tuple[int, str]:
    """Execute one command; returns (exit code, emitted document).

    The document is whole before ``main`` prints any of it, so a range
    that fails at any k prints nothing and leaves no cache entry."""
    command = COMMANDS.get(config.command)
    if command is None:
        raise DomainError(f"unknown command {config.command!r}")
    if not config.k_values:
        raise DomainError("empty k range")
    if config.format not in FORMATS:
        raise DomainError(f"unknown format {config.format!r}")
    if config.space not in SPACES:
        raise DomainError(f"unknown cohomology space {config.space!r}")
    top = max(config.k_values)
    if top > MAX_K:
        raise SizeLimitError(f"k = {top} is above the cap {MAX_K}")
    if config.series_terms < 1:
        raise DomainError("series terms must be positive")
    cost, one_k_cap, range_cap = command.limits(config)
    costs = [cost(k) for k in config.k_values]
    if max(costs) > one_k_cap:
        raise SizeLimitError(
            f"a {config.command} k costs {max(costs)}, above the cap "
            f"{one_k_cap} on one k"
        )
    if sum(costs) > range_cap:
        raise SizeLimitError(
            f"the k of this {config.command} range cost {sum(costs)}, "
            f"above the cap {range_cap} on a range"
        )
    cache_path = _cache_path(config)
    cached = cache_path and os.path.exists(cache_path)
    if not cached:
        exit_code, document = command.handler(config)
    try:
        if cached:
            with open(cache_path, "r", encoding="utf-8") as handle:
                return 0, handle.read()
        if cache_path and exit_code == 0:
            _write_atomically(cache_path, document)
    except OSError as exc:
        # A file where the cache directory should be, or a directory at
        # the entry, is a bad --cache-dir, not a fault of the program.
        raise DomainError(
            f"cannot use the cache {config.cache_dir}: {exc}"
        ) from exc
    return exit_code, document


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    try:
        exit_code, document = run(config_from_args(args))
    except _UsageError as exc:
        print(f"airymoments: error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (DomainError, StabilityError) as exc:
        print(f"airymoments: error: {exc}", file=sys.stderr)
        return 1
    except InconsistencyError as exc:
        print(f"airymoments: internal inconsistency: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(document)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
