"""Command-line front end: computes tables, runs the verifier, and
emits text, JSON, CSV or LaTeX, with optional JSON result caching.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
from dataclasses import asdict, dataclass, field
from fractions import Fraction

from . import __version__
from .asymptotics import gamma, mid_basis
from .connection import (
    DEFAULT_TRUNCATION_CEILING,
    gm_cokernel_basis,
    h1_a1_basis,
)
from .errors import (
    DomainError,
    InconsistencyError,
    SizeLimitError,
    StabilityError,
)
from .exact import Polynomial, format_rational
from .hodge import hodge_numbers, tilde_mid_hodge, verify
from .moments import DEFAULT_ENUMERATION_CAP, formal_decomposition, h1_dims

USAGE_EXIT = 64
CACHE_ENV = "AIRYMOMENTS_CACHE_DIR"
COMMANDS = ("dims", "basis", "gamma", "hodge", "tilde", "decomp", "verify")
#: Largest accepted ``--series-terms``: the exact coefficients grow so
#: fast that a table of this length already takes several seconds.
MAX_SERIES_TERMS = 400
#: Most k values one ``--k A..B`` range may hold.
MAX_K_VALUES = 10_000
#: Longest accepted k literal: far past any k a command can finish for,
#: and far below the 4300 digits at which ``int()`` refuses a literal.
MAX_K_DIGITS = 100


@dataclass(frozen=True)
class RunConfig:
    """One fully-resolved CLI invocation."""

    command: str
    k_values: tuple[int, ...]
    n: int = 2
    format: str = "text"
    cache_dir: str | None = None
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP
    truncation_ceiling: int = DEFAULT_TRUNCATION_CEILING
    series_terms: int = 30
    space: str = "a1"
    twist: Fraction = field(default_factory=lambda: Fraction(0))


class _UsageError(Exception):
    pass


def parse_k_range(text: str, parity: str | None = None) -> tuple[int, ...]:
    """Parse "7" or "2..20" (inclusive), optionally filtered by parity.

    Literals longer than MAX_K_DIGITS digits and ranges of more than
    MAX_K_VALUES values raise SizeLimitError."""
    match = re.fullmatch(r"(\d+)(?:\.\.(\d+))?", text)
    if not match:
        raise _UsageError(f"malformed k range {text!r} (use K or A..B)")
    literals = [g for g in match.groups() if g is not None]
    if any(len(literal) > MAX_K_DIGITS for literal in literals):
        raise SizeLimitError(f"k literal longer than {MAX_K_DIGITS} digits")
    low, high = int(literals[0]), int(literals[-1])
    if low > high:
        raise _UsageError(f"empty k range {text!r}")
    if high - low + 1 > MAX_K_VALUES:
        raise SizeLimitError(
            f"k range {text!r} holds {high - low + 1} values, above the "
            f"cap {MAX_K_VALUES}"
        )
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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="airymoments",
        description=(
            "Exact cohomology dimensions, bases, asymptotic coefficients "
            "and Hodge-number tables for symmetric powers of Airy-type "
            "connections."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "dims": "closed-form cohomology dimensions (all and middle)",
        "basis": "cohomology basis classes",
        "gamma": "asymptotic correction coefficients",
        "hodge": "Hodge-number table",
        "tilde": "graded table of the extended family (even k >= 4)",
        "decomp": "formal exponents at infinity",
        "verify": "internal consistency checks",
    }
    for name in COMMANDS:
        cmd = sub.add_parser(name, help=descriptions[name])
        cmd.add_argument("--k", required=True, help="value K or range A..B")
        cmd.add_argument(
            "--format",
            choices=("text", "json", "csv", "latex"),
            default="text",
        )
        cmd.add_argument("--parity", choices=("odd", "even"))
        cmd.add_argument("--cache-dir")
        if name in ("dims", "decomp"):
            cmd.add_argument("--n", type=int, default=2)
            cmd.add_argument(
                "--enumeration-cap", type=int, default=DEFAULT_ENUMERATION_CAP
            )
        if name == "basis":
            cmd.add_argument(
                "--space", choices=("a1", "gm", "mid"), default="a1"
            )
            cmd.add_argument("--rho", choices=("0", "1/2"), default="0")
            cmd.add_argument(
                "--truncation-ceiling",
                type=int,
                default=DEFAULT_TRUNCATION_CEILING,
            )
        if name == "gamma":
            cmd.add_argument("--series-terms", type=int, default=30)
    return parser


def config_from_args(args) -> RunConfig:
    k_values = parse_k_range(args.k, args.parity)
    return RunConfig(
        command=args.command,
        k_values=k_values,
        n=getattr(args, "n", 2),
        format=args.format,
        cache_dir=args.cache_dir or os.environ.get(CACHE_ENV),
        enumeration_cap=getattr(
            args, "enumeration_cap", DEFAULT_ENUMERATION_CAP
        ),
        truncation_ceiling=getattr(
            args, "truncation_ceiling", DEFAULT_TRUNCATION_CEILING
        ),
        series_terms=getattr(args, "series_terms", 30),
        space=getattr(args, "space", "a1"),
        twist=Fraction(getattr(args, "rho", "0")),
    )


def _element_json(element) -> dict:
    return {
        label: [format_rational(c) for c in poly.coefficients()]
        for label, poly in element.coordinates
    }


def _basis_payload(config: RunConfig, k: int):
    if config.space == "gm":
        basis = gm_cokernel_basis(
            k, config.twist, truncation_ceiling=config.truncation_ceiling
        )
    elif config.twist:
        raise DomainError(
            "the half twist only applies to the punctured-line basis"
        )
    elif config.space == "a1":
        basis = h1_a1_basis(k)
    else:
        basis = mid_basis(k)
    obj = {
        "k": k,
        "space": basis.space,
        "twist": format_rational(basis.twist),
        "classes": [_element_json(c) for c in basis.classes],
        "g_levels": (
            None
            if basis.g_levels is None
            else [format_rational(level) for level in basis.g_levels]
        ),
    }
    rows = []
    for pos, element in enumerate(basis.classes):
        level = (
            "" if basis.g_levels is None
            else format_rational(basis.g_levels[pos])
        )
        rows.append([str(k), str(pos + 1), str(element), level])
    return obj, rows


def _table_payload(table, k: int):
    obj = {
        "k": k,
        "family": table.family,
        "weight": table.weight,
        "entries": [
            {"p": format_rational(p), "q": format_rational(q), "h": h}
            for p, q, h in table.entries
        ],
    }
    rows = [
        [str(k), format_rational(p), format_rational(q), str(h)]
        for p, q, h in table.entries
    ]
    return obj, rows


def _dispatch(config: RunConfig):
    """Compute one command; returns (headers, rows, json_obj, exit_code,
    optional custom text)."""
    if config.enumeration_cap < 1 or config.truncation_ceiling < 1:
        raise DomainError("caps must be positive")
    if config.series_terms < 1:
        raise DomainError("series terms must be positive")
    if config.series_terms > MAX_SERIES_TERMS:
        raise SizeLimitError(
            f"{config.series_terms} series terms exceed the cap {MAX_SERIES_TERMS}"
        )
    custom_text = None
    exit_code = 0
    if config.command == "dims":
        headers = ["k", "all", "mid"]
        rows = []
        objs = []
        for k in config.k_values:
            dims = h1_dims(config.n, k, cap=config.enumeration_cap)
            rows.append([str(k), str(dims.all), str(dims.mid)])
            objs.append({"k": k, "all": dims.all, "mid": dims.mid})
        obj = (
            {"all": objs[0]["all"], "mid": objs[0]["mid"]}
            if len(objs) == 1
            else objs
        )
    elif config.command == "basis":
        headers = ["k", "index", "class", "level"]
        rows = []
        objs = []
        for k in config.k_values:
            payload, k_rows = _basis_payload(config, k)
            objs.append(payload)
            rows.extend(k_rows)
        obj = objs[0] if len(objs) == 1 else objs
    elif config.command == "gamma":
        headers = ["k", "exponent", "value"]
        rows = []
        objs = []
        for k in config.k_values:
            table = gamma(k, config.series_terms)
            objs.append(
                {
                    "k": k,
                    "offset": format_rational(table.offset),
                    "values": [format_rational(v) for v in table.values],
                }
            )
            for j, value in enumerate(table.values):
                rows.append(
                    [
                        str(k),
                        format_rational(table.offset + 3 * j),
                        format_rational(value),
                    ]
                )
        obj = objs[0] if len(objs) == 1 else objs
    elif config.command in ("hodge", "tilde"):
        headers = ["k", "p", "q", "h"]
        rows = []
        objs = []
        for k in config.k_values:
            table = (
                hodge_numbers(k)[0]
                if config.command == "hodge"
                else tilde_mid_hodge(k)
            )
            payload, k_rows = _table_payload(table, k)
            objs.append(payload)
            rows.extend(k_rows)
        obj = objs[0] if len(objs) == 1 else objs
    elif config.command == "decomp":
        headers = ["n", "k", "exponent", "multiplicity"]
        rows = []
        objs = []
        for k in config.k_values:
            decomposition = formal_decomposition(
                config.n, k, cap=config.enumeration_cap
            )
            objs.append(
                {
                    "n": config.n,
                    "k": k,
                    "regular_rank": decomposition.regular_rank,
                    "exponents": [
                        {
                            "coefficients": [
                                format_rational(c) for c in coeffs
                            ],
                            "multiplicity": mult,
                        }
                        for coeffs, mult in decomposition.entries
                    ],
                }
            )
            if decomposition.regular_rank:
                rows.append(
                    [
                        str(config.n),
                        str(k),
                        "0",
                        str(decomposition.regular_rank),
                    ]
                )
            for coeffs, mult in decomposition.entries:
                rows.append(
                    [
                        str(config.n),
                        str(k),
                        Polynomial.from_coefficients(coeffs).format("x"),
                        str(mult),
                    ]
                )
        obj = objs[0] if len(objs) == 1 else objs
    else:
        report = verify(config.k_values)
        headers = ["k", "check", "passed", "expected", "got"]
        rows = [
            [str(r.k), r.check, "yes" if r.passed else "NO", r.expected, r.got]
            for r in report.results
        ]
        failures = report.failures()
        obj = {
            "k": list(config.k_values),
            "passed": report.passed,
            "checks": len(report.results),
            "failures": [
                {
                    "k": r.k,
                    "check": r.check,
                    "expected": r.expected,
                    "got": r.got,
                }
                for r in failures
            ],
        }
        lines = []
        for k in sorted(set(config.k_values)):
            k_results = [r for r in report.results if r.k == k]
            bad = [r for r in k_results if not r.passed]
            if bad:
                for r in bad:
                    lines.append(
                        f"k={k} {r.check}: FAILED "
                        f"(expected {r.expected}, got {r.got})"
                    )
            else:
                lines.append(f"k={k}: {len(k_results)} checks passed")
        lines.append(
            "all passed"
            if report.passed
            else f"{len(failures)} of {len(report.results)} checks failed"
        )
        custom_text = "\n".join(lines) + "\n"
        if not report.passed:
            exit_code = 2
    return headers, rows, obj, exit_code, custom_text


def _format_text(headers, rows) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip()
    ]
    for row in rows:
        lines.append(
            "  ".join(
                cell.ljust(widths[i]) for i, cell in enumerate(row)
            ).rstrip()
        )
    return "\n".join(lines) + "\n"


def _format_csv(headers, rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)
    return buffer.getvalue()


def _format_latex(headers, rows) -> str:
    lines = [
        "\\begin{tabular}{" + "l" * len(headers) + "}",
        " & ".join(headers) + " \\\\",
        "\\hline",
    ]
    for row in rows:
        lines.append(" & ".join(row) + " \\\\")
    lines.append("\\end{tabular}")
    return "\n".join(lines) + "\n"


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
    """Execute one command; returns (exit code, emitted document)."""
    if config.command not in COMMANDS:
        raise DomainError(f"unknown command {config.command!r}")
    if not config.k_values:
        raise DomainError("empty k range")
    cache_path = _cache_path(config)
    if cache_path and os.path.exists(cache_path):
        with open(cache_path, "r", encoding="utf-8") as handle:
            return 0, handle.read()
    headers, rows, obj, exit_code, custom_text = _dispatch(config)
    if config.format == "json":
        document = json.dumps(obj, separators=(",", ":")) + "\n"
    elif config.format == "csv":
        document = _format_csv(headers, rows)
    elif config.format == "latex":
        document = _format_latex(headers, rows)
    else:
        document = custom_text or _format_text(headers, rows)
    if cache_path and exit_code == 0:
        _write_atomically(cache_path, document)
    return exit_code, document


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
