"""Wide CLI outputs pinned by one digest.

The golden corpus covers every command at small k; this digest covers
the long ranges whose strings carry every level, counter and pole
order of the verifier and the tables: ``verify --k 2..300`` in csv and
latex, ``hodge --k 2..400`` and ``tilde --k 4..400 --parity even`` in
all four formats, and ``decomp --n 2..8 --k 0..5`` in json.  The value
was recorded from the Fraction-valued tables, before levels were
carried as integer thirds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import time
from fractions import Fraction

from airymoments import cli
from airymoments.exact import format_rational
from airymoments.hodge import format_thirds

FORMATS = ("text", "json", "csv", "latex")
CASES = (
    [("verify", "--k", "2..300", "--format", fmt) for fmt in ("csv", "latex")]
    + [("hodge", "--k", "2..400", "--format", fmt) for fmt in FORMATS]
    + [
        ("tilde", "--k", "4..400", "--parity", "even", "--format", fmt)
        for fmt in FORMATS
    ]
    + [
        ("decomp", "--n", str(n), "--k", "0..5", "--format", "json")
        for n in range(2, 9)
    ]
)

PINNED_WIDE_DIGEST = (
    "b6df2e96c300f892291add01299c1d2857a25a7cbc03433f20f0269fa73121a9"
)


def test_wide_outputs_are_pinned(monkeypatch):
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    start = time.perf_counter()
    digest = hashlib.sha256()
    for argv in CASES:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        digest.update(repr((argv, code, out.getvalue())).encode())
    assert digest.hexdigest() == PINNED_WIDE_DIGEST
    # Budget: about 2 s on a 2-vCPU VM; the Fraction tables took 11.5 s.
    assert time.perf_counter() - start < 10


def test_thirds_formatter_matches_format_rational():
    for t in range(-1000, 1001):
        assert format_thirds(t) == format_rational(Fraction(t, 3))


# ``verify --k 2..200 --format csv`` prints both sides of every check for
# every k mod 4 branch; its own digest points a change at the verifier.
PINNED_VERIFY_DIGEST = (
    "0c1b912cad189243ef0721bd8272e9a9d3646c3daabfde84392252ae83899f2d"
)


def test_wide_verify_is_pinned(monkeypatch):
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    start = time.perf_counter()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "--k", "2..200", "--format", "csv"])
    assert code == 0
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == PINNED_VERIFY_DIGEST
    # Budget: about 0.3 s on a 2-vCPU VM.
    assert time.perf_counter() - start < 3
