"""Golden CLI corpus: every command in every output format at small k,
compared byte for byte with ``golden_cli.json``.

The corpus pins the exact output of the command line, so a refactor of
the engines below it can be checked to change nothing a user sees.
After an intended output change, regenerate the file with

    PYTHONPATH=src python tests/test_golden_cli.py

and review the diff before committing it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from airymoments import cli

GOLDEN = Path(__file__).with_name("golden_cli.json")
FORMATS = ("text", "json", "csv", "latex")
COMMANDS = (
    ("dims", "--k", "2..12"),
    ("dims", "--k", "2..6", "--n", "3"),
    ("basis", "--k", "3..7"),
    ("basis", "--k", "3..7", "--space", "gm"),
    ("basis", "--k", "3..7", "--space", "gm", "--rho", "1/2"),
    ("basis", "--k", "4..16", "--space", "mid"),
    ("gamma", "--k", "2..8", "--parity", "even", "--series-terms", "4"),
    ("hodge", "--k", "2..10"),
    ("tilde", "--k", "4..10", "--parity", "even"),
    ("decomp", "--k", "2..4", "--n", "5"),
    ("verify", "--k", "2..9"),
)
CASES = [
    " ".join(command + ("--format", fmt))
    for command in COMMANDS
    for fmt in FORMATS
]


def run_case(case: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(case.split())
    return {"exit": code, "stdout": out.getvalue()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_corpus_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_cli_output_matches_golden(case, golden, monkeypatch):
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    assert run_case(case) == golden[case]


if __name__ == "__main__":
    os.environ.pop(cli.CACHE_ENV, None)
    corpus = {case: run_case(case) for case in CASES}
    document = json.dumps(corpus, indent=1, sort_keys=True) + "\n"
    GOLDEN.write_text(document, encoding="utf-8")
    print(f"wrote {len(corpus)} cases to {GOLDEN}", file=sys.stderr)
