from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import re
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airymoments.errors import DomainError, InconsistencyError, SizeLimitError
from airymoments.cli import main, parse_k_range
from airymoments.hodge import hodge_numbers, tilde_mid_hodge
from airymoments import cli, moments
from airymoments.exact import Polynomial


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cache_name(*argv):
    config = cli.config_from_args(cli.build_parser().parse_args(list(argv)))
    return f"{config.command}_{cli.cache_key(config)}.json"


def test_parse_k_range():
    assert parse_k_range("5") == (5,)
    assert parse_k_range("3..6") == (3, 4, 5, 6)
    assert parse_k_range("2..9", parity="odd") == (3, 5, 7, 9)
    assert parse_k_range("2..9", parity="even") == (2, 4, 6, 8)


def test_dims_text(capsys):
    code, out, _ = run_cli(capsys, "dims", "--k", "5")
    assert code == 0
    assert out == "k  all  mid\n5  3    3\n"


def test_dims_json_single_k_is_bare_object(capsys):
    code, out, _ = run_cli(capsys, "dims", "--k", "5", "--format", "json")
    assert code == 0
    assert out == '{"all":3,"mid":3}\n'


def test_dims_json_range_is_a_list(capsys):
    code, out, _ = run_cli(
        capsys, "dims", "--k", "2..8", "--parity", "even",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == [
        {"k": 2, "all": 0, "mid": 0},
        {"k": 4, "all": 1, "mid": 0},
        {"k": 6, "all": 2, "mid": 2},
        {"k": 8, "all": 3, "mid": 2},
    ]


def test_dims_higher_order(capsys):
    code, out, _ = run_cli(
        capsys, "dims", "--k", "3", "--n", "3", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {"all": 2, "mid": 1}


def test_hodge_text_table(capsys):
    code, out, _ = run_cli(capsys, "hodge", "--k", "5")
    assert code == 0
    assert out.splitlines() == [
        "k  p     q     h",
        "5  7/3   11/3  1",
        "5  3     3     1",
        "5  11/3  7/3   1",
    ]


def test_hodge_csv(capsys):
    code, out, _ = run_cli(capsys, "hodge", "--k", "4", "--format", "csv")
    assert code == 0
    assert out == "k,p,q,h\r\n4,3,3,1\r\n" or out == "k,p,q,h\n4,3,3,1\n"


def test_hodge_latex(capsys):
    code, out, _ = run_cli(capsys, "hodge", "--k", "4", "--format", "latex")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "\\begin{tabular}{llll}"
    assert lines[1] == "k & p & q & h \\\\"
    assert lines[-1] == "\\end{tabular}"
    assert "4 & 3 & 3 & 1 \\\\" in lines


def test_basis_json(capsys):
    code, out, _ = run_cli(
        capsys, "basis", "--k", "3", "--space", "gm", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["space"] == "gm"
    assert payload["classes"][0] == {"u0": ["0", "0", "1"]}
    assert len(payload["classes"]) == 6
    assert payload["g_levels"] is None


def test_basis_levels_on_the_affine_line(capsys):
    code, out, _ = run_cli(
        capsys, "basis", "--k", "3", "--space", "a1", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["g_levels"] == ["7/3", "5/3"]


def test_gamma_json(capsys):
    code, out, _ = run_cli(
        capsys, "gamma", "--k", "8", "--series-terms", "4",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == {
        "k": 8,
        "offset": "2",
        "values": ["1", "5/8", "615/256", "55375/2048"],
    }


def test_decomp_json(capsys):
    code, out, _ = run_cli(
        capsys, "decomp", "--k", "3", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["regular_rank"] == 0
    assert [e["coefficients"] for e in payload["exponents"]] == [
        ["-2"], ["-2/3"], ["2/3"], ["2"]
    ]


# Every order 2..8 at each k up to 12 whose enumeration visits at most
# 3,000 compositions.  Budget: the 70 decompositions take about 0.3 s
# on a 2-vCPU VM, and have 5 s.
def test_decomp_text_matches_the_polynomial_text():
    # decomp writes each exponent from its coefficients; the text of
    # the Polynomial they make is the second route.
    start = time.perf_counter()
    for n in range(2, 9):
        for k in range(1, 13):
            if math.comb(n - 1 + k, k) > 3000:
                break
            config = cli.RunConfig("decomp", (k,), n=n, format="csv")
            rows = list(csv.reader(io.StringIO(cli.run(config)[1])))[1:]
            decomposition = moments.formal_decomposition(n, k)
            expected = [
                Polynomial(tuple(enumerate(coeffs))).format("x")
                for coeffs, _ in decomposition.entries
            ]
            regular = 1 if decomposition.regular_rank else 0
            assert [row[2] for row in rows[regular:]] == expected, (n, k)
    assert time.perf_counter() - start < 5


def test_verify_reports_per_k(capsys):
    code, out, _ = run_cli(capsys, "verify", "--k", "2..6")
    assert code == 0
    assert out.splitlines() == [
        "k=2: 4 checks passed",
        "k=3: 4 checks passed",
        "k=4: 5 checks passed",
        "k=5: 4 checks passed",
        "k=6: 5 checks passed",
        "all passed",
    ]


def test_determinism(capsys):
    first = run_cli(capsys, "tilde", "--k", "8", "--format", "json")
    second = run_cli(capsys, "tilde", "--k", "8", "--format", "json")
    assert first == second


def test_cache_round_trip(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
    code, cold, _ = run_cli(
        capsys, "hodge", "--k", "6", "--format", "json"
    )
    assert code == 0
    cached = os.listdir(tmp_path)
    assert cached == [cache_name("hodge", "--k", "6", "--format", "json")]
    code, warm, _ = run_cli(
        capsys, "hodge", "--k", "6", "--format", "json"
    )
    assert code == 0
    assert warm == cold


def test_cache_serves_stored_bytes(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
    path = tmp_path / cache_name("dims", "--k", "5", "--format", "json")
    path.write_text('{"sentinel":true}\n')
    code, out, _ = run_cli(capsys, "dims", "--k", "5", "--format", "json")
    assert code == 0
    assert out == '{"sentinel":true}\n'


@pytest.mark.parametrize(
    "first, second",
    [
        (("basis", "--k", "5", "--space", "a1"),
         ("basis", "--k", "5", "--space", "gm")),
        (("basis", "--k", "8", "--space", "a1"),
         ("basis", "--k", "8", "--space", "mid")),
        (("basis", "--k", "5", "--space", "gm"),
         ("basis", "--k", "5", "--space", "gm", "--rho", "1/2")),
        (("gamma", "--k", "4", "--series-terms", "2"),
         ("gamma", "--k", "4", "--series-terms", "5")),
        (("dims", "--k", "6"), ("dims", "--k", "6", "--n", "3")),
    ],
)
def test_cache_key_covers_every_setting(capsys, tmp_path, first, second):
    tail = ("--format", "json", "--cache-dir", str(tmp_path))
    fresh = run_cli(capsys, *second, "--format", "json")
    assert fresh[0] == 0
    assert run_cli(capsys, *first, *tail)[0] == 0
    assert run_cli(capsys, *second, *tail) == fresh
    assert run_cli(capsys, *second, *tail) == fresh
    assert len(os.listdir(tmp_path)) == 2


def test_cache_handles_long_k_ranges(capsys, tmp_path):
    argv = ("hodge", "--k", "2..120", "--format", "json")
    fresh = run_cli(capsys, *argv)
    assert fresh[0] == 0
    tail = ("--cache-dir", str(tmp_path))
    assert run_cli(capsys, *argv, *tail) == fresh
    assert os.listdir(tmp_path) == [cache_name(*argv)]
    assert run_cli(capsys, *argv, *tail) == fresh


def test_cache_write_leaves_no_temporary_file(capsys, tmp_path, monkeypatch):
    def failing_replace(source, target):
        raise OSError("rigged")

    monkeypatch.setattr(cli.os, "replace", failing_replace)
    code, out, err = run_cli(capsys, "dims", "--k", "5", "--format", "json",
                             "--cache-dir", str(tmp_path))
    assert (code, out) == (1, "")
    assert err == f"airymoments: error: cannot use the cache {tmp_path}: rigged\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("blocked", ["file", "under-file", "entry"])
def test_unusable_cache_is_an_error(capsys, tmp_path, blocked):
    argv = ("hodge", "--k", "5", "--format", "json")
    cache = tmp_path
    if blocked == "entry":
        (tmp_path / cache_name(*argv)).mkdir()
    else:
        cache = tmp_path / "F"
        cache.write_text("kept\n")
        if blocked == "under-file":
            cache = cache / "sub"
    tree = sorted(tmp_path.rglob("*"))
    code, out, err = run_cli(capsys, *argv, "--cache-dir", str(cache))
    assert (code, out) == (1, "")
    assert err.startswith(f"airymoments: error: cannot use the cache {cache}:")
    assert sorted(tmp_path.rglob("*")) == tree
    assert blocked == "entry" or (tmp_path / "F").read_text() == "kept\n"


def test_text_output_is_never_cached(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
    code, _, _ = run_cli(capsys, "hodge", "--k", "6")
    assert code == 0
    assert os.listdir(tmp_path) == []


def test_usage_errors(capsys):
    assert run_cli(capsys, "dims", "--k", "x")[0] == 64
    assert run_cli(capsys, "dims")[0] == 64
    assert run_cli(capsys, "transmogrify", "--k", "3")[0] == 64
    assert run_cli(capsys, "dims", "--k", "9..3")[0] == 64


def test_domain_errors_exit_one(capsys):
    code, _, err = run_cli(capsys, "hodge", "--k", "1")
    assert code == 1
    assert "error" in err
    assert run_cli(capsys, "tilde", "--k", "2")[0] == 1
    assert run_cli(capsys, "gamma", "--k", "5")[0] == 1


def test_series_terms_are_bounded(capsys):
    too_many = str(cli.MAX_SERIES_TERMS + 1)
    code, out, err = run_cli(
        capsys, "gamma", "--k", "4", "--series-terms", too_many
    )
    assert code == 1
    assert out == ""
    assert "cap" in err


# Budget: the largest table takes about 1.5 s on a 2-vCPU VM at any k.
@pytest.mark.parametrize("k", ["2", str(cli.MAX_K)])
def test_largest_series_table_returns_within_budget(capsys, k):
    start = time.perf_counter()
    code, out, _ = run_cli(
        capsys, "gamma", "--k", k,
        "--series-terms", str(cli.MAX_SERIES_TERMS),
    )
    assert time.perf_counter() - start < 10
    assert code == 0
    assert len(out.splitlines()) > cli.MAX_SERIES_TERMS


def test_verify_failure_exits_two(capsys, monkeypatch):
    from airymoments.hodge import CheckResult, VerifyReport

    def rigged(k_range):
        return VerifyReport(results=(
            CheckResult(
                k=2, check="table-mass", passed=False,
                expected="1", got="2",
            ),
        ))

    monkeypatch.setattr(cli, "verify", rigged)
    code, out, _ = run_cli(capsys, "verify", "--k", "2")
    assert code == 2
    assert "table-mass" in out


def test_internal_inconsistency_exits_three(capsys, monkeypatch, tmp_path):
    # Only k = 6 fails, so a range has encoded k = 2..5 when it raises.
    asked = []

    def rigged(k):
        asked.append(k)
        if k == 6:
            raise InconsistencyError("rigged")
        return hodge_numbers(k)

    monkeypatch.setattr(cli, "hodge_numbers", rigged)
    for argv in (
        ("hodge", "--k", "6"),
        ("hodge", "--k", "2..10"),
        ("hodge", "--k", "2..10", "--format", "json"),
    ):
        asked.clear()
        code, out, err = run_cli(capsys, *argv, "--cache-dir", str(tmp_path))
        assert code == 3
        assert out == ""
        assert "inconsistency" in err
        assert asked[-1] == 6
        assert os.listdir(tmp_path) == []


def test_k_range_length_is_bounded(capsys):
    assert len(parse_k_range(f"1..{cli.MAX_K}")) == cli.MAX_K
    with pytest.raises(SizeLimitError):
        parse_k_range(f"1..{cli.MAX_K + 1}", parity="odd")
    code, out, err = run_cli(capsys, "dims", "--k", "1..1000000000000")
    assert code == 1
    assert out == ""
    assert "cap" in err


def test_over_long_k_literal_is_rejected(capsys):
    nines = "9" * 5000
    for k in (nines, f"2..{nines}"):
        code, out, err = run_cli(capsys, "dims", "--k", k)
        assert code == 1
        assert out == ""
        assert "digits" in err
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("hodge", "--k", "1000000000000000000001"),
        ("tilde", "--k", str(cli.MAX_K + 2)),
        ("verify", "--k", f"{cli.MAX_K}..{cli.MAX_K + 1}"),
        ("basis", "--k", str(cli.MAX_K + 1), "--space", "mid"),
    ],
)
def test_huge_k_is_rejected(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "cap" in err


@pytest.mark.parametrize(
    "config, error, match",
    [
        (cli.RunConfig("basis", (8,), space="gm2"), DomainError, "space"),
        (cli.RunConfig("hodge", (5,), format="xml"), DomainError, "format"),
        (cli.RunConfig("hodge", (10**6,)), SizeLimitError, "cap"),
        (cli.RunConfig("hodge", (1500,) * 1000), SizeLimitError, "cap"),
    ],
    ids=["space", "format", "k", "repeated k"],
)
def test_run_refuses_configs_the_parser_never_builds(config, error, match):
    # A library caller can hand ``run`` any RunConfig: it gets the
    # parser's refusals, not another space's table, a KeyError, an
    # unbounded k or a range whose repeats each cost a k.
    with pytest.raises(error, match=match):
        cli.run(config)


@pytest.mark.parametrize(
    "argv",
    [
        ("basis", "--space", "gm", "--k", "700"),
        ("basis", "--space", "gm", "--rho", "1/2", "--k", "680"),
        ("dims", "--n", str(moments.MAX_ORDER + 1), "--k", "1"),
        ("decomp", "--n", str(moments.MAX_ORDER + 1), "--k", "1"),
    ],
)
def test_work_beyond_the_fixed_bounds_is_refused_fast(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 1
    assert out == ""
    assert "cap" in err


TOP = str(cli.MAX_K)
#: The largest even ``basis --space gm`` k whose kernel rows times
#: generators are under the library's work cap, and the first refused;
#: the largest odd k, at the size cap, and the first refused.  Measured
#: by building, at both twists.
GM_TOP, GM_REFUSED = "512", "514"
GM_ODD_TOP, GM_ODD_REFUSED = "2699", "2701"

# Every per-k command at the largest accepted k, and the widest dims range
# and the widest range under each k-sum cap, with a budget in seconds for
# each: about five times the time taken on a 2-vCPU VM, shown after each
# case.
TOP_OF_BOUNDS_RETURNS = [
    (("dims", "--k", TOP), 2),  # under 0.01 s
    (("dims", "--k", f"2..{TOP}"), 2),  # 0.15 s
    (("dims", "--n", "97", "--k", TOP), 2),  # under 0.01 s: prime order
    (("dims", "--n", "8", "--k", "40"), 4),  # 0.8 s: 271,502 visits
    # 1.3-2.6 s: 1,270,752 visits of width 4, the cap on visits x width
    (("dims", "--n", "8", "--k", "60"), 10),
    (("basis", "--k", TOP), 3),  # 0.2 s
    (("basis", "--space", "mid", "--k", str(cli.MAX_MID_K)), 6),  # 0.9 s
    # 1.0-1.1 s and 60 MB: the library's work cap on one even k
    (("basis", "--space", "gm", "--k", GM_TOP), 5),
    (("basis", "--space", "gm", "--rho", "1/2", "--k", GM_TOP), 5),
    # 0.23 s and 25 MB: the size cap on one odd k
    (("basis", "--space", "gm", "--k", GM_ODD_TOP), 2),
    # Odd k inserts no kernel row: 0.1 s
    (("basis", "--space", "gm", "--k", "497"), 2),
    # Earlier gm bounds, well inside the present ones
    (("basis", "--space", "gm", "--k", "120"), 2),  # 0.04 s
    (("basis", "--space", "gm", "--k", "2..72"), 3),  # 0.3 s
    (("gamma", "--k", TOP), 2),  # under 0.01 s
    (("hodge", "--k", TOP), 2),  # 0.03 s
    (("tilde", "--k", TOP), 2),  # 0.03-0.04 s
    (("decomp", "--k", TOP), 3),  # 0.06-0.09 s
    # 0.9-1.8 s: the decomp cost cap at two orders and on a range
    (("decomp", "--n", "4", "--k", "188"), 10),
    (("decomp", "--n", "5", "--k", "36"), 10),
    (("decomp", "--n", "2", "--k", "2..665"), 10),
    (("verify", "--k", TOP), 2),  # 0.03-0.04 s
    (("verify", "--k", "2..1000"), 10),  # 0.9 s: the k sum cap
    (("hodge", "--k", "2..1500"), 10),  # 1.2-2.4 s: the k sum cap
    (("tilde", "--k", "4..1000", "--parity", "even"), 10),  # 0.5-0.8 s
    (("basis", "--k", "2..600"), 10),  # 1.2-1.9 s: the k sum cap
    # 1.8-2.6 s each: the gamma work cap at both ends of the length
    (("gamma", "--k", f"2..{TOP}", "--parity", "even"), 12),
    (("gamma", "--k", "2..4", "--parity", "even", "--series-terms", "400"), 10),
    # 1.5-2.8 s each: the gm range cap, on every k, even k and odd k
    (("basis", "--space", "gm", "--k", "2..140"), 10),
    (("basis", "--space", "gm", "--k", "2..144", "--parity", "even"), 10),
    (("basis", "--space", "gm", "--k", "1..417", "--parity", "odd"), 10),
    (("dims", "--n", "8", "--k", "2..34"), 10),  # 1.2 s: the same cap
]

# ... and the ones that refuse there: each within 1 s, with "cap".
TOP_OF_BOUNDS_REFUSALS = [
    ("basis", "--space", "gm", "--k", TOP),
    ("basis", "--space", "gm", "--rho", "1/2", "--k", TOP),
    ("basis", "--space", "gm", "--k", "680"),
    ("basis", "--space", "gm", "--k", GM_REFUSED),
    ("basis", "--space", "gm", "--rho", "1/2", "--k", GM_REFUSED),
    ("basis", "--space", "gm", "--k", GM_ODD_REFUSED),
    ("basis", "--space", "gm", "--rho", "1/2", "--k", GM_ODD_REFUSED),
    ("basis", "--space", "mid", "--k", TOP),
    ("basis", "--space", "mid", "--k", "8400"),
    ("basis", "--space", "mid", "--k", str(cli.MAX_MID_K + 1)),
    ("basis", "--space", "mid", "--k", f"2..{TOP}"),
    ("decomp", "--n", "3", "--k", TOP),
    ("decomp", "--n", "8", "--k", "29"),
    ("decomp", "--n", "4", "--k", "189"),
    ("decomp", "--n", "5", "--k", "37"),
    ("decomp", "--n", "2", "--k", "2..666"),
    ("dims", "--n", "8", "--k", "400"),
    ("dims", "--n", "8", "--k", "61"),
    ("dims", "--n", "8", "--k", "80"),
    ("dims", "--n", "4", "--k", "2000"),
    ("dims", "--n", "100", "--k", "4"),
    ("dims", "--n", "8", "--k", "2..35"),
    ("dims", "--n", "8", "--k", "2..60"),
    ("verify", "--k", "2..1001"),
    ("verify", "--k", f"2..{TOP}"),
    ("hodge", "--k", "2..1501"),
    ("hodge", "--k", f"2..{TOP}"),
    ("tilde", "--k", "4..1002", "--parity", "even"),
    ("tilde", "--k", f"4..{TOP}", "--parity", "even"),
    ("basis", "--k", "2..601"),
    ("basis", "--k", f"2..{TOP}"),
    ("gamma", "--k", "2..6", "--parity", "even", "--series-terms", "400"),
    ("gamma", "--k", "2..20", "--parity", "even", "--series-terms", "400"),
    ("gamma", "--k", f"2..{TOP}"),
    ("basis", "--space", "gm", "--k", "2..141"),
    ("basis", "--space", "gm", "--k", "2..146", "--parity", "even"),
    ("basis", "--space", "gm", "--k", "1..419", "--parity", "odd"),
    ("basis", "--space", "gm", "--k", "2..160"),
]


@pytest.mark.parametrize(
    "argv, budget",
    TOP_OF_BOUNDS_RETURNS,
    ids=[" ".join(argv) for argv, _ in TOP_OF_BOUNDS_RETURNS],
)
def test_top_of_bounds_returns_within_budget(capsys, argv, budget):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < budget
    assert code == 0, err
    assert out


@pytest.mark.parametrize(
    "argv", TOP_OF_BOUNDS_REFUSALS, ids=" ".join
)
def test_top_of_bounds_refuses_fast(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 1
    assert out == ""
    assert "cap" in err
    assert "Traceback" not in err


# One config of every command that has limits, and of every basis space.
LIMITED = [
    cli.RunConfig("dims", (), n=8),
    cli.RunConfig("dims", (), n=4),
    *(cli.RunConfig("basis", (), space=space) for space in cli.SPACES),
    cli.RunConfig("gamma", ()),
    cli.RunConfig("gamma", (), series_terms=cli.MAX_SERIES_TERMS + 1),
    cli.RunConfig("hodge", ()),
    cli.RunConfig("tilde", ()),
    cli.RunConfig("verify", ()),
    cli.RunConfig("decomp", (), n=8),
    cli.RunConfig("decomp", (), n=2),
]


def test_limited_covers_every_command_with_limits():
    assert {config.command for config in LIMITED} == set(cli.COMMANDS)


@pytest.mark.parametrize(
    "config",
    LIMITED,
    ids=lambda c: f"{c.command}-n{c.n}-{c.space}-{c.series_terms}",
)
def test_every_cap_refuses_before_any_work(monkeypatch, config):
    # The shortest run of k from 1, each within the cap on one k, whose
    # summed cost passes the range cap, and the first k whose own cost
    # passes the cap on one k: both are refused before the handler runs,
    # and the run without its last k is served.
    command = cli.COMMANDS[config.command]
    cost, one_k_cap, range_cap = command.limits(config)
    served = []

    def handler(config):
        served.append(config.k_values)
        return 0, ""

    monkeypatch.setitem(
        cli.COMMANDS, config.command, command._replace(handler=handler)
    )
    run_k, total, dear_k = [], 0, None
    for k in range(1, cli.MAX_K + 1):
        if cost(k) > one_k_cap:
            dear_k = dear_k or k
        elif total <= range_cap:
            run_k.append(k)
            total += cost(k)
    refused, accepted = [], []
    if total > range_cap:
        refused.append(tuple(run_k))
        accepted.append(tuple(run_k[:-1]))
    if dear_k is not None:
        refused.append((dear_k,))
    assert refused, "neither cap can be reached below MAX_K"
    for k_values in refused:
        with pytest.raises(SizeLimitError, match="cap"):
            cli.run(dataclasses.replace(config, k_values=k_values))
    for k_values in accepted:
        cli.run(dataclasses.replace(config, k_values=k_values))
    assert served == accepted


class _Sink:
    """A stdout that keeps only the length of what it is sent."""

    length = 0

    def write(self, text):
        self.length += len(text)
        return len(text)


# A range is encoded one k at a time, so a command's traced allocations
# stay within a few times its output: the whole document is held before
# it is printed, and nothing else grows with the range.  Budget: each
# case takes 0.2 to 0.9 s on a 2-vCPU VM, traced, and has 5 s.
MEMORY_CASES = [
    ("hodge", "--k", "2..200", "--format", "csv"),
    ("tilde", "--k", "4..200", "--parity", "even"),
    ("tilde", "--k", "4..200", "--parity", "even", "--format", "json"),
    ("basis", "--k", "2..200", "--format", "latex"),
    ("verify", "--k", "2..200"),
    ("verify", "--k", "2..200", "--format", "csv"),
]


@pytest.mark.parametrize("argv", MEMORY_CASES, ids=" ".join)
def test_range_memory_follows_the_output(monkeypatch, argv):
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    sink = _Sink()
    start = time.perf_counter()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(list(argv))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 5
    assert code == 0
    assert sink.length > 0
    assert peak <= 4 * sink.length + 500_000


# --enumeration-cap and --truncation-ceiling stay in SAMPLE though no
# command takes them: the bounds are fixed, so every command refuses them.
TAKES = {
    "dims": ("--n",),
    "basis": ("--space", "--rho"),
    "gamma": ("--series-terms",),
    "hodge": (),
    "tilde": (),
    "decomp": ("--n",),
    "verify": (),
}
SAMPLE = {
    "--n": "3",
    "--enumeration-cap": "1000",
    "--space": "gm",
    "--rho": "1/2",
    "--truncation-ceiling": "512",
    "--series-terms": "3",
}


@pytest.mark.parametrize("flag", sorted(SAMPLE))
@pytest.mark.parametrize("command", sorted(TAKES))
def test_options_are_scoped_to_their_commands(capsys, command, flag):
    code, out, err = run_cli(capsys, command, "--k", "4", flag, SAMPLE[flag])
    if flag in TAKES[command]:
        assert code != 64
    else:
        assert code == 64
        assert out == ""
        assert "unrecognized arguments" in err


@pytest.mark.parametrize(
    "rho, code", [("0", 0), ("1/2", 0), ("0.5", 64), ("2/4", 64), ("1", 64)]
)
def test_rho_accepts_exactly_zero_and_one_half(capsys, rho, code):
    argv = ("basis", "--k", "3", "--space", "gm", "--rho", rho)
    assert run_cli(capsys, *argv)[0] == code


def test_help_lists_every_command(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    listed = re.search(r"\{([a-z,]+)\}", out).group(1)
    assert listed.split(",") == list(TAKES)


#: Each call that gives an option is followed by one that does not; a
#: usage error (hodge takes no --n) and --help are followed by plain
#: calls too.
SEQUENCE = (
    ("basis", "--k", "4", "--space", "gm", "--rho", "1/2"),
    ("basis", "--k", "4"),
    ("dims", "--k", "6", "--n", "3"),
    ("dims", "--k", "6"),
    ("hodge", "--k", "5", "--format", "json"),
    ("hodge", "--k", "5"),
    ("hodge", "--k", "5", "--n", "3"),
    ("hodge", "--k", "5"),
    ("--help",),
    ("dims", "--k", "6"),
)


def test_one_parse_tree_serves_every_call(capsys, monkeypatch):
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    for argv in SEQUENCE:
        run_cli(capsys, *argv)
    # One tree is the root parser and one subparser per command.
    assert len(built) <= 1 + len(cli.COMMANDS)
    assert cli.build_parser() is cli.build_parser()


def _calls(capsys):
    """(RunConfig or exit code of the parse, main's result) per call of
    SEQUENCE, in order, in this process."""
    results = []
    for argv in SEQUENCE:
        try:
            parsed = cli.config_from_args(
                cli.build_parser().parse_args(list(argv))
            )
        except SystemExit as exc:
            parsed = exc.code
        capsys.readouterr()
        results.append((parsed, run_cli(capsys, *argv)))
    return results


def test_calls_leave_nothing_behind(capsys, monkeypatch):
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    shared = _calls(capsys)
    # The same calls, each with a parse tree of its own.
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    alone = _calls(capsys)
    assert shared == alone
    assert [parsed for parsed, _ in shared[:2]] == [
        cli.RunConfig("basis", (4,), space="gm", twist="1/2"),
        cli.RunConfig("basis", (4,)),
    ]
    assert shared[3][0] == cli.RunConfig("dims", (6,))
    assert shared[5][0] == cli.RunConfig("hodge", (5,))
    assert [code for _, (code, _, _) in shared[6:9]] == [64, 0, 0]
    assert shared[8][0] == 0


def _counting(monkeypatch, name):
    calls = []
    original = getattr(cli, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cli, name, counted)
    return calls


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize(
    "argv, table",
    [
        (("hodge", "--k", "2..60"), lambda k: hodge_numbers(k)[0]),
        (("tilde", "--k", "4..60", "--parity", "even"), tilde_mid_hodge),
    ],
)
def test_tables_format_each_level_once(capsys, monkeypatch, argv, table, fmt):
    calls = _counting(monkeypatch, "format_thirds")
    code, _, _ = run_cli(capsys, *argv, "--format", fmt)
    assert code == 0
    config = cli.config_from_args(cli.build_parser().parse_args(list(argv)))
    entries = sum(len(table(k).thirds) for k in config.k_values)
    assert len(calls) == 2 * entries


@pytest.mark.parametrize("fmt, per_value, once", [
    ("text", 2, 0), ("csv", 2, 0), ("json", 1, 1),
])
def test_gamma_formats_each_value_once(capsys, monkeypatch, fmt, per_value, once):
    calls = _counting(monkeypatch, "format_rational")
    argv = ("gamma", "--k", "8", "--series-terms", "20", "--format", fmt)
    assert run_cli(capsys, *argv)[0] == 0
    assert len(calls) == 20 * per_value + once


def _output(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == 0
    return out.getvalue()


def _three_views(*argv):
    """Rows of the text, CSV and JSON outputs of one command, headers
    dropped."""
    text = [line.split() for line in _output(*argv).splitlines()[1:]]
    rows = list(csv.reader(io.StringIO(_output(*argv, "--format", "csv"))))
    return text, rows[1:], json.loads(_output(*argv, "--format", "json"))


@given(st.sampled_from(["hodge", "tilde"]), st.integers(2, 40))
@settings(max_examples=20, deadline=None)
def test_table_formats_hold_the_same_entries(command, half_k):
    k = 2 * half_k if command == "tilde" else half_k + 1
    text, rows, obj = _three_views(command, "--k", str(k))
    assert obj["k"] == k
    entries = [
        [str(k), entry["p"], entry["q"], str(entry["h"])]
        for entry in obj["entries"]
    ]
    assert entries and text == rows == entries


@given(st.integers(1, 100))
@settings(max_examples=10, deadline=None)
def test_gamma_formats_hold_the_same_values(half_k):
    k = 2 * half_k
    text, rows, obj = _three_views(
        "gamma", "--k", str(k), "--series-terms", "6"
    )
    offset = Fraction(obj["offset"])
    values = [
        [str(k), Fraction(offset + 3 * j), Fraction(value)]
        for j, value in enumerate(obj["values"])
    ]
    assert len(values) == 6
    for view in (text, rows):
        assert [[kk, Fraction(e), Fraction(v)] for kk, e, v in view] == values


@given(st.integers(2, 200))
@settings(max_examples=10, deadline=None)
def test_verify_formats_hold_the_same_checks(k):
    argv = ("verify", "--k", str(k))
    report = _output(*argv)
    rows = list(csv.reader(io.StringIO(_output(*argv, "--format", "csv"))))
    obj = json.loads(_output(*argv, "--format", "json"))
    assert obj == {"k": [k], "passed": True, "checks": obj["checks"],
                   "failures": []}
    assert rows[1:] and all(row[:1] == [str(k)] for row in rows[1:])
    assert [row[2] for row in rows[1:]] == ["yes"] * obj["checks"]
    assert report == f"k={k}: {obj['checks']} checks passed\nall passed\n"
