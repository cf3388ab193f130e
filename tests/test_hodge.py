from __future__ import annotations

import contextlib
import cProfile
import io
import pstats
import time
import tracemalloc
from collections import Counter
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airymoments import cli, hodge
from airymoments.errors import DomainError
from airymoments.moments import h1_dims, rho_preimage
from airymoments.hodge import (
    CheckResult,
    GLevelMultiset,
    HodgeTable,
    g_levels,
    hodge_numbers,
    tilde_mid_hodge,
    verify,
    yu_pole_level,
)


def F(a, b=1):
    return Fraction(a, b)


def test_golden_tables_small_k():
    full3, mid3 = hodge_numbers(3)
    assert full3.entries == ((F(5, 3), F(7, 3), 1), (F(7, 3), F(5, 3), 1))
    assert mid3.entries == full3.entries

    full4, mid4 = hodge_numbers(4)
    assert full4.entries == ((F(3), F(3), 1),)
    assert mid4.entries == ()

    full5, _ = hodge_numbers(5)
    assert full5.entries == (
        (F(7, 3), F(11, 3), 1),
        (F(3), F(3), 1),
        (F(11, 3), F(7, 3), 1),
    )

    full6, mid6 = hodge_numbers(6)
    assert full6.entries == ((F(8, 3), F(13, 3), 1), (F(13, 3), F(8, 3), 1))
    assert mid6.entries == full6.entries

    full8, mid8 = hodge_numbers(8)
    assert full8.entries == (
        (F(10, 3), F(17, 3), 1),
        (F(5), F(5), 1),
        (F(17, 3), F(10, 3), 1),
    )
    assert mid8.entries == (
        (F(10, 3), F(17, 3), 1),
        (F(17, 3), F(10, 3), 1),
    )


def test_table_metadata():
    full, mid = hodge_numbers(8)
    assert (full.family, mid.family) == ("Ai", "Ai-mid")
    assert full.weight == 9
    assert full.total() == 3
    assert mid.total() == 2
    assert full.is_symmetric()
    assert full.p_multiset() == Counter({F(10, 3): 1, F(5): 1, F(17, 3): 1})
    with pytest.raises(DomainError):
        hodge_numbers(1)


@given(st.integers(min_value=2, max_value=60))
@settings(max_examples=59, deadline=None)
def test_tables_satisfy_the_structural_rules(k):
    full, mid = hodge_numbers(k)
    assert full.is_symmetric() and mid.is_symmetric()
    assert all(h == 1 for _, _, h in full.entries)
    dims = h1_dims(2, k)
    assert full.total() == dims.all
    assert mid.total() == dims.mid
    off_weight = [(p, q) for p, q, _ in full.entries if p + q != k + 1]
    if k % 4 == 0:
        assert off_weight == [(F(k + 2, 2), F(k + 2, 2))]
    else:
        assert off_weight == []
    assert set(mid.entries) <= set(full.entries)


def test_g_level_multisets():
    plain5 = g_levels(5, "Ai")
    assert plain5.thirds == ((7, 1), (9, 1), (11, 1))
    twisted6 = g_levels(6, "L-twist")
    assert twisted6.thirds == (
        (8, 1), (9, 1), (10, 2), (11, 1), (12, 2), (13, 1), (14, 1),
    )
    union6 = g_levels(6, "tilde")
    assert union6.counter() == plain_plus_twist(6)
    assert size(union6) == 11


def size(levels):
    """The number of classes of a level multiset."""
    return sum(mult for _, mult in levels.thirds)


def plain_plus_twist(k):
    return g_levels(k, "Ai").counter() + g_levels(k, "L-twist").counter()


@given(st.integers(min_value=2, max_value=40))
@settings(max_examples=39, deadline=None)
def test_g_level_counts(k):
    kp = (k - 1) // 2
    top = kp + 1 if k % 2 else kp
    assert size(g_levels(k, "Ai")) == top
    assert size(g_levels(k, "L-twist")) == top + k + 1
    assert g_levels(k, "tilde").counter() == plain_plus_twist(k)


def test_g_levels_validation():
    with pytest.raises(DomainError):
        g_levels(6, "B-side")
    with pytest.raises(DomainError):
        g_levels(1, "Ai")


def test_tilde_table_small_k():
    t4 = tilde_mid_hodge(4)
    assert t4.entries == (
        (F(5, 3), F(10, 3), 1),
        (F(2), F(3), 1),
        (F(7, 3), F(8, 3), 1),
        (F(8, 3), F(7, 3), 1),
        (F(3), F(2), 1),
        (F(10, 3), F(5, 3), 1),
    )
    t6 = tilde_mid_hodge(6)
    assert t6.total() == 10
    assert t6.is_symmetric()
    assert t6.weight == 7
    assert t6.family == "Ai-tilde-mid"
    assert t6.entries == (
        (F(7, 3), F(14, 3), 1),
        (F(8, 3), F(13, 3), 2),
        (F(3), F(4), 1),
        (F(10, 3), F(11, 3), 1),
        (F(11, 3), F(10, 3), 1),
        (F(4), F(3), 1),
        (F(13, 3), F(8, 3), 2),
        (F(14, 3), F(7, 3), 1),
    )


# Budget: the 199 tables and their 122k reference counts take about
# 0.1 s on a 2-vCPU VM, and have 10 s.
def test_tilde_table_matches_rho_preimage():
    # tilde_mid_hodge counts each fibre inline; rho_preimage is the
    # second route.  Level 3p - eps has h = 1 in the fixed cases and
    # rho_preimage(k, eps, p - 1) in all others, and a level is listed
    # exactly when its h is nonzero.
    start = time.perf_counter()
    for k in range(4, 401, 2):
        expected = {}
        for epsilon in range(3):
            fixed = (k // 2, k // 2 + 1) if epsilon == 0 else (k // 2 + 1,)
            for p in range(k + 2):
                h = 1 if p in fixed else rho_preimage(k, epsilon, p - 1)
                if h:
                    expected[3 * p - epsilon] = h
        table = tilde_mid_hodge(k)
        assert {level: h for level, _, h in table.thirds} == expected, k
        assert all(p + q == 3 * (k + 1) for p, q, _ in table.thirds)
    assert time.perf_counter() - start < 10


def test_tilde_table_refusals():
    with pytest.raises(DomainError):
        tilde_mid_hodge(5)
    with pytest.raises(DomainError, match="mass 4"):
        tilde_mid_hodge(2)


@given(st.integers(min_value=2, max_value=20))
@settings(max_examples=19, deadline=None)
def test_tilde_table_symmetry_and_high_levels(half_k):
    k = 2 * half_k
    table = tilde_mid_hodge(k)
    assert table.is_symmetric()
    tilde = g_levels(k, "tilde").counter()
    cut = Fraction(k, 2) + 1
    high_table = {
        p: h for p, _, h in table.entries if p > cut
    }
    high_levels = {
        level: count for level, count in tilde.items() if level > cut
    }
    assert high_table == high_levels


def test_pole_levels_plain():
    assert yu_pole_level(6, 1, 0, "plain") == (F(8, 3), True, F(13, 3))
    # boundary case: k = 4r + 2nu holds with equality
    assert yu_pole_level(6, 1, 1, "plain") == (F(3), True, F(4))
    assert yu_pole_level(6, 1, 2, "plain").admissible is False


def test_pole_levels_twisted_and_odd():
    assert yu_pole_level(6, 0, 0, "twisted") == (F(7, 3), True, F(14, 3))
    assert yu_pole_level(6, 1, 0, "twisted") == (F(3), True, F(4))
    assert yu_pole_level(6, 1, 1, "twisted").admissible is False
    assert yu_pole_level(5, 1, 0, "odd-simple") == (F(7, 3), True, F(11, 3))
    assert yu_pole_level(5, 3, 0, "odd-simple").admissible is True


def test_pole_level_validation():
    with pytest.raises(DomainError):
        yu_pole_level(6, 1, 0, "exotic")
    with pytest.raises(DomainError):
        yu_pole_level(6, 0, 0, "plain")
    with pytest.raises(DomainError):
        yu_pole_level(6, -1, 0, "twisted")
    with pytest.raises(DomainError):
        yu_pole_level(6, 1, 7, "plain")
    with pytest.raises(DomainError):
        yu_pole_level(0, 1, 0, "plain")


def test_verify_range_is_clean():
    report = verify(range(2, 21))
    assert report.passed
    assert len(report.results) == 85
    assert report.failures() == []
    by_name = Counter(r.check for r in report.results)
    assert by_name == Counter(
        {
            "table-symmetry": 19,
            "table-mass": 19,
            "pole-admissibility": 19,
            "mid-structure": 10,
            "odd-level-multiset": 9,
            "high-level-match": 9,
        }
    )


def test_verify_check_counts_per_k():
    assert len(verify([3]).results) == 4
    assert len(verify([2]).results) == 4
    assert len(verify([4]).results) == 5
    # duplicates are collapsed
    assert len(verify([4, 4, 3]).results) == 9


def test_verify_validation():
    with pytest.raises(DomainError):
        verify([])
    with pytest.raises(DomainError):
        verify([1, 3])


# verify(range(2, 601)) holds 1.5-1.6 MB of report, where a passing
# check that kept two copies of its text held 2.7 MB (tracemalloc,
# Python 3.11).  Budget: tracemalloc slows verify about tenfold, to
# 4.5 s on a 2-vCPU VM, and it has 30 s.
def test_verify_report_holds_one_text_per_passing_check():
    verify(range(2, 5))
    start = time.perf_counter()
    tracemalloc.start()
    try:
        report = verify(range(2, 601))
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 30
    assert report.passed
    assert held <= 2_200_000
    # A check result is still built from plain strings.
    result = CheckResult(
        k=2, check="table-mass", passed=False, expected="1", got="2"
    )
    assert (result.expected, result.got) == ("1", "2")
    with pytest.raises(FrozenInstanceError):
        result.got = "1"


def test_tables_and_verify_build_no_fraction():
    # Levels are carried as integer thirds; only the public Fraction
    # views (entries, levels, p_multiset, counter) build one.
    profiler = cProfile.Profile()
    profiler.runcall(
        lambda: (
            verify(range(2, 41)),
            [hodge_numbers(k) for k in range(2, 41)],
            [g_levels(k, "tilde") for k in range(2, 41)],
            [tilde_mid_hodge(k) for k in range(4, 41, 2)],
        )
    )
    built = [
        (path, name)
        for path, _, name in pstats.Stats(profiler).stats
        if path.endswith("fractions.py") and name == "__new__"
    ]
    assert built == []


# The failure corpus: each rig replaces one global of ``hodge`` so that
# a check fails at one k, and pins every check of that k as
# (check, passed, expected, got).  Together they fail every check and
# print both sides of each.  Budget: under 0.1 s for all of them.
ADMISSIBLE = "all admissible with matching levels"


def _asymmetric_full(tables, k):
    full, mid = tables
    return replace(full, thirds=full.thirds[:-1] + ((11, 8, 1),)), mid


def _reflection_broken_mid(tables, k):
    # Still symmetric under (p, q) -> (q, p), but p + q is off weight.
    full, mid = tables
    shifted = tuple((p + 1, q + 1, h) for p, q, h in mid.thirds)
    return full, replace(mid, thirds=shifted)


def _inadmissible_residue(thirds, k, r, nu, variant):
    m, _, level = thirds
    return (m, False, level) if (variant, r, nu) == ("twisted", 0, 2) else thirds


RIGS = {
    "table-symmetry": (5, "hodge_numbers", _asymmetric_full, [
        ("table-symmetry", False, "h(p,q) = h(q,p) in both tables",
         "asymmetric entry found"),
        ("table-mass", True, "(3, 3)", "(3, 3)"),
        ("odd-level-multiset", True, "{7/3: 1, 3: 1, 11/3: 1}",
         "{7/3: 1, 3: 1, 11/3: 1}"),
        ("pole-admissibility", True, ADMISSIBLE, ADMISSIBLE),
    ]),
    "table-mass": (
        8,
        "h1_dims",
        lambda dims, n, k: dims._replace(all=dims.all + 1),
        [
            ("table-symmetry", True, "h(p,q) = h(q,p) in both tables",
             "symmetric"),
            ("table-mass", False, "(4, 2)", "(3, 2)"),
            ("high-level-match", True, "{16/3: 2, 17/3: 2, 6: 1}",
             "{16/3: 2, 17/3: 2, 6: 1}"),
            ("mid-structure", True, "symmetric, high part {17/3: 1}",
             "symmetric, high part {17/3: 1}"),
            ("pole-admissibility", True, ADMISSIBLE, ADMISSIBLE),
        ],
    ),
    "odd-level-multiset": (
        7,
        "g_levels",
        lambda levels, k, which: replace(levels, thirds=levels.thirds[1:]),
        [
            ("table-symmetry", True, "h(p,q) = h(q,p) in both tables",
             "symmetric"),
            ("table-mass", True, "(4, 4)", "(4, 4)"),
            ("odd-level-multiset", False, "{11/3: 1, 13/3: 1, 5: 1}",
             "{3: 1, 11/3: 1, 13/3: 1, 5: 1}"),
            ("pole-admissibility", True, ADMISSIBLE, ADMISSIBLE),
        ],
    ),
    "high-level-match": (
        10,
        "tilde_mid_hodge",
        lambda table, k: replace(table, thirds=table.thirds[:-1]),
        [
            ("table-symmetry", True, "h(p,q) = h(q,p) in both tables",
             "symmetric"),
            ("table-mass", True, "(4, 4)", "(4, 4)"),
            ("high-level-match", False, "{19/3: 2, 20/3: 2, 7: 2, 22/3: 1}",
             "{19/3: 2, 20/3: 2, 7: 2}"),
            ("mid-structure", True, "symmetric, high part {19/3: 1, 7: 1}",
             "symmetric, high part {19/3: 1, 7: 1}"),
            ("pole-admissibility", True, ADMISSIBLE, ADMISSIBLE),
        ],
    ),
    "mid-structure": (12, "hodge_numbers", _reflection_broken_mid, [
        ("table-symmetry", True, "h(p,q) = h(q,p) in both tables",
         "symmetric"),
        ("table-mass", True, "(5, 4)", "(5, 4)"),
        ("high-level-match", True,
         "{22/3: 2, 23/3: 2, 8: 2, 25/3: 2, 26/3: 1}",
         "{22/3: 2, 23/3: 2, 8: 2, 25/3: 2, 26/3: 1}"),
        ("mid-structure", False, "symmetric, high part {23/3: 1, 25/3: 1}",
         "asymmetric, high part {8: 1, 26/3: 1}"),
        ("pole-admissibility", True, ADMISSIBLE, ADMISSIBLE),
    ]),
    "pole-admissibility": (6, "_pole_thirds", _inadmissible_residue, [
        ("table-symmetry", True, "h(p,q) = h(q,p) in both tables",
         "symmetric"),
        ("table-mass", True, "(2, 2)", "(2, 2)"),
        ("high-level-match", True, "{13/3: 2, 14/3: 1}",
         "{13/3: 2, 14/3: 1}"),
        ("mid-structure", True, "symmetric, high part {13/3: 1}",
         "symmetric, high part {13/3: 1}"),
        ("pole-admissibility", False, ADMISSIBLE,
         "twisted r=0 nu=2: PoleLevel(m=Fraction(3, 1), admissible=False, "
         "f_level=Fraction(4, 1))"),
    ]),
    "pole-level": (
        9,
        "omega_thirds",
        lambda thirds, k, i: thirds + 3 if i == 2 else thirds,
        [
            ("table-symmetry", True, "h(p,q) = h(q,p) in both tables",
             "symmetric"),
            ("table-mass", True, "(5, 5)", "(5, 5)"),
            ("odd-level-multiset", False,
             "{11/3: 1, 13/3: 1, 5: 1, 19/3: 1, 20/3: 1}",
             "{11/3: 1, 13/3: 1, 5: 1, 17/3: 1, 19/3: 1}"),
            ("pole-admissibility", False, ADMISSIBLE,
             "odd-simple r=2 nu=0: PoleLevel(m=Fraction(13, 3), "
             "admissible=True, f_level=Fraction(17, 3))"),
        ],
    ),
}


def _rig(monkeypatch, k, name, change):
    """Make the hodge global ``name`` return ``change(result, *args)``
    when it is called for ``k``, and its own result otherwise."""
    original = getattr(hodge, name)
    position = 1 if name == "h1_dims" else 0  # h1_dims takes (n, k)

    def rigged(*args):
        result = original(*args)
        return change(result, *args) if args[position] == k else result

    monkeypatch.setattr(hodge, name, rigged)


@pytest.mark.parametrize("rig", RIGS)
def test_a_rigged_check_fails_with_both_sides(monkeypatch, rig):
    k, name, change, expected = RIGS[rig]
    _rig(monkeypatch, k, name, change)
    start = time.perf_counter()
    report = verify([k, k + 1])
    assert time.perf_counter() - start < 1
    rigged = [r for r in report.results if r.k == k]
    assert [(r.check, r.passed, r.expected, r.got) for r in rigged] == expected
    # Only the rigged k fails.
    assert {r.k for r in report.failures()} == {k}


RIGGED_TEXT = (
    "k=8: 5 checks passed\n"
    "k=9 odd-level-multiset: FAILED (expected {11/3: 1, 13/3: 1, 5: 1, "
    "19/3: 1, 20/3: 1}, got {11/3: 1, 13/3: 1, 5: 1, 17/3: 1, 19/3: 1})\n"
    "k=9 pole-admissibility: FAILED (expected all admissible with matching "
    "levels, got odd-simple r=2 nu=0: PoleLevel(m=Fraction(13, 3), "
    "admissible=True, f_level=Fraction(17, 3)))\n"
    "k=10: 5 checks passed\n"
    "2 of 14 checks failed\n"
)
RIGGED_JSON = (
    '{"k":[8,9,10],"passed":false,"checks":14,"failures":['
    '{"k":9,"check":"odd-level-multiset",'
    '"expected":"{11/3: 1, 13/3: 1, 5: 1, 19/3: 1, 20/3: 1}",'
    '"got":"{11/3: 1, 13/3: 1, 5: 1, 17/3: 1, 19/3: 1}"},'
    '{"k":9,"check":"pole-admissibility",'
    '"expected":"all admissible with matching levels",'
    '"got":"odd-simple r=2 nu=0: PoleLevel(m=Fraction(13, 3), '
    'admissible=True, f_level=Fraction(17, 3))"}]}\n'
)


@pytest.mark.parametrize(
    "fmt, document", [("text", RIGGED_TEXT), ("json", RIGGED_JSON)]
)
def test_a_rigged_range_prints_its_failures(monkeypatch, fmt, document):
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    k, name, change, _ = RIGS["pole-level"]
    _rig(monkeypatch, k, name, change)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "--k", "8..10", "--format", fmt])
    assert code == 2
    assert out.getvalue() == document
