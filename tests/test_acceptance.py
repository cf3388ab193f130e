"""Acceptance gate: one test per published claim, each printing a
visible PASS/FAIL line with its runtime against the stated budget.

Everything here is exact rational arithmetic; the budgets are wall-clock
ceilings, not tolerances.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from airymoments.errors import InconsistencyError
from airymoments import connection
from airymoments.moments import h1_dims, mk_invariants, rho_preimage
from airymoments.connection import (
    build_symk,
    h1_dim_bruteforce,
    omega_class,
    omega_level,
    reduce_to_basis,
)
from airymoments.asymptotics import (
    aibi_series,
    aibi_series_ode_oracle,
    gamma,
    mid_basis,
)
from airymoments.hodge import g_levels, hodge_numbers, tilde_mid_hodge, yu_pole_level


@contextmanager
def criterion(capsys, name, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"{name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    tail = f" ({elapsed:.2f}s, budget {budget:g}s)" if budget else f" ({elapsed:.2f}s)"
    with capsys.disabled():
        print(f"{name}: PASS{tail}")
    if budget is not None:
        assert elapsed < budget, f"{name} took {elapsed:.2f}s, budget {budget}s"


def F(a, b=1):
    return Fraction(a, b)


def test_criterion_1_graded_tables(capsys):
    with criterion(capsys, "criterion 1: graded tables, k = 2..40", 1.0):
        for k in range(2, 41):
            full, mid = hodge_numbers(k)
            assert full.is_symmetric() and mid.is_symmetric()
            assert all(h == 1 for _, _, h in full.entries)
            kp = (k - 1) // 2
            expected_all = kp + 1 if k % 2 else kp
            expected_mid = expected_all - (1 if k % 4 == 0 else 0)
            assert full.total() == expected_all
            assert mid.total() == expected_mid
        assert hodge_numbers(3)[0].entries == (
            (F(5, 3), F(7, 3), 1),
            (F(7, 3), F(5, 3), 1),
        )
        assert hodge_numbers(4)[0].entries == ((F(3), F(3), 1),)
        assert hodge_numbers(4)[1].entries == ()
        assert hodge_numbers(5)[0].entries == (
            (F(7, 3), F(11, 3), 1),
            (F(3), F(3), 1),
            (F(11, 3), F(7, 3), 1),
        )
        assert hodge_numbers(6)[0].entries == (
            (F(8, 3), F(13, 3), 1),
            (F(13, 3), F(8, 3), 1),
        )
        assert hodge_numbers(8)[0].entries == (
            (F(10, 3), F(17, 3), 1),
            (F(5), F(5), 1),
            (F(17, 3), F(10, 3), 1),
        )


@pytest.fixture
def engine(monkeypatch):
    """Empty the brute force's held image and dims table, so that a
    budget times the engine, not answers certified earlier."""
    monkeypatch.setattr(connection, "_STABLE_CACHE", {})
    monkeypatch.setattr(connection, "_CERTIFIED", {})


def test_criterion_2_bruteforce_order_two(capsys, engine):
    with criterion(capsys, "criterion 2: brute force vs closed form, order 2", 3.0):
        for k in range(1, 21):
            dim, _ = h1_dim_bruteforce(build_symk(2, k), "a1")
            assert dim == h1_dims(2, k).all, f"k={k}"
        for k in range(1, 15):
            kp = (k - 1) // 2
            expected = 3 * (kp + 1) if k % 2 else k + kp + 1
            for twist in (Fraction(0), Fraction(1, 2)):
                dim, _ = h1_dim_bruteforce(build_symk(2, k, twist), "gm")
                assert dim == expected, f"k={k}, twist={twist}"


def test_criterion_3_bruteforce_higher_order(capsys, engine):
    with criterion(capsys, "criterion 3: brute force vs closed form, orders 3 and 4", 3.0):
        for k in range(2, 9):
            dim, _ = h1_dim_bruteforce(build_symk(3, k), "a1")
            assert dim == h1_dims(3, k).all, f"n=3, k={k}"
        for k in range(2, 7):
            dim, _ = h1_dim_bruteforce(build_symk(4, k), "a1")
            assert dim == h1_dims(4, k).all, f"n=4, k={k}"


def test_criterion_4_series_routes(capsys):
    with criterion(capsys, "criterion 4: asymptotic series, two routes", 30.0):
        direct = aibi_series(40)
        oracle = aibi_series_ode_oracle(40)
        assert direct.coefficients == oracle.coefficients
        assert len(direct.coefficients) == 40
        assert direct.coefficients[1] == F(5, 32)
        for k in (4, 8, 12, 16):
            table = gamma(k, 30)
            assert len(table.coefficients) == 30
            assert table.coefficients[0] == 1
            assert all(value > 0 for value in table.coefficients)
            assert table.offset == F(k, 4)


def test_criterion_5_level_multisets(capsys):
    with criterion(capsys, "criterion 5: filtration level multisets"):
        for k in range(4, 41, 2):
            table = tilde_mid_hodge(k)
            level_counts: dict[Fraction, int] = {}
            for level, colevel, h in table.entries:
                assert level + colevel == k + 1
                level_counts[level] = level_counts.get(level, 0) + h
            for level, count in level_counts.items():
                assert level_counts.get(F(k + 1) - level) == count
            reference = g_levels(k, "tilde").counter()
            bound = F(k, 2) + 1
            assert {
                level: count
                for level, count in level_counts.items()
                if level > bound
            } == {
                level: count
                for level, count in reference.items()
                if level > bound
            }, f"k={k}"
        for k in range(3, 40, 2):
            full, _ = hodge_numbers(k)
            assert full.p_multiset() == g_levels(k, "Ai").counter(), f"k={k}"


def test_criterion_6_mid_basis_inside_brute_cohomology(capsys):
    with criterion(capsys, "criterion 6: middle basis inside brute-force H^1"):
        for k in (4, 8, 12, 16):
            module = build_symk(2, k)
            mid = mid_basis(k)
            dims = h1_dims(2, k)
            assert len(mid) == dims.mid == dims.all - 1, f"k={k}"
            for pos, cls in enumerate(mid.classes):
                coords = reduce_to_basis(cls, mid, module)
                assert coords == tuple(
                    F(1 if q == pos else 0) for q in range(len(mid))
                ), f"k={k}, class {pos}"
            with pytest.raises(InconsistencyError):
                reduce_to_basis(omega_class(k // 4), mid, module)


def test_criterion_7_pole_admissibility(capsys):
    with criterion(capsys, "criterion 7: pole orders admissible, even k = 4..40"):
        for k in range(4, 41, 2):
            kp = (k - 1) // 2
            cases = (
                [
                    ("plain", i, 0, omega_level(k, i))
                    for i in range(1, k // 4 + 1)
                ]
                + [
                    ("twisted", i, 0, F(k + 1) - F(k + 2 * i + 1, 3))
                    for i in range(1, kp // 2 + 1)
                ]
                + [
                    ("twisted", 0, j, F(k + 1) - F(k + j + 1, 3))
                    for j in range(0, kp + 1)
                ]
            )
            for variant, r, nu, level in cases:
                result = yu_pole_level(k, r, nu, variant)
                assert result.admissible, f"k={k}, {variant}, r={r}, nu={nu}"
                assert result.f_level == level, f"k={k}, {variant}, r={r}, nu={nu}"


def test_criterion_8_dual_module_invariants(capsys):
    with criterion(capsys, "criterion 8: dual-module invariants, even k = 2..40"):
        for k in range(2, 41, 2):
            third = k // 3
            ranks = []
            for epsilon in range(3):
                inv = mk_invariants(k, epsilon)
                if epsilon == 0:
                    expected_rank = 2 * (third + 1) if k % 3 else 2 * third
                else:
                    expected_rank = (
                        2 * third + 1 if k % 3 != 2 else 2 * (third + 1)
                    )
                assert inv.rank == expected_rank, f"k={k}, eps={epsilon}"
                assert inv.singular_points == tuple(
                    F(2 * (2 * j - k), 3) for j in range(k + 1)
                )
                assert sum(inv.nu) == k + 1
                assert inv.nu == tuple(
                    sum(1 for j in range(k + 1) if (k + j) % 3 == c)
                    for c in range(3)
                )
                fiber_mass = sum(
                    rho_preimage(k, epsilon, p) for p in range(0, k + 2)
                )
                assert fiber_mass == inv.rank, f"k={k}, eps={epsilon}"
                assert inv.phi_unit_dim == (1 if epsilon == 0 else 0)
                assert inv.psi_unit_dim == inv.rank - (epsilon != 0)
                ranks.append(inv.rank)
            assert sum(ranks) == 2 * (k + 1), f"k={k}"
