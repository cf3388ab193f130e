from __future__ import annotations

import cProfile
import hashlib
import math
import pstats
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airymoments import asymptotics
from airymoments.errors import DomainError, InconsistencyError
from airymoments.exact import Polynomial
from airymoments.connection import ModuleElement, h1_a1_basis, omega_class
from airymoments.moments import h1_dims
from airymoments.asymptotics import (
    OffsetSeries,
    aibi_series,
    aibi_series_ode_oracle,
    gamma,
    mid_basis,
    symmetric_square_operator,
)

from series_reference import series_mul, series_pow

HALF = Fraction(1, 2)
Z = Polynomial.monomial(1)


def _product_coefficient_by_definition(n):
    numerator = 1
    for t in range(2 * n):
        numerator *= 2 * n + 2 * t + 1
    return Fraction(numerator, 2 ** (2 * n) * 54**n * math.factorial(n))


def test_product_coefficients_start():
    values = [_product_coefficient_by_definition(n) for n in range(3)]
    assert values == [1, Fraction(5, 72), Fraction(385, 10368)]


def test_product_route_matches_aibi_series():
    # third route: the product of the one-sided expansions, whose cross
    # terms of odd order cancel in pairs
    terms = 60
    c = [_product_coefficient_by_definition(n) for n in range(2 * terms - 1)]
    cross = [
        sum((-1) ** a * c[a] * c[order - a] for a in range(order + 1))
        for order in range(2 * terms - 1)
    ]
    assert not any(cross[1::2])
    expected = tuple(
        Fraction(9, 4) ** j * cross[2 * j] for j in range(terms)
    )
    assert aibi_series(terms).coefficients == expected


def test_aibi_series_first_terms():
    series = aibi_series(3)
    assert series.offset == HALF
    assert series.coefficients[0] == 1
    assert series.coefficients[1] == Fraction(5, 32)
    assert series.coefficients[2] == Fraction(1155, 2048)


def test_aibi_numerators_are_odd_double_factorials():
    # A_j is the product of the odd numbers below 6j: (6j)! / (8^j (3j)!)
    numerators = asymptotics._aibi_numerators(120)
    assert numerators == [
        math.factorial(6 * j) // (8**j * math.factorial(3 * j))
        for j in range(120)
    ]


def test_aibi_series_needs_a_term():
    with pytest.raises(DomainError):
        aibi_series(0)


def test_symmetric_square_operator_coefficients():
    op = symmetric_square_operator()
    assert op == (
        Polynomial.constant(-2),
        -4 * Z,
        Polynomial.constant(0),
        Polynomial.constant(1),
    )


def test_symmetric_square_operator_is_built_once():
    assert symmetric_square_operator() is symmetric_square_operator()


# SHA-256 of repr((offset, step, coefficients)) of the 40-term oracle
# series, as computed before the operator was cached.  The series no
# longer stores its step, which was always 3.
ORACLE_40_DIGEST = (
    "555f9470ab42484220035bd8cdee1b79178dd8663bc232c5422b8691ce0fbc13"
)


def test_ode_oracle_is_pinned():
    for _ in range(2):
        s = aibi_series_ode_oracle(40)
        text = repr((s.offset, Fraction(3), s.coefficients))
        assert hashlib.sha256(text.encode()).hexdigest() == ORACLE_40_DIGEST


def test_ode_oracle_agrees_with_product_route():
    direct = aibi_series(40)
    oracle = aibi_series_ode_oracle(40)
    assert direct == oracle


@given(st.integers(min_value=1, max_value=120))
@settings(max_examples=15, deadline=None)
def test_routes_agree_at_any_length(terms):
    assert aibi_series(terms).coefficients == \
        aibi_series_ode_oracle(terms).coefficients


def test_gamma_table_values():
    assert gamma(4, 4).value_at(4) == Fraction(5, 16)
    assert gamma(8, 5).value_at(5) == Fraction(5, 8)
    assert gamma(16, 7).value_at(7) == Fraction(5, 4)


@pytest.mark.parametrize("k", [2, 4, 12, 40])
def test_gamma_matches_iterated_oracle_products(k):
    # third route: the ODE series raised by repeated multiplication
    base = aibi_series_ode_oracle(20)
    powered = base
    for _ in range(k // 2 - 1):
        powered = series_mul(powered, base)
    table = gamma(k, 20)
    assert table == powered


@given(st.integers(min_value=1, max_value=200), st.integers(1, 40))
@settings(max_examples=25, deadline=None)
def test_gamma_matches_fraction_power_of_the_oracle(half_k, terms):
    powered = series_pow(aibi_series_ode_oracle(terms), half_k)
    table = gamma(2 * half_k, terms)
    assert table == powered


@given(
    st.lists(st.integers(1, 10**6), min_size=1, max_size=25),
    st.integers(1, 30),
)
@settings(max_examples=60, deadline=None)
def test_integer_power_matches_fraction_power_of_any_positive_series(
    tail, half_k
):
    # the division by m is exact for any integer EGF, not only Ai*Bi's
    numerators = [1] + tail
    series = OffsetSeries(HALF, tuple(
        Fraction(a, 96**j * math.factorial(j))
        for j, a in enumerate(numerators)
    ))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(asymptotics, "_aibi_numerators", lambda terms: numerators)
        table = gamma(2 * half_k, len(numerators))
    assert table.coefficients == series_pow(series, half_k).coefficients


def test_gamma_at_k_two_is_the_series_itself():
    assert gamma(2, 150) == aibi_series(150)


def test_gamma_refuses_an_inexact_power_step(monkeypatch):
    monkeypatch.setattr(
        asymptotics, "_aibi_numerators", lambda terms: [1, Fraction(1, 2)]
    )
    with pytest.raises(InconsistencyError, match="step 1"):
        gamma(2, 2)


# SHA-256 over aibi_series(200), gamma(k, 40) for even k in 2..200 and
# gamma(10000, 30), recorded from the product route and the Fraction
# power before both were replaced by integer recurrences.
PINNED_SERIES_DIGEST = (
    "96d2f7494567b0ce912cc90d6416818d9e8e51c2ecff6f6b663f9354ed2351c0"
)


def test_series_tables_are_pinned():
    start = time.perf_counter()
    digest = hashlib.sha256()
    coefficients = aibi_series(200).coefficients
    digest.update(repr(("aibi", 200, [str(c) for c in coefficients])).encode())
    for k, terms in [(k, 40) for k in range(2, 201, 2)] + [(10000, 30)]:
        values = [str(v) for v in gamma(k, terms).coefficients]
        digest.update(repr(("gamma", k, terms, values)).encode())
    assert digest.hexdigest() == PINNED_SERIES_DIGEST
    assert time.perf_counter() - start < 5.0


def test_gamma_lattice():
    table = gamma(8, 6)
    assert table.offset == 2
    assert table.value_at(2) == 1
    assert table.value_at(3) == 0
    assert table.value_at(Fraction(7, 2)) == 0
    assert table.value_at(1) == 0
    with pytest.raises(DomainError):
        table.value_at(2 + 3 * 6)
    assert table.value_at(Fraction(-1)) == 0
    with pytest.raises(DomainError):
        table.value_at(2.0)


def test_gamma_validation():
    with pytest.raises(DomainError):
        gamma(3, 5)
    with pytest.raises(DomainError):
        gamma(4, 0)
    # rigs: gamma checks the values it is about to return
    rigs = [
        ((Fraction(2),), "leading"),
        ((Fraction(1), Fraction(-1)), "positive"),
    ]
    for values, check in rigs:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                asymptotics, "_over_96n_factorial", lambda _, v=values: v
            )
            with pytest.raises(InconsistencyError, match=check):
                gamma(4, len(values))


@given(st.integers(min_value=1, max_value=12))
@settings(max_examples=12, deadline=None)
def test_gamma_values_positive(half_k):
    table = gamma(2 * half_k, 8)
    assert table.coefficients[0] == 1
    assert all(value > 0 for value in table.coefficients)


def test_mid_basis_size_matches_dimension_count():
    for k in range(2, 18):
        assert len(mid_basis(k)) == h1_dims(2, k).mid


def test_mid_basis_passthrough_off_multiples_of_four():
    basis = mid_basis(6)
    assert basis.space == "mid"
    assert [str(c) for c in basis.classes] == ["u0", "z*u0"]


def test_mid_basis_at_four_is_empty():
    assert len(mid_basis(4)) == 0


def test_mid_basis_at_eight_needs_no_correction():
    # the correction coefficients sit off the exponent lattice
    basis = mid_basis(8)
    assert [str(c) for c in basis.classes] == ["u0", "z^2*u0"]
    assert basis.g_levels == (Fraction(17, 3), Fraction(13, 3))


def test_mid_basis_at_sixteen_carries_one_correction():
    basis = mid_basis(16)
    rendered = [str(c) for c in basis.classes]
    assert rendered[:5] == ["u0", "z*u0", "z^2*u0", "z^4*u0", "z^5*u0"]
    assert rendered[5] == "(z^6 - 5/4*z^3)*u0"
    assert len(basis) == 6
    assert basis.g_levels[5] == Fraction(7)


def test_mid_basis_matches_corrected_omega_classes():
    # the route mid_basis took before building each class directly:
    # omega_class(i) minus its gamma coefficient times the pivot class,
    # as one element over both classes' coordinates
    for k in range(4, 161, 4):
        kp, pivot = (k - 1) // 2, k // 4
        table = gamma(k, kp // 3 + 1)
        indices = [i for i in range(1, kp + 1) if i != pivot]
        basis = mid_basis(k)
        assert basis.classes == tuple(
            ModuleElement(
                omega_class(i).coordinates
                + tuple(
                    (label, poly * -table.value_at(i))
                    for label, poly in omega_class(pivot).coordinates
                )
            )
            for i in indices
        )
        levels = h1_a1_basis(k).g_levels
        assert basis.g_levels == tuple(levels[i - 1] for i in indices)


def _calls(stats: pstats.Stats, path_end: str, name: str) -> int:
    return sum(
        value[1]
        for (path, _, function), value in stats.stats.items()
        if path.endswith(path_end) and function == name
    )


def test_mid_basis_builds_one_polynomial_per_class():
    profiler = cProfile.Profile()
    basis = profiler.runcall(mid_basis, 160)
    stats = pstats.Stats(profiler)
    # Polynomial is the only class of exact.py with a __post_init__;
    # the series that mid_basis builds is an asymptotics.OffsetSeries
    built = _calls(stats, "exact.py", "__post_init__")
    assert built <= len(basis) + 2


def test_gamma_never_calls_factorial():
    profiler = cProfile.Profile()
    profiler.runcall(lambda: [gamma(k, 40) for k in (2, 40, 160)])
    stats = pstats.Stats(profiler)
    assert _calls(stats, "~", "<built-in method math.factorial>") == 0
    assert _calls(stats, "asymptotics.py", "gamma") == 3
