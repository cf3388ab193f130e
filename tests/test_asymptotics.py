from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airymoments.errors import DomainError, InconsistencyError
from airymoments.exact import Polynomial, Z, series_mul
from airymoments.moments import h1_dims
from airymoments.asymptotics import (
    GammaTable,
    aibi_series,
    aibi_series_ode_oracle,
    gamma,
    mid_basis,
    product_coefficients,
    symmetric_square_operator,
)

HALF = Fraction(1, 2)


def test_product_coefficients_start():
    values = product_coefficients(3)
    assert values[0] == 1
    assert values[1] == Fraction(5, 72)
    assert values[2] == Fraction(385, 10368)


def _product_coefficient_by_definition(n):
    numerator = 1
    for t in range(2 * n):
        numerator *= 2 * n + 2 * t + 1
    return Fraction(numerator, 2 ** (2 * n) * 54**n * math.factorial(n))


def test_product_coefficients_match_definition():
    values = product_coefficients(80)
    assert len(values) == 80
    for n, value in enumerate(values):
        assert value == _product_coefficient_by_definition(n)


def test_aibi_series_first_terms():
    series = aibi_series(3)
    assert series.offset == HALF
    assert series.step == 3
    assert series.coefficients[0] == 1
    assert series.coefficients[1] == Fraction(5, 32)
    assert series.coefficients[2] == Fraction(1155, 2048)


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


def test_ode_oracle_agrees_with_product_route():
    direct = aibi_series(40)
    oracle = aibi_series_ode_oracle(40)
    assert direct.offset == oracle.offset
    assert direct.step == oracle.step
    assert direct.coefficients == oracle.coefficients


@given(st.integers(min_value=1, max_value=25))
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
    assert table.offset == powered.offset
    assert table.values == powered.coefficients


def test_gamma_lattice():
    table = gamma(8, 6)
    assert table.offset == 2
    assert table.value_at(2) == 1
    assert table.value_at(3) == 0
    assert table.value_at(Fraction(7, 2)) == 0
    assert table.value_at(1) == 0
    with pytest.raises(DomainError):
        table.value_at(2 + 3 * 6)


def test_gamma_validation():
    with pytest.raises(DomainError):
        gamma(3, 5)
    with pytest.raises(DomainError):
        gamma(4, 0)
    with pytest.raises(InconsistencyError):
        GammaTable(k=4, offset=Fraction(1), values=(Fraction(2),))
    with pytest.raises(InconsistencyError):
        GammaTable(
            k=4,
            offset=Fraction(1),
            values=(Fraction(1), Fraction(-1)),
        )


@given(st.integers(min_value=1, max_value=12))
@settings(max_examples=12, deadline=None)
def test_gamma_values_positive(half_k):
    table = gamma(2 * half_k, 8)
    assert table.values[0] == 1
    assert all(value > 0 for value in table.values)


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
