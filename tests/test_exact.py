from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airymoments import cli
from airymoments.connection import (
    CohomologyBasis,
    ModuleElement,
    _Echelon,
    build_symk,
    h1_a1_basis,
)
from airymoments.errors import DomainError
from airymoments.asymptotics import OffsetSeries, gamma
from airymoments.hodge import g_levels, hodge_numbers, verify
from airymoments.moments import formal_decomposition, mk_invariants
from airymoments.exact import (
    Polynomial,
    compositions,
    format_rational,
    polynomial_gcd,
)

from series_reference import series_mul, series_pow

Z = Polynomial.monomial(1)
rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=12
)


def test_format_rational_integer_stays_bare():
    assert format_rational(Fraction(5)) == "5"
    assert format_rational(Fraction(-3)) == "-3"
    assert format_rational(Fraction(3, 1)) == "3"


def test_format_rational_fraction():
    assert format_rational(Fraction(5, 3)) == "5/3"
    assert format_rational(Fraction(-7, 2)) == "-7/2"


@given(rationals)
def test_rational_round_trip(q):
    assert Fraction(format_rational(q)) == q


def test_polynomial_basics():
    p = Polynomial(tuple(enumerate([1, 2, 1])))
    assert p.degree == 2
    assert p.coefficients() == [1, 2, 1]
    assert str(p) == "z^2 + 2*z + 1"
    q = Polynomial(tuple(enumerate([Fraction(-5, 6), -1, 0, Fraction(5, 6)])))
    assert q.format("x") == "5/6*x^3 - x - 5/6"
    assert str(q) == q.format("z") == "5/6*z^3 - z - 5/6"
    assert (Z * Z + 2 * Z + 1) == p


def test_polynomial_zero_conventions():
    zero = Polynomial()
    assert zero.degree == -1
    assert zero.is_zero()
    assert str(zero) == "0"
    assert zero.derivative() == zero


def test_polynomial_derivative():
    p = Polynomial(tuple(enumerate([3, 0, 5])))
    assert p.derivative() == Polynomial(tuple(enumerate([0, 10])))


def test_polynomial_divmod_exact():
    square = (Z + 1) * (Z + 1)
    q, r = divmod(square, Z + 1)
    assert q == Z + 1
    assert r.is_zero()
    with pytest.raises(DomainError):
        (Z * Z + 1).exact_divide(Z + 1)


def test_polynomial_gcd_is_monic():
    a = (Z + 1) * (Z - 2) * 3
    b = (Z + 1) * (Z + 5) * Fraction(1, 7)
    assert polynomial_gcd(a, b) == Z + 1


@given(
    st.lists(rationals, min_size=1, max_size=4),
    st.lists(rationals, min_size=1, max_size=4),
)
def test_polynomial_product_degree(a, b):
    pa = Polynomial(tuple(enumerate(a)))
    pb = Polynomial(tuple(enumerate(b)))
    product = pa * pb
    if pa.is_zero() or pb.is_zero():
        assert product.is_zero()
    else:
        assert product.degree == pa.degree + pb.degree
        assert (
            product.leading_coefficient()
            == pa.leading_coefficient() * pb.leading_coefficient()
        )


# Constructor normal forms, against a reference normaliser: sum per key,
# drop zeros, sort.  Small key ranges and coefficients that include
# opposite pairs draw repeated keys and sums that cancel to zero.


def _reference_normal_form(pairs) -> tuple:
    sums: dict = {}
    for key, value in pairs:
        sums[key] = sums.get(key, 0) + value
    return tuple((key, sums[key]) for key in sorted(sums) if sums[key])


small_coefficients = st.sampled_from(
    [0, 1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3)]
)
raw_terms = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3), small_coefficients),
    max_size=8,
)


@given(raw_terms)
def test_polynomial_constructor_matches_reference_normaliser(terms):
    poly = Polynomial(tuple(terms))
    assert poly.terms == _reference_normal_form(terms)
    assert all(type(c) is Fraction for _, c in poly.terms)


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["u0", "u1", "u2"]),
            raw_terms | small_coefficients,
        ),
        max_size=6,
    )
)
def test_module_element_constructor_matches_reference_normaliser(coordinates):
    # a bare coefficient stands for a constant polynomial
    element = ModuleElement(
        tuple(
            (label, Polynomial(tuple(v)) if isinstance(v, list) else v)
            for label, v in coordinates
        )
    )
    flat = [
        ((label, degree), c)
        for label, poly in element.coordinates
        for degree, c in poly.terms
    ]
    assert tuple(flat) == _reference_normal_form(
        ((label, degree), c)
        for label, value in coordinates
        for degree, c in (value if isinstance(value, list) else [(0, value)])
    )
    assert all(not poly.is_zero() for _, poly in element.coordinates)


# Every public record, and the fields it is built from: raw ones where
# the constructor normalises them, else None, its own fields.  Built
# again, it must be equal and hash equal, and no field may be assigned.
@pytest.mark.parametrize(
    "record, raw",
    [
        (Z, (((1, 2), (0, 0), (1, Fraction(-1))),)),
        (
            ModuleElement((("u1", Polynomial.constant(2)),)),
            ((("u1", 1), ("u0", Polynomial()), ("u1", Fraction(1))),),
        ),
        (
            cli.RunConfig("hodge", (5,), twist=Fraction(1, 2)),
            ("hodge", (5,), 2, "text", None, 30, "a1", "1/2"),
        ),
        (build_symk(2, 3), None),
        (h1_a1_basis(5), None),
        (gamma(4, 3), None),
        (hodge_numbers(6)[0], None),
        (g_levels(6, "Ai"), None),
        (verify(range(2, 4)), None),
        (verify(range(2, 4)).results[0], None),
        (formal_decomposition(3, 2), None),
        (mk_invariants(6, 1), None),
    ],
    ids=lambda value: {tuple: "raw", type(None): "copy"}.get(
        type(value), type(value).__name__
    ),
)
def test_records_compare_by_value_and_refuse_assignment(record, raw):
    twin = type(record)(*(record if raw is None else raw))
    assert twin is not record
    assert twin == record and hash(twin) == hash(record)
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))


# The exact elimination kernel: a matrix is a list of integer rows, and
# row r becomes the vector {column: entry}, its zero entries included:
# the kernel drops them.


def _vector(row) -> dict:
    return dict(enumerate(row))


def _echelon(rows) -> tuple[_Echelon, int]:
    """Echelon of the rows and its rank (the inserts that landed)."""
    echelon = _Echelon()
    rank = sum(echelon.insert(_vector(row)) for row in rows)
    return echelon, rank


def _transpose(rows):
    return [list(column) for column in zip(*rows)]


def _cokernel_positions(rows) -> list[int]:
    """Coordinates whose unit vectors represent a basis of the cokernel
    of the matrix acting on column vectors: the non-pivot positions of
    the echelon of its columns."""
    image, _ = _echelon(_transpose(rows))
    return [pos for pos in range(len(rows)) if pos not in image.rows]


def test_row_reduce_frozen_example():
    echelon = _Echelon()
    assert echelon.insert({0: 1, 1: 2})
    assert not echelon.insert({0: 2, 1: 4})
    assert echelon.rows == {0: {0: 1, 1: 2}}
    # stored rows are primitive with a positive leading entry
    assert echelon.insert({1: -6, 2: 4})
    assert echelon.rows[1] == {1: 3, 2: -2}


def test_cokernel_of_zero_map():
    assert _cokernel_positions([[0]]) == [0]


def test_cokernel_of_injection():
    assert _cokernel_positions([[1], [0]]) == [1]


def test_full_rank_has_trivial_cokernel():
    assert _cokernel_positions([[1, 1], [0, 1]]) == []


integer_matrices = st.integers(1, 5).flatmap(
    lambda rows: st.integers(1, 5).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(-9, 9), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
)


@given(integer_matrices)
@settings(max_examples=80, deadline=None)
def test_rank_equals_transpose_rank(rows):
    _, rank = _echelon(rows)
    _, transposed = _echelon(_transpose(rows))
    assert rank == transposed


@given(integer_matrices)
@settings(max_examples=60, deadline=None)
def test_rank_nullity_for_cokernel(rows):
    _, rank = _echelon(rows)
    cokernel = _cokernel_positions(rows)
    assert rank + len(cokernel) == len(rows)
    # the image and the cokernel representatives span the whole space
    whole, _ = _echelon(_transpose(rows))
    assert all(whole.insert({pos: 1}) for pos in cokernel)
    assert len(whole.rows) == len(rows)


@given(integer_matrices)
@settings(max_examples=60, deadline=None)
def test_row_reduce_idempotent(rows):
    echelon, rank = _echelon(rows)
    again = _Echelon()
    assert all(again.insert(dict(row)) for row in echelon.rows.values())
    assert again.rows == echelon.rows
    assert not any(echelon.insert(dict(row)) for row in again.rows.values())
    assert len(echelon.rows) == rank


def _normal_form(
    echelon: _Echelon, vector: dict[int, Fraction]
) -> dict[int, Fraction]:
    """The kernel's normal form of a rational vector, through its
    (scale, integer vector) signature."""
    scale = math.lcm(*(v.denominator for v in vector.values()))
    ints = {
        pos: v.numerator * (scale // v.denominator)
        for pos, v in vector.items()
    }
    scale, out = echelon.normal_form((scale, ints))
    return {pos: Fraction(v, scale) for pos, v in out.items()}


@given(
    integer_matrices,
    st.lists(rationals, min_size=5, max_size=5),
)
@settings(max_examples=80, deadline=None)
def test_normal_form_of_row_combination_is_zero(rows, weights):
    echelon, _ = _echelon(rows)
    combination: dict[int, Fraction] = {}
    for weight, row in zip(weights, rows):
        for col, value in enumerate(row):
            combination[col] = combination.get(col, Fraction(0)) + weight * value
    sparse = {col: value for col, value in combination.items() if value}
    assert _normal_form(echelon, sparse) == {}
    unit = {len(rows[0]): Fraction(1)}
    assert _normal_form(echelon, unit) == unit


# Reference kernel: the same elimination with the content divided out
# after every step and normal forms carried in Fractions.  Both drop the
# zero entries of what they are given, so no stored row or normal form
# holds a zero.  The kernel must store the same rows, in the same order,
# and return the same normal forms.


def _oracle_reduce_content(row: dict[int, int]) -> None:
    g = 0
    for value in row.values():
        g = math.gcd(g, value)
        if g == 1:
            return
    if g > 1:
        for pos in row:
            row[pos] //= g


def _oracle_insert(rows: dict[int, dict[int, int]], row: dict[int, int]) -> bool:
    row = {pos: value for pos, value in row.items() if value}
    while row:
        lead = min(row)
        pivot = rows.get(lead)
        if pivot is None:
            _oracle_reduce_content(row)
            if row[lead] < 0:
                for pos in row:
                    row[pos] = -row[pos]
            rows[lead] = row
            return True
        a = pivot[lead]
        b = row.pop(lead)
        g = math.gcd(a, b)
        ma, mb = a // g, b // g
        for pos in row:
            row[pos] *= ma
        for pos, value in pivot.items():
            if pos == lead:
                continue
            updated = row.get(pos, 0) - mb * value
            if updated:
                row[pos] = updated
            else:
                row.pop(pos, None)
        if row:
            _oracle_reduce_content(row)
    return False


def _oracle_normal_form(rows, vector: dict[int, Fraction]) -> dict[int, Fraction]:
    work = {pos: value for pos, value in vector.items() if value}
    out: dict[int, Fraction] = {}
    while work:
        pos = min(work)
        value = work.pop(pos)
        pivot = rows.get(pos)
        if pivot is None:
            out[pos] = value
            continue
        factor = Fraction(value, pivot[pos])
        for q, v in pivot.items():
            if q == pos:
                continue
            updated = work.get(q, 0) - factor * v
            if updated:
                work[q] = updated
            else:
                work.pop(q, None)
    return out


WIDE = 10**6
wide_entries = st.one_of(
    st.just(0), st.integers(-3, 3), st.integers(-WIDE, WIDE)
)


@st.composite
def sparse_matrices(draw):
    """Sparse integer rows with wide entries, negative leads included,
    plus a few integer combinations of them, which reduce to zero."""
    cols = draw(st.integers(1, 8))
    rows = draw(st.lists(
        st.lists(wide_entries, min_size=cols, max_size=cols),
        min_size=1,
        max_size=10,
    ))
    for _ in range(draw(st.integers(0, 3))):
        weights = draw(st.lists(
            st.integers(-1000, 1000), min_size=len(rows), max_size=len(rows)
        ))
        rows.append([
            sum(w * row[c] for w, row in zip(weights, rows))
            for c in range(cols)
        ])
    return draw(st.permutations(rows))


@given(sparse_matrices())
@settings(max_examples=120, deadline=None)
def test_insert_matches_reference_kernel(rows):
    echelon = _Echelon()
    reference: dict[int, dict[int, int]] = {}
    for row in rows:
        landed = echelon.insert(_vector(row))
        assert landed == _oracle_insert(reference, _vector(row))
    assert list(echelon.rows.items()) == list(reference.items())


wide_rationals = st.fractions(
    min_value=-WIDE, max_value=WIDE, max_denominator=60
)


@given(sparse_matrices(), st.data())
@settings(max_examples=120, deadline=None)
def test_normal_form_matches_reference_kernel(rows, data):
    echelon, _ = _echelon(rows)
    width = len(rows[0]) + 2
    vector = data.draw(st.dictionaries(
        st.integers(0, width - 1), wide_rationals, max_size=width
    ))
    expected = _oracle_normal_form(echelon.rows, vector)
    assert _normal_form(echelon, vector) == expected
    assert _normal_form(echelon, {}) == {} == _oracle_normal_form(echelon.rows, {})


def test_normal_form_rescales_entries_already_set_aside():
    # 0 has no pivot and is set aside at scale 1; the pivot at 1 has
    # lead 3, which does not divide the entry 1 there, so the row is
    # scaled by 3; 2 and 3 are set aside at scale 3; the pivot at 4 has
    # lead 2, not dividing the entry 3 there, which scales by 2 again.
    # Every entry set aside must come out at the final scale 6.
    echelon = _Echelon()
    assert echelon.insert({1: 3, 2: 1})
    assert echelon.insert({4: 2, 5: 1})
    vector = {0: 1, 1: 1, 3: 1, 4: 1}
    assert echelon.normal_form((1, vector)) == (6, {0: 6, 2: -2, 3: 6, 5: -3})
    expected = {0: Fraction(1), 2: Fraction(-1, 3), 3: Fraction(1), 5: Fraction(-1, 2)}
    as_fractions = {pos: Fraction(v) for pos, v in vector.items()}
    assert _oracle_normal_form(echelon.rows, as_fractions) == expected
    assert _normal_form(echelon, as_fractions) == expected


def test_insert_skips_an_entry_that_cancelled_and_came_back():
    # Against the pivots at 0, 1 and 2: the step at 0 cancels the entry
    # at 2 (2 - 2 * 1), the step at 1 brings it back (0 + 3 * 1), so id
    # 2 is queued twice; the step at 2 (lead 2 against 3: scale 2)
    # leaves -1 at 3 and 10 at 4, and the second 2 must be passed over.
    pivots = ({2: 2, 3: 1}, {1: 3, 2: -1}, {0: 2, 2: 1})
    row = {0: 4, 1: 9, 2: 2, 3: 1, 4: 5}
    echelon = _Echelon()
    reference: dict[int, dict[int, int]] = {}
    for pivot in pivots:
        assert echelon.insert(dict(pivot))
        assert _oracle_insert(reference, dict(pivot))
    assert echelon.insert(dict(row))
    assert _oracle_insert(reference, dict(row))
    assert echelon.rows[3] == {3: 1, 4: -10}
    assert list(echelon.rows.items()) == list(reference.items())


def test_insert_drops_a_zero_at_a_free_id():
    # A zero at an id with no pivot is no lead: the row is stored under
    # its first nonzero entry, and a vector at that id is left as it is.
    echelon = _Echelon()
    assert echelon.insert({0: 0, 1: 1})
    assert echelon.rows == {1: {1: 1}}
    assert echelon.normal_form((1, {0: 1})) == (1, {0: 1})
    reference: dict[int, dict[int, int]] = {}
    assert _oracle_insert(reference, {0: 0, 1: 1})
    assert reference == echelon.rows


def test_normal_form_drops_a_zero_at_a_free_id():
    # A vector in the row space reduces to no entry at all, not to a
    # zero that would read as a residual outside the span.
    echelon = _Echelon()
    assert echelon.insert({1: 1})
    assert echelon.normal_form((1, {0: 0, 1: 2})) == (1, {})
    assert _oracle_normal_form(echelon.rows, {0: Fraction(0), 1: Fraction(2)}) == {}


def _fractions(*values) -> tuple[Fraction, ...]:
    return tuple(map(Fraction, values))


def test_series_product_truncates_to_shorter_factor():
    a = OffsetSeries(Fraction(0), _fractions(1, 1, 1))
    b = OffsetSeries(Fraction(0), _fractions(1, 1))
    product = series_mul(a, b)
    assert product.coefficients == (Fraction(1), Fraction(2))


def test_series_offsets_add():
    a = OffsetSeries(Fraction(1, 2), _fractions(1, 2))
    product = series_mul(a, a)
    assert product.offset == 1
    assert product.coefficients == (Fraction(1), Fraction(4))


def test_series_pow_requires_positive_integer():
    s = OffsetSeries(Fraction(0), _fractions(1, 1))
    with pytest.raises(DomainError):
        series_pow(s, 0)


def _iterated_power(s, exponent):
    expected = s
    for _ in range(exponent - 1):
        expected = series_mul(expected, s)
    return expected


@given(
    st.integers(0, 3),
    st.lists(rationals, min_size=1, max_size=6),
    st.integers(1, 8),
)
@settings(max_examples=120, deadline=None)
def test_series_pow_matches_iterated_product(zeros, coeffs, exponent):
    s = OffsetSeries(Fraction(1, 3), _fractions(*[0] * zeros, *coeffs))
    assert series_pow(s, exponent) == _iterated_power(s, exponent)


@pytest.mark.parametrize("exponent", range(1, 9))
@pytest.mark.parametrize(
    "coeffs",
    [(0,), (0, 0, 0, 0), (0, 3), (0, 0, 1, 2, 5), (0, Fraction(-1, 2), 7, 1)],
)
def test_series_pow_leading_and_all_zero(coeffs, exponent):
    s = OffsetSeries(Fraction(1, 2), _fractions(*coeffs))
    powered = series_pow(s, exponent)
    assert powered == _iterated_power(s, exponent)
    assert len(powered.coefficients) == len(s.coefficients)
    assert powered.offset == exponent * s.offset


@given(st.integers(1, 5), st.integers(0, 7))
def test_compositions_count(parts, total):
    out = list(compositions(parts, total))
    assert len(out) == len(set(out))
    assert all(sum(c) == total and len(c) == parts for c in out)
    from math import comb

    assert len(out) == comb(total + parts - 1, parts - 1)
