"""Asymptotics of the product of the two standard solutions of the
order-2 Airy-type equation, and the middle-cohomology basis built from
them.

The expansion of the normalised solution product in the inverse variable
w = 1/z is computed by two independent routes: the closed-form ratio of
consecutive coefficients (DLMF 9.7(ii)), and a formal solution of the
third-order symmetric-square equation derived from the connection by a
cyclic-vector elimination.  The k/2-th powers of that series, computed
in integers, give the correction coefficients for the middle-cohomology
basis.  The series and every power of it are one type,
:class:`OffsetSeries`, on a lattice of exponents 3 apart.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple

from .connection import (
    HALF,
    CohomologyBasis,
    ModuleElement,
    build_symk,
    h1_a1_basis,
    omega_level,
)
from .errors import DomainError, InconsistencyError
from .exact import Polynomial, polynomial_gcd

ZERO = Fraction(0)


class OffsetSeries(NamedTuple):
    """Truncated series in w = 1/z on the lattice ``offset + 3j``:
    ``coefficients[j]`` is the coefficient of w^(offset + 3j).

    Exponents off the lattice have coefficient zero; exponents past the
    stored range are unknown, not zero.
    """

    offset: Fraction
    coefficients: tuple[Fraction, ...]

    def value_at(self, index: int | Fraction) -> Fraction:
        """Coefficient at exponent ``index``; zero off the lattice,
        error past the stored range.  The position (index - offset) / 3
        is found in integers."""
        if not isinstance(index, (int, Fraction)):
            raise DomainError(f"exponent {index!r} is not exact")
        offset = self.offset
        j, off_lattice = divmod(
            index.numerator * offset.denominator
            - offset.numerator * index.denominator,
            3 * index.denominator * offset.denominator,
        )
        if j < 0 or off_lattice:
            return ZERO
        if j >= len(self.coefficients):
            raise DomainError(
                f"exponent {index} is beyond the tabulated range"
            )
        return self.coefficients[j]


def _aibi_numerators(terms: int) -> list[int]:
    """Integers A_j for j < ``terms``, with A_0 = 1 and
    A_j = A_(j-1) (6j-5)(6j-3)(6j-1), so that coefficient j of
    :func:`aibi_series` is A_j / (96^j j!)."""
    numerators = [1]
    for j in range(1, terms):
        numerators.append(
            numerators[-1] * (6 * j - 5) * (6 * j - 3) * (6 * j - 1)
        )
    return numerators


def _over_96n_factorial(numerators: list[int]) -> tuple[Fraction, ...]:
    """Value n is ``numerators[n]`` / (96^n n!); the denominator takes
    one multiplication per value."""
    values = []
    denominator = 1
    for n, a in enumerate(numerators):
        if n:
            denominator *= 96 * n
        values.append(Fraction(a, denominator))
    return tuple(values)


def aibi_series(terms: int) -> OffsetSeries:
    """Expansion of the normalised solution product in w = 1/z: the
    series w^(1/2) * (1 + ...) on the lattice 1/2 + 3j, with ``terms``
    coefficients.

    Coefficient j follows the closed-form ratio
    c_j = c_(j-1) (6j-5)(6j-3)(6j-1) / (96 j), c_0 = 1 (DLMF 9.7(ii)).
    """
    if terms < 1:
        raise DomainError("need at least one term")
    return OffsetSeries(HALF, _over_96n_factorial(_aibi_numerators(terms)))


def _det3(m: list[list[Polynomial]]) -> Polynomial:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


@functools.cache
def symmetric_square_operator() -> tuple[Polynomial, ...]:
    """Coefficients (p_0..p_3) of the third-order operator annihilating
    the top generator of the symmetric square of the order-2 connection,
    derived by cyclic-vector elimination and normalised to be primitive
    with positive leading coefficient.  Built once: the result is a
    constant tuple of immutable polynomials."""
    module = build_symk(2, 2)
    index = {label: i for i, label in enumerate(module.labels)}
    vectors = [{"u0": Polynomial.constant(1)}]
    for _ in range(3):
        current = vectors[-1]
        image: dict[str, Polynomial] = {}
        for label, poly in current.items():
            dp = poly.derivative()
            if not dp.is_zero():
                image[label] = image.get(label, Polynomial()) + dp
            for m, i, c in module.partial[index[label]]:
                target = module.labels[i]
                image[target] = image.get(target, Polynomial()) + (
                    poly * Polynomial.monomial(m, c)
                )
        vectors.append({lab: p for lab, p in image.items() if not p.is_zero()})
    matrix = [
        [vec.get(label, Polynomial()) for vec in vectors]
        for label in module.labels
    ]
    minors = []
    for r in range(4):
        cols = [c for c in range(4) if c != r]
        sub = [[matrix[i][c] for c in cols] for i in range(3)]
        minors.append((-1) ** r * _det3(sub))
    common = Polynomial()
    for p in minors:
        common = polynomial_gcd(common, p)
    if common.is_zero():
        raise InconsistencyError("cyclic-vector elimination degenerated")
    minors = [p.exact_divide(common) for p in minors]
    denominator = math.lcm(
        *(c.denominator for p in minors for _, c in p.terms)
    )
    numerator = 0
    for p in minors:
        for _, c in p.terms:
            numerator = math.gcd(numerator, c.numerator * denominator // c.denominator)
    scale = Fraction(denominator, numerator)
    leading = next(p for p in reversed(minors) if not p.is_zero())
    if leading.leading_coefficient() < 0:
        scale = -scale
    return tuple(p * scale for p in minors)


def aibi_series_ode_oracle(terms: int) -> OffsetSeries:
    """Independent route to :func:`aibi_series`: solve the symmetric
    square equation by a formal series in w = 1/z with leading exponent
    1/2, coefficient by coefficient.

    The recurrence must be nondegenerate at every step, and every
    coefficient off the lattice 1/2 + 3j must vanish; both facts are
    asserted.
    """
    if terms < 1:
        raise DomainError("need at least one term")
    operator = [
        (r, m, c)
        for r, poly in enumerate(symmetric_square_operator())
        for m, c in poly.terms
    ]
    shift_base = min(r - m for r, m, c in operator)
    groups: dict[int, list[tuple[int, Fraction]]] = {}
    for r, m, c in operator:
        groups.setdefault(r - m - shift_base, []).append((r, c))

    def pivot_value(sigma: int, tau: int) -> Fraction:
        # The rising factorial (1/2 + x)_r is the product of the odd
        # numbers 2x+1, 2x+3, .., 2x+2r-1 over 2^r.
        total = Fraction(0)
        for r, c in groups.get(sigma, ()):
            odd = 1
            for t in range(r):
                odd *= 2 * (tau - sigma + t) + 1
            total += c * Fraction((-1) ** r * odd, 2**r)
        return total

    if pivot_value(0, 0) != 0:
        raise InconsistencyError(
            "formal solution with leading exponent 1/2 does not exist"
        )
    count = 3 * (terms - 1) + 1
    coefficients = [Fraction(1)]
    for tau in range(1, count):
        pivot = pivot_value(0, tau)
        if pivot == 0:
            raise InconsistencyError(
                f"recurrence degenerates at step {tau}"
            )
        rhs = Fraction(0)
        for sigma in groups:
            if 0 < sigma <= tau and coefficients[tau - sigma]:
                rhs -= pivot_value(sigma, tau) * coefficients[tau - sigma]
        value = rhs / pivot
        if tau % 3 and value:
            raise InconsistencyError(
                f"nonzero coefficient off the exponent lattice at step {tau}"
            )
        coefficients.append(value)
    return OffsetSeries(HALF, tuple(coefficients[::3]))


def gamma(k: int, terms: int) -> OffsetSeries:
    """Asymptotic coefficients of the k/2-th power of the normalised
    solution product, for even k, on the lattice k/4 + 3j.  The leading
    value is 1 and every value is positive; both are asserted.

    With alpha = k/2 and the integers A_j of :func:`_aibi_numerators`,
    value n is B_n / (96^n n!), where B_0 = 1 and J.C.P. Miller's power
    recurrence (Knuth, TAOCP vol. 2, 4.7) reads, in integers,
    m B_m = sum_{j=1..m} ((alpha+1) j - m) C(m,j) A_j B_(m-j).
    The series sum A_j y^j / j! has integer coefficients as an
    exponential generating function, so its integer power does too and
    the division by m is exact; that is asserted at every step.
    """
    if k < 2 or k % 2:
        raise DomainError("the power is defined for even k >= 2")
    if terms < 1:
        raise DomainError("need at least one term")
    weight = k // 2 + 1
    numerators = _aibi_numerators(terms)
    powered = [1]
    for m in range(1, terms):
        total = 0
        binom = 1
        for j in range(1, m + 1):
            binom = binom * (m - j + 1) // j
            total += (weight * j - m) * binom * numerators[j] * powered[m - j]
        value, remainder = divmod(total, m)
        if remainder:
            raise InconsistencyError(
                f"power recurrence left a fraction at step {m}"
            )
        powered.append(value)
    values = _over_96n_factorial(powered)
    if values[0] != 1:
        raise InconsistencyError("leading coefficient must be 1")
    if any(value <= 0 for value in values):
        raise InconsistencyError("coefficients must stay positive")
    return OffsetSeries(Fraction(k, 4), values)


def mid_basis(k: int) -> CohomologyBasis:
    """Basis of the middle part of H^1 over the affine line for the k-th
    symmetric power of the order-2 connection.

    For k not divisible by 4 the middle part is everything.  For k
    divisible by 4 one class is lost: the remaining classes are
    z^(i-1) u0 corrected by the asymptotic coefficient at exponent i
    times the class at exponent k/4, which kills the boundary
    obstruction.  Each is built directly as one element over the
    polynomial z^(i-1) - gamma_i z^(k/4-1).
    """
    if k % 4:
        full = h1_a1_basis(k)
        return CohomologyBasis(
            space="mid",
            k=k,
            twist=full.twist,
            classes=full.classes,
            g_levels=full.g_levels,
        )
    if k < 4:
        raise DomainError("need a symmetric power of at least 2")
    kp = (k - 1) // 2
    pivot_index = k // 4
    highest = max(kp, pivot_index + 3)
    table = gamma(k, (highest - pivot_index) // 3 + 1)
    classes = []
    levels = []
    for i in range(1, kp + 1):
        if i == pivot_index:
            continue
        correction = table.value_at(i)
        poly = Polynomial(((i - 1, 1), (pivot_index - 1, -correction)))
        classes.append(ModuleElement((("u0", poly),)))
        levels.append(omega_level(k, i))
    return CohomologyBasis(
        space="mid",
        k=k,
        twist=ZERO,
        classes=tuple(classes),
        g_levels=tuple(levels),
    )
