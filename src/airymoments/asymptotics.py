"""Asymptotics of the product of the two standard solutions of the
order-2 Airy-type equation, and the middle-cohomology basis built from
them.

The expansion of the normalised solution product in the inverse variable
w = 1/z is computed by two independent routes: the classical product of
the one-sided expansions (Pochhammer-style coefficients), and a formal
solution of the third-order symmetric-square equation derived from the
connection by a cyclic-vector elimination.  The even powers of that
series give the correction coefficients for the middle-cohomology basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .connection import (
    CohomologyBasis,
    build_symk,
    h1_a1_basis,
    omega_class,
)
from .errors import DomainError, InconsistencyError
from .exact import OffsetSeries, Polynomial, polynomial_gcd, series_pow

HALF = Fraction(1, 2)


def product_coefficients(count: int) -> list[Fraction]:
    """The first ``count`` coefficients of the one-sided exponential
    expansions, c_n = prod_{t<2n} (2n+2t+1) / (216^n n!), computed by
    the ratio c_n = c_{n-1} (6n-5)(6n-1) / (72n)."""
    if count < 1:
        raise DomainError("need at least one coefficient")
    out = [Fraction(1)]
    for n in range(1, count):
        out.append(out[-1] * Fraction((6 * n - 5) * (6 * n - 1), 72 * n))
    return out


def _cross_sums(count: int) -> list[int]:
    """Integer cross sums S_N = sum_a (-1)^a C(N,a) p_a p_(N-a) for
    N < count, where p_n = prod_{m<=n} (6m-5)(6m-1), so that c_n of
    :func:`product_coefficients` is p_n / (72^n n!) and the order-N
    cross term sum_a (-1)^a c_a c_(N-a) is S_N / (72^N N!)."""
    p = [1]
    for m in range(1, count):
        p.append(p[-1] * (6 * m - 5) * (6 * m - 1))
    sums = []
    for order in range(count):
        total = 0
        binom = 1
        for a in range(order + 1):
            term = binom * p[a] * p[order - a]
            total += -term if a % 2 else term
            binom = binom * (order - a) // (a + 1)
        sums.append(total)
    return sums


def aibi_series(terms: int) -> OffsetSeries:
    """Expansion of the normalised solution product in w = 1/z.

    The product of the two exponentially growing/decaying solutions has
    a one-sided expansion whose cross terms of odd order cancel in
    pairs; the function asserts that cancellation and returns the series
    w^(1/2) * (1 + ...) on the lattice 1/2 + 3j, with ``terms``
    coefficients.  The cross terms are summed as integers (see
    :func:`_cross_sums`), so coefficient j is the single fraction
    (9/4)^j S_2j / (72^2j (2j)!); the cancellation and positivity
    checks are made on those integer sums.
    """
    if terms < 1:
        raise DomainError("need at least one term")
    sums = _cross_sums(2 * terms - 1)
    for m in range(1, 2 * terms - 1, 2):
        if sums[m]:
            raise InconsistencyError(
                f"odd cross terms failed to cancel at order {m}"
            )
    if sums[0] != 1 or any(total <= 0 for total in sums[::2]):
        raise InconsistencyError("product expansion lost positivity")
    coefficients = tuple(
        Fraction(9**j * sums[2 * j], 4**j * 72 ** (2 * j) * math.factorial(2 * j))
        for j in range(terms)
    )
    return OffsetSeries(HALF, Fraction(3), coefficients)


def _det3(m: list[list[Polynomial]]) -> Polynomial:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def symmetric_square_operator() -> tuple[Polynomial, ...]:
    """Coefficients (p_0..p_3) of the third-order operator annihilating
    the top generator of the symmetric square of the order-2 connection,
    derived by cyclic-vector elimination and normalised to be primitive
    with positive leading coefficient."""
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
            for i, coeff in module.partial[index[label]]:
                target = module.labels[i]
                image[target] = image.get(target, Polynomial()) + poly * coeff
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


def _rising(alpha: Fraction, r: int) -> Fraction:
    value = Fraction(1)
    for t in range(r):
        value *= alpha + t
    return value


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
        total = Fraction(0)
        for r, c in groups.get(sigma, ()):
            total += c * (-1) ** r * _rising(HALF + tau - sigma, r)
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
            if 0 < sigma <= tau:
                rhs -= pivot_value(sigma, tau) * coefficients[tau - sigma]
        value = rhs / pivot
        if tau % 3 and value:
            raise InconsistencyError(
                f"nonzero coefficient off the exponent lattice at step {tau}"
            )
        coefficients.append(value)
    return OffsetSeries(HALF, Fraction(3), tuple(coefficients[::3]))


@dataclass(frozen=True)
class GammaTable:
    """Coefficients of the k/2-th power of the normalised solution
    product: value j sits at exponent k/4 + 3j in w = 1/z.

    The leading value is 1 and every tabulated value is positive; the
    constructor enforces both.
    """

    k: int
    offset: Fraction
    values: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.values or self.values[0] != 1:
            raise InconsistencyError("leading coefficient must be 1")
        if any(value <= 0 for value in self.values):
            raise InconsistencyError("coefficients must stay positive")

    def value_at(self, index) -> Fraction:
        """Coefficient at exponent ``index``; zero off the lattice
        k/4 + 3j, error past the tabulated range."""
        position = (Fraction(index) - self.offset) / 3
        if position < 0 or position.denominator != 1:
            return Fraction(0)
        j = int(position)
        if j >= len(self.values):
            raise DomainError(
                f"exponent {index} is beyond the tabulated range"
            )
        return self.values[j]


def gamma(k: int, terms: int) -> GammaTable:
    """Asymptotic coefficients of the k/2-th power of the normalised
    solution product, for even k, on the lattice k/4 + 3j."""
    if k < 2 or k % 2:
        raise DomainError("the power is defined for even k >= 2")
    if terms < 1:
        raise DomainError("need at least one term")
    powered = series_pow(aibi_series(terms), k // 2)
    if powered.offset != Fraction(k, 4):
        raise InconsistencyError(
            f"power series starts at {powered.offset}, expected {Fraction(k, 4)}"
        )
    return GammaTable(k=k, offset=powered.offset, values=powered.coefficients)


def mid_basis(k: int) -> CohomologyBasis:
    """Basis of the middle part of H^1 over the affine line for the k-th
    symmetric power of the order-2 connection.

    For k not divisible by 4 the middle part is everything.  For k
    divisible by 4 one class is lost: the remaining classes are
    z^(i-1) u0 corrected by the asymptotic coefficient at exponent i
    times the class at exponent k/4, which kills the boundary
    obstruction.
    """
    full = h1_a1_basis(k)
    if k % 4:
        return CohomologyBasis(
            space="mid",
            k=k,
            twist=full.twist,
            classes=full.classes,
            g_levels=full.g_levels,
        )
    kp = (k - 1) // 2
    pivot_index = k // 4
    highest = max(kp, pivot_index + 3)
    table = gamma(k, (highest - pivot_index) // 3 + 1)
    pivot_class = omega_class(pivot_index)
    classes = []
    levels = []
    for i in range(1, kp + 1):
        if i == pivot_index:
            continue
        correction = table.value_at(i)
        element = omega_class(i) - correction * pivot_class
        classes.append(element)
        levels.append(full.g_levels[i - 1])
    return CohomologyBasis(
        space="mid",
        k=k,
        twist=full.twist,
        classes=tuple(classes),
        g_levels=tuple(levels),
    )
