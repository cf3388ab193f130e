"""Exact scalar arithmetic: rationals, sparse polynomials over them, and
the integer compositions that index monomials and multinomial sums.

Everything here is exact.  Rationals are ``fractions.Fraction`` (always
in lowest terms), polynomials store only nonzero terms, and all
constructions are deterministic: the same input always yields the same
object, independent of construction order.  Exact linear algebra lives
in one place, the integer echelon of :mod:`airymoments.connection`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError

def format_rational(q: Fraction) -> str:
    """Serialise ``q`` as ``"num/den"``, or a bare integer when den == 1."""
    if not isinstance(q, Fraction):
        q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _coerce(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise DomainError(f"cannot interpret {value!r} as an exact rational")


@dataclass(frozen=True)
class Polynomial:
    """Univariate polynomial over the rationals in the variable ``z``.

    Stored sparsely as a tuple of ``(degree, coefficient)`` pairs, sorted
    by degree with no zero coefficients, so equal polynomials are equal
    (and hashable) as objects.
    """

    terms: tuple[tuple[int, Fraction], ...] = ()

    def __post_init__(self):
        # Add only at a repeated degree, so terms already in normal
        # form build no new coefficient.
        cleaned: dict[int, Fraction] = {}
        for degree, coeff in self.terms:
            if degree < 0:
                raise DomainError("polynomial degrees must be nonnegative")
            c = _coerce(coeff)
            if not c:
                continue
            previous = cleaned.get(degree)
            cleaned[degree] = c if previous is None else previous + c
        normalised = tuple(
            (d, cleaned[d]) for d in sorted(cleaned) if cleaned[d]
        )
        object.__setattr__(self, "terms", normalised)

    @classmethod
    def constant(cls, value) -> Polynomial:
        return cls(((0, _coerce(value)),))

    @classmethod
    def monomial(cls, degree: int, coeff=1) -> Polynomial:
        return cls(((degree, _coerce(coeff)),))

    @property
    def degree(self) -> int:
        """Degree, with the convention that the zero polynomial has -1."""
        return self.terms[-1][0] if self.terms else -1

    def is_zero(self) -> bool:
        return not self.terms

    def leading_coefficient(self) -> Fraction:
        return self.terms[-1][1] if self.terms else Fraction(0)

    def coefficients(self) -> list[Fraction]:
        """Dense low-to-high coefficient list (empty for zero)."""
        out = [Fraction(0)] * (self.degree + 1)
        for d, c in self.terms:
            out[d] = c
        return out

    def __add__(self, other) -> Polynomial:
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other)
        return Polynomial(self.terms + other.terms)

    __radd__ = __add__

    def __neg__(self) -> Polynomial:
        return Polynomial(tuple((d, -c) for d, c in self.terms))

    def __sub__(self, other) -> Polynomial:
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other)
        return self + (-other)

    def __mul__(self, other) -> Polynomial:
        if isinstance(other, (int, Fraction)):
            return Polynomial(tuple((d, c * other) for d, c in self.terms))
        if not isinstance(other, Polynomial):
            return NotImplemented
        acc: dict[int, Fraction] = {}
        for d1, c1 in self.terms:
            for d2, c2 in other.terms:
                acc[d1 + d2] = acc.get(d1 + d2, Fraction(0)) + c1 * c2
        return Polynomial(tuple(acc.items()))

    def __rmul__(self, other) -> Polynomial:
        return self.__mul__(other)

    def derivative(self) -> Polynomial:
        return Polynomial(tuple((d - 1, c * d) for d, c in self.terms if d))

    def __divmod__(self, other: Polynomial) -> tuple[Polynomial, Polynomial]:
        if not isinstance(other, Polynomial) or other.is_zero():
            raise DomainError("polynomial division by zero")
        quotient = Polynomial()
        remainder = self
        while remainder.degree >= other.degree:
            shift = remainder.degree - other.degree
            factor = remainder.leading_coefficient() / other.leading_coefficient()
            step = Polynomial.monomial(shift, factor)
            quotient = quotient + step
            remainder = remainder - step * other
        return quotient, remainder

    def __mod__(self, other: Polynomial) -> Polynomial:
        return divmod(self, other)[1]

    def exact_divide(self, other: Polynomial) -> Polynomial:
        quotient, remainder = divmod(self, other)
        if not remainder.is_zero():
            raise DomainError("division is not exact")
        return quotient

    def __str__(self) -> str:
        return self.format("z")

    def format(self, variable: str) -> str:
        """Highest degree first, written in ``variable``:
        ``"5/6*x^2 - x + 1"``."""
        return format_terms(self.terms, variable)


def format_terms(terms, variable: str) -> str:
    """The text of the polynomial with the (degree, coefficient) pairs
    ``terms``, sorted by degree, highest degree first and written in
    ``variable``: ``"5/6*x^2 - x + 1"``.  A zero coefficient is left
    out, and no nonzero one gives ``"0"``."""
    parts = []
    for d, c in reversed(terms):
        if not c:
            continue
        if d == 0:
            parts.append(format_rational(c))
        else:
            var = variable if d == 1 else f"{variable}^{d}"
            if c == 1:
                parts.append(var)
            elif c == -1:
                parts.append(f"-{var}")
            else:
                parts.append(f"{format_rational(c)}*{var}")
    return " + ".join(parts).replace("+ -", "- ") or "0"


def polynomial_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor over the rationals."""
    while not b.is_zero():
        a, b = b, a % b
    if a.is_zero():
        return a
    return a * (1 / a.leading_coefficient())


def compositions(parts: int, total: int):
    """Yield all tuples of ``parts`` nonnegative integers summing to ``total``.

    Deterministic order (stars and bars over ascending cut positions).
    """
    if parts <= 0:
        if total == 0:
            yield ()
        return
    for cuts in itertools.combinations(range(total + parts - 1), parts - 1):
        previous = -1
        out = []
        for cut in cuts:
            out.append(cut - previous - 1)
            previous = cut
        out.append(total + parts - 2 - previous)
        yield tuple(out)
