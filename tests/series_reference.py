"""Fraction series products and powers, kept as the test reference for
:func:`airymoments.asymptotics.gamma`, which computes its powers in
integers instead."""

from __future__ import annotations

from fractions import Fraction

from airymoments.asymptotics import OffsetSeries
from airymoments.errors import DomainError


def series_mul(a: OffsetSeries, b: OffsetSeries) -> OffsetSeries:
    """Product of two lattice series; offsets add, truncation is the min."""
    length = min(len(a.coefficients), len(b.coefficients))
    coeffs = [Fraction(0)] * length
    for i, ca in enumerate(a.coefficients[:length]):
        if not ca:
            continue
        for j, cb in enumerate(b.coefficients[: length - i]):
            coeffs[i + j] += ca * cb
    return OffsetSeries(a.offset + b.offset, tuple(coeffs))


def series_pow(series: OffsetSeries, exponent: int) -> OffsetSeries:
    """Integer power ``exponent >= 1``, truncated like repeated
    :func:`series_mul` (same offset and length).

    Uses J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7): for
    a_0 != 0, g = f^e satisfies g_0 = a_0^e and
    n a_0 g_n = sum_{j=1..n} ((e+1) j - n) a_j g_{n-j},
    which costs O(N^2) operations instead of (e-1) full products.
    Leading zero coefficients are stripped first; the power of the rest
    is shifted right by (zeros * e) places.
    """
    if not isinstance(exponent, int) or exponent < 1:
        raise DomainError("series exponent must be an integer >= 1")
    a = series.coefficients
    length = len(a)
    zeros = next((i for i, c in enumerate(a) if c), length)
    shift = zeros * exponent
    a = a[zeros:]
    g = []
    if shift < length:
        a0 = a[0]
        g.append(a0**exponent)
        for n in range(1, length - shift):
            total = sum(
                ((exponent + 1) * j - n) * a[j] * g[n - j]
                for j in range(1, n + 1)
            )
            g.append(total / (n * a0))
    padded = [Fraction(0)] * min(shift, length) + g
    return OffsetSeries(series.offset * exponent, tuple(padded))
