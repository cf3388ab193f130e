"""Fraction enumerations of the lattice counts, kept as the test
reference for :func:`airymoments.moments.s_nk` and
:func:`airymoments.moments.formal_decomposition`, which count in
integers and, at prime order, in closed form instead."""

from __future__ import annotations

from fractions import Fraction

from airymoments.exact import Polynomial, compositions
from airymoments.moments import cyclotomic


def power_residues(n: int) -> tuple[tuple[Fraction, ...], ...]:
    """Dense coefficient vectors of x^i mod the n-th cyclotomic, i < n."""
    phi = cyclotomic(n)
    width = phi.degree
    table = []
    for i in range(n):
        dense = (Polynomial.monomial(i) % phi).coefficients()
        dense += [Fraction(0)] * (width - len(dense))
        table.append(tuple(dense))
    return tuple(table)


def _exponent_sums(n: int, k: int):
    residues = power_residues(n)
    width = len(residues[0])
    for a in compositions(n, k):
        acc = [Fraction(0)] * width
        for i, weight in enumerate(a):
            if weight:
                row = residues[i]
                for pos in range(width):
                    acc[pos] += weight * row[pos]
        yield acc


def s_nk(n: int, k: int) -> int:
    """Compositions of k into n parts whose weighted power sum vanishes
    mod the n-th cyclotomic polynomial, one by one."""
    return sum(1 for acc in _exponent_sums(n, k) if not any(acc))


def formal_decomposition_entries(
    n: int, k: int
) -> tuple[tuple[tuple[Fraction, ...], int], ...]:
    """The sorted irregular exponents -n/(n+1) * sum(a[i] * x**i) with
    their multiplicities."""
    scale = Fraction(-n, n + 1)
    tally: dict[tuple[Fraction, ...], int] = {}
    for acc in _exponent_sums(n, k):
        if any(acc):
            key = tuple(scale * c for c in acc)
            tally[key] = tally.get(key, 0) + 1
    return tuple(sorted(tally.items()))
