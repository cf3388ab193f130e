"""Closed-form combinatorics for symmetric powers of order-n Airy-type
connections: lattice-point counts over cyclotomic relations, cohomology
dimension formulas, the formal exponent multiset at infinity, and the
discrete invariants of the Fourier-dual family.

Everything in this module is a finite exact computation; the expensive
operations enumerate compositions and are guarded by fixed caps on the
order and on the number of compositions.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .errors import DomainError, InconsistencyError, SizeLimitError
from .exact import Polynomial, compositions

#: Most compositions an enumeration may visit.
ENUMERATION_CAP = 10**7

#: Largest connection order.  The residue table, built before any
#: enumeration, takes at most 0.3 s up to this order but over 2 s at
#: some orders below 200 (n = 165, 195 on a 2-vCPU VM).
MAX_ORDER = 100


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> Polynomial:
    """The n-th cyclotomic polynomial, by exact recursive division."""
    if n < 1:
        raise DomainError("cyclotomic index must be positive")
    numerator = Polynomial.monomial(n) - Polynomial.constant(1)
    for d in range(1, n):
        if n % d == 0:
            numerator = numerator.exact_divide(cyclotomic(d))
    return numerator


@lru_cache(maxsize=None)
def _power_residues(n: int):
    """The residues of x^i mod the n-th cyclotomic, i < n, as sparse
    rows of (position, coefficient) pairs, with their dense width.

    The cyclotomic polynomial is monic in Z[x], so every residue has
    integer coefficients."""
    phi = cyclotomic(n)
    rows = []
    for i in range(n):
        terms = (Polynomial.monomial(i) % phi).terms
        if any(c.denominator != 1 for _, c in terms):
            raise InconsistencyError(
                f"x^{i} mod the {n}-th cyclotomic is not integral"
            )
        rows.append(tuple((pos, int(c)) for pos, c in terms))
    return tuple(rows), phi.degree


def _check_order(n: int) -> None:
    if n > MAX_ORDER:
        raise SizeLimitError(f"order {n} is above the cap {MAX_ORDER}")


def _check_visits(count: int) -> None:
    if count > ENUMERATION_CAP:
        raise SizeLimitError(
            f"enumerating {count} compositions exceeds the cap "
            f"{ENUMERATION_CAP}"
        )


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, n))


def _weighted_sums(rows, width: int, total: int):
    """Yield, for every composition a of ``total`` into len(rows) parts,
    the integer vector sum(a[i] * rows[i]), each row given sparsely as
    (position, coefficient) pairs."""
    for a in compositions(len(rows), total):
        acc = [0] * width
        for weight, row in zip(a, rows):
            if weight:
                for pos, c in row:
                    acc[pos] += weight * c
        yield acc


def s_nk_visits(n: int, k: int) -> int:
    """How many sums ``s_nk(n, k)`` visits: none at prime n, else
    binom(n//2 + k, k) + binom(n - n//2 + k, k), the two halves of its
    meet in the middle.  Refuses what ``s_nk`` refuses."""
    if n < 2:
        raise DomainError("need at least two parts")
    if k < 0:
        raise DomainError("total must be nonnegative")
    _check_order(n)
    if _is_prime(n):
        return 0
    half = n // 2
    return math.comb(half + k, k) + math.comb(n - half + k, k)


def s_nk(n: int, k: int) -> int:
    """Number of compositions a of k into n parts whose weighted power sum
    vanishes in the n-th cyclotomic field.

    The condition is sum(a[i] * x**i) == 0 mod the n-th cyclotomic
    polynomial; this counts the rank of the regular part at infinity of
    the k-th symmetric power.  For prime n the integer relations among
    1, x, ..., x^(n-1) are the multiples of their sum, so the count is
    1 when n divides k and 0 otherwise.  Other orders count by meet in
    the middle (Horowitz and Sahni 1974): the n parts split into two
    halves, and for each share t of k taken by the first half, the sums
    of the first half are tallied and looked up, negated, from the sums
    of the second half, which takes k - t.  Over all t the halves visit
    ``s_nk_visits(n, k)`` sums, and that is what the enumeration cap
    bounds.
    """
    visits = s_nk_visits(n, k)
    if _is_prime(n):
        return 1 if k % n == 0 else 0
    _check_visits(visits)
    half = n // 2
    rows, width = _power_residues(n)
    low, high = rows[:half], rows[half:]
    count = 0
    for t in range(k + 1):
        left = Counter(tuple(acc) for acc in _weighted_sums(low, width, t))
        for acc in _weighted_sums(high, width, k - t):
            count += left.get(tuple(-c for c in acc), 0)
    return count


class H1Dims(NamedTuple):
    """Dimensions of first de Rham cohomology and its middle part."""

    all: int
    mid: int


def h1_dims(n: int, k: int) -> H1Dims:
    """Closed-form dimensions of H^1 over the affine line for the k-th
    symmetric power of the order-n connection, with the middle part.

    dim = (1/n) binom(k+n-1, k) - ((n+1)/n) s_nk.  The middle dimension
    subtracts s_nk exactly when k is a multiple of n (n odd) or of 2n
    (n even).
    """
    if n < 2:
        raise DomainError("connection order must be at least 2")
    if k < 1:
        raise DomainError("symmetric power must be at least 1")
    s = s_nk(n, k)
    numerator = math.comb(k + n - 1, k) - (n + 1) * s
    dim_all, remainder = divmod(numerator, n)
    if remainder:
        raise InconsistencyError(
            f"dimension formula gave non-integer {Fraction(numerator, n)} "
            f"for n={n}, k={k}"
        )
    period = n if n % 2 else 2 * n
    dim_mid = dim_all - (s if k % period == 0 else 0)
    if dim_mid < 0:
        raise InconsistencyError(
            f"negative middle dimension {dim_mid} for n={n}, k={k}"
        )
    return H1Dims(dim_all, dim_mid)


class ExponentMultiset(NamedTuple):
    """Formal exponents at infinity of a symmetric power.

    Each irregular summand is recorded by the coefficient of its
    exponential factor, reduced mod the n-th cyclotomic polynomial and
    stored as a dense low-to-high coefficient tuple.  ``regular_rank``
    counts the summands whose exponent vanishes.
    """

    n: int
    k: int
    regular_rank: int
    entries: tuple[tuple[tuple[Fraction, ...], int], ...]


def formal_decomposition(n: int, k: int) -> ExponentMultiset:
    """Multiset of formal exponents at infinity for the k-th symmetric
    power of the order-n connection.

    Composition a contributes the exponent -n/(n+1) * sum(a[i] * x**i)
    reduced mod the n-th cyclotomic polynomial; the zero exponents are
    the regular part, of rank s_nk, which is counted a second way.
    """
    _check_visits(exponent_bound(n, k)[0])
    tally: dict[tuple[int, ...], int] = {}
    regular = 0
    for acc in _weighted_sums(*_power_residues(n), k):
        if any(acc):
            key = tuple(acc)
            tally[key] = tally.get(key, 0) + 1
        else:
            regular += 1
    if regular != s_nk(n, k):
        raise InconsistencyError(
            "regular rank disagrees with the direct lattice count"
        )
    # The scale -n/(n+1) is negative: ordering the keys by their
    # negation puts the scaled exponents in ascending order.  Each
    # distinct coefficient is scaled once.
    scaled = {c: Fraction(-n * c, n + 1) for c in set().union(*tally)}
    entries = tuple(
        (tuple(map(scaled.__getitem__, key)), mult)
        for key, mult in sorted(
            tally.items(), key=lambda item: [-c for c in item[0]]
        )
    )
    return ExponentMultiset(n=n, k=k, regular_rank=regular, entries=entries)


def exponent_bound(n: int, k: int) -> tuple[int, int]:
    """(compositions visited, a bound on the exponents listed) of
    ``formal_decomposition(n, k)``, which raises its refusals but the
    cap on visits.

    Each exponent listed is a distinct nonzero vector y = sum(a[i] *
    r_i) in Z^phi, r_i the residue of x^i, so there is at most one per
    composition; and |y|_1 <= k * max |r_i|_1 = R, so there are at most
    the sum over j of 2^j binom(phi, j) binom(R, j) lattice points of
    that ball.  At prime n the first bound is exact, less the regular
    sum when n divides k."""
    if n < 2:
        raise DomainError("connection order must be at least 2")
    if k < 0:
        raise DomainError("symmetric power must be nonnegative")
    _check_order(n)
    rows, phi = _power_residues(n)
    radius = k * max(sum(abs(c) for _, c in row) for row in rows)
    ball = sum(
        2**j * math.comb(phi, j) * math.comb(radius, j) for j in range(phi + 1)
    )
    visits = math.comb(n - 1 + k, k)
    return visits, min(visits, ball)


def _check_epsilon(epsilon: int) -> None:
    if epsilon not in (0, 1, 2):
        raise DomainError("epsilon must be 0, 1 or 2")


def rho_preimage(k: int, epsilon: int, p: int) -> int:
    """Size of the fiber over p of the floor map j -> (k+j+epsilon)//3
    on {j in [0,k] : k+j+epsilon not divisible by 3}.

    Fibers have size 0, 1 or 2: of three consecutive integers exactly one
    is dropped by the divisibility condition.
    """
    if k < 1:
        raise DomainError("k must be positive")
    _check_epsilon(epsilon)
    # k + j + epsilon runs over [k + epsilon, 2k + epsilon], and the
    # totals over p not divisible by 3 are 3p + 1 and 3p + 2.
    return sum(
        1 for t in (3 * p + 1, 3 * p + 2) if k + epsilon <= t <= 2 * k + epsilon
    )


class MkInvariants(NamedTuple):
    """Discrete invariants of the Fourier-dual module of a symmetric
    power twisted by a cube-root character epsilon."""

    k: int
    epsilon: int
    rank: int
    singular_points: tuple[Fraction, ...]
    nu: tuple[int, int, int]
    phi_unit_dim: int
    psi_unit_dim: int


def mk_invariants(k: int, epsilon: int) -> MkInvariants:
    """Rank, finite singular points, residue-class partition, and the
    unit-eigenvalue vanishing/nearby-cycle dimensions of the Fourier-dual
    module for even k.

    The rank is computed two ways (residue-class count and the piecewise
    closed form) and must agree.
    """
    if k < 2 or k % 2:
        raise DomainError("the dual family is defined for even k >= 2")
    _check_epsilon(epsilon)
    nu = tuple(
        sum(1 for j in range(k + 1) if (k + j) % 3 == c) for c in range(3)
    )
    rank = (k + 1) - nu[(-epsilon) % 3]
    third = k // 3
    if epsilon == 0:
        closed = 2 * (third + 1) if k % 3 else 2 * third
    else:
        closed = 2 * third + 1 if k % 3 != 2 else 2 * (third + 1)
    if rank != closed:
        raise InconsistencyError(
            f"rank mismatch for k={k}, epsilon={epsilon}: {rank} vs {closed}"
        )
    points = tuple(Fraction(2 * (2 * j - k), 3) for j in range(k + 1))
    phi = 1 if epsilon == 0 else 0
    psi = rank if epsilon == 0 else rank - 1
    return MkInvariants(
        k=k,
        epsilon=epsilon,
        rank=rank,
        singular_points=points,
        nu=nu,
        phi_unit_dim=phi,
        psi_unit_dim=psi,
    )
