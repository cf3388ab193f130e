"""Irregular Hodge data of symmetric powers of the order-2 Airy-type
connection: the (p, q) tables with their symmetry and mass checks, the
filtration level multisets of the closed-form bases, the graded table of
the rank-extended family for even k, pole-order admissibility bounds,
and a verifier tying all of them together.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .connection import omega_level
from .errors import DomainError
from .moments import h1_dims, rho_preimage


@dataclass(frozen=True)
class HodgeTable:
    """Graded Hodge numbers as entries (p, q, h), sorted by (p, q).

    ``weight`` is the weight of the pure part, k+1; one entry of the
    k = 0 mod 4 tables sits in weight k+2 instead, visible as
    p + q = weight + 1.
    """

    k: int
    family: str
    weight: int
    entries: tuple[tuple[Fraction, Fraction, int], ...]

    def total(self) -> int:
        return sum(h for _, _, h in self.entries)

    def p_multiset(self) -> Counter:
        counter: Counter = Counter()
        for p, _, h in self.entries:
            counter[p] += h
        return counter

    def is_symmetric(self) -> bool:
        counter: Counter = Counter()
        for p, q, h in self.entries:
            counter[(p, q)] += h
        return all(counter[(q, p)] == h for (p, q), h in counter.items())


def hodge_numbers(k: int) -> tuple[HodgeTable, HodgeTable]:
    """The Hodge-number tables (full, middle) of the k-th symmetric
    power for k >= 2.

    All entries have h = 1.  Odd k: p = (k+2i)/3 for i = 1..(k-1)/2+1,
    with q = k+1-p.  Even k: symmetric pairs with min(p, q) = (k+2i)/3,
    and for k divisible by 4 additionally the single class
    p = q = (k+2)/2 of weight k+2, which the middle table drops.
    """
    if k < 2:
        raise DomainError("need a symmetric power of at least 2")
    weight = k + 1
    entries: list[tuple[Fraction, Fraction, int]] = []
    mid_entries: list[tuple[Fraction, Fraction, int]] = []
    kp = (k - 1) // 2
    if k % 2:
        for i in range(1, kp + 2):
            p = Fraction(k + 2 * i, 3)
            entries.append((p, weight - p, 1))
        mid_entries = entries[:]
    else:
        pair_count = kp // 2 if k % 4 else (kp - 1) // 2
        for i in range(1, pair_count + 1):
            low = Fraction(k + 2 * i, 3)
            high = weight - low
            entries.append((low, high, 1))
            entries.append((high, low, 1))
        mid_entries = entries[:]
        if k % 4 == 0:
            middle = Fraction(k + 2, 2)
            entries.append((middle, middle, 1))
    full = HodgeTable(
        k=k, family="Ai", weight=weight, entries=tuple(sorted(entries))
    )
    mid = HodgeTable(
        k=k, family="Ai-mid", weight=weight, entries=tuple(sorted(mid_entries))
    )
    return full, mid


@dataclass(frozen=True)
class GLevelMultiset:
    """Multiset of irregular filtration levels of a closed-form basis."""

    k: int
    which: str
    levels: tuple[tuple[Fraction, int], ...]

    def counter(self) -> Counter:
        return Counter(dict(self.levels))

    def total(self) -> int:
        return sum(mult for _, mult in self.levels)


def g_levels(k: int, which: str) -> GLevelMultiset:
    """Filtration level multiset of the basis classes over the punctured
    line: "Ai" for the plain family, "L-twist" for the square-root
    twisted family, "tilde" for their union.

    Levels are (k+1) - (k+2i)/3 for the z^(i-1) u0 classes,
    (k+1) - (k+2i+1)/3 for their twisted mates, and (k+1) - (k+j+1)/3
    for the residue-supported classes u_j, j = 0..k.
    """
    if k < 2:
        raise DomainError("need a symmetric power of at least 2")
    if which not in ("Ai", "L-twist", "tilde"):
        raise DomainError(f"unknown family {which!r}")
    kp = (k - 1) // 2
    top = kp + 1 if k % 2 else kp
    counter: Counter = Counter()
    if which in ("Ai", "tilde"):
        for i in range(1, top + 1):
            counter[Fraction(k + 1) - Fraction(k + 2 * i, 3)] += 1
    if which in ("L-twist", "tilde"):
        for i in range(1, top + 1):
            counter[Fraction(k + 1) - Fraction(k + 2 * i + 1, 3)] += 1
        for j in range(k + 1):
            counter[Fraction(k + 1) - Fraction(k + j + 1, 3)] += 1
    return GLevelMultiset(
        k=k, which=which, levels=tuple(sorted(counter.items()))
    )


def tilde_mid_hodge(k: int) -> HodgeTable:
    """Graded dimensions of the middle cohomology of the rank-extended
    family for even k >= 4, indexed by levels p - eps/3 and recorded as
    (level, k+1-level, h).

    For each twist eps in {0, 1, 2} the dimension at level p - eps/3 is
    1 when eps = 0 and p is k/2 or k/2+1, 1 when eps is nonzero and p is
    k/2+1, and otherwise the fiber count of the floor map at p-1.
    """
    if k % 2 or k < 2:
        raise DomainError("the extended family table is defined for even k >= 4")
    if k == 2:
        raise DomainError(
            "k = 2 is excluded: the case-by-case level count has total "
            "mass 4, but the middle cohomology it grades is only "
            "3-dimensional, so no consistent table of this shape exists; "
            "refusing rather than guessing a convention"
        )
    entries = []
    for epsilon in range(3):
        for p in range(0, k + 3):
            if epsilon == 0 and p in (k // 2, k // 2 + 1):
                h = 1
            elif epsilon and p == k // 2 + 1:
                h = 1
            else:
                h = rho_preimage(k, epsilon, p - 1)
            if h:
                level = p - Fraction(epsilon, 3)
                entries.append((level, Fraction(k + 1) - level, h))
    return HodgeTable(
        k=k,
        family="Ai-tilde-mid",
        weight=k + 1,
        entries=tuple(sorted(entries)),
    )


class PoleLevel(NamedTuple):
    """A candidate pole order m with its admissibility and the
    filtration level k+1-m it produces."""

    m: Fraction
    admissible: bool
    f_level: Fraction


def yu_pole_level(k: int, r: int, nu: int, variant: str) -> PoleLevel:
    """Pole order bookkeeping for the rational-form representatives that
    compute filtration levels.

    plain: m = (k+2r+nu)/3, admissible iff k >= 4r+2nu, r >= 1;
    twisted: m = (k+2r+nu+1)/3, admissible iff k >= 4r+2nu+2, r >= 0;
    odd-simple: m = (k+2r+nu)/3, always admissible, r >= 1.
    Inadmissible combinations are reported, never raised.
    """
    if variant not in ("plain", "twisted", "odd-simple"):
        raise DomainError(f"unknown variant {variant!r}")
    if k < 1:
        raise DomainError("k must be positive")
    if not 0 <= nu <= k:
        raise DomainError("nu must lie in [0, k]")
    minimum_r = 0 if variant == "twisted" else 1
    if r < minimum_r:
        raise DomainError(f"r must be at least {minimum_r} for {variant}")
    if variant == "plain":
        m = Fraction(k + 2 * r + nu, 3)
        admissible = k >= 4 * r + 2 * nu
    elif variant == "twisted":
        m = Fraction(k + 2 * r + nu + 1, 3)
        admissible = k >= 4 * r + 2 * nu + 2
    else:
        m = Fraction(k + 2 * r + nu, 3)
        admissible = True
    return PoleLevel(m=m, admissible=admissible, f_level=Fraction(k + 1) - m)


@dataclass(frozen=True)
class CheckResult:
    k: int
    check: str
    passed: bool
    expected: str
    got: str


@dataclass(frozen=True)
class VerifyReport:
    results: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def failures(self) -> list[CheckResult]:
        return [r for r in self.results if not r.passed]


def _counter_str(counter: Counter) -> str:
    return (
        "{"
        + ", ".join(f"{key}: {counter[key]}" for key in sorted(counter))
        + "}"
    )


def _verify_one(k: int) -> list[CheckResult]:
    results = []
    full, mid = hodge_numbers(k)
    dims = h1_dims(2, k)

    symmetric = full.is_symmetric() and mid.is_symmetric()
    results.append(
        CheckResult(
            k=k,
            check="table-symmetry",
            passed=symmetric,
            expected="h(p,q) = h(q,p) in both tables",
            got="symmetric" if symmetric else "asymmetric entry found",
        )
    )

    mass_ok = full.total() == dims.all and mid.total() == dims.mid
    results.append(
        CheckResult(
            k=k,
            check="table-mass",
            passed=mass_ok,
            expected=f"({dims.all}, {dims.mid})",
            got=f"({full.total()}, {mid.total()})",
        )
    )

    if k % 2:
        expected = g_levels(k, "Ai").counter()
        got = full.p_multiset()
        results.append(
            CheckResult(
                k=k,
                check="odd-level-multiset",
                passed=expected == got,
                expected=_counter_str(expected),
                got=_counter_str(got),
            )
        )
    else:
        bound = Fraction(k, 2) + 1
        if k >= 4:
            tilde_counter = tilde_mid_hodge(k).p_multiset()
            reference = g_levels(k, "tilde").counter()
            lhs = {
                level: mult
                for level, mult in tilde_counter.items()
                if level > bound
            }
            rhs = {
                level: mult
                for level, mult in reference.items()
                if level > bound
            }
            results.append(
                CheckResult(
                    k=k,
                    check="high-level-match",
                    passed=lhs == rhs,
                    expected=_counter_str(Counter(rhs)),
                    got=_counter_str(Counter(lhs)),
                )
            )

        mid_counter = mid.p_multiset()
        reflected = Counter(
            {Fraction(k + 1) - p: mult for p, mult in mid_counter.items()}
        )
        high = Counter(
            {p: mult for p, mult in mid_counter.items() if p > bound}
        )
        quarter = (k + 2) // 4 - 1
        expected_high = Counter(omega_level(k, i) for i in range(1, quarter + 1))
        structure_ok = mid_counter == reflected and high == expected_high
        results.append(
            CheckResult(
                k=k,
                check="mid-structure",
                passed=structure_ok,
                expected=f"symmetric, high part {_counter_str(expected_high)}",
                got=(
                    f"{'symmetric' if mid_counter == reflected else 'asymmetric'}"
                    f", high part {_counter_str(high)}"
                ),
            )
        )

    yu_ok = True
    detail = "all admissible with matching levels"
    if k % 2:
        kp = (k - 1) // 2
        for i in range(1, kp + 2):
            result = yu_pole_level(k, i, 0, "odd-simple")
            if not result.admissible or result.f_level != omega_level(k, i):
                yu_ok = False
                detail = f"odd-simple i={i}: {result}"
                break
    else:
        kp = (k - 1) // 2
        families = (
            [("plain", i, 0, omega_level(k, i)) for i in range(1, k // 4 + 1)]
            + [
                (
                    "twisted",
                    i,
                    0,
                    Fraction(k + 1) - Fraction(k + 2 * i + 1, 3),
                )
                for i in range(1, kp // 2 + 1)
            ]
            + [
                (
                    "twisted",
                    0,
                    j,
                    Fraction(k + 1) - Fraction(k + j + 1, 3),
                )
                for j in range(0, kp + 1)
            ]
        )
        for variant, r, nu, level in families:
            result = yu_pole_level(k, r, nu, variant)
            if not result.admissible or result.f_level != level:
                yu_ok = False
                detail = f"{variant} r={r} nu={nu}: {result}"
                break
    results.append(
        CheckResult(
            k=k,
            check="pole-admissibility",
            passed=yu_ok,
            expected="all admissible with matching levels",
            got=detail,
        )
    )
    return results


def verify(k_range) -> VerifyReport:
    """Run the internal consistency checks for every k in ``k_range``:
    table symmetry, table mass against the closed-form dimensions, level
    multisets (odd k against the basis levels, even k against the
    extended family above level k/2+1), middle-table structure, and pole
    admissibility for every level the tables consume."""
    ks = sorted(set(k_range))
    if not ks:
        raise DomainError("empty verification range")
    for k in ks:
        if k < 2:
            raise DomainError("verification needs k >= 2")
    results = []
    for k in ks:
        results.extend(_verify_one(k))
    return VerifyReport(results=tuple(results))
