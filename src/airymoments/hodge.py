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

from .connection import omega_count, omega_thirds
from .errors import DomainError
from .moments import h1_dims


def format_thirds(t: int) -> str:
    """The string of the level t/3: "t/3", or the bare integer t//3
    when 3 divides t; equal to ``format_rational(Fraction(t, 3))``."""
    return f"{t}/3" if t % 3 else str(t // 3)


def _thirds_view(counter: Counter) -> Counter:
    return Counter({Fraction(t, 3): mult for t, mult in counter.items()})


@dataclass(frozen=True)
class HodgeTable:
    """Graded Hodge numbers as entries (p, q, h), sorted by (p, q).

    Every p and q lies on the lattice (1/3)Z, so the table stores
    ``thirds``, the entries (3p, 3q, h) in integers; ``entries`` is
    the Fraction view of them.  ``weight`` is the weight of the pure
    part, k+1; one entry of the k = 0 mod 4 tables sits in weight k+2
    instead, visible as p + q = weight + 1.
    """

    k: int
    family: str
    weight: int
    thirds: tuple[tuple[int, int, int], ...]

    @property
    def entries(self) -> tuple[tuple[Fraction, Fraction, int], ...]:
        return tuple(
            (Fraction(p, 3), Fraction(q, 3), h) for p, q, h in self.thirds
        )

    def total(self) -> int:
        return sum(h for _, _, h in self.thirds)

    def p_thirds(self) -> Counter:
        """Multiset of 3p, weighted by h."""
        counter: Counter = Counter()
        for p, _, h in self.thirds:
            counter[p] = counter.get(p, 0) + h
        return counter

    def p_multiset(self) -> Counter:
        return _thirds_view(self.p_thirds())

    def is_symmetric(self) -> bool:
        counter: dict[tuple[int, int], int] = {}
        for p, q, h in self.thirds:
            counter[p, q] = counter.get((p, q), 0) + h
        return all(counter.get((q, p), 0) == h for (p, q), h in counter.items())


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
    entries: list[tuple[int, int, int]] = []
    kp = (k - 1) // 2
    if k % 2:
        for i in range(1, kp + 2):
            p = k + 2 * i
            entries.append((p, 3 * weight - p, 1))
        mid_entries = entries[:]
    else:
        pair_count = kp // 2 if k % 4 else (kp - 1) // 2
        for i in range(1, pair_count + 1):
            low = k + 2 * i
            high = 3 * weight - low
            entries.append((low, high, 1))
            entries.append((high, low, 1))
        mid_entries = entries[:]
        if k % 4 == 0:
            middle = 3 * (k + 2) // 2
            entries.append((middle, middle, 1))
    full = HodgeTable(
        k=k, family="Ai", weight=weight, thirds=tuple(sorted(entries))
    )
    mid = HodgeTable(
        k=k, family="Ai-mid", weight=weight, thirds=tuple(sorted(mid_entries))
    )
    return full, mid


@dataclass(frozen=True)
class GLevelMultiset:
    """Multiset of irregular filtration levels of a closed-form basis,
    stored as ``thirds``, the pairs (3 * level, multiplicity);
    ``counter`` is the Fraction view of them."""

    k: int
    which: str
    thirds: tuple[tuple[int, int], ...]

    def thirds_counter(self) -> Counter:
        return Counter(dict(self.thirds))

    def counter(self) -> Counter:
        return _thirds_view(self.thirds_counter())


def _twist_thirds(k: int, i: int) -> int:
    """Three times the level of the twisted mate of the i-th class,
    3(k+1) - (k+2i+1)."""
    return omega_thirds(k, i) - 1


def _residue_thirds(k: int, j: int) -> int:
    """Three times the level of the residue class u_j, 3(k+1) - (k+j+1)."""
    return 2 * k + 2 - j


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
    top = omega_count(k)
    counter: Counter = Counter()
    if which in ("Ai", "tilde"):
        counter.update(omega_thirds(k, i) for i in range(1, top + 1))
    if which in ("L-twist", "tilde"):
        counter.update(_twist_thirds(k, i) for i in range(1, top + 1))
        counter.update(_residue_thirds(k, j) for j in range(k + 1))
    return GLevelMultiset(
        k=k, which=which, thirds=tuple(sorted(counter.items()))
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
        # The fiber over p-1 is empty unless 3p-2 <= 2k+eps and
        # 3p-1 >= k+eps; for k >= 4 that window holds k/2 and k/2+1.
        lowest, highest = (k + epsilon + 3) // 3, (2 * k + epsilon + 2) // 3
        for p in range(lowest, highest + 1):
            if epsilon == 0 and p in (k // 2, k // 2 + 1):
                h = 1
            elif epsilon and p == k // 2 + 1:
                h = 1
            else:
                # rho_preimage(k, epsilon, p - 1), counted inline: the
                # totals 3p - 2 and 3p - 1 in [k + eps, 2k + eps].
                h = (k + epsilon <= 3 * p - 2 <= 2 * k + epsilon) + (
                    k + epsilon <= 3 * p - 1 <= 2 * k + epsilon
                )
            if h:
                level = 3 * p - epsilon
                entries.append((level, 3 * (k + 1) - level, h))
    return HodgeTable(
        k=k,
        family="Ai-tilde-mid",
        weight=k + 1,
        thirds=tuple(sorted(entries)),
    )


class PoleLevel(NamedTuple):
    """A candidate pole order m with its admissibility and the
    filtration level k+1-m it produces."""

    m: Fraction
    admissible: bool
    f_level: Fraction


def _pole_thirds(
    k: int, r: int, nu: int, variant: str
) -> tuple[int, bool, int]:
    """(3m, admissible, 3(k+1-m)) for valid arguments of yu_pole_level."""
    if variant == "plain":
        m, admissible = k + 2 * r + nu, k >= 4 * r + 2 * nu
    elif variant == "twisted":
        m, admissible = k + 2 * r + nu + 1, k >= 4 * r + 2 * nu + 2
    else:
        m, admissible = k + 2 * r + nu, True
    return m, admissible, 3 * (k + 1) - m


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
    m, admissible, f_level = _pole_thirds(k, r, nu, variant)
    return PoleLevel(
        m=Fraction(m, 3), admissible=admissible, f_level=Fraction(f_level, 3)
    )


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


def _counter_str(thirds: Counter) -> str:
    """A multiset of levels, given by their thirds, as "{level: mult}"."""
    return (
        "{"
        + ", ".join(
            f"{format_thirds(t)}: {thirds[t]}" for t in sorted(thirds)
        )
        + "}"
    )


def _equal(check: str, expected, got, show=str) -> tuple:
    """The fields of a check that passes when ``expected == got``, each
    side printed by ``show``: once, shared by both, when they are equal."""
    if expected == got:
        text = show(expected)
        return check, True, text, text
    return check, False, show(expected), show(got)


def _above(thirds: Counter, bound: int) -> Counter:
    """The part of a multiset of thirds above ``bound``."""
    return Counter({t: mult for t, mult in thirds.items() if t > bound})


def _show_structure(structure: tuple[bool, Counter]) -> str:
    symmetric, high = structure
    symmetry = "symmetric" if symmetric else "asymmetric"
    return f"{symmetry}, high part {_counter_str(high)}"


ALL_ADMISSIBLE = "all admissible with matching levels"


def _pole_detail(k: int) -> str:
    """``ALL_ADMISSIBLE`` when every pole order the tables of ``k``
    consume is admissible and yields its level, else the first that
    is not."""
    kp = (k - 1) // 2
    if k % 2:
        families = [
            ("odd-simple", i, 0, omega_thirds(k, i)) for i in range(1, kp + 2)
        ]
    else:
        families = (
            [("plain", i, 0, omega_thirds(k, i)) for i in range(1, k // 4 + 1)]
            + [
                ("twisted", i, 0, _twist_thirds(k, i))
                for i in range(1, kp // 2 + 1)
            ]
            + [("twisted", 0, j, _residue_thirds(k, j)) for j in range(kp + 1)]
        )
    for variant, r, nu, level in families:
        _, admissible, f_level = _pole_thirds(k, r, nu, variant)
        if not admissible or f_level != level:
            return f"{variant} r={r} nu={nu}: {yu_pole_level(k, r, nu, variant)}"
    return ALL_ADMISSIBLE


def _verify_one(k: int) -> list[CheckResult]:
    full, mid = hodge_numbers(k)
    dims = h1_dims(2, k)
    symmetric = full.is_symmetric() and mid.is_symmetric()
    checks = [
        (
            "table-symmetry",
            symmetric,
            "h(p,q) = h(q,p) in both tables",
            "symmetric" if symmetric else "asymmetric entry found",
        ),
        _equal("table-mass", (dims.all, dims.mid), (full.total(), mid.total())),
    ]
    # Levels below are thirds: 3p for the level p.
    if k % 2:
        expected = g_levels(k, "Ai").thirds_counter()
        checks.append(
            _equal("odd-level-multiset", expected, full.p_thirds(), _counter_str)
        )
    else:
        bound = 3 * (k // 2 + 1)
        if k >= 4:
            expected = _above(g_levels(k, "tilde").thirds_counter(), bound)
            got = _above(tilde_mid_hodge(k).p_thirds(), bound)
            checks.append(_equal("high-level-match", expected, got, _counter_str))
        mid_counter = mid.p_thirds()
        reflected = Counter({3 * (k + 1) - t: mult for t, mult in mid_counter.items()})
        quarter = (k + 2) // 4 - 1
        expected_high = Counter(omega_thirds(k, i) for i in range(1, quarter + 1))
        checks.append(
            _equal(
                "mid-structure",
                (True, expected_high),
                (mid_counter == reflected, _above(mid_counter, bound)),
                _show_structure,
            )
        )
    checks.append(_equal("pole-admissibility", ALL_ADMISSIBLE, _pole_detail(k)))
    return [CheckResult(k, *check) for check in checks]


def verify(k_range) -> VerifyReport:
    """Run the internal consistency checks for every k in ``k_range``:
    table symmetry, table mass against the closed-form dimensions, level
    multisets (odd k against the basis levels, even k against the
    extended family above level k/2+1), middle-table structure, and pole
    admissibility for every level the tables consume.

    Every check but table symmetry compares an expected value with the
    value got and reports both as text.  Each k costs O(k), so the
    ``verify`` entry of ``cli.COMMANDS`` caps the summed k of a range."""
    ks = sorted(set(k_range))
    if not ks:
        raise DomainError("empty verification range")
    if ks[0] < 2:
        raise DomainError("verification needs k >= 2")
    results = []
    for k in ks:
        results.extend(_verify_one(k))
    return VerifyReport(results=tuple(results))
