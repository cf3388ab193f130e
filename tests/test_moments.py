from __future__ import annotations

import time
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airymoments import moments
from airymoments.errors import DomainError, InconsistencyError, SizeLimitError
from airymoments.exact import Polynomial
from airymoments.moments import (
    MAX_ORDER,
    cyclotomic,
    exponent_bound,
    formal_decomposition,
    h1_dims,
    mk_invariants,
    rho_preimage,
    s_nk,
)
from moments_reference import formal_decomposition_entries
from moments_reference import s_nk as s_nk_reference

PRIME_ORDERS = (2, 3, 5, 7, 11, 13)
COMPOSITE_ORDERS = (4, 6, 8, 9, 10)
#: Most compositions one example asks of the Fraction reference, about
#: 0.1 s; every such k lies far inside moments.ENUMERATION_CAP.
REFERENCE_BUDGET = 4000


def _largest_k(n: int, budget: int = REFERENCE_BUDGET) -> int:
    k = 0
    while comb(n + k, k + 1) <= budget:
        k += 1
    return k


def _orders_and_k(orders, budget: int = REFERENCE_BUDGET):
    return st.sampled_from(orders).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, _largest_k(n, budget)))
    )


def test_cyclotomic_small_indices():
    x = Polynomial.monomial(1)
    assert cyclotomic(1) == x - 1
    assert cyclotomic(2) == x + 1
    assert cyclotomic(3) == x * x + x + 1
    assert cyclotomic(4) == x * x + 1
    assert cyclotomic(6) == x * x - x + 1
    assert cyclotomic(12).degree == 4


def test_s_nk_frozen_values():
    assert s_nk(2, 3) == 0
    assert s_nk(2, 4) == 1
    assert s_nk(3, 3) == 1
    assert s_nk(3, 4) == 0
    assert s_nk(2, 0) == 1


@given(st.integers(0, 40))
def test_s_2k_alternates(k):
    assert s_nk(2, k) == (1 if k % 2 == 0 else 0)


@given(_orders_and_k(PRIME_ORDERS))
@settings(max_examples=50, deadline=None)
def test_s_nk_closed_form_matches_enumeration_at_prime_order(case):
    n, k = case
    assert s_nk(n, k) == s_nk_reference(n, k)


@pytest.mark.parametrize("n, k", [(3, 9), (5, 5), (5, 10), (7, 7)])
def test_s_nk_closed_form_counts_the_constant_relation(n, k):
    assert s_nk(n, k) == s_nk_reference(n, k) == 1


@given(_orders_and_k(COMPOSITE_ORDERS))
@settings(max_examples=50, deadline=None)
def test_s_nk_integer_count_matches_enumeration_at_composite_order(case):
    n, k = case
    assert s_nk(n, k) == s_nk_reference(n, k)


@given(_orders_and_k(COMPOSITE_ORDERS + (12, 14, 15, 16), budget=20000))
@settings(max_examples=50, deadline=None)
def test_meet_in_the_middle_matches_a_direct_zero_count(case):
    n, k = case
    sums = moments._weighted_sums(*moments._power_residues(n), k)
    direct = sum(1 for acc in sums if not any(acc))
    assert s_nk(n, k) == direct


def test_regular_rank_check_sees_a_wrong_count(monkeypatch):
    count = s_nk(6, 20)
    monkeypatch.setattr(moments, "s_nk", lambda n, k: count + 1)
    with pytest.raises(InconsistencyError, match="regular rank"):
        formal_decomposition(6, 20)


def test_prime_order_still_enforces_the_cap():
    # The closed form enumerates nothing, so only the order is capped:
    # n = 3 has 50,015,001 compositions of k = 10,000, far above the
    # enumeration cap, and MAX_ORDER + 1 = 101 is prime.
    assert s_nk(3, 10_000) == 0
    assert s_nk(97, 9999) == 0 and s_nk(97, 9700) == 1
    with pytest.raises(SizeLimitError, match="order"):
        s_nk(MAX_ORDER + 1, 10_000)


def test_s_nk_cap_enforced():
    # Meet in the middle at n = 8 visits 2 * binom(4 + k, k) sums:
    # 271,502 at k = 40, inside the cap of 10**7 though the full
    # enumeration has 62,891,499; 2,187,135,002 at k = 400, above it.
    assert s_nk(8, 40) == 1771
    with pytest.raises(SizeLimitError, match="cap"):
        s_nk(8, 400)
    # formal_decomposition still enumerates every composition.
    with pytest.raises(SizeLimitError, match="62891499 compositions"):
        formal_decomposition(8, 40)


@pytest.mark.parametrize(
    "fn", [s_nk, h1_dims, formal_decomposition, exponent_bound]
)
def test_order_is_capped_before_the_residue_table(fn):
    cyclotomic.cache_clear()
    with pytest.raises(SizeLimitError, match="order"):
        fn(MAX_ORDER + 1, 1)
    assert cyclotomic.cache_info().currsize == 0
    assert h1_dims(MAX_ORDER, 1).all >= 0


# Every order up to 12 at each k up to 40 whose enumeration visits at
# most 3,000 compositions.  Budget: the 168 decompositions take about
# 0.3 s on a 2-vCPU VM, and have 5 s.
def test_exponent_bound_bounds_the_exponents_listed():
    start = time.perf_counter()
    for n in range(2, 13):
        k = 0
        while k <= 40 and comb(n - 1 + k, k) <= 3000:
            visits, bound = exponent_bound(n, k)
            listed = len(formal_decomposition(n, k).entries)
            assert visits == comb(n - 1 + k, k)
            assert listed <= bound <= visits, (n, k)
            if n in (2, 3, 5, 7, 11):
                assert listed == bound - (k % n == 0)
            k += 1
    # The ball bound is the tighter one where most sums coincide: at
    # n = 4 the 80,401 points of |y|_1 <= 200 in Z^2, of which 40,400
    # are listed, against 1,373,701 visits.
    assert exponent_bound(4, 200) == (1373701, 80401)
    with pytest.raises(DomainError):
        exponent_bound(1, 3)
    with pytest.raises(DomainError):
        exponent_bound(3, -1)
    assert time.perf_counter() - start < 5


def test_h1_dims_frozen_values():
    assert h1_dims(2, 5) == (3, 3)
    assert h1_dims(2, 4) == (1, 0)
    assert h1_dims(3, 3) == (2, 1)
    assert h1_dims(2, 1) == (1, 1)
    assert h1_dims(4, 4) == (5, 5)


@given(st.integers(1, 60))
def test_h1_dims_order_two_closed_form(k):
    kp = (k - 1) // 2
    dims = h1_dims(2, k)
    assert dims.all == (kp + 1 if k % 2 else kp)
    assert dims.mid == dims.all - (1 if k % 4 == 0 else 0)


def test_h1_dims_domain():
    with pytest.raises(DomainError):
        h1_dims(1, 3)
    with pytest.raises(DomainError):
        h1_dims(2, 0)


def test_formal_decomposition_order_two_cubic():
    d = formal_decomposition(2, 3)
    assert d.regular_rank == 0
    exponents = sorted(coeffs[0] for coeffs, _ in d.entries)
    assert exponents == [
        Fraction(-2),
        Fraction(-2, 3),
        Fraction(2, 3),
        Fraction(2),
    ]
    assert all(mult == 1 for _, mult in d.entries)


def test_formal_decomposition_order_two_square():
    d = formal_decomposition(2, 2)
    assert d.regular_rank == 1
    assert sorted(c[0] for c, _ in d.entries) == [
        Fraction(-4, 3),
        Fraction(4, 3),
    ]


@given(st.integers(2, 4), st.integers(0, 8))
@settings(deadline=None)
def test_formal_decomposition_total_mass(n, k):
    d = formal_decomposition(n, k)
    irregular = sum(mult for _, mult in d.entries)
    assert d.regular_rank + irregular == comb(n - 1 + k, k)
    assert d.regular_rank == s_nk(n, k)


@given(
    st.integers(2, 8).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, _largest_k(n, 1500)))
    )
)
@settings(max_examples=50, deadline=None)
def test_formal_decomposition_matches_reference_in_order(case):
    n, k = case
    assert formal_decomposition(n, k).entries == formal_decomposition_entries(
        n, k
    )


@given(st.integers(1, 40))
def test_order_two_exponent_pattern(k):
    d = formal_decomposition(2, k)
    expected = sorted(
        Fraction(2 * (2 * j - k), 3)
        for j in range(k + 1)
        if Fraction(2 * (2 * j - k), 3) != 0
    )
    got = sorted(
        coeffs[0] for coeffs, mult in d.entries for _ in range(mult)
    )
    assert got == expected


def test_rho_preimage_frozen_values():
    assert rho_preimage(6, 0, 3) == 2
    assert rho_preimage(6, 0, 2) == 2
    assert rho_preimage(6, 1, 2) == 2
    assert rho_preimage(6, 1, 4) == 1
    assert rho_preimage(6, 2, 4) == 2
    assert rho_preimage(6, 0, 100) == 0


@given(st.integers(1, 40), st.integers(0, 2))
def test_rho_preimages_partition_domain(k, epsilon):
    domain = sum(1 for j in range(k + 1) if (k + j + epsilon) % 3)
    total = sum(rho_preimage(k, epsilon, p) for p in range(k + 3))
    assert total == domain
    assert all(
        rho_preimage(k, epsilon, p) in (0, 1, 2) for p in range(k + 3)
    )


def _rho_preimage_scan(k, epsilon, p):
    # The definition, one j at a time.
    return sum(
        1
        for j in range(k + 1)
        if (k + j + epsilon) % 3 and (k + j + epsilon) // 3 == p
    )


@given(st.integers(1, 80), st.integers(0, 2), st.integers(-5, 90))
def test_rho_preimage_matches_scan(k, epsilon, p):
    assert rho_preimage(k, epsilon, p) == _rho_preimage_scan(k, epsilon, p)


def test_rho_preimage_domain():
    with pytest.raises(DomainError):
        rho_preimage(6, 3, 1)
    with pytest.raises(DomainError):
        rho_preimage(0, 0, 1)


def test_mk_invariants_frozen_k6():
    m0 = mk_invariants(6, 0)
    assert m0.rank == 4
    assert m0.nu == (3, 2, 2)
    assert m0.phi_unit_dim == 1
    assert m0.psi_unit_dim == 4
    assert m0.singular_points == tuple(
        Fraction(2 * (2 * j - 6), 3) for j in range(7)
    )
    assert Fraction(0) in m0.singular_points
    m1 = mk_invariants(6, 1)
    assert (m1.rank, m1.phi_unit_dim, m1.psi_unit_dim) == (5, 0, 4)
    m2 = mk_invariants(6, 2)
    assert m2.rank == 5


def test_mk_invariants_rejects_odd_k():
    with pytest.raises(DomainError):
        mk_invariants(5, 0)
    with pytest.raises(DomainError):
        mk_invariants(6, 3)


@given(st.integers(1, 30), st.integers(0, 2))
def test_mk_invariants_relations(half_k, epsilon):
    k = 2 * half_k
    inv = mk_invariants(k, epsilon)
    assert sum(inv.nu) == k + 1
    assert len(inv.singular_points) == k + 1
    assert inv.singular_points == tuple(sorted(inv.singular_points))
    # the floor map's domain size is exactly the rank
    mass = sum(rho_preimage(k, epsilon, p) for p in range(k + 3))
    assert mass == inv.rank
    assert inv.psi_unit_dim == inv.rank - (0 if epsilon == 0 else 1)


@given(st.integers(1, 30))
def test_mk_ranks_sum_over_twists(half_k):
    k = 2 * half_k
    total = sum(mk_invariants(k, e).rank for e in range(3))
    assert total == 2 * (k + 1)
