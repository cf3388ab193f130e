from __future__ import annotations

import collections
import contextlib
import dataclasses
import functools
import gc
import hashlib
import io
import math
import time
import tracemalloc
import weakref
from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airymoments.errors import (
    DomainError,
    InconsistencyError,
    SizeLimitError,
    StabilityError,
)
from airymoments.asymptotics import mid_basis
from airymoments.moments import h1_dims, s_nk
from airymoments.exact import Polynomial
from airymoments import cli, connection
from airymoments.connection import (
    CohomologyBasis,
    ConnectionModule,
    ModuleElement,
    _Echelon,
    _build_stable_image,
    _element_ids,
    _monomial_id,
    _plan,
    _stable_image,
    build_symk,
    gm_cokernel_basis,
    h1_a1_basis,
    h1_dim_bruteforce,
    monomial_element,
    omega_class,
    omega_count,
    omega_level,
    reduce_to_basis,
)
import echelon_reference as reference

HALF = Fraction(1, 2)
Z = Polynomial.monomial(1)
ONE = Polynomial.constant(1)


def _entry(columns, i: int, j: int) -> Polynomial:
    """Generator-i coefficient of the image of generator j, summed over
    the (degree, target, coeff) triples of column j."""
    out = Polynomial()
    for m, target, c in columns[j]:
        if target == i:
            out = out + Polynomial.monomial(m, c)
    return out


def test_airy_order_two_derivation():
    # Sym^1 is the connection itself: d/dz u0 = u1, d/dz u1 = z u0
    m = build_symk(2, 1)
    assert m.labels == ("u0", "u1")
    assert _entry(m.partial, 0, 0).is_zero()
    assert _entry(m.partial, 0, 1) == Z
    assert _entry(m.partial, 1, 0) == ONE
    assert _entry(m.partial, 1, 1).is_zero()


def test_airy_general_order_wraps_with_z():
    m = build_symk(4, 1)
    assert m.labels == ("v(1,0,0,0)", "v(0,1,0,0)", "v(0,0,1,0)", "v(0,0,0,1)")
    assert _entry(m.partial, 1, 0) == ONE
    assert _entry(m.partial, 2, 1) == ONE
    assert _entry(m.partial, 3, 2) == ONE
    assert _entry(m.partial, 0, 3) == Z
    assert all(len(column) == 1 for column in m.partial)
    with pytest.raises(DomainError):
        build_symk(1, 1)


def test_symmetric_square_derivation():
    m = build_symk(2, 2)
    assert m.labels == ("u0", "u1", "u2")
    # d/dz u0 = 2 u1, d/dz u1 = u2 + z u0, d/dz u2 = 2z u1
    assert _entry(m.partial, 1, 0) == Polynomial.constant(2)
    assert _entry(m.partial, 2, 1) == ONE
    assert _entry(m.partial, 0, 1) == Z
    assert _entry(m.partial, 1, 2) == 2 * Z
    assert _entry(m.partial, 0, 0).is_zero()


def _reference_row(module, where, j, d):
    """(lead, row): the image row of z^d * g_j under the twist's
    denominator times z^up d/dz + twist (up = 1 over "gm", 0 over
    "a1"), in echelon ids, divided by its content and signed so that
    its lead entry is positive; (None, {}) when the row is zero.

    Written from the module's columns and weights alone, as a check on
    the row formula inside the package's build."""
    n, gens, weights = module.n, module.rank, module.weights
    up = int(where == "gm")
    scale = module.twist.denominator

    def at(degree, i):
        return _monomial_id(n * degree + weights[i], i, gens)

    row = {}
    for m, i, c in module.partial[j]:
        pos = at(d + m + up, i)
        row[pos] = row.get(pos, 0) + c * scale
    diagonal = d * scale + module.twist.numerator
    if diagonal:
        pos = at(d + up - 1, j)
        row[pos] = row.get(pos, 0) + diagonal
    row = {pos: c for pos, c in row.items() if c}
    if not row:
        return None, {}
    lead = min(row)
    g = math.gcd(*row.values())
    if row[lead] < 0:
        g = -g
    return lead, {pos: c // g for pos, c in row.items()}


def test_symmetric_power_half_twist_shifts_diagonal():
    m = build_symk(2, 2, HALF)
    assert m.partial == build_symk(2, 2).partial
    assert m.weights == (0, 1, 2)
    gens = m.rank

    def at(d, i):
        """Id of z^d * u_i, of weight 2d + i."""
        return _monomial_id(2 * d + i, i, gens)

    # Over G_m the row of z^d g_j is 2 (z d/dz + 1/2) z^d g_j: the
    # columns move one degree up and double, the diagonal is 2d + 1,
    # and d/dz u0 = 2 u1 becomes 4 z^(d+1) u1.
    for d in range(3):
        for j in range(gens):
            lead, row = _reference_row(m, "gm", j, d)
            assert row[at(d, j)] == 2 * d + 1
            assert lead == min(row)
        lead, row = _reference_row(m, "gm", 0, d)
        assert row == {at(d, 0): 2 * d + 1, at(d + 1, 1): 4}
    # Over A^1 the same formula with up = 0 and no twist is d/dz: the
    # diagonal d sits one degree down, and vanishes at d = 0.
    plain = build_symk(2, 2)
    lead, row = _reference_row(plain, "a1", 1, 0)
    assert row == {at(0, 2): 1, at(1, 0): 1}
    # u2 and z u0 both have weight 2: the highest generator leads.
    assert lead == min(row) == at(0, 2)
    assert _reference_row(plain, "a1", 1, 3)[1][at(2, 1)] == 3


def test_build_symk_validation():
    with pytest.raises(DomainError):
        build_symk(1, 2)
    with pytest.raises(DomainError):
        build_symk(2, 0)
    with pytest.raises(DomainError):
        build_symk(3, 2, HALF)
    with pytest.raises(DomainError):
        build_symk(2, 2, Fraction(1, 3))
    # 125,751 generators, above the fixed cap of 2,701
    with pytest.raises(SizeLimitError, match="cap"):
        build_symk(3, 500)


def test_general_order_labels_are_exponent_tuples():
    m = build_symk(3, 2)
    assert m.labels[0] == "v(2,0,0)"
    assert len(m.labels) == 6


def test_bruteforce_dimensions_order_two():
    assert h1_dim_bruteforce(build_symk(2, 3), "a1")[0] == 2
    assert h1_dim_bruteforce(build_symk(2, 2), "a1")[0] == 0
    assert h1_dim_bruteforce(build_symk(2, 2), "gm")[0] == 3
    assert h1_dim_bruteforce(build_symk(2, 1), "gm")[0] == 3
    # the Airy connection itself has H^1 of dimension 1
    assert h1_dim_bruteforce(build_symk(2, 1), "a1")[0] == 1


# ``gm_cokernel_basis`` certifies its classes (count against the brute
# force, and independence) from the first truncation k + 4, across the
# k the CLI accepts; it raises if either check fails.  The top even k,
# 512, and the top odd k, 2699, are in ``TOP_OF_BOUNDS``.  Budget: the
# 36 certificates up to k = 120 take about 0.45 s on a 2-vCPU VM, and
# have 8 s.
GM_BASIS_BUDGET_S = 8.0


def test_gm_basis_certifies_up_to_the_cli_bound(builds):
    start = time.perf_counter()
    ks = [*range(1, 120, 7), 120]
    for k in ks:
        for twist in (0, HALF):
            assert gm_cokernel_basis(k, twist).k == k
    assert time.perf_counter() - start < GM_BASIS_BUDGET_S
    assert len(builds) == 2 * len(ks)


def test_bruteforce_where_validation():
    m = build_symk(2, 2)
    with pytest.raises(DomainError):
        h1_dim_bruteforce(m, "p1")


def test_twisted_module_is_refused_over_the_affine_line():
    # d/dz has no twist, so a twisted module over A^1 would silently be
    # reduced as the untwisted one: every entry point refuses it.
    twisted = build_symk(2, 3, HALF)
    with pytest.raises(DomainError, match="untwisted"):
        h1_dim_bruteforce(twisted, "a1")
    with pytest.raises(DomainError, match="untwisted"):
        _stable_image(twisted, "a1")
    basis = CohomologyBasis(
        space="a1",
        k=3,
        twist=HALF,
        classes=(omega_class(1), omega_class(2)),
    )
    with pytest.raises(DomainError, match="untwisted"):
        reduce_to_basis(omega_class(1), basis, twisted)


def _monomial_power(power: int, k: int) -> ConnectionModule:
    """d/dz v = z^power v, whose cokernel over the affine line has
    dimension ``power``; ``k`` sets its first truncation, 3(k+1) + 6."""
    return ConnectionModule(
        n=1,
        k=k,
        twist=Fraction(0),
        labels=("v",),
        partial=(((power, 0, 1),),),
        weights=(0,),
    )


# d/dz v = z^1000 v has a 1000-dimensional cokernel: windows of degree
# 513, 1026 and 2052 see 514, 1000 and 1000 classes, so it certifies at
# the third truncation, 4104.  Under z^(10^6) the window holds no pivot
# at any truncation the cap allows, so its dimension grows at every
# doubling, and the truncation after 262,656 would insert 525,313 rows
# of its one generator, above MAX_WORK.  Its column is not homogeneous,
# so every source is a kernel step and every row goes through
# ``insert``.  Budget: the eight truncations take about 0.5 s and 140 MB
# on a 2-vCPU VM, and have 3 s.
UNSTABLE_BUDGET_S = 3.0


def test_bruteforce_unstable_dimension_raises():
    assert h1_dim_bruteforce(_monomial_power(1000, 339), "a1") == (1000, 4104)
    start = time.perf_counter()
    with pytest.raises(StabilityError, match="did not stabilise"):
        h1_dim_bruteforce(_monomial_power(10**6, 339), "a1")
    assert time.perf_counter() - start < UNSTABLE_BUDGET_S


# With the cap at 4,104, z^1000 v may build its first two truncations
# (1,027 and 2,053 kernel rows of one generator) but not the third
# (4,105): the refusal comes before any row of it, so the traced peak is
# that of two truncations, about half the 1.6 MB of the certified build.
# Budget: both builds take about 0.01 s on a 2-vCPU VM, and have 1 s.
def test_bruteforce_refuses_a_doubling_before_building_it(builds, monkeypatch):
    module = _monomial_power(1000, 339)
    truncations = []
    count = _Echelon.pivots_at_or_above

    def counted(self, threshold):
        truncations.append(len(self.rows))
        return count(self, threshold)

    monkeypatch.setattr(_Echelon, "pivots_at_or_above", counted)
    monkeypatch.setattr(connection, "MAX_WORK", 4105)
    start = time.perf_counter()
    tracemalloc.start()
    try:
        assert h1_dim_bruteforce(module, "a1") == (1000, 4104)
        _, certified = tracemalloc.get_traced_memory()
        connection._CERTIFIED.clear()
        connection._STABLE_CACHE.clear()
        monkeypatch.setattr(connection, "MAX_WORK", 4104)
        tracemalloc.reset_peak()
        with pytest.raises(StabilityError, match="did not stabilise"):
            h1_dim_bruteforce(module, "a1")
        _, refused = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert truncations == [1027, 2053, 4105, 1027, 2053]
    assert len(builds) == 2
    assert connection._STABLE_CACHE == {}
    assert refused < 0.6 * certified, (refused, certified)


def test_echelon_cache_tells_derivations_apart():
    # d/dz v0 = v1, d/dz v1 = z^2 v0 is not the Airy module, though it
    # has the same (n, k, twist): its cokernel has dimension 2, not 1.
    module = ConnectionModule(
        n=2,
        k=1,
        twist=Fraction(0),
        labels=("v0", "v1"),
        partial=(((0, 1, 1),), ((2, 0, 1),)),
        weights=(0, 0),
    )
    assert h1_dim_bruteforce(build_symk(2, 1), "a1")[0] == 1
    assert h1_dim_bruteforce(module, "a1")[0] == 2
    assert h1_dim_bruteforce(build_symk(2, 1), "a1")[0] == 1


@pytest.mark.parametrize("where", ["a1", "gm"])
def test_derivation_killing_a_generator_is_refused(where):
    # d/dz v1 = 0: the row of v1 itself is zero over both lines (no
    # column terms, and the diagonal d * v1 vanishes at d = 0), a kernel
    # of the derivation that the certificate must report.
    module = ConnectionModule(
        n=2,
        k=1,
        twist=Fraction(0),
        labels=("v0", "v1"),
        partial=(((0, 1, 1),), ()),
        weights=(0, 1),
    )
    with pytest.raises(InconsistencyError, match="reduced to zero"):
        h1_dim_bruteforce(module, where)


# Each change breaks the contract of the Airy module, d/dz u0 = u1 and
# d/dz u1 = z u0.  Served, such a module would give a wrong answer: the
# repeated pair, which means d/dz u0 = 0, would read as d/dz u0 = -u1
# (dimension 1 over A^1, where the kernel must be refused); a target -1
# takes the ids of the last generator one weight down (d/dz v = z^3 v
# would give dimension 2, not 3); repeated labels leave one generator
# that no element names; k = -3 starts the A^1 truncations at degree 0,
# where they never grow (d/dz v = z^3 v would give dimension 1).
@pytest.mark.parametrize(
    "change, match",
    [
        ({"weights": (0,)}, "differ in length"),
        ({"partial": (((0, 1, 1),),)}, "differ in length"),
        ({"labels": ("u0", "u0")}, "labels repeat"),
        ({"n": 0}, "at least 1"),
        ({"k": -3}, "at least 0"),
        ({"partial": (((0, -1, 1),), ((1, 0, 1),))}, "targets generator -1"),
        ({"partial": (((0, 2, 1),), ((1, 0, 1),))}, "targets generator 2"),
        ({"partial": (((-1, 1, 1),), ((1, 0, 1),))}, "degree -1"),
        ({"partial": (((0, 1, 0),), ((1, 0, 1),))}, "coefficient 0"),
        ({"partial": (((0, 1, HALF),), ((1, 0, 1),))}, "coefficient Fraction"),
        ({"partial": (((0, 1, 1.0),), ((1, 0, 1),))}, "coefficient 1.0"),
        ({"partial": (((0, 1, 1), (0, 1, -1)), ((1, 0, 1),))}, "repeats"),
    ],
    ids=["short-weights", "short-partial", "repeated-label", "order-0",
         "negative-k", "target-below", "target-above", "negative-degree",
         "zero-coeff", "fraction-coeff", "float-coeff", "repeated-pair"],
)
def test_module_refuses_what_breaks_its_contract(change, match):
    airy = build_symk(2, 1)
    with pytest.raises(DomainError, match=match):
        dataclasses.replace(airy, **change)


def test_module_contract_allows_an_empty_column():
    # d/dz v1 = 0 keeps its contract: the brute force refuses its kernel
    # (``test_derivation_killing_a_generator_is_refused``), not the module.
    airy = build_symk(2, 1)
    assert dataclasses.replace(airy, partial=(airy.partial[0], ())).rank == 2


def _pivot(echelon: _Echelon, at: int) -> dict[int, int] | None:
    """The row of ``echelon`` led at ``at``, looked up as
    ``_Echelon._reduce`` looks it up: the held row, else the row of the
    build's plans, written out afresh."""
    row = echelon.rows.get(at)
    if row is None and echelon.plans:
        row = echelon.plans.row(at)
    return row


def _image(echelon: _Echelon) -> dict[int, dict[int, int]]:
    """Every row of ``echelon`` by its lead, through ``_pivot``: the
    held leads, and every id a planned row of the truncation may lead,
    from the plans' floor up."""
    ids = set(echelon.rows)
    plans = echelon.plans
    if plans:
        ids.update(range(plans.floor, plans.stride // plans.n))
    image = {}
    for at in sorted(ids):
        row = _pivot(echelon, at)
        if row is not None:
            image[at] = row
    return image


def _assert_same_image(echelon: _Echelon, reference: _Echelon) -> None:
    """``echelon`` holds the rows of ``reference`` under the same leads,
    and the rows ``insert`` stored in the reference's order; planned
    rows have no order, so only the lead-to-row maps are compared, and
    so are the pivot counts at every seventh lead."""
    assert _image(echelon) == reference.rows
    held = list(echelon.rows)
    assert held == [lead for lead in reference.rows if lead in echelon.rows]
    leads = sorted(reference.rows)
    for threshold in leads[::7]:
        assert echelon.pivots_at_or_above(threshold) == (
            reference.pivots_at_or_above(threshold)
        )


# Every echelon row of the full build, with the window, degree and
# dimension, of these modules, digested per space.  PINNED_DIGESTS hash
# the degree-ordered reference build, with its anchor, pinned when the
# kernel still divided out the content after every elimination step;
# WEIGHTED_DIGESTS hash the package's weight-ordered build, and the
# image held for queries, which is that build as it is.  A cheaper
# kernel must build the same rows, so no digest may move.
# WEIGHTED_DIGESTS were taken again when the ids lost their anchor,
# from the rows of the build before with each id moved down by anchor
# times gens: the same rows, keyed by the new ids.  Budget: each digest
# takes about 0.05 s on a 2-vCPU VM, and has 1 s.
PINNED_MODULES = (
    [(2, k, twist, where) for k in (1, 2, 3, 5, 8, 11)
     for twist, where in ((0, "a1"), (0, "gm"), (HALF, "gm"))]
    + [(3, k, 0, where) for k in range(1, 5) for where in ("a1", "gm")]
    + [(4, k, 0, where) for k in range(1, 4) for where in ("a1", "gm")]
)
PINNED_DIGESTS = {
    "a1": "6eb17622d9e3622fce75efd05d2bf01fd9fdb65288bf13f69c4c3315f03521c6",
    "gm": "33767a9381553ad69a5b92d41f11000e5adc719de75529eb8751ef6f360df486",
}
WEIGHTED_DIGESTS = {
    "a1": "d73552d830c3632aecd3dddae710454c2e91d6b1b587849065ca6c40eb97b690",
    "gm": "9b3085e422297721d1c3dd4037e66f782ed21cd47318e8b8b1f97b9c36f43d5c",
}


def _build(module, where):
    """The image ``_stable_image`` builds, uncached, from plans of its
    own."""
    return _build_stable_image(module, where, _plan(module, where))


def _rows_digest(build, space: str, anchored: bool = False) -> str:
    digest = hashlib.sha256()
    for n, k, twist, where in PINNED_MODULES:
        if where != space:
            continue
        state = build(build_symk(n, k, twist), where)
        anchor = (state.anchor,) if anchored else ()
        digest.update(repr((
            n, k, str(twist), where,
            *anchor, state.window, state.degree, state.dim,
        )).encode())
        digest.update(repr(sorted(
            (lead, sorted(row.items()))
            for lead, row in _image(state.echelon).items()
        )).encode())
    return digest.hexdigest()


def test_stored_echelon_rows_are_pinned():
    for space, pinned in PINNED_DIGESTS.items():
        start = time.perf_counter()
        assert _rows_digest(reference.build_image, space, True) == pinned, space
        assert time.perf_counter() - start < 1.0


def test_weighted_echelon_rows_are_pinned(builds):
    for space, pinned in WEIGHTED_DIGESTS.items():
        for build in (_build, _stable_image):
            start = time.perf_counter()
            assert _rows_digest(build, space) == pinned, space
            assert time.perf_counter() - start < 1.0
    # Every image held was built here, none left by an earlier test.
    assert len(builds) == len(PINNED_MODULES)


def _inserted_image(module, where, state) -> _Echelon:
    """Every image row of the truncation ``state`` stopped at, each
    through ``_Echelon.insert``, in the build's order: by weight, then
    by source generator weight and index."""
    n, bound = module.n, module.n * state.degree
    sources = sorted(
        (n * d + w, w, j, d)
        for j, w in enumerate(module.weights)
        for d in range((bound - w) // n + 1)
    )
    echelon = _Echelon()
    for _, _, j, d in sources:
        lead, row = _reference_row(module, where, j, d)
        assert lead == min(row) and row[lead] > 0
        assert math.gcd(*row.values()) == 1
        assert echelon.insert(row)
    return echelon


# Negative coefficients, whose rows the build must store with a positive
# lead; Sym^2, the module of the hand-written rows above; and Sym^4,
# whose u2 column (2 u3 + 2 z u1) has content 2.
NEGATIVE_AIRY = ConnectionModule(
    n=2,
    k=1,
    twist=Fraction(0),
    labels=("v0", "v1"),
    partial=(((0, 1, -2),), ((1, 0, -4),)),
    weights=(0, 1),
)


# From Sym^2 on, a symmetric power has rows whose top collides, which
# the build replays from its layer plans: one source of the plans
# collides at order 2, 5 at Sym^5 of order 3 and 28 at Sym^7 of order 4.
# At Sym^2, Sym^4 and Sym^10 of order 2 and Sym^6 of order 4, some of
# those tops cancel: kernel rows, whose tails go to ``insert``.  Sym^4
# of order 5 and Sym^3 of order 6 have the longest runs of weights below
# their layers' largest w_j, where the plans are replayed m < 0 strides
# on.  Budget: the largest, Sym^7 at order 4 over A^1, takes about 0.1 s
# with its all-insert reference on a 2-vCPU VM, and has 1 s.
@pytest.mark.parametrize(
    "module, where",
    [
        (NEGATIVE_AIRY, "a1"),
        (NEGATIVE_AIRY, "gm"),
        (dataclasses.replace(NEGATIVE_AIRY, twist=HALF), "gm"),
        (build_symk(2, 2, HALF), "gm"),
        (build_symk(2, 2), "a1"),
        (build_symk(2, 4), "a1"),
        (build_symk(2, 4), "gm"),
        (build_symk(2, 4, HALF), "gm"),
        (build_symk(2, 9), "a1"),
        (build_symk(2, 9), "gm"),
        (build_symk(2, 9, HALF), "gm"),
        (build_symk(2, 10), "a1"),
        (build_symk(3, 5), "a1"),
        (build_symk(3, 5), "gm"),
        (build_symk(4, 6), "a1"),
        (build_symk(4, 6), "gm"),
        (build_symk(4, 7), "a1"),
        (build_symk(4, 7), "gm"),
        (build_symk(5, 4), "a1"),
        (build_symk(5, 4), "gm"),
        (build_symk(6, 3), "a1"),
        (build_symk(6, 3), "gm"),
    ],
    ids=["negative-a1", "negative-gm", "negative-gm-half",
         "sym2-gm-half", "sym2-a1", "sym4-a1", "sym4-gm", "sym4-gm-half",
         "sym9-a1", "sym9-gm", "sym9-gm-half", "sym10-a1",
         "order3-sym5-a1", "order3-sym5-gm", "order4-sym6-a1",
         "order4-sym6-gm", "order4-sym7-a1", "order4-sym7-gm",
         "order5-sym4-a1", "order5-sym4-gm", "order6-sym3-a1",
         "order6-sym3-gm"],
)
def test_build_stores_the_rows_that_insert_would(module, where):
    start = time.perf_counter()
    state = _build(module, where)
    reference = _inserted_image(module, where, state)
    assert time.perf_counter() - start < 1.0
    _assert_same_image(state.echelon, reference)
    assert all(row[lead] > 0 for lead, row in _image(state.echelon).items())


# Column 0 of this module has weight 0 where its generator has weight 0
# too, not 0 + 1: its top-weight rows are not its columns, so no row of
# it may be stored from a plan.
UNGRADED_AIRY = dataclasses.replace(NEGATIVE_AIRY, weights=(0, 0))


@pytest.mark.parametrize("where", ["a1", "gm"])
def test_ungraded_columns_insert_every_row(counted, where):
    state = _build(UNGRADED_AIRY, where)
    # Both generators have weight 0, so truncation D has D + 1 sources
    # of each, and none of their rows is stored directly.
    assert counted["insert"] == 2 * (state.degree + 1)
    reference = _inserted_image(UNGRADED_AIRY, where, state)
    assert list(state.echelon.rows.items()) == list(reference.rows.items())
    _assert_same_image(state.echelon, reference)
    # The same columns under their own weights find every row by its lead.
    counted.clear()
    _build(NEGATIVE_AIRY, where)
    assert counted["insert"] == 0


def test_insert_refuses_a_lead_a_later_truncation_plans():
    # A planned lead below the floor is a later truncation's: a row
    # stored there would hide that row from every reduction, so a
    # reduction that reads one is refused, in ``insert`` and in
    # ``normal_form``.  No build meets this (see ``_build_stable_image``);
    # here it is forced, one stride past a step's last row.
    state = _build(build_symk(2, 4), "a1")
    echelon, plans = state.echelon, state.echelon.plans
    lead, _, _ = next(iter(plans.table.values()))
    at = lead - ((lead - plans.floor) // plans.stride + 1) * plans.stride
    assert at < plans.floor <= at + plans.stride
    assert plans.row(at + plans.stride)
    held = dict(echelon.rows)
    with pytest.raises(InconsistencyError, match="planned lead"):
        echelon.insert({at: 1})
    with pytest.raises(InconsistencyError, match="planned lead"):
        echelon.normal_form((1, {at: 1}))
    assert echelon.rows == held


# A symmetric power's build holds no row whose planned top does not
# cancel: a reduction finds it from its lead and writes it out each
# time it reads it (where s_nk = 0 no top cancels, and ``GRID`` checks
# that a dimension query then writes no row out).  A class normal form
# writes out only the rows it reads, each the row the all-insert
# reference holds under the same lead, and keeps none of them.  Budget:
# both builds and both references take about 0.1 s on a 2-vCPU VM, and
# have 3 s.
LAZY_BUDGET_S = 3.0


def test_rows_are_written_out_only_when_read(builds, counted):
    start = time.perf_counter()

    def check(module, where):
        state = connection._STABLE_CACHE[(module, where)]
        assert 0 < counted["replay"] < len(_image(state.echelon))
        _assert_same_image(
            state.echelon, _inserted_image(module, where, state)
        )

    gm_cokernel_basis(26)
    check(build_symk(2, 26), "gm")
    counted.clear()
    middle, module = mid_basis(24), build_symk(2, 24)
    for element in middle.classes:
        reduce_to_basis(element, middle, module)
    check(module, "a1")
    assert len(builds) == 2
    assert time.perf_counter() - start < LAZY_BUDGET_S


@pytest.mark.parametrize(
    "n, k, twist, where", PINNED_MODULES, ids=lambda v: str(v)
)
def test_cached_image_keeps_the_window_rows_of_the_full_build(
    n, k, twist, where
):
    # Monomials of weighted degree at most ``window`` (weight at most
    # n * window) have ids from the window's first id up, and only they;
    # the held image's rows led there count its certified dimension.
    module = build_symk(n, k, twist)
    state = _stable_image(module, where)
    bound = n * state.window
    first = _window_start(state, module)
    for i in range(module.rank):
        for weight in (bound - 1, bound, bound + 1):
            at = _monomial_id(weight, i, module.rank)
            assert (at >= first) == (weight <= bound)
    monomials = sum((bound - w) // n + 1 for w in module.weights if w <= bound)
    assert monomials - state.echelon.pivots_at_or_above(first) == state.dim


def _record_builds(patch) -> list[tuple]:
    """Empty the held image and the dims table, and record the
    (module, where) of every image built from here on.  Each build must
    start with no image held."""
    patch.setattr(connection, "_STABLE_CACHE", {})
    patch.setattr(connection, "_CERTIFIED", {})
    built = []
    build = connection._build_stable_image

    def counted(module, where, plans):
        assert not connection._STABLE_CACHE, "an image is held during a build"
        built.append((module, where))
        return build(module, where, plans)

    patch.setattr(connection, "_build_stable_image", counted)
    return built


def _count_calls(patch) -> collections.Counter:
    """Count, from here on, the rows sent through ``_Echelon.insert``
    (under "insert") and the planned rows ``_Plans.replay`` writes out
    (under "replay")."""
    counts = collections.Counter()

    def counting(name, method):
        def count(self, *args):
            counts[name] += 1
            return method(self, *args)

        return count

    for owner, name in ((_Echelon, "insert"), (connection._Plans, "replay")):
        patch.setattr(owner, name, counting(name, getattr(owner, name)))
    return counts


@pytest.fixture
def builds(monkeypatch):
    return _record_builds(monkeypatch)


@pytest.fixture
def counted(monkeypatch):
    return _count_calls(monkeypatch)


def test_middle_basis_reductions_build_no_image(builds):
    # The middle-basis reductions that follow a dimension query of
    # Sym^40 a1 must read the held image, not build another.
    module = build_symk(2, 40)
    key = (module, "a1")
    h1_dim_bruteforce(module, "a1")
    assert builds == [key]
    state = connection._STABLE_CACHE[key]
    basis = mid_basis(40)
    for element in basis.classes:
        reduce_to_basis(element, basis, module)
    assert builds == [key]
    assert connection._STABLE_CACHE == {key: state}


def test_gm_bases_hold_one_image_and_keep_every_dimension(builds):
    # Each basis certifies its dimension against a new image, which
    # drops the one before it; the dimensions stay in the table.
    modules = [build_symk(2, k, twist) for k in range(8, 15)
               for twist in (0, HALF)]
    for module in modules:
        gm_cokernel_basis(module.k, module.twist)
    assert builds == [(module, "gm") for module in modules]
    assert list(connection._STABLE_CACHE) == [(modules[-1], "gm")]
    first = modules[0]
    assert h1_dim_bruteforce(first, "gm") == (
        reference.h1_dim_bruteforce(first, "gm")
    )
    assert len(builds) == len(modules)


def test_dims_table_keeps_no_module_alive(builds):
    # A range certifies every k in the dims table, which must not keep
    # each k's module alive: it is keyed by the module's repr.  An equal
    # module, built again, is still answered from it.
    module = build_symk(2, 9)
    alive = weakref.ref(module)
    certified = h1_dim_bruteforce(module, "gm")
    h1_dim_bruteforce(build_symk(2, 10), "gm")
    builds.clear()  # the fixture's record of each build holds its module
    del module
    assert alive() is None
    assert h1_dim_bruteforce(build_symk(2, 9), "gm") == certified
    assert builds == []


# The held image is the whole last truncation, and one image is held at
# a time.  A k's plans are made while the image before it is held, as a
# refusal of that k keeps it, so the traced peak of a range of gm bases
# is its largest build plus one held image and its solver: about 1.3
# times the largest build, with 1.4 allowed.  Its images hold only their
# kernel rows, small enough that two things would blur that, and both
# are kept out of the count.  The ``builds`` fixture keeps every module
# built, so this test counts the builds by k instead.  And CPython keeps
# dead tuples, dicts and lists in free lists for reuse, which
# tracemalloc still counts: a range's dropped images left about 90 KB
# there, over a traced peak of about 200 KB.  A full collection empties
# those lists before the trace and before each build.  Budget: both commands take about 1 s traced on a
# 2-vCPU VM, and have 15 s.
RANGE_BUDGET_S = 15.0


def _traced_peak(argv) -> int:
    """Traced peak of ``argv`` from no image held, an empty dims table
    and empty free lists."""
    connection._STABLE_CACHE.clear()
    connection._CERTIFIED.clear()
    gc.collect()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_gm_range_peaks_at_its_largest_build(monkeypatch):
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    monkeypatch.setattr(connection, "_STABLE_CACHE", {})
    monkeypatch.setattr(connection, "_CERTIFIED", {})
    built = []
    build = connection._build_stable_image

    def counted(module, where, plans):
        assert not connection._STABLE_CACHE, "an image is held during a build"
        built.append(module.k)
        gc.collect()
        return build(module, where, plans)

    monkeypatch.setattr(connection, "_build_stable_image", counted)
    start = time.perf_counter()
    alone = _traced_peak(["basis", "--space", "gm", "--k", "32"])
    ranged = _traced_peak(["basis", "--space", "gm", "--k", "24..32"])
    assert time.perf_counter() - start < RANGE_BUDGET_S
    assert built == [32, *range(24, 33)]
    assert ranged <= 1.4 * alone, (ranged, alone)


def test_reduce_rebuilds_an_image_dropped_for_another(builds):
    # The a1 image of Sym^12 is dropped when a gm basis builds its own,
    # and rebuilt, once, when its classes are reduced again.
    module = build_symk(2, 12)
    basis = mid_basis(12)
    units = [
        tuple(Fraction(int(i == j)) for j in range(len(basis)))
        for i in range(len(basis))
    ]
    assert [reduce_to_basis(c, basis, module) for c in basis.classes] == units
    gm_cokernel_basis(12)
    assert (module, "a1") not in connection._STABLE_CACHE
    assert [reduce_to_basis(c, basis, module) for c in basis.classes] == units
    assert builds == [
        (module, "a1"), (build_symk(2, 12), "gm"), (module, "a1")
    ]
    window = connection._STABLE_CACHE[(module, "a1")].window
    with pytest.raises(StabilityError, match="exceeds the stabilised window"):
        reduce_to_basis(monomial_element("u0", window + 1), basis, module)
    assert len(builds) == 3


@pytest.mark.parametrize(
    "where, twist",
    [("a1", 0), ("gm", 0), ("gm", HALF)],
    ids=["a1", "gm-rho0", "gm-rho1/2"],
)
def test_reduce_refuses_elements_above_the_window(where, twist):
    # The quotient is certified only inside the stabilised window: above
    # it, the last truncation may lack image rows that a larger one
    # would add, so an element there must be refused, not reduced.
    module = build_symk(2, 5, twist)
    basis = h1_a1_basis(5) if where == "a1" else gm_cokernel_basis(5, twist)
    window = _stable_image(module, where).window
    reduce_to_basis(monomial_element("u0", window), basis, module)
    with pytest.raises(StabilityError, match="exceeds the stabilised window"):
        reduce_to_basis(monomial_element("u0", window + 1), basis, module)


WINDOW_MODULES = (
    [(2, k, twist, where) for k in range(1, 13)
     for twist, where in ((0, "a1"), (0, "gm"), (HALF, "gm"))]
    + [(3, k, 0, where) for k in range(1, 5) for where in ("a1", "gm")]
)


def _window_start(state, module) -> int:
    """First id of the window: the top generator at the window's
    weight, n times its weighted degree."""
    return _monomial_id(module.n * state.window, module.rank - 1, module.rank)


def _draw_entries(data, module, top) -> dict[tuple[int, int], Fraction]:
    """Nonzero coefficients on at most eight monomials z^d * g_i, drawn
    with d <= top(i)."""
    monomials = st.integers(0, module.rank - 1).flatmap(
        lambda i: st.tuples(st.integers(0, top(i)), st.just(i))
    )
    coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    return data.draw(st.dictionaries(
        monomials, coeffs.filter(bool), max_size=8
    ))


def _element(module, entries) -> ModuleElement:
    return ModuleElement(tuple(
        (module.labels[i], Polynomial.monomial(d, c))
        for (d, i), c in entries.items()
    ))


# The normal form of a vector inside the window stays inside it, and is
# reduced: no id of it has a pivot.  Budget: the 60 examples take about
# 1 s under pytest on a 2-vCPU VM, and have 5 s.
WINDOW_BUDGET_S = 5.0


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def _window_normal_form_stays_in_the_window(data):
    n, k, twist, where = data.draw(st.sampled_from(WINDOW_MODULES))
    module = build_symk(n, k, twist)
    state = _stable_image(module, where)
    # The highest degree of each generator inside the weighted window.
    bound = n * state.window
    entries = _draw_entries(
        data, module, lambda i: (bound - module.weights[i]) // n
    )
    vector = _element_ids(_element(module, entries), module, state)
    _, form = state.echelon.normal_form(vector)
    first = _window_start(state, module)
    assert all(
        pos >= first and _pivot(state.echelon, pos) is None for pos in form
    )


def test_window_normal_forms_stay_in_the_window():
    start = time.perf_counter()
    _window_normal_form_stays_in_the_window()
    assert time.perf_counter() - start < WINDOW_BUDGET_S


def _closed_form_basis(k, twist, where) -> CohomologyBasis:
    """The closed-form basis of H^1 over G_m, or over A^1 its classes
    z^(i-1) u0, which ``h1_a1_basis`` serves from k = 2 on."""
    if where == "gm":
        return gm_cokernel_basis(k, twist)
    classes = tuple(omega_class(i) for i in range(1, omega_count(k) + 1))
    return CohomologyBasis(space="a1", k=k, twist=Fraction(0), classes=classes)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_weight_order_matches_the_degree_reference(data):
    # Both orders certify the same (dim, degree).  An element of the
    # degree window reduces to the same coordinates in both, unless a
    # term of it lies above the weighted window: the weight order
    # refuses that element instead.
    n, k, twist, where = data.draw(st.sampled_from(WINDOW_MODULES))
    module = build_symk(n, k, twist)
    degree_image = reference.cached_image(module, where)
    assert h1_dim_bruteforce(module, where) == (
        degree_image.dim, degree_image.degree
    )
    if n != 2:
        return
    window = _stable_image(module, where).window
    entries = _draw_entries(data, module, lambda i: window)
    element = _element(module, entries)
    basis = _closed_form_basis(k, twist, where)
    expected = reference.reduce_to_basis(element, basis, module)
    if any(2 * d + module.weights[i] > 2 * window for d, i in entries):
        with pytest.raises(StabilityError, match="weighted degree"):
            reduce_to_basis(element, basis, module)
    else:
        assert reduce_to_basis(element, basis, module) == expected


# Every module of this grid, 172 in all: order 2 with k <= 40 over A^1
# and over G_m at both twists, and orders 3 to 6 over both lines.  The
# ``grid`` fixture builds each once, from empty caches, and each test
# that reads it checks one claim of the brute force on every module.
# Budget: the 172 builds take about 0.35 s on a 2-vCPU VM, and have 5 s;
# the sweep takes about 3 s, most of it the degree reference, and has
# 30 s.
GRID = (
    [(2, k, twist, where) for k in range(1, 41)
     for twist, where in ((0, "a1"), (0, "gm"), (HALF, "gm"))]
    + [(n, k, 0, where) for n, top in ((3, 10), (4, 7), (5, 5), (6, 4))
       for k in range(1, top + 1) for where in ("a1", "gm")]
)
GRID_BUILDS_BUDGET_S = 5.0
GRID_BUDGET_S = 30.0

# The one exception to the degree claim: order-4 Sym^7 over G_m, which
# the weight order certifies a doubling later, at 44, than the degree
# reference does, at 22, with the same dimension.  A wasted doubling,
# kept, that runs the row check before a third truncation on a real
# module.
LATE = {(4, 7, 0, "gm"): 44}

# (image rows, rows sent through ``insert``) of some grid builds: every
# row is its step of its layer's plan, found from its lead unless its
# top cancels.  Of these, only the even-k order-2 modules have such
# kernel rows, 2-3% of their rows; the order-3 and order-4 modules
# insert no row, below their layers' largest w_j too.  The plans' own
# scratch elimination is not counted.
STORED = {
    (2, 40, 0, "a1"): (10199, 239),
    (2, 36, HALF, "gm"): (2655, 63),
    (2, 33, 0, "gm"): (2261, 0),
    (3, 10, 0, "a1"): (4972, 0),
    (4, 7, 0, "a1"): (6960, 0),
    (4, 7, 0, "gm"): (5040, 0),
}


class Built(NamedTuple):
    """What the grid's claims read of one module's build: its answer,
    window, inserts, replays and held rows, the inserts its plans
    predict at its degree, its image rows (for the ``STORED`` cases
    only), and the degree reference's answer."""

    dim: int
    degree: int
    window: int
    inserted: int
    replayed: int
    held: int
    predicted: int
    image: int | None
    reference: tuple[int, int]


class Sweep(NamedTuple):
    records: dict[tuple, Built]
    built: list[tuple]
    images_held: int
    building_s: float
    sweep_s: float


@pytest.fixture(scope="module")
def grid() -> Sweep:
    """Each module of ``GRID`` built once, from empty caches, counting
    its inserts and replays; the caches and the engine are restored
    after the sweep."""
    with pytest.MonkeyPatch.context() as patch:
        built, counts = _record_builds(patch), _count_calls(patch)
        start, building, records = time.perf_counter(), 0.0, {}
        for case in GRID:
            n, k, twist, where = case
            module = build_symk(n, k, twist)
            counts.clear()
            began = time.perf_counter()
            dim, degree = h1_dim_bruteforce(module, where)
            building += time.perf_counter() - began
            inserted, replayed = counts["insert"], counts["replay"]
            state = connection._STABLE_CACHE[module, where]
            echelon = state.echelon
            image = len(_image(echelon)) if case in STORED else None
            records[case] = Built(
                dim, degree, state.window, inserted, replayed,
                len(echelon.rows), echelon.plans.kernel_rows(degree), image,
                reference.h1_dim_bruteforce(module, where),
            )
        held = len(connection._STABLE_CACHE)
        return Sweep(
            records, built, held, building, time.perf_counter() - start
        )


def _failing(grid: Sweep, claim) -> list[tuple]:
    """The cases whose build fails ``claim(n, k, twist, where, built)``."""
    return [
        case for case, built in grid.records.items()
        if not claim(*case, built)
    ]


def _certified(k: int, where: str) -> int:
    """The degree of a certificate that stops after one doubling."""
    return 2 * connection._first_truncation(k, where)


def test_grid_builds_each_module_once(grid):
    assert len(grid.built) == len(set(grid.built)) == len(GRID) == 172
    assert grid.images_held == 1
    assert grid.building_s < GRID_BUILDS_BUDGET_S
    assert grid.sweep_s < GRID_BUDGET_S


def test_closed_form_dims_match_bruteforce(grid):
    assert _failing(grid, lambda n, k, twist, where, built: (
        where != "a1" or built.dim == h1_dims(n, k).all
    )) == []


def test_exact_sequence_of_dimensions(grid):
    # Removing the origin adds one residue class per generator: over G_m
    # H^1 has rank more classes than over A^1, at both twists.
    a1 = {(n, k): built.dim for (n, k, _, where), built in
          grid.records.items() if where == "a1"}
    assert _failing(grid, lambda n, k, twist, where, built: (
        where != "gm" or built.dim == a1[n, k] + math.comb(n - 1 + k, k)
    )) == []


def _gm_count(k: int) -> int:
    """dim H^1 over G_m of Sym^k of the Airy connection: 3(k' + 1) for
    odd k and k + k' + 1 for even k, k' = (k - 1) // 2."""
    kp = (k - 1) // 2
    return 3 * (kp + 1) if k % 2 else k + kp + 1


def test_bruteforce_gm_matches_closed_count(grid):
    assert _failing(grid, lambda n, k, twist, where, built: (
        (n, twist, where) != (2, 0, "gm") or built.dim == _gm_count(k)
    )) == []


def test_gm_dimension_formula_matches_bruteforce(grid):
    # The same count holds for the half twist.
    assert _failing(grid, lambda n, k, twist, where, built: (
        (n, twist, where) != (2, HALF, "gm") or built.dim == _gm_count(k)
    )) == []


def test_bruteforce_twist_invariance(grid):
    # Each order-2 module has the same dimension over G_m at both twists.
    plain = {k: built.dim for (n, k, twist, where), built in
             grid.records.items() if (n, twist, where) == (2, 0, "gm")}
    assert _failing(grid, lambda n, k, twist, where, built: (
        (n, twist, where) != (2, HALF, "gm") or built.dim == plain[k]
    )) == []
    assert len(plain) == 40


def test_bruteforce_reports_truncation_degree(grid):
    assert _failing(grid, lambda n, k, twist, where, built: (
        built.degree == LATE.get((n, k, twist, where), _certified(k, where))
    )) == []


def test_bruteforce_matches_the_degree_reference_on_the_grid(grid):
    # The degree-ordered build certifies the same dimension, one doubling
    # past its first truncation, on ``LATE``'s modules too.
    assert _failing(grid, lambda n, k, twist, where, built: (
        built.reference == (built.dim, _certified(k, where))
    )) == []


def test_gm_certificate_stops_after_one_doubling(grid):
    # At order 2 it may: the window of the second truncation holds every
    # class of ``gm_cokernel_basis``.  z^p * u0 has weighted degree
    # p <= ceil(k/2), and u_j has j/2 <= k/2.
    assert _failing(grid, lambda n, k, twist, where, built: (
        (n, where) != (2, "gm") or built.window >= -(-k // 2)
    )) == []


def test_build_inserts_exactly_where_s_nk_is_positive(grid):
    # A build sends a row through ``insert`` only where a step's top
    # cancels, and on this grid it does so exactly where ``s_nk`` is
    # positive.  That is agreement on these modules, not a theorem about
    # the kernel of the top part.  The image holds exactly the rows
    # inserted, and where none is, the build writes no planned row out.
    assert _failing(grid, lambda n, k, twist, where, built: (
        (built.inserted > 0) == (s_nk(n, k) > 0)
        and built.held == built.inserted
        and (built.inserted > 0 or built.replayed == 0)
    )) == []


def test_plans_predict_the_inserts(grid, counted):
    # The work bound counts the kernel rows from the plans, before any
    # row: at the certified degree that count is the build's inserts,
    # none of whose reductions reads a planned lead below the floor.
    # Where no column is homogeneous every source is a kernel step, so
    # z^1000 v predicts its 4,105 sources.
    assert _failing(grid, lambda n, k, twist, where, built: (
        built.predicted == built.inserted
    )) == []
    module = _monomial_power(1000, 339)
    state = _build(module, "a1")
    assert counted["insert"] == state.degree + 1 == 4105
    assert state.echelon.plans.kernel_rows(state.degree) == 4105


@pytest.mark.parametrize(
    "case", STORED,
    ids=["sym40-a1", "sym36-gm-half", "sym33-gm", "order3-sym10-a1",
         "order4-sym7-a1", "order4-sym7-gm"],
)
def test_build_stores_most_rows_without_insert(grid, case):
    built = grid.records[case]
    assert (built.image, built.inserted) == STORED[case]


def _held_rows_after(module, where) -> tuple[int, int, int]:
    """(dim, degree) of ``module`` over ``where``, and the rows its
    held image holds."""
    dim, degree = h1_dim_bruteforce(module, where)
    held = connection._STABLE_CACHE[module, where].echelon.rows
    return dim, degree, len(held)


def _second_truncation_work(module, where) -> int:
    """Kernel rows times generators of the second truncation, as the
    plans count them: what ``MAX_WORK`` refuses a module by."""
    second = 2 * connection._first_truncation(module.k, where)
    return _plan(module, where).kernel_rows(second) * module.rank


# Calls at the top of the bounds, each made with the image of Sym^9 over
# A^1 held and an empty dims table: (call, what it returns or the error
# it raises, budget in seconds, budget in traced bytes or None for a
# call not traced).  Times are on a 2-vCPU VM, untraced unless a byte
# budget is given.  tracemalloc slows a build of kernel rows about
# twelve times, so those builds pin the rows they hold instead.
#
# * Where s_nk = 0 no planned top cancels, so a build inserts no row
#   and a dimension query holds no image row at all.  So odd k at order
#   2 is bounded by the size cap alone: the top, 2699, has 2,700
#   generators, and 2701 is refused before its module, tracing about
#   4 KB, its message and traceback.  Traced, the query at 2699 takes
#   about 0.5 s and 6.3 MB, the basis 0.9 s and 8.2 MB, their plans and
#   class solver.  At G_m k = 497 and A^1 k = 287 the query takes about
#   0.1 s and traces about 0.9 MB.
# * At even k the kernel rows times the generators of the second
#   truncation pass MAX_WORK from A^1 k = 268 and G_m k = 514 on, at
#   both twists: A^1 k = 286 counts 456,904 and G_m k = 498 377,244.
#   The k below, 266 and 512, take 0.9-1.0 s and hold 1,482 and 777
#   kernel rows; the basis at G_m k = 498 takes about 0.9 s.  A refusal
#   comes after the plans and before any row, so it traces 0.4-1.2 MB,
#   the plans, and the held image stays held.
# * At orders 3 and 4 a kernel row costs more: A^1 Sym^48 of order 3
#   takes 1.8 s and Sym^12 of order 4 0.4 s.  Order-4 Sym^20 and
#   order-6 Sym^8 over A^1, which took 8.2 s and 3.2 s under the bound
#   on all rows, are refused after their plans, in 0.25 and 0.09 s.
# * The two largest brute-force builds of the cohomology benchmark take
#   0.05-0.08 s together, about a fifth of their budget.
TOP_OF_BOUNDS = {
    "gm-497": (
        functools.partial(_held_rows_after, build_symk(2, 497), "gm"),
        (747, 1002, 0), 4.0, 5_000_000,
    ),
    "gm-basis-497": (lambda: gm_cokernel_basis(497).k, 497, 4.0, None),
    "gm-2699": (
        functools.partial(_held_rows_after, build_symk(2, 2699), "gm"),
        (4050, 5406, 0), 4.0, 25_000_000,
    ),
    "gm-basis-2699": (
        lambda: gm_cokernel_basis(2699).k, 2699, 5.0, 30_000_000
    ),
    "gm-basis-2701": (
        functools.partial(gm_cokernel_basis, 2701), SizeLimitError, 0.1, 8192
    ),
    "a1-287": (
        functools.partial(_held_rows_after, build_symk(2, 287), "a1"),
        (144, 1740, 0), 4.0, 5_000_000,
    ),
    "a1-286-bound": (
        functools.partial(_second_truncation_work, build_symk(2, 286), "a1"),
        456_904, 1.0, 2_000_000,
    ),
    "a1-266": (
        functools.partial(_held_rows_after, build_symk(2, 266), "a1"),
        (132, 1614, 1482), 5.0, None,
    ),
    "a1-268": (
        functools.partial(h1_dim_bruteforce, build_symk(2, 268), "a1"),
        SizeLimitError, 1.0, 2_000_000,
    ),
    "gm-498": (
        functools.partial(_second_truncation_work, build_symk(2, 498), "gm"),
        377_244, 1.0, 4_000_000,
    ),
    "gm-basis-498": (
        lambda: len(gm_cokernel_basis(498, HALF)), 747, 5.0, None
    ),
    "gm-512": (
        functools.partial(_held_rows_after, build_symk(2, 512), "gm"),
        (768, 1032, 777), 5.0, None,
    ),
    "gm-514": (
        functools.partial(h1_dim_bruteforce, build_symk(2, 514), "gm"),
        SizeLimitError, 1.0, 4_000_000,
    ),
    "gm-basis-514-half": (
        functools.partial(gm_cokernel_basis, 514, HALF),
        SizeLimitError, 1.0, 5_000_000,
    ),
    "order3-48-a1": (
        functools.partial(_held_rows_after, build_symk(3, 48), "a1"),
        (407, 306, 275), 8.0, None,
    ),
    "order4-12-a1": (
        functools.partial(_held_rows_after, build_symk(4, 12), "a1"),
        (105, 90, 583), 2.0, None,
    ),
    "order4-20-a1": (
        functools.partial(h1_dim_bruteforce, build_symk(4, 20), "a1"),
        SizeLimitError, 1.5, None,
    ),
    "order6-8-a1": (
        functools.partial(h1_dim_bruteforce, build_symk(6, 8), "a1"),
        SizeLimitError, 1.0, None,
    ),
    "benchmark": (
        lambda: (
            len(gm_cokernel_basis(36, HALF)),
            h1_dim_bruteforce(build_symk(2, 40), "a1"),
        ),
        (54, (19, 258)), 0.4, None,
    ),
}


@pytest.mark.parametrize("case", TOP_OF_BOUNDS)
def test_top_of_bounds(builds, case):
    call, outcome, seconds, budget = TOP_OF_BOUNDS[case]
    held = (build_symk(2, 9), "a1")
    h1_dim_bruteforce(*held)
    builds.clear()
    refused = isinstance(outcome, type)
    gc.collect()
    start = time.perf_counter()
    if budget:
        tracemalloc.start()
    try:
        if refused:
            with pytest.raises(outcome, match="cap"):
                call()
        else:
            assert call() == outcome
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < seconds
    assert budget is None or peak < budget, peak
    if refused:
        assert builds == []
    if not builds:
        assert list(connection._STABLE_CACHE) == [held]


def test_reduce_refuses_another_order_before_building(builds):
    # No basis lives in an order-3 module: the refusal comes before its
    # image is built, so the image held before it stays held.  So does
    # the brute force's refusal of a twisted module over the affine line
    # (its refusals of a k whose work is above MAX_WORK are in
    # ``TOP_OF_BOUNDS``).
    held = build_symk(2, 9)
    h1_dim_bruteforce(held, "a1")
    with pytest.raises(DomainError, match="order-2"):
        reduce_to_basis(omega_class(1), h1_a1_basis(9), build_symk(3, 9))
    with pytest.raises(DomainError, match="untwisted"):
        h1_dim_bruteforce(build_symk(2, 9, HALF), "a1")
    assert builds == [(held, "a1")]
    assert list(connection._STABLE_CACHE) == [(held, "a1")]




def test_gm_basis_shapes():
    b1 = gm_cokernel_basis(1)
    assert [str(c) for c in b1.classes] == ["z*u0", "u0", "u1"]
    b4 = gm_cokernel_basis(4)
    assert [str(c) for c in b4.classes] == [
        "z*u0",
        "u0",
        "u1",
        "u2",
        "u3",
        "u4",
    ]
    twisted = gm_cokernel_basis(4, HALF)
    assert twisted.twist == HALF
    assert len(twisted) == len(b4)


def test_a1_basis_levels():
    basis = h1_a1_basis(3)
    assert [str(c) for c in basis.classes] == ["u0", "z*u0"]
    assert basis.g_levels == (Fraction(7, 3), Fraction(5, 3))
    assert h1_a1_basis(4).g_levels == (Fraction(3),)
    assert len(h1_a1_basis(2)) == 0
    with pytest.raises(DomainError):
        h1_a1_basis(1)


def test_omega_levels_match_basis():
    for k in range(2, 12):
        basis = h1_a1_basis(k)
        assert basis.g_levels == tuple(
            omega_level(k, i) for i in range(1, len(basis) + 1)
        )


def test_reduce_basis_classes_to_unit_vectors():
    m = build_symk(2, 5)
    basis = h1_a1_basis(5)
    for pos in range(len(basis)):
        coords = reduce_to_basis(basis.classes[pos], basis, m)
        expected = tuple(
            Fraction(1 if q == pos else 0) for q in range(len(basis))
        )
        assert coords == expected


def test_reduce_known_exact_class():
    # z^2 u0 = d/dz(z u1) - u1 - 2z u2 with u1 and z u2 both exact
    m = build_symk(2, 3)
    coords = reduce_to_basis(monomial_element("u0", 2), h1_a1_basis(3), m)
    assert coords == (Fraction(0), Fraction(0))


@given(st.fractions(min_value=-5, max_value=5, max_denominator=6),
       st.fractions(min_value=-5, max_value=5, max_denominator=6))
@settings(max_examples=25, deadline=None)
def test_reduce_is_linear(a, b):
    m = build_symk(2, 5)
    basis = h1_a1_basis(5)
    c1 = monomial_element("u0", 0)
    c2 = monomial_element("u0", 2)
    # One element over the scaled coordinates: the constructor merges
    # the repeated label.
    combination = ModuleElement(
        (("u0", Polynomial.monomial(0, a)), ("u0", Polynomial.monomial(2, b)))
    )
    lhs = reduce_to_basis(combination, basis, m)
    x1 = reduce_to_basis(c1, basis, m)
    x2 = reduce_to_basis(c2, basis, m)
    assert lhs == tuple(a * p + b * q for p, q in zip(x1, x2))


def _exact_form(module, where, j, poly):
    """The derivation applied to poly * g_j, read off the ``partial``
    triples: d/dz on the affine line, z d/dz + twist on the punctured
    line."""
    own = poly.derivative()
    parts = [
        (module.labels[i], poly * Polynomial.monomial(m, c))
        for m, i, c in module.partial[j]
    ]
    if where == "gm":
        own = Z * own + module.twist * poly
        parts = [(label, Z * p) for label, p in parts]
    return ModuleElement(((module.labels[j], own), *parts))


small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@pytest.mark.parametrize(
    "space, twist, ks",
    [
        ("gm", Fraction(0), st.integers(1, 12)),
        ("gm", HALF, st.integers(1, 12)),
        (
            "mid",
            Fraction(0),
            st.one_of(st.sampled_from(range(4, 25, 4)), st.integers(2, 24)),
        ),
    ],
    ids=["gm-rho0", "gm-rho1/2", "mid"],
)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_reduce_round_trips_combinations(space, twist, ks, data):
    k = data.draw(ks, label="k")
    module = build_symk(2, k, twist)
    if space == "gm":
        basis, where = gm_cokernel_basis(k, twist), "gm"
    else:
        basis, where = mid_basis(k), "a1"
    coords = data.draw(
        st.lists(small_fractions, min_size=len(basis), max_size=len(basis)),
        label="coords",
    )
    j = data.draw(st.integers(0, k), label="generator")
    dense = data.draw(st.lists(small_fractions, max_size=3), label="poly")
    poly = Polynomial(tuple(enumerate(dense)))
    element = ModuleElement(
        _exact_form(module, where, j, poly).coordinates
        + tuple(
            (label, p * c)
            for c, cls in zip(coords, basis.classes)
            for label, p in cls.coordinates
        )
    )
    assert reduce_to_basis(element, basis, module) == tuple(coords)


def test_reduce_rejects_dependent_basis():
    m = build_symk(2, 3)
    degenerate = CohomologyBasis(
        space="a1",
        k=3,
        twist=Fraction(0),
        classes=(omega_class(1), omega_class(1)),
    )
    # The class solver refuses its classes as soon as it is built, so
    # any element, in their span or not, meets the refusal.
    for element in (omega_class(2), omega_class(1)):
        with pytest.raises(InconsistencyError, match="dependent"):
            reduce_to_basis(element, degenerate, m)


def test_reduce_builds_each_class_form_once(monkeypatch):
    # m class normal forms once per basis, then two per target (against
    # the image, then against the class solver): 18 + 2 * 19 = 56 for
    # the middle basis at k = 40, where re-reducing every class on
    # every call made 380.
    module = build_symk(2, 40)
    basis = mid_basis(40)
    _stable_image(module, "a1").solvers.clear()
    calls = 0
    normal_form = _Echelon.normal_form

    def counted(self, vector):
        nonlocal calls
        calls += 1
        return normal_form(self, vector)

    monkeypatch.setattr(_Echelon, "normal_form", counted)
    for element in basis.classes:
        reduce_to_basis(element, basis, module)
    with pytest.raises(InconsistencyError, match="span"):
        reduce_to_basis(omega_class(10), basis, module)
    assert calls <= len(basis) + 2 * (len(basis) + 1)


def test_reduce_rejects_class_outside_span():
    m = build_symk(2, 4)
    empty = CohomologyBasis(
        space="a1", k=4, twist=Fraction(0), classes=()
    )
    with pytest.raises(InconsistencyError):
        reduce_to_basis(omega_class(1), empty, m)


def test_reduce_twist_mismatch():
    m = build_symk(2, 3, HALF)
    with pytest.raises(DomainError):
        reduce_to_basis(omega_class(1), h1_a1_basis(3), m)


@pytest.mark.parametrize(
    "space, k, other", [("a1", 5, 7), ("mid", 8, 12), ("gm", 5, 6)]
)
def test_reduce_refuses_a_module_of_another_power(space, k, other):
    # The classes of a basis of Sym^k read as elements of another
    # symmetric power would reduce there to coordinates, or to a false
    # inconsistency, that belong to neither.
    build = {"a1": h1_a1_basis, "mid": mid_basis, "gm": gm_cokernel_basis}
    basis = build[space](k)
    with pytest.raises(DomainError, match="different symmetric powers"):
        reduce_to_basis(monomial_element("u0", 1), basis, build_symk(2, other))


def test_module_element_str_sorts_its_labels():
    assert str(ModuleElement((("u1", ONE), ("u0", Z)))) == "z*u0 + u1"
    assert str(ModuleElement()) == "0"
