from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import math
import time
import tracemalloc
from fractions import Fraction

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
from airymoments.moments import h1_dims
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


def _reference_row(module, where, anchor, j, d):
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
        return _monomial_id(n * degree + weights[i], i, anchor, gens)

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
    anchor, gens = 20, m.rank

    def at(d, i):
        """Id of z^d * u_i, of weight 2d + i."""
        return _monomial_id(2 * d + i, i, anchor, gens)

    # Over G_m the row of z^d g_j is 2 (z d/dz + 1/2) z^d g_j: the
    # columns move one degree up and double, the diagonal is 2d + 1,
    # and d/dz u0 = 2 u1 becomes 4 z^(d+1) u1.
    for d in range(3):
        for j in range(gens):
            lead, row = _reference_row(m, "gm", anchor, j, d)
            assert row[at(d, j)] == 2 * d + 1
            assert lead == min(row)
        lead, row = _reference_row(m, "gm", anchor, 0, d)
        assert row == {at(d, 0): 2 * d + 1, at(d + 1, 1): 4}
    # Over A^1 the same formula with up = 0 and no twist is d/dz: the
    # diagonal d sits one degree down, and vanishes at d = 0.
    plain = build_symk(2, 2)
    lead, row = _reference_row(plain, "a1", anchor, 1, 0)
    assert row == {at(0, 2): 1, at(1, 0): 1}
    # u2 and z u0 both have weight 2: the highest generator leads.
    assert lead == min(row) == at(0, 2)
    assert _reference_row(plain, "a1", anchor, 1, 3)[1][at(2, 1)] == 3


def test_build_symk_validation():
    with pytest.raises(DomainError):
        build_symk(1, 2)
    with pytest.raises(DomainError):
        build_symk(2, 0)
    with pytest.raises(DomainError):
        build_symk(3, 2, HALF)
    with pytest.raises(DomainError):
        build_symk(2, 2, Fraction(1, 3))
    # 125,751 generators, above the fixed cap of 100,000
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


def test_bruteforce_reports_truncation_degree():
    dim, used = h1_dim_bruteforce(build_symk(2, 3), "a1")
    assert dim == 2
    assert used >= 3 * 4 + 6
    # Over the punctured line the first truncation of Sym^3 is 3 + 4,
    # and one doubling certifies its 6 classes.
    assert h1_dim_bruteforce(build_symk(2, 3), "gm") == (6, 2 * (3 + 4))


# Over the punctured line the certificate starts at k + 4 and stops
# after one doubling, with a window that holds every class of
# ``gm_cokernel_basis``: z^p * u0 has weighted degree p <= ceil(k/2),
# and u_j has j/2 <= k/2.  Budget: the 80 builds take about 0.1 s on a
# 2-vCPU VM, and have 3 s.
GM_SCHEDULE_BUDGET_S = 3.0


def test_gm_certificate_stops_after_one_doubling(builds):
    start = time.perf_counter()
    for k in range(1, 41):
        for twist in (0, HALF):
            state = _stable_image(build_symk(2, k, twist), "gm")
            assert state.degree == 2 * (k + 4), (k, twist)
            assert state.window >= -(-k // 2), (k, twist)
    assert len(builds) == 80
    assert time.perf_counter() - start < GM_SCHEDULE_BUDGET_S


# ``gm_cokernel_basis`` certifies its classes (count against the brute
# force, and independence) from the first truncation k + 4, across the
# k the CLI accepts; it raises if either check fails.  Budget: the 36
# certificates take about 0.45 s on a 2-vCPU VM, and have 8 s.
GM_BASIS_BUDGET_S = 8.0


def test_gm_basis_certifies_up_to_the_cli_bound(builds):
    start = time.perf_counter()
    ks = [*range(1, cli.MAX_GM_K, 7), cli.MAX_GM_K]
    for k in ks:
        for twist in (0, HALF):
            assert gm_cokernel_basis(k, twist).k == k
    assert len(builds) == 2 * len(ks)
    assert time.perf_counter() - start < GM_BASIS_BUDGET_S


def test_bruteforce_twist_invariance():
    for k in range(1, 7):
        plain = h1_dim_bruteforce(build_symk(2, k), "gm")[0]
        twisted = h1_dim_bruteforce(build_symk(2, k, HALF), "gm")[0]
        assert plain == twisted


def test_bruteforce_gm_matches_closed_count():
    for k in range(1, 9):
        kp = (k - 1) // 2
        expected = 3 * (kp + 1) if k % 2 else k + kp + 1
        assert h1_dim_bruteforce(build_symk(2, k), "gm")[0] == expected


def test_exact_sequence_of_dimensions():
    # removing the origin adds exactly the k+1 residue classes
    for k in range(1, 9):
        a1 = h1_dim_bruteforce(build_symk(2, k), "a1")[0]
        gm = h1_dim_bruteforce(build_symk(2, k), "gm")[0]
        assert a1 + (k + 1) == gm


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


def test_bruteforce_ceiling_failure():
    # The second truncation is above the ceiling 4096 from k = 680 on
    # over the affine line, 2 * (3(k+1) + 6), and from k = 2045 on over
    # the punctured line, 2 * (k + 4): no run can certify, so the k is
    # refused before any row.  The k below it is not refused there.
    for where, k in (("a1", 680), ("gm", 2045)):
        ceiling = connection.TRUNCATION_CEILING
        assert 2 * connection._first_truncation(k - 1, where) <= ceiling
        with pytest.raises(SizeLimitError, match="cap"):
            h1_dim_bruteforce(build_symk(2, k), where)


def test_bruteforce_unstable_dimension_raises():
    # d/dz v = z^1000 v has a 1000-dimensional cokernel, but windows
    # of degree 513 and 1026 see 514 and 1000 classes; the next
    # doubling passes the ceiling.
    module = ConnectionModule(
        n=1,
        k=339,
        twist=Fraction(0),
        labels=("v",),
        partial=(((1000, 0, 1),),),
        weights=(0,),
    )
    with pytest.raises(StabilityError, match="did not stabilise"):
        h1_dim_bruteforce(module, "a1")


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


# Every echelon row of the full build, with the anchor, window, degree
# and dimension, of these modules, digested per space.  PINNED_DIGESTS
# hash the degree-ordered reference build, pinned when the kernel still
# divided out the content after every elimination step; WEIGHTED_DIGESTS
# hash the package's weight-ordered build, and the image held for
# queries, which is that build as it is.  A cheaper kernel must build
# the same rows, so no digest may move.  The "a1" digests date from
# before the punctured line got its own first truncation, k + 4, which
# moved only the "gm" ones.  Budget: each digest takes about 0.05 s on
# a 2-vCPU VM, and has 1 s.
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
    "a1": "05c7f334fce1be0d1b5f00b0ee35bead6fb139caac6b8cf0362e6d24a1e6f863",
    "gm": "a384ada58b0d9b0083477982c5d4b641aed1178e82b8cdc6f73a06aa088bb9c6",
}


def _rows_digest(build, space: str) -> str:
    digest = hashlib.sha256()
    for n, k, twist, where in PINNED_MODULES:
        if where != space:
            continue
        state = build(build_symk(n, k, twist), where)
        digest.update(repr((
            n, k, str(twist), where,
            state.anchor, state.window, state.degree, state.dim,
        )).encode())
        digest.update(repr(sorted(
            (lead, sorted(row.items()))
            for lead, row in state.echelon.rows.items()
        )).encode())
    return digest.hexdigest()


def test_stored_echelon_rows_are_pinned():
    for space, pinned in PINNED_DIGESTS.items():
        start = time.perf_counter()
        assert _rows_digest(reference.build_image, space) == pinned, space
        assert time.perf_counter() - start < 1.0


def test_weighted_echelon_rows_are_pinned(builds):
    for space, pinned in WEIGHTED_DIGESTS.items():
        for build in (_build_stable_image, _stable_image):
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
        lead, row = _reference_row(module, where, state.anchor, j, d)
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
    ],
    ids=["negative-a1", "negative-gm", "negative-gm-half",
         "sym2-gm-half", "sym2-a1", "sym4-a1", "sym4-gm", "sym4-gm-half"],
)
def test_build_stores_the_rows_that_insert_would(module, where):
    state = _build_stable_image(module, where)
    reference = _inserted_image(module, where, state)
    assert list(state.echelon.rows.items()) == list(reference.rows.items())
    assert all(row[lead] > 0 for lead, row in state.echelon.rows.items())


# (rows stored, rows sent through ``_Echelon.insert``, dim, degree): a
# row whose lead has no pivot is stored directly, without ``insert``;
# that is all but 2-3% of the order-2 rows and 77% of the order-4 ones.
# Budget: each build takes 0.03-0.07 s on a 2-vCPU VM, and has 1 s.
DIRECT_STORE_COUNTS = [
    ((2, 40, 0, "a1"), (10199, 239, 19, 258)),
    ((2, 36, HALF, "gm"), (2655, 63, 54, 80)),
    ((4, 7, 0, "a1"), (6960, 1604, 30, 60)),
]


@pytest.mark.parametrize(
    "case, counts", DIRECT_STORE_COUNTS,
    ids=["sym40-a1", "sym36-gm-half", "order4-sym7-a1"],
)
def test_build_stores_most_rows_without_insert(monkeypatch, case, counts):
    n, k, twist, where = case
    inserted = []
    insert = _Echelon.insert

    def counted(self, row):
        inserted.append(1)
        return insert(self, row)

    monkeypatch.setattr(_Echelon, "insert", counted)
    start = time.perf_counter()
    state = _build_stable_image(build_symk(n, k, twist), where)
    assert time.perf_counter() - start < 1.0
    assert (
        len(state.echelon.rows), len(inserted), state.dim, state.degree
    ) == counts


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
    first = _window_start(state, n)
    for i in range(module.rank):
        for weight in (bound - 1, bound, bound + 1):
            at = _monomial_id(weight, i, state.anchor, state.gens)
            assert (at >= first) == (weight <= bound)
    monomials = sum((bound - w) // n + 1 for w in module.weights if w <= bound)
    assert monomials - state.echelon.pivots_at_or_above(first) == state.dim


@pytest.fixture
def builds(monkeypatch):
    """Empty the held image and the dims table, and record the
    (module, where) of every image built from here on.  Each build must
    start with no image held."""
    monkeypatch.setattr(connection, "_STABLE_CACHE", {})
    monkeypatch.setattr(connection, "_CERTIFIED", {})
    built = []
    build = connection._build_stable_image

    def counted(module, where):
        assert not connection._STABLE_CACHE, "an image is held during a build"
        built.append((module, where))
        return build(module, where)

    monkeypatch.setattr(connection, "_build_stable_image", counted)
    return built


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


# The held image is the whole last truncation, and one image is held at
# a time, so the traced peak of a range of gm bases is that of its
# largest build.  Budget: both commands take about 3 s traced on a
# 2-vCPU VM, and have 15 s.
RANGE_BUDGET_S = 15.0


def _traced_peak(argv) -> int:
    """Traced peak of ``argv`` from no image held and an empty dims
    table."""
    connection._STABLE_CACHE.clear()
    connection._CERTIFIED.clear()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_gm_range_peaks_at_its_largest_build(builds, monkeypatch):
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    start = time.perf_counter()
    alone = _traced_peak(["basis", "--space", "gm", "--k", "32"])
    ranged = _traced_peak(["basis", "--space", "gm", "--k", "24..32"])
    assert time.perf_counter() - start < RANGE_BUDGET_S
    assert len(builds) == 1 + 9
    assert ranged <= 1.1 * alone


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


def _window_start(state, n: int) -> int:
    """First id of the window: the top generator at the window's
    weight, n times its weighted degree."""
    return _monomial_id(n * state.window, state.gens - 1, state.anchor, state.gens)


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
    first = _window_start(state, n)
    assert all(pos >= first and pos not in state.echelon.rows for pos in form)


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


# Every (dim, degree) that the certificate reports on this grid of 143
# modules, against the degree-ordered reference.  Budget: both builds
# of the grid take about 1.7 s under pytest on a 2-vCPU VM, more than
# half of it the reference.
GRID_BUDGET_S = 30.0
BRUTEFORCE_GRID = (
    [(2, k, 0, "a1") for k in range(1, 41)]
    + [(2, k, twist, "gm") for k in range(1, 41) for twist in (0, HALF)]
    + [(3, k, 0, "a1") for k in range(1, 11)]
    + [(3, k, 0, "gm") for k in range(1, 7)]
    + [(4, k, 0, "a1") for k in range(1, 8)]
)


def test_bruteforce_matches_the_degree_reference_on_the_grid(builds):
    # From an empty dims table every module is certified by the engine,
    # one held image at a time, not read from an earlier test's answers.
    start = time.perf_counter()
    for n, k, twist, where in BRUTEFORCE_GRID:
        module = build_symk(n, k, twist)
        assert h1_dim_bruteforce(module, where) == (
            reference.h1_dim_bruteforce(module, where)
        ), (n, k, twist, where)
    assert len(BRUTEFORCE_GRID) == len(builds) == 143
    assert len(connection._STABLE_CACHE) == 1
    assert time.perf_counter() - start < GRID_BUDGET_S


# The two largest brute-force builds of the cohomology benchmark, from
# an empty dims table.  Budget: about five times the 0.05-0.08 s they
# take together on a 2-vCPU VM.
ENGINE_BUDGET_S = 0.4


def test_largest_builds_return_within_budget(builds):
    start = time.perf_counter()
    gm_cokernel_basis(36, HALF)
    assert h1_dim_bruteforce(build_symk(2, 40), "a1") == (
        h1_dims(2, 40).all, 258
    )
    assert time.perf_counter() - start < ENGINE_BUDGET_S
    assert builds == [(build_symk(2, 36, HALF), "gm"), (build_symk(2, 40), "a1")]


def test_reduce_refuses_another_order_before_building(builds):
    # No basis lives in an order-3 module: the refusal comes before its
    # image is built, so the image held before it stays held.  So do
    # the brute force's own refusals, of a twisted module over the
    # affine line and of a k whose truncation is above the ceiling.
    held = build_symk(2, 9)
    h1_dim_bruteforce(held, "a1")
    with pytest.raises(DomainError, match="order-2"):
        reduce_to_basis(omega_class(1), h1_a1_basis(9), build_symk(3, 9))
    with pytest.raises(DomainError, match="untwisted"):
        h1_dim_bruteforce(build_symk(2, 9, HALF), "a1")
    with pytest.raises(SizeLimitError, match="cap"):
        h1_dim_bruteforce(build_symk(2, 680), "a1")
    with pytest.raises(SizeLimitError, match="cap"):
        h1_dim_bruteforce(build_symk(2, 2045), "gm")
    assert builds == [(held, "a1")]
    assert list(connection._STABLE_CACHE) == [(held, "a1")]


# Closed forms against the brute force over random (n, k).  Budget: an
# uncached draw takes at most about 0.1 s on a 2-vCPU VM (n = 2 at
# k = 40 in gm or a1, n = 4 at k = 7), so each draw must finish in 5 s.
DRAW_BUDGET_S = 5.0

symmetric_powers = st.one_of(
    st.tuples(st.just(2), st.integers(1, 40)),
    st.tuples(st.just(3), st.integers(1, 10)),
    st.tuples(st.just(4), st.integers(1, 7)),
)


@given(symmetric_powers)
@settings(max_examples=25, deadline=None)
def test_closed_form_dims_match_bruteforce(power):
    n, k = power
    start = time.perf_counter()
    dim, _ = h1_dim_bruteforce(build_symk(n, k), "a1")
    assert dim == h1_dims(n, k).all
    assert time.perf_counter() - start < DRAW_BUDGET_S


@given(st.integers(1, 40), st.sampled_from((Fraction(0), HALF)))
@settings(max_examples=20, deadline=None)
def test_gm_dimension_formula_matches_bruteforce(k, twist):
    kp = (k - 1) // 2
    expected = 3 * (kp + 1) if k % 2 else k + kp + 1
    start = time.perf_counter()
    dim, _ = h1_dim_bruteforce(build_symk(2, k, twist), "gm")
    assert dim == expected
    assert time.perf_counter() - start < DRAW_BUDGET_S


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
    poly = Polynomial.from_coefficients(
        data.draw(st.lists(small_fractions, max_size=3), label="poly")
    )
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
    with pytest.raises(InconsistencyError, match="span"):
        reduce_to_basis(omega_class(2), degenerate, m)
    with pytest.raises(InconsistencyError, match="dependent"):
        reduce_to_basis(omega_class(1), degenerate, m)


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


def test_general_order_bruteforce_matches_closed_form():
    assert h1_dim_bruteforce(build_symk(3, 3), "a1")[0] == h1_dims(3, 3).all
    assert h1_dim_bruteforce(build_symk(4, 3), "a1")[0] == h1_dims(4, 3).all

