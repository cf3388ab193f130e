"""Symmetric powers of Airy-type connections as explicit free modules
over the polynomial ring, with first de Rham cohomology computed two
independent ways:

* brute force: exact sparse elimination on truncations of the derivation,
  with a stabilisation certificate (truncation degree is doubled until
  the computed dimension repeats, and every truncated row must land a
  new pivot, witnessing that the derivation has no kernel);
* closed form: explicit cohomology bases whose size and independence are
  checked against the brute-force answer.

Monomials are ordered by weighted degree, in which z has weight 1 and a
generator of the order-n module has weight w/n for its integer weight
w (see ``ConnectionModule``); this is the grading of Yu's filtration by
weighted pole order.  Ids are indexed so that the monomials of weighted
degree at most E form a suffix of the coordinate order.  Row reduction
therefore computes, in one pass, the dimension of the image intersected
with every such window, and normal forms of low-weight vectors never
leave the window.  That is what makes the truncated quotient an exact
model of the true cokernel once the dimension stabilises.

The elimination is fraction-free, in the style of Bareiss (1968).  Each
image row is built once, primitive with a positive lead, and stored as
it is when its lead has no pivot yet, which holds for most rows; only
the others are eliminated, with the working row scaled lazily and its
leads taken off a heap (see ``_Echelon``).

One image is held at a time, with its class solvers; building another
drops it first.  Every certified (dimension, degree) is kept in a small
table, so a repeated dimension query never rebuilds, and a normal form
asked of an image no longer held rebuilds it, with the same rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush

from .errors import (
    DomainError,
    InconsistencyError,
    SizeLimitError,
    StabilityError,
)
from .exact import Polynomial, compositions

HALF = Fraction(1, 2)

#: Refuse to build symmetric powers with more generators than this.
SIZE_CAP = 100_000

#: Largest truncation degree the brute-force engine will try.
TRUNCATION_CEILING = 4096

#: The cohomology spaces a basis can live in; see ``CohomologyBasis``.
SPACES = ("a1", "gm", "mid")

#: Sparse column of a derivation: (degree, target index, integer coeff)
#: triples, no two with the same (degree, target) and none with coeff 0.
Column = tuple[tuple[int, int, int], ...]

#: A column as echelon coordinates: the (id, coeff) terms of the image
#: row of the generator itself, the id its diagonal takes there, the
#: least id of the terms (None when there are none), and the gcd of the
#: coeffs, signed as the coeff at that id (0 when there are none).  The
#: weight loop of ``_build_stable_image`` makes every row from these.
IdColumn = tuple[list[tuple[int, int]], int, int | None, int]


@dataclass(frozen=True)
class ConnectionModule:
    """Free module over the polynomial ring carrying a derivation.

    ``partial`` describes d/dz on generators, untwisted: column j
    lists triples (m, i, c) meaning that d/dz of generator j contains
    c z^m times generator i.  The twist enters only through the
    brute-force rows over the punctured line, which apply z d/dz + twist.

    ``weights`` grades the monomials: z^d times generator i has weight
    n * d + weights[i].  For a symmetric power, every term of column j
    has weight weights[j] + 1, so the top-weight part of a derivation
    row is the column itself.
    """

    n: int
    k: int
    twist: Fraction
    labels: tuple[str, ...]
    partial: tuple[Column, ...]
    weights: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.labels)


def _symk_labels(n: int, exponents: tuple[tuple[int, ...], ...]) -> tuple[str, ...]:
    if n == 2:
        return tuple(f"u{a[1]}" for a in exponents)
    return tuple("v(" + ",".join(map(str, a)) + ")" for a in exponents)


def build_symk(n: int, k: int, twist: Fraction | int = 0) -> ConnectionModule:
    """The k-th symmetric power of the order-n Airy-type connection.

    Generators are monomials of total degree k in the solutions basis,
    indexed by exponent tuples in descending lexicographic order; for
    n = 2 the generator with exponent (k-j, j) is labelled u{j}.  The
    generator with exponent tuple a has weight sum(i * a[i]).  The
    optional twist (only 0 or 1/2, and only for n = 2) shifts the Euler
    derivation, which is how the square-root line bundle twist acts.

    k = 1 is the connection itself, the companion module of
    (d/dz)^n - z: d/dz sends each generator to the next and the last
    one to z times the first.
    """
    if n < 2:
        raise DomainError("connection order must be at least 2")
    if k < 1:
        raise DomainError("symmetric power must be at least 1")
    twist = Fraction(twist)
    if twist not in (Fraction(0), HALF):
        raise DomainError("twist must be 0 or 1/2")
    if twist and n != 2:
        raise DomainError("the half twist is only defined for order 2")
    rank = math.comb(n - 1 + k, k)
    if rank > SIZE_CAP:
        raise SizeLimitError(
            f"symmetric power has {rank} generators, above the cap {SIZE_CAP}"
        )
    exponents = tuple(sorted(compositions(n, k), reverse=True))
    index = {a: pos for pos, a in enumerate(exponents)}
    # Exponent i moves to i + 1, and the last wraps to the first with a
    # factor z; distinct i give distinct targets, so no term repeats.
    partial: list[Column] = []
    for a in exponents:
        terms = []
        for i in range(n):
            if a[i]:
                target = list(a)
                target[i] -= 1
                target[(i + 1) % n] += 1
                terms.append((int(i == n - 1), index[tuple(target)], a[i]))
        partial.append(tuple(terms))
    return ConnectionModule(
        n=n,
        k=k,
        twist=twist,
        labels=_symk_labels(n, exponents),
        partial=tuple(partial),
        weights=tuple(sum(i * e for i, e in enumerate(a)) for a in exponents),
    )


@dataclass(frozen=True)
class ModuleElement:
    """Element of a connection module: polynomial coefficients keyed by
    generator label, stored sorted with zero coefficients dropped."""

    coordinates: tuple[tuple[str, Polynomial], ...] = ()

    def __post_init__(self):
        # Add only at a repeated label, so coordinates already in
        # normal form build no new polynomial.
        merged: dict[str, Polynomial] = {}
        for label, poly in self.coordinates:
            if not isinstance(poly, Polynomial):
                poly = Polynomial.constant(poly)
            previous = merged.get(label)
            merged[label] = poly if previous is None else previous + poly
        cleaned = tuple(
            (label, merged[label])
            for label in sorted(merged)
            if not merged[label].is_zero()
        )
        object.__setattr__(self, "coordinates", cleaned)

    def __str__(self) -> str:
        if not self.coordinates:
            return "0"
        parts = []
        for label, poly in self.coordinates:
            if poly.terms == ((0, 1),):
                parts.append(label)
            elif len(poly.terms) == 1:
                parts.append(f"{poly}*{label}")
            else:
                parts.append(f"({poly})*{label}")
        return " + ".join(parts)


def monomial_element(label: str, degree: int = 0) -> ModuleElement:
    """The element z**degree * generator."""
    return ModuleElement(((label, Polynomial.monomial(degree)),))


@dataclass(frozen=True)
class CohomologyBasis:
    """An ordered basis of classes in first de Rham cohomology.

    ``space`` is "a1" (cohomology over the affine line), "gm" (over the
    punctured line) or "mid" (the middle part inside the affine-line
    cohomology).  ``g_levels`` carries the irregular filtration level of
    each class when a closed form for it exists, else None.
    """

    space: str
    k: int
    twist: Fraction
    classes: tuple[ModuleElement, ...]
    g_levels: tuple[Fraction, ...] | None = None

    def __post_init__(self):
        if self.space not in SPACES:
            raise DomainError(f"unknown cohomology space {self.space!r}")
        if self.g_levels is not None and len(self.g_levels) != len(self.classes):
            raise DomainError("one level per class required")

    def __len__(self) -> int:
        return len(self.classes)


# ---------------------------------------------------------------------------
# Brute-force cohomology via stabilised truncations.
#
# Monomial z^d * g_i of weight W = n * d + w_i gets the integer id
# (anchor - W) * gens + (gens - 1 - i), so ids decrease as the weight
# grows and the window of weighted degree <= E (weight <= n * E) is
# exactly the suffix of ids >= (anchor - n * E) * gens.  A row's lead,
# its least id, is its top-weight part and, within a weight, the highest
# generator index.  Echelon rows whose leading id lies in the suffix
# have their entire support in it, which keeps window computations exact.
# ---------------------------------------------------------------------------


class _Echelon:
    """Incremental integer row echelon keyed by leading coordinate.

    The one exact elimination kernel of the package: rows are inserted
    fraction-free, vectors are reduced to normal form against the stored
    rows, and ranks and linear systems are solved by inserting into a
    fresh echelon.

    Each stored row is primitive with a positive leading entry, which
    makes it unique.  Its content is divided out once, when it is
    stored: an elimination step only scales the working row by a
    positive rational, so skipping the division in between meets the
    same pivots and stores the same rows.  Vectors are carried as
    (scale, integer vector), standing for the integer vector divided by
    the positive integer scale.  A primitive row whose positive lead
    has no pivot is the row ``insert`` would store, so a caller holding
    one may put it into ``rows`` directly, as ``_build_stable_image``
    does with most image rows.

    A reduction scales its working row lazily: an entry is held as a
    pair (v, p) standing for v * scale / p, where scale is the product
    of the step factors so far, so a step that scales the row multiplies
    one integer, and an entry is brought to the current scale only when
    a pivot touches it or the reduction ends.  Leads only grow, so they
    come off a heap of the row's ids instead of a scan of the row; an
    id whose entry has cancelled is skipped when it comes off.
    """

    def __init__(self):
        self.rows: dict[int, dict[int, int]] = {}

    def _reduce(
        self, row: dict[int, int], full: bool = False
    ) -> tuple[int | None, int]:
        """Eliminate the leads of ``row`` that have a pivot, in place,
        least first.

        An elimination step at a pivot with leading entry a multiplies
        the working row by a/g.  The reduction stops at the first lead
        with no pivot or, when ``full``, passes over it and goes on to
        the normal form.  Returns the lead it stopped at, or None when
        it ran out of leads, and the product of the factors, which
        ``row`` comes back multiplied by, with no zero entry."""
        pivot_at, gcd, pop, push = self.rows.get, math.gcd, heappop, heappush
        work = {}
        for pos, value in row.items():
            if value:
                work[pos] = value, 1
        entry_at = work.get
        heap = list(work)
        heapify(heap)
        scale = 1
        lead = None
        while heap:
            at = pop(heap)
            entry = entry_at(at)
            if entry is None:
                continue
            pivot = pivot_at(at)
            if pivot is None:
                if full:
                    continue
                lead = at
                break
            del work[at]
            b, p = entry
            if p != scale:
                b *= scale // p
            a = pivot[at]
            g = gcd(a, b)
            ma, mb = a // g, b // g
            if ma != 1:
                scale *= ma
            for pos, value in pivot.items():
                if pos == at:
                    continue
                entry = entry_at(pos)
                if entry is None:
                    work[pos] = -mb * value, scale
                    push(heap, pos)
                    continue
                v, p = entry
                if p != scale:
                    v *= scale // p
                v -= mb * value
                if v:
                    work[pos] = v, scale
                else:
                    del work[pos]
        row.clear()
        for pos, (v, p) in work.items():
            row[pos] = v if p == scale else v * (scale // p)
        return lead, scale

    def insert(self, row: dict[int, int]) -> bool:
        """Reduce ``row`` against the current rows and store what is
        left; returns False when the row reduced to zero."""
        lead, _ = self._reduce(row)
        if lead is None:
            return False
        g = math.gcd(*row.values())
        if row[lead] < 0:
            g = -g
        if g != 1:
            row = {pos: value // g for pos, value in row.items()}
        self.rows[lead] = row
        return True

    def normal_form(
        self, vector: tuple[int, dict[int, int]]
    ) -> tuple[int, dict[int, int]]:
        """Fully reduce a (scale, integer vector) against the stored
        rows; the result is zero exactly when the vector lies in the
        row space."""
        out = dict(vector[1])
        _, factor = self._reduce(out, full=True)
        return vector[0] * factor, out

    def pivots_at_or_above(self, threshold: int) -> int:
        return sum(map(threshold.__le__, self.rows))


@dataclass
class _StableImage:
    """Certificate-bearing echelon of the derivation's image, with the
    class solvers built against it, keyed by their class tuple."""

    gens: int
    anchor: int
    window: int
    degree: int
    dim: int
    echelon: _Echelon
    solvers: dict[tuple[ModuleElement, ...], _Echelon] = field(
        default_factory=dict
    )

    @property
    def tag(self) -> int:
        """First id past every monomial id, where class tags start."""
        return (self.anchor + 1) * self.gens


#: The one image held, keyed by (module, space): at most one entry.
_STABLE_CACHE: dict[tuple, _StableImage] = {}

#: Every certified (dimension, degree), keyed as the image is.  It
#: spares the rebuild of an image dropped between two dimension queries
#: of one module.  An entry keeps its module alive, which is small
#: beside any image.
_CERTIFIED: dict[tuple, tuple[int, int]] = {}


def _monomial_id(weight: int, i: int, anchor: int, gens: int) -> int:
    """Id of the monomial of this weight on generator i."""
    return (anchor - weight) * gens + gens - 1 - i


def _image_columns(
    module: ConnectionModule, where: str, anchor: int
) -> list[IdColumn]:
    """The columns of z^up d/dz + twist, up = 1 over the punctured line
    ("gm") and 0 over the affine line, as ids: each coeff is times the
    twist's denominator, which clears the half twist."""
    up = int(where == "gm")
    scale = module.twist.denominator

    def at(degree: int, i: int) -> int:
        weight = module.n * degree + module.weights[i]
        return _monomial_id(weight, i, anchor, module.rank)

    columns: list[IdColumn] = []
    for j, column in enumerate(module.partial):
        terms = [(at(m + up, i), c * scale) for m, i, c in column]
        lead, content = None, 0
        if terms:
            lead, first = min(terms)
            content = math.gcd(*(c for _, c in terms))
            if first < 0:
                content = -content
        columns.append((terms, at(up - 1, j), lead, content))
    return columns


def _first_truncation(k: int, where: str) -> int:
    """The first truncation degree of the certificate for Sym^k over
    the affine line ("a1") or the punctured line ("gm").  It compares
    at least two truncations, degree and 2 * degree, so this refuses
    when the second is above the ceiling.

    Over the punctured line it is k + 4: the first window, (k + 4) // 2,
    already holds every class of ``gm_cokernel_basis``, z^p * u0 for p
    up to ``omega_count(k)`` and u_j for j up to k.  From k + 2 on, the
    weight order would certify Sym^5 at order 3 and Sym^3 at order 4 a
    doubling later than the degree order does.  The affine line keeps
    3(k+1) + 6, so the (dimension, degree) it reports stays the one the
    benchmark's golden outputs pin."""
    degree = k + 4 if where == "gm" else 3 * (k + 1) + 6
    if 2 * degree > TRUNCATION_CEILING:
        raise SizeLimitError(
            f"certifying k = {k} needs truncation degree "
            f"{2 * degree}, above the cap {TRUNCATION_CEILING}"
        )
    return degree


def _stable_image(module: ConnectionModule, where: str) -> _StableImage:
    """The stabilised image of d/dz over the affine line ("a1"), or of
    z d/dz + twist over the punctured line ("gm"), with its class
    solvers.

    One image is held at a time.  Asking for another drops the held
    one before the build, so its rows and the new build's never
    coexist; asking again for a dropped one rebuilds it with the same
    engine and so the same rows.  Building records the image's
    (dimension, degree) in ``_CERTIFIED``.
    """
    # Keyed on the whole module: two modules with equal (n, k) but
    # different columns must not share an echelon, nor two with
    # different labels a class solver.
    key = (module, where)
    state = _STABLE_CACHE.get(key)
    if state is None:
        # Refuse before dropping the held image, not after.
        if where == "a1" and module.twist:
            raise DomainError("affine-line cohomology requires an untwisted module")
        _first_truncation(module.k, where)
        _STABLE_CACHE.clear()
        state = _build_stable_image(module, where)
        _STABLE_CACHE[key] = state
        _CERTIFIED[key] = state.dim, state.degree
    return state


def _build_stable_image(module: ConnectionModule, where: str) -> _StableImage:
    """The stabilised image, uncached.

    Truncation degree D takes the sources z^d * g_j of weight at most
    n * D, inserted in increasing weight, and the window is the weighted
    degree D // 2.  Each row is built in integers inside the weight
    loop, from its generator's ``IdColumn``, primitive with a positive
    lead.  A row whose lead has no pivot yet, which is most of them, is
    stored as it is: that is the row insertion would store.  Only the
    others go through ``_Echelon.insert``.

    The request is checked by ``_stable_image``: an affine-line image
    needs an untwisted module.
    """
    degree = _first_truncation(module.k, where)
    n, gens, weights = module.n, module.rank, module.weights
    # Ids stay non-negative up to the anchor's weight, above the
    # n * D + n + 1 that the rows of a symmetric power reach.
    anchor = n * (TRUNCATION_CEILING + 2)
    columns = _image_columns(module, where, anchor)
    scale, twist = module.twist.denominator, module.twist.numerator
    stride = n * gens
    # The sources of weight W are the z^d * g_j with w_j = W - n * d,
    # w_j in W's residue class mod n, listed by increasing w_j.
    layers = [
        sorted((w, j) for j, w in enumerate(weights) if w % n == r)
        for r in range(n)
    ]
    echelon = _Echelon()
    rows, insert, gcd = echelon.rows, echelon.insert, math.gcd
    processed = -1
    previous = None
    while True:
        if degree > TRUNCATION_CEILING:
            raise StabilityError(
                "dimension did not stabilise below truncation degree "
                f"{TRUNCATION_CEILING}"
            )
        for weight in range(processed + 1, n * degree + 1):
            for w, j in layers[weight % n]:
                if w > weight:
                    break
                # scale * (z^up d/dz + twist) on z^d * g_j: the column's
                # ids lowered by d * stride, and the diagonal one degree
                # below z^(d+up), where no column term lands; divided by
                # its content and signed so that its lead is positive.
                terms, diagonal_at, lead, content = columns[j]
                d = (weight - w) // n
                shift = d * stride
                diagonal = d * scale + twist
                g = gcd(content, diagonal)
                sign = content
                if diagonal and (lead is None or diagonal_at < lead):
                    lead, sign = diagonal_at, diagonal
                if sign < 0:
                    g = -g
                row = {}
                if g == 1:
                    for pos, c in terms:
                        row[pos - shift] = c
                else:
                    for pos, c in terms:
                        row[pos - shift] = c // g
                if diagonal:
                    row[diagonal_at - shift] = diagonal // g
                if lead is not None:
                    lead -= shift
                    if lead not in rows:
                        rows[lead] = row
                        continue
                if not insert(row):
                    raise InconsistencyError(
                        "derivation row reduced to zero: the derivation "
                        "has a kernel at truncation degree "
                        f"{degree}, which contradicts irregularity"
                    )
        processed = n * degree
        window = degree // 2
        bound = n * window
        # Generator j has the monomials z^d * g_j, d <= (bound - w_j) / n.
        monomials = sum((bound - w) // n + 1 for w in weights if w <= bound)
        threshold = _monomial_id(bound, gens - 1, anchor, gens)
        dim = monomials - echelon.pivots_at_or_above(threshold)
        if previous == dim:
            return _StableImage(
                gens=gens,
                anchor=anchor,
                window=window,
                degree=degree,
                dim=dim,
                echelon=echelon,
            )
        previous = dim
        degree *= 2


def h1_dim_bruteforce(module: ConnectionModule, where: str) -> tuple[int, int]:
    """Dimension of H^1 for ``module`` over the affine line ("a1") or
    the punctured line ("gm"), by exact elimination on truncations.

    Returns (dimension, truncation degree at which it stabilised).  The
    degree D is a weighted degree, with z of weight 1 and generator i
    of weight w_i / n: truncation D keeps the sources z^d * g_i with
    d + w_i / n <= D, and the dimension is read off the window of
    weighted degree D // 2.  D starts at ``_first_truncation``, k + 4
    over the punctured line and 3(k+1) + 6 over the affine line, and
    doubles until the dimension repeats.  The affine-line case is the
    cokernel of d/dz and requires an untwisted module; the
    punctured-line case is the cokernel of z d/dz + twist.  A module
    certified before is answered from ``_CERTIFIED``, with no image
    built.
    """
    if where not in ("a1", "gm"):
        raise DomainError(f"unknown cohomology space {where!r}")
    key = (module, where)
    if key not in _CERTIFIED:
        _stable_image(module, where)
    return _CERTIFIED[key]


def _element_ids(
    element: ModuleElement,
    module: ConnectionModule,
    state: _StableImage,
) -> tuple[int, dict[int, int]]:
    """(scale, ids): the element's coordinates times ``scale``, the lcm
    of their denominators."""
    index = {label: i for i, label in enumerate(module.labels)}
    n, bound = module.n, module.n * state.window
    out: dict[int, Fraction] = {}
    for label, poly in element.coordinates:
        i = index.get(label)
        if i is None:
            raise DomainError(f"element uses unknown generator {label!r}")
        for d, c in poly.terms:
            weight = n * d + module.weights[i]
            if weight > bound:
                raise StabilityError(
                    f"element weighted degree {Fraction(weight, n)} exceeds "
                    f"the stabilised window {state.window}"
                )
            out[_monomial_id(weight, i, state.anchor, state.gens)] = c
    scale = math.lcm(*(c.denominator for c in out.values()))
    return scale, {
        pos: c.numerator * (scale // c.denominator) for pos, c in out.items()
    }


def _class_solver(
    classes: tuple[ModuleElement, ...], module: ConnectionModule, where: str
) -> tuple[_StableImage, _Echelon]:
    """The stabilised image and a solver for ``classes`` in its
    quotient, built once per image and class tuple.

    Class i is reduced to normal form against the image, an integer
    vector ints_i over its scale s_i, and inserted into the solver as
    ints_i plus s_i on the tag coordinate tag + i.  A vector in the
    span of the classes then reduces to minus its coordinates on the
    tags, and a solver row whose lead lies on a tag marks a class that
    depends on the ones before it."""
    state = _stable_image(module, where)
    solver = state.solvers.get(classes)
    if solver is None:
        solver = _Echelon()
        for i, element in enumerate(classes):
            scale, form = state.echelon.normal_form(
                _element_ids(element, module, state)
            )
            solver.insert({**form, state.tag + i: scale})
        state.solvers[classes] = solver
    return state, solver


def gm_cokernel_basis(k: int, twist: Fraction | int = 0) -> CohomologyBasis:
    """Basis of H^1 over the punctured line for the k-th symmetric power
    of the order-2 connection, twist 0 or 1/2.

    The classes are z^p * u0 for p from ``omega_count(k)`` down to 1,
    followed by u0..uk.  Their count and linear independence are
    verified against the brute-force cohomology before returning.
    """
    if k < 1:
        raise DomainError("symmetric power must be at least 1")
    _first_truncation(k, "gm")  # refuse before building the module
    module = build_symk(2, k, twist)
    top = omega_count(k)
    classes = [monomial_element("u0", p) for p in range(top, 0, -1)]
    classes += [monomial_element(f"u{j}") for j in range(k + 1)]
    dim, _ = h1_dim_bruteforce(module, "gm")
    if dim != len(classes):
        raise InconsistencyError(
            f"closed-form basis has {len(classes)} classes but the "
            f"brute-force dimension is {dim} (k={k}, twist={module.twist})"
        )
    state, solver = _class_solver(tuple(classes), module, "gm")
    if any(lead >= state.tag for lead in solver.rows):
        raise InconsistencyError(
            f"closed-form classes are dependent in cohomology (k={k}, "
            f"twist={module.twist})"
        )
    return CohomologyBasis(
        space="gm",
        k=k,
        twist=module.twist,
        classes=tuple(classes),
        g_levels=None,
    )


def omega_count(k: int) -> int:
    """How many classes z^(i-1) * u0 the affine-line basis of the k-th
    symmetric power has: floor((k-1)/2), plus one when k is odd."""
    return (k - 1) // 2 + k % 2


def omega_class(i: int) -> ModuleElement:
    """The class z^(i-1) * u0 (a differential form after multiplying by
    dz), the i-th member of the affine-line cohomology basis."""
    if i < 1:
        raise DomainError("basis index starts at 1")
    return monomial_element("u0", i - 1)


def omega_thirds(k: int, i: int) -> int:
    """Three times the irregular filtration level of the i-th basis
    class: 3(k+1) - (k+2i)."""
    return 2 * k + 3 - 2 * i


def omega_level(k: int, i: int) -> Fraction:
    """Irregular filtration level of the i-th basis class."""
    return Fraction(omega_thirds(k, i), 3)


def h1_a1_basis(k: int) -> CohomologyBasis:
    """Basis of H^1 over the affine line for the k-th symmetric power of
    the order-2 connection: classes z^(i-1) u0 for i = 1..omega_count(k),
    each with its filtration level."""
    if k < 2:
        raise DomainError("need a symmetric power of at least 2")
    top = omega_count(k)
    classes = tuple(omega_class(i) for i in range(1, top + 1))
    levels = tuple(omega_level(k, i) for i in range(1, top + 1))
    return CohomologyBasis(
        space="a1",
        k=k,
        twist=Fraction(0),
        classes=classes,
        g_levels=levels,
    )


def reduce_to_basis(
    element: ModuleElement,
    basis: CohomologyBasis,
    module: ConnectionModule,
) -> tuple[Fraction, ...]:
    """Coordinates of ``element``'s cohomology class in ``basis``.

    Works inside the stabilised brute-force quotient: the element is
    reduced to normal form against the image of the derivation, then
    against the basis's class solver (built once per basis, see
    ``_class_solver``), which leaves minus its coordinates on the tags.
    Raises DomainError when ``module`` is not the one the basis lives
    in (another order, symmetric power or twist), and InconsistencyError
    when the element lies outside the span of the basis classes or the
    classes are dependent.
    """
    if module.n != 2:
        raise DomainError("cohomology bases live in order-2 modules")
    if module.k != basis.k:
        raise DomainError(
            "element module and basis have different symmetric powers"
        )
    if module.twist != basis.twist:
        raise DomainError("element module and basis have different twists")
    where = "gm" if basis.space == "gm" else "a1"
    state, solver = _class_solver(basis.classes, module, where)
    tag = state.tag
    scale, residual = solver.normal_form(
        state.echelon.normal_form(_element_ids(element, module, state))
    )
    if any(pos < tag for pos in residual):
        raise InconsistencyError(
            "element does not lie in the span of the basis classes"
        )
    if any(lead >= tag for lead in solver.rows):
        raise InconsistencyError("basis classes are dependent in cohomology")
    return tuple(
        Fraction(-residual.get(tag + i, 0), scale)
        for i in range(len(basis))
    )
