"""Symmetric powers of Airy-type connections as explicit free modules
over the polynomial ring, with first de Rham cohomology computed two
independent ways:

* brute force: exact sparse elimination on truncations of the derivation,
  with a stabilisation certificate (truncation degree is doubled until
  the computed dimension repeats, and every truncated row must land a
  new pivot, witnessing that the derivation has no kernel), which
  refuses, before any row of it, a truncation whose kernel rows times
  generators, counted from its layer plans, pass ``MAX_WORK``;
* closed form: explicit cohomology bases.  ``gm_cokernel_basis`` checks
  their size and independence against the brute-force answer on every
  call; ``h1_a1_basis`` and ``asymptotics.mid_basis`` serve theirs
  unchecked, and the tests check them against it, the middle basis
  also in acceptance criterion 6.

Monomials are ordered by weighted degree, in which z has weight 1 and a
generator of the order-n module has weight w/n for its integer weight
w (see ``ConnectionModule``); this is the grading of Yu's filtration by
weighted pole order.  Ids are indexed so that the monomials of weighted
degree at most E form a suffix of the coordinate order.  Row reduction
therefore computes, in one pass, the dimension of the image intersected
with every such window, and normal forms of low-weight vectors never
leave the window.  That is what makes the truncated quotient an exact
model of the true cokernel once the dimension stabilises.

The elimination is fraction-free, in the style of Bareiss (1968).  A
row collides only at its top weight, where the derivation acts by its
C[z]-linear top part, so in a module whose columns are homogeneous that
elimination repeats every n weights: it is planned once per residue
layer (see ``_layer_plan``), and each image row is its step of the plan
moved to its weight.  Such a row is found from its lead by arithmetic,
and written out only while a reduction reads it (see ``_Plans``).  Only
a step whose top cancels, and every row of a module whose columns are
not homogeneous, is eliminated, with the working row scaled lazily and
its leads taken off a heap (see ``_Echelon``).

One image is held at a time, with its class solvers; building another
drops it first.  Every certified (dimension, degree) is kept in a small
table, so a repeated dimension query never rebuilds, and a normal form
asked of an image no longer held rebuilds it, with the same rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush

from .errors import (
    DomainError,
    InconsistencyError,
    SizeLimitError,
    StabilityError,
)
from .exact import Polynomial, compositions

HALF = Fraction(1, 2)

#: Refuse to build symmetric powers with more generators than this.  It
#: bounds the layer plans: at the largest size of each order 2 to 8 they
#: take 0.03 to 1.2 s, at order-3 Sym^72, 2,701, 0.5 to 1.2 s, and at
#: order-3 Sym^73, 2,775, 1.4 s (2-vCPU VM).
SIZE_CAP = 2_701

#: Refuse a brute-force truncation whose kernel rows times generators,
#: counted from the plans, pass this: about 2 us each at order 2 (A^1
#: k = 266 and G_m k = 512 take 1 s), up to 13 us at order 3 (2-vCPU VM).
MAX_WORK = 400_000

#: The cohomology spaces a basis can live in; see ``CohomologyBasis``.
SPACES = ("a1", "gm", "mid")

#: Sparse column of a derivation: (degree, target index, integer coeff)
#: triples, no two with the same (degree, target) and none with coeff 0.
Column = tuple[tuple[int, int, int], ...]

#: A column as echelon coordinates: the (id, coeff) terms of the image
#: row of the generator itself, and the id its diagonal takes there.
IdColumn = tuple[list[tuple[int, int]], int]

#: One source's step of a layer plan (see ``_layer_plan``): its top part
#: eliminated against the tops before it, as (id, coeff) pairs, the gcd
#: of its coeffs, and the combination of sources it is, as (diagonal id,
#: degree, integer coefficient) triples, all at the weight the plan was
#: made at.  A step whose top has a lead, moved m strides, is an image
#: row that its lead names (see ``_Plans``).
PlanStep = tuple[
    tuple[tuple[int, int], ...], int, tuple[tuple[int, int, int], ...],
]


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
    row is the column itself.  The brute force checks this of every
    module: where it holds, every row is replayed from one plan per
    residue layer of the top-weight elimination (see ``_layer_plan``);
    elsewhere each row is eliminated.
    """

    n: int
    k: int
    twist: Fraction
    labels: tuple[str, ...]
    partial: tuple[Column, ...]
    weights: tuple[int, ...]

    def __post_init__(self):
        # A term off the contract aliases another's id (see
        # ``_monomial_id``) or is dropped, and the brute force would
        # answer for another derivation.
        rank = len(self.labels)
        if not rank == len(self.partial) == len(self.weights):
            raise DomainError("labels, partial and weights differ in length")
        if len(set(self.labels)) != rank:
            raise DomainError("generator labels repeat")
        if self.n < 1:
            raise DomainError("module order must be at least 1")
        if self.k < 0:
            # k sets the first truncation, which must be positive.
            raise DomainError("symmetric power must be at least 0")
        for j, column in enumerate(self.partial):
            for m, i, c in column:
                if not 0 <= i < rank:
                    raise DomainError(f"column {j} targets generator {i}")
                if m < 0:
                    raise DomainError(f"column {j} has degree {m}")
                if type(c) is not int or not c:
                    raise DomainError(f"column {j} has coefficient {c!r}")
            if len({(m, i) for m, i, _ in column}) != len(column):
                raise DomainError(f"column {j} repeats a (degree, target)")

    @property
    def rank(self) -> int:
        return len(self.labels)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {label: i for i, label in enumerate(self.labels)}


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
# -W * gens + (gens - 1 - i), so ids decrease as the weight grows, every
# id is below gens, where class tags start, and the window of weighted
# degree <= E (weight <= n * E) is exactly the suffix of ids
# >= -n * E * gens.  A row's lead, its least id, is its top-weight part
# and, within a weight, the highest generator index.  Echelon rows whose
# leading id lies in the suffix have their entire support in it, which
# keeps window computations exact.
# ---------------------------------------------------------------------------


def _primitive(row: dict[int, int], lead: int) -> dict[int, int]:
    """``row`` divided by its content, signed so that its entry at
    ``lead`` is positive."""
    g = math.gcd(*row.values())
    if row[lead] < 0:
        g = -g
    if g != 1:
        row = {pos: value // g for pos, value in row.items()}
    return row


@dataclass
class _Plans:
    """A build's layer plans: a table of planned leads, and kernel steps.

    A step moved m strides is led at its lead minus m strides.  No two
    planned leads agree mod the stride, n * gens, as a residue names a
    generator and a weight mod n, and a layer's leads share one weight.
    So ``table`` maps a lead's residue to (lead, step, first), with the
    least m whose source exists.  ``layers`` holds per residue mod n
    (start, kernel steps as (least m, step) by increasing m), the layer
    planned at weight start.  Truncation D's rows, from the sources of
    weight at most n * D, lead at or above ``floor``, the id of the top
    generator at weight n * D + s (s = 1 over A^1, n + 1 over G_m),
    which the build sets; a reduction reading one below it is refused."""

    table: dict[int, tuple[int, PlanStep, int]]
    n: int
    stride: int
    scale: int
    twist: int
    layers: list[tuple[int, list[tuple[int, PlanStep]]]]
    floor: int = 0

    def kernel_rows(self, degree: int) -> int:
        """The rows truncation ``degree`` inserts: one per kernel step
        and stride, from its least m up to the truncation's top weight."""
        n, top = self.n, self.n * degree
        return sum(
            max(0, (top - start) // n - least + 1)
            for start, kernel in self.layers
            for least, _ in kernel
        )

    def row(self, at: int) -> dict[int, int] | None:
        """The planned row led at ``at``, written out; None when no row
        is planned there.  Raises InconsistencyError when the row is
        planned below ``floor``, past this truncation."""
        entry = self.table.get(at % self.stride)
        if entry:
            lead, step, first = entry
            m = (lead - at) // self.stride
            if first <= m:
                if at < self.floor:
                    raise InconsistencyError(
                        f"a reduction reads the planned lead {at} below {self.floor}"
                    )
                return self.replay(step, m)
        return None

    def count(self, threshold: int) -> int:
        """How many planned rows of this truncation are led at or above
        ``threshold``: a range of m per step."""
        stride, least = self.stride, max(threshold, self.floor)
        return sum(
            max(0, (lead - least) // stride - first + 1)
            for lead, _, first in self.table.values()
        )

    def replay(self, step: PlanStep, m: int) -> dict[int, int]:
        """The image row of ``step`` moved m strides, in integers.

        Its top is the plan's, and its tail the diagonal of each source
        z^(d+m) * g_i, whose coeff in scale * (z^up d/dz + twist) is
        (d + m) * scale + twist; all divided by the content, which the
        planned top's gcd g starts."""
        top, g, combination = step
        shift, scale, twist = m * self.stride, self.scale, self.twist
        gcd = math.gcd
        row = {}
        for at, d, u in combination:
            c = u * ((d + m) * scale + twist)
            if c:
                row[at - shift] = c
                g = gcd(g, c)
        if g == 1:
            for pos, c in top:
                row[pos - shift] = c
        else:
            for pos, c in row.items():
                row[pos] = c // g
            for pos, c in top:
                row[pos - shift] = c // g
        return row


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
    the positive integer scale.  What ``insert`` stores under lead L is
    the one primitive vector with a positive entry at L, zero below L,
    in the row plus the span of the rows led below L.  A planned image
    row is that vector already, so the image's echelon holds none: at a
    lead with no row in ``rows`` it asks the build's ``_Plans``.

    A reduction scales its working row lazily: an entry is held as a
    pair (v, p) standing for v * scale / p, where scale is the product
    of the step factors so far, so a step that scales the row multiplies
    one integer, and an entry is brought to the current scale only when
    a pivot touches it or the reduction ends.  Leads only grow, so they
    come off a heap of the row's ids instead of a scan of the row; an
    id whose entry has cancelled is skipped when it comes off.
    """

    def __init__(self, plans: _Plans | None = None):
        self.rows: dict[int, dict[int, int]] = {}
        self.plans = plans

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
        ``row`` comes back multiplied by, with no zero entry.  A lead
        with no row in ``rows`` is asked of the plans, if any."""
        pivot_at, gcd, pop, push = self.rows.get, math.gcd, heappop, heappush
        planned = self.plans and self.plans.row
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
            pivot = pivot_at(at) or (planned and planned(at))
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
        left; returns False when the row reduced to zero.  The plans
        refuse a planned lead below their floor, so none is stored."""
        lead, _ = self._reduce(row)
        if lead is None:
            return False
        self.rows[lead] = _primitive(row, lead)
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
        held = sum(map(threshold.__le__, self.rows))
        return held + self.plans.count(threshold) if self.plans else held


@dataclass
class _StableImage:
    """Certificate-bearing echelon of the derivation's image, with the
    class solvers built against it, keyed by their class tuple."""

    window: int
    degree: int
    dim: int
    echelon: _Echelon
    solvers: dict[tuple[ModuleElement, ...], _Echelon] = field(
        default_factory=dict
    )


#: The one image held, keyed by (module, space): at most one entry.
_STABLE_CACHE: dict[tuple, _StableImage] = {}

#: Every certified (dimension, degree), keyed by the module's repr and
#: the line.  It spares the rebuild of an image dropped between two
#: dimension queries of one module.  The repr tells modules apart as
#: the module does, without keeping it alive: the modules of a range's
#: every k would outweigh its held image.
_CERTIFIED: dict[tuple[str, str], tuple[int, int]] = {}


def _monomial_id(weight: int, i: int, gens: int) -> int:
    """Id of the monomial of this weight on generator i."""
    return -weight * gens + gens - 1 - i


def _image_columns(module: ConnectionModule, where: str) -> list[IdColumn]:
    """The columns of z^up d/dz + twist, up = 1 over the punctured line
    ("gm") and 0 over the affine line, as ids: each coeff is times the
    twist's denominator, which clears the half twist."""
    up = int(where == "gm")
    scale = module.twist.denominator

    def at(degree: int, i: int) -> int:
        weight = module.n * degree + module.weights[i]
        return _monomial_id(weight, i, module.rank)

    return [
        ([(at(m + up, i), c * scale) for m, i, c in column], at(up - 1, j))
        for j, column in enumerate(module.partial)
    ]


def _first_truncation(k: int, where: str) -> int:
    """The first truncation degree of the certificate for Sym^k over
    the affine line ("a1") or the punctured line ("gm").  The
    certificate compares at least two truncations, degree and
    2 * degree, and doubles again while the dimension moves.

    Over the punctured line it is k + 4: the first window, (k + 4) // 2,
    already holds every class of ``gm_cokernel_basis``, z^p * u0 for p
    up to ``omega_count(k)`` and u_j for j up to k.  From k + 2 on, the
    weight order would certify Sym^5 at order 3 and Sym^3 at order 4 a
    doubling later than the degree order does.  The affine line keeps
    3(k+1) + 6, so the (dimension, degree) it reports stays the one the
    benchmark's golden outputs pin."""
    return k + 4 if where == "gm" else 3 * (k + 1) + 6


def _check_work(plans: _Plans, degree: int, error: type, what: str) -> None:
    """Refuse truncation ``degree`` past ``MAX_WORK``, with ``error``."""
    rows, gens = plans.kernel_rows(degree), plans.stride // plans.n
    if rows * gens > MAX_WORK:
        raise error(
            f"{what}: truncation degree {degree} inserts {rows} kernel "
            f"rows of {gens} generators, above the cap {MAX_WORK}"
        )


def _stable_image(module: ConnectionModule, where: str) -> _StableImage:
    """The stabilised image of d/dz over the affine line ("a1"), or of
    z d/dz + twist over the punctured line ("gm"), with its class
    solvers.

    One image is held at a time.  Asking for another drops the held
    one before the build, so its rows and the new build's never
    coexist; asking again for a dropped one rebuilds it with the same
    engine and so the same rows.  Building records the image's
    (dimension, degree) in ``_CERTIFIED``.  The plans come first: a
    second truncation past ``MAX_WORK`` leaves the held image held.
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
        plans = _plan(module, where)
        second = 2 * _first_truncation(module.k, where)
        _check_work(plans, second, SizeLimitError, f"certifying k = {module.k}")
        _STABLE_CACHE.clear()
        state = _build_stable_image(module, where, plans)
        _STABLE_CACHE[key] = state
        _CERTIFIED[repr(module), where] = state.dim, state.degree
    return state


def _layer_plan(
    columns: list[IdColumn],
    sources: list[tuple[int, int]],
    plans: _Plans,
    homogeneous: bool,
) -> list[tuple[int, PlanStep]]:
    """The elimination inside one top block: one step per source
    z^d * g_j of ``sources``, (d, j) in build order, at one weight.

    Only these sources' rows are led at the top weight, where each is
    its top part, its column.  So each top is eliminated against the
    tops before it, in a scratch ``_Echelon`` with source t tagged by 1
    at gens + t, and the tags of what is left give the combination.  A
    top that cancels keeps no row, and step t depends on sources 0..t
    only, so a prefix of ``sources`` has the first steps of the plan.

    A step with a lead goes into ``plans``' table; the kernel steps are
    returned, each with the least m at which its source exists.  When
    the module is not ``homogeneous`` the top part is not the column, so
    no step gets a lead and every row goes through ``_Echelon.insert``."""
    scratch = _Echelon()
    held = scratch.rows
    stride = plans.stride
    tag = stride // plans.n
    kernel = []
    for t, (d, j) in enumerate(sources):
        shift = d * stride
        row = {pos - shift: c for pos, c in columns[j][0]}
        row[tag + t] = 1
        lead, _ = scratch._reduce(row)
        combined = _primitive(row, lead)
        top = tuple((pos, c) for pos, c in combined.items() if pos < tag)
        combination = []
        for pos, u in combined.items():
            if pos >= tag:
                e, i = sources[pos - tag]
                combination.append((columns[i][1] - e * stride, e, u))
        step = top, math.gcd(*(c for _, c in top)), tuple(combination)
        if lead < tag and homogeneous:
            held[lead] = combined
            plans.table[lead % stride] = lead, step, -d
        else:
            kernel.append((-d, step))
    return kernel


def _plan(module: ConnectionModule, where: str) -> _Plans:
    """The layer plans of the image over ``where``.  Truncation degree D
    takes the sources z^d * g_j of weight at most n * D, in increasing
    weight.  Each residue layer of weights mod n is planned once, at its
    largest w_j, where every generator of the layer first has a source
    (``_layer_plan``).  At weight start + m * n the sources are a prefix
    of the layer, and each row is its step moved m strides."""
    n, weights = module.n, module.weights
    columns = _image_columns(module, where)
    homogeneous = all(
        column
        and all(n * m + weights[i] == weights[j] + 1 for m, i, _ in column)
        for j, column in enumerate(module.partial)
    )
    scale, twist = module.twist.denominator, module.twist.numerator
    plans = _Plans({}, n, n * module.rank, scale, twist, [])
    # The sources of weight W are the z^d * g_j with w_j = W - n * d,
    # w_j in W's residue class mod n, listed by increasing w_j.
    for r in range(n):
        layer = sorted((w, j) for j, w in enumerate(weights) if w % n == r)
        start = layer[-1][0] if layer else r
        sources = [((start - w) // n, j) for w, j in layer]
        plans.layers.append(
            (start, _layer_plan(columns, sources, plans, homogeneous))
        )
    return plans


def _build_stable_image(
    module: ConnectionModule, where: str, plans: _Plans
) -> _StableImage:
    """The stabilised image from its ``plans``, uncached; the window is
    the weighted degree D // 2 of the last truncation D.

    When every column is homogeneous, a planned row's top lead has no
    pivot, as only this batch's rows are led at the top weight, and it
    differs from the source's own row by rows led below that lead: it is
    the row insertion would store.  The echelon finds it from its lead
    in the ``_Plans``, so the weight loop inserts only the kernel steps,
    whose tops σ kills, and every row of a module that is not
    homogeneous.

    No reduction reads a planned lead below the floor.  A planned row
    from source weight W leads at weight W + s, its top weight.  A
    kernel row from source weight W <= n * D lies wholly at weight W - n
    over the affine line or W over the punctured one, as its top
    cancels, so every id its reduction meets lies at weight at most W,
    under the floor's weight n * D + s: at or above the floor.  So does
    every id that an element of the window, of weight at most
    n * (D // 2), meets.

    ``_stable_image`` checks the request and the first two truncations;
    each further doubling is checked here, before any of its rows.
    """
    n, gens, weights = module.n, module.rank, module.weights
    s = n + 1 if where == "gm" else 1
    echelon = _Echelon(plans)
    insert = echelon.insert
    processed, previous = -1, None
    degree = _first_truncation(module.k, where)
    while True:
        plans.floor = _monomial_id(n * degree + s, gens - 1, gens)
        for weight in range(processed + 1, n * degree + 1):
            start, kernel = plans.layers[weight % n]
            m = (weight - start) // n
            for least, step in kernel:
                if m < least:
                    break
                if not insert(plans.replay(step, m)):
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
        threshold = _monomial_id(bound, gens - 1, gens)
        dim = monomials - echelon.pivots_at_or_above(threshold)
        if previous == dim:
            return _StableImage(window, degree, dim, echelon)
        if previous is not None:
            what = f"dimension did not stabilise by truncation degree {degree}"
            _check_work(plans, 2 * degree, StabilityError, what)
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
    doubles until the dimension repeats.  No truncation whose kernel
    rows, counted from the layer plans, times the generators pass
    ``MAX_WORK`` is built: past it a second truncation raises
    SizeLimitError, and a further one StabilityError.  The affine-line
    case is the cokernel of d/dz and requires an untwisted module; the
    punctured-line case is the cokernel of z d/dz + twist.  A module
    certified before is answered from ``_CERTIFIED``, with no image
    built.
    """
    if where not in ("a1", "gm"):
        raise DomainError(f"unknown cohomology space {where!r}")
    key = repr(module), where
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
    n, bound = module.n, module.n * state.window
    out: dict[int, Fraction] = {}
    for label, poly in element.coordinates:
        i = module._index.get(label)
        if i is None:
            raise DomainError(f"element uses unknown generator {label!r}")
        for d, c in poly.terms:
            weight = n * d + module.weights[i]
            if weight > bound:
                raise StabilityError(
                    f"element weighted degree {Fraction(weight, n)} exceeds "
                    f"the stabilised window {state.window}"
                )
            out[_monomial_id(weight, i, module.rank)] = c
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
    depends on the ones before it: such classes are refused, before the
    solver is kept."""
    state = _stable_image(module, where)
    solver = state.solvers.get(classes)
    if solver is None:
        tag = module.rank
        solver = _Echelon()
        for i, element in enumerate(classes):
            scale, form = state.echelon.normal_form(
                _element_ids(element, module, state)
            )
            solver.insert({**form, tag + i: scale})
        if any(lead >= tag for lead in solver.rows):
            raise InconsistencyError("basis classes are dependent in cohomology")
        state.solvers[classes] = solver
    return state, solver


def gm_cokernel_basis(k: int, twist: Fraction | int = 0) -> CohomologyBasis:
    """Basis of H^1 over the punctured line for the k-th symmetric power
    of the order-2 connection, twist 0 or 1/2.

    The classes are z^p * u0 for p from ``omega_count(k)`` down to 1,
    followed by u0..uk.  Their count and linear independence are
    verified against the brute-force cohomology before returning.
    """
    module = build_symk(2, k, twist)
    classes = [monomial_element("u0", p) for p in range(omega_count(k), 0, -1)]
    classes += [monomial_element(f"u{j}") for j in range(k + 1)]
    dim, _ = h1_dim_bruteforce(module, "gm")
    if dim != len(classes):
        raise InconsistencyError(
            f"closed-form basis has {len(classes)} classes but the "
            f"brute-force dimension is {dim} (k={k}, twist={module.twist})"
        )
    _class_solver(tuple(classes), module, "gm")
    return CohomologyBasis("gm", k, module.twist, tuple(classes))


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
    return CohomologyBasis("a1", k, Fraction(0), classes, levels)


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
    tag = module.rank
    scale, residual = solver.normal_form(
        state.echelon.normal_form(_element_ids(element, module, state))
    )
    if any(pos < tag for pos in residual):
        raise InconsistencyError(
            "element does not lie in the span of the basis classes"
        )
    return tuple(
        Fraction(-residual.get(tag + i, 0), scale)
        for i in range(len(basis))
    )
