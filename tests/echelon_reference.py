"""The degree-ordered brute-force build, kept as the test reference for
:mod:`airymoments.connection`, which orders its echelon by weighted
degree instead.

Here monomial z^d * g_i gets the id (anchor - d) * gens + i, so a
row's lead is its top-degree part and, within a degree, the lowest
generator index.  Sources z^d * g_j are inserted for d = 0..D on the
same truncation schedule, and the window is the degrees d <= D // 2.
The echelon kernel itself is the package's ``_Echelon``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from airymoments.connection import (
    CohomologyBasis,
    ConnectionModule,
    ModuleElement,
    _Echelon,
    _first_truncation,
)
from airymoments.errors import (
    DomainError,
    InconsistencyError,
    StabilityError,
)

#: Largest truncation degree this reference tries; ids are counted down
#: from just above it.
CEILING = 4096


@dataclass
class DegreeImage:
    """The degree-ordered echelon of the derivation's image, with every
    row of the last truncation."""

    gens: int
    anchor: int
    window: int
    degree: int
    dim: int
    echelon: _Echelon

    @property
    def tag(self) -> int:
        return (self.anchor + 1) * self.gens


def image_row(
    terms: list[tuple[int, int, int]],
    scale: int,
    twist: int,
    up: int,
    d: int,
    j: int,
    gens: int,
    anchor: int,
) -> dict[int, int]:
    """Degree-ordered row of ``scale`` times z^up d/dz + twist applied
    to z^d * g_j; ``terms`` are the columns of g_j moved up by ``up``
    and times ``scale``."""
    row = {(anchor - d - m) * gens + i: c for m, i, c in terms}
    diagonal = d * scale + twist
    if diagonal:
        row[(anchor + 1 - up - d) * gens + j] = diagonal
    return row


def build_image(module: ConnectionModule, where: str) -> DegreeImage:
    """The degree-ordered stabilised image over "a1" or "gm", uncached;
    same certificate as the package: truncation degree doubled until the
    window dimension repeats, every row landing a new pivot."""
    if where == "a1" and module.twist:
        raise DomainError("affine-line cohomology requires an untwisted module")
    degree = _first_truncation(module.k, where)
    gens = module.rank
    anchor = CEILING + 2
    up = int(where == "gm")
    scale, twist = module.twist.denominator, module.twist.numerator
    terms = [
        [(m + up, i, c * scale) for m, i, c in column]
        for column in module.partial
    ]
    echelon = _Echelon()
    processed = -1
    previous = None
    while True:
        if degree > CEILING:
            raise StabilityError(
                "dimension did not stabilise below truncation degree "
                f"{CEILING}"
            )
        for d in range(processed + 1, degree + 1):
            for j in range(gens):
                row = image_row(terms[j], scale, twist, up, d, j, gens, anchor)
                if not echelon.insert(row):
                    raise InconsistencyError("derivation row reduced to zero")
        processed = degree
        window = degree // 2
        dim = gens * (window + 1) - echelon.pivots_at_or_above(
            (anchor - window) * gens
        )
        if previous == dim:
            return DegreeImage(gens, anchor, window, degree, dim, echelon)
        previous = dim
        degree *= 2


def h1_dim_bruteforce(module: ConnectionModule, where: str) -> tuple[int, int]:
    """(dimension, truncation degree) of the degree-ordered build."""
    image = build_image(module, where)
    return image.dim, image.degree


@functools.cache
def cached_image(module: ConnectionModule, where: str) -> DegreeImage:
    """``build_image``, built once per module and space."""
    return build_image(module, where)


def element_ids(
    element: ModuleElement, module: ConnectionModule, image: DegreeImage
) -> tuple[int, dict[int, int]]:
    """(scale, degree-ordered ids) of an element of degree at most the
    window; refuses a higher degree."""
    index = {label: i for i, label in enumerate(module.labels)}
    out: dict[int, Fraction] = {}
    for label, poly in element.coordinates:
        i = index[label]
        for d, c in poly.terms:
            if d > image.window:
                raise StabilityError(
                    f"element degree {d} exceeds the stabilised window "
                    f"{image.window}"
                )
            out[(image.anchor - d) * image.gens + i] = c
    scale = math.lcm(*(c.denominator for c in out.values()))
    return scale, {
        pos: c.numerator * (scale // c.denominator) for pos, c in out.items()
    }


@functools.cache
def _class_solver(
    classes: tuple[ModuleElement, ...], module: ConnectionModule, where: str
) -> _Echelon:
    image = cached_image(module, where)
    solver = _Echelon()
    for i, element in enumerate(classes):
        scale, form = image.echelon.normal_form(
            element_ids(element, module, image)
        )
        solver.insert({**form, image.tag + i: scale})
    return solver


def reduce_to_basis(
    element: ModuleElement, basis: CohomologyBasis, module: ConnectionModule
) -> tuple[Fraction, ...]:
    """Coordinates of ``element``'s class in ``basis``, through the
    degree-ordered image and a class solver tagged as the package's."""
    where = "gm" if basis.space == "gm" else "a1"
    image = cached_image(module, where)
    solver = _class_solver(basis.classes, module, where)
    tag = image.tag
    scale, residual = solver.normal_form(
        image.echelon.normal_form(element_ids(element, module, image))
    )
    if any(pos < tag for pos in residual):
        raise InconsistencyError(
            "element does not lie in the span of the basis classes"
        )
    if any(lead >= tag for lead in solver.rows):
        raise InconsistencyError("basis classes are dependent in cohomology")
    return tuple(
        Fraction(-residual.get(tag + i, 0), scale) for i in range(len(basis))
    )
