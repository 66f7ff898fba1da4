"""Dissection invariants on rectangles with coordinates over Q[sqrt(p)].

Two exact invariants live here.  The z-area of a rectangle whose sides are
recorded as coordinate vectors over a declared basis is the formal quadratic
polynomial (a1 + a2*z)(b1 + b2*z); it is additive under dissection, so a sum
that depends on z certifies that no dissection into z-independent pieces can
exist.  The ABC-area is the bilinear form alpha*gamma*A + (alpha*delta +
beta*gamma)*B + beta*delta*C on a rectangle (alpha + beta*sqrt(p)) x (gamma +
delta*sqrt(p)); for a suitable parameter choice it vanishes on a given tile
shape while keeping a fixed sign on every rectangle of a given ratio, which
is the separation argument behind the negative decisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .exactfield import FieldParam, Quad, _to_rat, format_quad
from .geometry import Dissection, Rect, require_valid_tiling

__all__ = [
    "Basis",
    "BasisVector",
    "QuadPoly",
    "ABCParams",
    "SeparationCertificate",
    "z_area",
    "z_area_additivity_check",
    "abc_area_rect",
    "abc_area_polygon",
    "in_membership_set",
    "separation_certificate",
]


@dataclass(frozen=True)
class Basis:
    """Ordered formal symbols e1..ek; linear independence over the field is a
    declared assumption of the instance, not something computed."""

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        names = tuple(self.names)
        object.__setattr__(self, "names", names)
        if not names:
            raise ValueError("basis needs at least one symbol")
        if len(set(names)) != len(names):
            raise ValueError("basis symbols must be distinct")

    @property
    def k(self) -> int:
        return len(self.names)


@dataclass(frozen=True)
class BasisVector:
    """Coordinates of a length over a basis, with field-element coefficients."""

    basis: Basis
    coords: tuple[Quad, ...]

    def __post_init__(self) -> None:
        coords = tuple(self.coords)
        object.__setattr__(self, "coords", coords)
        if len(coords) != self.basis.k:
            raise ValueError("coordinate count must match the basis size")
        field = coords[0].field
        if any(c.field != field for c in coords):
            raise ValueError("coordinates must share one field parameter")

    @property
    def field(self) -> FieldParam:
        return self.coords[0].field

    def _check_same_basis(self, other: BasisVector) -> None:
        if self.basis != other.basis:
            raise ValueError("basis mismatch")

    def __add__(self, other: BasisVector) -> BasisVector:
        self._check_same_basis(other)
        return BasisVector(
            self.basis, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other: BasisVector) -> BasisVector:
        self._check_same_basis(other)
        return BasisVector(
            self.basis, tuple(a - b for a, b in zip(self.coords, other.coords))
        )


@dataclass(frozen=True)
class QuadPoly:
    """c0 + c1*z + c2*z**2 with field-element coefficients; z stays formal, so
    additivity checks are decidable polynomial identities."""

    c0: Quad
    c1: Quad
    c2: Quad

    @classmethod
    def zero(cls, field: FieldParam) -> QuadPoly:
        return cls(field.zero, field.zero, field.zero)

    def __add__(self, other: QuadPoly) -> QuadPoly:
        return QuadPoly(self.c0 + other.c0, self.c1 + other.c1, self.c2 + other.c2)

    def is_constant(self) -> bool:
        return self.c1.is_zero() and self.c2.is_zero()

    def __str__(self) -> str:
        return (
            f"({format_quad(self.c0)}) + ({format_quad(self.c1)}) z"
            f" + ({format_quad(self.c2)}) z^2"
        )


def z_area(side1: BasisVector, side2: BasisVector) -> QuadPoly:
    """(a1 + a2*z)(b1 + b2*z) expanded; coordinates beyond the second are
    deliberately ignored, matching how the invariant is defined."""
    side1._check_same_basis(side2)
    if side1.basis.k < 2:
        raise ValueError("z-area needs a basis with at least two symbols")
    a1, a2 = side1.coords[0], side1.coords[1]
    b1, b2 = side2.coords[0], side2.coords[1]
    return QuadPoly(a1 * b1, a1 * b2 + a2 * b1, a2 * b2)


def z_area_additivity_check(
    parent: tuple[BasisVector, BasisVector],
    children: Iterable[tuple[BasisVector, BasisVector]],
) -> bool:
    """True iff the parent z-area equals the children's sum as polynomials."""
    target = z_area(*parent)
    total = QuadPoly.zero(parent[0].field)
    for side1, side2 in children:
        total = total + z_area(side1, side2)
    return total == target


@dataclass(frozen=True)
class ABCParams:
    A: Fraction
    B: Fraction
    C: Fraction

    def __post_init__(self) -> None:
        for name in ("A", "B", "C"):
            object.__setattr__(self, name, _to_rat(getattr(self, name)))


def abc_area_rect(rect: Rect, params: ABCParams) -> Fraction:
    """alpha*gamma*A + (alpha*delta + beta*gamma)*B + beta*delta*C for a
    rectangle (alpha + beta*sqrt(p)) x (gamma + delta*sqrt(p)).  Symmetric in
    the two sides, and rational because the parameters are rational."""
    al, be = rect.width.a, rect.width.b
    ga, de = rect.height.a, rect.height.b
    return al * ga * params.A + (al * de + be * ga) * params.B + be * de * params.C


def abc_area_polygon(dissection: Dissection, params: ABCParams) -> Fraction:
    """Sum of tile ABC-areas over a verified dissection of its region.

    The value does not depend on which dissection of the region is supplied;
    tests exercise that independence explicitly.
    """
    require_valid_tiling(dissection)
    total = Fraction(0)
    for t in dissection.tiles:
        total += abc_area_rect(t, params)
    return total


@dataclass(frozen=True)
class SeparationCertificate:
    """Machine-checkable evidence behind a negative tiling verdict.

    ``params`` makes the (e + f*sqrt(p)) x 1 tile's ABC-area vanish;
    ``discriminant_quarter`` is the (negative) quarter discriminant of the
    quadratic form giving the ABC-area of ratio-(a + b*sqrt(p)) rectangles,
    and ``sign`` is that form's constant sign.
    """

    params: ABCParams
    discriminant_quarter: Fraction
    sign: int


def in_membership_set(y: Quad, r: Quad) -> bool:
    """Whether a rectangle of positive ratio y = e + f*sqrt(p) can be cut
    into rectangles similar to r = a + b*sqrt(p) > 0: the closed-form test
    stated in the ``decision`` module docstring."""
    a, b, e, f = r.a, r.b, y.a, y.b
    if r.conj().sign() > 0:
        return e > 0 and abs(f) * a <= abs(b) * e
    return f > 0 and abs(e) * b <= abs(a) * f


def separation_certificate(
    a: Fraction | int | str,
    b: Fraction | int | str,
    e: Fraction | int | str,
    f: Fraction | int | str,
    p: Fraction | int | str,
) -> SeparationCertificate:
    """The ABC parameters (f, -e, 2*f*a**2/b**2 - p*f), which zero the tile
    rectangle (e + f*sqrt(p)) x 1 while staying sign-definite on every
    rectangle of ratio a + b*sqrt(p); the quarter discriminant
    (a**2 - p*b**2)(e**2 - f**2*a**2/b**2), checked negative; and the common
    ABC-area sign of ratio-(a + b*sqrt(p)) rectangles, which is the sign of
    f*a - e*b.

    Requires both ratios positive, b nonzero, and the tile ratio outside the
    membership set of the target ratio (otherwise no such parameters exist).
    """
    a, b, e, f, p = _to_rat(a), _to_rat(b), _to_rat(e), _to_rat(f), _to_rat(p)
    field = FieldParam(p)
    if b == 0:
        raise ValueError("separation needs an irrational target ratio (b != 0)")
    r = field.quad(a, b)
    y = field.quad(e, f)
    if r.sign() <= 0:
        raise ValueError("target ratio a + b*sqrt(p) must be positive")
    if y.sign() <= 0:
        raise ValueError("tile ratio e + f*sqrt(p) must be positive")
    if in_membership_set(y, r):
        raise ValueError(
            "tile ratio passes the membership test; no separating parameters exist"
        )
    params = ABCParams(f, -e, 2 * f * a * a / (b * b) - p * f)
    disc4 = (a * a - p * b * b) * (e * e - f * f * a * a / (b * b))
    if disc4 >= 0:
        raise ArithmeticError("separation discriminant must be negative")
    lead = f * a - e * b
    if lead == 0:
        raise ArithmeticError("leading coefficient of the separation form must not vanish")
    return SeparationCertificate(params, disc4, 1 if lead > 0 else -1)
