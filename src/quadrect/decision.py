"""Decision procedures for tiling by similar rectangles.

A polygon that is presented together with a dissection into equal rectangles
of side ratio y can be tiled by rectangles similar to r = a + b*sqrt(p)
exactly when the single y-ratio rectangle can, and that rectangle case is a
closed-form membership test on the coordinates of y:

* conj(r) = a - b*sqrt(p) > 0 (so a > 0): tileable iff y = e + f*sqrt(p)
  with e > 0 and |f|*a <= |b|*e;
* conj(r) < 0 (so b > 0): tileable iff f > 0 and |e|*b <= |a|*f.

Comparisons are cross-multiplied so a = 0 and b = 0 need no special cases.
Ratios known to lie outside the field are expressed with the NOT_IN_FIELD
marker and are never tileable.  Negative verdicts with b != 0 carry a
separation certificate that the test suite re-verifies independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactfield import Quad
from .geometry import Dissection, pinwheel_dissection, require_valid_tiling, tiles_equal
from .invariants import SeparationCertificate, in_membership_set, separation_certificate

__all__ = [
    "NotInField",
    "NOT_IN_FIELD",
    "Verdict",
    "UnequalTilesError",
    "CASE_CONJUGATE_POSITIVE",
    "CASE_CONJUGATE_NEGATIVE",
    "decide_rect_ratio",
    "decide_polygon",
    "decide_square_with_hole",
    "SquareWithHoleDecision",
]

CASE_CONJUGATE_POSITIVE = "conjugate_positive"
CASE_CONJUGATE_NEGATIVE = "conjugate_negative"


class UnequalTilesError(ValueError):
    """The supplied dissection is not into congruent rectangles."""


class NotInField:
    """Marker for a ratio the caller knows to lie outside Q[sqrt(p)].

    Such ratios cannot be represented by coordinates, so callers must supply
    the classification themselves; the verdict is always negative.
    """

    _instance: NotInField | None = None

    def __new__(cls) -> NotInField:
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NOT_IN_FIELD"


NOT_IN_FIELD = NotInField()


@dataclass(frozen=True)
class Verdict:
    """Decision outcome with machine-checkable evidence.

    ``witness_params`` holds the coordinates (e, f) of the polygon's ratio
    when it lies in the field.  A negative verdict for an in-field ratio and
    irrational target ratio always carries a certificate.
    """

    tileable: bool
    case_tag: str
    witness_params: tuple[Fraction, Fraction] | None
    certificate: SeparationCertificate | None


def decide_rect_ratio(y: Quad | NotInField, r: Quad) -> Verdict:
    """Can a rectangle of side ratio y be cut into rectangles similar to r?"""
    if r.sign() <= 0:
        raise ValueError("target ratio must be positive")
    conj_sign = r.conj().sign()
    case_tag = CASE_CONJUGATE_POSITIVE if conj_sign > 0 else CASE_CONJUGATE_NEGATIVE
    if isinstance(y, NotInField):
        return Verdict(False, case_tag, None, None)
    if y.field != r.field:
        raise ValueError("ratio and target must share one field parameter")
    if y.sign() <= 0:
        raise ValueError("rectangle ratio must be positive")
    member = in_membership_set(y, r)
    e, f = y.a, y.b
    certificate = None
    if not member and not r.is_rational():
        certificate = separation_certificate(r.a, r.b, e, f, r.field.p)
    return Verdict(member, case_tag, (e, f), certificate)


def decide_polygon(dissection: Dissection, r: Quad) -> Verdict:
    """Reduce the polygon case to the rectangle case.

    The polygon is ``dissection.region``, presented with its dissection into
    equal rectangles; their common ratio y then decides the question.
    Polygons without such a dissection are outside this procedure's reach,
    so an invalid or unequal dissection raises instead of guessing.
    """
    require_valid_tiling(dissection)
    dims = tiles_equal(dissection)
    if dims is None:
        raise UnequalTilesError("dissection tiles are not all congruent")
    w, h = dims
    return decide_rect_ratio(w / h, r)


@dataclass(frozen=True)
class SquareWithHoleDecision:
    verdict: Verdict
    ratio: Quad                 # (u + v) / (u - v)
    pinwheel: Dissection        # audit dissection into 4 equal rectangles


def decide_square_with_hole(u: Quad, v: Quad, r: Quad) -> SquareWithHoleDecision:
    """Decide the region between concentric homothetic squares of sides u > v.

    The region always splits into 4 equal (u+v)/2 x (u-v)/2 rectangles (the
    returned pinwheel), so the question reduces to the ratio (u+v)/(u-v).
    """
    pinwheel = pinwheel_dissection(u, v)
    t = (u + v) / (u - v)
    return SquareWithHoleDecision(decide_rect_ratio(t, r), t, pinwheel)
