"""The two dissection invariants at work.

z-areas: record rectangle sides as coordinate vectors over a declared basis;
the formal product (a1 + a2*z)(b1 + b2*z) is additive under dissection, so a
z-dependent total rules out dissections into z-independent pieces.

ABC-areas: a bilinear form on side coordinates that is additive as well; the
separating choice of (A, B, C) zeroes one tile shape while keeping a fixed
sign on all rectangles of a chosen ratio, which is exactly what a negative
tiling verdict needs.
"""

import random
from fractions import Fraction

from quadrect import (
    ABCParams,
    Basis,
    BasisVector,
    FieldParam,
    abc_area_polygon,
    abc_area_rect,
    separation_certificate,
    z_area,
    z_area_additivity_check,
)
from quadrect.samples import random_good_rect, random_guillotine

field = FieldParam(2)
basis = Basis(("e1", "e2"))


def vec(*coords):
    return BasisVector(basis, tuple(field.quad(c) for c in coords))


print("z-area of a rectangle with sides e1 x e2:")
print(f"  {z_area(vec(1, 0), vec(0, 1))}")

print("z-area of the square on (e1 + 5/3*e2):")
print(f"  {z_area(vec(1, '5/3'), vec(1, '5/3'))}")

parent = (vec(2, 0), vec(1, 0))
halves = [(vec(1, 0), vec(1, 0)), (vec(1, 0), vec(1, 0))]
print(f"2x1 split into two unit squares is additive: "
      f"{z_area_additivity_check(parent, halves)}")

# N congruent tiles with sides e2 x (4*e1 + 3/2*e2) always contribute
# N*(4z + 3/2 z^2): no constant parent can absorb the z-dependence.
tile = (vec(0, 1), vec(4, "3/2"))
print("a z-dependent tile sum never balances a constant parent:",
      not z_area_additivity_check((vec(17, 0), vec(1, 0)), [tile] * 3))

print("\nABC-areas. With A=-1, B=1 and any C:")
from quadrect import Point, Rect
params = ABCParams(Fraction(-1), Fraction(1), Fraction(99))
silver_rect = Rect(Point(field.zero, field.zero), field.quad(1, 1), field.one)
conj_rect = Rect(Point(field.zero, field.zero), field.quad(-1, 1), field.one)
print(f"  (1+sqrt2) x 1 has ABC-area {abc_area_rect(silver_rect, params)}")
print(f"  (sqrt2-1) x 1 has ABC-area {abc_area_rect(conj_rect, params)}")

print("\nABC-area is additive over any guillotine dissection:")
rng = random.Random(4)
base = random_good_rect(rng, field)
d = random_guillotine(rng, base, max_depth=5)
total = abc_area_polygon(d, params)  # verifies d first
print(f"  parent {abc_area_rect(base, params)} == tile sum {total} "
      f"over {len(d.tiles)} tiles")

print("\nseparating parameters for tiles of ratio 2+sqrt2 against r=1+sqrt2:")
cert = separation_certificate(1, 1, 2, 1, 2)
sep = cert.params
print(f"  A={sep.A} B={sep.B} C={sep.C}")
print(f"  discriminant/4 = {cert.discriminant_quarter} (< 0), "
      f"sign on ratio-(1+sqrt2) rectangles: {cert.sign}")
tile_rect = Rect(Point(field.zero, field.zero), field.quad(2, 1), field.one)
print(f"  tile rectangle (2+sqrt2) x 1 zeroed: {abc_area_rect(tile_rect, sep)}")
