"""Tour of exact arithmetic in Q[sqrt(p)].

Every quantity in this package is an element a + b*sqrt(p) with rational
a and b, stored exactly as integers; comparisons reduce to integer
arithmetic, so there is no epsilon anywhere.
"""

from fractions import Fraction

from quadrect import FieldParam, format_quad, parse_quad

field = FieldParam(2)
print(f"working in {field}")

r = field.quad(1, 1)          # 1 + sqrt2, the "silver ratio"
print(f"r        = {r}")
print(f"conj(r)  = {r.conj()}")
print(f"1/r      = {field.one / r}")
print(f"r * (1/r) = {r * (field.one / r)}")
print(f"norm(r)  = r*conj(r) = {r.norm()}")

# Signs are decided exactly even when the components disagree:
tricky = field.quad(3, -2)    # 3 - 2*sqrt2 = 0.1715...
print(f"sign(3 - 2*sqrt2) = {tricky.sign()}  (9 > 2*4, so positive)")
barely = field.quad(-7, 5)    # 5*sqrt2 - 7 = 0.0710...
print(f"sign(-7 + 5*sqrt2) = {barely.sign()}  (2*25 > 49, so positive)")

# The string grammar round-trips:
text = "1/2 + 3*sqrt"
x = parse_quad(text, field)
print(f"parse({text!r}) = {x!r}")
print(f"format(...)    = {format_quad(x)!r}")

# Field parameters reject rational squares, so sqrt(p) is never rational:
for p in (2, 3, Fraction(5, 2), 4, Fraction(9, 4), 1):
    try:
        FieldParam(p)
        print(f"p = {p}: accepted")
    except ValueError as exc:
        print(f"p = {p}: rejected ({exc})")
