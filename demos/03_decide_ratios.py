"""The decision procedures, with certificates on the negative side.

A rectangle of ratio y can be cut into rectangles similar to r = a + b*sqrt(p)
exactly when y's coordinates pass a closed-form membership test that depends
on the sign of conj(r) = a - b*sqrt(p).  A polygon presented with a
dissection into equal rectangles reduces to the rectangle carrying their
common ratio, and the square-with-hole region reduces to (u+v)/(u-v).
"""

from quadrect import (
    FieldParam,
    NOT_IN_FIELD,
    decide_polygon,
    decide_rect_ratio,
    decide_square_with_hole,
    pinwheel_dissection,
)

field = FieldParam(2)
silver = field.quad(1, 1)


def show(label, verdict):
    print(f"{label}: {'tileable' if verdict.tileable else 'NOT tileable'}"
          f" [{verdict.case_tag}]")
    if verdict.certificate is not None:
        c = verdict.certificate
        print(f"    certificate: A={c.params.A} B={c.params.B} C={c.params.C}"
              f" discriminant/4={c.discriminant_quarter} sign={c.sign}")


show("y = 1+sqrt2  vs r = 1+sqrt2 ", decide_rect_ratio(silver, silver))
show("y = 2+sqrt2  vs r = 1+sqrt2 ", decide_rect_ratio(field.quad(2, 1), silver))
show("y = 1        vs r = sqrt2   ", decide_rect_ratio(field.one, field.sqrt_p))
show("y = 3/2*sqrt2 vs r = sqrt2  ",
     decide_rect_ratio(field.quad(0, "3/2"), field.sqrt_p))
show("y = 7/3      vs r = 2       ",
     decide_rect_ratio(field.quad("7/3"), field.quad(2)))
show("y outside the field, any r  ", decide_rect_ratio(NOT_IN_FIELD, silver))

# Polygon form: the pinwheel presents the square-with-hole as four equal
# 2 x 1 rectangles, so its deciding ratio is 2.
pin = pinwheel_dissection(field.quad(3), field.quad(1))
show("\nsquare-with-hole (u=3, v=1) vs r = 1+sqrt2",
     decide_polygon(pin, silver))
show("square-with-hole (u=3, v=1) vs r = 3      ",
     decide_polygon(pin, field.quad(3)))

# Direct square-with-hole entry point, including an irrational inner side:
res = decide_square_with_hole(field.one, field.quad(-1, 1), silver)
print(f"\nu = 1, v = sqrt2-1: deciding ratio (u+v)/(u-v) = {res.ratio}")
show("that region vs r = 1+sqrt2  ", res.verdict)
