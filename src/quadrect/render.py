"""SVG rendering of regions and dissections.

This is the single place where sqrt(p) meets decimal digits: coordinates are
approximated only for drawing, at a caller-chosen precision, while the exact
values ride along as data attributes on every shape.  Nothing in the
decision or geometry modules depends on this module.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .exactfield import Quad, format_quad
from .geometry import Dissection

__all__ = ["quad_to_decimal", "render_svg"]


# Most digits quad_to_decimal writes: its work grows with ``digits``, and
# CPython refuses int-to-str beyond 4,300 digits.
MAX_DIGITS = 1000


def quad_to_decimal(x: Quad, digits: int) -> str:
    """Decimal string of a + b*sqrt(p), truncated exactly toward zero after
    ``digits`` digits (trailing zeros dropped)."""
    if digits < 1:
        raise ValueError("need at least one digit")
    if digits > MAX_DIGITS:
        raise ValueError(f"at most {MAX_DIGITS} digits are supported")
    negative = x.sign() < 0
    # floor(|x| * scale) on the key (A + B*sqrt(P))/D of |x|; for B < 0 the
    # root is irrational, so its floor is one below -isqrt
    A, B, D = (-x).key if negative else x.key
    scale = 10**digits
    root = isqrt(B * B * x.field.radicand * scale * scale)
    whole = (A * scale + root if B >= 0 else A * scale - root - 1) // D
    text = str(whole).rjust(digits + 1, "0")
    head, tail = text[:-digits], text[-digits:].rstrip("0")
    # a value that truncates to zero prints without a sign
    sign = "-" if negative and whole else ""
    return f"{sign}{head}.{tail}" if tail else f"{sign}{head}"


def render_svg(dissection: Dissection, precision: int = 30) -> str:
    """Deterministic SVG 1.1 text for a region plus its tiles.

    The y axis is flipped so the drawing matches the mathematical
    orientation; holes are drawn via the even-odd fill rule.  Each shape
    carries its exact coordinates in data attributes.
    """
    region = dissection.region
    xmin, ymin, xmax, ymax = region.bounds()
    for t in dissection.tiles:
        xmin, xmax = min(xmin, t.x), max(xmax, t.x2)
        ymin, ymax = min(ymin, t.y), max(ymax, t.y2)
    width = xmax - xmin
    height = ymax - ymin
    margin = (width if width > height else height) * Fraction(1, 20)

    def sx(v: Quad) -> str:
        return quad_to_decimal(v - xmin + margin, precision)

    def sy(v: Quad) -> str:
        return quad_to_decimal(ymax - v + margin, precision)

    def sd(v: Quad) -> str:
        return quad_to_decimal(v, precision)

    view_w = sd(width + margin * 2)
    view_h = sd(height + margin * 2)
    stroke = sd((width if width > height else height) * Fraction(1, 200))

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="0 0 {view_w} {view_h}">',
    ]
    path_parts = []
    exact_loops = []
    for loop in region.loops:
        cmds = []
        for idx, pt in enumerate(loop):
            cmds.append(f"{'M' if idx == 0 else 'L'} {sx(pt.x)} {sy(pt.y)}")
        cmds.append("Z")
        path_parts.append(" ".join(cmds))
        exact_loops.append(
            ";".join(f"{format_quad(pt.x)},{format_quad(pt.y)}" for pt in loop)
        )
    lines.append(
        f'<path d="{" ".join(path_parts)}" fill="#f2f2f2" fill-rule="evenodd" '
        f'stroke="#333333" stroke-width="{stroke}" '
        f'data-loops="{"|".join(exact_loops)}"/>'
    )
    for t in dissection.tiles:
        lines.append(
            f'<rect x="{sx(t.x)}" y="{sy(t.y2)}" '
            f'width="{sd(t.width)}" height="{sd(t.height)}" '
            f'fill="none" stroke="#0060a8" stroke-width="{stroke}" '
            f'data-x="{format_quad(t.x)}" data-y="{format_quad(t.y)}" '
            f'data-w="{format_quad(t.width)}" data-h="{format_quad(t.height)}"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
