"""Shapes moved by a field vector, for tests that shift a tiling or region."""

from quadrect import Point, Polygon, Rect


def translate(shape, dx, dy):
    """``shape``, a ``Point``, ``Rect`` or ``Polygon``, moved by (dx, dy)."""
    if isinstance(shape, Point):
        return Point(shape.x + dx, shape.y + dy)
    if isinstance(shape, Rect):
        return Rect(translate(shape.origin, dx, dy), shape.width, shape.height)
    return Polygon(tuple(tuple(translate(p, dx, dy) for p in loop) for loop in shape.loops))
