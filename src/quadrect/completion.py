"""Completing a rectilinear polygon to its bounding rectangle.

Any region with coordinates in the field can be extended, by adjoining
axis-aligned rectangles whose corners all lie on the grid induced by the
region's own vertices, so that the union is exactly the bounding rectangle.
The complement cells are merged row by row into maximal horizontal strips,
which keeps the output deterministic; nothing tries to minimize the number
of added rectangles.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import add
from typing import Sequence

from .geometry import Point, Polygon, Rect, _box_counts, build_cell_grid

__all__ = ["Completion", "complete_to_rectangle", "verify_complement"]


@dataclass(frozen=True)
class Completion:
    bounding: Rect
    added: tuple[Rect, ...]


def complete_to_rectangle(region: Polygon) -> Completion:
    """Bounding rectangle plus the row-merged rectangulation of its complement.

    Hole interiors count as complement: the bounding rectangle must be exactly
    partitioned into the region and the added rectangles.  Every emitted
    coordinate is drawn from the region's own vertex coordinates, and the
    added list is ordered row-major by lower-left corner.
    """
    grid = build_cell_grid(region, ())
    xs, ys = grid.xs, grid.ys
    bounding = Rect(Point(xs[0], ys[0]), xs[-1] - xs[0], ys[-1] - ys[0])
    added: list[Rect] = []
    for j, flags in enumerate(grid.inside):
        y, height = ys[j], ys[j + 1] - ys[j]
        i = 0
        for inside, run in groupby(flags):
            stop = i + sum(1 for _ in run)
            if not inside:
                added.append(Rect(Point(xs[i], y), xs[stop] - xs[i], height))
            i = stop
    return Completion(bounding, tuple(added))


def verify_complement(region: Polygon, bounding: Rect, added: Sequence[Rect]) -> bool:
    """True iff every induced grid cell of the bounding rectangle lies in
    exactly one of the region and the added rectangles (and nothing pokes
    outside the bounding rectangle).

    One signed count: each added rectangle counts +1 and the bounding
    rectangle -1, so the count plus the region's winding number must be
    zero in every cell."""
    grid = build_cell_grid(region, (bounding, *added))
    boxes = [(grid.index_box(r), 1) for r in added]
    boxes.append((grid.index_box(bounding), -1))
    count = _box_counts(boxes, grid.nx, grid.ny)
    return not any(any(map(add, flags, row)) for flags, row in zip(grid.inside, count))
