"""Rectilinear polygons, rectangles and dissections over Q[sqrt(p)] coordinates.

All verification runs on the induced coordinate grid: collect every distinct
x and y coordinate appearing in the region and the tiles, and the resulting
cells are the atoms of the check.  Exact arithmetic is needed only to sort
and index those coordinates; after that one row sweep over grid indices
decides which cells lie inside the region, and a 2-D difference array counts
how many tiles cover each cell, both in integer operations.  Every failure
still names a witness cell whose midpoint stays inside the field, so any
independent tool can re-check it with an exact point-in-region test.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from operator import add
from typing import Iterable, Sequence

from .exactfield import FieldParam, Quad

__all__ = [
    "Point",
    "Rect",
    "Polygon",
    "Dissection",
    "CellGrid",
    "VerifyReport",
    "CellIssue",
    "InvalidDissectionError",
    "polygon_area",
    "build_cell_grid",
    "verify_tiling",
    "tiles_equal",
    "rect_ratio",
    "point_in_region_crossing",
    "point_in_region_winding",
    "square_with_hole_polygon",
    "pinwheel_dissection",
]

_HALF = Fraction(1, 2)


class InvalidDissectionError(ValueError):
    """A dissection failed verification where a valid one was required."""


@dataclass(frozen=True)
class Point:
    x: Quad
    y: Quad

    def __post_init__(self) -> None:
        if self.x.field != self.y.field:
            raise ValueError("point coordinates must share one field parameter")

    @property
    def field(self) -> FieldParam:
        return self.x.field

    def translate(self, dx: Quad, dy: Quad) -> Point:
        return Point(self.x + dx, self.y + dy)


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle: lower-left origin plus positive width/height."""

    origin: Point
    width: Quad
    height: Quad

    def __post_init__(self) -> None:
        if self.width.field != self.origin.field or self.height.field != self.origin.field:
            raise ValueError("rectangle coordinates must share one field parameter")
        if self.width.sign() <= 0 or self.height.sign() <= 0:
            raise ValueError("rectangle sides must be positive")

    @property
    def field(self) -> FieldParam:
        return self.origin.field

    @property
    def x(self) -> Quad:
        return self.origin.x

    @property
    def y(self) -> Quad:
        return self.origin.y

    @property
    def x2(self) -> Quad:
        return self.origin.x + self.width

    @property
    def y2(self) -> Quad:
        return self.origin.y + self.height

    @property
    def area(self) -> Quad:
        return self.width * self.height

    def to_polygon(self) -> Polygon:
        o = self.origin
        loop = (
            o,
            Point(self.x2, o.y),
            Point(self.x2, self.y2),
            Point(o.x, self.y2),
        )
        return Polygon((loop,))

    def translate(self, dx: Quad, dy: Quad) -> Rect:
        return Rect(self.origin.translate(dx, dy), self.width, self.height)


@dataclass(frozen=True)
class _Edge:
    vertical: bool
    fixed: Quad        # x for vertical edges, y for horizontal ones
    lo: Quad
    hi: Quad
    start: Point       # directed as the loop walks it
    end: Point


def _loop_area2(loop: Sequence[Point]) -> Quad:
    """Twice the signed shoelace area of one vertex cycle."""
    total = loop[0].field.zero
    n = len(loop)
    for i in range(n):
        p, q = loop[i], loop[(i + 1) % n]
        total = total + (p.x * q.y - q.x * p.y)
    return total


def _loop_edges(loop: Sequence[Point]) -> tuple[_Edge, ...]:
    edges = []
    n = len(loop)
    for i in range(n):
        p, q = loop[i], loop[(i + 1) % n]
        if p.x == q.x:
            lo, hi = (p.y, q.y) if p.y < q.y else (q.y, p.y)
            edges.append(_Edge(True, p.x, lo, hi, p, q))
        else:
            lo, hi = (p.x, q.x) if p.x < q.x else (q.x, p.x)
            edges.append(_Edge(False, p.y, lo, hi, p, q))
    return tuple(edges)


def _edges_touch(e1: _Edge, e2: _Edge) -> bool:
    """Closed-segment intersection test for axis-parallel edges."""
    if e1.vertical == e2.vertical:
        if e1.fixed != e2.fixed:
            return False
        return not (e1.hi < e2.lo or e2.hi < e1.lo)
    h, v = (e2, e1) if e1.vertical else (e1, e2)
    return h.lo <= v.fixed <= h.hi and v.lo <= h.fixed <= v.hi


_IN, _OUT, _ON = 1, 0, -1


def _locate_in_loop(pt: Point, edges: Sequence[_Edge]) -> int:
    """Crossing-number location of a point relative to one closed loop."""
    for e in edges:
        if e.vertical:
            if pt.x == e.fixed and e.lo <= pt.y <= e.hi:
                return _ON
        else:
            if pt.y == e.fixed and e.lo <= pt.x <= e.hi:
                return _ON
    crossings = 0
    for e in edges:
        # Horizontal ray towards +x; the half-open rule at the top endpoint
        # keeps crossings through shared vertices counted exactly once.
        if e.vertical and e.lo <= pt.y < e.hi and e.fixed > pt.x:
            crossings ^= 1
    return _IN if crossings else _OUT


@dataclass(frozen=True)
class Polygon:
    """Rectilinear region given by vertex cycles: one outer loop plus holes.

    Construction validates the full shape contract: axis-parallel edges of
    alternating direction, at least four vertices per loop, exactly one loop
    of positive signed area (the outer boundary) with all other loops of
    negative signed area strictly inside it, and no two loops touching.
    """

    loops: tuple[tuple[Point, ...], ...]

    def __post_init__(self) -> None:
        loops = tuple(tuple(loop) for loop in self.loops)
        object.__setattr__(self, "loops", loops)
        if not loops:
            raise ValueError("polygon needs at least one loop")
        field = loops[0][0].field
        edges_per_loop = []
        areas2 = []
        for loop in loops:
            if len(loop) < 4:
                raise ValueError("degenerate loop (fewer than 4 vertices)")
            horiz = []
            for i in range(len(loop)):
                p, q = loop[i], loop[(i + 1) % len(loop)]
                if p.field != field or q.field != field:
                    raise ValueError("polygon coordinates must share one field parameter")
                dx_zero = (q.x - p.x).is_zero()
                dy_zero = (q.y - p.y).is_zero()
                if dx_zero == dy_zero:
                    raise ValueError("edges must be axis-parallel and of nonzero length")
                horiz.append(dy_zero)
            for i in range(len(horiz)):
                if horiz[i] == horiz[(i + 1) % len(horiz)]:
                    raise ValueError("consecutive edges must alternate direction")
            edges_per_loop.append(_loop_edges(loop))
            areas2.append(_loop_area2(loop))

        signs = [a.sign() for a in areas2]
        if signs.count(1) != 1:
            raise ValueError("exactly one outer loop (positive signed area) required")
        if any(s == 0 for s in signs):
            raise ValueError("degenerate loop with zero area")
        outer = signs.index(1)

        # Loops must be pairwise disjoint, and within a loop only adjacent
        # edges may touch (at their shared vertex).
        for li, edges in enumerate(edges_per_loop):
            n = len(edges)
            for i in range(n):
                for j in range(i + 1, n):
                    if j == i + 1 or (i == 0 and j == n - 1):
                        continue
                    if _edges_touch(edges[i], edges[j]):
                        raise ValueError("loop is self-intersecting")
        for li in range(len(loops)):
            for lj in range(li + 1, len(loops)):
                for e1 in edges_per_loop[li]:
                    for e2 in edges_per_loop[lj]:
                        if _edges_touch(e1, e2):
                            raise ValueError("loops must be pairwise disjoint")
        for li, loop in enumerate(loops):
            if li == outer:
                continue
            if _locate_in_loop(loop[0], edges_per_loop[outer]) != _IN:
                raise ValueError("holes must lie strictly inside the outer loop")
            for lj in range(len(loops)):
                if lj in (li, outer):
                    continue
                if _locate_in_loop(loop[0], edges_per_loop[lj]) == _IN:
                    raise ValueError("holes must not be nested")

        object.__setattr__(self, "_edges", tuple(edges_per_loop))
        object.__setattr__(self, "_areas2", tuple(areas2))
        object.__setattr__(self, "_outer", outer)

    @property
    def field(self) -> FieldParam:
        return self.loops[0][0].field

    @property
    def outer_index(self) -> int:
        return self._outer  # type: ignore[attr-defined]

    def bounds(self) -> tuple[Quad, Quad, Quad, Quad]:
        xs = [p.x for loop in self.loops for p in loop]
        ys = [p.y for loop in self.loops for p in loop]
        return min(xs), min(ys), max(xs), max(ys)

    def translate(self, dx: Quad, dy: Quad) -> Polygon:
        return Polygon(
            tuple(tuple(p.translate(dx, dy) for p in loop) for loop in self.loops)
        )


@dataclass(frozen=True)
class Dissection:
    """A region together with a claimed tiling; validity is established by
    ``verify_tiling``, never assumed."""

    region: Polygon
    tiles: tuple[Rect, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tiles", tuple(self.tiles))


def polygon_area(region: Polygon) -> Quad:
    """Exact area: shoelace sums with orientation signs, holes subtracting."""
    total = region.field.zero
    for a2 in region._areas2:  # type: ignore[attr-defined]
        total = total + a2
    return total * _HALF


def point_in_region_crossing(region: Polygon, pt: Point) -> bool:
    """Strict interior test by per-loop crossing parity.

    Raises if the point lies on any loop boundary; callers that probe cell
    midpoints never hit that case because midpoints avoid all grid lines.
    """
    inside_outer = False
    for li, edges in enumerate(region._edges):  # type: ignore[attr-defined]
        loc = _locate_in_loop(pt, edges)
        if loc == _ON:
            raise ValueError("point lies on the region boundary")
        if li == region.outer_index:
            inside_outer = loc == _IN
        elif loc == _IN:
            return False
    return inside_outer


def point_in_region_winding(region: Polygon, pt: Point) -> bool:
    """Strict interior test by total winding number.

    Independent of the crossing-parity implementation: it accumulates signed
    crossings of directed vertical edges over all loops at once (outer loops
    wind positively, holes negatively), and the point is interior iff the
    total is nonzero.
    """
    wn = 0
    for edges in region._edges:  # type: ignore[attr-defined]
        for e in edges:
            if not e.vertical:
                if pt.y == e.fixed and e.lo <= pt.x <= e.hi:
                    raise ValueError("point lies on the region boundary")
                continue
            if pt.x == e.fixed and e.lo <= pt.y <= e.hi:
                raise ValueError("point lies on the region boundary")
            if e.start.y < e.end.y:
                if e.start.y <= pt.y < e.end.y and e.fixed > pt.x:
                    wn += 1
            else:
                if e.end.y <= pt.y < e.start.y and e.fixed > pt.x:
                    wn -= 1
    return wn != 0


@dataclass(frozen=True)
class CellGrid:
    """The coordinate grid induced by a region and a tile set.

    ``inside[j][i]`` tells whether cell (i, j), spanning ``xs[i]..xs[i+1]``
    by ``ys[j]..ys[j+1]``, lies in the region interior.
    """

    xs: tuple[Quad, ...]
    ys: tuple[Quad, ...]
    inside: tuple[tuple[bool, ...], ...]

    @property
    def nx(self) -> int:
        return len(self.xs) - 1

    @property
    def ny(self) -> int:
        return len(self.ys) - 1

    @property
    def cell_count(self) -> int:
        return self.nx * self.ny

    @property
    def inside_count(self) -> int:
        return sum(sum(row) for row in self.inside)

    def midpoint(self, i: int, j: int) -> Point:
        return Point(
            (self.xs[i] + self.xs[i + 1]) * _HALF,
            (self.ys[j] + self.ys[j + 1]) * _HALF,
        )

    def cell_rect(self, i: int, j: int) -> Rect:
        return Rect(
            Point(self.xs[i], self.ys[j]),
            self.xs[i + 1] - self.xs[i],
            self.ys[j + 1] - self.ys[j],
        )

    @cached_property
    def _index(self) -> tuple[dict[Quad, int], dict[Quad, int]]:
        return (
            {x: i for i, x in enumerate(self.xs)},
            {y: j for j, y in enumerate(self.ys)},
        )

    def index_box(self, rect: Rect) -> tuple[int, int, int, int]:
        """Cell index range ``(i0, i1, j0, j1)`` of a rectangle whose corners
        lie on the grid: it covers cells ``i0 <= i < i1``, ``j0 <= j < j1``."""
        xi, yi = self._index
        return xi[rect.x], xi[rect.x2], yi[rect.y], yi[rect.y2]

    def count_cover(self, rects: Iterable[Rect]) -> tuple[tuple[int, ...], ...]:
        """Number of the given grid-aligned rectangles covering each cell."""
        return _box_counts(map(self.index_box, rects), self.nx, self.ny)


def _box_counts(
    boxes: Iterable[tuple[int, int, int, int]], nx: int, ny: int
) -> tuple[tuple[int, ...], ...]:
    """For each cell, how many index boxes ``[i0, i1) x [j0, j1)`` contain it.

    A 2-D difference array: four integer updates per box, then running sums
    along each row and down the columns, O(boxes + nx*ny) in all.
    """
    diff = [[0] * (nx + 1) for _ in range(ny + 1)]
    for i0, i1, j0, j1 in boxes:
        diff[j0][i0] += 1
        diff[j0][i1] -= 1
        diff[j1][i0] -= 1
        diff[j1][i1] += 1
    counts = []
    below = (0,) * nx
    for j in range(ny):
        below = tuple(map(add, below, accumulate(diff[j][:nx])))
        counts.append(below)
    return tuple(counts)


def build_cell_grid(region: Polygon, tiles: Sequence[Rect]) -> CellGrid:
    """Sorted coordinate lists plus exact inside flags per induced cell.

    The flags come from a row sweep that applies the crossing rule of
    ``point_in_region_crossing`` to every cell midpoint at once.  A vertical
    edge at grid column ``k`` spanning rows ``lo <= j < hi`` crosses the +x
    ray from a midpoint in row ``j`` exactly when the cell lies left of the
    edge (``i < k``), and the half-open row range is the ray's half-open rule
    at the edge's endpoints.  So each edge contributes the index box
    ``[0, k) x [lo, hi)``, and a cell is inside iff an odd number of boxes
    cover it.  Parity over all loops at once equals the per-loop test
    because holes are disjoint, not nested, and strictly inside the outer
    loop.
    """
    xs = {p.x for loop in region.loops for p in loop}
    ys = {p.y for loop in region.loops for p in loop}
    for t in tiles:
        if t.field != region.field:
            raise ValueError("tiles and region must share one field parameter")
        xs.update((t.x, t.x2))
        ys.update((t.y, t.y2))
    sx = tuple(sorted(xs))
    sy = tuple(sorted(ys))
    xi = {x: i for i, x in enumerate(sx)}
    yi = {y: j for j, y in enumerate(sy)}
    spans = (
        (0, xi[e.fixed], yi[e.lo], yi[e.hi])
        for edges in region._edges  # type: ignore[attr-defined]
        for e in edges
        if e.vertical
    )
    crossings = _box_counts(spans, len(sx) - 1, len(sy) - 1)
    inside = tuple(tuple(c & 1 == 1 for c in row) for row in crossings)
    return CellGrid(sx, sy, inside)


@dataclass(frozen=True)
class CellIssue:
    kind: str          # "gap" | "overlap" | "protrusion"
    i: int
    j: int
    midpoint: Point
    cover: int


@dataclass(frozen=True)
class VerifyReport:
    valid: bool
    grid: CellGrid
    cover: tuple[tuple[int, ...], ...]
    issues: tuple[CellIssue, ...]


def verify_tiling(dissection: Dissection) -> VerifyReport:
    """Check a claimed tiling cell by cell.

    Valid means: every interior cell is covered by exactly one tile and every
    exterior cell by none.  Failures are reported, never raised, each with a
    witness cell.  On success the tile areas must additionally sum to the
    exact region area; a mismatch is an internal fault and raises
    ``ArithmeticError``.
    """
    region, tiles = dissection.region, dissection.tiles
    grid = build_cell_grid(region, tiles)
    cover = grid.count_cover(tiles)
    issues = []
    for j, (flags, counts) in enumerate(zip(grid.inside, cover)):
        for i, (inside, c) in enumerate(zip(flags, counts)):
            if inside:
                if c == 1:
                    continue
                kind = "gap" if c == 0 else "overlap"
            elif c == 0:
                continue
            else:
                kind = "protrusion"
            issues.append(CellIssue(kind, i, j, grid.midpoint(i, j), c))
    valid = not issues
    if valid:
        total = region.field.zero
        for t in tiles:
            total = total + t.area
        if total != polygon_area(region):
            raise ArithmeticError("tile areas do not sum to the region area")
    return VerifyReport(valid, grid, cover, tuple(issues))


def tiles_equal(dissection: Dissection) -> tuple[Quad, Quad] | None:
    """Common (width, height) with width >= height if all tiles are congruent
    up to 90-degree rotation, else None.  Expects a verified dissection."""
    if not dissection.tiles:
        raise ValueError("dissection has no tiles")

    def norm_dims(t: Rect) -> tuple[Quad, Quad]:
        return (t.width, t.height) if t.width >= t.height else (t.height, t.width)

    first = norm_dims(dissection.tiles[0])
    for t in dissection.tiles[1:]:
        if norm_dims(t) != first:
            return None
    return first


def rect_ratio(rect: Rect, normalize: bool = False) -> Quad:
    """width/height; with ``normalize`` the longer side goes on top, so the
    result is the orientation-free similarity ratio (always >= 1)."""
    w, h = rect.width, rect.height
    if normalize and h > w:
        w, h = h, w
    return w / h


def square_with_hole_polygon(u: Quad, v: Quad) -> Polygon:
    """Region between concentric homothetic squares with sides u > v > 0."""
    field = u.field
    if v.field != field:
        raise ValueError("u and v must share one field parameter")
    if v.sign() <= 0 or (u - v).sign() <= 0:
        raise ValueError("need u > v > 0")
    z = field.zero
    t = (u - v) * _HALF
    s = t + v
    outer = (Point(z, z), Point(u, z), Point(u, u), Point(z, u))
    hole = (Point(t, t), Point(t, s), Point(s, s), Point(s, t))
    return Polygon((outer, hole))


def pinwheel_dissection(u: Quad, v: Quad) -> Dissection:
    """The square-with-hole region cut into 4 equal (u+v)/2 x (u-v)/2 tiles."""
    region = square_with_hole_polygon(u, v)
    field = u.field
    z = field.zero
    s = (u + v) * _HALF
    t = (u - v) * _HALF
    tiles = (
        Rect(Point(z, z), s, t),
        Rect(Point(s, z), t, s),
        Rect(Point(t, s), s, t),
        Rect(Point(z, t), t, s),
    )
    return Dissection(region, tiles)

