"""Rectilinear polygons, rectangles and dissections over Q[sqrt(p)] coordinates.

A ``Polygon`` sorts its distinct x and y once and keeps each vertex as a
grid node (i, j), so its contact and hole checks run on integers only.
Verification merges the tile coordinates into that grid; one row sweep over
grid indices decides which cells lie inside the region, and a 2-D difference
array counts how many tiles cover each cell.  Exact arithmetic is needed only
to sort and index coordinates and for areas.  Every failure names a witness
cell whose midpoint stays inside the field, so any independent tool can
re-check it with an exact point-in-region test on the loops' points.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from operator import add
from typing import Iterable, Iterator, Sequence, TypeVar

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
    "require_valid_tiling",
    "tiles_equal",
    "rect_ratio",
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
        if self.x.field is not self.y.field and self.x.field != self.y.field:
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
        field = self.origin.field
        for side in (self.width, self.height):
            if side.field is not field and side.field != field:
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

    # Cached in the instance dict, outside the dataclass fields, so equality
    # and hashing still see only origin, width and height.
    @cached_property
    def x2(self) -> Quad:
        return self.origin.x + self.width

    @cached_property
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


_T = TypeVar("_T")
Node = tuple[int, int]


def _cycle_pairs(loop: Sequence[_T]) -> Iterator[tuple[_T, _T]]:
    """Each edge of a vertex cycle as (start, end)."""
    return zip(loop, (*loop[1:], loop[0]))


def _loop_area2(loop: Sequence[Point]) -> Quad:
    """Twice the signed shoelace area of one vertex cycle."""
    total = loop[0].field.zero
    for p, q in _cycle_pairs(loop):
        total = total + (p.x * q.y - q.x * p.y)
    return total


def _vertical_spans(loop: Sequence[Node]) -> Iterator[tuple[int, int, int]]:
    """``(column, lo, hi)`` of each vertical edge of an index loop."""
    for (i, j), (k, l) in _cycle_pairs(loop):
        if i == k:
            yield (i, j, l) if j < l else (i, l, j)


def _inside_loop(node: Node, loop: Sequence[Node]) -> bool:
    """Crossing parity of the +x ray from a node not on the loop.  The
    half-open row range counts a crossing through a shared vertex once."""
    i, j = node
    return sum(k > i and lo <= j < hi for k, lo, hi in _vertical_spans(loop)) % 2 == 1


def _boundary_nodes(loop: Sequence[Node], height: int) -> set[int]:
    """Every grid node on a loop's boundary, numbered ``i*height + j``: each
    edge walked from its start vertex up to, but not including, its end.
    Non-adjacent edges touch iff some node is reached twice."""
    nodes: list[int] = []
    for (i, j), (k, l) in _cycle_pairs(loop):
        a, b = i * height + j, k * height + l
        step = 1 if i == k else height
        nodes.extend(range(a, b, step if b > a else -step))
    found = set(nodes)
    if len(found) != len(nodes):
        raise ValueError("loop is self-intersecting")
    return found


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
        field = loops[0][0].field if loops[0] else None
        areas2 = []
        for loop in loops:
            if len(loop) < 4:
                raise ValueError("degenerate loop (fewer than 4 vertices)")
            horiz = []
            for p, q in _cycle_pairs(loop):
                # Every vertex starts exactly one edge, so checking p covers all.
                if p.field is not field and p.field != field:
                    raise ValueError("polygon coordinates must share one field parameter")
                # Keys are canonical, so equal keys mean equal coordinates.
                dx_zero = q.x.key == p.x.key
                dy_zero = q.y.key == p.y.key
                if dx_zero == dy_zero:
                    raise ValueError("edges must be axis-parallel and of nonzero length")
                horiz.append(dy_zero)
            if any(h == g for h, g in _cycle_pairs(horiz)):
                raise ValueError("consecutive edges must alternate direction")
            areas2.append(_loop_area2(loop))

        signs = [a.sign() for a in areas2]
        if signs.count(1) != 1:
            raise ValueError("exactly one outer loop (positive signed area) required")
        if any(s == 0 for s in signs):
            raise ValueError("degenerate loop with zero area")
        outer = signs.index(1)

        # From here on every vertex is a node (i, j) of the coordinate grid.
        xs = tuple(sorted({p.x for loop in loops for p in loop}))
        ys = tuple(sorted({p.y for loop in loops for p in loop}))
        xi = {x: i for i, x in enumerate(xs)}
        yi = {y: j for j, y in enumerate(ys)}
        index_loops = tuple(tuple((xi[p.x], yi[p.y]) for p in loop) for loop in loops)

        # Two axis-parallel closed edges between grid nodes touch iff they
        # share a grid node, so no boundary node may repeat, within a loop
        # or across loops.
        node_sets = [_boundary_nodes(loop, len(ys)) for loop in index_loops]
        seen: set[int] = set()
        for nodes in node_sets:
            if not seen.isdisjoint(nodes):
                raise ValueError("loops must be pairwise disjoint")
            seen |= nodes
        for li, loop in enumerate(index_loops):
            if li == outer:
                continue
            if not _inside_loop(loop[0], index_loops[outer]):
                raise ValueError("holes must lie strictly inside the outer loop")
            for lj, other in enumerate(index_loops):
                if lj not in (li, outer) and _inside_loop(loop[0], other):
                    raise ValueError("holes must not be nested")

        object.__setattr__(self, "_areas2", tuple(areas2))
        object.__setattr__(self, "_outer", outer)
        object.__setattr__(self, "_xs", xs)
        object.__setattr__(self, "_ys", ys)
        object.__setattr__(self, "_index_loops", index_loops)

    @property
    def field(self) -> FieldParam:
        return self.loops[0][0].field

    @property
    def outer_index(self) -> int:
        return self._outer  # type: ignore[attr-defined]

    def bounds(self) -> tuple[Quad, Quad, Quad, Quad]:
        xs, ys = self._xs, self._ys  # type: ignore[attr-defined]
        return xs[0], ys[0], xs[-1], ys[-1]

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


@dataclass(frozen=True)
class CellGrid:
    """The coordinate grid induced by a region and a tile set.

    ``inside[j][i]`` tells whether cell (i, j), spanning ``xs[i]..xs[i+1]``
    by ``ys[j]..ys[j+1]``, lies in the region interior.  ``x_index`` and
    ``y_index`` map each coordinate to its position in ``xs`` and ``ys``.
    """

    xs: tuple[Quad, ...]
    ys: tuple[Quad, ...]
    inside: tuple[tuple[bool, ...], ...]
    x_index: dict[Quad, int] = dataclasses.field(compare=False, repr=False)
    y_index: dict[Quad, int] = dataclasses.field(compare=False, repr=False)

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

    def index_box(self, rect: Rect) -> tuple[int, int, int, int]:
        """Cell index range ``(i0, i1, j0, j1)`` of a rectangle whose corners
        lie on the grid: it covers cells ``i0 <= i < i1``, ``j0 <= j < j1``."""
        xi, yi = self.x_index, self.y_index
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


def _merge_axis(
    base: tuple[Quad, ...], extra: set[Quad]
) -> tuple[tuple[Quad, ...], dict[Quad, int], list[int]]:
    """The sorted union of a sorted axis and extra coordinates, its
    ``{coordinate: index}`` map, and the new index of each old one."""
    extra = extra.difference(base)
    merged = tuple(sorted((*base, *extra))) if extra else base
    index = {x: i for i, x in enumerate(merged)}
    return merged, index, [index[x] for x in base]


def build_cell_grid(region: Polygon, tiles: Sequence[Rect]) -> CellGrid:
    """Sorted coordinate lists plus exact inside flags per induced cell.

    The flags come from a row sweep that applies the crossing-parity rule
    for a +x ray to every cell midpoint at once.  A vertical edge at grid
    column ``k`` spanning rows ``lo <= j < hi`` crosses the +x ray from a
    midpoint in row ``j`` exactly when the cell lies left of the edge
    (``i < k``), and the half-open row range is the ray's half-open rule
    at the edge's endpoints.  So each edge contributes the index box
    ``[0, k) x [lo, hi)``, and a cell is inside iff an odd number of boxes
    cover it.  Parity over all loops at once equals the per-loop test
    because holes are disjoint, not nested, and strictly inside the outer
    loop.  The region's sorted axes and index loops are reused.
    """
    field = region.field
    if any(t.field is not field and t.field != field for t in tiles):
        raise ValueError("tiles and region must share one field parameter")
    xs = {x for t in tiles for x in (t.x, t.x2)}
    ys = {y for t in tiles for y in (t.y, t.y2)}
    sx, xi, xmap = _merge_axis(region._xs, xs)  # type: ignore[attr-defined]
    sy, yi, ymap = _merge_axis(region._ys, ys)  # type: ignore[attr-defined]
    spans = (
        (0, xmap[k], ymap[lo], ymap[hi])
        for loop in region._index_loops  # type: ignore[attr-defined]
        for k, lo, hi in _vertical_spans(loop)
    )
    crossings = _box_counts(spans, len(sx) - 1, len(sy) - 1)
    inside = tuple(tuple(c & 1 == 1 for c in row) for row in crossings)
    return CellGrid(sx, sy, inside, xi, yi)


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
        if counts == flags:  # True == 1, False == 0: the row is clean
            continue
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


def require_valid_tiling(dissection: Dissection) -> None:
    """Raise ``InvalidDissectionError`` unless the dissection passes
    ``verify_tiling``; the message names the first issue."""
    report = verify_tiling(dissection)
    if not report.valid:
        first = report.issues[0]
        raise InvalidDissectionError(
            f"dissection failed verification ({first.kind} at cell ({first.i}, {first.j}))"
        )


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


def rect_ratio(rect: Rect) -> Quad:
    """width/height of ``rect``."""
    return rect.width / rect.height


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

