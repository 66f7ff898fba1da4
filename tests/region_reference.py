"""Exact point-in-region tests on a polygon's loop points, for reference.

``build_cell_grid`` decides every cell at once by a row sweep over grid
indices; these two tests decide one point at a time from the loops' exact
coordinates and share no code with the sweep, so the tests check
``grid.inside`` against them.  A cell midpoint never lies on a grid line, so
it never hits the boundary case, which raises.
"""

from quadrect import Point, Polygon


def _cycle_pairs(loop):
    return zip(loop, (*loop[1:], loop[0]))


def _on_edge(pt: Point, p: Point, q: Point) -> bool:
    """Whether pt lies on the closed axis-parallel segment pq."""
    return (
        min(p.x, q.x) <= pt.x <= max(p.x, q.x)
        and min(p.y, q.y) <= pt.y <= max(p.y, q.y)
    )


def point_in_region_crossing(region: Polygon, pt: Point) -> bool:
    """Strict interior test by per-loop crossing parity."""
    inside_outer = False
    for li, loop in enumerate(region.loops):
        if any(_on_edge(pt, p, q) for p, q in _cycle_pairs(loop)):
            raise ValueError("point lies on the region boundary")
        crossings = 0
        for p, q in _cycle_pairs(loop):
            # Horizontal ray towards +x; the half-open rule at the top
            # endpoint counts crossings through shared vertices once.
            if p.x == q.x and p.x > pt.x and min(p.y, q.y) <= pt.y < max(p.y, q.y):
                crossings ^= 1
        if li == region.outer_index:
            inside_outer = crossings == 1
        elif crossings:
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
    for loop in region.loops:
        for p, q in _cycle_pairs(loop):
            if _on_edge(pt, p, q):
                raise ValueError("point lies on the region boundary")
            if p.x != q.x or pt.x >= p.x:
                continue
            if p.y <= pt.y < q.y:
                wn += 1
            elif q.y <= pt.y < p.y:
                wn -= 1
    return wn != 0
