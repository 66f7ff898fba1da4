"""Polygon validation on grid indices against the exact edge-pair code it
replaced.

``ref_validate`` below is the earlier ``Polygon`` check: every pair of edges
compared for contact with exact field arithmetic, and holes placed by a
crossing count over exact edge records.  The index-space validator must
accept the same loops and reject the rest with the same message, on
``samples`` polygons, staircases of 3-40 steps, hand-made invalid shapes and
seeded random alternating loops.  (The reference cannot read an empty first
loop, so that input is left out.)
"""

import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from quadrect import FieldParam, Point, Polygon, Quad, square_with_hole_polygon
from quadrect.samples import (
    l_shape,
    point_of,
    random_rectilinear_polygon,
    rect_of,
    similar_pair_hexagon,
)
from test_sweep import staircase

F2 = FieldParam(2)


# --- reference: the exact edge-pair validator -----------------------------

@dataclass(frozen=True)
class _Edge:
    vertical: bool
    fixed: Quad
    lo: Quad
    hi: Quad


def _loop_edges(loop):
    edges = []
    for i in range(len(loop)):
        p, q = loop[i], loop[(i + 1) % len(loop)]
        if p.x == q.x:
            edges.append(_Edge(True, p.x, min(p.y, q.y), max(p.y, q.y)))
        else:
            edges.append(_Edge(False, p.y, min(p.x, q.x), max(p.x, q.x)))
    return edges


def _edges_touch(e1, e2):
    """Closed-segment intersection test for axis-parallel edges."""
    if e1.vertical == e2.vertical:
        if e1.fixed != e2.fixed:
            return False
        return not (e1.hi < e2.lo or e2.hi < e1.lo)
    h, v = (e2, e1) if e1.vertical else (e1, e2)
    return h.lo <= v.fixed <= h.hi and v.lo <= h.fixed <= v.hi


_IN, _OUT, _ON = 1, 0, -1


def _locate_in_loop(pt, edges):
    for e in edges:
        if e.vertical:
            if pt.x == e.fixed and e.lo <= pt.y <= e.hi:
                return _ON
        elif pt.y == e.fixed and e.lo <= pt.x <= e.hi:
            return _ON
    crossings = 0
    for e in edges:
        if e.vertical and e.lo <= pt.y < e.hi and e.fixed > pt.x:
            crossings ^= 1
    return _IN if crossings else _OUT


def ref_validate(loops):
    """The message the earlier validator raised for these loops, or None."""
    loops = tuple(tuple(loop) for loop in loops)
    if not loops:
        return "polygon needs at least one loop"
    field = loops[0][0].field
    edges_per_loop = []
    areas2 = []
    for loop in loops:
        if len(loop) < 4:
            return "degenerate loop (fewer than 4 vertices)"
        horiz = []
        for i in range(len(loop)):
            p, q = loop[i], loop[(i + 1) % len(loop)]
            if p.field != field or q.field != field:
                return "polygon coordinates must share one field parameter"
            dx_zero = (q.x - p.x).is_zero()
            dy_zero = (q.y - p.y).is_zero()
            if dx_zero == dy_zero:
                return "edges must be axis-parallel and of nonzero length"
            horiz.append(dy_zero)
        for i in range(len(horiz)):
            if horiz[i] == horiz[(i + 1) % len(horiz)]:
                return "consecutive edges must alternate direction"
        edges_per_loop.append(_loop_edges(loop))
        total = field.zero
        for i in range(len(loop)):
            p, q = loop[i], loop[(i + 1) % len(loop)]
            total = total + (p.x * q.y - q.x * p.y)
        areas2.append(total)
    signs = [a.sign() for a in areas2]
    if signs.count(1) != 1:
        return "exactly one outer loop (positive signed area) required"
    if any(s == 0 for s in signs):
        return "degenerate loop with zero area"
    outer = signs.index(1)
    for edges in edges_per_loop:
        n = len(edges)
        for i in range(n):
            for j in range(i + 1, n):
                if j == i + 1 or (i == 0 and j == n - 1):
                    continue
                if _edges_touch(edges[i], edges[j]):
                    return "loop is self-intersecting"
    for li in range(len(loops)):
        for lj in range(li + 1, len(loops)):
            for e1 in edges_per_loop[li]:
                for e2 in edges_per_loop[lj]:
                    if _edges_touch(e1, e2):
                        return "loops must be pairwise disjoint"
    for li, loop in enumerate(loops):
        if li == outer:
            continue
        if _locate_in_loop(loop[0], edges_per_loop[outer]) != _IN:
            return "holes must lie strictly inside the outer loop"
        for lj in range(len(loops)):
            if lj not in (li, outer) and _locate_in_loop(loop[0], edges_per_loop[lj]) == _IN:
                return "holes must not be nested"
    return None


# --- comparison -------------------------------------------------------------

def validate(loops):
    try:
        region = Polygon(loops)
    except ValueError as exc:
        return str(exc)
    xs = [p.x for loop in region.loops for p in loop]
    ys = [p.y for loop in region.loops for p in loop]
    assert region.bounds() == (min(xs), min(ys), max(xs), max(ys))
    return None


def assert_same_verdict(loops):
    expected = ref_validate(loops)
    assert validate(loops) == expected
    return expected


def loop_of(coords, field=F2):
    return tuple(point_of(field, x, y) for x, y in coords)


def square(x, y, side, hole=False):
    loop = rect_of(F2, x, y, side, side).to_polygon().loops[0]
    return tuple(reversed(loop)) if hole else loop


OUTER = square(0, 0, 6)

HAND_MADE = {
    "touching_edge": ([loop_of([(0, 0), (4, 0), (4, 3), (3, 3), (3, 1), (1, 1),
                                (1, 2), (3, 2), (3, 3), (0, 3)])],
                      "loop is self-intersecting"),
    "collinear_overlap": ([loop_of([(0, 0), (3, 0), (3, 2), (1, 2), (1, 1), (2, 1),
                                    (2, 2), (0, 2)])],
                          "loop is self-intersecting"),
    "crossing": ([loop_of([(0, 0), (3, 0), (3, 2), (1, 2), (1, 1), (4, 1), (4, 3),
                           (0, 3)])],
                 "loop is self-intersecting"),
    "pinch_vertex": ([loop_of([(0, 0), (2, 0), (2, 2), (4, 2), (4, 4), (2, 4), (2, 2),
                               (0, 2)])],
                     "loop is self-intersecting"),
    "hole_touches_outer": ([OUTER, square(0, 2, 2, hole=True)],
                           "loops must be pairwise disjoint"),
    "touching_holes": ([OUTER, square(1, 1, 2, hole=True), square(3, 1, 2, hole=True)],
                       "loops must be pairwise disjoint"),
    "corner_touching_holes": ([OUTER, square(1, 1, 2, hole=True),
                               square(3, 3, 2, hole=True)],
                              "loops must be pairwise disjoint"),
    "nested_hole": ([OUTER, square(1, 1, 4, hole=True), square(2, 2, 1, hole=True)],
                    "holes must not be nested"),
    "nested_hole_outer_last": ([square(2, 2, 1, hole=True), square(1, 1, 4, hole=True),
                                OUTER],
                               "holes must not be nested"),
    "hole_outside": ([square(0, 0, 1), square(5, 5, 1, hole=True)],
                     "holes must lie strictly inside the outer loop"),
    "hole_around_outer": ([square(2, 2, 1), square(0, 0, 6, hole=True)],
                          "holes must lie strictly inside the outer loop"),
    "two_outer_loops": ([square(0, 0, 1), square(5, 0, 1)],
                        "exactly one outer loop (positive signed area) required"),
    "clockwise_only": ([square(0, 0, 1, hole=True)],
                       "exactly one outer loop (positive signed area) required"),
    # the hole's first vertex lies on the row of a step of the outer loop, so
    # the ray runs along that step: only the half-open rule counts it once
    "hole_on_step_row": ([loop_of([(0, 0), (6, 0), (6, 2), (5, 2), (5, 4), (0, 4)]),
                          loop_of([(1, 2), (1, 3), (2, 3), (2, 2)])],
                         None),
    "two_holes_ok": ([OUTER, square(1, 1, 1, hole=True), square(3, 3, 2, hole=True)],
                     None),
    "mixed_fields": ([loop_of([(0, 0), (1, 0), (1, 1)]) + (point_of(FieldParam(3), 0, 1),)],
                     "polygon coordinates must share one field parameter"),
    "no_loops": ([], "polygon needs at least one loop"),
}


@pytest.mark.parametrize("name", sorted(HAND_MADE))
def test_hand_made_shapes(name):
    loops, message = HAND_MADE[name]
    assert assert_same_verdict(loops) == message


def test_samples_polygons():
    rng = random.Random(1010)
    regions = [
        l_shape(F2),
        similar_pair_hexagon(F2).region,
        square_with_hole_polygon(F2.quad(3), F2.quad(1)),
        square_with_hole_polygon(F2.quad(1, 1), F2.quad(0, 1)),
    ]
    regions += [random_rectilinear_polygon(rng, F2) for _ in range(30)]
    regions += [random_rectilinear_polygon(rng, F2, force_hole=True) for _ in range(30)]
    assert any(len(region.loops) > 1 for region in regions)
    for region in regions:
        assert assert_same_verdict(region.loops) is None
        # the same loops with every orientation flipped: no outer loop left
        flipped = [tuple(reversed(loop)) for loop in region.loops]
        assert assert_same_verdict(flipped) is not None


@pytest.mark.parametrize("steps", [3, 4, 7, 12, 20, 40])
def test_staircases(steps):
    region = staircase(random.Random(2000 + steps), steps).region
    assert assert_same_verdict(region.loops) is None
    loop = region.loops[0]
    # the top of the first column dropped onto the floor: its edges now run
    # along the bottom edge
    x0, y0 = loop[0].x, loop[0].y
    dropped = (loop[0], *loop[1:-2], Point(loop[-2].x, y0), Point(x0, y0))
    assert assert_same_verdict([dropped]) is not None


def random_alternating_loop(rng, axis, m):
    """m x-values and m y-values joined by alternating edges:
    (x0, y0) -> (x1, y0) -> (x1, y1) -> ... -> (x0, y_{m-1}).  Consecutive
    draws differ, so most edges have nonzero length."""

    def draws():
        out = [rng.choice(axis)]
        while len(out) < m:
            out.append(rng.choice([a for a in axis if a != out[-1]]))
        return out

    xs, ys = draws(), draws()
    pts = []
    for k in range(m):
        pts += [Point(xs[k], ys[k]), Point(xs[(k + 1) % m], ys[k])]
    return tuple(pts)


def test_random_alternating_loops():
    rng = random.Random(4242)
    axis = [F2.quad(Fraction(n, 2)) for n in range(0, 9, 2)] + [
        F2.quad(Fraction(1, 2), Fraction(1, 2)),
        F2.quad(0, 1),
        F2.quad(2, -1),
    ]
    seen = {}
    for _ in range(1000):
        loops = [random_alternating_loop(rng, axis, rng.randint(2, 4))]
        for _ in range(rng.choice((0, 0, 1, 2))):
            hole = random_alternating_loop(rng, axis, 2)
            loops.append(hole if rng.random() < 0.3 else tuple(reversed(hole)))
        message = assert_same_verdict(loops)
        seen[message] = seen.get(message, 0) + 1
    # every check after the per-edge ones is reached (nested holes are too
    # rare here; the hand-made shapes cover them)
    for message in (
        None,
        "loop is self-intersecting",
        "loops must be pairwise disjoint",
        "holes must lie strictly inside the outer loop",
        "exactly one outer loop (positive signed area) required",
        "edges must be axis-parallel and of nonzero length",
    ):
        assert seen.get(message, 0) >= 5, (message, seen)
