"""The row sweep against the per-cell code it replaced.

The reference functions below are the earlier per-cell implementations of
``build_cell_grid``, ``verify_tiling``, ``complete_to_rectangle`` and
``verify_complement``: a crossing test at every cell midpoint, a loop over
each tile's cells, and a scan over every added rectangle for every cell.
The sweep must reproduce them exactly (coordinates, inside flags, cover
counts, issues in order with their midpoints, added rectangles, verdicts)
on seeded corpora: those of acceptance criteria 4-6, holed polygons,
staircases of 3-12 steps and guillotines with each kind of corruption.
"""

import random
from fractions import Fraction

import pytest

from quadrect import (
    ABCParams,
    Basis,
    Dissection,
    FieldParam,
    Point,
    Polygon,
    Rect,
    complete_to_rectangle,
    verify_complement,
    verify_tiling,
)
from quadrect.geometry import CellIssue
from quadrect.samples import (
    random_good_rect,
    random_guillotine,
    random_quad,
    random_rat,
    random_rectilinear_polygon,
    random_vector_guillotine,
)
from region_reference import point_in_region_crossing
from translation import translate

F2 = FieldParam(2)
HALF = Fraction(1, 2)


# --- reference: the per-cell implementations ------------------------------

def _ref_axes(region, rects):
    xs = {p.x for loop in region.loops for p in loop}
    ys = {p.y for loop in region.loops for p in loop}
    for r in rects:
        xs.update((r.x, r.x2))
        ys.update((r.y, r.y2))
    return tuple(sorted(xs)), tuple(sorted(ys))


def _ref_mid(xs, ys, i, j):
    return Point((xs[i] + xs[i + 1]) * HALF, (ys[j] + ys[j + 1]) * HALF)


def ref_inside(region, xs, ys):
    """Crossing test at every cell midpoint."""
    return tuple(
        tuple(
            point_in_region_crossing(region, _ref_mid(xs, ys, i, j))
            for i in range(len(xs) - 1)
        )
        for j in range(len(ys) - 1)
    )


def ref_verify(dissection):
    """(xs, ys, inside, cover, issues) as the per-cell verifier computed them."""
    region, tiles = dissection.region, dissection.tiles
    xs, ys = _ref_axes(region, tiles)
    inside = ref_inside(region, xs, ys)
    xi = {x: i for i, x in enumerate(xs)}
    yi = {y: j for j, y in enumerate(ys)}
    cover = [[0] * (len(xs) - 1) for _ in range(len(ys) - 1)]
    for t in tiles:
        for j in range(yi[t.y], yi[t.y2]):
            for i in range(xi[t.x], xi[t.x2]):
                cover[j][i] += 1
    issues = []
    for j in range(len(ys) - 1):
        for i in range(len(xs) - 1):
            c = cover[j][i]
            if inside[j][i]:
                if c == 0:
                    issues.append(CellIssue("gap", i, j, _ref_mid(xs, ys, i, j), c))
                elif c > 1:
                    issues.append(CellIssue("overlap", i, j, _ref_mid(xs, ys, i, j), c))
            elif c > 0:
                issues.append(CellIssue("protrusion", i, j, _ref_mid(xs, ys, i, j), c))
    return xs, ys, inside, tuple(tuple(row) for row in cover), tuple(issues)


def ref_complete(region):
    """(bounding, added) with the complement runs found by per-cell tests."""
    xs, ys = _ref_axes(region, ())
    bounding = Rect(Point(xs[0], ys[0]), xs[-1] - xs[0], ys[-1] - ys[0])
    added = []
    for j in range(len(ys) - 1):
        run_start = None
        for i in range(len(xs) - 1):
            outside = not point_in_region_crossing(region, _ref_mid(xs, ys, i, j))
            if outside and run_start is None:
                run_start = i
            if (not outside or i == len(xs) - 2) and run_start is not None:
                stop = i + 1 if outside else i
                added.append(
                    Rect(
                        Point(xs[run_start], ys[j]),
                        xs[stop] - xs[run_start],
                        ys[j + 1] - ys[j],
                    )
                )
                run_start = None
    return bounding, tuple(added)


def ref_verify_complement(region, bounding, added):
    """Per cell: crossing test plus a scan over every added rectangle."""
    xs, ys = _ref_axes(region, (bounding, *added))
    for j in range(len(ys) - 1):
        for i in range(len(xs) - 1):
            pt = _ref_mid(xs, ys, i, j)
            in_bounding = bounding.x < pt.x < bounding.x2 and bounding.y < pt.y < bounding.y2
            in_region = point_in_region_crossing(region, pt)
            cover = sum(1 for r in added if r.x < pt.x < r.x2 and r.y < pt.y < r.y2)
            if int(in_region) + cover != (1 if in_bounding else 0):
                return False
    return True


# --- comparisons -----------------------------------------------------------

def assert_verify_matches(dissection):
    report = verify_tiling(dissection)
    xs, ys, inside, cover, issues = ref_verify(dissection)
    assert report.grid.xs == xs
    assert report.grid.ys == ys
    assert report.grid.inside == inside
    assert report.cover == cover
    assert report.issues == issues
    assert report.valid == (not issues)
    return report


def complement_variants(region, comp):
    """The completion itself plus damaged copies the check must reject."""
    bounding, added = comp.bounding, comp.added
    yield bounding, added
    yield bounding, added + (bounding,)
    yield translate(bounding, F2.one, F2.zero), added
    # covers everything exactly once, but pokes out of the bounding box
    yield bounding, added + (translate(bounding, bounding.width, F2.zero),)
    if added:
        yield bounding, added[:-1]
        yield bounding, added + added[:1]
        yield bounding, added[:-1] + (translate(added[-1], bounding.width, F2.zero),)


def assert_completion_matches(region):
    comp = complete_to_rectangle(region)
    assert (comp.bounding, comp.added) == ref_complete(region)
    verdicts = []
    for bounding, added in complement_variants(region, comp):
        verdict = verify_complement(region, bounding, added)
        assert verdict == ref_verify_complement(region, bounding, added)
        verdicts.append(verdict)
    assert verdicts[0] and not any(verdicts[1:])


def corrupt(rng, d, kind):
    """Damage a tiling so that ``kind`` issues appear."""
    tiles = list(d.tiles)
    idx = rng.randrange(len(tiles))
    if kind == "gap":
        del tiles[idx]
    elif kind == "overlap":
        tiles.insert(idx, tiles[idx])
    else:
        # shifted right by the region's width, the copy lies wholly outside
        x0, _, x1, _ = d.region.bounds()
        tiles.append(translate(tiles[idx], x1 - x0, F2.zero))
    return Dissection(d.region, tuple(tiles))


def staircase(rng, steps):
    """Descending staircase of ``steps`` columns, one tile per column."""

    def step():
        return F2.quad(rng.randint(1, 3), Fraction(rng.randint(0, 4), 4))

    xs = [random_quad(rng, F2)]
    for _ in range(steps):
        xs.append(xs[-1] + step())
    heights = [step()]
    for _ in range(steps - 1):
        heights.append(heights[-1] + step())
    heights.reverse()
    y0 = random_quad(rng, F2)
    pts = [Point(xs[0], y0), Point(xs[-1], y0)]
    for i in range(steps - 1, -1, -1):
        pts += [Point(xs[i + 1], y0 + heights[i]), Point(xs[i], y0 + heights[i])]
    tiles = tuple(
        Rect(Point(xs[i], y0), xs[i + 1] - xs[i], heights[i]) for i in range(steps)
    )
    return Dissection(Polygon((tuple(pts),)), tiles)


# The generators below repeat the random draws of acceptance criteria 4-6
# call for call, so they yield exactly the instances those criteria check.

def criterion_04_dissections():
    rng = random.Random(2024_04)
    basis = Basis(("e1", "e2"))
    for _ in range(500):
        random_vector_guillotine(rng, basis, F2, max_depth=rng.randint(1, 6))
    for _ in range(500):
        base = random_good_rect(rng, F2)
        d = random_guillotine(rng, base, max_depth=rng.randint(1, 6))
        ABCParams(random_rat(rng), random_rat(rng), random_rat(rng))
        yield d


def criterion_05_dissections():
    rng = random.Random(2024_05)
    for _ in range(100):
        base = random_good_rect(rng, F2)
        ABCParams(random_rat(rng), random_rat(rng), random_rat(rng))
        d1 = random_guillotine(rng, base, max_depth=4)
        d2 = random_guillotine(rng, base, max_depth=4)
        region = base.to_polygon()
        yield Dissection(region, d1.tiles)
        yield Dissection(region, d2.tiles)


def criterion_06_regions():
    rng = random.Random(2024_06)
    for k in range(200):
        yield random_rectilinear_polygon(
            rng, F2, max_vertices=20,
            allow_holes=(k % 2 == 0), force_hole=(k % 4 == 0),
        )


class TestSweepMatchesPerCellCode:
    def test_criterion_04_corpus(self):
        # every fifth of the 500 tilings, each also with one corrupted copy
        rng = random.Random(404)
        kinds = ("gap", "overlap", "protrusion")
        for k, d in enumerate(criterion_04_dissections()):
            if k % 5:
                continue
            assert assert_verify_matches(d).valid
            if len(d.tiles) > 1:
                assert_verify_matches(corrupt(rng, d, kinds[k // 5 % 3]))

    def test_criterion_05_corpus(self):
        for d in criterion_05_dissections():
            assert assert_verify_matches(d).valid

    def test_criterion_06_corpus(self):
        for region in criterion_06_regions():
            assert_completion_matches(region)

    def test_holed_polygons(self):
        rng = random.Random(606)
        for _ in range(40):
            region = random_rectilinear_polygon(rng, F2, force_hole=True)
            assert len(region.loops) >= 2
            assert_completion_matches(region)
            comp = complete_to_rectangle(region)
            # the added rectangles alone leave the region's cells as gaps
            tiled = Dissection(comp.bounding.to_polygon(), comp.added)
            assert not assert_verify_matches(tiled).valid

    @pytest.mark.parametrize("steps", range(3, 13))
    def test_staircases(self, steps):
        rng = random.Random(1000 + steps)
        d = staircase(rng, steps)
        assert len(d.region.loops[0]) == 2 * steps + 2
        assert assert_verify_matches(d).valid
        assert_completion_matches(d.region)
        for kind in ("gap", "overlap", "protrusion"):
            assert_verify_matches(corrupt(rng, d, kind))

    @pytest.mark.parametrize("kind", ["gap", "overlap", "protrusion"])
    def test_corrupted_guillotines(self, kind):
        rng = random.Random(707)
        for _ in range(30):
            d = random_guillotine(rng, random_good_rect(rng, F2), max_depth=4)
            if len(d.tiles) < 2:
                continue
            report = assert_verify_matches(corrupt(rng, d, kind))
            assert {issue.kind for issue in report.issues} == {kind}
