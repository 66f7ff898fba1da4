import random
from fractions import Fraction

import pytest

from quadrect import (
    FieldParam,
    build_cell_grid,
    complete_to_rectangle,
    polygon_area,
    square_with_hole_polygon,
    verify_complement,
)
from quadrect import geometry
from quadrect.samples import l_shape, random_rectilinear_polygon, rect_of

F2 = FieldParam(2)


class TestCompleteToRectangle:
    def test_rectangle_is_already_complete(self):
        region = rect_of(F2, 1, 2, 3, 4).to_polygon()
        comp = complete_to_rectangle(region)
        assert comp.added == ()
        assert comp.bounding.to_polygon() == region

    def test_l_shape(self):
        comp = complete_to_rectangle(l_shape(F2))
        assert comp.bounding == rect_of(F2, 0, 0, 2, 2)
        assert comp.added == (rect_of(F2, 1, 1, 1, 1),)

    def test_square_with_hole_adds_the_hole(self):
        region = square_with_hole_polygon(F2.quad(3), F2.quad(1))
        comp = complete_to_rectangle(region)
        assert comp.bounding == rect_of(F2, 0, 0, 3, 3)
        assert comp.added == (rect_of(F2, 1, 1, 1, 1),)

    def test_row_runs_merge(self):
        # U-shape: the cavity spans one row and must come out as one strip.
        pts = [(0, 0), (3, 0), (3, 2), (2, 2), (2, 1), (1, 1), (1, 2), (0, 2)]
        from quadrect import Point, Polygon

        region = Polygon(
            (tuple(Point(F2.quad(x), F2.quad(y)) for x, y in pts),)
        )
        comp = complete_to_rectangle(region)
        assert comp.added == (rect_of(F2, 1, 1, 1, 1),)
        assert verify_complement(region, comp.bounding, comp.added)

    def test_area_accounting_and_coordinates(self, rng):
        for k in range(60):
            region = random_rectilinear_polygon(
                rng, F2, allow_holes=True, force_hole=(k % 4 == 0)
            )
            comp = complete_to_rectangle(region)
            total = polygon_area(region)
            for r in comp.added:
                total = total + r.area
            assert total == comp.bounding.area
            xs = {p.x for loop in region.loops for p in loop}
            ys = {p.y for loop in region.loops for p in loop}
            for r in comp.added:
                assert {r.x, r.x2} <= xs and {r.y, r.y2} <= ys
            assert {comp.bounding.x, comp.bounding.x2} <= xs
            assert {comp.bounding.y, comp.bounding.y2} <= ys


class TestVerifyComplement:
    def test_self_consistent_on_random_polygons(self):
        rng = random.Random(909)
        for k in range(60):
            region = random_rectilinear_polygon(
                rng, F2, allow_holes=True, force_hole=(k % 5 == 0)
            )
            comp = complete_to_rectangle(region)
            assert verify_complement(region, comp.bounding, comp.added)

    def test_missing_rectangle_detected(self):
        region = square_with_hole_polygon(F2.quad(3), F2.quad(1))
        comp = complete_to_rectangle(region)
        assert not verify_complement(region, comp.bounding, ())

    def test_overlapping_rectangle_detected(self):
        region = l_shape(F2)
        comp = complete_to_rectangle(region)
        overlapping = comp.added + (rect_of(F2, 0, 0, 1, 1),)
        assert not verify_complement(region, comp.bounding, overlapping)

    def test_wrong_bounding_detected(self):
        region = l_shape(F2)
        comp = complete_to_rectangle(region)
        assert not verify_complement(region, rect_of(F2, 0, 0, 5, 5), comp.added)

    def test_added_outside_bounding_detected(self):
        region = rect_of(F2, 0, 0, 2, 2).to_polygon()
        assert not verify_complement(
            region, rect_of(F2, 0, 0, 2, 2), (rect_of(F2, 5, 5, 1, 1),)
        )


class TestDeterminism:
    def test_added_listed_row_major(self, rng):
        for _ in range(20):
            region = random_rectilinear_polygon(rng, F2, allow_holes=True)
            comp = complete_to_rectangle(region)
            keys = [(r.y, r.x) for r in comp.added]
            assert keys == sorted(keys)

    def test_idempotent_on_rectangles(self):
        region = rect_of(
            F2, Fraction(-1, 2), Fraction(1, 3), Fraction(7, 2), 2
        ).to_polygon()
        assert complete_to_rectangle(region).added == ()


@pytest.mark.parametrize("over", [False, True], ids=["at_cap", "one_over"])
def test_verify_complement_grid_cap(monkeypatch, over):
    # the checker's grid has the region's axes; one cell above the cap is an
    # input error, as for every other caller of build_cell_grid
    region = square_with_hole_polygon(F2.quad(3), F2.quad(1))
    comp = complete_to_rectangle(region)
    grid = build_cell_grid(region, ())
    cells = grid.nx * grid.ny
    monkeypatch.setattr(geometry, "MAX_GRID_CELLS", cells - over)
    if over:
        with pytest.raises(ValueError, match=f"induced grid has {cells} cells"):
            verify_complement(region, comp.bounding, comp.added)
    else:
        assert verify_complement(region, comp.bounding, comp.added)
