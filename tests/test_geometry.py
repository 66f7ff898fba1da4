import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from quadrect import (
    Dissection,
    FieldParam,
    Point,
    Polygon,
    Rect,
    build_cell_grid,
    pinwheel_dissection,
    polygon_area,
    ratio_class_rep,
    rect_ratio,
    square_with_hole_polygon,
    tiles_equal,
    verify_tiling,
)
from quadrect.samples import (
    l_shape,
    point_of,
    random_good_rect,
    random_guillotine,
    random_quad,
    random_rectilinear_polygon,
    rect_of,
)
from region_reference import point_in_region_crossing, point_in_region_winding
from translation import translate

F2 = FieldParam(2)
F3 = FieldParam(3)


def unit_square() -> Polygon:
    return rect_of(F2, 0, 0, 1, 1).to_polygon()


class TestConstruction:
    def test_rect_requires_positive_sides(self):
        with pytest.raises(ValueError):
            rect_of(F2, 0, 0, 0, 1)
        with pytest.raises(ValueError):
            Rect(point_of(F2, 0, 0), F2.quad(1, -1), F2.one)

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: Point(F2.one, F3.one), "point coordinates must share one field parameter"),
            (lambda: Rect(point_of(F2, 0, 0), F2.one, F3.one),
             "rectangle coordinates must share one field parameter"),
            (lambda: square_with_hole_polygon(F2.quad(3), F3.one),
             "u and v must share one field parameter"),
        ],
        ids=["point", "rect", "square_with_hole"],
    )
    def test_mixed_fields_rejected(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    def test_irrational_but_positive_side_ok(self):
        r = Rect(point_of(F2, 0, 0), F2.quad(-1, 1), F2.one)
        assert r.area == F2.quad(-1, 1)

    def test_loop_needs_four_vertices(self):
        with pytest.raises(ValueError):
            Polygon(((point_of(F2, 0, 0), point_of(F2, 1, 0), point_of(F2, 1, 1)),))

    def test_diagonal_edge_rejected(self):
        pts = (
            point_of(F2, 0, 0),
            point_of(F2, 1, 1),
            point_of(F2, 1, 2),
            point_of(F2, 0, 2),
        )
        with pytest.raises(ValueError):
            Polygon((pts,))

    def test_nonalternating_edges_rejected(self):
        pts = (
            point_of(F2, 0, 0),
            point_of(F2, 1, 0),
            point_of(F2, 2, 0),
            point_of(F2, 2, 1),
            point_of(F2, 0, 1),
        )
        with pytest.raises(ValueError):
            Polygon((pts,))

    def test_self_intersecting_loop_rejected(self):
        pts = [(0, 0), (3, 0), (3, 2), (1, 2), (1, 1), (4, 1), (4, 3), (0, 3)]
        with pytest.raises(ValueError):
            Polygon((tuple(point_of(F2, x, y) for x, y in pts),))

    def test_hole_outside_outer_rejected(self):
        outer = rect_of(F2, 0, 0, 1, 1).to_polygon().loops[0]
        hole = tuple(reversed(rect_of(F2, 5, 5, 1, 1).to_polygon().loops[0]))
        with pytest.raises(ValueError):
            Polygon((outer, hole))

    def test_two_outer_loops_rejected(self):
        a = rect_of(F2, 0, 0, 1, 1).to_polygon().loops[0]
        b = rect_of(F2, 5, 0, 1, 1).to_polygon().loops[0]
        with pytest.raises(ValueError):
            Polygon((a, b))

    def test_square_with_hole_valid(self):
        region = square_with_hole_polygon(F2.quad(3), F2.quad(1))
        assert len(region.loops) == 2
        assert region.outer_index == 0


class TestArea:
    def test_unit_square(self):
        assert polygon_area(unit_square()) == F2.one

    def test_square_with_hole(self):
        region = square_with_hole_polygon(F2.quad(3), F2.quad(1))
        assert polygon_area(region) == F2.quad(8)

    def test_l_shape(self):
        assert polygon_area(l_shape(F2)) == F2.quad(3)

    def test_irrational_square(self):
        side = F2.quad(1, 1)
        region = Rect(point_of(F2, 0, 0), side, side).to_polygon()
        assert polygon_area(region) == F2.quad(3, 2)  # (1+sqrt2)^2 = 3 + 2*sqrt2


class TestCellGrid:
    def test_two_half_tiles_make_two_cells(self):
        tiles = [rect_of(F2, 0, 0, 1, Fraction(1, 2)),
                 rect_of(F2, 0, Fraction(1, 2), 1, Fraction(1, 2))]
        grid = build_cell_grid(unit_square(), tiles)
        assert grid.cell_count == 2

    def test_square_with_hole_grid(self):
        region = square_with_hole_polygon(F2.quad(3), F2.quad(1))
        grid = build_cell_grid(region, [])
        assert grid.cell_count == 9
        assert grid.inside_count == 8

    def test_bare_rectangle_is_one_cell(self):
        grid = build_cell_grid(unit_square(), [])
        assert grid.cell_count == 1
        assert grid.inside == ((True,),)


class TestVerify:
    def test_two_half_tiles_valid(self):
        d = Dissection(
            unit_square(),
            (
                rect_of(F2, 0, 0, 1, Fraction(1, 2)),
                rect_of(F2, 0, Fraction(1, 2), 1, Fraction(1, 2)),
            ),
        )
        assert verify_tiling(d).valid

    def test_duplicate_tile_reports_overlap(self):
        d = Dissection(
            unit_square(), (rect_of(F2, 0, 0, 1, 1), rect_of(F2, 0, 0, 1, 1))
        )
        report = verify_tiling(d)
        assert not report.valid
        assert {i.kind for i in report.issues} == {"overlap"}

    def test_missing_tile_reports_gap(self):
        d = Dissection(unit_square(), (rect_of(F2, 0, 0, 1, Fraction(1, 2)),))
        report = verify_tiling(d)
        assert not report.valid
        assert {i.kind for i in report.issues} == {"gap"}

    def test_tile_outside_reports_protrusion(self):
        d = Dissection(
            unit_square(),
            (rect_of(F2, 0, 0, 1, 1), rect_of(F2, 1, 0, 1, 1)),
        )
        report = verify_tiling(d)
        assert not report.valid
        assert any(i.kind == "protrusion" for i in report.issues)

    def test_tile_in_hole_reports_protrusion(self):
        region = square_with_hole_polygon(F2.quad(3), F2.quad(1))
        pin = pinwheel_dissection(F2.quad(3), F2.quad(1))
        bad = Dissection(region, pin.tiles + (rect_of(F2, 1, 1, 1, 1),))
        report = verify_tiling(bad)
        assert not report.valid
        assert any(i.kind == "protrusion" for i in report.issues)

    def test_pinwheel_valid(self):
        report = verify_tiling(pinwheel_dissection(F2.quad(3), F2.quad(1)))
        assert report.valid

    def test_pinwheel_layout(self):
        pin = pinwheel_dissection(F2.quad(3), F2.quad(1))
        assert pin.tiles == (
            rect_of(F2, 0, 0, 2, 1),
            rect_of(F2, 2, 0, 1, 2),
            rect_of(F2, 1, 2, 2, 1),
            rect_of(F2, 0, 1, 1, 2),
        )

    def test_invariant_under_reordering_and_translation(self, rng):
        base = random_guillotine(rng, random_good_rect(rng, F2), max_depth=4)
        shuffled = list(base.tiles)
        rng.shuffle(shuffled)
        assert verify_tiling(Dissection(base.region, tuple(shuffled))).valid
        dx, dy = random_quad(rng, F2), random_quad(rng, F2)
        moved = Dissection(
            translate(base.region, dx, dy),
            tuple(translate(t, dx, dy) for t in base.tiles),
        )
        assert verify_tiling(moved).valid

    def test_area_mismatch_raises_under_python_o(self):
        # The area check is an explicit exception, so -O cannot strip it.
        script = textwrap.dedent("""
            import quadrect.geometry as g
            from quadrect import FieldParam, pinwheel_dissection
            if __debug__:
                raise SystemExit("not running under python -O")
            F2 = FieldParam(2)
            g.polygon_area = lambda region: F2.zero
            try:
                g.verify_tiling(pinwheel_dissection(F2.quad(3), F2.quad(1)))
            except ArithmeticError as exc:
                print(exc)
        """)
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "tile areas do not sum to the region area"

    def test_tile_area_sum_matches_region(self, rng):
        for _ in range(25):
            d = random_guillotine(rng, random_good_rect(rng, F2), max_depth=4)
            report = verify_tiling(d)
            assert report.valid
            total = F2.zero
            for t in d.tiles:
                total = total + t.area
            assert total == polygon_area(d.region)


class TestTilesEqual:
    def test_two_half_tiles(self):
        d = Dissection(
            unit_square(),
            (
                rect_of(F2, 0, 0, 1, Fraction(1, 2)),
                rect_of(F2, 0, Fraction(1, 2), 1, Fraction(1, 2)),
            ),
        )
        assert tiles_equal(d) == (F2.one, F2.quad(Fraction(1, 2)))

    def test_pinwheel_rotations_count_as_equal(self):
        dims = tiles_equal(pinwheel_dissection(F2.quad(3), F2.quad(1)))
        assert dims == (F2.quad(2), F2.one)

    def test_unequal_tiles(self):
        d = Dissection(
            rect_of(F2, 0, 0, 1, Fraction(5, 6)).to_polygon(),
            (
                rect_of(F2, 0, 0, 1, Fraction(1, 2)),
                rect_of(F2, 0, Fraction(1, 2), 1, Fraction(1, 3)),
            ),
        )
        assert tiles_equal(d) is None

    def test_no_tiles_raises(self):
        with pytest.raises(ValueError, match="dissection has no tiles"):
            tiles_equal(Dissection(unit_square(), ()))

    def test_equal_implies_equal_areas(self, rng):
        for _ in range(20):
            d = random_guillotine(rng, random_good_rect(rng, F2), max_depth=3)
            dims = tiles_equal(d)
            if dims is None:
                continue
            areas = {t.area for t in d.tiles}
            assert len(areas) == 1


class TestRectRatio:
    def test_two_by_one(self):
        assert rect_ratio(rect_of(F2, 0, 0, 2, 1)) == F2.quad(2)

    def test_silver_rectangle(self):
        r = Rect(point_of(F2, 0, 0), F2.quad(1, 1), F2.one)
        assert rect_ratio(r) == F2.quad(1, 1)

    def test_square(self):
        k = F2.quad(7, 2)
        assert rect_ratio(Rect(point_of(F2, 0, 0), k, k)) == F2.one

    def test_normalize_flips_short_wide(self):
        r = rect_of(F2, 0, 0, 1, 2)
        assert rect_ratio(r) == F2.quad(Fraction(1, 2))
        assert ratio_class_rep(rect_ratio(r)) == F2.quad(2)

    @pytest.mark.parametrize("y", [F2.zero, F2.quad(1, -1)], ids=["zero", "negative"])
    def test_class_rep_of_non_positive_ratio_raises(self, y):
        with pytest.raises(ValueError, match="ratio must be positive"):
            ratio_class_rep(y)


class TestPointInRegion:
    def test_crossing_and_winding_agree_on_200_random_polygons(self):
        rng = random.Random(1105)
        for k in range(200):
            region = random_rectilinear_polygon(
                rng, F2, allow_holes=True, force_hole=(k % 5 == 0)
            )
            grid = build_cell_grid(region, [])
            for j in range(grid.ny):
                for i in range(grid.nx):
                    mid = grid.midpoint(i, j)
                    winding = point_in_region_winding(region, mid)
                    assert point_in_region_crossing(region, mid) == winding
                    v = grid.inside[j][i]
                    assert type(v) is int and v in (0, 1)
                    assert v == winding

    def test_boundary_point_raises(self):
        region = unit_square()
        on_edge = point_of(F2, Fraction(1, 2), 0)
        with pytest.raises(ValueError):
            point_in_region_crossing(region, on_edge)
        with pytest.raises(ValueError):
            point_in_region_winding(region, on_edge)

    def test_hole_midpoint_is_outside(self):
        region = square_with_hole_polygon(F2.quad(3), F2.quad(1))
        centre = point_of(F2, Fraction(3, 2), Fraction(3, 2))
        assert not point_in_region_crossing(region, centre)
        assert not point_in_region_winding(region, centre)
