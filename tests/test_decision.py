import random
from fractions import Fraction

import pytest

from quadrect import (
    CASE_CONJUGATE_NEGATIVE,
    CASE_CONJUGATE_POSITIVE,
    Dissection,
    FieldParam,
    InvalidDissectionError,
    NOT_IN_FIELD,
    Rect,
    UnequalTilesError,
    abc_area_rect,
    decide_polygon,
    decide_rect_ratio,
    decide_square_with_hole,
    pinwheel_dissection,
    verify_tiling,
)
from quadrect.samples import point_of, random_rat, rect_of

F2 = FieldParam(2)
SILVER = F2.quad(1, 1)  # 1 + sqrt2


def lattice_rats():
    return sorted(
        {Fraction(n, d) for n in range(-3, 4) for d in (1, 2, 3)}
    )


class TestRectRatioDecision:
    def test_ratio_tiles_itself(self):
        v = decide_rect_ratio(SILVER, SILVER)
        assert v.tileable
        assert v.case_tag == CASE_CONJUGATE_NEGATIVE
        assert v.witness_params == (Fraction(1), Fraction(1))

    def test_silver_cannot_tile_two_plus_root(self):
        v = decide_rect_ratio(F2.quad(2, 1), SILVER)
        assert not v.tileable
        assert v.certificate is not None
        assert v.certificate.discriminant_quarter == Fraction(-3)
        assert v.certificate.sign == -1

    def test_root_two_cannot_tile_unit_square(self):
        v = decide_rect_ratio(F2.one, F2.sqrt_p)
        assert not v.tileable
        assert v.certificate is not None

    def test_root_two_tiles_rational_multiples_of_itself(self):
        v = decide_rect_ratio(F2.quad(0, Fraction(3, 2)), F2.sqrt_p)
        assert v.tileable

    def test_rational_target_tiles_exactly_the_rationals(self):
        one = F2.one
        for q in (Fraction(1), Fraction(7, 3), Fraction(1, 2)):
            assert decide_rect_ratio(F2.quad(q), one).tileable
        assert not decide_rect_ratio(F2.quad(1, 1), one).tileable
        assert not decide_rect_ratio(F2.quad(0, 2), one).tileable

    def test_not_in_field_never_tileable(self):
        v = decide_rect_ratio(NOT_IN_FIELD, SILVER)
        assert not v.tileable
        assert v.witness_params is None
        assert v.certificate is None

    def test_nonpositive_inputs_rejected(self):
        with pytest.raises(ValueError):
            decide_rect_ratio(F2.one, F2.quad(1, -1))
        with pytest.raises(ValueError):
            decide_rect_ratio(F2.quad(1, -1), SILVER)

    def test_field_mismatch_rejected(self):
        with pytest.raises(ValueError):
            decide_rect_ratio(FieldParam(3).one, SILVER)

    def test_case_tag_follows_conjugate(self):
        assert (
            decide_rect_ratio(F2.one, F2.quad(3, 1)).case_tag
            == CASE_CONJUGATE_POSITIVE
        )
        assert (
            decide_rect_ratio(F2.one, F2.quad(1, 1)).case_tag
            == CASE_CONJUGATE_NEGATIVE
        )


class TestDecisionProperties:
    def test_reflexivity_over_lattice(self):
        for p in (2, 3, 5):
            field = FieldParam(p)
            for e in lattice_rats():
                for f in lattice_rats():
                    r = field.quad(e, f)
                    if r.sign() <= 0:
                        continue
                    assert decide_rect_ratio(r, r).tileable

    def test_inversion_closure_sampled(self):
        rng = random.Random(321)
        field = FieldParam(2)
        checked = 0
        while checked < 500:
            y = field.quad(random_rat(rng), random_rat(rng))
            r = field.quad(random_rat(rng), random_rat(rng))
            if y.sign() <= 0 or r.sign() <= 0:
                continue
            checked += 1
            base = decide_rect_ratio(y, r)
            inv_y = decide_rect_ratio(field.one / y, r)
            inv_r = decide_rect_ratio(y, field.one / r)
            assert base.tileable == inv_y.tileable == inv_r.tileable

    def test_tileable_set_closed_under_addition(self):
        rng = random.Random(322)
        field = FieldParam(2)
        hits = 0
        while hits < 200:
            r = field.quad(random_rat(rng), random_rat(rng))
            y1 = field.quad(random_rat(rng), random_rat(rng))
            y2 = field.quad(random_rat(rng), random_rat(rng))
            if any(q.sign() <= 0 for q in (r, y1, y2)):
                continue
            if not (
                decide_rect_ratio(y1, r).tileable
                and decide_rect_ratio(y2, r).tileable
            ):
                continue
            hits += 1
            assert decide_rect_ratio(y1 + y2, r).tileable

    def test_negative_certificates_always_check_out(self):
        field = FieldParam(2)
        for e in lattice_rats():
            for f in lattice_rats():
                y = field.quad(e, f)
                if y.sign() <= 0:
                    continue
                v = decide_rect_ratio(y, SILVER)
                if v.tileable:
                    continue
                cert = v.certificate
                assert cert is not None
                assert cert.discriminant_quarter < 0
                tile = Rect(point_of(field, 0, 0), y, field.one)
                assert abc_area_rect(tile, cert.params) == 0


class TestPolygonDecision:
    def test_pinwheel_not_tileable_by_silver(self):
        pin = pinwheel_dissection(F2.quad(3), F2.quad(1))
        v = decide_polygon(pin, SILVER)
        assert not v.tileable
        assert v.witness_params == (Fraction(2), Fraction(0))

    def test_pinwheel_tileable_by_rational(self):
        pin = pinwheel_dissection(F2.quad(3), F2.quad(1))
        assert decide_polygon(pin, F2.quad(3)).tileable

    def test_region_tiled_by_its_own_ratio(self):
        region = rect_of(F2, 0, 0, 2, 1).to_polygon()
        d = Dissection(region, (rect_of(F2, 0, 0, 2, 1),))
        assert decide_polygon(d, F2.quad(2)).tileable

    def test_invalid_dissection_rejected(self):
        region = rect_of(F2, 0, 0, 2, 1).to_polygon()
        bad = Dissection(region, (rect_of(F2, 0, 0, 1, 1),))
        with pytest.raises(InvalidDissectionError):
            decide_polygon(bad, SILVER)

    def test_unequal_tiles_rejected(self):
        region = rect_of(F2, 0, 0, 2, 1).to_polygon()
        d = Dissection(
            region,
            (
                rect_of(F2, 0, 0, Fraction(1, 2), 1),
                rect_of(F2, Fraction(1, 2), 0, Fraction(3, 2), 1),
            ),
        )
        with pytest.raises(UnequalTilesError):
            decide_polygon(d, SILVER)

    def test_similar_but_unequal_pair_is_out_of_scope(self):
        # An L-shaped hexagon dissected into two similar ratio-(1+sqrt2)
        # rectangles of different sizes: the dissection verifies, every tile
        # is similar to the target, yet the equal-tiles hypothesis fails and
        # the procedure must refuse rather than guess.
        from quadrect import ratio_class_rep, rect_ratio, tiles_equal
        from quadrect.samples import similar_pair_hexagon

        hexagon = similar_pair_hexagon(F2)
        assert verify_tiling(hexagon).valid
        assert {ratio_class_rep(rect_ratio(t)) for t in hexagon.tiles} == {SILVER}
        assert tiles_equal(hexagon) is None
        with pytest.raises(UnequalTilesError):
            decide_polygon(hexagon, SILVER)


class TestSquareWithHole:
    def test_rational_ratio_case(self):
        res = decide_square_with_hole(F2.quad(3), F2.quad(1), F2.quad(2))
        assert res.ratio == F2.quad(2)
        assert res.verdict.tileable
        assert verify_tiling(res.pinwheel).valid

    def test_silver_hole_is_tileable(self):
        u = F2.one
        v = F2.quad(-1, 1)  # sqrt2 - 1 < 1
        res = decide_square_with_hole(u, v, SILVER)
        assert res.ratio == SILVER
        assert res.verdict.tileable

    def test_three_one_hole_not_tileable_by_silver(self):
        res = decide_square_with_hole(F2.quad(3), F2.quad(1), SILVER)
        assert not res.verdict.tileable
        assert res.verdict.certificate is not None

    def test_pinwheel_tiles_are_equal(self):
        from quadrect import tiles_equal

        res = decide_square_with_hole(F2.quad(3), F2.quad(1), SILVER)
        assert tiles_equal(res.pinwheel) == (F2.quad(2), F2.one)

    def test_u_not_greater_than_v_rejected(self):
        with pytest.raises(ValueError):
            decide_square_with_hole(F2.one, F2.one, SILVER)
        with pytest.raises(ValueError):
            decide_square_with_hole(F2.one, F2.quad(2), SILVER)

    def test_consistency_with_direct_ratio_decision(self):
        rng = random.Random(55)
        for _ in range(50):
            u = F2.quad(random_rat(rng), random_rat(rng))
            v = F2.quad(random_rat(rng), random_rat(rng))
            r = F2.quad(random_rat(rng), random_rat(rng))
            if v.sign() <= 0 or (u - v).sign() <= 0 or r.sign() <= 0:
                continue
            res = decide_square_with_hole(u, v, r)
            direct = decide_rect_ratio((u + v) / (u - v), r)
            assert res.verdict == direct
            assert verify_tiling(res.pinwheel).valid
