import random
from fractions import Fraction

import pytest

from quadrect import (
    ABCParams,
    Basis,
    BasisVector,
    FieldParam,
    InvalidDissectionError,
    Point,
    QuadPoly,
    Rect,
    abc_area_polygon,
    abc_area_rect,
    decide_rect_ratio,
    in_membership_set,
    separation_certificate,
    verify_tiling,
    z_area,
    z_area_additivity_check,
)
from quadrect.samples import (
    point_of,
    random_good_rect,
    random_guillotine,
    random_positive_quad,
    random_rat,
    random_vector_guillotine,
    rect_of,
)

F2 = FieldParam(2)
B2 = Basis(("e1", "e2"))
B3 = Basis(("e1", "e2", "e3"))


def vec(basis, *coords):
    return BasisVector(basis, tuple(F2.quad(c) for c in coords))


class TestZArea:
    def test_unit_cross_term(self):
        poly = z_area(vec(B2, 1, 0), vec(B2, 0, 1))
        assert poly == QuadPoly(F2.zero, F2.one, F2.zero)

    def test_n_tiles_with_independent_sides_sum_to_n_z(self):
        # Tile sides (1,0,0) x (0,1,0) over a three-symbol basis.
        n = 7
        total = QuadPoly.zero(F2)
        for _ in range(n):
            total = total + z_area(vec(B3, 1, 0, 0), vec(B3, 0, 1, 0))
        assert total == QuadPoly(F2.zero, F2.quad(n), F2.zero)

    def test_square_of_mixed_side(self):
        a2 = Fraction(5, 3)
        poly = z_area(vec(B2, 1, a2), vec(B2, 1, a2))
        assert poly == QuadPoly(F2.one, F2.quad(2 * a2), F2.quad(a2 * a2))

    def test_extra_coordinates_ignored(self):
        lhs = z_area(vec(B3, 2, 3, 99), vec(B3, 5, 7, -4))
        rhs = z_area(vec(B2, 2, 3), vec(B2, 5, 7))
        assert (lhs.c0, lhs.c1, lhs.c2) == (rhs.c0, rhs.c1, rhs.c2)

    def test_basis_mismatch(self):
        with pytest.raises(ValueError):
            z_area(vec(B2, 1, 0), vec(B3, 1, 0, 0))

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: Basis(()), "basis needs at least one symbol"),
            (lambda: Basis(("e1", "e2", "e1")), "basis symbols must be distinct"),
            (lambda: BasisVector(B3, (F2.one,) * 4), "coordinate count must match the basis size"),
            (lambda: BasisVector(B2, (F2.one, FieldParam(3).one)),
             "coordinates must share one field parameter"),
        ],
        ids=["no_names", "duplicate_names", "wrong_count", "mixed_fields"],
    )
    def test_malformed_basis_or_vector_rejected(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    def test_needs_two_symbols(self):
        b1 = Basis(("e1",))
        with pytest.raises(ValueError):
            z_area(BasisVector(b1, (F2.one,)), BasisVector(b1, (F2.one,)))

    def test_rational_sides_give_constant_polynomial(self, rng):
        for _ in range(50):
            s1 = vec(B2, random_rat(rng), 0)
            s2 = vec(B2, random_rat(rng), 0)
            assert z_area(s1, s2).is_constant()


class TestZAdditivity:
    def test_rational_rectangle_split(self):
        parent = (vec(B2, 2, 0), vec(B2, 1, 0))
        children = [
            (vec(B2, 1, 0), vec(B2, 1, 0)),
            (vec(B2, 1, 0), vec(B2, 1, 0)),
        ]
        assert z_area_additivity_check(parent, children)

    def test_trivial_single_child(self):
        parent = (vec(B2, Fraction(3, 2), 5), vec(B2, 7, Fraction(-1, 3)))
        assert z_area_additivity_check(parent, [parent])

    def test_z_dependent_sum_never_matches_constant_parent(self):
        # N tiles with sides (0,1) x (a1,a2): their z-areas sum to
        # N*a1*z + N*a2*z^2, which depends on z whenever a2 != 0, so no
        # z-independent parent can balance the books.
        a1, a2 = Fraction(4), Fraction(3, 2)
        for n in (1, 2, 5):
            children = [(vec(B2, 0, 1), vec(B2, a1, a2))] * n
            for const in (0, 1, n * a1, -17):
                parent = (vec(B2, const, 0), vec(B2, 1, 0))
                assert not z_area_additivity_check(parent, children)

    def test_random_symbolic_guillotines(self, rng):
        for _ in range(100):
            parent, children = random_vector_guillotine(rng, B2, F2, max_depth=4)
            assert z_area_additivity_check(parent, children)


class TestAbcRect:
    def test_zero_on_silver_rectangle(self):
        for c in (Fraction(17), Fraction(0), Fraction(-3, 2)):
            params = ABCParams(Fraction(-1), Fraction(1), c)
            silver = Rect(point_of(F2, 0, 0), F2.quad(1, 1), F2.one)
            assert abc_area_rect(silver, params) == 0

    def test_two_on_conjugate_similar_rectangle(self):
        for c in (Fraction(17), Fraction(0), Fraction(-3, 2)):
            params = ABCParams(Fraction(-1), Fraction(1), c)
            r = Rect(point_of(F2, 0, 0), F2.quad(-1, 1), F2.one)
            assert abc_area_rect(r, params) == 2

    def test_zero_params_zero_area(self, rng):
        params = ABCParams(Fraction(0), Fraction(0), Fraction(0))
        for _ in range(20):
            assert abc_area_rect(random_good_rect(rng, F2), params) == 0

    def test_symmetric_in_sides(self, rng):
        for _ in range(50):
            r = random_good_rect(rng, F2)
            flipped = Rect(r.origin, r.height, r.width)
            params = ABCParams(random_rat(rng), random_rat(rng), random_rat(rng))
            assert abc_area_rect(r, params) == abc_area_rect(flipped, params)

    def test_plain_area_when_a_is_one(self):
        # With A=1, B=0, C=0 the form picks out alpha*gamma.
        params = ABCParams(Fraction(1), Fraction(0), Fraction(0))
        assert abc_area_rect(rect_of(F2, 0, 0, 2, 1), params) == 2


class TestAbcPolygon:
    def test_unit_square_single_tile(self):
        region = rect_of(F2, 0, 0, 1, 1).to_polygon()
        d = verify_and_wrap(region, (rect_of(F2, 0, 0, 1, 1),))
        params = ABCParams(Fraction(1), Fraction(0), Fraction(0))
        assert abc_area_polygon(d, params) == 1

    def test_pinwheel_sums_tile_contributions(self):
        from quadrect import pinwheel_dissection

        pin = pinwheel_dissection(F2.quad(3), F2.quad(1))
        params = ABCParams(Fraction(1), Fraction(0), Fraction(0))
        assert abc_area_polygon(pin, params) == 8

    def test_invalid_dissection_raises(self):
        region = rect_of(F2, 0, 0, 1, 1).to_polygon()
        from quadrect import Dissection

        bad = Dissection(region, (rect_of(F2, 0, 0, 1, Fraction(1, 2)),))
        with pytest.raises(InvalidDissectionError):
            abc_area_polygon(bad, ABCParams(1, 0, 0))

    def test_independent_dissections_agree(self):
        rng = random.Random(77)
        params = ABCParams(Fraction(2), Fraction(-3, 2), Fraction(5))
        for _ in range(30):
            base = random_good_rect(rng, F2)
            d1 = random_guillotine(rng, base, max_depth=4)
            d2 = random_guillotine(rng, base, max_depth=4)
            v1 = abc_area_polygon(d1, params)
            v2 = abc_area_polygon(d2, params)
            assert v1 == v2

    def test_additivity_parent_equals_tile_sum(self):
        rng = random.Random(78)
        for _ in range(30):
            base = random_good_rect(rng, F2)
            d = random_guillotine(rng, base, max_depth=4)
            params = ABCParams(random_rat(rng), random_rat(rng), random_rat(rng))
            total = Fraction(0)
            for t in d.tiles:
                total += abc_area_rect(t, params)
            assert total == abc_area_rect(base, params)


def verify_and_wrap(region, tiles):
    from quadrect import Dissection

    d = Dissection(region, tiles)
    assert verify_tiling(d).valid
    return d


def _separation_cases(rng, count):
    """Random (a, b, e, f, p) with both ratios positive, b nonzero and the
    membership test failing, i.e. inputs where separation must succeed."""
    ps = [Fraction(2), Fraction(3), Fraction(5), Fraction(5, 2), Fraction(7)]
    found = 0
    while found < count:
        p = rng.choice(ps)
        field = FieldParam(p)
        a, b = random_rat(rng), random_rat(rng)
        e, f = random_rat(rng), random_rat(rng)
        if b == 0:
            continue
        r = field.quad(a, b)
        y = field.quad(e, f)
        if r.sign() <= 0 or y.sign() <= 0:
            continue
        if r.conj().sign() > 0:
            member = e > 0 and abs(f) * a <= abs(b) * e
        else:
            member = f > 0 and abs(e) * b <= abs(a) * f
        if member:
            continue
        found += 1
        yield a, b, e, f, p


class TestSeparation:
    def test_params_formula(self):
        assert separation_certificate(1, 1, 2, 1, 2).params == ABCParams(
            Fraction(1), Fraction(-2), Fraction(0)
        )
        assert separation_certificate(1, 1, 3, 1, 2).params == ABCParams(
            Fraction(1), Fraction(-3), Fraction(0)
        )

    def test_certificate_example(self):
        cert = separation_certificate(1, 1, 2, 1, 2)
        assert cert.discriminant_quarter == Fraction(-3)
        assert cert.sign == -1

    def test_certificate_pure_root_target(self):
        cert = separation_certificate(0, 1, 1, 1, 2)
        assert cert.discriminant_quarter == Fraction(-2)
        assert cert.sign == -1

    def test_b_zero_rejected(self):
        with pytest.raises(ValueError):
            separation_certificate(2, 0, 1, 1, 2)

    def test_member_ratio_rejected(self):
        # y = r passes its own membership test, so no separation exists.
        with pytest.raises(ValueError):
            separation_certificate(1, 1, 1, 1, 2)

    @pytest.mark.parametrize(
        "y, r, message",
        [
            (F2.quad(1, 1), FieldParam(3).quad(1, 1),
             "rectangle ratio and tile ratio must share one field parameter"),
            (F2.quad(-1), F2.quad(1, 1), "rectangle ratio must be positive"),
            (F2.zero, F2.quad(1, 1), "rectangle ratio must be positive"),
            (F2.quad(1, 1), F2.quad(1, -1), "tile ratio must be positive"),
            (F2.quad(1, 1), F2.zero, "tile ratio must be positive"),
            (F2.quad(-1), FieldParam(3).quad(-1), "tile ratio must be positive"),
        ],
        ids=["fields", "negative-y", "zero-y", "negative-r", "zero-r", "all-bad"],
    )
    def test_membership_test_rejects_what_it_cannot_judge(self, y, r, message):
        # the same checks, messages and order as decide_rect_ratio
        for judge in (in_membership_set, decide_rect_ratio):
            with pytest.raises(ValueError) as info:
                judge(y, r)
            assert str(info.value) == message

    def test_tile_rectangle_abc_area_always_zero(self):
        rng = random.Random(500)
        for a, b, e, f, p in _separation_cases(rng, 100):
            field = FieldParam(p)
            params = separation_certificate(a, b, e, f, p).params
            tile = Rect(
                Point(field.zero, field.zero), field.quad(e, f), field.one
            )
            assert abc_area_rect(tile, params) == 0

    def test_scaled_tile_stays_zero_and_scales_quadratically(self):
        rng = random.Random(501)
        for a, b, e, f, p in _separation_cases(rng, 40):
            field = FieldParam(p)
            params = separation_certificate(a, b, e, f, p).params
            s = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            tile = Rect(
                Point(field.zero, field.zero),
                field.quad(e, f) * s,
                field.one * s,
            )
            assert abc_area_rect(tile, params) == 0
            ref = random_good_rect(rng, field)
            scaled = Rect(ref.origin, ref.width * s, ref.height * s)
            assert abc_area_rect(scaled, params) == s * s * abc_area_rect(ref, params)

    def test_target_ratio_rectangles_have_certified_sign(self):
        rng = random.Random(502)
        for a, b, e, f, p in _separation_cases(rng, 40):
            field = FieldParam(p)
            cert = separation_certificate(a, b, e, f, p)
            params = cert.params
            r = field.quad(a, b)
            for _ in range(20):
                s = random_positive_quad(rng, field)
                rect = Rect(Point(field.zero, field.zero), s, s * r)
                val = abc_area_rect(rect, params)
                assert val != 0
                assert (1 if val > 0 else -1) == cert.sign

    def test_quadratic_form_closed_coefficients(self):
        # S(alpha, beta) for a rectangle (alpha+beta*sqrt(p)) scaled by ratio
        # a+b*sqrt(p): alpha^2 (fa-eb) + 2 alpha beta (f a^2/b - e a)
        # + beta^2 (2 f a^3/b^2 - p f a - p e b).  Check sign-definiteness
        # directly from the coefficients for arbitrary nonzero (alpha, beta).
        rng = random.Random(503)
        for a, b, e, f, p in _separation_cases(rng, 20):
            cert = separation_certificate(a, b, e, f, p)
            caa = f * a - e * b
            cab = f * a * a / b - e * a
            cbb = 2 * f * a**3 / (b * b) - p * f * a - p * e * b
            assert (cab * cab - caa * cbb) == cert.discriminant_quarter
            for _ in range(100):
                al, be = random_rat(rng, span=5), random_rat(rng, span=5)
                if al == 0 and be == 0:
                    continue
                val = caa * al * al + 2 * cab * al * be + cbb * be * be
                assert val != 0
                assert (1 if val > 0 else -1) == cert.sign
