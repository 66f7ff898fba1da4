"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every expected value below is either asserted directly from its defining
formula or computed first by an independent oracle inside this file.  Each
test prints a single summary line (visible with ``pytest -s``; the terminal
summary repeats pass/fail per criterion either way) and enforces its stated
runtime budget.
"""

import random
import time
from fractions import Fraction

from quadrect import (
    ABCParams,
    Basis,
    Dissection,
    FieldParam,
    HJoin,
    Leaf,
    Point,
    Rect,
    VJoin,
    abc_area_polygon,
    abc_area_rect,
    complete_to_rectangle,
    construct_dissection,
    decide_rect_ratio,
    decide_square_with_hole,
    leaf_count,
    pinwheel_dissection,
    polygon_area,
    ratio_class_rep,
    reachable_ratios,
    realize_tree,
    rect_ratio,
    separation_certificate,
    tree_ratio,
    verify_complement,
    verify_tiling,
    z_area_additivity_check,
)
from quadrect.samples import (
    random_good_rect,
    random_guillotine,
    random_positive_quad,
    random_rat,
    random_rectilinear_polygon,
    random_vector_guillotine,
)

F2 = FieldParam(2)
SILVER = F2.quad(1, 1)


def _stopwatch(budget_s):
    start = time.perf_counter()

    def done(label):
        elapsed = time.perf_counter() - start
        assert elapsed < budget_s, f"{label} exceeded {budget_s}s ({elapsed:.2f}s)"
        print(f"{label}: PASS ({elapsed:.2f}s)")

    return done


def _membership_fails(a, b, e, f, field):
    """Direct transcription of the tiling membership test, for generating
    separation inputs independently of the library internals."""
    r = field.quad(a, b)
    if r.conj().sign() > 0:
        return not (e > 0 and abs(f) * a <= abs(b) * e)
    return not (f > 0 and abs(e) * b <= abs(a) * f)


def _separation_inputs(rng, count):
    ps = [Fraction(2), Fraction(3), Fraction(5), Fraction(5, 2), Fraction(7)]
    out = []
    while len(out) < count:
        p = rng.choice(ps)
        field = FieldParam(p)
        a, b, e, f = (random_rat(rng) for _ in range(4))
        if b == 0:
            continue
        if field.quad(a, b).sign() <= 0 or field.quad(e, f).sign() <= 0:
            continue
        if not _membership_fails(a, b, e, f, field):
            continue
        out.append((a, b, e, f, p, field))
    return out


def test_criterion_01_abc_values_on_silver_rectangles():
    done = _stopwatch(1.0)
    for c in (Fraction(17), Fraction(0), Fraction(-5, 3)):
        params = ABCParams(Fraction(-1), Fraction(1), c)
        silver = Rect(Point(F2.zero, F2.zero), F2.quad(1, 1), F2.one)
        conj_similar = Rect(Point(F2.zero, F2.zero), F2.quad(-1, 1), F2.one)
        assert abc_area_rect(silver, params) == 0
        assert abc_area_rect(conj_similar, params) == 2
    done("criterion 1 (ABC values on the two similar rectangles)")


def test_criterion_02_separating_params_zero_the_tile():
    done = _stopwatch(1.0)
    rng = random.Random(2024_02)
    for a, b, e, f, p, field in _separation_inputs(rng, 200):
        params = separation_certificate(a, b, e, f, p).params
        assert params == ABCParams(f, -e, 2 * f * a * a / (b * b) - p * f)
        tile = Rect(Point(field.zero, field.zero), field.quad(e, f), field.one)
        assert abc_area_rect(tile, params) == 0
        cert = separation_certificate(a, b, e, f, p)
        expected_disc = (a * a - p * b * b) * (e * e - f * f * a * a / (b * b))
        assert cert.discriminant_quarter == expected_disc
        assert cert.discriminant_quarter < 0
    done("criterion 2 (tile rectangle zeroed, discriminant negative, 200 draws)")


def test_criterion_03_constant_sign_on_target_ratio_rectangles():
    done = _stopwatch(5.0)
    rng = random.Random(2024_03)
    for a, b, e, f, p, field in _separation_inputs(rng, 200):
        params = separation_certificate(a, b, e, f, p).params
        expected_sign = 1 if f * a - e * b > 0 else -1
        r = field.quad(a, b)
        for _ in range(100):
            s = random_positive_quad(rng, field, span=2)
            rect = Rect(Point(field.zero, field.zero), s, s * r)
            value = abc_area_rect(rect, params)
            assert value != 0
            assert (1 if value > 0 else -1) == expected_sign
    done("criterion 3 (constant ABC sign, 200 x 100 rectangles)")


def test_criterion_04_both_invariants_additive_on_guillotines():
    done = _stopwatch(10.0)
    rng = random.Random(2024_04)
    basis = Basis(("e1", "e2"))
    for _ in range(500):
        parent, children = random_vector_guillotine(
            rng, basis, F2, max_depth=rng.randint(1, 6)
        )
        assert z_area_additivity_check(parent, children)
    for k in range(500):
        base = random_good_rect(rng, F2)
        d = random_guillotine(rng, base, max_depth=rng.randint(1, 6))
        params = ABCParams(random_rat(rng), random_rat(rng), random_rat(rng))
        total = Fraction(0)
        for t in d.tiles:
            total += abc_area_rect(t, params)
        assert total == abc_area_rect(base, params)
        if k % 25 == 0:
            assert verify_tiling(d).valid
    done("criterion 4 (invariant additivity over 500 + 500 dissections)")


def test_criterion_05_polygon_abc_area_independent_of_dissection():
    done = _stopwatch(5.0)
    rng = random.Random(2024_05)
    for _ in range(100):
        base = random_good_rect(rng, F2)
        params = ABCParams(random_rat(rng), random_rat(rng), random_rat(rng))
        d1 = random_guillotine(rng, base, max_depth=4)
        d2 = random_guillotine(rng, base, max_depth=4)
        region = base.to_polygon()
        v1 = abc_area_polygon(Dissection(region, d1.tiles), params)
        v2 = abc_area_polygon(Dissection(region, d2.tiles), params)
        assert v1 == v2
    done("criterion 5 (dissection independence over 100 rectangles)")


def test_criterion_06_completion_of_random_polygons():
    done = _stopwatch(10.0)
    rng = random.Random(2024_06)
    for k in range(200):
        region = random_rectilinear_polygon(
            rng, F2, max_vertices=20,
            allow_holes=(k % 2 == 0), force_hole=(k % 4 == 0),
        )
        comp = complete_to_rectangle(region)
        assert verify_complement(region, comp.bounding, comp.added)
        total = polygon_area(region)
        for r in comp.added:
            total = total + r.area
        assert total == comp.bounding.area
    done("criterion 6 (200 random polygons completed and verified)")


def _rat_lattice():
    return sorted({Fraction(n, d) for n in range(-3, 4) for d in (1, 2, 3)})


def test_criterion_07_decision_lattice_cross_check():
    done = _stopwatch(60.0)
    fracs = _rat_lattice()
    witnesses = 0
    negatives = 0
    for p in (2, 3, 5):
        field = FieldParam(p)
        ys = []
        for e in fracs:
            for f in fracs:
                y = field.quad(e, f)
                if y.sign() > 0:
                    ys.append(y)
        for a in range(-2, 3):
            for b in range(-2, 3):
                if (a, b) == (0, 0):
                    continue
                r = field.quad(a, b)
                if r.sign() <= 0:
                    continue
                reach = reachable_ratios(r, 8)
                inv_r = field.one / r
                for y in ys:
                    verdict = decide_rect_ratio(y, r)
                    # (iii) similarity classes are unordered on both sides
                    flipped = decide_rect_ratio(field.one / y, r)
                    inverted = decide_rect_ratio(y, inv_r)
                    assert verdict.tileable == flipped.tileable == inverted.tileable
                    assert verdict.case_tag == flipped.case_tag == inverted.case_tag
                    if ratio_class_rep(y) in reach:
                        # (i) a guillotine witness forces a positive verdict
                        witnesses += 1
                        assert verdict.tileable
                    if not verdict.tileable and b != 0:
                        # (ii) negative verdicts carry a checkable certificate
                        negatives += 1
                        cert = verdict.certificate
                        assert cert is not None
                        assert cert.discriminant_quarter < 0
                        tile = Rect(Point(field.zero, field.zero), y, field.one)
                        assert abc_area_rect(tile, cert.params) == 0
    assert witnesses > 100 and negatives > 100
    done(
        f"criterion 7 (lattice cross-check: {witnesses} witnesses, "
        f"{negatives} certified negatives)"
    )


def test_criterion_08_square_with_hole_end_to_end():
    done = _stopwatch(1.0)
    assert verify_tiling(pinwheel_dissection(F2.quad(3), F2.quad(1))).valid
    tileable = decide_square_with_hole(F2.one, F2.quad(-1, 1), SILVER)
    assert tileable.ratio == SILVER
    assert tileable.verdict.tileable
    blocked = decide_square_with_hole(F2.quad(3), F2.quad(1), SILVER)
    assert not blocked.verdict.tileable
    assert blocked.verdict.certificate is not None
    done("criterion 8 (square-with-hole decisions and pinwheel verification)")


def _oracle_levels(r, max_n):
    """Independent reachability oracle: plain set recursion on field values."""
    one = r.field.one
    levels = {1: {r, one / r}}
    for n in range(2, max_n + 1):
        out = set()
        for i in range(1, n):
            for x in levels[i]:
                for y in levels[n - i]:
                    out.add(x + y)
                    out.add(one / (one / x + one / y))
        levels[n] = out
    return levels


def test_criterion_09_witness_construction_showcase():
    done = _stopwatch(5.0)
    target = F2.sqrt_p
    tree = construct_dissection(target, SILVER, 8)
    assert tree is not None
    assert tree_ratio(tree, SILVER) == target

    # Independent oracle: the minimal guillotine witness has 4 leaves, found
    # as stacked strips of (1+sqrt2)+(sqrt2-1) = 2*sqrt2.  (The stated 8-leaf
    # expectation is not attainable by a smallest-first search; see the
    # decisions ledger.)
    oracle = _oracle_levels(SILVER, 4)
    assert target not in oracle[1] | oracle[2] | oracle[3]
    assert target in oracle[4]
    assert leaf_count(tree) == 4

    realized = realize_tree(tree, Rect(Point(F2.zero, F2.zero), target, F2.one), SILVER)
    assert verify_tiling(realized).valid
    allowed = {SILVER, F2.one / SILVER}
    assert {rect_ratio(t) for t in realized.tiles} <= allowed

    # The showcased 8-leaf composition is itself a sound (non-minimal) witness.
    strip = VJoin(Leaf(False), Leaf(True))
    assert tree_ratio(strip, SILVER) == target * Fraction(1, 4)
    eight = HJoin(HJoin(strip, strip), HJoin(strip, strip))
    assert leaf_count(eight) == 8
    assert tree_ratio(eight, SILVER) == target
    realized8 = realize_tree(
        eight, Rect(Point(F2.zero, F2.zero), target, F2.one), SILVER
    )
    assert verify_tiling(realized8).valid
    assert {rect_ratio(t) for t in realized8.tiles} <= allowed
    done("criterion 9 (witness construction: 4-leaf minimum, 8-leaf sound)")


def test_criterion_10_rational_targets_tile_exactly_the_rationals():
    done = _stopwatch(1.0)
    fracs = _rat_lattice()
    checked = 0
    for p in (2, 3, 5):
        field = FieldParam(p)
        for a in (1, 2):
            r = field.quad(a)
            for e in fracs:
                for f in fracs:
                    y = field.quad(e, f)
                    if y.sign() <= 0:
                        continue
                    checked += 1
                    expected = f == 0 and e > 0
                    assert decide_rect_ratio(y, r).tileable == expected
    assert checked > 500
    done(f"criterion 10 (rational-ratio specialization over {checked} pairs)")
