from fractions import Fraction

import pytest

from quadrect import (
    FieldParam,
    HJoin,
    Leaf,
    Point,
    Rect,
    VJoin,
    construct_dissection,
    decide_rect_ratio,
    leaf_count,
    ratio_class_rep,
    reachable_ratios,
    realize_tree,
    rect_ratio,
    tree_ratio,
    verify_tiling,
)
from quadrect.samples import point_of, rect_of

F2 = FieldParam(2)
SILVER = F2.quad(1, 1)


def brute_force_levels(r, max_n):
    """Independent oracle: the sets of ratios reachable with exactly n tiles,
    computed directly over field elements with no dedup or class tricks."""
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


class TestTreeBasics:
    def test_leaf_is_single_tile(self):
        tree = construct_dissection(SILVER, SILVER, 8)
        assert tree == Leaf(rotated=False)
        assert leaf_count(tree) == 1

    def test_rotated_leaf_for_inverse(self):
        inv = F2.one / SILVER
        tree = construct_dissection(inv, SILVER, 8)
        assert tree == Leaf(rotated=True)
        assert tree_ratio(tree, SILVER) == inv

    def test_double_ratio_is_two_side_by_side(self):
        tree = construct_dissection(SILVER * 2, SILVER, 8)
        assert leaf_count(tree) == 2
        assert isinstance(tree, HJoin)
        assert tree_ratio(tree, SILVER) == SILVER * 2

    def test_ratio_semantics(self):
        tree = VJoin(
            HJoin(Leaf(False), Leaf(True)), HJoin(Leaf(False), Leaf(True))
        )
        # (1+sqrt2) + (sqrt2-1) = 2*sqrt2 per strip, stacked harmonically.
        assert tree_ratio(tree, SILVER) == F2.sqrt_p


class TestRootTwoFromSilver:
    def test_minimal_witness_matches_brute_force(self):
        levels = brute_force_levels(SILVER, 4)
        target = F2.sqrt_p
        assert target not in levels[1]
        assert target not in levels[2]
        assert target not in levels[3]
        assert target in levels[4]
        tree = construct_dissection(target, SILVER, 8)
        assert tree is not None
        assert leaf_count(tree) == 4
        assert tree_ratio(tree, SILVER) == target

    def test_realization_verifies_with_similar_tiles(self):
        target = F2.sqrt_p
        tree = construct_dissection(target, SILVER, 8)
        d = realize_tree(
            tree, Rect(point_of(F2, 0, 0), target, F2.one), SILVER
        )
        assert verify_tiling(d).valid
        inv = F2.one / SILVER
        assert {rect_ratio(t) for t in d.tiles} <= {SILVER, inv}

    def test_eight_leaf_composition_is_also_sound(self):
        strip = VJoin(Leaf(False), Leaf(True))
        assert tree_ratio(strip, SILVER) == F2.sqrt_p * Fraction(1, 4)
        tree = HJoin(HJoin(strip, strip), HJoin(strip, strip))
        assert leaf_count(tree) == 8
        assert tree_ratio(tree, SILVER) == F2.sqrt_p
        d = realize_tree(tree, Rect(point_of(F2, 0, 0), F2.sqrt_p, F2.one), SILVER)
        assert verify_tiling(d).valid


class TestRealize:
    def test_leaf_fills_target(self):
        target = Rect(point_of(F2, 3, 4), SILVER, F2.one)
        d = realize_tree(Leaf(False), target, SILVER)
        assert d.tiles == (target,)

    def test_two_side_by_side_coordinates(self):
        tree = HJoin(Leaf(False), Leaf(False))
        r = F2.quad(Fraction(3, 2))
        target = Rect(point_of(F2, 0, 0), r * 2, F2.one)
        d = realize_tree(tree, target, r)
        assert d.tiles == (
            Rect(point_of(F2, 0, 0), r, F2.one),
            Rect(Point(r, F2.zero), r, F2.one),
        )

    def test_two_stacked_coordinates(self):
        # silver r = 1 + s and 1/r = s - 1 (s = sqrt2) stack to ratio s/4
        s = F2.sqrt_p
        target = Rect(point_of(F2, 3, 1), s, F2.quad(4))
        d = realize_tree(VJoin(Leaf(False), Leaf(True)), target, SILVER)
        assert d.tiles == (
            Rect(point_of(F2, 3, 1), s, F2.quad(2, -1)),
            Rect(Point(F2.quad(3), F2.quad(3, -1)), s, F2.quad(2, 1)),
        )

    def test_mixed_three_level_coordinates(self):
        # bottom: r beside 1/r (ratio 2s, height 1); top: r beside two r
        # stacked (ratio 3r/2, height (8 - 4s)/3); the whole has width 2s
        tree = VJoin(
            HJoin(Leaf(False), Leaf(True)),
            HJoin(Leaf(False), VJoin(Leaf(False), Leaf(False))),
        )
        third = Fraction(1, 3)

        def q(a, b):
            return F2.quad(a, b)

        target = Rect(Point(q(-1, 0), q(0, 1)), q(0, 2), q(11 * third, -4 * third))
        d = realize_tree(tree, target, SILVER)
        assert d.tiles == (
            Rect(Point(q(-1, 0), q(0, 1)), q(1, 1), F2.one),
            Rect(Point(q(0, 1), q(0, 1)), q(-1, 1), F2.one),
            Rect(Point(q(-1, 0), q(1, 1)), q(0, 4 * third), q(8 * third, -4 * third)),
            Rect(Point(q(-1, 4 * third), q(1, 1)), q(0, 2 * third),
                 q(4 * third, -2 * third)),
            Rect(Point(q(-1, 4 * third), q(7 * third, third)), q(0, 2 * third),
                 q(4 * third, -2 * third)),
        )

    def test_ratio_mismatch_rejected(self):
        with pytest.raises(ValueError):
            realize_tree(Leaf(False), rect_of(F2, 0, 0, 5, 1), SILVER)

    def test_random_found_targets_realize_and_verify(self):
        reach = reachable_ratios(SILVER, 6)
        count = 0
        for rep in sorted(reach):
            tree = construct_dissection(rep, SILVER, 6)
            assert tree is not None
            assert leaf_count(tree) == reach[rep]
            d = realize_tree(tree, Rect(point_of(F2, 0, 0), rep, F2.one), SILVER)
            assert verify_tiling(d).valid
            ok = {SILVER, F2.one / SILVER}
            assert {rect_ratio(t) for t in d.tiles} <= ok
            count += 1
        assert count == len(reach)


class TestSearchContract:
    def test_not_found_is_none(self):
        # A rational ratio is never reachable from silver-ratio tiles.
        assert construct_dissection(F2.one, SILVER, 8) is None

    def test_monotone_in_leaf_budget(self):
        target = F2.sqrt_p
        for budget in (4, 5, 6, 7, 8):
            tree = construct_dissection(target, SILVER, budget)
            assert tree is not None
            assert leaf_count(tree) == 4
        assert construct_dissection(target, SILVER, 3) is None

    def test_reachable_sets_match_brute_force(self):
        levels = brute_force_levels(SILVER, 5)
        reach = reachable_ratios(SILVER, 5)
        expected = {}
        for n in range(1, 6):
            for val in levels[n]:
                rep = ratio_class_rep(val)
                expected.setdefault(rep, n)
                expected[rep] = min(expected[rep], n)
        assert reach == expected

    def test_agreement_with_decision(self):
        reach = reachable_ratios(SILVER, 7)
        for rep in reach:
            assert decide_rect_ratio(rep, SILVER).tileable

    def test_determinism(self):
        a = construct_dissection(F2.sqrt_p, SILVER, 8)
        b = construct_dissection(F2.sqrt_p, SILVER, 8)
        assert a == b

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            construct_dissection(F2.one, SILVER, 0)
        with pytest.raises(ValueError):
            construct_dissection(F2.quad(1, -1), SILVER, 8)
        with pytest.raises(ValueError):
            construct_dissection(F2.one, F2.quad(1, -1), 8)
        with pytest.raises(ValueError, match="ratios must share one field parameter"):
            construct_dissection(FieldParam(3).one, SILVER, 8)

    @pytest.mark.parametrize("p", [Fraction(5, 2), Fraction(3, 4)], ids=["5_2", "3_4"])
    def test_rational_field_param_kernel(self, p):
        # Non-integer p exercises the scaling of b by p's denominator.
        field = FieldParam(p)
        r = field.quad(1, 1)
        reach = reachable_ratios(r, 5)
        brute = brute_force_levels(r, 5)
        got = set(reach)
        expected = {ratio_class_rep(v) for n in brute for v in brute[n]}
        assert got == expected
        for rep in reach:
            assert decide_rect_ratio(rep, r).tileable
