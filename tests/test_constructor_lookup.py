"""The last-level lookup against the forward search it replaced.

``ref_expand`` is the earlier ``_expand``: it builds every level up to the
leaf budget (stopping at the first level that holds the target's class) and
keeps the first join that reaches each class.  ``construct_dissection`` now
settles the last level by residual lookup instead of building it, and must
return the same tree, or None, for every target and budget: at the minimal
leaf count the first hit lies on the last level, where the tie-break between
joins decides the tree.  ``reachable_ratios`` still builds every level but
keeps no inverses for the last one, so it must return the same classes.
"""

import random
from fractions import Fraction

import pytest

from quadrect import (
    FieldParam,
    HJoin,
    Leaf,
    Quad,
    VJoin,
    construct_dissection,
    decide_rect_ratio,
    leaf_count,
    reachable_ratios,
    tree_ratio,
)
from quadrect.constructor import _JOIN, _LEAF, _build_tree
from quadrect.exactfield import int_sign, key_add, key_inv

PS = [Fraction(2), Fraction(3), Fraction(5), Fraction(5, 2)]
MAX_TREE = 7


def _kge1(key, P):
    a, b, d = key
    return int_sign(a - d, b, P) >= 0


def ref_expand(r, max_leaves, target):
    P = r.field.radicand
    rkey = r.key
    r_ge1 = _kge1(rkey, P)
    rep = rkey if r_ge1 else key_inv(rkey, P)
    nodes = {rep: (_LEAF, not r_ge1)}
    inv_of = {rep: key_inv(rep, P)}
    levels = [[], [rep]]

    target_entry = None
    if target is not None:
        tkey = target.key
        if _kge1(tkey, P):
            target_entry = (tkey, False)
        else:
            target_entry = (key_inv(tkey, P), True)
        if target_entry[0] in nodes:
            return nodes, levels, target_entry

    for n in range(2, max_leaves + 1):
        new = []
        for i in range(1, n // 2 + 1):
            j = n - i
            li, lj = levels[i], levels[j]
            if i == j:
                pairs = (
                    (li[x], li[y]) for x in range(len(li)) for y in range(x, len(li))
                )
            else:
                pairs = ((x, y) for x in li for y in lj)
            for xkey, ykey in pairs:
                xinv = inv_of[xkey]
                yinv = inv_of[ykey]
                for ux, uy, fx, fy in (
                    (xkey, ykey, False, False),
                    (xkey, yinv, False, True),
                    (xinv, ykey, True, False),
                    (xinv, yinv, True, True),
                ):
                    s = key_add(ux, uy)
                    if _kge1(s, P):
                        ck, outer_inv = s, False
                    else:
                        ck, outer_inv = key_inv(s, P), True
                    if ck in nodes:
                        continue
                    nodes[ck] = (_JOIN, xkey, fx, ykey, fy, outer_inv)
                    inv_of[ck] = key_inv(ck, P)
                    new.append(ck)
        levels.append(new)
        if target_entry is not None and target_entry[0] in nodes:
            break
    return nodes, levels, target_entry


def ref_construct(y, r, max_leaves):
    nodes, _levels, (tkey, tinv) = ref_expand(r, max_leaves, y)
    if tkey not in nodes:
        return None
    return _build_tree(nodes, tkey, tinv)


def ref_reachable(r, max_leaves):
    _nodes, levels, _ = ref_expand(r, max_leaves, None)
    return {Quad(k, r.field): n for n, keys in enumerate(levels) for k in keys}


def tile_ratios(field):
    """1+sqrt(p), its inverse, 1, 2, 1/2, 3-sqrt(p) and 1/2+sqrt(p)/3."""
    s = field.sqrt_p
    one = field.one
    return [one + s, one / (one + s), one, field.quad(2), field.quad(Fraction(1, 2)),
            field.quad(3) - s, field.quad(Fraction(1, 2)) + s * Fraction(1, 3)]


def random_tree(rng, leaves):
    if leaves == 1:
        return Leaf(rng.random() < 0.5)
    k = rng.randint(1, leaves - 1)
    join = HJoin if rng.random() < 0.5 else VJoin
    return join(random_tree(rng, k), random_tree(rng, leaves - k))


def cases():
    """(field, r) pairs with their ids, over every p and tile ratio."""
    out = []
    for p in PS:
        field = FieldParam(p)
        names = ["silver", "silver_inv", "one", "two", "half", "three_minus", "mixed"]
        for name, r in zip(names, tile_ratios(field)):
            out.append(pytest.param(field, r, id=f"p{p}-{name}".replace("/", "_")))
    return out


def same(y, r, budget):
    got = construct_dissection(y, r, budget)
    assert got == ref_construct(y, r, budget), (str(y), str(r), budget)
    return got


@pytest.mark.parametrize("field, r", cases())
def test_random_tree_targets_at_and_around_minimal_budget(field, r):
    rng = random.Random(f"{field.p}|{r}")
    for _ in range(3):
        leaves = rng.randint(2, MAX_TREE)
        y = tree_ratio(random_tree(rng, leaves), r)
        # The forward search stops at the first level holding y, so its tree
        # is the same for every budget from the minimal leaf count m on.
        want = ref_construct(y, r, leaves)
        m = leaf_count(want)
        assert tree_ratio(want, r) == y
        assert construct_dissection(y, r, m) == want
        assert construct_dissection(y, r, m + 1) == want
        if m > 1:
            assert same(y, r, m - 1) is None


@pytest.mark.parametrize("field, r", cases())
def test_unit_class_and_misses(field, r):
    one = field.one
    assert same(r, r, 1) == Leaf(False)
    assert same(one / r, r, 1) == Leaf(r != one)
    for budget in (1, 2, 3, 4, 5):
        same(one, r, budget)
    rng = random.Random(f"miss|{field.p}|{r}")
    misses = 0
    while misses < 2:
        y = field.quad(Fraction(rng.randint(1, 9), rng.randint(1, 9)),
                       Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        if y.sign() <= 0 or decide_rect_ratio(y, r).tileable:
            continue
        assert same(y, r, 5) is None
        misses += 1


@pytest.mark.parametrize(
    "p, budget", [(PS[0], 8), (PS[1], 7), (PS[2], 7), (PS[3], 7)], ids=["2", "3", "5", "5_2"]
)
def test_reachable_ratios_unchanged(p, budget):
    field = FieldParam(p)
    r = field.one + field.sqrt_p
    got = reachable_ratios(r, budget)
    assert got == ref_reachable(r, budget)
    assert reachable_ratios(field.one / r, budget) == got
