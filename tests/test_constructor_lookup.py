"""The residual lookups against the forward search they replaced.

``ref_expand`` is the earlier forward search: it builds every level up to the
leaf budget (stopping at the first level that holds the target's class) and
keeps the first join that reaches each class.  ``construct_dissection`` now
builds levels only up to min(budget - 2, ``CACHED_LEVELS``) and settles every
level above them by residual lookup, recursively through the levels it did
not build (at budget 11 through levels 10, 9 and 8), and must return the
same tree, or None, for every target and budget: at the minimal leaf count
the first hit lies on a looked-up level, where the tie-break between joins
decides the tree.  ``reachable_ratios`` still builds every level, those
above ``CACHED_LEVELS`` in a private copy of the tables, so it must return
the same classes in the same order.

Both keep each tile class's levels up to ``CACHED_LEVELS`` across calls, so
the same checks run again on warm, shared and evicted tables, and from a
few threads at once.  Spies on ``_build_level`` and ``_first_join`` show
which levels a search builds and which it looks up, and that a search looks
each (class, level) pair up once.  ``_build_level``, which adds keys inline
and sign-tests one orientation sum in four, must build the reference's
levels class for class, order included, and ``_first_join`` must give every
class the reference's join record.  An enumeration pauses automatic garbage
collection process-wide, so threads and a failing build must leave the
collector as they found it.
"""

import gc
import random
import sys
import threading
from collections import ChainMap
from fractions import Fraction
from functools import cache

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
from quadrect import constructor
from quadrect.constructor import _FX, _FY, _OUTER, _build_tree, _canon
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
    nodes = {rep: (None, None, not r_ge1)}
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
                    code = (_FX if fx else 0) | (_FY if fy else 0) | (_OUTER if outer_inv else 0)
                    nodes[ck] = (xkey, ykey, code)
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


@pytest.mark.parametrize("p", PS, ids=["2", "3", "5", "5_2"])
def test_reachable_ratios_unchanged(p):
    field = FieldParam(p)
    r = field.one + field.sqrt_p
    got = reachable_ratios(r, 8)
    want = ref_reachable(r, 8)
    assert got == want
    # iteration order too: level by level, each in build order
    assert list(got.items()) == list(want.items())
    assert list(reachable_ratios(field.one / r, 8).items()) == list(got.items())


# r = 1 + sqrt(p) for these p, searched at every budget up to TOP
SILVER_PS = [2, 3, 5]
TOP = 9


@cache
def silver_table(p):
    """r, the full forward build to TOP tiles, and each class's level.

    The forward build records a class's node when it first reaches it and
    never changes it, so a build to TOP tiles holds the reference tree of
    every target reachable within TOP tiles, whatever the budget it was
    searched with (``ref_construct`` stops at the first level holding the
    target but records the same nodes up to there).
    """
    field = FieldParam(Fraction(p))
    r = field.one + field.sqrt_p
    nodes, levels, _ = ref_expand(r, TOP, None)
    level_of = {k: n for n, keys in enumerate(levels) for k in keys}
    return r, nodes, levels, level_of


def targets(r, key):
    """The class key's ratio and, unless it is 1, its inverse, each with
    the orientation flag the search canonicalizes it to."""
    y = Quad(key, r.field)
    if key == (1, 0, 1):
        return [(y, False)]
    return [(y, False), (r.field.one / y, True)]


def sample(rng, keys, count):
    """The first and last class of a level plus ``count`` seeded others."""
    if len(keys) <= count + 2:
        return list(keys)
    return [keys[0], keys[-1]] + rng.sample(keys[1:-1], count)


@pytest.mark.parametrize("p", SILVER_PS)
def test_first_hit_on_the_two_looked_up_levels(p):
    r, nodes, levels, _ = silver_table(p)
    rng = random.Random(f"top|{p}")
    for budget in range(2, TOP + 1):
        # budget - 1 is settled by a plain lookup, budget by a recursive one
        for level in (budget - 1, budget):
            for key in sample(rng, levels[level], 4):
                for y, inv in targets(r, key):
                    want = _build_tree(nodes, key, inv)
                    assert construct_dissection(y, r, budget) == want, (p, budget, key)
                    if level == budget:
                        assert construct_dissection(y, r, budget - 1) is None


@pytest.fixture
def cold_cache():
    """Empties the process-wide level cache, so the test's first search is
    cold; the returned function empties it again inside a loop."""

    def clear():
        with constructor._cache_lock:
            constructor._cache.clear()

    clear()
    return clear


def spy_builds(monkeypatch):
    """The level built by each ``_build_level`` call, in call order."""
    built = []
    build_level = constructor._build_level

    def spy(level_of, levels, inv_of, P):
        build_level(level_of, levels, inv_of, P)
        built.append(len(levels) - 1)

    monkeypatch.setattr(constructor, "_build_level", spy)
    return built


@pytest.mark.parametrize("field, r", cases())
def test_budgets_that_build_nothing_beyond_level_one(field, r, monkeypatch, cold_cache):
    _nodes, levels, _ = ref_expand(r, 4, None)
    built = spy_builds(monkeypatch)
    for keys in levels:
        for key in keys:
            for y, _inv in targets(r, key):
                for budget in (1, 2, 3):
                    assert construct_dissection(y, r, budget) == ref_construct(y, r, budget)
    assert built == []


def level_one_residuals(rep, t, P, level_of, level):
    """The distinct classes at ``level`` that the tile class rep, as a tile
    or rotated, joins to t or 1/t."""
    sums = [t] if t == (1, 0, 1) else [t, key_inv(t, P)]
    found = set()
    for a, b, d in (rep, key_inv(rep, P)):
        for s in sums:
            res = key_add(s, (-a, -b, d))
            if int_sign(res[0], res[1], P) <= 0:
                continue
            c = res if _kge1(res, P) else key_inv(res, P)
            if level_of.get(c) == level:
                found.add(c)
    return found


@pytest.mark.parametrize("p", [2, 3])
def test_nine_tile_enumeration_lists_the_forward_levels(p):
    r, _nodes, levels, _ = silver_table(p)
    got = reachable_ratios(r, TOP)
    want = [(Quad(k, r.field), n) for n, keys in enumerate(levels) for k in keys]
    assert list(got.items()) == want


@pytest.mark.parametrize("p", SILVER_PS)
def test_rank_decides_between_two_unbuilt_residuals(p):
    # At budget n, level n - 1 is not built; when a level-n target has two
    # level-1 residuals on level n - 1, only their ranks order them.
    r, nodes, levels, level_of = silver_table(p)
    rng = random.Random(f"tie|{p}")
    P = r.field.radicand
    for n in range(3, TOP + 1):
        ties = [t for t in levels[n]
                if len(level_one_residuals(levels[1][0], t, P, level_of, n - 1)) >= 2]
        assert ties, (p, n)
        for key in sample(rng, ties, 6):
            for y, inv in targets(r, key):
                assert construct_dissection(y, r, n) == _build_tree(nodes, key, inv), (p, n, key)


@cache
def unit_table():
    """r = 1, the forward build to 11 tiles, and its levels: the unit tile
    reaches only 3,028 classes at levels 8-11, so the build takes about
    0.02 s."""
    r = FieldParam(2).one
    nodes, levels, _ = ref_expand(r, 11, None)
    return r, nodes, levels


def test_unit_tile_lookups_through_up_to_three_unbuilt_levels():
    # at budget 11 a level-11 class is looked up through levels 10, 9 and 8
    r, nodes, levels = unit_table()
    rng = random.Random("unit")
    for level in range(8, 12):
        for key in sample(rng, levels[level], 12):
            for y, inv in targets(r, key):
                want = _build_tree(nodes, key, inv)
                for budget in (10, 11):
                    if budget >= level:
                        assert construct_dissection(y, r, budget) == want, (budget, key)
                assert construct_dissection(y, r, level - 1) is None, key


@pytest.mark.parametrize("p", SILVER_PS)
def test_silver_levels_eight_and_nine_at_budgets_ten_and_eleven(p):
    r, nodes, levels, _ = silver_table(p)
    rng = random.Random(f"deep|{p}")
    for level in (8, 9):
        for key in sample(rng, levels[level], 4):
            for y, inv in targets(r, key):
                want = _build_tree(nodes, key, inv)
                for budget in (10, 11):
                    assert construct_dissection(y, r, budget) == want, (p, budget, key)


def certified_miss(field, r):
    """A target the decision procedure proves untileable."""
    rng = random.Random(f"certified|{field.p}")
    while True:
        y = field.quad(Fraction(rng.randint(1, 9), rng.randint(1, 9)),
                       Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        if y.sign() > 0 and not decide_rect_ratio(y, r).tileable:
            return y


@pytest.mark.parametrize("budget", range(1, 12))
def test_miss_builds_no_level_beyond_budget_minus_two(budget, monkeypatch, cold_cache):
    field = FieldParam(2)
    r = field.one + field.sqrt_p
    y = certified_miss(field, r)
    tables = []
    tile_level = constructor._tile_level

    def spy(rep):
        tables.append(tile_level(rep))
        return tables[-1]

    monkeypatch.setattr(constructor, "_tile_level", spy)
    built = spy_builds(monkeypatch)
    assert construct_dissection(y, r, budget) is None
    # builds of levels 2 to min(budget - 2, CACHED_LEVELS), none above 7
    top = min(budget - 2, constructor.CACHED_LEVELS)
    assert built == list(range(2, top + 1))
    [(level_of, levels, _inv_of, _indexes)] = tables
    assert _canon(y.key, field.radicand)[0] not in level_of
    assert len(levels) - 1 == max(1, top)
    assert_consistent(tables[0])


@pytest.mark.parametrize("level", range(1, TOP - 1))
def test_hit_builds_up_to_its_level_and_stops(level, monkeypatch, cold_cache):
    # budget TOP builds levels up to TOP - 2, so a class first reached at a
    # level k <= TOP - 2 stops the search after the k - 1 builds that reach it
    r, nodes, levels, _ = silver_table(2)
    rng = random.Random(f"hit|{level}")
    built = spy_builds(monkeypatch)
    for key in sample(rng, levels[level], 2):
        for y, inv in targets(r, key):
            cold_cache()
            built.clear()
            want = _build_tree(nodes, key, inv)
            assert construct_dissection(y, r, TOP) == want
            assert built == list(range(2, level + 1)), (level, key)
            # the same class again finds its levels cached
            built.clear()
            assert construct_dissection(y, r, TOP) == want
            assert built == []


def spy_lookups(monkeypatch):
    """(level, result) of each ``_first_join`` call, the recursive ones too."""
    calls = []
    first_join = constructor._first_join

    def spy(t, n, *rest):
        found = first_join(t, n, *rest)
        calls.append((n, found))
        return found

    monkeypatch.setattr(constructor, "_first_join", spy)
    return calls


def test_nine_tile_miss_creates_no_level_eight_class(monkeypatch):
    field = FieldParam(2)
    r = field.one + field.sqrt_p
    y = certified_miss(field, r)
    calls = spy_lookups(monkeypatch)
    assert construct_dissection(y, r, 9) is None
    # level 8 is only ever probed, for the level-1 residuals of level 9
    assert sorted({n for n, _ in calls}) == [8, 9]
    assert sum(n == 8 for n, _ in calls) > 1
    assert all(found is None for _, found in calls)


def test_eleven_tile_miss_only_looks_up_levels_eight_to_eleven(monkeypatch):
    field = FieldParam(2)
    r = field.one + field.sqrt_p
    y = certified_miss(field, r)
    built = spy_builds(monkeypatch)
    calls = spy_lookups(monkeypatch)
    assert construct_dissection(y, r, 11) is None
    assert all(level <= constructor.CACHED_LEVELS for level in built)
    # levels 8-10 are probed again below level 11, for the residuals there
    assert sorted({n for n, _ in calls}) == [8, 9, 10, 11]
    assert [n for n, _ in calls].count(11) == 1
    assert sum(n == 8 for n, _ in calls) > 1
    assert all(found is None for _, found in calls)


@pytest.mark.parametrize("cached", [2, 4])
def test_fewer_cached_levels_give_the_same_trees(cached, monkeypatch, cold_cache):
    # With c cached levels the lookups reach budget 2c + 1 through up to c
    # unbuilt levels; one tile more would scan a level above c, so the
    # search ends there.
    monkeypatch.setattr(constructor, "CACHED_LEVELS", cached)
    r, nodes, levels, _ = silver_table(2)
    top = 2 * cached + 1
    rng = random.Random(f"cached|{cached}")
    for level in range(cached + 1, top + 1):
        for key in sample(rng, levels[level], 2):
            for y, inv in targets(r, key):
                assert construct_dissection(y, r, top) == _build_tree(nodes, key, inv)
                assert construct_dissection(y, r, level - 1) is None
    y = Quad(levels[2][0], r.field)
    assert construct_dissection(y, r, top + 1) == _build_tree(nodes, levels[2][0], False)
    with pytest.raises(ValueError, match=f"no witness within {top} tiles"):
        construct_dissection(certified_miss(r.field, r), r, top + 1)
    cold_cache()


def reference(p, tile, y, budget):
    """``ref_construct(y, tile, budget)`` for tile r = 1 + sqrt(p) or 1/r and
    budget <= TOP, read off the full forward build: only the leaf record
    depends on which of the two the tile is."""
    r, nodes, levels, level_of = silver_table(p)
    tkey, tinv = _canon(y.key, r.field.radicand)
    if level_of.get(tkey, TOP + 1) > budget:
        return None
    leaf = {levels[1][0]: (None, None, tile != r)}
    return _build_tree(ChainMap(leaf, nodes), tkey, tinv)


def cached_tables(r):
    """The shared tables of r's class, or None if it is not cached."""
    P = r.field.radicand
    return constructor._cache.get((_canon(r.key, P)[0], P))


def assert_consistent(tables):
    """Exactly the classes of the built levels are in ``level_of``, each with
    its level, and each built level has its {class: position} index."""
    level_of, levels, _inv_of, indexes = tables
    assert len(levels) - 1 <= constructor.CACHED_LEVELS
    assert len(level_of) == sum(map(len, levels))
    assert level_of == {k: n for n, keys in enumerate(levels) for k in keys}
    assert indexes == [{k: i for i, k in enumerate(keys)} for keys in levels]


@pytest.mark.parametrize("inverse_first", [False, True], ids=["r_first", "inverse_first"])
def test_cold_and_warm_searches_agree_for_r_and_its_inverse(inverse_first, cold_cache):
    r, _nodes, levels, _ = silver_table(2)
    tiles = [r, r.field.one / r]
    if inverse_first:
        tiles.reverse()
    rng = random.Random("warm")
    ys = [y for level in range(1, TOP + 1)
          for key in sample(rng, levels[level], 1) for y, _inv in targets(r, key)]
    ys.append(certified_miss(r.field, r))
    for tile in tiles:
        # the first search is cold; the rest, the other tile's too, are warm
        for y in ys:
            for budget in (4, TOP):
                assert construct_dissection(y, tile, budget) == reference(2, tile, y, budget)
    assert_consistent(cached_tables(r))


def test_more_tile_classes_than_the_cache_holds(cold_cache):
    field = FieldParam(2)
    tiles = tile_ratios(field)
    classes = {_canon(t.key, field.radicand)[0] for t in tiles}
    assert len(classes) > constructor.CACHED_CLASSES
    rng = random.Random("evict")
    for _ in range(2):
        for r in tiles:
            y = tree_ratio(random_tree(rng, rng.randint(2, 6)), r)
            for budget in (4, 6):
                same(y, r, budget)
            assert reachable_ratios(r, 5) == ref_reachable(r, 5)
            assert len(constructor._cache) <= constructor.CACHED_CLASSES
            assert_consistent(cached_tables(r))


@pytest.mark.parametrize("budget", [7, TOP])
def test_lookup_nodes_stay_out_of_the_shared_tables(budget, cold_cache):
    # A class at level budget - 1 is settled by lookup at budget and at
    # budget - 1; a leaked node would hide it from the level build later.
    r, _nodes, levels, _ = silver_table(2)
    key = sample(random.Random(f"leak|{budget}"), levels[budget - 1], 1)[0]
    for y, _inv in targets(r, key):
        for b in (budget, budget - 1, budget - 2):
            assert construct_dissection(y, r, b) == reference(2, r, y, b)
        assert key not in cached_tables(r)[0]
    assert reachable_ratios(r, 7) == ref_reachable(r, 7)
    assert_consistent(cached_tables(r))


def test_budgets_ten_and_eleven_leave_the_cached_levels_unchanged(cold_cache):
    r, _nodes, levels, _ = silver_table(2)
    miss = certified_miss(r.field, r)
    assert construct_dissection(miss, r, TOP) is None
    level_of, levels_before, inv_of, indexes = cached_tables(r)
    before = (dict(level_of), [list(keys) for keys in levels_before], dict(inv_of),
              [dict(index) for index in indexes])
    assert construct_dissection(miss, r, 10) is None
    # levels 8 and above are looked up, and no search builds them
    key = sample(random.Random("deep"), levels[8], 1)[0]
    y = Quad(key, r.field)
    assert construct_dissection(y, r, 11) == reference(2, r, y, TOP)
    assert cached_tables(r) == before
    assert_consistent(cached_tables(r))
    assert construct_dissection(y, r, TOP) == reference(2, r, y, TOP)


@pytest.mark.parametrize("budget", [5, 8])
def test_reachable_ratios_returns_a_fresh_dict(budget):
    field = FieldParam(2)
    r = field.one + field.sqrt_p
    got = reachable_ratios(r, budget)
    want = ref_reachable(r, budget)
    assert got == want
    got.clear()
    got[field.one] = 99
    assert reachable_ratios(r, budget) == want


def test_threads_on_a_cold_cache_match_a_serial_run(cold_cache):
    rng = random.Random("threads")
    jobs = []
    for p in (2, 3):
        r, _nodes, levels, _ = silver_table(p)
        for tile in (r, r.field.one / r):
            for level in range(2, TOP + 1):
                for y, _inv in targets(r, sample(rng, levels[level], 1)[0]):
                    jobs.append((y, tile, rng.randint(level - 1, TOP)))
            jobs.append((certified_miss(r.field, r), tile, TOP))
    serial = [construct_dissection(y, tile, b) for y, tile, b in jobs]
    cold_cache()
    results = [None] * 4

    def run(t):
        # each thread starts at another job, so growth interleaves
        order = list(range(len(jobs)))
        order = order[t::4] + [i for i in order if i % 4 != t]
        results[t] = {i: construct_dissection(*jobs[i]) for i in order}

    threads = [threading.Thread(target=run, args=(t,)) for t in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for got in results:
        assert [got[i] for i in range(len(jobs))] == serial
    for p in (2, 3):
        assert_consistent(cached_tables(silver_table(p)[0]))


def test_a_class_whose_level_is_still_being_built(cold_cache):
    # While one thread builds level n, the classes it has met are in
    # ``level_of`` but level n is in neither ``levels`` nor ``indexes``; a
    # search that meets one there must still return the reference tree.
    r, nodes, ref_levels, _ = silver_table(2)
    P = r.field.radicand
    level_of, levels, inv_of, _indexes = constructor._tables(ref_levels[1][0], P, 6)
    constructor._build_level(level_of, levels, inv_of, P)
    levels.pop()
    try:
        for key in sample(random.Random("building"), ref_levels[7], 4):
            for y, inv in targets(r, key):
                assert construct_dissection(y, r, TOP) == _build_tree(nodes, key, inv)
                assert construct_dissection(y, r, 6) is None
    finally:
        cold_cache()


@pytest.fixture(params=[True, False], ids=["gc_on", "gc_off"])
def gc_state(request):
    """Starts the test with automatic collection on or off, and restores the
    state it found afterwards."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()


def test_threads_enumerating_leave_the_collector_as_they_found_it(gc_state):
    # Overlapping enumerations share one pause: the last to finish restores
    # the collector's state from before the first began.
    jobs = []
    for p in (2, 3):
        field = FieldParam(p)
        r = field.one + field.sqrt_p
        jobs += [r, field.one / r]
    serial = [list(reachable_ratios(r, 8).items()) for r in jobs]
    results = [None] * 4
    # the threads start each round together, so their pauses overlap
    rounds = threading.Barrier(4)

    def run(t):
        got = []
        for k in range(4):
            rounds.wait(timeout=60)
            got.append(list(reachable_ratios(jobs[(t + k) % 4], 8).items()))
        results[t] = got

    threads = [threading.Thread(target=run, args=(t,)) for t in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for t, got in enumerate(results):
        assert got == [serial[(t + k) % 4] for k in range(4)]
    assert gc.isenabled() == gc_state
    assert constructor._gc_depth == 0


def test_a_failing_enumeration_restores_the_collector(gc_state, monkeypatch):
    def fail(*args):
        assert not gc.isenabled()
        raise RuntimeError("build failed")

    field = FieldParam(2)
    r = field.one + field.sqrt_p
    # the cached levels are built first, so the only failing build is level
    # 8's, inside the pause
    reachable_ratios(r, constructor.CACHED_LEVELS)
    monkeypatch.setattr(constructor, "_build_level", fail)
    with pytest.raises(RuntimeError, match="build failed"):
        reachable_ratios(r, 8)
    assert gc.isenabled() == gc_state
    assert constructor._gc_depth == 0


def built_tables(r, top, monkeypatch):
    """The tables of r's class as ``_tables`` grows them to level ``top``,
    from a fresh start.  The cache is emptied before and after, so no other
    test finds a level above ``CACHED_LEVELS`` in it."""
    monkeypatch.setattr(constructor, "CACHED_LEVELS", top)
    P = r.field.radicand
    with constructor._cache_lock:
        constructor._cache.clear()
    try:
        return constructor._tables(_canon(r.key, P)[0], P, top)
    finally:
        with constructor._cache_lock:
            constructor._cache.clear()


def build_cases():
    out = []
    for p in (Fraction(2), Fraction(3), Fraction(5, 2)):
        field = FieldParam(p)
        silver = field.one + field.sqrt_p
        tiles = {"one": field.one, "two": field.quad(2), "half": field.quad(Fraction(1, 2)),
                 "silver": silver, "silver_inv": field.one / silver}
        for name, r in tiles.items():
            out.append(pytest.param(r, id=f"p{p}-{name}".replace("/", "_")))
    return out


@pytest.mark.parametrize("r", build_cases())
def test_built_tables_match_the_forward_reference(r, monkeypatch):
    # The builder adds three of the four orientation sums without a sign
    # test; its levels must still be the reference's, in order, and the
    # first join of each class the reference's record.
    P = r.field.radicand
    tables = built_tables(r, 8, monkeypatch)
    level_of, levels, inv_of, indexes = tables
    ref_nodes, ref_levels, _ = ref_expand(r, 8, None)
    assert levels == ref_levels
    assert_consistent(tables)
    assert inv_of == {k: key_inv(k, P) for keys in levels[:8] for k in keys}
    for n in range(2, 9):
        hits = [constructor._first_join(k, n, levels, indexes, {}, P) for k in levels[n]]
        assert [join for join, _rank in hits] == [ref_nodes[k] for k in levels[n]]
        # the ranks order the level as the positions do
        ranks = [rank for _join, rank in hits]
        assert ranks == sorted(ranks) and len(set(ranks)) == len(ranks)
    # every stored class is its own representative, which is what lets the
    # builder skip the sign test of x + y, x + 1/y and 1/x + y
    for keys in levels:
        for a, b, d in keys:
            assert int_sign(a - d, b, P) >= 0


def test_half_plus_half_is_the_unit_class_uninverted(monkeypatch):
    # For r = 2, 1/2 + 1/2 = 1 is the one sum whose sign test reads 0: it is
    # stored as it is, with no outer inversion.
    field = FieldParam(2)
    _level_of, levels, _inv_of, indexes = built_tables(field.quad(2), 2, monkeypatch)
    assert levels[2] == [(4, 0, 1), (5, 0, 2), (1, 0, 1)]
    join, _rank = constructor._first_join((1, 0, 1), 2, levels, indexes, {}, field.radicand)
    assert join == ((2, 0, 1), (2, 0, 1), _FX | _FY)


@pytest.mark.parametrize("budget", [10, 11])
def test_each_lookup_is_settled_once_per_search(budget, monkeypatch):
    # Different residual paths reach the same (class, level) pair; the
    # search's memo settles each pair once and returns the same trees.
    unit, _unit_nodes, unit_levels = unit_table()
    silver, _nodes, silver_levels, _ = silver_table(2)
    rng = random.Random(f"memo|{budget}")
    jobs = [(y, unit, ref_construct(y, unit, budget))
            for level in range(budget - 3, budget + 1)
            for key in sample(rng, unit_levels[level], 3)
            for y, _inv in targets(unit, key)]
    jobs += [(y, silver, reference(2, silver, y, budget))
             for level in (8, 9) for key in sample(rng, silver_levels[level], 2)
             for y, _inv in targets(silver, key)]
    jobs.append((certified_miss(silver.field, silver), silver, None))
    pairs = []
    first_join = constructor._first_join

    def spy(t, n, *rest):
        pairs.append((t, n))
        return first_join(t, n, *rest)

    monkeypatch.setattr(constructor, "_first_join", spy)
    for y, r, want in jobs:
        pairs.clear()
        assert construct_dissection(y, r, budget) == want, (str(y), str(r))
        assert len(pairs) == len(set(pairs)), (str(y), str(r))
    # the last job, a miss, recursed through every level from 8 to budget
    assert sorted({n for _t, n in pairs}) == list(range(8, budget + 1))
