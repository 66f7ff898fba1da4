"""Bounded guillotine search for explicit witness dissections.

A guillotine dissection composes ratios in two ways: placing two pieces side
by side (equal heights) adds their width/height ratios, while stacking them
(equal widths) combines the ratios harmonically.  Starting from the seed set
{r, 1/r}, one builder (``_build_level``) adds the ratio classes reachable
with exactly n tiles level by level; a class already reached at a smaller
level keeps that level, and enumeration order is fixed so results are
reproducible.  No join is stored: the join that first reaches a class
(``_first_join``) is derived by lookup when a search needs it.  A search for
one target with a budget of n tiles stops at the first level holding the
target's class, builds levels only up to min(n - 2, ``CACHED_LEVELS``) and
settles every level above them by lookup.
A class is at level m iff it joins a class of level i <= m/2 with one of
level m - i, so the target's residuals against the few classes of levels up
to m/2 are looked up among level m - i instead, in the order the build
would have met them, which gives the same first tree.  A residual that would
lie at an unbuilt level is settled by the same lookup there, whose join's
rank orders it as its position there would; a search keeps each lookup's
result in its memo, so a (class, level) pair that several residuals reach is
settled once.  A miss is only a miss: the search is depth-bounded and
guillotine-only, so NotFound (None) never proves impossibility; the
decision procedure is the authority on that.

Levels up to ``CACHED_LEVELS`` (7) tiles depend only on the tile class, so
the tables of the ``CACHED_CLASSES`` (4) classes used last are kept for the
whole process.  They grow under a lock, one level at a time and only as far
as a call needs, so a cold search builds what it would without them and a
later one only the levels no earlier call needed.  No search builds a
deeper level; an enumeration above 7 tiles builds its deeper levels with the
same builder in a private copy that it drops.  An enumeration allocates one
key tuple and one ``Quad`` per class and nothing cyclic, so it pauses
automatic garbage collection, process-wide, while it builds and wraps them;
the collector would otherwise traverse the growing heap again and again.
The last of overlapping pauses restores the state that the first one found.
A search keeps the joins it derives in its own memo, and its own leaf
record, since r and 1/r share a class but not a leaf orientation.

The search runs on the bare canonical keys (A, B, D) that ``Quad`` stores
(see ``exactfield``), through the same key functions, so the hot loop is
plain integer gcd arithmetic with no object per candidate; results are
wrapped back into ``Quad`` without conversion.  Every stored class is its own
representative, so of the four sums a pair of classes x, y >= 1 makes, only
1/x + 1/y can fall below 1; the builder adds them inline and tests the sign
of that one alone.  The reachable sets are closed under inversion (both
composition rules commute with it), so only one representative per
{x, 1/x} class is stored; the mirror tree (joins swapped, leaf orientations
flipped) realizes the inverse ratio.
"""

from __future__ import annotations

import gc
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice
from math import gcd
from typing import Mapping, Union

from .exactfield import Key, Quad, int_sign, key_add, key_inv
from .geometry import Dissection, Point, Rect, rect_ratio

__all__ = [
    "Leaf",
    "HJoin",
    "VJoin",
    "CompositionTree",
    "tree_ratio",
    "leaf_count",
    "construct_dissection",
    "reachable_ratios",
    "ratio_class_rep",
    "realize_tree",
]


@dataclass(frozen=True)
class Leaf:
    """One tile: ratio r as-is, 1/r when rotated."""

    rotated: bool = False


@dataclass(frozen=True)
class HJoin:
    """Side-by-side join with equal heights; ratios add."""

    left: "CompositionTree"
    right: "CompositionTree"


@dataclass(frozen=True)
class VJoin:
    """Stacked join with equal widths; ratios combine harmonically."""

    bottom: "CompositionTree"
    top: "CompositionTree"


CompositionTree = Union[Leaf, HJoin, VJoin]


def _subtree_ratios(tree: CompositionTree, tile_ratio: Quad) -> dict[int, Quad]:
    """The ratio of every subtree of ``tree``, keyed by ``id``, in one pass."""
    leaf = (tile_ratio, 1 / tile_ratio)
    ratios: dict[int, Quad] = {}

    def walk(t: CompositionTree) -> Quad:
        if isinstance(t, Leaf):
            q = leaf[t.rotated]
        elif isinstance(t, HJoin):
            q = walk(t.left) + walk(t.right)
        else:
            b, u = walk(t.bottom), walk(t.top)
            q = b * u / (b + u)
        ratios[id(t)] = q
        return q

    walk(tree)
    return ratios


def tree_ratio(tree: CompositionTree, tile_ratio: Quad) -> Quad:
    return _subtree_ratios(tree, tile_ratio)[id(tree)]


def leaf_count(tree: CompositionTree) -> int:
    if isinstance(tree, Leaf):
        return 1
    if isinstance(tree, HJoin):
        return leaf_count(tree.left) + leaf_count(tree.right)
    return leaf_count(tree.bottom) + leaf_count(tree.top)


def _canon(key: Key, P: int) -> tuple[Key, bool]:
    """The representative >= 1 of key's class {x, 1/x}, and if it is 1/key."""
    a, b, d = key
    if int_sign(a - d, b, P) >= 0:
        return key, False
    return key_inv(key, P), True


# A join record is (xkey, ykey, code): the class joins x and y side by side,
# x inverted if code & _FX, y if code & _FY, and the sum is inverted to its
# representative if code & _OUTER.  (2 * fx + fy) orders the four orientations
# as the build visits them.  A leaf record is (None, None, rotated).
_FY = 1
_FX = 2
_OUTER = 4

# Tile classes whose levels up to CACHED_LEVELS are kept across calls, least
# recently used first.  Four classes hold about 4 MB: for r = 1 + sqrt(p),
# p in {2, 3, 5}, the tables to level 7, indexes included, cover about 4,170
# classes in 0.9-1.1 MB (tracemalloc), while level 8 alone would add about
# 4 MB per class, so a search looks deeper levels up and an enumeration
# builds them in a private copy that it drops.
CACHED_LEVELS = 7
CACHED_CLASSES = 4

# level_of: each class -> its level; levels: each level's classes in build
# order; inv_of: each class below the newest level -> its inverse;
# indexes: each level's {class: position}.
Tables = tuple[dict[Key, int], list[list[Key]], dict[Key, Key], list[dict[Key, int]]]
_cache: OrderedDict[tuple[Key, int], Tables] = OrderedDict()
_cache_lock = threading.Lock()


def _tile_level(rep: Key) -> Tables:
    """The tables of tile class rep, holding levels 0 and 1."""
    return {rep: 1}, [[], [rep]], {}, [{}, {rep: 0}]


def _build_level(
    level_of: dict[Key, int], levels: list[list[Key]], inv_of: dict[Key, Key], P: int
) -> None:
    """Append level n = len(levels): each class first reached by joining a
    class of level i <= n/2 with one of level n - i, entered in ``level_of``
    as it is met.  Level n - 1's inverses go into ``inv_of`` first, as this
    build is the first to read them."""
    n = len(levels)
    for ck in levels[n - 1]:
        inv_of[ck] = key_inv(ck, P)
    # the classes this build adds to ``level_of``, in order, are level n
    first = len(level_of)
    for i in range(1, n // 2 + 1):
        ys = [(*y, *inv_of[y]) for y in levels[n - i]]
        for xi, x in enumerate(levels[i]):
            a1, b1, d1 = x
            a3, b3, d3 = inv_of[x]
            # Every stored class is its own representative, so x, y >= 1:
            # x + y, x + 1/y and 1/x + y exceed 1 and are their class's
            # representative as they are, and only 1/x + 1/y needs the sign
            # test.  Each sum is key_add spelled out, less key_norm's sign
            # flip (both denominators are positive), in join-code order.
            for a2, b2, d2, a4, b4, d4 in ys[xi:] if 2 * i == n else ys:
                a, b, d = a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2
                g = gcd(a, b, d)
                level_of.setdefault((a // g, b // g, d // g) if g > 1 else (a, b, d), n)
                a, b, d = a1 * d4 + a4 * d1, b1 * d4 + b4 * d1, d1 * d4
                g = gcd(a, b, d)
                level_of.setdefault((a // g, b // g, d // g) if g > 1 else (a, b, d), n)
                a, b, d = a3 * d2 + a2 * d3, b3 * d2 + b2 * d3, d3 * d2
                g = gcd(a, b, d)
                level_of.setdefault((a // g, b // g, d // g) if g > 1 else (a, b, d), n)
                a, b, d = a3 * d4 + a4 * d3, b3 * d4 + b4 * d3, d3 * d4
                g = gcd(a, b, d)
                ck = (a // g, b // g, d // g) if g > 1 else (a, b, d)
                level_of.setdefault(key_inv(ck, P) if int_sign(a - d, b, P) < 0 else ck, n)
    levels.append(list(islice(level_of, first, None)))


def _tables(rep: Key, P: int, n: int) -> Tables:
    """The shared tables of tile class rep, grown to level min(n, CACHED_LEVELS).

    Tables are only ever extended, one whole level at a time, and the index
    of a level is added once the level is complete, so readers need no lock.
    A level n's classes enter ``level_of`` while it is built, before it is in
    ``levels``.  A search that meets such a class still finds its tree: n is
    its first level, as ``setdefault`` keeps the first, and every level below
    n is complete, so ``_first_join``'s preconditions hold at level n; and
    ``_first_join`` treats a level with no index yet as not built and settles
    it by lookup, so it never reads a level in progress.
    """
    with _cache_lock:
        tables = _cache[rep, P] = _cache.pop((rep, P), None) or _tile_level(rep)
        if len(_cache) > CACHED_CLASSES:
            _cache.popitem(last=False)
        level_of, levels, inv_of, indexes = tables
        while len(levels) <= min(n, CACHED_LEVELS):
            _build_level(level_of, levels, inv_of, P)
            indexes.append({k: y for y, k in enumerate(levels[-1])})
        return tables


def _first_join(
    t: Key,
    n: int,
    levels: list[list[Key]],
    indexes: list[dict[Key, int]],
    memo: dict,
    P: int,
) -> tuple[tuple, tuple] | None:
    """The join record of the class t >= 1 at level n, the first join that
    building level n meets, with its rank (i, x index, y index, 2 * fx + fy),
    or None if t is not reachable with n tiles.  t must lie at no level
    below n, and every level up to n/2 must be built.

    t is at level n iff u_x + u_y is t or 1/t for some x in level i <= n/2
    and y in level n - i, where u_x is x or 1/x.  So each x looks up its
    positive residuals t - u_x and 1/t - u_x, canonicalized, among the
    classes of level n - i.  The build visits (i, x, y, orientation) in
    order and keeps the first hit, so x keeps its smallest (y index, fx, fy)
    candidate and the first x with one wins; that tuple, prefixed by i and
    x's index, is the rank, and it orders the classes of level n exactly as
    their positions do.  The build pairs x only with y at or after it when
    i = n - i, but the lookup needs no such guard: a candidate y before x
    would have found x in its own, earlier lookup.

    Level j counts as built iff it has an index (j < len(indexes)).  If
    level n - i is not built, a residual against level i is settled by its
    own lookup at level n - i, and its rank stands in for its index there.
    That lookup's precondition holds: a residual at a level k below n - i
    would put t at level i + k < n, so by induction it holds for every
    residual the recursion visits, so a class has a hit at one level only.
    ``memo`` keeps each lookup's result by (class, level), so another
    residual path to the same pair reuses it.  The inverses of the few
    classes scanned, at levels up to n/2, are computed here.
    """
    sums = [(t, 0)]
    if t != (1, 0, 1):
        sums.append((key_inv(t, P), _OUTER))
    for i in range(1, n // 2 + 1):
        j = n - i
        index = indexes[j] if j < len(indexes) else None
        for xi, xkey in enumerate(levels[i]):
            best = None
            for fx, (a, b, d) in ((0, xkey), (_FX, key_inv(xkey, P))):
                for s, outer in sums:
                    res = key_add(s, (-a, -b, d))
                    if int_sign(res[0], res[1], P) <= 0:
                        continue
                    ykey, fy = _canon(res, P)
                    if index is not None:
                        y = index.get(ykey)
                        if y is None:
                            continue
                    else:
                        if (ykey, j) not in memo:
                            memo[ykey, j] = _first_join(ykey, j, levels, indexes, memo, P)
                        hit = memo[ykey, j]
                        if hit is None:
                            continue
                        y = hit[1]
                    orient = fx | (_FY if fy else 0)
                    cand = (y, orient, outer, ykey)
                    if best is None or cand < best:
                        best = cand
            if best is not None:
                y, orient, outer, ykey = best
                return (xkey, ykey, orient | outer), (i, xi, y, orient)
    return None


def _build_tree(nodes: Mapping, key: Key, inv: bool) -> CompositionTree:
    lk, rk, code = nodes[key]
    if lk is None:
        return Leaf(rotated=code != inv)
    fl, fr = bool(code & _FX), bool(code & _FY)
    if bool(code & _OUTER) != inv:
        # The mirror of a side-by-side join is a stack of mirrored children.
        return VJoin(_build_tree(nodes, lk, not fl), _build_tree(nodes, rk, not fr))
    return HJoin(_build_tree(nodes, lk, fl), _build_tree(nodes, rk, fr))


def _check_search_inputs(r: Quad, max_leaves: int) -> None:
    if max_leaves < 1:
        raise ValueError("max_leaves must be at least 1")
    if r.sign() <= 0:
        raise ValueError("tile ratio must be positive")


def construct_dissection(y: Quad, r: Quad, max_leaves: int = 8) -> CompositionTree | None:
    """First (smallest, in leaves) guillotine composition of ratio exactly y
    from tiles of ratio r, or None if none exists within ``max_leaves``.

    None is not a proof of impossibility; the search is bounded and only
    explores guillotine cuts.  It reaches at most 15 tiles: with a larger
    budget, a target with no witness of up to 15 raises ValueError.
    """
    _check_search_inputs(r, max_leaves)
    if y.sign() <= 0:
        raise ValueError("rectangle ratio must be positive")
    if y.field != r.field:
        raise ValueError("ratios must share one field parameter")
    P = r.field.radicand
    rep, rotated = _canon(r.key, P)
    tkey, tinv = _canon(y.key, P)
    level_of, levels, _, indexes = _tables(rep, P, 1)
    # Every level below ``built`` is complete, so a target not in
    # ``level_of`` after it is read lies at or beyond it; one in it is at
    # its first level, which a warm table may hold beyond the budget.
    built = len(levels)
    n = level_of.get(tkey)
    memo: dict = {}
    if n is None:
        for n in range(built, max_leaves + 1):
            if n <= min(max_leaves - 2, CACHED_LEVELS):
                level_of, levels, _, indexes = _tables(rep, P, n)
                if tkey in level_of:
                    n = level_of[tkey]
                    break
            elif n > 2 * CACHED_LEVELS + 1:
                # level n's lookup would scan the unbuilt levels up to n/2
                raise ValueError(
                    f"no witness within {n - 1} tiles; the search reaches no further")
            else:
                memo[tkey, n] = _first_join(tkey, n, levels, indexes, memo, P)
                if memo[tkey, n] is not None:
                    break
        else:
            return None
    if n > max_leaves:
        return None
    # Each class's record is its first join at its one level, read down from
    # the target: a hit of rank (i, ...) at level m joins a class of level i
    # with one of level m - i.  The leaf is this call's own, as r and 1/r
    # share a class but not a leaf orientation.
    records = {rep: (None, None, rotated)}
    todo = [(tkey, n)]
    while todo:
        k, m = todo.pop()
        if k in records:
            continue
        if (k, m) not in memo:
            memo[k, m] = _first_join(k, m, levels, indexes, memo, P)
        join, (i, *_) = memo[k, m]
        records[k] = join
        todo += (join[0], i), (join[1], m - i)
    return _build_tree(records, tkey, tinv)


def ratio_class_rep(y: Quad) -> Quad:
    """Canonical representative of the similarity class {y, 1/y}: the one >= 1."""
    if y.sign() <= 0:
        raise ValueError("ratio must be positive")
    return Quad(_canon(y.key, y.field.radicand)[0], y.field)


# The pauses of overlapping enumerations, in any threads, nest: the first
# records whether the collector was on and the last restores that, as an
# isenabled()/disable() pair per call could race and leave it off for good.
_gc_lock = threading.Lock()
_gc_depth = 0
_gc_was_enabled = False


@contextmanager
def _gc_paused():
    global _gc_depth, _gc_was_enabled
    with _gc_lock:
        if _gc_depth == 0:
            _gc_was_enabled = gc.isenabled()
            gc.disable()
        _gc_depth += 1
    try:
        yield
    finally:
        with _gc_lock:
            _gc_depth -= 1
            if _gc_depth == 0 and _gc_was_enabled:
                gc.enable()


def reachable_ratios(r: Quad, max_leaves: int) -> dict[Quad, int]:
    """Every ratio class reachable from tiles of ratio r within the leaf
    budget, as canonical representative -> minimal leaf count.

    Automatic garbage collection is paused, process-wide, while the call
    builds and wraps its classes, and is then restored to its prior state.
    """
    _check_search_inputs(r, max_leaves)
    P = r.field.radicand
    rep = _canon(r.key, P)[0]
    level_of, levels, inv_of, _ = _tables(rep, P, max_leaves)
    levels = levels[: max_leaves + 1]
    with _gc_paused():
        if max_leaves > CACHED_LEVELS:
            # levels beyond the cache are built privately
            level_of, inv_of = level_of.copy(), inv_of.copy()
            while len(levels) <= max_leaves:
                _build_level(level_of, levels, inv_of, P)
        # dropped before the keys are wrapped, to lower the peak memory
        del level_of, inv_of
        return {Quad(k, r.field): n for n, keys in enumerate(levels) for k in keys}


def realize_tree(tree: CompositionTree, target: Rect, tile_ratio: Quad) -> Dissection:
    """Turn a composition tree into exact tile coordinates inside ``target``.

    The tree's ratio must equal the target's width/height ratio exactly;
    each join sizes its first child from that child's ratio and leaves the
    rest to the second, so every leaf comes out with ratio ``tile_ratio`` or
    its inverse.  Tiles are listed in depth-first order (left before right,
    bottom before top).
    """
    ratios = _subtree_ratios(tree, tile_ratio)
    if ratios[id(tree)] != rect_ratio(target):
        raise ValueError("tree ratio does not match the target rectangle")
    tiles: list[Rect] = []

    def place(t: CompositionTree, x: Quad, y: Quad, w: Quad, h: Quad) -> None:
        if isinstance(t, Leaf):
            tiles.append(Rect(Point(x, y), w, h))
            return
        if isinstance(t, HJoin):
            wl = h * ratios[id(t.left)]
            place(t.left, x, y, wl, h)
            place(t.right, x + wl, y, w - wl, h)
            return
        hb = w / ratios[id(t.bottom)]
        place(t.bottom, x, y, w, hb)
        place(t.top, x, y + hb, w, h - hb)

    place(tree, target.x, target.y, target.width, target.height)
    return Dissection(target.to_polygon(), tuple(tiles))
