"""Bounded guillotine search for explicit witness dissections.

A guillotine dissection composes ratios in two ways: placing two pieces side
by side (equal heights) adds their width/height ratios, while stacking them
(equal widths) combines the ratios harmonically.  Starting from the seed set
{r, 1/r}, the set of ratios reachable with exactly n tiles is built level by
level; a ratio already reached at a smaller level keeps its first (hence
smallest) witness, and enumeration order is fixed so results are
reproducible.  A miss is only a miss: the search is depth-bounded and
guillotine-only, so NotFound (None) never proves impossibility; the decision
procedure is the authority on that.

Internally ratios are keyed as integer triples (A, B, D) meaning
(A + B*sqrt(P))/D for a square-free-ish integer radicand P, which keeps the
hot loop on plain integer gcd arithmetic.  The reachable sets are closed
under inversion (both composition rules commute with it), so only one
representative per {x, 1/x} class is stored; the mirror tree (joins swapped,
leaf orientations flipped) realizes the inverse ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Union

from .exactfield import FieldParam, Quad
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


def tree_ratio(tree: CompositionTree, tile_ratio: Quad) -> Quad:
    one = tile_ratio.field.one
    if isinstance(tree, Leaf):
        return one / tile_ratio if tree.rotated else tile_ratio
    if isinstance(tree, HJoin):
        return tree_ratio(tree.left, tile_ratio) + tree_ratio(tree.right, tile_ratio)
    rb = tree_ratio(tree.bottom, tile_ratio)
    rt = tree_ratio(tree.top, tile_ratio)
    return one / (one / rb + one / rt)


def leaf_count(tree: CompositionTree) -> int:
    if isinstance(tree, Leaf):
        return 1
    if isinstance(tree, HJoin):
        return leaf_count(tree.left) + leaf_count(tree.right)
    return leaf_count(tree.bottom) + leaf_count(tree.top)


# -- integer kernel ---------------------------------------------------------

_Key = tuple[int, int, int]


def _radicand(field: FieldParam) -> tuple[int, int]:
    # sqrt(pn/pd) = sqrt(pn*pd)/pd, so P = pn*pd is an integer radicand.
    pn, pd = field.p.numerator, field.p.denominator
    return pn * pd, pd


def _norm_key(a: int, b: int, d: int) -> _Key:
    if d < 0:
        a, b, d = -a, -b, -d
    g = gcd(gcd(abs(a), abs(b)), d)
    if g > 1:
        a, b, d = a // g, b // g, d // g
    return (a, b, d)


def _to_key(x: Quad, pd: int) -> _Key:
    a = x.a
    bp = x.b / pd
    d = lcm(a.denominator, bp.denominator)
    return _norm_key(
        a.numerator * (d // a.denominator), bp.numerator * (d // bp.denominator), d
    )


def _from_key(key: _Key, pd: int, field: FieldParam) -> Quad:
    a, b, d = key
    return Quad(Fraction(a, d), Fraction(b * pd, d), field)


def _kadd(k1: _Key, k2: _Key) -> _Key:
    a1, b1, d1 = k1
    a2, b2, d2 = k2
    return _norm_key(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)


def _kinv(key: _Key, P: int) -> _Key:
    a, b, d = key
    return _norm_key(d * a, -d * b, a * a - P * b * b)


def _int_pair_sign(c: int, d: int, P: int) -> int:
    """Sign of c + d*sqrt(P) for integers c, d and non-square P > 0."""
    if d == 0:
        return (c > 0) - (c < 0)
    if c == 0:
        return 1 if d > 0 else -1
    if (c > 0) == (d > 0):
        return 1 if c > 0 else -1
    return (1 if c > 0 else -1) if c * c > P * d * d else (1 if d > 0 else -1)


def _kge1(key: _Key, P: int) -> bool:
    a, b, d = key
    return _int_pair_sign(a - d, b, P) >= 0


_LEAF = "leaf"
_JOIN = "join"


def _expand(
    field: FieldParam, r: Quad, max_leaves: int, target: Quad | None
) -> tuple[dict, list[list[_Key]], tuple[_Key, bool] | None]:
    """Level-by-level reachable-ratio construction with first-found trees."""
    P, pd = _radicand(field)
    rkey = _to_key(r, pd)
    r_ge1 = _kge1(rkey, P)
    rep = rkey if r_ge1 else _kinv(rkey, P)
    nodes: dict[_Key, tuple] = {rep: (_LEAF, not r_ge1)}
    inv_of: dict[_Key, _Key] = {rep: _kinv(rep, P)}
    levels: list[list[_Key]] = [[], [rep]]

    target_entry: tuple[_Key, bool] | None = None
    if target is not None:
        tkey = _to_key(target, pd)
        if _kge1(tkey, P):
            target_entry = (tkey, False)
        else:
            target_entry = (_kinv(tkey, P), True)
        if target_entry[0] in nodes:
            return nodes, levels, target_entry

    for n in range(2, max_leaves + 1):
        new: list[_Key] = []
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
                    s = _kadd(ux, uy)
                    if _kge1(s, P):
                        ck, outer_inv = s, False
                    else:
                        ck, outer_inv = _kinv(s, P), True
                    if ck in nodes:
                        continue
                    nodes[ck] = (_JOIN, xkey, fx, ykey, fy, outer_inv)
                    inv_of[ck] = _kinv(ck, P)
                    new.append(ck)
        levels.append(new)
        if target_entry is not None and target_entry[0] in nodes:
            break
    return nodes, levels, target_entry


def _build_tree(nodes: dict, key: _Key, inv: bool) -> CompositionTree:
    node = nodes[key]
    if node[0] == _LEAF:
        return Leaf(rotated=node[1] ^ inv)
    _, lk, fl, rk, fr, outer_inv = node
    if outer_inv ^ inv:
        # The mirror of a side-by-side join is a stack of mirrored children.
        return VJoin(_build_tree(nodes, lk, not fl), _build_tree(nodes, rk, not fr))
    return HJoin(_build_tree(nodes, lk, fl), _build_tree(nodes, rk, fr))


def _check_search_inputs(y: Quad, r: Quad, max_leaves: int) -> None:
    if max_leaves < 1:
        raise ValueError("max_leaves must be at least 1")
    if r.sign() <= 0:
        raise ValueError("tile ratio must be positive")
    if y.sign() <= 0:
        raise ValueError("target ratio must be positive")
    if y.field != r.field:
        raise ValueError("ratios must share one field parameter")


def construct_dissection(y: Quad, r: Quad, max_leaves: int = 8) -> CompositionTree | None:
    """First (smallest, in leaves) guillotine composition of ratio exactly y
    from tiles of ratio r, or None if none exists within ``max_leaves``.

    None is not a proof of impossibility; the search is bounded and only
    explores guillotine cuts.
    """
    _check_search_inputs(y, r, max_leaves)
    nodes, _levels, target_entry = _expand(y.field, r, max_leaves, y)
    if target_entry is None:
        raise ArithmeticError("level search returned no entry for the target ratio")
    tkey, tinv = target_entry
    if tkey not in nodes:
        return None
    return _build_tree(nodes, tkey, tinv)


def ratio_class_rep(y: Quad) -> Quad:
    """Canonical representative of the similarity class {y, 1/y}: the one >= 1."""
    if y.sign() <= 0:
        raise ValueError("ratio must be positive")
    one = y.field.one
    return y if (y - one).sign() >= 0 else one / y


def reachable_ratios(r: Quad, max_leaves: int) -> dict[Quad, int]:
    """Every ratio class reachable from tiles of ratio r within the leaf
    budget, as canonical representative -> minimal leaf count."""
    if max_leaves < 1:
        raise ValueError("max_leaves must be at least 1")
    if r.sign() <= 0:
        raise ValueError("tile ratio must be positive")
    field = r.field
    _P, pd = _radicand(field)
    nodes, levels, _ = _expand(field, r, max_leaves, None)
    out: dict[Quad, int] = {}
    for n, keys in enumerate(levels):
        for k in keys:
            out[_from_key(k, pd, field)] = n
    return out


def realize_tree(tree: CompositionTree, target: Rect, tile_ratio: Quad) -> Dissection:
    """Turn a composition tree into exact tile coordinates inside ``target``.

    The tree's ratio must equal the target's width/height ratio exactly;
    splits are proportional to child ratios, so every leaf comes out with
    ratio ``tile_ratio`` or its inverse.  Tiles are listed in depth-first
    order (left before right, bottom before top).
    """
    want = tree_ratio(tree, tile_ratio)
    if want != rect_ratio(target):
        raise ValueError("tree ratio does not match the target rectangle")
    one = tile_ratio.field.one
    tiles: list[Rect] = []

    def place(t: CompositionTree, x: Quad, y: Quad, w: Quad, h: Quad) -> None:
        if isinstance(t, Leaf):
            tiles.append(Rect(Point(x, y), w, h))
            return
        if isinstance(t, HJoin):
            rl = tree_ratio(t.left, tile_ratio)
            rr = tree_ratio(t.right, tile_ratio)
            wl = w * rl / (rl + rr)
            place(t.left, x, y, wl, h)
            place(t.right, x + wl, y, w - wl, h)
            return
        qb = one / tree_ratio(t.bottom, tile_ratio)
        qt = one / tree_ratio(t.top, tile_ratio)
        hb = h * qb / (qb + qt)
        place(t.bottom, x, y, w, hb)
        place(t.top, x, y + hb, w, h - hb)

    place(tree, target.x, target.y, target.width, target.height)
    return Dissection(target.to_polygon(), tuple(tiles))
