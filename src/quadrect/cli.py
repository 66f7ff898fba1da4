"""Command-line front end.

Exit codes: 0 for success or an affirmative verdict, 1 for a negative
verdict, an invalid dissection, or a failed witness search, 2 for usage and
input errors.  Results go to stdout as JSON (SVG for ``render``),
diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .completion import complete_to_rectangle
from .constructor import construct_dissection, leaf_count, realize_tree
from .decision import (
    UnequalTilesError,
    decide_polygon,
    decide_rect_ratio,
    decide_square_with_hole,
)
from .exactfield import FieldParam, parse_quad
from .geometry import InvalidDissectionError, Point, Rect, verify_tiling
from .invariants import Basis, BasisVector, separation_certificate, z_area
from .jsonio import (
    certificate_to_json,
    completion_to_json,
    dumps,
    hole_decision_to_json,
    instance_to_json,
    load_instance,
    report_to_json,
    verdict_to_json,
)
from .render import render_svg

__all__ = ["run", "main"]

# A search builds no level above 7 tiles and looks the rest up, recursively
# through the levels it did not build; the lookups grow about fivefold per
# tile.  A miss at 11 takes about 0.02 s in-process, and a fresh CLI process
# 0.1-0.2 s and 18 MB peak RSS (Python 3.11, shared 2-vCPU x86-64 host).
MAX_CONSTRUCT_LEAVES = 11


def _emit(doc: object) -> None:
    sys.stdout.write(dumps(doc))


def _cmd_decide_rect(ns: argparse.Namespace) -> int:
    field = FieldParam(ns.p)
    verdict = decide_rect_ratio(parse_quad(ns.y, field), parse_quad(ns.r, field))
    _emit(verdict_to_json(verdict))
    return 0 if verdict.tileable else 1


def _cmd_decide_polygon(ns: argparse.Namespace) -> int:
    inst = load_instance(ns.instance)
    verdict = decide_polygon(inst, parse_quad(ns.r, inst.field))
    _emit(verdict_to_json(verdict))
    return 0 if verdict.tileable else 1


def _cmd_decide_hole(ns: argparse.Namespace) -> int:
    field = FieldParam(ns.p)
    res = decide_square_with_hole(
        parse_quad(ns.u, field), parse_quad(ns.v, field), parse_quad(ns.r, field)
    )
    _emit(hole_decision_to_json(res))
    return 0 if res.verdict.tileable else 1


def _cmd_verify(ns: argparse.Namespace) -> int:
    report = verify_tiling(load_instance(ns.instance))
    _emit(report_to_json(report))
    return 0 if report.valid else 1


def _cmd_complete(ns: argparse.Namespace) -> int:
    inst = load_instance(ns.instance)
    _emit(completion_to_json(complete_to_rectangle(inst.region)))
    return 0


def _cmd_construct(ns: argparse.Namespace) -> int:
    if ns.max_leaves > MAX_CONSTRUCT_LEAVES:
        raise ValueError(f"--max-leaves must be at most {MAX_CONSTRUCT_LEAVES}")
    field = FieldParam(ns.p)
    y = parse_quad(ns.y, field)
    r = parse_quad(ns.r, field)
    tree = construct_dissection(y, r, ns.max_leaves)
    if tree is None:
        print(
            f"no guillotine witness within {ns.max_leaves} tiles"
            " (not a proof of impossibility)",
            file=sys.stderr,
        )
        return 1
    target = Rect(Point(field.zero, field.zero), y, field.one)
    dissection = realize_tree(tree, target, r)
    doc = instance_to_json(dissection)
    doc["leaves"] = leaf_count(tree)
    text = dumps(doc)
    if ns.out:
        with open(ns.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return 0


def _cmd_invariants_zarea(ns: argparse.Namespace) -> int:
    field = FieldParam(ns.p)
    coords1 = [parse_quad(part, field) for part in ns.side1.split(";")]
    coords2 = [parse_quad(part, field) for part in ns.side2.split(";")]
    if len(coords1) != len(coords2):
        raise ValueError("both sides need the same number of coordinates")
    basis = Basis(tuple(f"e{i + 1}" for i in range(len(coords1))))
    poly = z_area(
        BasisVector(basis, tuple(coords1)), BasisVector(basis, tuple(coords2))
    )
    print(str(poly))
    return 0


def _cmd_invariants_abc(ns: argparse.Namespace) -> int:
    cert = separation_certificate(ns.a, ns.b, ns.e, ns.f, ns.p)
    _emit(certificate_to_json(cert))
    return 0


def _cmd_render(ns: argparse.Namespace) -> int:
    svg = render_svg(load_instance(ns.instance), ns.precision)
    with open(ns.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadrect",
        description=(
            "Exact decisions, verification, invariants and witness search for"
            " dissections of rectilinear polygons into similar rectangles"
            " with side ratio in Q[sqrt(p)]."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    decide = sub.add_parser("decide", help="run a decision procedure")
    decide_sub = decide.add_subparsers(dest="target", required=True)

    d_rect = decide_sub.add_parser("rect", help="rectangle of ratio y vs tiles of ratio r")
    d_rect.add_argument("--y", required=True, help="rectangle side ratio, e.g. '2 + 1*sqrt'")
    d_rect.add_argument("--r", required=True, help="tile side ratio")
    d_rect.add_argument("--p", required=True, help="field radicand, e.g. 2 or 5/2")
    d_rect.set_defaults(handler=_cmd_decide_rect)

    d_poly = decide_sub.add_parser(
        "polygon", help="polygon presented with an equal-rectangle dissection"
    )
    d_poly.add_argument("--instance", required=True, help="instance JSON file")
    d_poly.add_argument("--r", required=True, help="tile side ratio")
    d_poly.set_defaults(handler=_cmd_decide_polygon)

    d_hole = decide_sub.add_parser("hole", help="region between concentric squares")
    d_hole.add_argument("--u", required=True, help="outer square side")
    d_hole.add_argument("--v", required=True, help="inner square side")
    d_hole.add_argument("--r", required=True, help="tile side ratio")
    d_hole.add_argument("--p", required=True, help="field radicand")
    d_hole.set_defaults(handler=_cmd_decide_hole)

    verify = sub.add_parser("verify", help="verify a claimed dissection")
    verify.add_argument("--instance", required=True)
    verify.set_defaults(handler=_cmd_verify)

    complete = sub.add_parser(
        "complete", help="complete a polygon to its bounding rectangle"
    )
    complete.add_argument("--instance", required=True)
    complete.set_defaults(handler=_cmd_complete)

    construct = sub.add_parser("construct", help="search for a witness dissection")
    construct.add_argument("--y", required=True, help="rectangle side ratio")
    construct.add_argument("--r", required=True, help="tile side ratio")
    construct.add_argument("--p", required=True, help="field radicand")
    construct.add_argument(
        "--max-leaves", type=int, default=8, dest="max_leaves",
        help=f"leaf budget, at most {MAX_CONSTRUCT_LEAVES}",
    )
    construct.add_argument("--out", default=None, help="also write the instance JSON here")
    construct.set_defaults(handler=_cmd_construct)

    invariants = sub.add_parser("invariants", help="print invariant values")
    inv_sub = invariants.add_subparsers(dest="invariant", required=True)

    zarea = inv_sub.add_parser("zarea", help="formal quadratic side-vector area")
    zarea.add_argument("--side1", required=True, help="';'-separated coordinates")
    zarea.add_argument("--side2", required=True)
    zarea.add_argument("--p", required=True)
    zarea.set_defaults(handler=_cmd_invariants_zarea)

    abc = inv_sub.add_parser("abc", help="separating parameters and certificate"
                             " for rectangle ratio e+f*sqrt(p), tile ratio a+b*sqrt(p)")
    for flag in ("a", "b", "e", "f", "p"):
        abc.add_argument(f"--{flag}", required=True)
    abc.set_defaults(handler=_cmd_invariants_abc)

    render = sub.add_parser("render", help="render an instance to SVG")
    render.add_argument("--instance", required=True)
    render.add_argument("--out", required=True)
    render.add_argument("--precision", type=int, default=30)
    render.set_defaults(handler=_cmd_render)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return ns.handler(ns)
    except (InvalidDissectionError, UnequalTilesError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
