"""JSON document format for instances and results.

One field parameter per document: a top-level ``"p"``.  Scalars are either
the object form ``{"a": "<rat>", "b": "<rat>"}`` (exactly those two keys,
rational strings only) or the string grammar
``<rat> [ (+|-) <rat>*sqrt ]``; output always uses the object form with
canonical rational strings, so load(save(x)) == x.

Instances are read strictly: ``region`` is ``{"loops": [[[x, y], ...], ...]}``
and each tile has exactly the keys x, y, w and h; only the top level may hold
extra keys (``construct --out`` adds ``leaves``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from .completion import Completion
from .decision import SquareWithHoleDecision, Verdict
from .exactfield import (
    FieldParam,
    Quad,
    excerpt,
    format_rat,
    parse_quad,
    parse_rat,
    quad_from_rats,
)
from .geometry import Dissection, Point, Polygon, Rect, VerifyReport
from .invariants import SeparationCertificate

__all__ = [
    "Instance",
    "dumps",
    "quad_to_json",
    "quad_from_json",
    "instance_to_json",
    "instance_from_json",
    "load_instance",
    "save_instance",
    "certificate_to_json",
    "verdict_to_json",
    "report_to_json",
    "completion_to_json",
    "hole_decision_to_json",
]


@dataclass(frozen=True)
class Instance:
    region: Polygon
    tiles: tuple[Rect, ...]

    @property
    def field(self) -> FieldParam:
        return self.region.field

    def dissection(self) -> Dissection:
        return Dissection(self.region, self.tiles)


def quad_to_json(x: Quad) -> dict[str, str]:
    return {"a": format_rat(x.a), "b": format_rat(x.b)}


def quad_from_json(obj: Any, field: FieldParam) -> Quad:
    if isinstance(obj, str):
        return parse_quad(obj, field)
    if isinstance(obj, dict) and obj.keys() == {"a", "b"}:
        return quad_from_rats(obj["a"], obj["b"], field)
    raise ValueError(f"cannot read field element from {excerpt(repr(obj))}")


def _rect_to_json(r: Rect) -> dict[str, Any]:
    return {
        "x": quad_to_json(r.x),
        "y": quad_to_json(r.y),
        "w": quad_to_json(r.width),
        "h": quad_to_json(r.height),
    }


def _scalar_reader(field: FieldParam) -> Callable[[Any], Quad]:
    """``quad_from_json`` for one document that parses each distinct literal
    once: a string by itself, an object by its ``(a, b)`` pair.  Only
    successful parses are kept; any other value goes straight to
    ``quad_from_json``, so errors keep their messages and their order."""
    memo: dict[Any, Quad] = {}

    def read(obj: Any) -> Quad:
        if isinstance(obj, str):
            key = obj
        elif (
            isinstance(obj, dict)
            and len(obj) == 2
            and isinstance(a := obj.get("a"), str)
            and isinstance(b := obj.get("b"), str)
        ):
            key = (a, b)
        else:
            return quad_from_json(obj, field)
        x = memo.get(key)
        if x is None:
            x = memo[key] = quad_from_json(obj, field)
        return x

    return read


def _rect_from_json(obj: Any, read: Callable[[Any], Quad]) -> Rect:
    if not isinstance(obj, dict) or obj.keys() != {"x", "y", "w", "h"}:
        raise ValueError("a tile needs exactly the keys x, y, w and h")
    return Rect(Point(read(obj["x"]), read(obj["y"])), read(obj["w"]), read(obj["h"]))


def _point_from_json(obj: Any, read: Callable[[Any], Quad]) -> Point:
    if not isinstance(obj, list) or len(obj) != 2:
        raise ValueError("a vertex must be a list [x, y]")
    return Point(read(obj[0]), read(obj[1]))


def _list_of(obj: Any, what: str) -> list:
    if not isinstance(obj, list):
        raise ValueError(f"{what} must be a list")
    return obj


def instance_to_json(inst: Dissection | Instance) -> dict[str, Any]:
    """The document of a region and its tiles; ``"p"`` is the region's field."""
    return {
        "p": format_rat(inst.region.field.p),
        "region": {
            "loops": [
                [[quad_to_json(pt.x), quad_to_json(pt.y)] for pt in loop]
                for loop in inst.region.loops
            ]
        },
        "tiles": [_rect_to_json(t) for t in inst.tiles],
    }


def instance_from_json(doc: Any) -> Instance:
    if not isinstance(doc, dict) or "p" not in doc:
        raise ValueError("instance document needs a top-level 'p'")
    field = FieldParam(parse_rat(doc["p"]))
    read = _scalar_reader(field)
    region_doc = doc.get("region")
    if not isinstance(region_doc, dict) or region_doc.keys() != {"loops"}:
        raise ValueError("instance document needs a region with exactly the key 'loops'")
    loops = tuple(
        tuple(_point_from_json(xy, read) for xy in _list_of(loop, "a loop"))
        for loop in _list_of(region_doc["loops"], "region.loops")
    )
    tiles = tuple(
        _rect_from_json(t, read) for t in _list_of(doc.get("tiles", []), "tiles")
    )
    return Instance(Polygon(loops), tiles)


def dumps(doc: Any) -> str:
    """The one output layout: two-space indent, sorted keys, final newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load_instance(path: str | Path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError("instance document is nested too deeply") from None
    return instance_from_json(doc)


def save_instance(inst: Dissection | Instance, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(instance_to_json(inst)))


def certificate_to_json(cert: SeparationCertificate) -> dict[str, Any]:
    return {
        "A": format_rat(cert.params.A),
        "B": format_rat(cert.params.B),
        "C": format_rat(cert.params.C),
        "discriminant_quarter": format_rat(cert.discriminant_quarter),
        "sign": cert.sign,
    }


def verdict_to_json(v: Verdict) -> dict[str, Any]:
    return {
        "tileable": v.tileable,
        "case": v.case_tag,
        "witness_params": (
            None
            if v.witness_params is None
            else {
                "e": format_rat(v.witness_params[0]),
                "f": format_rat(v.witness_params[1]),
            }
        ),
        "certificate": (
            None if v.certificate is None else certificate_to_json(v.certificate)
        ),
    }


def hole_decision_to_json(res: SquareWithHoleDecision) -> dict[str, Any]:
    out = verdict_to_json(res.verdict)
    out["ratio"] = quad_to_json(res.ratio)
    out["pinwheel"] = instance_to_json(res.pinwheel)
    return out


def report_to_json(report: VerifyReport) -> dict[str, Any]:
    return {
        "valid": report.valid,
        "cells": {
            "nx": report.grid.nx,
            "ny": report.grid.ny,
            "inside": report.grid.inside_count,
        },
        "issues": [
            {
                "kind": issue.kind,
                "cell": [issue.i, issue.j],
                "midpoint": {
                    "x": quad_to_json(issue.midpoint.x),
                    "y": quad_to_json(issue.midpoint.y),
                },
                "cover": issue.cover,
            }
            for issue in report.issues
        ],
    }


def completion_to_json(comp: Completion) -> dict[str, Any]:
    return {
        "R": _rect_to_json(comp.bounding),
        "added": [_rect_to_json(r) for r in comp.added],
    }
