"""Spans around calls into the library's layers, recorded from outside.

``Tracer.install`` replaces each public function listed in ``LAYERS`` with a
wrapper, in the defining module and in every ``quadrect`` module that
imported it by name, so calls between layers are caught too.  Nothing under
``src/`` changes; ``uninstall`` puts the originals back.  A span is
``(name, start, end, parent span, operation id)``; spans stay in memory until
the run ends.  ``exactfield`` gets no spans (its operations take
microseconds; the micro-probe measures them), so its time counts as self
time of the layer that called it.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter
from typing import Any, Callable

LAYERS = {
    "cli": ("run",),
    "jsonio": (
        "load_instance",
        "instance_from_json",
        "instance_to_json",
        "verdict_to_json",
        "report_to_json",
        "completion_to_json",
        "hole_decision_to_json",
    ),
    "decision": ("decide_rect_ratio", "decide_polygon", "decide_square_with_hole"),
    "invariants": ("separation_certificate", "z_area"),
    "geometry": (
        "Polygon",
        "build_cell_grid",
        "verify_tiling",
        "tiles_equal",
        "pinwheel_dissection",
        "square_with_hole_polygon",
    ),
    "completion": ("complete_to_rectangle", "verify_complement"),
    "constructor": ("construct_dissection", "reachable_ratios", "realize_tree"),
    "render": ("render_svg",),
}

ROOT_SPAN = "bench.op"
_LOADS = ("jsonio.load_instance", "jsonio.instance_from_json")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Any] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._patches: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            op = self._op
            if op is None:  # input generation between operations
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, op)

        return traced

    def install(self) -> None:
        wrappers: dict[int, tuple[Any, Callable]] = {}
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"quadrect.{layer}")
            for name in names:
                fn = getattr(module, name)
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for modname, module in list(sys.modules.items()):
            if modname != "quadrect" and not modname.startswith("quadrect."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def begin(self, op: int) -> None:
        """Open the root span of one operation."""
        self._op = op
        self.spans.append(None)
        self._stack.append(len(self.spans) - 1)
        self._start = time.perf_counter()

    def end(self) -> None:
        end = time.perf_counter()
        idx = self._stack.pop()
        self.spans[idx] = (ROOT_SPAN, self._start, end, -1, self._op)
        self._op = None


def self_times(spans: list[Any], scales: list[float]) -> tuple[Counter, Counter, Counter]:
    """Per span name: total self time, total duration and call count, each
    time scaled by its operation's calibration factor.  A span's self time
    is its duration minus that of its direct children."""
    child = [0.0] * len(spans)
    for _, start, end, parent, op in spans:
        if parent >= 0:
            child[parent] += (end - start) * scales[op]
    own, dur, calls = Counter(), Counter(), Counter()
    for i, (name, start, end, _, op) in enumerate(spans):
        length = (end - start) * scales[op]
        own[name] += length - child[i]
        dur[name] += length
        calls[name] += 1
    return own, dur, calls


def layer_metrics(spans: list[Any], kinds: list[str], scales: list[float],
                  stats: Counter) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced phase.  Times are nominal-speed
    seconds per operation of the workload (so they add up to the mean
    operation time); counts are totals over the phase."""
    ops = len(kinds)
    own, dur, calls = self_times(spans, scales)

    def per_op(total: float) -> tuple[float, str]:
        return total / ops, "s/op"

    def layer(prefix: str, exclude: tuple[str, ...] = ()) -> float:
        return sum(v for k, v in own.items() if k.startswith(prefix) and k not in exclude)

    def rate(seconds: float, count: float) -> tuple[float, str]:
        return (seconds * 1e6 / count if count else 0.0), "us"

    # reachable_ratios minus a search to the same budget that never reaches
    # its target; every round pairs one enumeration with full misses of the
    # same tile ratio and budget
    miss_full = [
        (end - start) * scales[op]
        for name, start, end, _, op in spans
        if name == "constructor.construct_dissection" and kinds[op].startswith("miss_")
        and kinds[op].endswith("_9")
    ]
    enumerations = calls["constructor.reachable_ratios"]
    convert = 0.0
    if enumerations and miss_full:
        convert = dur["constructor.reachable_ratios"] - enumerations * sum(miss_full) / len(miss_full)
    search = own["constructor.construct_dissection"] + own["constructor.reachable_ratios"] - convert
    geometry_verify = layer("geometry.", ("geometry.Polygon", "geometry.build_cell_grid"))
    searches = stats["constructor.searches"]

    return {
        "cli.run_s": per_op(dur["cli.run"]),
        "cli.overhead_s": per_op(own["cli.run"]),
        "cli.requests": (stats["cli.requests"], "count"),
        "cli.rejected": (stats["cli.rejected"], "count"),
        "jsonio.load_s": per_op(sum(own[k] for k in _LOADS)),
        "jsonio.dump_s": per_op(layer("jsonio.", _LOADS)),
        "jsonio.bytes_in": (stats["jsonio.bytes_in"], "bytes"),
        "jsonio.bytes_out": (stats["jsonio.bytes_out"], "bytes"),
        "decision.decide_s": per_op(layer("decision.")),
        "decision.calls": (sum(v for k, v in calls.items() if k.startswith("decision.")), "count"),
        "decision.negatives": (stats["decision.negatives"], "count"),
        "invariants.certificate_s": per_op(layer("invariants.")),
        "invariants.certificates": (stats["invariants.certificates"], "count"),
        "geometry.polygon_s": per_op(own["geometry.Polygon"]),
        "geometry.grid_s": per_op(own["geometry.build_cell_grid"]),
        "geometry.verify_s": per_op(geometry_verify),
        "geometry.cells": (stats["geometry.cells"], "count"),
        "geometry.edges": (stats["geometry.edges"], "count"),
        "geometry.issues": (stats["geometry.issues"], "count"),
        "geometry.us_per_cell": rate(own["geometry.build_cell_grid"] + geometry_verify, stats["geometry.cells"]),
        "completion.complete_s": per_op(own["completion.complete_to_rectangle"]),
        "completion.check_s": per_op(own["completion.verify_complement"]),
        "completion.added": (stats["completion.added"], "count"),
        "completion.us_per_cell": rate(layer("completion."), stats["completion.cells"]),
        "constructor.search_s": per_op(search),
        "constructor.convert_s": per_op(convert),
        "constructor.realize_s": per_op(own["constructor.realize_tree"]),
        "constructor.classes": (stats["constructor.classes"], "count"),
        "constructor.us_per_class": rate(dur["constructor.reachable_ratios"], stats["constructor.classes"]),
        "constructor.hit_ratio": ((stats["constructor.found"] / searches if searches else 0.0), "ratio"),
        "render.svg_s": per_op(layer("render.")),
        "render.bytes": (stats["render.bytes"], "bytes"),
        "trace.glue_s": per_op(own[ROOT_SPAN]),
        "trace.layer_sum_s": per_op(sum(own.values())),
    }
