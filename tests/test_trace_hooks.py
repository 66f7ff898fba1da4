"""The benchmark's trace hooks name functions that still exist.

``perfbench/tracing.py`` wraps library functions that it finds by name in
its ``LAYERS`` table, so a rename would break only ``--trace 1`` runs.  The
table is read with ``ast`` here; the benchmark itself is not imported.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def traced_layers():
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("no LAYERS table in perfbench/tracing.py")


def test_every_traced_name_exists():
    layers = traced_layers()
    assert layers
    missing = [
        f"{layer}.{name}"
        for layer, names in layers.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"quadrect.{layer}"), name, None))
    ]
    assert missing == []
