"""Every input cap is documented: each module-level ``MAX_*`` constant in the
package is named in the README as ``module.NAME``, in a paragraph or bullet
that also states its value."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import quadrect

SRC = Path(quadrect.__file__).resolve().parent
README = SRC.parents[1] / "README.md"


def _caps():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id.startswith("MAX_"):
                        yield path.stem, target.id


CAPS = list(_caps())


def test_known_caps_are_found():
    assert {("cli", "MAX_CONSTRUCT_LEAVES"), ("exactfield", "MAX_LITERAL_CHARS"),
            ("render", "MAX_DIGITS")} <= set(CAPS)


@pytest.mark.parametrize("module_name, name", CAPS)
def test_cap_is_documented_with_its_value(module_name, name):
    value = getattr(importlib.import_module(f"quadrect.{module_name}"), name)
    blocks = re.split(r"\n\s*\n|\n(?=\* )", README.read_text(encoding="utf-8"))
    naming = [block for block in blocks if f"`{module_name}.{name}`" in block]
    assert naming, f"README never names `{module_name}.{name}`"
    spelled = "|".join(re.escape(s) for s in {str(value), f"{value:,}"})
    number = re.compile(rf"(?<![\d,])(?:{spelled})(?!,?\d)")
    assert any(number.search(block) for block in naming), f"{name} = {value} not stated"
