"""The package's public names: each module's ``__all__`` says what it exports,
and ``quadrect`` re-exports the six core modules' lists."""

import ast
import importlib
from pathlib import Path

import pytest

import quadrect

PACKAGE = Path(quadrect.__file__).resolve().parent
CORE = ("completion", "constructor", "decision", "exactfield", "geometry", "invariants")
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")

# Every top-level name the package exported when it still listed them by hand.
EARLIER_EXPORTS = (
    "ABCParams", "Basis", "BasisVector", "CASE_CONJUGATE_NEGATIVE",
    "CASE_CONJUGATE_POSITIVE", "CellGrid", "CellIssue", "Completion",
    "CompositionTree", "Dissection", "FieldParam", "HJoin",
    "InvalidDissectionError", "Leaf", "NOT_IN_FIELD", "NotInField", "Point",
    "Polygon", "Quad", "QuadPoly", "Rect", "SeparationCertificate",
    "SquareWithHoleDecision", "UnequalTilesError", "VJoin", "Verdict",
    "VerifyReport", "abc_area_polygon", "abc_area_rect", "build_cell_grid",
    "complete_to_rectangle", "construct_dissection", "decide_polygon",
    "decide_rect_ratio", "decide_square_with_hole", "format_quad", "format_rat",
    "leaf_count", "parse_quad", "parse_rat", "pinwheel_dissection",
    "polygon_area", "ratio_class_rep", "reachable_ratios", "realize_tree",
    "rect_ratio", "separation_certificate", "square_with_hole_polygon",
    "tiles_equal", "tree_ratio", "verify_complement", "verify_tiling", "z_area",
    "z_area_additivity_check",
)


def _top_level_names(tree):
    """(names the module binds itself, names it imports) at module level."""
    defined, imported = set(), set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            defined.add(node.target.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    return defined, imported


def test_all_is_the_core_lists_concatenated():
    expected = []
    for name in CORE:
        expected += importlib.import_module(f"quadrect.{name}").__all__
    assert quadrect.__all__ == expected
    assert len(quadrect.__all__) == len(set(quadrect.__all__)) == 57


@pytest.mark.parametrize("module_name", CORE)
def test_core_names_are_the_same_objects_at_top_level(module_name):
    module = importlib.import_module(f"quadrect.{module_name}")
    for name in module.__all__:
        assert getattr(quadrect, name) is getattr(module, name), name


@pytest.mark.parametrize("module_name", MODULES)
def test_each_module_lists_only_names_it_defines(module_name):
    # Read from the source: an alias such as ``CompositionTree`` reports
    # ``typing`` as its ``__module__``, so the objects cannot tell.
    tree = ast.parse((PACKAGE / f"{module_name}.py").read_text(encoding="utf-8"))
    defined, imported = _top_level_names(tree)
    listed = importlib.import_module(f"quadrect.{module_name}").__all__
    assert len(listed) == len(set(listed))
    assert set(listed) <= defined
    assert not set(listed) & imported


def test_init_lists_no_names_by_hand():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert sorted(node.module for node in imports) == list(CORE)
    assert all(node.level == 1 and [a.name for a in node.names] == ["*"] for node in imports)
    strings = [node for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    assert [s.value for s in strings[1:]] == [quadrect.__version__]  # docstring, version


def test_earlier_exports_still_import():
    assert set(quadrect.__all__) - set(EARLIER_EXPORTS) == {
        "in_membership_set", "quad_from_rats", "require_valid_tiling"}
    assert set(EARLIER_EXPORTS) <= set(quadrect.__all__)
    assert all(hasattr(quadrect, name) for name in EARLIER_EXPORTS)
