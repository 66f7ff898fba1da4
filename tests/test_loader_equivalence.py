"""The instance loader against a per-scalar reference loader.

``instance_from_json`` parses each distinct scalar literal once per
document.  The reference below reads every scalar on its own through
``quad_from_json``, as the loader did before the memo.  Both must give equal
instances, byte-identical verify and completion output, and the same errors.
"""

import json
import random
from fractions import Fraction

import pytest

from quadrect import (
    Dissection,
    FieldParam,
    Point,
    Polygon,
    Rect,
    complete_to_rectangle,
    format_quad,
    parse_rat,
    verify_tiling,
)
from quadrect.cli import run
from quadrect.jsonio import (
    Instance,
    completion_to_json,
    instance_from_json,
    instance_to_json,
    quad_from_json,
    report_to_json,
)
from quadrect.samples import random_guillotine, random_rectilinear_polygon, rect_of
from test_sweep import staircase

FIELDS = [FieldParam(2), FieldParam(3), FieldParam(Fraction(5, 3))]


def reference_instance_from_json(doc):
    """The loader without the memo: one ``quad_from_json`` per scalar."""
    if not isinstance(doc, dict) or "p" not in doc:
        raise ValueError("instance document needs a top-level 'p'")
    field = FieldParam(parse_rat(doc["p"]))
    region_doc = doc.get("region")
    if not isinstance(region_doc, dict) or region_doc.keys() != {"loops"}:
        raise ValueError("instance document needs a region with exactly the key 'loops'")

    def as_list(obj, what):
        if not isinstance(obj, list):
            raise ValueError(f"{what} must be a list")
        return obj

    def point(obj):
        if not isinstance(obj, list) or len(obj) != 2:
            raise ValueError("a vertex must be a list [x, y]")
        return Point(quad_from_json(obj[0], field), quad_from_json(obj[1], field))

    def rect(obj):
        if not isinstance(obj, dict) or obj.keys() != {"x", "y", "w", "h"}:
            raise ValueError("a tile needs exactly the keys x, y, w and h")
        return Rect(
            Point(quad_from_json(obj["x"], field), quad_from_json(obj["y"], field)),
            quad_from_json(obj["w"], field),
            quad_from_json(obj["h"], field),
        )

    loops = tuple(
        tuple(point(xy) for xy in as_list(loop, "a loop"))
        for loop in as_list(region_doc["loops"], "region.loops")
    )
    tiles = tuple(rect(t) for t in as_list(doc.get("tiles", []), "tiles"))
    return Instance(Polygon(loops), tiles)


def _outcome(loader, doc):
    try:
        return loader(doc)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def _dumps(obj):
    return json.dumps(obj, indent=2, sort_keys=True)


def _corpus():
    """Seeded documents: guillotines (some with a tile dropped), staircases,
    and holed polygons with and without tiles."""
    rng = random.Random(1616)
    docs = []
    for k in range(12):
        field = FIELDS[k % 3]
        d = random_guillotine(rng, rect_of(field, 0, 0, 3 + k % 4, 2), max_depth=5)
        if k % 4 == 3 and len(d.tiles) > 1:
            d = Dissection(d.region, d.tiles[1:])
        docs.append(instance_to_json(d))
    for steps in (3, 7, 12, 20):
        docs.append(instance_to_json(staircase(rng, steps)))
    for k in range(8):
        region = random_rectilinear_polygon(rng, FIELDS[k % 3], force_hole=True)
        docs.append(instance_to_json(Instance(region, ())))
    return docs


def _mixed_forms(doc, rng):
    """A copy of ``doc`` with each scalar in string or object form at random,
    some object forms spelled non-canonically, so equal values come under
    different keys and equal keys repeat."""

    def respell(obj):
        if isinstance(obj, dict) and obj.keys() == {"a", "b"}:
            choice = rng.randrange(4)
            if choice == 0:
                return format_quad(quad_from_json(obj, field))
            if choice == 1:
                return f"  {format_quad(quad_from_json(obj, field))} "
            if choice == 2:
                a = Fraction(obj["a"])
                return {"a": f"{2 * a.numerator}/{2 * a.denominator}", "b": obj["b"]}
            return dict(obj)
        if isinstance(obj, dict):
            return {k: respell(v) for k, v in obj.items()}
        if isinstance(obj, list):
            return [respell(v) for v in obj]
        return obj

    field = FieldParam(parse_rat(doc["p"]))
    return {"p": doc["p"], **respell({k: v for k, v in doc.items() if k != "p"})}


CORPUS = _corpus()


def _assert_same_load(doc):
    inst = instance_from_json(doc)
    ref = reference_instance_from_json(doc)
    assert inst == ref
    assert _dumps(instance_to_json(inst)) == _dumps(instance_to_json(ref))
    if inst.tiles:
        assert _dumps(report_to_json(verify_tiling(inst.dissection()))) == _dumps(
            report_to_json(verify_tiling(ref.dissection()))
        )
    assert _dumps(completion_to_json(complete_to_rectangle(inst.region))) == _dumps(
        completion_to_json(complete_to_rectangle(ref.region))
    )


@pytest.mark.parametrize("index", range(len(CORPUS)))
def test_seeded_documents_load_identically(index):
    _assert_same_load(CORPUS[index])


@pytest.mark.parametrize("index", range(0, len(CORPUS), 2))
def test_mixed_scalar_forms_load_identically(index):
    doc = _mixed_forms(CORPUS[index], random.Random(index))
    _assert_same_load(doc)


def test_corpus_has_repeated_scalars_and_an_invalid_tiling():
    doc = CORPUS[0]
    scalars = [json.dumps(xy) for loop in doc["region"]["loops"] for pt in loop for xy in pt]
    scalars += [json.dumps(t[k]) for t in doc["tiles"] for k in "xywh"]
    assert len(set(scalars)) < len(scalars)
    assert any(not verify_tiling(instance_from_json(d).dissection()).valid
               for d in CORPUS if d["tiles"])


def _sample_doc():
    return json.loads(_dumps(CORPUS[0]))


@pytest.mark.parametrize(
    "bad",
    [{"a": "1/0", "b": "0"}, "1 + 1*sqrt(2)", {"a": "٣", "b": "0"}],
    ids=["zero_denominator", "string_form", "non_ascii_digit"],
)
def test_malformed_scalar_twice_same_error(capsys, tmp_path, bad):
    doc = _sample_doc()
    doc["tiles"][0]["w"] = bad
    doc["tiles"][-1]["h"] = bad
    expected = _outcome(reference_instance_from_json, doc)
    assert expected.startswith("ValueError: ")
    assert _outcome(instance_from_json, doc) == expected
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run(["verify", "--instance", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {expected.removeprefix('ValueError: ')}\n"


def test_list_in_a_keeps_its_message(capsys, tmp_path):
    doc = _sample_doc()
    doc["region"]["loops"][0][1][0] = {"a": ["9"], "b": "0"}
    message = "rational literal must be a string, got ['9']"
    assert _outcome(reference_instance_from_json, doc) == f"ValueError: {message}"
    assert _outcome(instance_from_json, doc) == f"ValueError: {message}"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run(["verify", "--instance", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "value",
    [{"a": 1, "b": "0"}, {"a": "1", "c": "0"}, {"a": "1", "b": None}, 7, None, ["1", "0"]],
    ids=["number_a", "key_c", "null_b", "number", "null", "list"],
)
def test_non_string_scalars_keep_their_errors(value):
    doc = _sample_doc()
    doc["tiles"][0]["x"] = value
    expected = _outcome(reference_instance_from_json, doc)
    assert expected.startswith("ValueError: ")
    assert _outcome(instance_from_json, doc) == expected


def test_rect_with_cached_corners_equals_fresh_rect():
    field = FIELDS[0]
    used = Rect(Point(field.quad(1, 1), field.zero), field.quad(2), field.quad(0, 1))
    fresh = Rect(Point(field.quad(1, 1), field.zero), field.quad(2), field.quad(0, 1))
    assert (used.x2, used.y2) == (field.quad(3, 1), field.quad(0, 1))
    assert used == fresh
    assert hash(used) == hash(fresh)
    assert {used: 1}[fresh] == 1
    assert repr(used) == repr(fresh)
