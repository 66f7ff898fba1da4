import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from quadrect import FieldParam, format_rat, pinwheel_dissection
from quadrect.cli import run
from quadrect.jsonio import (
    Instance,
    dumps,
    instance_from_json,
    instance_to_json,
    load_instance,
    save_instance,
)
from quadrect.render import quad_to_decimal, render_svg
from quadrect.samples import rect_of

F2 = FieldParam(2)
DROP = object()  # marks a key to delete from a document


@pytest.fixture
def pinwheel_file(tmp_path: Path) -> Path:
    path = tmp_path / "pinwheel.json"
    save_instance(pinwheel_dissection(F2.quad(3), F2.quad(1)), path)
    return path


class TestJsonRoundTrip:
    def test_pinwheel_round_trip(self, pinwheel_file):
        inst = load_instance(pinwheel_file)
        doc = instance_to_json(inst)
        again = instance_from_json(doc)
        assert again == inst
        assert instance_to_json(again) == doc

    def test_string_scalars_accepted(self):
        doc = {
            "p": "2",
            "region": {
                "loops": [[["0", "0"], ["1 + 1*sqrt", "0"],
                           ["1 + 1*sqrt", "1"], ["0", "1"]]]
            },
            "tiles": [{"x": "0", "y": "0", "w": "1 + 1*sqrt", "h": "1"}],
        }
        inst = instance_from_json(doc)
        assert inst.tiles[0].width == F2.quad(1, 1)

    def test_missing_p_rejected(self):
        with pytest.raises(ValueError):
            instance_from_json({"region": {"loops": []}})

    @pytest.mark.parametrize("p", [2, 3, Fraction(5, 2)])
    def test_dissection_round_trip_keeps_its_field(self, p):
        field = FieldParam(p)
        d = pinwheel_dissection(field.quad(3, 1), field.one)
        doc = instance_to_json(d)
        again = instance_from_json(doc)
        assert again.dissection() == d
        assert doc["p"] == instance_to_json(again)["p"] == format_rat(field.p)
        assert dumps(instance_to_json(again)) == dumps(doc)

    def test_instance_field_is_its_region_field(self):
        d = pinwheel_dissection(FieldParam(3).quad(3, 1), FieldParam(3).one)
        assert Instance(d.region, d.tiles).field is d.region.field


class TestDecideCommands:
    def test_rect_negative_exit_one(self, capsys):
        code = run(["decide", "rect", "--y", "2+1*sqrt", "--r", "1+1*sqrt", "--p", "2"])
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        assert out["tileable"] is False
        assert out["certificate"]["discriminant_quarter"] == "-3"
        assert out["certificate"]["sign"] == -1

    def test_rect_affirmative_exit_zero(self, capsys):
        code = run(["decide", "rect", "--y", "1+1*sqrt", "--r", "1+1*sqrt", "--p", "2"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["tileable"] is True

    def test_rect_bad_input_exit_two(self, capsys):
        assert run(["decide", "rect", "--y", "oops", "--r", "1", "--p", "2"]) == 2
        assert run(["decide", "rect", "--y", "1", "--r", "1", "--p", "4"]) == 2

    @pytest.mark.parametrize(
        "where, value",
        [
            (("p",), 2),
            (("region", "loops", 0, 1, 0), {"a": 1}),
            (("region", "loops", 0, 1, 0), {"a": 1, "b": 0}),
            (("tiles", 0, "w"), {"a": "0", "c": "7"}),
            (("tiles", 0, "x"), {"x": "3"}),
            (("tiles", 0, "h"), {"a": "1", "b": "0", "c": "0"}),
            (("region", "loops", 0, 0), ["0"]),
            (("region", "loops", 0, 0), ["0", "0", "7"]),
            (("region", "loops"), [[]]),
            (("tiles", 0, "z"), "9"),
            (("tiles",), {"x": "0"}),
            (("tiles", 0, "h"), DROP),
            (("region", "loops"), {"0": []}),
            (("region", "loops"), [5]),
            (("region", "holes"), []),
            (("region", "loops", 0, 1, 0), {"a": "0", "b": "0", "c": ["9"] * 20000}),
        ],
        ids=["p_number", "a_number_only", "a_and_b_numbers", "key_c", "key_x", "extra_key",
             "one_coordinate", "three_coordinates", "empty_loop", "tile_key_z",
             "tiles_object", "tile_without_h", "loops_object", "loop_number",
             "region_key_holes", "huge_coordinate"],
    )
    @pytest.mark.parametrize("command", [["verify"], ["decide", "polygon", "--r", "3"]])
    def test_malformed_json_scalar_exit_two(self, capsys, tmp_path, where, value, command):
        doc = instance_to_json(pinwheel_dissection(F2.quad(3), F2.quad(1)))
        parent = doc
        for step in where[:-1]:
            parent = parent[step]
        if value is DROP:
            del parent[where[-1]]
        else:
            parent[where[-1]] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run([*command, "--instance", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err
        assert len(captured.err) < 200

    @pytest.mark.parametrize(
        "flags, message",
        [
            ([f"--y={'9' * 5000}x", "--p=2"], "malformed field-element literal: '9999"),
            (["--y=1", f"--p=-{'9' * 4000}"], "field parameter must be positive, got -9999"),
            (["--y=1", f"--p={'9' * 5000}/0"], "zero denominator in rational literal: '9999"),
        ],
        ids=["y_literal", "negative_p", "zero_denominator"],
    )
    def test_long_literal_echo_is_bounded(self, capsys, flags, message):
        assert run(["decide", "rect", "--r=1", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")
        assert len(captured.err) < 200

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--y=1", "--p=٢"], "malformed rational literal: '٢'"),
            (["--y=٣", "--p=2"], "malformed field-element literal: '٣'"),
            (["--y=1 + ３*sqrt", "--p=2"], "malformed field-element literal: '1 + ３*sqrt'"),
        ],
        ids=["arabic_indic_p", "arabic_indic_y", "fullwidth_y_coefficient"],
    )
    def test_non_ascii_digits_exit_two(self, capsys, flags, message):
        assert run(["decide", "rect", "--r=1", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("command", [["verify"], ["decide", "polygon", "--r", "3"]])
    def test_non_ascii_tile_scalar_exit_two(self, capsys, tmp_path, command):
        doc = instance_to_json(pinwheel_dissection(F2.quad(3), F2.quad(1)))
        doc["tiles"][0]["w"] = {"a": "３", "b": "0"}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run([*command, "--instance", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: malformed rational literal: '３'\n"

    @pytest.mark.parametrize(
        "command",
        [["verify"], ["complete"], ["render", "--out", "x.svg"],
         ["decide", "polygon", "--r", "3"]],
    )
    def test_deeply_nested_instance_exit_two(self, capsys, tmp_path, command):
        depth = 100_000
        path = tmp_path / "deep.json"
        path.write_text('{"p": "2", "region": ' + "[" * depth + "]" * depth + "}",
                        encoding="utf-8")
        argv = [str(tmp_path / a) if a == "x.svg" else a for a in command]
        assert run([*argv, "--instance", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: instance document is nested too deeply\n"

    def test_polygon_via_instance(self, capsys, pinwheel_file):
        code = run(["decide", "polygon", "--instance", str(pinwheel_file),
                    "--r", "1+1*sqrt"])
        assert code == 1
        code = run(["decide", "polygon", "--instance", str(pinwheel_file),
                    "--r", "3"])
        assert code == 0

    def test_hole_command(self, capsys):
        # Leading-dash values need the --flag=value spelling under argparse.
        code = run(["decide", "hole", "--u", "1", "--v=-1+1*sqrt",
                    "--r", "1+1*sqrt", "--p", "2"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["tileable"] is True
        assert out["ratio"] == {"a": "1", "b": "1"}
        assert len(out["pinwheel"]["tiles"]) == 4

    def test_unknown_flag_exit_two(self, capsys):
        assert run(["decide", "rect", "--nope", "1"]) == 2


class TestVerifyCompleteConstruct:
    def test_verify_valid_instance(self, capsys, pinwheel_file):
        assert run(["verify", "--instance", str(pinwheel_file)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["valid"] is True
        assert out["cells"] == {"nx": 3, "ny": 3, "inside": 8}

    def test_verify_invalid_instance(self, capsys, tmp_path):
        doc = instance_to_json(pinwheel_dissection(F2.quad(3), F2.quad(1)))
        doc["tiles"] = doc["tiles"][:3]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        assert run(["verify", "--instance", str(path)]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["valid"] is False
        assert out["issues"]

    def test_complete_command(self, capsys, tmp_path):
        doc = {
            "p": "2",
            "region": {
                "loops": [[["0", "0"], ["2", "0"], ["2", "1"],
                           ["1", "1"], ["1", "2"], ["0", "2"]]]
            },
        }
        path = tmp_path / "l.json"
        path.write_text(json.dumps(doc))
        assert run(["complete", "--instance", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["R"]["w"] == {"a": "2", "b": "0"}
        assert out["added"] == [
            {
                "x": {"a": "1", "b": "0"},
                "y": {"a": "1", "b": "0"},
                "w": {"a": "1", "b": "0"},
                "h": {"a": "1", "b": "0"},
            }
        ]

    def test_construct_found_and_verifiable(self, capsys, tmp_path):
        out_path = tmp_path / "witness.json"
        code = run(["construct", "--y", "0+1*sqrt", "--r", "1+1*sqrt",
                    "--p", "2", "--out", str(out_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert out_path.read_bytes() == out.encode("utf-8")
        assert json.loads(out)["leaves"] == 4
        assert run(["verify", "--instance", str(out_path)]) == 0

    def test_construct_unwritable_out_prints_nothing(self, capsys, tmp_path):
        out_path = tmp_path / "missing" / "witness.json"
        code = run(["construct", "--y", "0+1*sqrt", "--r", "1+1*sqrt",
                    "--p", "2", "--out", str(out_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_construct_not_found_exit_one(self, capsys):
        code = run(["construct", "--y", "1", "--r", "1+1*sqrt", "--p", "2",
                    "--max-leaves", "5"])
        assert code == 1
        assert "witness" in capsys.readouterr().err

    def test_construct_leaf_cap_exit_two(self, capsys):
        # Rejected before any search runs.
        code = run(["construct", "--y", "1", "--r", "1+1*sqrt", "--p", "2",
                    "--max-leaves", "12"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "--max-leaves must be at most 11" in captured.err

    def test_construct_at_leaf_cap(self, capsys):
        # The target is the tile itself, so the search ends before building.
        code = run(["construct", "--y", "1+1*sqrt", "--r", "1+1*sqrt", "--p", "2",
                    "--max-leaves", "11"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["leaves"] == 1


class TestInvariantsCommands:
    def test_zarea_output(self, capsys):
        code = run(["invariants", "zarea", "--side1", "1;0", "--side2", "0;1",
                    "--p", "2"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "(0) + (1) z + (0) z^2"

    def test_abc_output(self, capsys):
        code = run(["invariants", "abc", "--a", "1", "--b", "1", "--e", "2",
                    "--f", "1", "--p", "2"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {
            "A": "1",
            "B": "-2",
            "C": "0",
            "discriminant_quarter": "-3",
            "sign": -1,
        }

    @pytest.mark.parametrize(
        "a, b, e, f, p",
        [
            ("1", "1", "2", "1", "2"),
            ("0", "1", "1", "1", "2"),
            ("3/2", "-1/3", "5", "-7/4", "5/2"),
            ("-1", "2", "1", "3/5", "3"),
            ("7", "2", "-1", "4", "7"),
        ],
    )
    def test_abc_matches_decide_rect_certificate(self, capsys, a, b, e, f, p):
        # One certificate, two ways in: the abc command and the certificate
        # inside a negative rect decision.
        code = run(["invariants", "abc", f"--a={a}", f"--b={b}", f"--e={e}",
                    f"--f={f}", f"--p={p}"])
        assert code == 0
        abc_out = capsys.readouterr().out
        code = run(["decide", "rect", "--y", f"{e} + {f}*sqrt",
                    "--r", f"{a} + {b}*sqrt", "--p", p])
        assert code == 1
        cert = json.loads(capsys.readouterr().out)["certificate"]
        assert abc_out == json.dumps(cert, indent=2, sort_keys=True) + "\n"

    def test_abc_rejects_member_ratio(self, capsys):
        code = run(["invariants", "abc", "--a", "1", "--b", "1", "--e", "1",
                    "--f", "1", "--p", "2"])
        assert code == 2


class TestRender:
    def test_decimal_approximation(self):
        assert quad_to_decimal(F2.quad(0, 1), 8) == "1.41421356"
        assert quad_to_decimal(F2.quad(Fraction(1, 2)), 4) == "0.5"
        assert quad_to_decimal(F2.quad(-2), 4) == "-2"

    def test_svg_structure_and_exact_attributes(self):
        svg = render_svg(pinwheel_dissection(F2.quad(3), F2.quad(1)), 12)
        assert svg.count("<rect") == 4
        assert svg.count("<path") == 1
        assert 'data-w="2"' in svg
        assert "data-loops=" in svg

    def test_single_tile_render(self):
        d = pinwheel_dissection(F2.quad(3), F2.quad(1))
        from quadrect import Dissection

        single = Dissection(
            rect_of(F2, 0, 0, 1, 1).to_polygon(), (rect_of(F2, 0, 0, 1, 1),)
        )
        svg = render_svg(single, 6)
        assert svg.count("<rect") == 1

    def test_byte_identical_renders(self, tmp_path, pinwheel_file):
        out1 = tmp_path / "a.svg"
        out2 = tmp_path / "b.svg"
        assert run(["render", "--instance", str(pinwheel_file),
                    "--out", str(out1)]) == 0
        assert run(["render", "--instance", str(pinwheel_file),
                    "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_irrational_coordinates_render(self, tmp_path):
        tree_doc = None
        code = run(["construct", "--y", "0+1*sqrt", "--r", "1+1*sqrt", "--p", "2",
                    "--out", str(tmp_path / "w.json")])
        assert code == 0
        assert run(["render", "--instance", str(tmp_path / "w.json"),
                    "--out", str(tmp_path / "w.svg"), "--precision", "40"]) == 0
        svg = (tmp_path / "w.svg").read_text()
        assert "sqrt" in svg  # exact coordinates embedded as data attributes

    def test_precision_above_cap_exits_two_and_writes_nothing(
        self, capsys, tmp_path, pinwheel_file
    ):
        out = tmp_path / "p.svg"
        assert run(["render", "--instance", str(pinwheel_file), "--out", str(out),
                    "--precision", "1001"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "at most 1000 digits" in captured.err
        assert not out.exists()
        with pytest.raises(ValueError, match="at least one digit"):
            quad_to_decimal(F2.one, 0)


class TestLayering:
    def test_decision_and_geometry_never_import_renderer(self):
        import quadrect.decision as decision
        import quadrect.geometry as geometry
        import quadrect.invariants as invariants
        import quadrect.constructor as constructor

        for module in (decision, geometry, invariants, constructor):
            source = Path(module.__file__).read_text()
            assert "render" not in source
            assert "svg" not in source.lower()


class TestModuleEntryPoint:
    """``python -m quadrect.cli`` behaves like the installed console script."""

    ROOT = Path(__file__).resolve().parents[1]

    def _module(self, *args):
        env = dict(os.environ, PYTHONPATH=str(self.ROOT / "src"))
        return subprocess.run(
            [sys.executable, "-m", "quadrect.cli", *args],
            env=env, capture_output=True, text=True, timeout=60,
        )

    def test_negative_verdict_exits_one_with_run_output(self, capsys):
        args = ["decide", "rect", "--y", "2+1*sqrt", "--r", "1+1*sqrt", "--p", "2"]
        assert run(args) == 1
        expected = capsys.readouterr().out
        done = self._module(*args)
        assert done.returncode == 1
        assert done.stdout == expected != ""

    def test_precision_above_cap_exits_two(self, tmp_path, pinwheel_file):
        out = tmp_path / "p.svg"
        done = self._module("render", "--instance", str(pinwheel_file),
                            "--out", str(out), "--precision", "1001")
        assert done.returncode == 2
        assert "at most 1000 digits" in done.stderr
        assert not out.exists()
