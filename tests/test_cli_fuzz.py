"""Random command lines and damaged instance documents through ``cli.run``.

Whatever the flags or the document hold, a call ends with exit 0, 1 or 2:
malformed input is an input error, never an escaped exception.  The draws
are derandomized, so every run tries the same cases.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings, strategies as st

from quadrect import Dissection, FieldParam, pinwheel_dissection
from quadrect.cli import run
from quadrect.jsonio import instance_to_json
from quadrect.samples import l_shape, rect_of, similar_pair_hexagon

F2 = FieldParam(2)
F3 = FieldParam(3)

FUZZ = settings(
    max_examples=150,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

# Valid documents to damage: irrational coordinates with a hole, string
# scalars, a rational L-shape, and two similar but unequal tiles.
DOCUMENTS = [
    instance_to_json(pinwheel_dissection(F2.quad(3, 1), F2.one)),
    {"p": "2",
     "region": {"loops": [[["0", "0"], ["1 + 1*sqrt", "0"], ["1 + 1*sqrt", "1"], ["0", "1"]]]},
     "tiles": [{"x": "0", "y": "0", "w": "1 + 1*sqrt", "h": "1"}]},
    instance_to_json(Dissection(l_shape(F3), (
        rect_of(F3, 0, 0, 1, 1), rect_of(F3, 1, 0, 1, 1), rect_of(F3, 0, 1, 1, 1)))),
    instance_to_json(similar_pair_hexagon(F2)),
]

small_rats = st.fractions(min_value=-9, max_value=9, max_denominator=9)
rat_text = small_rats.map(str) | st.sampled_from(["0", "1/0", "-0", "+3", " 2 "])
field_text = rat_text | st.builds(lambda a, b: f"{a} + {b}*sqrt", small_rats, small_rats)
junk_text = st.one_of(
    st.text(max_size=12),
    st.sampled_from(["", "x", "1.5", "1e3", "nan", "٢", "9" * 151, "1 + 1*sqrt + 1"]),
)
p_value = st.sampled_from(["2", "3", "5/2", "3/4", "5", "7", "4", "-2"])
count_value = st.integers(-3, 13).map(str)
precision_value = st.integers(-3, 1003).map(str)
sides_value = st.lists(field_text, min_size=1, max_size=3).map(";".join)

# Each flag's well-formed values; a draw may also leave the flag out or
# give it junk.
SUBCOMMANDS = {
    ("decide", "rect"): {"--y": field_text, "--r": field_text, "--p": p_value},
    ("decide", "polygon"): {"--instance": "instance", "--r": field_text},
    ("decide", "hole"): {"--u": field_text, "--v": field_text, "--r": field_text,
                         "--p": p_value},
    ("verify",): {"--instance": "instance"},
    ("complete",): {"--instance": "instance"},
    ("construct",): {"--y": field_text, "--r": field_text, "--p": p_value,
                     "--max-leaves": count_value, "--out": "out"},
    ("invariants", "zarea"): {"--side1": sides_value, "--side2": sides_value, "--p": p_value},
    ("invariants", "abc"): {f"--{flag}": p_value if flag == "p" else rat_text
                            for flag in "abefp"},
    ("render",): {"--instance": "instance", "--out": "out", "--precision": precision_value},
}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    return code


def _files(tmp_path):
    """Instance paths (valid, unreadable or missing) and output paths."""
    inputs = []
    for i, doc in enumerate(DOCUMENTS):
        path = tmp_path / f"doc{i}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        inputs.append(str(path))
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff{not json")
    inputs += [str(bad), str(tmp_path / "missing.json"), str(tmp_path)]
    outputs = [str(tmp_path / "out.svg"), str(tmp_path / "no_dir" / "out.svg"), str(tmp_path)]
    return inputs, outputs


@FUZZ
@given(data=st.data())
def test_random_flags_exit_cleanly(tmp_path, data):
    inputs, outputs = _files(tmp_path)
    words = data.draw(st.sampled_from(sorted(SUBCOMMANDS)), label="subcommand")
    argv = list(words)
    for flag, values in SUBCOMMANDS[words].items():
        # Hypothesis favours the bounds, so the rare kinds sit inside the range.
        kind = data.draw(st.integers(0, 19), label=f"{flag} kind")
        if kind == 7:
            continue  # a missing flag is a usage error
        if kind == 13:
            value = data.draw(junk_text, label=flag)
        elif values == "instance":
            value = data.draw(st.sampled_from(inputs), label=flag)
        elif values == "out":
            value = data.draw(st.sampled_from(outputs), label=flag)
        else:
            value = data.draw(values, label=flag)
        argv.append(f"{flag}={value}")
    if data.draw(st.integers(0, 19), label="extra flag") == 7:
        argv.append("--nope=1")
    _run(argv)


def _draw_node(data, doc):
    """Path to a node, found by descending from the root; stopping a quarter
    of the time gives the structural nodes near the root a fair share."""
    path, node = (), doc
    while isinstance(node, (dict, list)) and node and data.draw(st.integers(0, 3), label="descend"):
        key = data.draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))),
                        label="child")
        path, node = (*path, key), node[key]
    return path


json_leaves = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
                        field_text, st.text(max_size=8))
json_values = st.one_of(json_leaves, st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
))


def _mutate(doc, path, how, replacement):
    """``doc`` with the node at ``path`` dropped, duplicated or replaced."""
    doc = json.loads(json.dumps(doc))
    if not path:
        return None if how == "drop" else [doc, doc] if how == "duplicate" else replacement
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if how == "drop":
        del parent[key]
    elif how == "duplicate":
        if isinstance(parent, list):
            parent.insert(key, parent[key])
        else:
            parent[f"{key}_copy"] = parent[key]
    else:
        parent[key] = replacement
    return doc


@FUZZ
@given(data=st.data())
def test_damaged_instances_exit_cleanly(tmp_path, data):
    doc = data.draw(st.sampled_from(DOCUMENTS), label="document")
    path = _draw_node(data, doc)
    how = data.draw(st.sampled_from(["drop", "duplicate", "replace"]), label="mutation")
    replacement = data.draw(json_values, label="replacement") if how == "replace" else None
    damaged = tmp_path / "damaged.json"
    damaged.write_text(json.dumps(_mutate(doc, path, how, replacement)), encoding="utf-8")
    argv_tail = ["--instance", str(damaged)]
    for command in (["verify"], ["complete"], ["decide", "polygon", "--r", "1+1*sqrt"],
                    ["render", "--out", str(tmp_path / "damaged.svg"), "--precision", "5"]):
        _run([*command, *argv_tail])

