"""Seeded operation streams for the three benchmark workloads.

A workload is an endless sequence of rounds.  Round ``i`` is generated from
``(seed, i)`` alone; its mix of operation kinds depends on ``i`` only (the
seed chooses the values and the order), and it is generated before any of
its operations is timed.  Each operation is one closed-loop
request: ``call`` performs exactly the library calls that are timed, and
``check`` inspects the result afterwards, outside the timed region, with the
independent oracle.  ``check`` returns the bytes that go into the output
digest and the work counters the traced run reports.

The library is always called through its module attributes
(``quadrect.geometry.verify_tiling`` rather than a name imported once), so the
tracer can interpose on every call at run time.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import quadrect.cli
import quadrect.completion
import quadrect.constructor
import quadrect.geometry
import quadrect.jsonio
import quadrect.samples
from quadrect.exactfield import FieldParam, Quad

import oracle as O
from oracle import require


PS = (2, 3, 5)
FIELDS = {p: FieldParam(p) for p in PS}


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], tuple[bytes, dict]]


# -- shared generators -------------------------------------------------------


def _pair(q: Quad) -> O.Pair:
    return (q.a, q.b)


def _quad(x: O.Pair, p: int) -> Quad:
    return FIELDS[p].quad(x[0], x[1])


def _rand_rat(rng: random.Random, lo: int, hi: int, max_den: int) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def _rand_positive(rng: random.Random, p: int, span: int = 3, max_den: int = 3) -> O.Pair:
    while True:
        x = (_rand_rat(rng, -span, span, max_den), _rand_rat(rng, -span, span, max_den))
        if O.sign(x, Fraction(p)) > 0:
            return x


def _rand_step(rng: random.Random) -> O.Pair:
    """A positive irrational increment for monotone coordinate sequences.
    The denominators are fixed, so coefficient sizes, and with them the cost
    of an operation on a given shape, do not depend on the seed."""
    return (Fraction(rng.randint(1, 4)), Fraction(rng.randint(1, 3), 4))


def _rep(x: O.Pair, p: int) -> O.Pair:
    """The class representative >= 1 of {x, 1/x}."""
    pp = Fraction(p)
    one = (Fraction(1), Fraction(0))
    return x if not O.less(x, one, pp) else O.inv(x, pp)


def _random_tree_ratio(rng: random.Random, leaves: int, r: O.Pair, p: int) -> O.Pair:
    """Ratio of a random guillotine composition with exactly ``leaves`` tiles."""
    pp = Fraction(p)
    if leaves == 1:
        return r if rng.random() < 0.5 else O.inv(r, pp)
    k = rng.randint(1, leaves - 1)
    x = _random_tree_ratio(rng, k, r, p)
    y = _random_tree_ratio(rng, leaves - k, r, p)
    if rng.random() < 0.5:
        return O.add(x, y)
    return O.inv(O.add(O.inv(x, pp), O.inv(y, pp)), pp)


def _nontileable(rng: random.Random, r: O.Pair, p: int) -> O.Pair:
    while True:
        y = _rand_positive(rng, p, span=4, max_den=3)
        if not O.member(y, r, Fraction(p))[0]:
            return y


def _beyond_budget(rng: random.Random, r: O.Pair, p: int) -> O.Pair:
    """k*R + j/R with k >= 10, R = max(r, 1/r): tileable (k + j side-by-side
    tiles), but an n-tile guillotine ratio never exceeds n*R, so no witness
    with at most 9 tiles exists."""
    pp = Fraction(p)
    big = _rep(r, p)
    y = O.add(O.scale(big, Fraction(rng.randint(10, 14))), O.scale(O.inv(big, pp), Fraction(rng.randint(0, 3))))
    if not O.member(y, r, pp)[0]:
        raise AssertionError("a guillotine-composed ratio failed the membership test")
    return y


def _staircase(rng: random.Random, p: int, steps: int) -> tuple[list, list]:
    """Dissection of a descending staircase into ``steps`` columns; every
    coordinate is irrational.  2*steps + 2 vertices, ``steps`` tiles."""
    pp = Fraction(p)
    x0 = (_rand_rat(rng, -3, 3, 3), _rand_rat(rng, -2, 2, 4))
    y0 = (_rand_rat(rng, -3, 3, 3), _rand_rat(rng, -2, 2, 4))
    xs = [x0]
    for _ in range(steps):
        xs.append(O.add(xs[-1], _rand_step(rng)))
    heights = [_rand_step(rng)]
    for _ in range(steps - 1):
        heights.append(O.add(heights[-1], _rand_step(rng)))
    heights.reverse()  # column i has height heights[i], strictly decreasing
    tops = [O.add(y0, h) for h in heights]
    pts = [(xs[0], y0), (xs[-1], y0)]
    for i in range(steps - 1, -1, -1):
        pts.append((xs[i + 1], tops[i]))
        pts.append((xs[i], tops[i]))
    if O.sign(O.region_area([pts], pp), pp) <= 0:
        raise AssertionError("staircase generator produced a clockwise loop")
    tiles = [(xs[i], y0, O.sub(xs[i + 1], xs[i]), heights[i]) for i in range(steps)]
    return [pts], tiles


def _instance_doc(p: int, loops: list, tiles: list) -> dict:
    """Instance document in the library's JSON schema, built from pairs."""

    def q(x: O.Pair) -> dict:
        return {"a": O.fmt_rat(x[0]), "b": O.fmt_rat(x[1])}

    return {
        "p": str(p),
        "region": {"loops": [[[q(x), q(y)] for x, y in loop] for loop in loops]},
        "tiles": [{"x": q(x), "y": q(y), "w": q(w), "h": q(h)} for x, y, w, h in tiles],
    }


def _dissection_pairs(d: Any) -> tuple[list, list]:
    loops = [[(_pair(pt.x), _pair(pt.y)) for pt in loop] for loop in d.region.loops]
    tiles = [(_pair(t.x), _pair(t.y), _pair(t.width), _pair(t.height)) for t in d.tiles]
    return loops, tiles


def _split_fraction(rng: random.Random) -> O.Pair:
    """A cut position strictly inside (0, 1), irrational two times in five."""
    den = rng.randint(2, 6)
    t = (Fraction(rng.randint(1, den - 1), den), Fraction(0))
    if rng.random() < 0.4:
        t = (t[0], Fraction(rng.choice((-1, 1)), 64))  # |sqrt(p)/64| < 1/den
    return t


def _guillotine(rng: random.Random, p: int, tiles: int) -> tuple[list, list]:
    """Guillotine dissection of a rectangle into exactly ``tiles`` tiles.

    Each step cuts a random tile in two.  Half the cuts are vertical and half
    horizontal, so the induced grid has close to (tiles/2)**2 cells whatever
    the seed; input size, and with it the cost of verifying, stays fixed."""
    pp = Fraction(p)
    x0, y0 = _rand_step(rng), _rand_step(rng)
    w0 = O.add(_rand_step(rng), (Fraction(2), Fraction(0)))
    h0 = O.add(_rand_step(rng), (Fraction(1), Fraction(0)))
    out = [(x0, y0, w0, h0)]
    cuts = [True] * ((tiles - 1) // 2) + [False] * (tiles - 1 - (tiles - 1) // 2)
    rng.shuffle(cuts)
    for vertical in cuts:
        x, y, w, h = out.pop(rng.randrange(len(out)))
        t = _split_fraction(rng)
        if vertical:
            w1 = O.mul(w, t, pp)
            out += [(x, y, w1, h), (O.add(x, w1), y, O.sub(w, w1), h)]
        else:
            h1 = O.mul(h, t, pp)
            out += [(x, y, w, h1), (x, O.add(y, h1), w, O.sub(h, h1))]
    x1, y1 = O.add(x0, w0), O.add(y0, h0)
    return [[(x0, y0), (x1, y0), (x1, y1), (x0, y1)]], out


CORRUPTIONS = ("gap", "overlap", "protrusion")


def _corrupt(kind: str, rng: random.Random, loops: list, tiles: list, p: int) -> list:
    """Damage a valid tiling so that exactly one issue kind appears."""
    tiles = list(tiles)
    idx = rng.randrange(len(tiles))
    if kind == "gap":
        del tiles[idx]
    elif kind == "overlap":
        tiles.insert(idx, tiles[idx])
    else:
        # a copy shifted right by the region's width plus its own lies wholly outside
        pp = Fraction(p)
        xs = [pt[0] for loop in loops for pt in loop]
        lo = hi = xs[0]
        for x in xs[1:]:
            lo = x if O.less(x, lo, pp) else lo
            hi = x if O.less(hi, x, pp) else hi
        x, y, w, h = tiles[idx]
        tiles.append((O.add(x, O.add(O.sub(hi, lo), w)), y, w, h))
    return tiles


def _check_report(doc: dict, expect_valid: bool, expect_kind: str | None) -> dict:
    require(doc["valid"] is expect_valid, f"verify said valid={doc['valid']}, expected {expect_valid}")
    kinds = {issue["kind"] for issue in doc["issues"]}
    if expect_valid:
        require(not kinds, "valid tiling reported issues")
    else:
        require(kinds == {expect_kind}, f"issue kinds {sorted(kinds)} != [{expect_kind}]")
    cells = doc["cells"]
    return {"cells": cells["nx"] * cells["ny"], "issues": len(doc["issues"])}


def _edges(loops: list) -> int:
    return sum(len(loop) for loop in loops)


class Workload:
    name = ""
    digest_rounds = 1  # rounds whose outputs the digest covers
    min_rounds = 1  # fewest rounds an end-to-end run measures

    def __init__(self, seed: int, tmp: Path) -> None:
        self.seed = seed
        self.tmp = tmp

    def rng(self, tag: object) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{tag}")

    def round(self, index: int) -> list[Op]:
        raise NotImplementedError

    def warmup(self) -> list[Op]:
        raise NotImplementedError

    def operands(self) -> tuple[int, list[O.Pair]]:
        """A field and field elements drawn from this workload's own inputs,
        for the exactfield micro-probe."""
        raise NotImplementedError

    def capture(self) -> contextlib.AbstractContextManager:
        """Context in which the workload's operations run."""
        return contextlib.nullcontext()

    def close(self) -> None:
        """Remove any files the workload wrote."""


# -- cli_mix -------------------------------------------------------------------

_LATTICE = sorted({Fraction(n, d) for n in range(-3, 4) for d in (1, 2, 3)})

# kind -> operations per round (100 in total); every STAIR9_EVERY-th round
# trades one small verify for a verify_stair9
CLI_MIX = {
    "decide_rect": 62,
    "decide_hole": 4,
    "decide_polygon": 4,
    "verify": 6,
    "complete": 5,
    "render": 3,
    "construct": 4,
    "inv_abc": 4,
    "inv_zarea": 3,
    "malformed": 5,
}


# The 9-step staircase verifies are four times dearer than any other request.
# At one per five rounds, a 30 s run holds about twenty of them, so the
# tail sample (ten above it) is near their median rather than their maximum.
STAIR9_EVERY = 5


class CliMix(Workload):
    name = "cli_mix"
    digest_rounds = 20
    min_rounds = 20

    def __init__(self, seed: int, tmp: Path) -> None:
        super().__init__(seed, tmp)
        self._live: list[Path] = []
        self._out = io.StringIO()
        self._err = io.StringIO()

    def capture(self) -> contextlib.AbstractContextManager:
        # cli.run writes its results to sys.stdout and diagnostics to sys.stderr
        stack = contextlib.ExitStack()
        stack.enter_context(contextlib.redirect_stdout(self._out))
        stack.enter_context(contextlib.redirect_stderr(self._err))
        return stack

    def _drain(self) -> tuple[str, str]:
        out, err = self._out.getvalue(), self._err.getvalue()
        for buf in (self._out, self._err):
            buf.seek(0)
            buf.truncate()
        return out, err

    def _file(self, rid: object, n: int, text: str) -> str:
        d = self.tmp / f"round-{rid}"
        d.mkdir(parents=True, exist_ok=True)
        path = d / f"{n}.json"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def _recycle(self, rid: object) -> None:
        # keep the files of the round in flight and the one before it
        self._live.append(self.tmp / f"round-{rid}")
        while len(self._live) > 2:
            shutil.rmtree(self._live.pop(0), ignore_errors=True)

    def close(self) -> None:
        for d in self._live:
            shutil.rmtree(d, ignore_errors=True)
        self._live.clear()

    def round(self, index: int) -> list[Op]:
        if index % STAIR9_EVERY:
            return self._make(index, CLI_MIX)
        return self._make(index, dict(CLI_MIX, verify=CLI_MIX["verify"] - 1, verify_stair9=1))

    def warmup(self) -> list[Op]:
        return self._make("warmup", dict.fromkeys([*CLI_MIX, "verify_stair9"], 1))

    def operands(self) -> tuple[int, list[O.Pair]]:
        rng = self.rng("operands")
        p = 2
        out = []
        for _ in range(400):
            out.append(self._lattice_y(rng, p))
            out.append(self._small_r(rng, p))
        return p, out

    def _make(self, rid: object, mix: dict) -> list[Op]:
        rng = self.rng(rid)
        kinds = [k for k, n in mix.items() for _ in range(n)]
        rng.shuffle(kinds)
        self._recycle(rid)
        ops = []
        for n, kind in enumerate(kinds):
            ops.append(getattr(self, "_op_" + kind)(rng, rid, n))
        return ops

    @staticmethod
    def _lattice_y(rng: random.Random, p: int) -> O.Pair:
        while True:
            y = (rng.choice(_LATTICE), rng.choice(_LATTICE))
            if O.sign(y, Fraction(p)) > 0:
                return y

    @staticmethod
    def _small_r(rng: random.Random, p: int) -> O.Pair:
        while True:
            r = (Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2)))
            if O.sign(r, Fraction(p)) > 0:
                return r

    def _cli(self, kind: str, argv: list[str], expect: int, check_out: Callable[[str], dict],
             bytes_in: int = 0, extra: Callable[[], bytes] | None = None) -> Op:
        def call() -> Any:
            self._drain()  # drop output of a request that raised before its check
            return quadrect.cli.run(argv)

        def check(code: Any) -> tuple[bytes, dict]:
            out, err = self._drain()
            require(code == expect, f"{kind}: exit {code}, expected {expect} ({err.strip()[:120]})")
            require("Traceback" not in err, f"{kind}: traceback on stderr")
            stats = {"cli.requests": 1, "cli.rejected": int(code == 2), "jsonio.bytes_in": bytes_in}
            stats.update(check_out(out))
            blob = f"{kind}|{code}|".encode() + out.encode()
            if extra is not None:
                blob += extra()
            return blob, stats

        return Op(kind, call, check)

    # each _op_* builds one request with its expected exit code and checker

    def _op_decide_rect(self, rng: random.Random, rid: object, n: int) -> Op:
        p = rng.choice(PS)
        y, r = self._lattice_y(rng, p), self._small_r(rng, p)
        argv = ["decide", "rect", f"--y={O.fmt(y)}", f"--r={O.fmt(r)}", f"--p={p}"]
        expect = 0 if O.member(y, r, Fraction(p))[0] else 1

        def check_out(out: str) -> dict:
            return _verdict_stats(json.loads(out), y, r, p, out)

        return self._cli("decide_rect", argv, expect, check_out)

    def _op_decide_hole(self, rng: random.Random, rid: object, n: int) -> Op:
        p = rng.choice(PS)
        pp = Fraction(p)
        v = _rand_positive(rng, p, 2, 2)
        u = O.add(v, _rand_positive(rng, p, 2, 2))
        r = self._small_r(rng, p)
        t = O.div(O.add(u, v), O.sub(u, v), pp)
        argv = ["decide", "hole", f"--u={O.fmt(u)}", f"--v={O.fmt(v)}", f"--r={O.fmt(r)}", f"--p={p}"]
        expect = 0 if O.member(t, r, pp)[0] else 1

        def check_out(out: str) -> dict:
            doc = json.loads(out)
            require(O.from_json(doc["ratio"]) == t, "hole ratio is not (u+v)/(u-v)")
            require(len(doc["pinwheel"]["tiles"]) == 4, "pinwheel needs four tiles")
            return _verdict_stats(doc, t, r, p, out)

        return self._cli("decide_hole", argv, expect, check_out)

    def _op_decide_polygon(self, rng: random.Random, rid: object, n: int) -> Op:
        p = rng.choice(PS)
        pp = Fraction(p)
        w, h = _rand_positive(rng, p, 2, 2), _rand_positive(rng, p, 2, 2)
        cols, rows = rng.randint(1, 3), rng.randint(1, 3)
        x0, y0 = (Fraction(rng.randint(-2, 2)), Fraction(0)), (Fraction(0), Fraction(rng.randint(-1, 1)))
        tiles = []
        for j in range(rows):
            for i in range(cols):
                tiles.append((O.add(x0, O.scale(w, Fraction(i))), O.add(y0, O.scale(h, Fraction(j))), w, h))
        x1, y1 = O.add(x0, O.scale(w, Fraction(cols))), O.add(y0, O.scale(h, Fraction(rows)))
        loops = [[(x0, y0), (x1, y0), (x1, y1), (x0, y1)]]
        text = json.dumps(_instance_doc(p, loops, tiles), sort_keys=True)
        path = self._file(rid, n, text)
        r = self._small_r(rng, p)
        y = O.div(w, h, pp) if not O.less(w, h, pp) else O.div(h, w, pp)
        argv = ["decide", "polygon", "--instance", path, f"--r={O.fmt(r)}"]
        expect = 0 if O.member(y, r, pp)[0] else 1

        def check_out(out: str) -> dict:
            stats = _verdict_stats(json.loads(out), y, r, p, out)
            stats["geometry.edges"] = 4
            return stats

        return self._cli("decide_polygon", argv, expect, check_out, len(text))

    def _small_dissection(self, rng: random.Random, p: int) -> tuple[list, list]:
        if rng.random() < 0.5:
            return _staircase(rng, p, rng.randint(3, 6))
        return _guillotine(rng, p, rng.randint(2, 8))

    def _op_verify_stair9(self, rng: random.Random, rid: object, n: int) -> Op:
        # the largest instance a cli request carries (20 vertices)
        return self._op_verify(rng, rid, n, "verify_stair9")

    def _op_verify(self, rng: random.Random, rid: object, n: int, kind: str = "verify") -> Op:
        p = rng.choice(PS)
        if kind == "verify":
            loops, tiles = self._small_dissection(rng, p)
            corrupt = rng.choice(CORRUPTIONS) if rng.random() < 1 / 3 else None
        else:
            loops, tiles = _staircase(rng, p, 9)
            corrupt = None
        if corrupt:
            tiles = _corrupt(corrupt, rng, loops, tiles, p)
        text = json.dumps(_instance_doc(p, loops, tiles), sort_keys=True)
        path = self._file(rid, n, text)

        def check_out(out: str) -> dict:
            stats = _check_report(json.loads(out), corrupt is None, corrupt)
            return {"geometry.cells": stats["cells"], "geometry.issues": stats["issues"],
                    "geometry.edges": _edges(loops), "jsonio.bytes_out": len(out)}

        return self._cli(kind, ["verify", "--instance", path], 0 if corrupt is None else 1,
                         check_out, len(text))

    def _op_complete(self, rng: random.Random, rid: object, n: int) -> Op:
        p = rng.choice(PS)
        poly = quadrect.samples.random_rectilinear_polygon(rng, FIELDS[p], max_vertices=20)
        loops = [[(_pair(pt.x), _pair(pt.y)) for pt in loop] for loop in poly.loops]
        text = json.dumps(_instance_doc(p, loops, []), sort_keys=True)
        path = self._file(rid, n, text)

        def check_out(out: str) -> dict:
            added = O.check_completion(json.loads(out), loops, Fraction(p))
            return {"completion.added": added, "completion.cells": _grid_cells(loops),
                    "jsonio.bytes_out": len(out)}

        return self._cli("complete", ["complete", "--instance", path], 0, check_out, len(text))

    def _op_render(self, rng: random.Random, rid: object, n: int) -> Op:
        p = rng.choice(PS)
        loops, tiles = self._small_dissection(rng, p)
        text = json.dumps(_instance_doc(p, loops, tiles), sort_keys=True)
        path = self._file(rid, n, text)
        svg_path = Path(path).with_suffix(".svg")
        argv = ["render", "--instance", path, "--out", str(svg_path),
                "--precision", str(rng.choice((10, 20, 30)))]
        svg_bytes = b""

        def check_out(out: str) -> dict:
            nonlocal svg_bytes
            require(out == "", "render wrote to stdout")
            svg_bytes = svg_path.read_bytes()
            svg = svg_bytes.decode("utf-8")
            require(svg.startswith('<?xml version="1.0"'), "render output is not an SVG document")
            require(svg.count("<rect ") == len(tiles), "render lost or invented tiles")
            require(svg.rstrip().endswith("</svg>"), "render output is truncated")
            return {"render.bytes": len(svg_bytes)}

        return self._cli("render", argv, 0, check_out, len(text), lambda: svg_bytes)

    def _op_construct(self, rng: random.Random, rid: object, n: int) -> Op:
        p = rng.choice(PS)
        pp = Fraction(p)
        r = _rand_positive(rng, p, 2, 1)
        max_leaves = rng.randint(3, 6)
        hit = rng.random() < 0.5
        leaves = rng.randint(1, max_leaves)
        y = _random_tree_ratio(rng, leaves, r, p) if hit else _nontileable(rng, r, p)
        argv = ["construct", f"--y={O.fmt(y)}", f"--r={O.fmt(r)}", f"--p={p}", "--max-leaves", str(max_leaves)]

        def check_out(out: str) -> dict:
            stats = {"constructor.searches": 1, "constructor.found": int(hit)}
            if not hit:
                require(out == "", "failed search wrote to stdout")
                return stats
            doc = json.loads(out)
            require(1 <= doc["leaves"] <= leaves, f"witness has {doc['leaves']} tiles, more than {leaves}")
            tiles = [O.rect_from_json(t) for t in doc["tiles"]]
            require(len(tiles) == doc["leaves"], "leaf count disagrees with the tiles")
            O.check_witness_tiles(tiles, y, r, pp)
            # re-verify the emitted witness with the library's own verifier
            inst = quadrect.jsonio.instance_from_json(doc)
            require(quadrect.geometry.verify_tiling(inst.dissection()).valid, "emitted witness does not verify")
            stats["jsonio.bytes_out"] = len(out)
            return stats

        return self._cli("construct", argv, 0 if hit else 1, check_out)

    def _op_inv_abc(self, rng: random.Random, rid: object, n: int) -> Op:
        p = rng.choice(PS)
        pp = Fraction(p)
        while True:
            r = _rand_positive(rng, p, 3, 2)
            if r[1] != 0:
                break
        y = _nontileable(rng, r, p)
        argv = ["invariants", "abc", f"--a={O.fmt_rat(r[0])}", f"--b={O.fmt_rat(r[1])}",
                f"--e={O.fmt_rat(y[0])}", f"--f={O.fmt_rat(y[1])}", f"--p={p}"]

        def check_out(out: str) -> dict:
            O.check_certificate(json.loads(out), y, r, pp)
            return {"invariants.certificates": 1, "jsonio.bytes_out": len(out)}

        return self._cli("inv_abc", argv, 0, check_out)

    def _op_inv_zarea(self, rng: random.Random, rid: object, n: int) -> Op:
        p = rng.choice(PS)
        pp = Fraction(p)
        k = rng.randint(2, 3)
        s1 = [(_rand_rat(rng, -3, 3, 3), _rand_rat(rng, -3, 3, 3)) for _ in range(k)]
        s2 = [(_rand_rat(rng, -3, 3, 3), _rand_rat(rng, -3, 3, 3)) for _ in range(k)]
        argv = ["invariants", "zarea", "--side1=" + ";".join(O.fmt(x) for x in s1),
                "--side2=" + ";".join(O.fmt(x) for x in s2), f"--p={p}"]
        c0 = O.mul(s1[0], s2[0], pp)
        c1 = O.add(O.mul(s1[0], s2[1], pp), O.mul(s1[1], s2[0], pp))
        c2 = O.mul(s1[1], s2[1], pp)
        want = f"({O.fmt(c0)}) + ({O.fmt(c1)}) z + ({O.fmt(c2)}) z^2\n"

        def check_out(out: str) -> dict:
            require(out == want, f"z-area {out!r} != {want!r}")
            return {}

        return self._cli("inv_zarea", argv, 0, check_out)

    def _op_malformed(self, rng: random.Random, rid: object, n: int) -> Op:
        p = rng.choice(PS)
        sq = rng.choice(("4", "9", "16", "1/4", "25/9"))
        choice = rng.randrange(9)
        bytes_in = 0
        if choice == 0:
            argv = ["decide", "rect", f"--y={rng.randint(1, 5)}+*sqrt", "--r=1 + 1*sqrt", f"--p={p}"]
        elif choice == 1:
            argv = ["decide", "rect", "--y=2", "--r=1 + 1*sqrt", f"--p={sq}"]
        elif choice == 2:
            argv = ["decide", "rect", "--y=2", "--r=1 + 1*sqrt", f"--p={rng.randint(1, 9)}/0"]
        elif choice == 3:
            argv = ["verify", "--instance", str(self.tmp / f"round-{rid}" / f"missing-{n}.json")]
        elif choice == 4:
            text = '{"p": "2", "region": {"loops": [[["0", "0"], '
            argv = ["complete", "--instance", self._file(rid, n, text)]
            bytes_in = len(text)
        elif choice == 5:
            argv = [rng.choice(("frobnicate", "verfiy", "decide-rect"))]
        elif choice == 6:
            u = rng.randint(1, 3)
            argv = ["decide", "hole", f"--u={u}", f"--v={u + rng.randint(0, 2)}", "--r=1 + 1*sqrt", f"--p={p}"]
        elif choice == 7:
            argv = ["construct", "--y=1", "--r=1 + 1*sqrt", f"--p={p}", "--max-leaves", "many"]
        else:
            argv = ["decide", "rect", f"--y={rng.randint(1, 5)}"]

        def check_out(out: str) -> dict:
            require(out == "", "rejected request wrote to stdout")
            return {}

        return self._cli("malformed", argv, 2, check_out, bytes_in)


def _verdict_stats(doc: dict, y: O.Pair, r: O.Pair, p: int, out: str) -> dict:
    tileable = O.check_verdict(doc, y, r, Fraction(p))
    return {
        "decision.calls": 1,
        "decision.negatives": int(not tileable),
        "invariants.certificates": int(doc["certificate"] is not None),
        "jsonio.bytes_out": len(out),
    }


def _grid_cells(loops: list) -> int:
    """Cells of the grid induced by the region's own coordinates."""
    xs = {pt[0] for loop in loops for pt in loop}
    ys = {pt[1] for loop in loops for pt in loop}
    return (len(xs) - 1) * (len(ys) - 1)


# -- witness_search ------------------------------------------------------------

# (kind, max_leaves, count) per field and round; each of the three fields
# gets its own tile ratio in every round
WITNESS_MIX = (
    ("miss_nontileable", 9, 2),
    ("miss_beyond", 9, 2),
    ("miss_nontileable", 8, 1),
    ("miss_beyond", 8, 1),
    ("miss_nontileable", 7, 3),
    ("miss_beyond", 7, 1),
    ("hit", 0, 6),
)


class WitnessSearch(Workload):
    name = "witness_search"
    digest_rounds = 1
    # A round adds one reachable_ratios(r, 9) enumeration, for the field
    # PS[round % 3], to the searches of all three fields, and takes about
    # 7.9 s, so a 30 s run is four rounds with room either side.  Then the
    # ten slowest operations are the four enumerations and six of the 48
    # full 9-tile misses, so latency_tail_ms lies inside the miss class; it
    # stays there from 2 to 9 rounds.
    min_rounds = 2

    @staticmethod
    def _tile_ratio(rng: random.Random, p: int) -> O.Pair:
        # 1 + sqrt(p), whose 9-tile class table holds 98-101k classes, or its
        # inverse, which searches the same classes.  A full search costs what
        # r dictates, so fixing r per field keeps each round's cost
        # independent of the seed.
        r = (Fraction(1), Fraction(1))
        return r if rng.random() < 0.5 else O.inv(r, Fraction(p))

    def round(self, index: int) -> list[Op]:
        return self._make(index, WITNESS_MIX, PS[index % len(PS)])

    def warmup(self) -> list[Op]:
        return self._make("warmup", (("miss_nontileable", 6, 1), ("miss_beyond", 6, 1), ("hit", 0, 1)), None)

    def operands(self) -> tuple[int, list[O.Pair]]:
        rng = self.rng("operands")
        p = 2
        r = self._tile_ratio(rng, p)
        out = [r]
        for _ in range(300):
            out.append(_random_tree_ratio(rng, rng.randint(1, 6), r, p))
            out.append(_nontileable(rng, r, p))
        return p, out

    def _make(self, rid: object, mix: tuple, enumerate_p: int | None) -> list[Op]:
        rng = self.rng(rid)
        ops: list[Op] = []
        for p in PS:
            r = self._tile_ratio(rng, p)
            targets: list[tuple[O.Pair, int | None]] = []  # (y, tiles of its generating tree)
            for kind, ml, count in mix:
                for _ in range(count):
                    leaves: int | None = None
                    if kind == "hit":
                        leaves = size = rng.randint(2, 6)
                        ml = rng.randint(7, 9)
                        y = _random_tree_ratio(rng, size, r, p)
                    elif kind == "miss_beyond":
                        y = _beyond_budget(rng, r, p)
                    else:
                        y = _nontileable(rng, r, p)
                    targets.append((y, leaves))
                    ops.append(self._search_op(kind if kind == "hit" else f"{kind}_{ml}", y, r, p, ml, leaves))
            if p == enumerate_p:
                ops.append(self._enumerate_op(r, p, 9, targets))
        rng.shuffle(ops)
        return ops

    def _search_op(self, kind: str, y: O.Pair, r: O.Pair, p: int, ml: int, leaves: int | None) -> Op:
        fp = FIELDS[p]
        yq, rq = _quad(y, p), _quad(r, p)
        pp = Fraction(p)

        def call() -> Any:
            tree = quadrect.constructor.construct_dissection(yq, rq, ml)
            if tree is None:
                return None
            target = quadrect.geometry.Rect(quadrect.geometry.Point(fp.zero, fp.zero), yq, fp.one)
            d = quadrect.constructor.realize_tree(tree, target, rq)
            return tree, d, quadrect.geometry.verify_tiling(d)

        def check(result: Any) -> tuple[bytes, dict]:
            stats = {"constructor.searches": 1, "constructor.found": int(result is not None)}
            if leaves is None:
                require(result is None, f"{kind}: found a witness for an unreachable target")
                return f"{kind}|{ml}|none".encode(), stats
            require(result is not None, f"hit: no witness for a ratio built from {leaves} tiles")
            tree, d, report = result
            n = _leaf_count(tree)
            require(1 <= n <= leaves, f"witness has {n} tiles, target was built from {leaves}")
            require(report.valid, "realized witness does not verify")
            _, tiles = _dissection_pairs(d)
            require(len(tiles) == n, "realized tile count differs from the tree")
            O.check_witness_tiles(tiles, y, r, pp)
            stats.update({"geometry.cells": report.grid.nx * report.grid.ny, "geometry.edges": 4})
            blob = f"{kind}|{ml}|{tree!r}|".encode() + repr(tiles).encode()
            return blob, stats

        return Op(kind, call, check)

    def _enumerate_op(self, r: O.Pair, p: int, ml: int, targets: list) -> Op:
        rq = _quad(r, p)
        reps = [(_quad(_rep(y, p), p), leaves) for y, leaves in targets]
        r_rep = _quad(_rep(r, p), p)

        def call() -> Any:
            return quadrect.constructor.reachable_ratios(rq, ml)

        def check(result: Any) -> tuple[bytes, dict]:
            require(result.get(r_rep) == 1, "tile ratio class is missing from level 1")
            hist = [0] * (ml + 1)
            for level in result.values():
                hist[level] += 1
            require(hist[0] == 0 and sum(hist) == len(result), "class levels out of range")
            for rep, leaves in reps:
                got = result.get(rep)
                if leaves is None:
                    require(got is None, "an unreachable target appears among reachable classes")
                else:
                    require(got is not None and got <= leaves, "a built target is missing from its level")
            return f"enumerate|{ml}|{hist}".encode(), {"constructor.classes": len(result)}

        return Op(f"enumerate_{ml}", call, check)


def _leaf_count(tree: Any) -> int:
    name = type(tree).__name__
    if name == "Leaf":
        return 1
    if name == "HJoin":
        return _leaf_count(tree.left) + _leaf_count(tree.right)
    return _leaf_count(tree.bottom) + _leaf_count(tree.top)


# -- verify_large --------------------------------------------------------------

# (shape, path, corrupted, count) per round
VERIFY_MIX = (
    ("stair40", "verify", False, 3),
    ("stair20", "verify", False, 1),
    ("stair20", "complete", False, 2),
    ("stair10", "verify", True, 1),
    ("stair10", "complete", False, 1),
    ("guillotine", "verify", False, 3),
    ("guillotine", "verify", True, 1),
    ("holed", "complete", False, 1),
)


# Four operations per round are cheaper than the four guillotine verifies
# and five are dearer, so the median operation is a guillotine verify, over
# a grid of about 48 x 49 cells.
GUILLOTINE_TILES = 96


class VerifyLarge(Workload):
    name = "verify_large"
    digest_rounds = 2
    # three 40-step staircases per round: from four rounds on, more than ten
    # of them sit above every other kind, so they alone set latency_tail_ms
    min_rounds = 4

    def round(self, index: int) -> list[Op]:
        return self._make(index, PS[index % len(PS)], VERIFY_MIX)

    def warmup(self) -> list[Op]:
        return self._make("warmup", 2, (("stair10", "verify", False, 1), ("stair10", "complete", False, 1),
                                        ("holed", "complete", False, 1)))

    def operands(self) -> tuple[int, list[O.Pair]]:
        rng = self.rng("operands")
        p = 2
        loops, tiles = _guillotine(rng, p, GUILLOTINE_TILES)
        out = [pt for loop in loops for xy in loop for pt in xy]
        for t in tiles:
            out.extend(t)
        stair, _ = _staircase(rng, p, 40)
        out.extend(pt for loop in stair for xy in loop for pt in xy)
        return p, out

    def _make(self, rid: object, p: int, mix: tuple) -> list[Op]:
        rng = self.rng(rid)
        plan = [(shape, path, bad) for shape, path, bad, count in mix for _ in range(count)]
        rng.shuffle(plan)
        ops = []
        for shape, path, bad in plan:
            if shape.startswith("stair"):
                loops, tiles = _staircase(rng, p, int(shape[5:]))
            elif shape == "guillotine":
                loops, tiles = _guillotine(rng, p, GUILLOTINE_TILES)
            else:
                poly = quadrect.samples.random_rectilinear_polygon(rng, FIELDS[p], max_vertices=20, force_hole=True)
                loops = [[(_pair(pt.x), _pair(pt.y)) for pt in loop] for loop in poly.loops]
                tiles = []
            corrupt = None
            if bad:
                corrupt = rng.choice(CORRUPTIONS)
                tiles = _corrupt(corrupt, rng, loops, tiles, p)
            text = json.dumps(_instance_doc(p, loops, tiles), sort_keys=True)
            kind = f"{shape}_{path}"
            if path == "verify":
                ops.append(self._verify_op(kind, text, loops, corrupt))
            else:
                ops.append(self._complete_op(kind, text, loops, p))
        return ops

    @staticmethod
    def _verify_op(kind: str, text: str, loops: list, corrupt: str | None) -> Op:
        def call() -> Any:
            inst = quadrect.jsonio.instance_from_json(json.loads(text))
            report = quadrect.geometry.verify_tiling(inst.dissection())
            return json.dumps(quadrect.jsonio.report_to_json(report), sort_keys=True)

        def check(out: Any) -> tuple[bytes, dict]:
            stats = _check_report(json.loads(out), corrupt is None, corrupt)
            return f"{kind}|".encode() + out.encode(), {
                "geometry.cells": stats["cells"], "geometry.issues": stats["issues"],
                "geometry.edges": _edges(loops),
                "jsonio.bytes_in": len(text), "jsonio.bytes_out": len(out),
            }

        return Op(kind, call, check)

    @staticmethod
    def _complete_op(kind: str, text: str, loops: list, p: int) -> Op:
        def call() -> Any:
            inst = quadrect.jsonio.instance_from_json(json.loads(text))
            comp = quadrect.completion.complete_to_rectangle(inst.region)
            ok = quadrect.completion.verify_complement(inst.region, comp.bounding, comp.added)
            return ok, json.dumps(quadrect.jsonio.completion_to_json(comp), sort_keys=True)

        def check(result: Any) -> tuple[bytes, dict]:
            ok, out = result
            require(ok is True, "verify_complement rejected the library's own completion")
            added = O.check_completion(json.loads(out), loops, Fraction(p))
            return f"{kind}|".encode() + out.encode(), {
                "completion.added": added, "completion.cells": _grid_cells(loops),
                "jsonio.bytes_in": len(text), "jsonio.bytes_out": len(out),
            }

        return Op(kind, call, check)


WORKLOADS: dict[str, type[Workload]] = {w.name: w for w in (CliMix, WitnessSearch, VerifyLarge)}
