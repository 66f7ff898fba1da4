"""Independent exact arithmetic for checking the library's outputs.

Nothing here imports quadrect.  An element a + b*sqrt(p) of Q[sqrt(p)] is a
plain ``(a, b)`` pair of Fractions, and every check below is written out
from its defining formula, so a wrong verdict, certificate, witness or
completion cannot pass merely because the checker shares the library's code
path.
"""

from __future__ import annotations

from fractions import Fraction

Pair = tuple[Fraction, Fraction]

CASE_POSITIVE = "conjugate_positive"
CASE_NEGATIVE = "conjugate_negative"


class CheckFailed(Exception):
    """An output disagrees with the independently derived expectation."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _sgn(q: Fraction) -> int:
    return (q > 0) - (q < 0)


def sign(x: Pair, p: Fraction) -> int:
    """Sign of a + b*sqrt(p) from the integer-free comparison a**2 vs p*b**2."""
    a, b = x
    sa, sb = _sgn(a), _sgn(b)
    if sb == 0:
        return sa
    if sa == 0 or sa == sb:
        return sb
    return sa if a * a > p * b * b else sb


def add(x: Pair, y: Pair) -> Pair:
    return (x[0] + y[0], x[1] + y[1])


def sub(x: Pair, y: Pair) -> Pair:
    return (x[0] - y[0], x[1] - y[1])


def mul(x: Pair, y: Pair, p: Fraction) -> Pair:
    return (x[0] * y[0] + p * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def inv(x: Pair, p: Fraction) -> Pair:
    n = x[0] * x[0] - p * x[1] * x[1]
    return (x[0] / n, -x[1] / n)


def div(x: Pair, y: Pair, p: Fraction) -> Pair:
    return mul(x, inv(y, p), p)


def scale(x: Pair, k: Fraction) -> Pair:
    return (x[0] * k, x[1] * k)


def less(x: Pair, y: Pair, p: Fraction) -> bool:
    return sign(sub(x, y), p) < 0


def fmt_rat(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def fmt(x: Pair) -> str:
    """The library's documented literal grammar, written out independently."""
    a, b = x
    if not b:
        return fmt_rat(a)
    return f"{fmt_rat(a)} {'+' if b > 0 else '-'} {fmt_rat(abs(b))}*sqrt"


def from_json(obj: dict) -> Pair:
    return (Fraction(obj["a"]), Fraction(obj["b"]))


def member(y: Pair, r: Pair, p: Fraction) -> tuple[bool, str]:
    """Closed-form membership: can a y-ratio rectangle be cut into r-similar
    rectangles?  Returns (tileable, case tag)."""
    a, b = r
    e, f = y
    if sign((a, -b), p) > 0:
        return (e > 0 and abs(f) * a <= abs(b) * e), CASE_POSITIVE
    return (f > 0 and abs(e) * b <= abs(a) * f), CASE_NEGATIVE


def check_verdict(doc: dict, y: Pair, r: Pair, p: Fraction) -> bool:
    """Re-derive a decide verdict and re-check its certificate; returns the
    expected tileability."""
    tileable, case = member(y, r, p)
    require(doc["tileable"] is tileable, f"verdict {doc['tileable']} != {tileable}")
    require(doc["case"] == case, f"case {doc['case']} != {case}")
    wp = doc["witness_params"]
    require(
        (Fraction(wp["e"]), Fraction(wp["f"])) == y, "witness params are not y's coordinates"
    )
    cert = doc["certificate"]
    if tileable or r[1] == 0:
        require(cert is None, "unexpected certificate")
    else:
        require(cert is not None, "negative verdict without certificate")
        check_certificate(cert, y, r, p)
    return tileable


def check_certificate(cert: dict, y: Pair, r: Pair, p: Fraction) -> None:
    """The tile (e + f*sqrt(p)) x 1 has ABC-area 0, and the ABC-area of an
    r-ratio rectangle with height gamma + delta*sqrt(p) is a binary quadratic
    form in (gamma, delta) whose quarter discriminant is negative, so it keeps
    the reported sign."""
    A, B, C = (Fraction(cert[k]) for k in ("A", "B", "C"))
    a, b = r
    e, f = y
    require(e * A + f * B == 0, "certificate does not zero the tile's ABC-area")
    # width (a + b sqrt p)(gamma + delta sqrt p); collect gamma^2, gamma*delta, delta^2
    c_gg = a * A + b * B
    c_gd = p * b * A + 2 * a * B + b * C
    c_dd = p * b * B + a * C
    quarter = c_gd * c_gd / 4 - c_gg * c_dd
    require(quarter < 0, "separation form is not sign-definite")
    require(
        Fraction(cert["discriminant_quarter"]) == (a * a - p * b * b) * (e * e - f * f * a * a / (b * b)),
        "reported quarter discriminant is wrong",
    )
    require(Fraction(cert["discriminant_quarter"]) < 0, "reported discriminant is not negative")
    require(cert["sign"] == _sgn(c_gg), "certificate sign is wrong")


def loop_area2(loop: list[tuple[Pair, Pair]], p: Fraction) -> Pair:
    total: Pair = (Fraction(0), Fraction(0))
    n = len(loop)
    for i in range(n):
        (px, py), (qx, qy) = loop[i], loop[(i + 1) % n]
        total = add(total, sub(mul(px, qy, p), mul(qx, py, p)))
    return total


def region_area(loops: list[list[tuple[Pair, Pair]]], p: Fraction) -> Pair:
    total: Pair = (Fraction(0), Fraction(0))
    for loop in loops:
        total = add(total, loop_area2(loop, p))
    return scale(total, Fraction(1, 2))


def rect_from_json(obj: dict) -> tuple[Pair, Pair, Pair, Pair]:
    return from_json(obj["x"]), from_json(obj["y"]), from_json(obj["w"]), from_json(obj["h"])


def check_completion(doc: dict, loops: list[list[tuple[Pair, Pair]]], p: Fraction) -> int:
    """The bounding rectangle is the region's bounding box and its area is
    the region's area plus the added rectangles'; returns the added count."""
    xs = [pt[0] for loop in loops for pt in loop]
    ys = [pt[1] for loop in loops for pt in loop]
    bx, by, bw, bh = rect_from_json(doc["R"])
    bx2, by2 = add(bx, bw), add(by, bh)
    require(all(not less(x, bx, p) and not less(bx2, x, p) for x in xs), "bounding box misses a vertex (x)")
    require(all(not less(y, by, p) and not less(by2, y, p) for y in ys), "bounding box misses a vertex (y)")
    require(bx in xs and bx2 in xs and by in ys and by2 in ys, "bounding box is larger than the region's")
    total = region_area(loops, p)
    for rect in doc["added"]:
        _, _, w, h = rect_from_json(rect)
        require(sign(w, p) > 0 and sign(h, p) > 0, "added rectangle is degenerate")
        total = add(total, mul(w, h, p))
    require(total == mul(bw, bh, p), "completion areas do not sum to the bounding rectangle")
    return len(doc["added"])


def check_witness_tiles(tiles: list[tuple[Pair, Pair, Pair, Pair]], y: Pair, r: Pair, p: Fraction) -> None:
    """Every tile is similar to r, and the tile areas sum to the y x 1 target."""
    total: Pair = (Fraction(0), Fraction(0))
    for _, _, w, h in tiles:
        require(w == mul(r, h, p) or h == mul(r, w, p), "witness tile is not similar to r")
        total = add(total, mul(w, h, p))
    require(total == y, "witness tile areas do not sum to the target area")
