"""The integer-key kernel against the Fraction-pair formulas it replaced.

The reference functions below are the earlier implementation of ``Quad``:
an element a + b*sqrt(p) held as its pair of rational coordinates (a, b),
with p itself rational.  On seeded elements of Q[sqrt(p)] for
p in {2, 3, 5/2, 3/4}, every operation of the key-based ``Quad`` must give
exactly what the pair formulas give: arithmetic, conjugate, norm, sign,
ordering, equality, the coordinates ``a`` and ``b``, parsing and formatting.
Non-integer p checks the scaling of ``b`` by p's denominator.
"""

import random
import re
from fractions import Fraction

import pytest

from quadrect import FieldParam, format_quad, parse_quad

PS = [Fraction(2), Fraction(3), Fraction(5, 2), Fraction(3, 4)]
PAIRS = 300
_ID = ["2", "3", "5_2", "3_4"]

_RAT_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$")
_QUAD_RE = re.compile(
    r"^\s*([+-]?\d+(?:/\d+)?)"
    r"(?:\s*([+-])\s*([+-]?\d+(?:/\d+)?)\s*\*\s*sqrt)?\s*$"
)


def ref_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def ref_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def ref_neg(x):
    return (-x[0], -x[1])


def ref_conj(x):
    return (x[0], -x[1])


def ref_mul(x, y, p):
    return (x[0] * y[0] + p * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def ref_norm(x, p):
    return x[0] * x[0] - p * x[1] * x[1]


def ref_div(x, y, p):
    n = ref_norm(y, p)
    return ref_mul(x, (y[0] / n, -y[1] / n), p)


def _fraction_sign(q):
    return (q > 0) - (q < 0)


def ref_sign(x, p):
    sa, sb = _fraction_sign(x[0]), _fraction_sign(x[1])
    if sb == 0:
        return sa
    if sa == 0 or sa == sb:
        return sb
    return sa if x[0] * x[0] > p * x[1] * x[1] else sb


def _ref_rat(text):
    m = _RAT_RE.match(text.strip())
    return Fraction(int(m.group(1)), int(m.group(2) or 1))


def ref_parse(text):
    m = _QUAD_RE.match(text)
    a = _ref_rat(m.group(1))
    if m.group(2) is None:
        return (a, Fraction(0))
    b = _ref_rat(m.group(3))
    return (a, -b if m.group(2) == "-" else b)


def _ref_format_rat(q):
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def ref_format(x):
    a, b = x
    if not b:
        return _ref_format_rat(a)
    op = "+" if b > 0 else "-"
    return f"{_ref_format_rat(a)} {op} {_ref_format_rat(abs(b))}*sqrt"


def _elements(rng):
    """Seeded coordinate pairs: small values, zero components, units and
    coefficients large enough to need big integers."""
    out = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]
    for _ in range(60):
        out.append(
            (
                Fraction(rng.randint(-30, 30), rng.randint(1, 12)),
                Fraction(rng.randint(-30, 30), rng.randint(1, 12)),
            )
        )
    for _ in range(10):
        out.append(
            (
                Fraction(rng.randint(-10**25, 10**25), rng.randint(1, 10**12)),
                Fraction(rng.randint(-10**25, 10**25), rng.randint(1, 10**12)),
            )
        )
    for _ in range(10):
        out.append((Fraction(rng.randint(-5, 5), rng.randint(1, 4)), Fraction(0)))
        out.append((Fraction(0), Fraction(rng.randint(-5, 5), rng.randint(1, 4))))
    return out


@pytest.mark.parametrize("p", PS, ids=_ID)
def test_operations_match_pair_formulas(p):
    rng = random.Random(f"kernel-{p}")
    field = FieldParam(p)
    elems = _elements(rng)
    for pair in elems:
        x = field.quad(*pair)
        assert (x.a, x.b) == pair
        assert ((-x).a, (-x).b) == ref_neg(pair)
        assert (x.conj().a, x.conj().b) == ref_conj(pair)
        assert x.norm() == ref_norm(pair, p)
        assert x.sign() == ref_sign(pair, p)
        assert format_quad(x) == ref_format(pair)
        assert parse_quad(format_quad(x), field) == x
    for _ in range(PAIRS):
        u, v = rng.choice(elems), rng.choice(elems)
        x, y = field.quad(*u), field.quad(*v)
        assert ((x + y).a, (x + y).b) == ref_add(u, v)
        assert ((x - y).a, (x - y).b) == ref_sub(u, v)
        assert ((x * y).a, (x * y).b) == ref_mul(u, v, p)
        if v != (0, 0):
            assert ((x / y).a, (x / y).b) == ref_div(u, v, p)
        assert (x < y) == (ref_sign(ref_sub(u, v), p) < 0)
        assert (x <= y) == (ref_sign(ref_sub(u, v), p) <= 0)
        assert (x == y) == (u == v)
        assert (hash(x) == hash(y)) or u != v


@pytest.mark.parametrize("p", PS, ids=_ID)
def test_mixed_operands_match_pair_formulas(p):
    rng = random.Random(f"mixed-{p}")
    field = FieldParam(p)
    for pair in _elements(rng):
        x = field.quad(*pair)
        q = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        n = rng.randint(-9, 9)
        assert ((x + q).a, (x + q).b) == ref_add(pair, (q, 0))
        assert ((n - x).a, (n - x).b) == ref_sub((Fraction(n), 0), pair)
        assert ((q * x).a, (q * x).b) == ref_mul((q, 0), pair, p)
        if pair != (0, 0):
            assert ((n / x).a, (n / x).b) == ref_div((Fraction(n), 0), pair, p)


@pytest.mark.parametrize(
    "text",
    [
        "0",
        "-0",
        "+3/1",
        "2/4",
        "  -7/3  ",
        "1 + 1*sqrt",
        "2/4 - 3/6*sqrt",
        "0 + -5/10*sqrt",
        "-12/8-6/4 * sqrt",
        "123456789012345678901234567890/7 + 1/987654321987654321*sqrt",
    ],
)
@pytest.mark.parametrize("p", PS, ids=_ID)
def test_parse_matches_pair_parser(p, text):
    x = parse_quad(text, FieldParam(p))
    assert (x.a, x.b) == ref_parse(text)
    assert format_quad(x) == ref_format(ref_parse(text))


@pytest.mark.parametrize("p", PS, ids=_ID)
def test_equal_field_params_give_equal_values(p):
    f1, f2 = FieldParam(p), FieldParam(p)
    assert f1 is not f2
    for a, b in [(0, 0), (1, 0), (Fraction(-3, 4), Fraction(5, 6)), (7, -2)]:
        x, y = f1.quad(a, b), f2.quad(a, b)
        assert x == y
        assert hash(x) == hash(y)
        assert {x: "v"}[y] == "v"
        assert not (x < y) and x <= y
        assert (x - y).is_zero()
    assert f1.quad(1, 1) == f2.one + f2.sqrt_p == parse_quad("1 + 1*sqrt", f2)
    assert f1.quad(1) != FieldParam(7).quad(1)
