"""Exact arithmetic in Q and in the real quadratic extension Q[sqrt(p)].

Every decision this package makes reduces to the sign of a field element,
so nothing here ever touches floating point.  Rationals are
``fractions.Fraction``.  For p = pn/pd, sqrt(p) = sqrt(P)/pd with the integer
radicand P = pn*pd, so an element a + b*sqrt(p) is stored as its canonical
integer key (A, B, D), meaning (A + B*sqrt(P))/D with D > 0 and
gcd(A, B, D) = 1 (the standard integral form of quadratic-field elements;
Cohen, GTM 138, section 4.2).  Canonical keys make equality and hashing
structural, and every operation is integer arithmetic plus one gcd.  Signs
come from integer comparisons only (A**2 against P*B**2), which is exact
because p is required not to be the square of a rational.

The key functions (``key_norm``, ``key_add``, ``key_mul``, ``key_inv``,
``int_sign``) are the whole kernel: ``Quad`` wraps them, and the witness
search runs its hot loop on bare keys with them.
"""

from __future__ import annotations

import dataclasses
import re
from fractions import Fraction
from functools import total_ordering
from math import gcd, isqrt

__all__ = [
    "FieldParam",
    "Quad",
    "parse_rat",
    "format_rat",
    "parse_quad",
    "quad_from_rats",
    "format_quad",
]

Key = tuple[int, int, int]

# Digits are ASCII only ([0-9], not the Unicode-wide \d), the set that
# ``_rat_parts`` accepts too.
_QUAD_RE = re.compile(
    r"^\s*([+-]?[0-9]+(?:/[0-9]+)?)"
    r"(?:\s*([+-])\s*([+-]?[0-9]+(?:/[0-9]+)?)\s*\*\s*sqrt)?\s*$"
)


_EXCERPT_CHARS = 60


def excerpt(text: str) -> str:
    """``text`` cut to a fixed length, for echoing input in error messages."""
    if len(text) <= _EXCERPT_CHARS:
        return text
    return f"{text[:_EXCERPT_CHARS]}... ({len(text)} characters)"


# Longest rational literal read, sign and slash included.  Each output number
# is a quotient of integer polynomials of total degree <= 27 in the literals'
# parts (a ``decide hole`` discriminant), so it has <= 27 * 150 + 3 digits,
# under CPython's 4,300-digit limit on writing an int.
MAX_LITERAL_CHARS = 150


def _rat_parts(text: object) -> tuple[int, int]:
    """(numerator, denominator) of ``[+-]digits[/digits]`` (ASCII digits,
    surrounding whitespace ignored), at most ``MAX_LITERAL_CHARS`` long
    once stripped.  The denominator is checked for zero before the length,
    and both before any digit is converted."""
    if not isinstance(text, str):
        raise ValueError(f"rational literal must be a string, got {excerpt(repr(text))}")
    s = text.strip()
    num, slash, den = s.partition("/")
    digits = num[1:] if num[:1] in ("+", "-") else num
    if not (s.isascii() and digits.isdigit() and (den.isdigit() or not slash)):
        raise ValueError(f"malformed rational literal: {excerpt(repr(text))}")
    if slash and not den.strip("0"):
        raise ValueError(f"zero denominator in rational literal: {excerpt(repr(text))}")
    if len(s) > MAX_LITERAL_CHARS:
        raise ValueError(f"rational literal longer than {MAX_LITERAL_CHARS} characters:"
                         f" {excerpt(repr(text))}")
    return int(num), int(den) if slash else 1


def parse_rat(text: str) -> Fraction:
    """Parse ``int`` or ``int/int`` (denominator unsigned and nonzero)."""
    return Fraction(*_rat_parts(text))


def _to_rat(x: int | str | Fraction) -> Fraction:
    """A rational from the Python API: an ``int`` or ``Fraction`` as it is, a
    ``str`` through ``parse_rat``.  Anything else is refused, so a float's
    binary rounding or ``Fraction``'s wider string grammar never gets in."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return parse_rat(x)
    raise ValueError(f"rational must be an int, Fraction or str, got {excerpt(repr(x))}")


def format_rat(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _is_perfect_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


# -- integer kernel ----------------------------------------------------------


def key_norm(a: int, b: int, d: int) -> Key:
    """Canonical key of (a + b*sqrt(P))/d for d != 0."""
    if d < 0:
        a, b, d = -a, -b, -d
    g = gcd(a, b, d)
    if g > 1:
        a, b, d = a // g, b // g, d // g
    return (a, b, d)


def key_add(k1: Key, k2: Key) -> Key:
    a1, b1, d1 = k1
    a2, b2, d2 = k2
    return key_norm(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)


def key_mul(k1: Key, k2: Key, P: int) -> Key:
    a1, b1, d1 = k1
    a2, b2, d2 = k2
    return key_norm(a1 * a2 + P * b1 * b2, a1 * b2 + a2 * b1, d1 * d2)


def key_inv(key: Key, P: int) -> Key:
    """Key of the inverse of a nonzero element."""
    a, b, d = key
    return key_norm(d * a, -d * b, a * a - P * b * b)


def int_sign(c: int, d: int, P: int) -> int:
    """Exact sign of c + d*sqrt(P) for integers c, d and non-square P > 0.

    When c and d disagree in sign the comparison reduces to c**2 versus
    P*d**2; equality there would force sqrt(P) rational, which the field
    parameter rules out.
    """
    if d == 0:
        return (c > 0) - (c < 0)
    if c == 0 or (c > 0) == (d > 0):
        return 1 if d > 0 else -1
    lhs = c * c
    rhs = P * d * d
    if lhs == rhs:
        raise ArithmeticError("field parameter admits a rational square root")
    return (1 if c > 0 else -1) if lhs > rhs else (1 if d > 0 else -1)


def _pair_key(an: int, ad: int, bn: int, bd: int, pd: int) -> Key:
    # a = an/ad and b*sqrt(p) = (bn/(bd*pd))*sqrt(P), over one denominator.
    return key_norm(an * bd * pd, bn * ad, ad * bd * pd)


@dataclasses.dataclass(frozen=True)
class FieldParam:
    """The radicand p of Q[sqrt(p)]: a positive rational that is not a square.

    Squareness is decided exactly: a canonical fraction is a rational square
    iff its numerator and denominator are both perfect squares.  ``radicand``
    (P = pn*pd) and ``pd`` are derived from p for the integer kernel.
    """

    p: Fraction
    radicand: int = dataclasses.field(init=False, repr=False, compare=False)
    pd: int = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        p = _to_rat(self.p)
        object.__setattr__(self, "p", p)
        if p <= 0:
            raise ValueError(f"field parameter must be positive, got {excerpt(str(p))}")
        if _is_perfect_square(p.numerator) and _is_perfect_square(p.denominator):
            raise ValueError(f"field parameter {excerpt(str(p))} is the square of a rational")
        object.__setattr__(self, "radicand", p.numerator * p.denominator)
        object.__setattr__(self, "pd", p.denominator)

    def quad(self, a: int | str | Fraction, b: int | str | Fraction = 0) -> Quad:
        a, b = _to_rat(a), _to_rat(b)
        key = _pair_key(a.numerator, a.denominator, b.numerator, b.denominator, self.pd)
        return Quad(key, self)

    @property
    def zero(self) -> Quad:
        return self.quad(0)

    @property
    def one(self) -> Quad:
        return self.quad(1)

    @property
    def sqrt_p(self) -> Quad:
        return self.quad(0, 1)

    def __str__(self) -> str:
        return f"Q[sqrt({format_rat(self.p)})]"


def _check_same_field(x: Quad, y: Quad) -> None:
    if x.field is not y.field and x.field != y.field:
        raise ValueError(f"field parameter mismatch: {x.field} vs {y.field}")


@total_ordering
class Quad:
    """The field element a + b*sqrt(p), stored as its canonical key.

    Values are hashable and must be treated as immutable, so they are safe
    dict keys and safe to share between threads.  Binary operations require
    equal field parameters; plain ``int``/``Fraction`` operands are promoted
    into the field.  Build values with ``FieldParam.quad`` or
    ``parse_quad``; the constructor takes an already canonical key.
    """

    __slots__ = ("key", "field")

    def __init__(self, key: Key, field: FieldParam) -> None:
        self.key = key
        self.field = field

    @property
    def a(self) -> Fraction:
        A, _, D = self.key
        return Fraction(A, D)

    @property
    def b(self) -> Fraction:
        _, B, D = self.key
        return Fraction(B * self.field.pd, D)

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.key[0] and not self.key[1]

    def is_rational(self) -> bool:
        return not self.key[1]

    def conj(self) -> Quad:
        """The image a - b*sqrt(p) under the nontrivial field automorphism."""
        A, B, D = self.key
        return Quad((A, -B, D), self.field)

    def norm(self) -> Fraction:
        """x * conj(x) collapsed to its rational value a**2 - p*b**2."""
        A, B, D = self.key
        return Fraction(A * A - self.field.radicand * B * B, D * D)

    def sign(self) -> int:
        """Exact sign of the real number a + b*sqrt(p)."""
        return int_sign(self.key[0], self.key[1], self.field.radicand)

    # -- arithmetic --------------------------------------------------------

    def _key_of(self, other: object) -> Key | None:
        if isinstance(other, Quad):
            _check_same_field(self, other)
            return other.key
        if isinstance(other, int):
            return (other, 0, 1)
        if isinstance(other, Fraction):
            return (other.numerator, 0, other.denominator)
        return None

    def __add__(self, other: Quad | int | Fraction) -> Quad:
        k = self._key_of(other)
        if k is None:
            return NotImplemented
        return Quad(key_add(self.key, k), self.field)

    __radd__ = __add__

    def __sub__(self, other: Quad | int | Fraction) -> Quad:
        k = self._key_of(other)
        if k is None:
            return NotImplemented
        return Quad(key_add(self.key, (-k[0], -k[1], k[2])), self.field)

    def __rsub__(self, other: Quad | int | Fraction) -> Quad:
        k = self._key_of(other)
        if k is None:
            return NotImplemented
        A, B, D = self.key
        return Quad(key_add(k, (-A, -B, D)), self.field)

    def __neg__(self) -> Quad:
        A, B, D = self.key
        return Quad((-A, -B, D), self.field)

    def __mul__(self, other: Quad | int | Fraction) -> Quad:
        k = self._key_of(other)
        if k is None:
            return NotImplemented
        return Quad(key_mul(self.key, k, self.field.radicand), self.field)

    __rmul__ = __mul__

    def _div(self, num: Key, den: Key) -> Quad:
        if not den[0] and not den[1]:
            raise ZeroDivisionError("division by zero field element")
        P = self.field.radicand
        return Quad(key_mul(num, key_inv(den, P), P), self.field)

    def __truediv__(self, other: Quad | int | Fraction) -> Quad:
        k = self._key_of(other)
        if k is None:
            return NotImplemented
        return self._div(self.key, k)

    def __rtruediv__(self, other: Quad | int | Fraction) -> Quad:
        k = self._key_of(other)
        if k is None:
            return NotImplemented
        return self._div(k, self.key)

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Quad):
            return NotImplemented
        return self.key == other.key and (
            self.field is other.field or self.field == other.field
        )

    def __hash__(self) -> int:
        return hash(self.key)

    def __lt__(self, other: Quad) -> bool:
        # Comparisons stay Quad-to-Quad (use field.quad(..) to lift numbers);
        # mixing bare numbers into == and < would break hash consistency.
        if not isinstance(other, Quad):
            return NotImplemented
        _check_same_field(self, other)
        a1, b1, d1 = self.key
        a2, b2, d2 = other.key
        return int_sign(a1 * d2 - a2 * d1, b1 * d2 - b2 * d1, self.field.radicand) < 0

    def __str__(self) -> str:
        return format_quad(self)

    def __repr__(self) -> str:
        return f"Quad({format_quad(self)!r}, p={format_rat(self.field.p)})"


def parse_quad(text: str, field: FieldParam) -> Quad:
    """Parse ``<rat>`` or ``<rat> (+|-) <rat>*sqrt`` into the given field."""
    m = _QUAD_RE.match(text) if isinstance(text, str) else None
    if m is None:
        raise ValueError(f"malformed field-element literal: {excerpt(repr(text))}")
    x = quad_from_rats(m.group(1), m.group(3) or "0", field)
    return x.conj() if m.group(2) == "-" else x


def quad_from_rats(a: str, b: str, field: FieldParam) -> Quad:
    """The element a + b*sqrt(p) from two rational literals."""
    an, ad = _rat_parts(a)
    bn, bd = _rat_parts(b)
    return Quad(_pair_key(an, ad, bn, bd, field.pd), field)


def format_quad(x: Quad) -> str:
    """Canonical literal; ``parse_quad(format_quad(x)) == x`` always."""
    if x.is_rational():
        return format_rat(x.a)
    b = x.b
    op = "+" if b > 0 else "-"
    return f"{format_rat(x.a)} {op} {format_rat(abs(b))}*sqrt"
