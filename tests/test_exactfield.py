import operator
import random
import re
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, strategies as st

from quadrect import (
    ABCParams,
    FieldParam,
    Quad,
    format_quad,
    format_rat,
    parse_quad,
    parse_rat,
    separation_certificate,
)
from quadrect.exactfield import MAX_LITERAL_CHARS, _rat_parts, excerpt

F2 = FieldParam(2)

rats = st.fractions(min_value=-4, max_value=4, max_denominator=12)
quads = st.builds(lambda a, b: F2.quad(a, b), rats, rats)
nonzero_quads = quads.filter(lambda q: not q.is_zero())


class TestFieldParam:
    @pytest.mark.parametrize("p", [4, Fraction(9, 4), 1, 16, Fraction(1, 9)])
    def test_rejects_rational_squares(self, p):
        with pytest.raises(ValueError):
            FieldParam(p)

    @pytest.mark.parametrize("p", [2, 3, Fraction(5, 2), 5, Fraction(3, 4)])
    def test_accepts_nonsquares(self, p):
        assert FieldParam(p).p == Fraction(p)

    @pytest.mark.parametrize("p", [0, -2, Fraction(-9, 4)])
    def test_rejects_nonpositive(self, p):
        with pytest.raises(ValueError):
            FieldParam(p)


class TestRationalInputs:
    """``FieldParam``, ``FieldParam.quad``, ``ABCParams`` and
    ``separation_certificate`` take an int, a Fraction or a ``parse_rat``
    literal, and nothing else."""

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: F2.quad(0.1), "must be an int, Fraction or str"),
            (lambda: F2.quad(1, 0.5), "must be an int, Fraction or str"),
            (lambda: FieldParam(0.1), "must be an int, Fraction or str"),
            (lambda: F2.quad("1.5"), "malformed rational literal"),
            (lambda: F2.quad("1e3"), "malformed rational literal"),
            (lambda: FieldParam("\u0663"), "malformed rational literal"),
            (lambda: FieldParam("2/0"), "zero denominator"),
            (lambda: ABCParams(0.5, 0, 0), "must be an int, Fraction or str"),
            (lambda: separation_certificate(1, 1, 2.0, 1, 2),
             "must be an int, Fraction or str"),
        ],
        ids=["quad_float", "quad_float_b", "field_float", "quad_decimal_str",
             "quad_exponent_str", "field_arabic_indic_digit", "field_zero_den",
             "abc_float", "certificate_float"],
    )
    def test_rejected(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    def test_ints_fractions_and_literals_agree(self):
        assert F2.quad("7/3") == F2.quad(Fraction(7, 3))
        assert F2.quad(2, "-1/3") == F2.quad(2, Fraction(-1, 3))
        assert FieldParam("5/2") == FieldParam(Fraction(5, 2))
        params = ABCParams(1, "1/2", Fraction(3))
        assert (params.A, params.B, params.C) == (1, Fraction(1, 2), 3)
        assert all(type(v) is Fraction for v in (params.A, params.B, params.C))
        assert separation_certificate("1", 1, "2", Fraction(1), "2") == (
            separation_certificate(1, 1, 2, 1, 2)
        )


class TestSign:
    def test_both_components_positive(self):
        assert F2.quad(1, 1).sign() == 1

    def test_one_below_sqrt2(self):
        assert F2.quad(1, -1).sign() == -1

    def test_nine_beats_eight(self):
        assert F2.quad(3, -2).sign() == 1

    def test_zero(self):
        assert F2.zero.sign() == 0

    @given(quads.filter(lambda q: not q.is_zero()))
    def test_matches_high_precision_float(self, x):
        assert x.sign() == _float_sign(x)

    def test_thousand_random_pairs_order_matches_floats(self):
        rng = random.Random(20240917)
        for _ in range(1000):
            x = F2.quad(
                Fraction(rng.randint(-30, 30), rng.randint(1, 12)),
                Fraction(rng.randint(-30, 30), rng.randint(1, 12)),
            )
            y = F2.quad(
                Fraction(rng.randint(-30, 30), rng.randint(1, 12)),
                Fraction(rng.randint(-30, 30), rng.randint(1, 12)),
            )
            assert (x - y).sign() == _float_sign(x - y)

    @given(quads, quads)
    def test_trichotomy(self, x, y):
        assert (x < y) + (x == y) + (y < x) == 1


def _float_sign(x: Quad) -> int:
    with mpmath.workdps(100):
        val = mpmath.mpf(x.a.numerator) / x.a.denominator + (
            mpmath.mpf(x.b.numerator) / x.b.denominator
        ) * mpmath.sqrt(mpmath.mpf(x.field.p.numerator) / x.field.p.denominator)
        if val == 0:
            return 0
        return 1 if val > 0 else -1


class TestConj:
    def test_examples(self):
        assert F2.quad(1, 1).conj() == F2.quad(1, -1)
        assert F2.quad(0, 1).conj() == F2.quad(0, -1)

    @given(quads)
    def test_involution(self, x):
        assert x.conj().conj() == x

    @given(quads)
    def test_norm_has_no_root_component(self, x):
        assert (x * x.conj()).b == 0
        assert (x * x.conj()).a == x.norm()


class TestArithmetic:
    def test_norm_of_one_plus_root_two(self):
        assert F2.quad(1, 1) * F2.quad(1, -1) == F2.quad(-1, 0)

    def test_reciprocal_of_one_plus_root_two(self):
        # Hand oracle first: (-1 + sqrt2)(1 + sqrt2) = 1.
        assert F2.quad(-1, 1) * F2.quad(1, 1) == F2.one
        assert F2.one / F2.quad(1, 1) == F2.quad(-1, 1)

    @given(quads)
    def test_multiplicative_identity(self, x):
        assert x * F2.one == x

    @given(quads, quads, quads)
    def test_field_axioms(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x
        assert x * y == y * x

    @given(nonzero_quads)
    def test_division_inverts_multiplication(self, x):
        assert (F2.one / x) * x == F2.one

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            F2.one / F2.zero

    def test_field_mismatch_raises(self):
        with pytest.raises(ValueError):
            F2.quad(1, 1) + FieldParam(3).quad(1, 1)

    @pytest.mark.parametrize(
        "op",
        [operator.add, operator.sub, operator.mul, operator.truediv,
         lambda x, y: y + x, lambda x, y: y - x, lambda x, y: y * x, lambda x, y: y / x],
        ids=["add", "sub", "mul", "truediv", "radd", "rsub", "rmul", "rtruediv"],
    )
    def test_float_operand_raises_type_error(self, op):
        with pytest.raises(TypeError):
            op(F2.quad(1, 1), 0.5)

    def test_float_compares_unequal_and_unordered(self):
        x = F2.quad(1, 0)
        assert (x == 1.0) is False and (1.0 == x) is False
        assert x != 1.0
        for compare in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                compare(x, 1.0)

    @given(quads)
    def test_scalar_promotion(self, x):
        assert x * 2 == x + x
        assert x * Fraction(1, 2) + x * Fraction(1, 2) == x


class TestParsing:
    def test_grammar_cases(self):
        assert parse_quad("1/2 + 3*sqrt", F2) == F2.quad(Fraction(1, 2), 3)
        assert parse_quad("0", F2) == F2.zero
        assert parse_quad("2+1*sqrt", F2) == F2.quad(2, 1)
        assert parse_quad("1 - 2*sqrt", F2) == F2.quad(1, -2)
        assert parse_quad("-3/4", F2) == F2.quad(Fraction(-3, 4))

    @pytest.mark.parametrize(
        "bad", ["", "sqrt", "3*sqrt", "1/-2", "1/0", "1.5", "1 + sqrt", "1 + 2*sqrt(2)"]
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_quad(bad, F2)

    def test_rat_literals(self):
        assert parse_rat("7/3") == Fraction(7, 3)
        assert parse_rat("-2") == Fraction(-2)
        assert format_rat(Fraction(-6, 4)) == "-3/2"
        with pytest.raises(ValueError):
            parse_rat("2/-3")

    @pytest.mark.parametrize("text", ["٣", "３/４", "1/٤", "²", "-３"])
    def test_non_ascii_digits_rejected(self, text):
        with pytest.raises(ValueError, match="malformed rational literal"):
            parse_rat(text)
        with pytest.raises(ValueError, match="malformed field-element literal"):
            parse_quad(f"1 + {text}*sqrt", F2)

    @given(quads)
    def test_round_trip(self, x):
        assert parse_quad(format_quad(x), F2) == x

    @pytest.mark.parametrize(
        "text", ["1/2 + 3*sqrt", "0", "5", "-1 + 1*sqrt", "0 + 1*sqrt", "2 - 7/2*sqrt"]
    )
    def test_format_is_canonical(self, text):
        once = format_quad(parse_quad(text, F2))
        assert format_quad(parse_quad(once, F2)) == once


# Reference reader: the rational grammar as one regex.
_RAT_RE = re.compile(r"^([+-]?[0-9]+)(?:/([0-9]+))?$")


def _rat_parts_re(text: object) -> tuple[int, int]:
    if not isinstance(text, str):
        raise ValueError(f"rational literal must be a string, got {excerpt(repr(text))}")
    m = _RAT_RE.match(text.strip())
    if m is None:
        raise ValueError(f"malformed rational literal: {excerpt(repr(text))}")
    den = int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise ValueError(f"zero denominator in rational literal: {excerpt(repr(text))}")
    if len(text.strip()) > MAX_LITERAL_CHARS:
        raise ValueError(f"rational literal longer than {MAX_LITERAL_CHARS} characters:"
                         f" {excerpt(repr(text))}")
    return int(m.group(1)), den


def _outcome(parts, text):
    try:
        return parts(text)
    except ValueError as exc:
        return str(exc)


LITERAL_CORPUS = [
    "+3", "-0", "007", " 3", "3\n", "3/0", "3/-4", "1_000", "3/", "/3", "", "+",
    "--3", "+-3", "7/3", "-12/08", "0/5", "3 /4", "3/ 4", "\t-5/6 ", "1.5", "٣",
    "３/４", "²", "9" * 50 + "/" + "7" * 40, "9" * 5000 + "/0", "-" + "9" * 5000,
    " -12/08", "+007",
]


class TestLiteralCap:
    """A rational literal is at most ``MAX_LITERAL_CHARS`` long once
    stripped; a longer one gets a message that names the cap, never
    CPython's digit-limit error, however long its parts are."""

    @pytest.mark.parametrize("sign", ["", "-", "+"])
    def test_at_and_one_over_the_cap(self, sign):
        body = "7" * (MAX_LITERAL_CHARS - len(sign) - 4)
        at = f" {sign}{body}/123\n"
        assert len(at.strip()) == MAX_LITERAL_CHARS
        assert parse_rat(at) == Fraction(int(sign + body), 123)
        over = f"{sign}{body}/1234"
        with pytest.raises(ValueError, match=f"^rational literal longer than {MAX_LITERAL_CHARS} "
                                             f"characters: '{re.escape(over[:20])}"):
            parse_rat(over)

    @pytest.mark.parametrize("text", ["1/" + "7" * 5000, "7" * 5000 + "/3", "-" + "7" * 5000])
    def test_parts_beyond_cpython_limit(self, text):
        with pytest.raises(ValueError, match=f"^rational literal longer than {MAX_LITERAL_CHARS} "):
            parse_rat(text)

    def test_zero_denominator_is_found_first(self):
        with pytest.raises(ValueError, match="^zero denominator"):
            parse_rat("7" * 5000 + "/" + "0" * 3)


class TestRatFastPath:
    """``_rat_parts`` must agree with the regex reader ``_rat_parts_re`` on
    every input, errors included."""

    @pytest.mark.parametrize("text", LITERAL_CORPUS, ids=lambda t: ascii(t)[:24])
    def test_corpus(self, text):
        assert _outcome(_rat_parts, text) == _outcome(_rat_parts_re, text)

    @given(
        st.one_of(
            st.text(alphabet="0123456789+-/ _\n\t٣３²\x0b\x1c a", max_size=10),
            st.text(max_size=8),
        )
    )
    def test_generated(self, text):
        assert _outcome(_rat_parts, text) == _outcome(_rat_parts_re, text)

    @pytest.mark.parametrize("value", [3, 1.5, None, ["3"], b"3"])
    def test_non_strings(self, value):
        assert _outcome(_rat_parts, value) == _outcome(_rat_parts_re, value)


class TestHashing:
    def test_usable_as_dict_key(self):
        d = {F2.quad(1, 1): "x"}
        assert d[F2.quad(2, 1) - F2.one] == "x"

    def test_distinct_fields_not_equal(self):
        assert F2.quad(1, 0) != FieldParam(3).quad(1, 0)
