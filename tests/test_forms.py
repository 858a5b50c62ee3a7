"""Parser, binary/ternary form arithmetic, gcd and serialization."""

import copy
import json
import math
import pickle
import random
import time
from fractions import Fraction

import pytest

from luroth.forms import (
    _MAX_DIGITS,
    _MAX_NESTING,
    MAX_COEFF_BITS,
    MAX_DEGREE,
    MAX_RATIONAL_CHARS,
    BinaryForm,
    HomogeneityError,
    ParseError,
    PreconditionError,
    TernaryForm,
    form_from_json,
    add_terms,
    directional_coeffs,
    integral_row,
    mul_terms,
    parse_form,
    rational_literal,
    rational_text,
    substitute_terms,
)
from luroth.linalg import det_rational, invert, sylvester_resultant
from luroth import forms
from luroth.poncelet import make_conic, standard_conic
from oracles import (conic_image, dense_partial, form_gcd, fraction_evaluate, fraction_json,
                     fraction_substitute_linear, fraction_text, from_terms, horner_substitute, int_str_limit,
                     node_transform, partial, partial_directional, parse_terms, power,
                     shear_substitute, zero_form)

PAIR = ("v", "w")
TRIPLE = ("u", "v", "w")


def rand_binary(rng, degree, pair=PAIR):
    return BinaryForm.from_coeffs(pair, [rng.randint(-9, 9) for _ in range(degree + 1)])


def rand_ternary(rng, degree, triple=TRIPLE):
    terms = {}
    for i in range(degree + 1):
        for j in range(degree + 1 - i):
            c = rng.randint(-9, 9)
            if c:
                terms[(i, j, degree - i - j)] = Fraction(c)
    return TernaryForm.from_terms(degree, triple, terms)


# ---------------------------------------------------------------------------
# parsing

def test_parse_conic():
    f = parse_form("x*y - t^2", ("x", "y", "t"))
    assert f.degree == 2
    assert f.terms == {(1, 1, 0): Fraction(1), (0, 0, 2): Fraction(-1)}


def test_parse_product_quartic():
    f = parse_form("(u^2+w^2)*(v^2+w^2)+2*u*v^3", TRIPLE)
    assert f.degree == 4
    expected = {
        (2, 2, 0): Fraction(1),
        (2, 0, 2): Fraction(1),
        (0, 2, 2): Fraction(1),
        (0, 0, 4): Fraction(1),
        (1, 3, 0): Fraction(2),
    }
    assert f.terms == expected
    assert len(f.terms) == 5


def test_parse_inhomogeneous_rejected():
    with pytest.raises(HomogeneityError):
        parse_form("u + v^2", TRIPLE)


def test_parse_unknown_variable():
    with pytest.raises(ParseError) as err:
        parse_form("v + z", PAIR)
    assert err.value.position == 4


def test_parse_syntax_error_position():
    with pytest.raises(ParseError) as err:
        parse_form("v^2 + * w", PAIR)
    assert err.value.position == 6


def test_parse_zero_denominator_position():
    with pytest.raises(ParseError) as err:
        parse_form("1/0*s0^3", ("s0", "s1"))
    assert err.value.position == 2
    with pytest.raises(ParseError) as err:
        parse_form("v^2 + 3/00*w^2", PAIR)
    assert err.value.position == 8


def test_parse_overlong_integer_literal_position():
    # more significant digits than 2^MAX_COEFF_BITS has: rejected before it is read
    long = "1" + "0" * _MAX_DIGITS
    for text, position in ((f"{long}*u^4", 0), (f"2/{long}*u^4", 2),
                           (f"u^4 - {long}/3*v^4", 6), (f"u^4 + 7/{long}*w^4", 8)):
        with pytest.raises(ParseError) as err:
            parse_form(text, TRIPLE)
        assert err.value.position == position, text
        assert f"coefficient above MAX_COEFF_BITS = {MAX_COEFF_BITS} bits" in str(err.value)
    assert parse_form("1" + "0" * 4000 + "*u^4", TRIPLE).terms == {(4, 0, 0): 10 ** 4000}


def test_literal_digit_bound_matches_the_coefficient_bound():
    assert _MAX_DIGITS == len(rational_text(2 ** MAX_COEFF_BITS))
    # the longest literals read: one within the bound, one past it by its bits
    assert parse_form("1" + "0" * (_MAX_DIGITS - 1) + "*u^4", TRIPLE).terms == {
        (4, 0, 0): 10 ** (_MAX_DIGITS - 1)}
    with pytest.raises(ParseError, match="MAX_COEFF_BITS") as err:
        parse_form("u^4 + " + "9" * _MAX_DIGITS + "*v^4", TRIPLE)
    assert err.value.position == 6
    # leading zeros are not significant
    assert parse_form("0" * 50000 + "7*u^4", TRIPLE).terms == {(4, 0, 0): 7}


@pytest.mark.parametrize("digits", [1, 599, 600, 601, 1200, 5001, 30000])
def test_literals_are_read_whatever_the_int_string_limit(digits):
    value = 10 ** digits // 9 * 7  # digits sevens
    text = rational_text(value)
    assert len(text) == digits
    with int_str_limit(640):  # the lowest limit Python accepts
        assert parse_form(f"{text}*u^4 - 1/{text}*u^4", TRIPLE).terms == {
            (4, 0, 0): value - Fraction(1, value)}
        if digits <= MAX_RATIONAL_CHARS // 2 - 1:
            assert rational_literal(f"-{text}/{text}7") == Fraction(-value, 10 * value + 7)
            assert rational_literal(f"-{text}.{text}") == -value - Fraction(value, 10 ** digits)
            assert rational_literal(f" +.{text}") == Fraction(value, 10 ** digits)
            for coef, expected in ((text, value), (f"{text}.5", value + Fraction(1, 2))):
                report = {"vars": list(PAIR), "degree": 0,
                          "terms": [{"exp": [0, 0], "coef": coef}]}
                assert form_from_json(report).coeffs == (expected,)


def test_decimals_do_not_depend_on_the_int_string_limit():
    text = "0." + "1" * 5000
    with int_str_limit(0):
        expected = Fraction(text)
    for limit in (640, 4300, 0):
        with int_str_limit(limit):
            assert rational_literal(text) == expected


@pytest.mark.parametrize("text", ["7", " -3/4 ", "+007", "-0/5", "\t12\n", "1/0", "-12/000",
                                  "3/ 4", "3 /4", "/4", "3/", "-", "1.5", ".5", "5.", "-2.50",
                                  "1/2/3", "--1", "0x10", "", " ", "+.5", "-0.000", " 3.25 ",
                                  "00.100", "5./2", "1.5/2", ".", "-.", "1.2.3", "1 .5", "1. 5",
                                  "- 1.5", ".-5", "1.+5"])
def test_rational_literal_reads_as_fraction_does(text):
    try:
        expected = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(ValueError) as err:
            rational_literal(text)
        assert str(err.value) == f"bad rational {text!r}: {exc}"
    else:
        assert rational_literal(text) == expected


def test_monomial_times_group_is_bounded():
    n = rational_text(2 ** 95000 - 12345)  # 95 000 bits
    for text, position in ((f"{n}*({n}*u+v)", len(n) + 1), (f"({n}*u+v)*{n}", 0),
                           (f"u - {n}*v*({n}*u+v)^1*w^0", len(n) + 7)):
        with pytest.raises(ParseError, match="MAX_COEFF_BITS") as err:
            parse_form(text, TRIPLE)
        assert err.value.position == position, text[-30:]
    # within the bound, the monomial times its group parses
    assert parse_form(f"{n}*(u+v)", TRIPLE).terms == {(1, 0, 0): 2 ** 95000 - 12345,
                                                     (0, 1, 0): 2 ** 95000 - 12345}


@pytest.mark.parametrize("digit", ["²", "٣", "①"])
def test_parse_accepts_only_ascii_digits(digit):
    # each is a Unicode digit: int() takes the first or fails on the others
    assert digit.isdigit()
    for text, position in ((f"{digit}*u^4", 0), (f"u^{digit}*v^2", 2),
                           (f"u^4 + 2{digit}*v^4", 7), (f"u^4 - 1/{digit}*w^4", 8)):
        with pytest.raises(ParseError) as err:
            parse_form(text, TRIPLE)
        assert err.value.position == position, text
        assert f"unexpected character {digit!r}" in str(err.value)


def test_parse_rational_coefficients_and_unary_minus():
    f = parse_form("-3/4*v^2 + w^2", PAIR)
    assert f.coeffs == (Fraction(-3, 4), Fraction(0), Fraction(1))


def test_parse_power_closed_form_matches_repeated_products():
    pair = ("s0", "s1")
    for base, k in (("2/3*s0", 5), ("-s1", 0), ("s0*s1", 7)):
        expected = {(0, 0): Fraction(1)}
        for _ in range(k):
            expected = mul_terms(expected, parse_terms(base, pair))
        got = parse_terms(f"({base})^{k}", pair)
        assert got == expected
        assert all(isinstance(c, Fraction) for c in got.values())
    assert parse_terms("(2/3*s0)^5", pair) == {(5, 0): Fraction(32, 243)}
    assert parse_form("(s0+s1)^3", pair).coeffs == (1, 3, 3, 1)


def test_parse_degree_cap():
    pair = ("s0", "s1")
    assert parse_form(f"s0^{MAX_DEGREE}", pair).degree == MAX_DEGREE
    assert parse_form("s0^0000000000007", pair).degree == 7
    for text, position in ((f"s0^{MAX_DEGREE + 1}", 3), ("s0^999999999", 3),
                           ("s0^" + "9" * 5000, 3), ("(s0+s1)^3000", 8),
                           (f"(s0^2)^{MAX_DEGREE // 2 + 1}", 7), ("(2)^999999999", 4),
                           (f"s0^60*s1^{MAX_DEGREE - 59}", 6),
                           ("*".join(["(s0+s1)"] * (MAX_DEGREE + 1)), 8 * MAX_DEGREE)):
        with pytest.raises(ParseError) as err:
            parse_form(text, pair)
        assert err.value.position == position, text
        assert "MAX_DEGREE" in str(err.value)


def test_parse_nesting_limit():
    def nested(depth, text="u^4"):
        return "(" * depth + text + ")" * depth

    assert parse_form(nested(_MAX_NESTING), TRIPLE) == parse_form("u^4", TRIPLE)
    # the depth is of nesting, not of parentheses in all
    siblings = nested(_MAX_NESTING, "u") + "*" + nested(_MAX_NESTING, "v^3")
    assert parse_form(siblings, TRIPLE) == parse_form("u*v^3", TRIPLE)
    for depth in (_MAX_NESTING + 1, 340, 5000):
        with pytest.raises(ParseError) as err:
            parse_form(nested(depth), TRIPLE)
        assert err.value.position == _MAX_NESTING
        assert f"parentheses nested deeper than {_MAX_NESTING}" in str(err.value)


def test_parse_admits_n40_pencil():
    text = "*".join(f"(s0{'+-'[k % 2]}{k}*s1)" for k in range(1, 42))
    assert parse_form(text, ("s0", "s1")).degree == 41


def test_parse_format_round_trip():
    rng = random.Random(101)
    for _ in range(25):
        f = rand_ternary(rng, rng.randint(1, 4))
        assert parse_form(str(f), TRIPLE) == f
    for _ in range(25):
        g = rand_binary(rng, rng.randint(1, 5))
        assert parse_form(str(g), PAIR).coeffs == g.coeffs
    assert str(zero_form(TernaryForm, 3, TRIPLE)) == "0"


# ---------------------------------------------------------------------------
# ring operations

def test_mul_by_unit():
    f = parse_form("x*y - t^2", ("x", "y", "t"))
    one = TernaryForm.constant(1, ("x", "y", "t"))
    assert f * one == f


def test_evaluate_examples():
    f = parse_form("u^2+w^2", TRIPLE)
    assert f.evaluate([1, 0, 0]) == 1
    assert f.evaluate([Fraction(1, 2), 7, Fraction(-1, 3)]) == Fraction(13, 36)


def rand_point(rng, n):
    """Coordinates that are 0, negative, or non-integer Fractions."""
    return [rng.choice([0, rng.randint(-9, -1), Fraction(rng.randint(-20, 20), rng.randint(2, 9))])
            for _ in range(n)]


def test_evaluate_matches_fraction_oracle():
    """Binary and ternary forms of degree 0 to 8, dense binary numerators with
    zero entries among them, at integer and Fraction points; a point of the
    wrong arity is a ValueError."""
    rng = random.Random(1212)
    for degree in range(9):
        forms = [zero_form(BinaryForm, degree, PAIR), zero_form(TernaryForm, degree, TRIPLE),
                 BinaryForm(degree, PAIR, 3, [(j % 2) * (j - 4) for j in range(degree + 1)])]
        for _ in range(6):
            forms += [BinaryForm.from_coeffs(PAIR, [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                                                    for _ in range(degree + 1)]),
                      rand_ternary(rng, degree).scale(Fraction(1, rng.randint(1, 7)))]
        for f in forms:
            arity = len(f.variables)
            points = [rand_point(rng, arity) for _ in range(4)]
            points += [[rng.randint(-9, 9) for _ in range(arity)] for _ in range(2)]
            for point in points:
                value = f.evaluate(point)
                assert type(value) is Fraction
                assert value == fraction_evaluate(f, point), (str(f), point)
            for point in ([1] * (arity - 1), [1] * (arity + 1)):
                with pytest.raises(ValueError, match="coordinates"):
                    f.evaluate(point)


def test_text_json_and_values_build_no_fraction_view(monkeypatch):
    """`str` and `to_json` write each term from its integer numerator, and
    `evaluate` at an integer point builds one Fraction: its value."""
    forms = [parse_form("3/4*v^3 - 1/3*v*w^2 + 5*w^3", PAIR),
             parse_form("-1/3*u^2 + 2/9*u*v - v*w + 4/3*w^2", TRIPLE),
             parse_form("v^2 - 7*w^2", PAIR), parse_form("u*w - 2*v^2", TRIPLE)]
    new, calls = Fraction.__new__, []

    def counting_new(cls, *args, **kwargs):
        calls.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    for f in forms:
        point = (3, -2, 5)[:len(f.variables)]
        del calls[:]
        text, report = str(f), f.to_json()
        assert calls == [], text
        value = f.evaluate(point)
        assert len(calls) == 1, text
        assert value == fraction_evaluate(f, point)


@pytest.mark.parametrize("call", [
    lambda: parse_form("u^2+v*w", TRIPLE).evaluate((1, 1, 1, 7)),
    lambda: parse_form("u^2+v*w", TRIPLE).evaluate((1, 1)),
    lambda: BinaryForm.from_coeffs(PAIR, [1, 2]).evaluate((1, 2, 3)),
    lambda: conic_image(standard_conic(), (1, 0, 5)),
    lambda: conic_image(standard_conic(), (1,)),
    lambda: partial_directional(BinaryForm.from_coeffs(PAIR, [1, 2]), (1, 2, 3)),
], ids=["ternary-long", "ternary-short", "binary-long", "image-long", "image-short",
        "directional-long"])
def test_point_of_wrong_arity_rejected(call):
    with pytest.raises(ValueError, match="coordinates"):
        call()


def test_negative_power_rejected():
    with pytest.raises(ValueError):
        power(BinaryForm.from_coeffs(PAIR, [1, 2]), -1)


def test_partial_matches_dense_binary_oracle():
    rng = random.Random(1313)
    for degree in range(1, 9):
        for _ in range(5):
            f = rand_binary(rng, degree)
            for var in PAIR:
                assert partial(f, var) == dense_partial(f, var)
    with pytest.raises(PreconditionError):
        partial(BinaryForm.from_coeffs(PAIR, [5]), "v")
    # an unknown variable is an error before the degree check
    for f in (BinaryForm.from_coeffs(PAIR, [5]), TernaryForm.constant(5, TRIPLE)):
        with pytest.raises(ValueError, match="unknown variable"):
            partial(f, "x")


def test_partial_matches_sympy():
    sympy = pytest.importorskip("sympy")
    syms = sympy.symbols(TRIPLE)
    rng = random.Random(1414)
    for degree in range(1, 6):
        for _ in range(4):
            f = rand_ternary(rng, degree)
            poly = sympy.sympify(str(f).replace("^", "**"), locals=dict(zip(TRIPLE, syms)))
            for var, sym in zip(TRIPLE, syms):
                expected = sympy.expand(sympy.diff(poly, sym))
                got = sympy.sympify(str(partial(f, var)).replace("^", "**"),
                                    locals=dict(zip(TRIPLE, syms)))
                assert sympy.expand(got - expected) == 0, (str(f), var)


def test_partial_extracts_polar():
    # d/dt of t^2*f2 + t*f3 + f4 is 2*t*f2 + f3
    rng = random.Random(7)
    f2 = rand_binary(rng, 2)
    f3 = rand_binary(rng, 3)
    f4 = rand_binary(rng, 4)
    terms = {}
    for power, f in ((2, f2), (1, f3), (0, f4)):
        for (a, b), c in f.terms.items():
            terms[(power, a, b)] = c
    quartic = TernaryForm.from_terms(4, ("t", "v", "w"), terms)
    expected = {}
    for (a, b), c in f2.terms.items():
        expected[(1, a, b)] = 2 * c
    for (a, b), c in f3.terms.items():
        expected[(0, a, b)] = expected.get((0, a, b), Fraction(0)) + c
    assert partial(quartic, "t") == TernaryForm.from_terms(3, ("t", "v", "w"), expected)


def test_ring_morphism_properties():
    rng = random.Random(202)
    for _ in range(40):
        d = rng.randint(1, 3)
        p = rand_ternary(rng, d)
        q = rand_ternary(rng, d)
        r = rand_ternary(rng, rng.randint(1, 3))
        point = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3)]
        assert p + q == q + p
        assert (p + q) + p == p + (q + p)
        assert (p + q) * r == p * r + q * r
        assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)
        assert (p * r).evaluate(point) == p.evaluate(point) * r.evaluate(point)


def test_add_degree_mismatch():
    with pytest.raises(ValueError):
        rand_binary(random.Random(0), 2) + rand_binary(random.Random(0), 3)
    with pytest.raises(ValueError):
        rand_ternary(random.Random(1), 2) + rand_ternary(random.Random(1), 3)


def test_variable_mismatch():
    with pytest.raises(ValueError):
        parse_form("v^2", PAIR) + parse_form("s0^2", ("s0", "s1"))


# ---------------------------------------------------------------------------
# directional derivative

# `directional_coeffs` is the kernel `nodal.tangent_map` runs, on integers; the
# oracle `partial_directional` keeps the checks of a form's derivative

def test_directional_polarization():
    # d(v^2+w^2).(a, b) = 2a*v + 2b*w
    assert directional_coeffs(parse_form("v^2+w^2", PAIR).nums, 3, -5) == [6, -10]


def test_directional_worked_value():
    # 2v^3 in direction (-1/2, 0)
    assert directional_coeffs([2, 0, 0, 0], Fraction(-1, 2), 0) == [-3, 0, 0]


def test_directional_zero_direction():
    assert directional_coeffs(parse_form("v^3 - v*w^2", PAIR).nums, 0, 0) == [0, 0, 0]


def test_directional_degree_zero_rejected():
    assert directional_coeffs([5], 1, 1) == []  # a constant's derivative has no coefficient
    with pytest.raises(PreconditionError):
        partial_directional(BinaryForm.from_coeffs(PAIR, [5]), (1, 1))


def test_directional_matches_partials_oracle():
    """The kernel on a form's integer numerators and a direction over d, taken
    over den*d as `tangent_map` takes it, is the sum of scaled partials."""
    rng = random.Random(1405)
    for degree in range(1, 9):
        for _ in range(6):
            f = BinaryForm.from_coeffs(PAIR, [
                Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 7))) for _ in range(degree + 1)])
            ints = (rng.randint(-5, 5), rng.randint(-5, 5))
            fractions = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in "xi")
            for xi in (ints, fractions):
                (x0, x1), d = integral_row(xi)
                got = BinaryForm(degree - 1, PAIR, f.den * d, directional_coeffs(f.nums, x0, x1))
                assert got == partial_directional(f, xi), (str(f), xi)
                assert directional_coeffs(f.coeffs, *xi) == list(got.coeffs), (str(f), xi)


# ---------------------------------------------------------------------------
# linear substitution

def test_substitute_identity():
    f = parse_form("x*y - t^2", ("x", "y", "t"))
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert f.substitute_linear(eye) == f


def test_substitute_swap_symmetry():
    f = parse_form("x*y - t^2", ("x", "y", "t"))
    swap = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    assert f.substitute_linear(swap) == f


def test_substitute_round_trip_random():
    rng = random.Random(303)
    f = parse_form("u^2 - w^2", TRIPLE)
    for _ in range(10):
        while True:
            t = [[Fraction(rng.randint(-4, 4)) for _ in range(3)] for _ in range(3)]
            try:
                t_inv = invert(t)
                break
            except PreconditionError:
                continue
        assert f.substitute_linear(t).substitute_linear(t_inv) == f
    g = rand_ternary(rng, 4)
    t = [[1, 2, 0], [0, 1, 1], [1, 0, 1]]
    assert g.substitute_linear(t).substitute_linear(invert(t)) == g


def test_substitute_singular_rejected(monkeypatch):
    """A coordinate change tests singularity once, in `substitute_terms`, and
    once per matrix: the plan of a nonsingular one is cached."""
    f = parse_form("u^2 - w^2", TRIPLE)
    adjugate3, calls = forms.adjugate3, []
    monkeypatch.setattr(forms, "adjugate3", lambda m: calls.append(m) or adjugate3(m))
    forms._relabel.cache_clear()
    with pytest.raises(PreconditionError, match="^coordinate change matrix is singular$"):
        f.substitute_linear([[1, 1, 0], [1, 1, 0], [0, 0, Fraction(1, 2)]])
    assert calls == [((2, 2, 0), (2, 2, 0), (0, 0, 1))]
    for _ in range(2):
        assert f.substitute_linear([[1, 2, 0], [0, 1, 1], [1, 0, 1]]) == parse_form(
            "(u + 2*v)^2 - (u + w)^2", TRIPLE)
    assert len(calls) == 2


def test_substitute_rejects_exactly_the_singular_matrices():
    rng = random.Random(311)
    f = rand_ternary(rng, 3)
    singular = 0
    for _ in range(300):
        rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
                for _ in range(2)]
        a, b = (Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(2))
        rows.append([a * x + b * y for x, y in zip(*rows)])
        if rng.random() < 0.3:  # usually breaks the dependence
            rows[rng.randrange(3)][rng.randrange(3)] += Fraction(1, rng.randint(1, 3))
        rng.shuffle(rows)
        if det_rational(rows) == 0:
            singular += 1
            with pytest.raises(PreconditionError, match="singular"):
                f.substitute_linear(rows)
        else:
            assert f.substitute_linear(rows) == fraction_substitute_linear(f, rows)
    assert 100 <= singular <= 250, singular


def substitute_per_term(f, t):
    """Oracle: expand every term as a product of powers of the three lines."""
    m = [[Fraction(x) for x in row] for row in t]
    lines = [{tuple(1 if k == j else 0 for k in range(3)): m[i][j]
              for j in range(3) if m[i][j]} for i in range(3)]
    powers = [[{(0, 0, 0): Fraction(1)}] for _ in range(3)]
    for i in range(3):
        for _ in range(f.degree):
            powers[i].append(mul_terms(powers[i][-1], lines[i]))
    out = {}
    for e, c in f.terms.items():
        prod = {(0, 0, 0): c}
        for i, k in enumerate(e):
            prod = mul_terms(prod, powers[i][k])
        out = add_terms(out, prod)
    return TernaryForm(f.degree, f.variables, out)


def rational_ternary(rng, degree):
    terms = {}
    for i in range(degree + 1):
        for j in range(degree + 1 - i):
            if rng.random() < 0.6:
                terms[(i, j, degree - i - j)] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return TernaryForm.from_terms(degree, TRIPLE, terms)


def test_substitute_horner_matches_per_term_oracle():
    rng = random.Random(304)
    perms = [[[sign if j == p[i] else 0 for j in range(3)] for i in range(3)]
             for p in ((0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1))
             for sign in (1, -1)]
    checked = 0
    for degree in range(9):
        mats = list(perms)
        while len(mats) < 18:
            t = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3)]
                 for _ in range(3)]
            if det_rational(t) != 0:
                mats.append(t)
        for t in mats:
            f = rational_ternary(rng, degree)
            g = f.substitute_linear(t)
            assert g == substitute_per_term(f, t)
            assert g.degree == degree and g.variables == TRIPLE
            assert all(type(c) is Fraction for c in g.terms.values())
            checked += 1
    assert checked == 9 * 18


def test_integer_core_matches_fraction_substitution():
    rng = random.Random(306)
    perm = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
    checked = 0
    for degree in range(9):
        mats = [perm]
        while len(mats) < 6:
            # each row over its own denominator, some given negative
            dens = rng.sample([2, -3, 5, -7, 9, 11, -12], 3)
            t = [[Fraction(rng.randint(-6, 6), d) for _ in range(3)] for d in dens]
            t[rng.randrange(3)][rng.randrange(3)] = rng.randint(-3, 3)  # a plain int entry
            if det_rational(t) != 0:
                mats.append(t)
        forms = [rational_ternary(rng, degree) for _ in range(4)]
        forms += [zero_form(TernaryForm, degree, TRIPLE)]
        if degree == 0:
            forms += [TernaryForm.constant(Fraction(-5, 3), TRIPLE),
                      TernaryForm.constant(7, TRIPLE)]
        for t in mats:
            for f in forms:
                g = f.substitute_linear(t)
                assert g == fraction_substitute_linear(f, t)
                assert g.degree == degree and g.variables == TRIPLE
                assert all(type(c) is Fraction for c in g.terms.values())
                checked += 1
    assert checked == 9 * 6 * 5 + 6 * 2
    singular = [[Fraction(1, 2), Fraction(1, -3), 0], [1, Fraction(-2, 3), 0], [0, 0, 1]]
    for oracle in (TernaryForm.substitute_linear, fraction_substitute_linear):
        with pytest.raises(PreconditionError, match="singular"):
            oracle(rational_ternary(rng, 3), singular)


def test_substitute_terms_keeps_integer_coefficients():
    terms = {(2, 0, 0): 3, (0, 1, 1): -2}
    out = substitute_terms(terms, 2, [[1, 2, 0], [0, 1, 1], [1, 0, 1]])
    assert all(type(c) is int for c in out.values())
    f = TernaryForm.from_terms(2, TRIPLE, terms)
    expected = f.substitute_linear([[1, 2, 0], [0, 1, 1], [1, 0, 1]])
    assert out == expected.terms


PERMUTATIONS = [[[int(j == p[i]) for j in range(3)] for i in range(3)]
                for p in ((0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1))]


def int_terms(rng, degree, bound=9, density=0.6):
    terms = {}
    for i in range(degree + 1):
        for j in range(degree + 1 - i):
            if rng.random() < density:
                terms[(i, j, degree - i - j)] = rng.randint(-bound, bound)
    return terms


def node_transforms():
    """The integer node transforms of the translated quartics of test_nodal."""
    from luroth.nodal import normalize_at_node
    from test_nodal import QUARTIC_A, QUARTIC_B, rand_invertible

    cases = [(QUARTIC_A, (1, 0, 0)), (QUARTIC_B, (0, 0, 1))]
    rng = random.Random(41)
    for _ in range(5):
        t = rand_invertible(rng)
        cases.append((QUARTIC_A.substitute_linear(t), tuple(row[0] for row in invert(t))))
    out = []
    for quartic, node in cases:
        transform = node_transform(normalize_at_node(quartic, node).node)[1]
        flat = integral_row([x for row in transform for x in row])[0]
        out.append((quartic, [flat[i:i + 3] for i in (0, 3, 6)]))
    return out


def test_substitute_terms_matches_horner_oracle():
    rng = random.Random(316)
    mats = PERMUTATIONS + [[[-x for x in row] for row in p] for p in PERMUTATIONS]
    mats += [[[0, 1, 0], [0, 0, 1], [1, 0, 0]], [[0, 0, 3], [0, -2, 1], [5, 1, 1]],
             [[0, 2, 1], [0, 0, -1], [1, 1, 1]], [[0, 0, 1], [1, 0, 2], [0, 1, 3]],
             [[-2, 0, 0], [0, -2, 0], [0, 0, -2]], [[0, 3, 0], [-3, 0, 0], [0, 0, 5]]]
    while len(mats) < 48:  # negative, 60-bit and zero entries, zero leading pivots
        bound = rng.choice([1, 3, 9, 2 ** 60])
        m = [[0 if rng.random() < 0.3 else rng.randint(-bound, bound) for _ in range(3)]
             for _ in range(3)]
        if det_rational(m):
            mats.append(m)
    checked = 0
    for degree in range(13):
        for m in mats:
            for terms in (int_terms(rng, degree), {}):
                out = substitute_terms(terms, degree, m)
                assert out == horner_substitute(terms, degree, m)
                assert all(type(c) is int for c in out.values())
                checked += 1
    assert checked == 13 * 48 * 2
    for quartic, m in node_transforms():
        terms = dict(zip(quartic.terms, integral_row(list(quartic.terms.values()))[0]))
        assert substitute_terms(terms, 4, m) == horner_substitute(terms, 4, m)


def test_substitute_terms_rejects_singular_matrices():
    rng = random.Random(317)
    singular = [[[0, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 2, 3], [2, 4, 6], [0, 0, 1]],
                [[0, 1, 1], [0, 2, 3], [0, 5, 7]], [[0] * 3 for _ in range(3)]]
    while len(singular) < 30:
        rows = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(2)]
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        rows.insert(rng.randrange(3), [a * x + b * y for x, y in zip(*rows)])
        singular.append(rows)
    for m in singular:
        assert det_rational(m) == 0
        with pytest.raises(ValueError, match="singular"):
            substitute_terms(int_terms(rng, 3), 3, m)


def test_substitute_terms_matches_horner_oracle_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    entry = st.one_of(st.integers(-3, 3), st.integers(-2 ** 60, 2 ** 60))

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.lists(st.lists(entry, min_size=3, max_size=3), min_size=3, max_size=3),
                      st.integers(0, 12), st.integers(0, 2 ** 32))
    def check(m, degree, seed):
        terms = int_terms(random.Random(seed), degree)
        if det_rational(m) == 0:
            with pytest.raises(ValueError, match="singular"):
                substitute_terms(terms, degree, m)
        else:
            assert substitute_terms(terms, degree, m) == horner_substitute(terms, degree, m)

    check()


# ---------------------------------------------------------------------------
# the two packed paths of substitute_terms, each forced by PACKED_MAX_DEGREE

PATHS = {"packed": MAX_DEGREE, "shifts": -1, "as-is": None}
GEN_CONIC = ("s0^2+2*s0*s1+3*s1^2", "2*s0^2-s0*s1+s1^2", "s0*s1-2*s1^2")


def force_path(monkeypatch, path):
    if PATHS[path] is not None:
        monkeypatch.setattr(forms, "PACKED_MAX_DEGREE", PATHS[path])


def conic_t(rng, digits):
    """The integer T of a conic whose parametrization has digits-digit coefficients."""
    while True:
        lo = 10 ** (digits - 1)
        ps = [BinaryForm.from_coeffs(("s0", "s1"), [rng.choice((-1, 1)) * rng.randrange(lo, 10 * lo)
                                                    for _ in range(3)]) for _ in range(3)]
        if det_rational([p.nums for p in ps]):
            return make_conic(*ps)._t


def kernel_matrices(rng):
    """Monomial matrices with negative entries, nodal node matrices
    [[0, 0, c0], [1, 0, c1], [0, 1, c2]], GEN_CONIC's T, and dense matrices
    of 1 to 60 digits."""
    mats = [[[0, -3, 0], [0, 0, 2], [-1, 0, 0]], [[-2, 0, 0], [0, 5, 0], [0, 0, -1]],
            [[0, 0, 1], [-1, 0, 0], [0, 1, 0]]]
    mats += [[[0, 0, c0], [1, 0, c1], [0, 1, c2]]
             for c0, c1, c2 in ((1, 2, 3), (5, -7, 2), (12, 3, -40), (-1, 0, 0), (-3, 0, 9))]
    mats.append(make_conic(*(parse_form(p, ("s0", "s1")) for p in GEN_CONIC))._t)
    for digits in (1, 3, 20, 60):
        while True:
            m = [[rng.choice((-1, 1)) * rng.randrange(10 ** digits) for _ in range(3)]
                 for _ in range(3)]
            if det_rational(m):
                mats.append(m)
                break
    return mats


@pytest.mark.parametrize("path", list(PATHS))
def test_substitute_paths_match_the_shear_and_horner_oracles(monkeypatch, path):
    """Each path, and the size switch as it is, against the shear kernel that
    ran before them, degrees 0-22 on every kernel matrix, and against Horner
    to degree 8; coefficients up to 9 and up to 2^60, dense and sparse."""
    force_path(monkeypatch, path)
    rng = random.Random(2029)
    mats = kernel_matrices(rng)
    checked = 0
    for degree in range(23):
        for m in mats:
            big = max(map(abs, sum(m, []))) > 10 ** 3
            if big and degree not in ((0, 1, 5, 12) if path == "packed" else (0, 1, 5, 12, 13, 17)):
                continue  # each path at a few degrees either side of the switch, for speed
            terms = int_terms(rng, degree, bound=rng.choice([9, 2 ** 60]), density=0.8)
            out = substitute_terms(terms, degree, m)
            assert out == shear_substitute(terms, degree, m), (degree, m)
            if degree <= 8:
                assert out == horner_substitute(terms, degree, m), (degree, m)
            assert all(type(c) is int and c for c in out.values())
            checked += 1
    assert checked == 23 * 11 + (4 if path == "packed" else 6) * 2


@pytest.mark.parametrize("path", list(PATHS))
def test_substitute_paths_move_a_30_digit_conic_at_n22(monkeypatch, path):
    """A dense 30-digit T at n = 22; the packed evaluation, slow on a big
    matrix at a high degree, moves it at n = 9."""
    force_path(monkeypatch, path)
    rng = random.Random(30)
    t = conic_t(rng, 30)
    terms = int_terms(rng, 22 if path != "packed" else 9, density=1.0)
    degree = sum(next(iter(terms)))
    assert substitute_terms(terms, degree, t) == shear_substitute(terms, degree, t)


@pytest.mark.parametrize("path", list(PATHS))
def test_substitute_paths_read_back_outputs_at_the_slot_bound(monkeypatch, path):
    """F = c*x_r^n, |c| = 2^60 - 1, under a matrix whose rows all have 1-norm
    2^p: the top coefficient c*(2^p - 1)^n has as many bits as the bound
    B = ||F||_1*N^n the slot width comes from.  With bits(B) % 8 == 0 a slot
    of bits(B) bits, one short of the sign bit, overflows; with
    bits(B) % 8 == 7 the output fills every bit of its slot."""
    force_path(monkeypatch, path)
    residues = set()
    for p in (59, 60, 61):
        a = 2 ** p - 1
        for r in range(3):
            m = [list(row) for row in PERMUTATIONS[0]]
            m[r][r], m[r][(r + 1) % 3] = a, 1  # x_r := a*x_r + x_(r+1), row norms 2^p
            for degree in (1, 2, 3, 7, 12, 13, 21, 22) if path != "packed" else (1, 2, 3, 7, 12):
                for c in (2 ** 60 - 1, 1 - 2 ** 60):
                    e = tuple(degree if i == r else 0 for i in range(3))
                    out = substitute_terms({e: c}, degree, m)
                    expected = {tuple(i if x == r else degree - i if x == (r + 1) % 3 else 0
                                      for x in range(3)): c * math.comb(degree, i) * a ** i
                                for i in range(degree + 1)}
                    assert out == expected == shear_substitute({e: c}, degree, m)
                    bound = abs(c) * 2 ** (p * degree)
                    assert max(map(abs, out.values())).bit_length() == bound.bit_length()
                    residues.add(bound.bit_length() % 8)
    assert {0, 7} <= residues


@pytest.mark.parametrize("path", list(PATHS))
def test_substitute_paths_reject_singular_matrices(monkeypatch, path):
    force_path(monkeypatch, path)
    rng = random.Random(318)
    singular = [[[0, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 2, 3], [2, 4, 6], [0, 0, 1]],
                [[0, 1, 1], [0, 2, 3], [0, 5, 7]], [[0, 0, 5], [0, 0, 7], [1, 0, 0]]]
    for m in singular:
        for degree in (0, 3, 13):
            with pytest.raises(ValueError, match="singular"):
                substitute_terms(int_terms(rng, degree), degree, m)


# ---------------------------------------------------------------------------
# gcd against the resultant

def test_resultant_gcd_equivalence():
    rng = random.Random(505)
    for _ in range(60):
        g = rand_binary(rng, rng.randint(1, 5))
        h = rand_binary(rng, rng.randint(1, 5))
        if g.is_zero() or h.is_zero():
            continue
        if rng.random() < 0.4:
            common = rand_binary(rng, 1)
            if common.is_zero():
                continue
            g, h = g * common, h * common
        res = sylvester_resultant(g, h)
        gcd = form_gcd(g, h)
        assert (res == 0) == (gcd.degree >= 1)


# ---------------------------------------------------------------------------
# output past the int-string digit limit

def test_rational_text_matches_str_past_the_digit_limit():
    values = [0, 7, -12, Fraction(-3, 4), 10 ** 599, 10 ** 600, -(10 ** 600) + 1,
              10 ** 1200 + 10 ** 600, Fraction(10 ** 5000 + 7, 3), Fraction(-1, 10 ** 9000 - 1)]
    texts = [rational_text(v) for v in values]
    with int_str_limit(0):
        assert texts == [str(v) for v in values]
    big = TernaryForm.from_terms(2, TRIPLE, {(2, 0, 0): -(10 ** 5000), (0, 1, 1): Fraction(1, 3)})
    text, report = str(big), big.to_json()
    assert parse_form(text, TRIPLE) == big
    assert form_from_json(report) == big
    with int_str_limit(0):
        assert report["terms"][0]["coef"] == str(-(10 ** 5000))


def test_text_and_json_match_fraction_oracle_hypothesis():
    """`str` and `to_json`, written from the integer numerators, equal the
    sorted Fraction-term writers of `oracles`: over den 1 and not, +-1 over a
    denominator, constants, zero forms of every degree, and coefficients of
    601 and 5000 digits, past the int-string digit limit."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    big = st.builds(lambda digits, low, sign: sign * (10 ** (digits - 1) + low),
                    st.sampled_from([601, 5000]), st.integers(0, 10 ** 9), st.sampled_from([-1, 1]))
    number = st.one_of(st.integers(-9, 9), st.sampled_from([-1, 1]),
                       st.integers(-2 ** 80, 2 ** 80), big)
    size = len(exponents(3, 6))
    ones = [1] * size

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.sampled_from([2, 3]), st.integers(0, 6),
                      st.one_of(st.just(1), st.integers(1, 60), big.map(abs)),
                      st.lists(number, min_size=size, max_size=size))
    @hypothesis.example(2, 1, 3, [-1, 0, *ones])  # -1/3*v
    @hypothesis.example(3, 2, 5, [0, 5, 0, -5, *ones])  # +-1 over a denominator
    @hypothesis.example(2, 0, 7, ones)  # a constant
    @hypothesis.example(3, 0, 1, [-4, *ones])
    @hypothesis.example(2, 0, 5, [0] * size)  # zero forms
    @hypothesis.example(2, 4, 1, [0] * size)
    @hypothesis.example(3, 3, 2, [0] * size)
    @hypothesis.example(3, 2, 7, [10 ** 600 + 1, -(10 ** 600 + 3), 1, 0, 7, *ones])
    @hypothesis.example(2, 2, 10 ** 600 + 9, [-(10 ** 4999 + 7), 3, 10 ** 600 + 9, *ones])
    def check(arity, degree, den, coeffs):
        if arity == 2:
            f = BinaryForm(degree, PAIR, den, coeffs[:degree + 1])
        else:
            exps = exponents(3, degree)
            f = TernaryForm(degree, TRIPLE, den, {e: c for e, c in zip(exps, coeffs) if c})
        assert str(f) == fraction_text(f)
        assert f.to_json() == fraction_json(f)

    check()


# ---------------------------------------------------------------------------
# immutability

def test_ternary_terms_are_read_only():
    f = parse_form("x*y - t^2", ("x", "y", "t"))
    with pytest.raises(TypeError):
        f.terms[(0, 0, 2)] = 5
    with pytest.raises(TypeError):
        del f.terms[(1, 1, 0)]
    source = {(2, 0, 0): Fraction(1)}
    g = TernaryForm(2, TRIPLE, source)
    source[(0, 2, 0)] = Fraction(3)  # the form keeps its own copy
    assert g == parse_form("u^2", TRIPLE)


def test_ternary_hash_consistent_with_eq():
    rng = random.Random(607)
    for _ in range(20):
        f = rand_ternary(rng, rng.randint(0, 4))
        shuffled = list(f.terms.items())
        rng.shuffle(shuffled)
        g = TernaryForm(f.degree, f.variables, dict(shuffled))
        assert g == f and hash(g) == hash(f)
    ints = TernaryForm(2, TRIPLE, {(1, 1, 0): 2, (0, 0, 2): -1})
    fracs = parse_form("2*u*v - w^2", TRIPLE)
    assert ints == fracs and hash(ints) == hash(fracs)
    assert len({ints, fracs, fracs.scale(2), zero_form(TernaryForm, 2, TRIPLE)}) == 3


def test_ternary_pickle_and_copy_round_trip():
    f = parse_form("-3/4*u^2*v + w^3", TRIPLE)
    for g in (pickle.loads(pickle.dumps(f)), copy.copy(f), copy.deepcopy(f)):
        assert g == f and hash(g) == hash(f) and str(g) == str(f)
        with pytest.raises(TypeError):
            g.terms[(0, 0, 3)] = 2


# ---------------------------------------------------------------------------
# serialization

def test_json_round_trip():
    rng = random.Random(606)
    for _ in range(20):
        f = rand_ternary(rng, rng.randint(1, 4))
        assert form_from_json(json.loads(json.dumps(f.to_json()))) == f
    binaries = [BinaryForm.from_coeffs(PAIR, [Fraction(-3, 4), 0, 1]),
                zero_form(BinaryForm, 3, PAIR)]
    binaries += [rand_binary(rng, rng.randint(0, 8)).scale(Fraction(1, rng.randint(1, 9)))
                 for _ in range(20)]
    for g in binaries:
        back = form_from_json(json.loads(json.dumps(g.to_json())))
        assert back == g


def test_json_schema_shape():
    f = parse_form("-3/4*v^2*w + w^3", PAIR)
    data = f.to_json()
    assert data["vars"] == ["v", "w"]
    assert data["degree"] == 3
    assert {"coef": "-3/4", "exp": [2, 1]} in data["terms"]


@pytest.mark.parametrize("data", [
    {"degree": 2, "terms": [{"exp": [3, -1, 0], "coef": "1"}], "vars": TRIPLE},
    {"vars": PAIR, "degree": 2, "terms": [{"exp": [-1, 3], "coef": "1"}]},
    {"vars": PAIR, "degree": 2},
    {"vars": PAIR, "terms": []},
    {"degree": 0, "terms": []},
    {"vars": PAIR, "degree": 2, "terms": [{"exp": [2, 0]}]},
    {"vars": PAIR, "degree": 2, "terms": [{"coef": "1"}]},
    {"vars": ["u"], "degree": 0, "terms": []},
    {"vars": ["a", "b", "c", "d"], "degree": 0, "terms": []},
    {"vars": PAIR, "degree": 2, "terms": [{"exp": [2, 0], "coef": "1/0"}]},
    {"vars": PAIR, "degree": 2, "terms": [{"exp": [2, 0], "coef": "x"}]},
    {"vars": PAIR, "degree": 2, "terms": [{"exp": [2, 0], "coef": None}]},
    {"vars": PAIR, "degree": 2, "terms": [{"exp": [2, 0, 0], "coef": "1"}]},
    {"vars": TRIPLE, "degree": 2, "terms": [{"exp": [2, 0], "coef": "1"}]},
    {"vars": PAIR, "degree": 2, "terms": [{"exp": [1, 0], "coef": "1"}]},
    {"vars": PAIR, "degree": -1, "terms": []},
    {"vars": PAIR, "degree": "2", "terms": []},
    {"vars": PAIR, "degree": 10 ** 9, "terms": []},
    {"vars": PAIR, "degree": 2, "terms": "u^2"},
    {"vars": ["u", "u", "w"], "degree": 1,
     "terms": [{"coef": 1, "exp": [1, 0, 0]}, {"coef": 2, "exp": [0, 1, 0]}]},
    {"vars": ["a b", "c"], "degree": 1, "terms": [{"coef": 1, "exp": [1, 0]}]},
    {"vars": ["u^2", "v"], "degree": 0, "terms": []},
    {"vars": ["", "v"], "degree": 0, "terms": []},
    {"vars": ["2u", "v"], "degree": 0, "terms": []},
    {"vars": ["\u0663", "v"], "degree": 0, "terms": []},
    [],
    None,
])
def test_form_from_json_rejects_malformed(data):
    with pytest.raises(ValueError) as err:
        form_from_json(data)
    assert type(err.value) in (ValueError, HomogeneityError)


@pytest.mark.parametrize("coef, message", [("1e300000", "exponent notation"),
                                           ("1E5", "exponent notation"),
                                           ("1" * 10001, "too long")])
def test_form_from_json_rejects_exponent_or_overlong_coefficient_fast(coef, message):
    data = {"vars": list(PAIR), "degree": 0, "terms": [{"exp": [0, 0], "coef": coef}]}
    start = time.perf_counter()
    with pytest.raises(ValueError, match=message):
        form_from_json(data)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("terms", [
    [{"exp": [0, 0], "coef": "\u0663"}],
    [{"exp": [0, 0], "coef": "1_0"}],
    [{"exp": [0, 0], "coef": 0.1}],
    [{"exp": [0, 0], "coef": True}],
    [{"exp": [0, 0], "coef": "1"}, {"exp": [0, 0], "coef": "2"}],
])
def test_form_from_json_rejects_inexact_or_repeated_terms(terms):
    with pytest.raises(ValueError, match="malformed form JSON"):
        form_from_json({"vars": list(PAIR), "degree": 0, "terms": terms})


def test_form_from_json_loads_plain_coefficients():
    data = {"vars": list(PAIR), "degree": 2,
            "terms": [{"exp": [2, 0], "coef": "1/3"}, {"exp": [1, 1], "coef": "-2"},
                      {"exp": [0, 2], "coef": "0.25"}]}
    assert form_from_json(data) == BinaryForm(2, PAIR, (Fraction(1, 3), Fraction(-2),
                                                        Fraction(1, 4)))
    data = {"vars": list(TRIPLE), "degree": 1,
            "terms": [{"exp": [1, 0, 0], "coef": 3}, {"exp": [0, 0, 1], "coef": -1}]}
    g = form_from_json(data)
    assert g == parse_form("3*u - w", TRIPLE)
    assert all(type(c) is Fraction for c in g.terms.values())


def test_lex_normalization_and_proportionality():
    f = parse_form("2*u^2 - 4*w^2", TRIPLE)
    g = parse_form("-u^2 + 2*w^2", TRIPLE)
    assert f.proportional_to(g)
    assert f.lex_normalized() == parse_form("u^2 - 2*w^2", TRIPLE)
    assert not f.proportional_to(parse_form("u^2 + 2*w^2", TRIPLE))


# ---------------------------------------------------------------------------
# one representation: integer numerators over one positive denominator

def exponents(arity, degree):
    if arity == 2:
        return [(degree - j, j) for j in range(degree + 1)]
    return [(i, j, degree - i - j) for i in range(degree + 1) for j in range(degree + 1 - i)]


def test_constructors_reject_negative_exponents_and_wrong_arity():
    # once accepted: a form printing u^3*v^-1, and s0^2 + 5*s1^2 from (3, -1)
    with pytest.raises(ValueError, match="non-negative entries"):
        TernaryForm.from_terms(2, TRIPLE, {(3, -1, 0): 1, (1, 1, 0): 2})
    with pytest.raises(ValueError, match="non-negative entries"):
        from_terms(BinaryForm, 2, PAIR, {(3, -1): 5, (2, 0): 1})
    for cls, arity, bad in ((BinaryForm, 2, (1, 1, 0)), (TernaryForm, 3, (1, 1))):
        with pytest.raises(ValueError, match=f"needs {arity} non-negative entries"):
            from_terms(cls, 2, TRIPLE[:arity], {bad: 1})
    with pytest.raises(ValueError, match="non-negative entries"):
        TernaryForm(2, TRIPLE, 1, {(3, -1, 0): 1})
    with pytest.raises(ValueError, match="non-negative entries"):  # its sum is the degree
        from_terms(BinaryForm, 0, PAIR, {(1, -1): 1})
    for cls, exp in ((BinaryForm, (2, 1)), (TernaryForm, (1, 2, 0))):
        with pytest.raises(HomogeneityError):
            from_terms(cls, 2, TRIPLE[:len(exp)], {exp: 1})
        with pytest.raises(HomogeneityError):  # the package's binary path, `forms._form`
            form_from_json({"vars": list(TRIPLE[:len(exp)]), "degree": 2,
                            "terms": [{"exp": list(exp), "coef": 1}]})
    with pytest.raises(HomogeneityError):  # past MAX_DEGREE the check runs term by term
        TernaryForm.from_terms(MAX_DEGREE + 1, TRIPLE, {(MAX_DEGREE, 0, 0): 1})
    big = TernaryForm.from_terms(MAX_DEGREE + 1, TRIPLE, {(MAX_DEGREE, 1, 0): 3})
    assert big * big == TernaryForm(2 * MAX_DEGREE + 2, TRIPLE, 1, {(2 * MAX_DEGREE, 2, 0): 9})


def test_the_fields_are_reduced_over_a_positive_denominator():
    f = TernaryForm(2, TRIPLE, -6, {(1, 1, 0): 4, (0, 0, 2): 2})
    assert (f.den, dict(f.nums)) == (3, {(1, 1, 0): -2, (0, 0, 2): -1})
    assert f == parse_form("-2/3*u*v - 1/3*w^2", TRIPLE)
    g = BinaryForm(2, PAIR, -4, [2, 0, 6])
    assert (g.den, g.nums) == (2, (-1, 0, -3)) and g == parse_form("-1/2*v^2 - 3/2*w^2", PAIR)
    assert g.coeffs == (Fraction(-1, 2), 0, Fraction(-3, 2))
    for zero in (TernaryForm(3, TRIPLE, 7, {}), BinaryForm(2, PAIR, -7, [0, 0, 0])):
        assert zero.den == 1 and zero.is_zero()
        assert zero == zero_form(type(zero), zero.degree, zero.variables)
    for zero_den in (lambda: TernaryForm(2, TRIPLE, 0, {(1, 1, 0): 1}),
                     lambda: TernaryForm(2, TRIPLE, 0, {}), lambda: BinaryForm(1, PAIR, 0, [1, 1])):
        with pytest.raises(ZeroDivisionError):  # as Fraction(1, 0)
            zero_den()
    assert TernaryForm(2, TRIPLE, 2, {(1, 1, 0): 0, (0, 0, 2): 6}) == parse_form("3*w^2", TRIPLE)
    with pytest.raises(ValueError, match="degree\\+1"):
        BinaryForm(2, PAIR, 1, [1, 1])
    with pytest.raises(TypeError):
        TernaryForm(2, TRIPLE, 1, {}, 1)


def test_fraction_views_are_built_when_read_and_kept_nowhere():
    f = parse_form("3/4*u^2*v - w^3", TRIPLE)
    g = BinaryForm.from_coeffs(PAIR, [Fraction(1, 3), 0, -2])
    for form in (f, g):
        before = (hash(form), pickle.dumps(form), dict(vars(form)))
        assert form.terms == form.terms and form.terms is not form.terms
        assert (hash(form), pickle.dumps(form), dict(vars(form))) == before
        assert b"Fraction" not in before[1] and set(before[2]) == {"degree", "variables",
                                                                    "den", "nums"}
    assert g.coeffs == (Fraction(1, 3), 0, -2) and g.terms == {(2, 0): Fraction(1, 3), (0, 2): -2}
    assert f.terms == {(2, 1, 0): Fraction(3, 4), (0, 0, 3): -1}
    assert type(f.terms[(0, 0, 3)]) is Fraction and type(g.coeffs[1]) is Fraction


def test_every_construction_gives_one_representation_hypothesis():
    """A form from a Fraction map, from integers over a denominator (times any
    common factor), by `parse_form` and by `form_from_json`: equal, hash
    equal, the same text and JSON, in lowest terms over a positive
    denominator, and each survives pickle and copy."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    number = st.one_of(st.integers(-9, 9), st.integers(-2 ** 80, 2 ** 80))
    nonzero = number.filter(bool)

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.sampled_from([2, 3]), st.integers(0, 6), st.data(), nonzero, nonzero)
    def check(arity, degree, data, den, k):
        cls, variables, exps = (BinaryForm, PAIR, exponents(2, degree)) if arity == 2 else (
            TernaryForm, TRIPLE, exponents(3, degree))
        nums = data.draw(st.lists(number, min_size=len(exps), max_size=len(exps)))
        hypothesis.assume(any(nums))
        fractions = {e: Fraction(c, den) for e, c in zip(exps, nums) if c}
        scaled = ([c * k for c in nums] if arity == 2
                  else {e: c * k for e, c in zip(exps, nums) if c})
        forms = [from_terms(cls, degree, variables, fractions), cls(degree, variables, fractions)
                 if arity == 3 else cls(degree, variables, [Fraction(c, den) for c in nums]),
                 cls(degree, variables, den * k, scaled)]
        forms += [parse_form(str(forms[0]), variables),
                  form_from_json(json.loads(json.dumps(forms[0].to_json())))]
        text, report = str(forms[0]), forms[0].to_json()
        for f in forms:
            assert f == forms[0] and hash(f) == hash(forms[0])
            assert str(f) == text and f.to_json() == report
            values = f.nums if arity == 2 else list(f.nums.values())
            assert f.den > 0 and math.gcd(*values, f.den) == 1
            for clone in (pickle.loads(pickle.dumps(f)), copy.copy(f), copy.deepcopy(f)):
                assert clone == f and hash(clone) == hash(f) and str(clone) == text

    check()
