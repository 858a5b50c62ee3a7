"""Parser, binary/ternary form arithmetic, gcd and serialization."""

import json
import random
from fractions import Fraction

import pytest

from luroth.forms import (
    MAX_DEGREE,
    BinaryForm,
    HomogeneityError,
    ParseError,
    PreconditionError,
    TernaryForm,
    form_from_json,
    add_terms,
    form_gcd,
    mul_terms,
    parse_form,
    parse_terms,
    substitute_terms,
)
from luroth.linalg import det_rational, invert, sylvester_resultant

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
    assert str(TernaryForm.zero(3, TRIPLE)) == "0"


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


def test_partial_extracts_polar():
    # d/dt of t^2*f2 + t*f3 + f4 is 2*t*f2 + f3
    rng = random.Random(7)
    f2 = rand_binary(rng, 2)
    f3 = rand_binary(rng, 3)
    f4 = rand_binary(rng, 4)
    terms = {}
    for power, f in ((2, f2), (1, f3), (0, f4)):
        for (a, b), c in f.terms().items():
            terms[(power, a, b)] = c
    quartic = TernaryForm.from_terms(4, ("t", "v", "w"), terms)
    expected = {}
    for (a, b), c in f2.terms().items():
        expected[(1, a, b)] = 2 * c
    for (a, b), c in f3.terms().items():
        expected[(0, a, b)] = expected.get((0, a, b), Fraction(0)) + c
    assert quartic.partial("t") == TernaryForm.from_terms(3, ("t", "v", "w"), expected)


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

def test_directional_polarization():
    f = parse_form("v^2+w^2", PAIR)
    # d(v^2+w^2).(a, b) = 2a*v + 2b*w
    assert f.directional((3, -5)) == BinaryForm.from_coeffs(PAIR, [6, -10])


def test_directional_worked_value():
    f = BinaryForm.from_coeffs(PAIR, [2, 0, 0, 0])  # 2v^3
    assert f.directional((Fraction(-1, 2), 0)) == BinaryForm.from_coeffs(PAIR, [-3, 0, 0])


def test_directional_zero_direction():
    f = parse_form("v^3 - v*w^2", PAIR)
    assert f.directional((0, 0)).is_zero()


def test_directional_degree_zero_rejected():
    with pytest.raises(PreconditionError):
        BinaryForm.from_coeffs(PAIR, [5]).directional((1, 1))


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


def test_substitute_singular_rejected():
    f = parse_form("u^2 - w^2", TRIPLE)
    with pytest.raises(PreconditionError):
        f.substitute_linear([[1, 1, 0], [1, 1, 0], [0, 0, 1]])


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
    perms = [[[1 if j == p[i] else 0 for j in range(3)] for i in range(3)]
             for p in ((0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1))]
    checked = 0
    for degree in range(9):
        mats = list(perms)
        while len(mats) < 12:
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
    assert checked == 9 * 12


def test_substitute_terms_keeps_integer_coefficients():
    terms = {(2, 0, 0): 3, (0, 1, 1): -2}
    out = substitute_terms(terms, 2, [[1, 2, 0], [0, 1, 1], [1, 0, 1]])
    assert all(type(c) is int for c in out.values())
    f = TernaryForm.from_terms(2, TRIPLE, terms)
    expected = f.substitute_linear([[1, 2, 0], [0, 1, 1], [1, 0, 1]])
    assert out == expected.terms


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
# serialization

def test_json_round_trip():
    rng = random.Random(606)
    for _ in range(20):
        f = rand_ternary(rng, rng.randint(1, 4))
        assert form_from_json(json.loads(json.dumps(f.to_json()))) == f
    g = BinaryForm.from_coeffs(PAIR, [Fraction(-3, 4), 0, 1])
    back = form_from_json(g.to_json())
    assert back.coeffs == g.coeffs and back.variables == g.variables


def test_json_schema_shape():
    f = parse_form("-3/4*v^2*w + w^3", PAIR)
    data = f.to_json()
    assert data["vars"] == ["v", "w"]
    assert data["degree"] == 3
    assert {"coef": "-3/4", "exp": [2, 1]} in data["terms"]


def test_lex_normalization_and_proportionality():
    f = parse_form("2*u^2 - 4*w^2", TRIPLE)
    g = parse_form("-u^2 + 2*w^2", TRIPLE)
    assert f.proportional_to(g)
    assert f.lex_normalized() == parse_form("u^2 - 2*w^2", TRIPLE)
    assert not f.proportional_to(parse_form("u^2 + 2*w^2", TRIPLE))
