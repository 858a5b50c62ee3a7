"""The closed-form monomial parser of `luroth.forms` against the term-by-term
parser in `oracles`: the same term maps, and the same message and position
for every `ParseError`, on bench-style pencils, random grammar texts, hand
written edge cases and texts mutated one character at a time.  Also the
work budget, round trips, and `hypothesis` fuzzing of `parse_form`,
`form_from_json` and the CLI for their error contract."""

import contextlib
import io
import random
import time
from fractions import Fraction

import pytest

from luroth import cli
from luroth.forms import (MAX_TERM_PRODUCTS, _TOKEN, BinaryForm, ParseError, TernaryForm,
                          _is_variable, form_from_json, parse_form, parse_terms)
from oracles import oracle_parse_terms

PAIR = ("s0", "s1")
TRIPLE = ("u", "v", "w")


def outcome(parse, text, variables):
    try:
        return "ok", parse(text, variables)
    except ParseError as exc:
        return "error", str(exc), exc.position


def assert_same(text, variables):
    got = outcome(parse_terms, text, variables)
    assert got == outcome(oracle_parse_terms, text, variables), text
    if got[0] == "ok":
        assert all(type(c) is Fraction for c in got[1].values()), text
    return got[0]


def bench_pencil(rng, n):
    """Pencil text as the benchmark writes it: gamma1 splits into the roots
    +-1, ..., +-(n+1), gamma2 has random nonzero coefficients."""
    gamma1 = BinaryForm.from_coeffs(PAIR, [1])
    for k in range(1, n + 2):
        gamma1 = gamma1 * BinaryForm.from_coeffs(PAIR, [1, rng.choice((-k, k))])
    gamma2 = BinaryForm.from_coeffs(
        PAIR, [rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(n + 2)])
    return str(gamma1), str(gamma2)


def spaces(rng):
    return rng.choice(("", "", "", " ", "  ", "\t"))


def rand_text(rng, variables, depth=0):
    """A random sum of products of literals, variable powers and groups."""
    terms = []
    for i in range(rng.randint(1, 3)):
        factors = []
        for _ in range(rng.randint(1, 4)):
            r = rng.random()
            if r < 0.3:
                over = f"{spaces(rng)}/{spaces(rng)}{rng.randint(1, 9)}"
                factors.append(str(rng.randint(0, 40)) + (over if rng.random() < 0.3 else ""))
            elif r < 0.8 or depth >= 2:
                power = f"{spaces(rng)}^{spaces(rng)}{rng.randint(0, 4)}"
                factors.append(rng.choice(variables) + (power if rng.random() < 0.5 else ""))
            else:
                power = f"^{rng.randint(0, 3)}" if rng.random() < 0.5 else ""
                factors.append(f"({rand_text(rng, variables, depth + 1)}){power}")
        sign = rng.choice(("+", "-", "")) if i == 0 else rng.choice("+-")
        product = f"{spaces(rng)}*{spaces(rng)}".join(factors)
        terms.append(f"{sign}{spaces(rng)}{product}{spaces(rng)}")
    return "".join(terms)


EDGE_TEXTS = [
    "(s0+s1)^2*s0", "(s0+s1)^2 * s0^3*s1", "(s0 + s1) ^ 2*2/3*s1", "s0^2*(s0+s1)^1*s1",
    "2/3*s0^2", " - 3 / 4 * s0 ^ 2 * s1", "s0*s1*(s0-s1)", "(s0)(s1)", "2s0", "s0 s1",
    "", " ", "-", "+s0^3", "--s0", "s0*", "s0+", "*s0", "s0^", "s0^ *s1", "1/ *s0",
    "1/", "1/s0", "1/0*s0", "1/00*s0", "2^3", "1/2/3*s0", "s0^2^3", "(s0)^2^3", "s0^2/3",
    "0*s0^60*s1^60", "s0^60*0*s1^60", "s0^60*s1^41", "(s0^60)*(s1^41)", "s0^0*s1^2",
    "s0^0000000000007", "s0^101", "(2)^999999999", "(s0+s1)^3000", "-(-s0)^3",
    "((s0))", "(s0", "s0)", "()", "(s0+s1)^", "(s0+s1)^ *s0", "(s0-s0)^0*s1", "(s0-s0)^2",
    "s2", "3*z", "x2*s0", "_*s0", "s0^2*s1^2 - s1^2*s0^2", "1*2*3*s0", "0", "0*s0",
    "s0\n", "s0 ;", "s0²", "s0^²", "²*s0", "1/٣*s0", "s0*é", "s0^2é", "s0 + é",
    "0*(s0+s1)*s0^100", "0*(s0+s1)^60*(s0+s1)^60", "s0^60*0*(s0+s1)^60",
    "(s0-s0)*(s0+s1)^60*(s0+s1)^60", "s0^60*(s0-s0)*s1^60", "s0^60*(s0+s1)^41",
    # the edges of a product token: spaces, a glued factor, a sign, a group inside
    "3 / 4 * s0 ^ 2", "3\t/\t4\t*\ts0\t^\t2", "s0 ^ 007*s1", "s0^2s1", "2s0*s1", "s0*-s1",
    "s0 * (s0+s1)^2 * 3", "s0*(s0+s1)^2*3*s1^2", "s0^100*s1", "s0 ^ 100*0", "0*s0^101",
    "s0*s2", "2*s0*s1 * s2^3", "s0*1/0", "s0*1/ ", "s0*s1^", "s0*s1^ +s0", "s0 * s1 s0",
    "2/3*s0 s1", "s0*2/3/4", "s0*s1^2^3", "s0 * s1 ;",
    # 601 digits: read in chunks, past a position
    "s0*" + "7" * 601 + "*s1", "s0*1/" + "3" * 601 + "*s1", "s0*1/" + "0" * 601 + "*s1",
    "s0^" + "0" * 601 + "7*s1",
    # three-digit exponents inside a product, below and above the cap
    "s0^000*s1^002*s0^001", "0*s0^100*s1^100", "s0^050*s1^0051", "s0*s1^100",
    # non-ASCII names inside a product
    "s0*٣", "s0 * é^2", "s0*x٣*s1", "s0*s1;é", "s0*٣;",
]


def test_a_product_of_literals_and_variable_powers_is_one_token():
    text = "60996*s0^20*s1^3 - 3 / 4 * u ^ 2+(s0*s1)^2*7 s1"
    assert [m[0] for m in _TOKEN.finditer(text)] == [
        "60996*s0^20*s1^3", "-", "3 / 4 * u ^ 2", "+", "(", "s0*s1", ")", "^2", "*", "7", "s1", ""]
    with pytest.raises(ParseError, match=r"exponent or degree above .* \(at position 5\)"):
        parse_form("0*s0^101", PAIR)
    assert parse_form("0*s0^60*s1^60", PAIR).is_zero()
    three_quarters = BinaryForm.from_coeffs(PAIR, [Fraction(3, 4), 0, 0])
    assert parse_form("3 / 4 * s0 ^ 2", PAIR) == three_quarters


def test_parser_matches_oracle_on_bench_pencils():
    rng = random.Random(13)
    for n in range(2, 41):
        for text in bench_pencil(rng, n):
            assert assert_same(text, PAIR) == "ok"


def test_parser_matches_oracle_on_edge_texts():
    kinds = {assert_same(text, PAIR) for text in EDGE_TEXTS}
    assert kinds == {"ok", "error"}


def test_parser_matches_oracle_on_random_texts():
    rng = random.Random(17)
    for variables in (PAIR, TRIPLE):
        for _ in range(400):
            # every text is in the grammar; a sum of mixed degrees parses too
            assert assert_same(rand_text(rng, variables), variables) == "ok"


def test_parser_matches_oracle_past_max_degree():
    """Products whose factor degrees add up past MAX_DEGREE, some of them
    zero: only a nonzero product may fail the term-degree check."""
    rng = random.Random(29)
    factors = ["0", "2/3", "s0^{}", "s1^{}", "(s0+s1)^{}", "(s0-s0)", "(s0-s0)^{}"]
    kinds = set()
    for _ in range(300):
        picks = [rng.choice(factors).format(rng.randint(0, 60)) for _ in range(rng.randint(2, 5))]
        kinds.add(assert_same("*".join(picks), PAIR))
    assert kinds == {"ok", "error"}


MUTATIONS = list("s0s1uvw0123456789+-*/^()  \t²é_x") + ["s0", "^2", "*(", "/", "1/0", "^9"]


def mutate(rng, text):
    i = rng.randrange(len(text) + 1)
    op = rng.randrange(3)
    if op == 0:
        return text[:i] + rng.choice(MUTATIONS) + text[i:]
    if op == 1:
        return text[:i] + text[i + 1:]
    return text[:i] + rng.choice(MUTATIONS) + text[i + 1:]


def test_parser_matches_oracle_on_mutated_texts():
    rng = random.Random(19)
    seeds = EDGE_TEXTS[:10] + [t for n in (2, 4, 8) for t in bench_pencil(rng, n)]
    seeds += [rand_text(rng, PAIR) for _ in range(20)]
    seen = {"ok": 0, "error": 0}
    for _ in range(3000):
        text = mutate(rng, rng.choice(seeds))
        seen[assert_same(text, PAIR)] += 1
    assert min(seen.values()) > 500, seen


def test_parse_work_budget():
    for text, position in (("(u+v+w)^100", 8), ("(u+v+w)^50*(u+v+w)^50", 11),
                           ("(u+v+w)^33*(u+v+w)^33*(u+v+w)^33", 11),
                           ("u*(u+v+w)^20*v*(u+v+w)^20*(u+v+w)^20", 26)):
        start = time.perf_counter()
        with pytest.raises(ParseError) as err:
            parse_form(text, TRIPLE)
        assert err.value.position == position, text
        assert f"MAX_TERM_PRODUCTS = {MAX_TERM_PRODUCTS}" in str(err.value)
        assert time.perf_counter() - start < 5
    # (u+v+w)^k makes k*(k+1)*(k+2)/2 term products
    assert 72 * 73 * 74 // 2 <= MAX_TERM_PRODUCTS < 73 * 74 * 75 // 2
    assert len(parse_form("(u+v+w)^72", TRIPLE).terms) == 73 * 74 // 2
    rational = parse_form("(1/2*u - 2/3*v + w)^7", TRIPLE)
    assert rational == parse_form(str(rational), TRIPLE)
    assert rational.terms == oracle_parse_terms("(1/2*u - 2/3*v + w)^7", TRIPLE)


def test_parse_work_budget_exit_2(capsys):
    code = cli.main(["quartic", "analyze", "--f", "(u+v+w)^100", "--node", "1:0:0"])
    assert code == 2
    assert "MAX_TERM_PRODUCTS" in capsys.readouterr().out


@pytest.mark.parametrize("digits", [1000, 4000])
def test_parse_work_budget_weighs_coefficient_size(digits, capsys):
    # 41 steps of a power of a sum with 1000-digit coefficients took 8 s
    # when each term product cost 1, and 69 s with 4000 digits
    text = f"({'9' * digits}*u+{'7' * digits}*v+w)^40"
    start = time.perf_counter()
    code = cli.main(["quartic", "analyze", "--f", text, "--node", "1:0:0"])
    assert code == 2 and time.perf_counter() - start < 1
    assert "MAX_TERM_PRODUCTS" in capsys.readouterr().out


def test_parse_work_budget_weight_is_one_at_ordinary_sizes():
    f = parse_form(f"({'9' * 30}*u+v+w)^60", TRIPLE)  # 100-bit coefficients
    assert len(f.terms) == 61 * 62 // 2
    for text in ("(u-u)^5*(u+v+w)^2", "(u+v)*(0)*(v+w)", "(0)^3 + u^2"):  # zero products
        assert assert_same(text, TRIPLE) == "ok", text


VARIABLE_NAMES = {"u": True, "s0": True, "_t": True, "é": True, "x٣": True, "x²": True,
                  "s0^2": False, "2s": False, "s 0": False, "": False, "u*v": False, "٣": False,
                  "s0 ": False, " s0": False, "(u)": False, "12": False, "1/2": False, "²": False}


def test_is_variable_keeps_its_verdicts():
    """`form_from_json` accepts a variable name when the grammar reads it as
    one variable: these verdicts are pinned, and every name agrees with the
    parser, which reads a name as a variable exactly when it is one."""
    assert {name: _is_variable(name) for name in VARIABLE_NAMES} == VARIABLE_NAMES
    rng = random.Random(31)
    names = list(VARIABLE_NAMES) + ["".join(rng.choices("s0_é٣²x ^*/(", k=rng.randint(1, 4)))
                                    for _ in range(400)]
    for name in names:
        try:
            alone = parse_terms(name, (name, "zz")) == {(1, 0): 1}
        except ParseError:
            alone = False
        assert _is_variable(name) == alone, name


def rand_fraction(rng):
    return Fraction(rng.randint(-30, 30), rng.choice((1, 1, 2, 3, 7, 10 ** 12)))


def test_parse_round_trip_random_forms():
    rng = random.Random(23)
    for _ in range(60):
        degree = rng.randint(0, 9)
        terms = {}
        for _ in range(rng.randint(0, 12)):
            i = rng.randint(0, degree)
            j = rng.randint(0, degree - i)
            terms[(i, j, degree - i - j)] = rand_fraction(rng)
        f = TernaryForm.from_terms(degree, TRIPLE, terms)
        if not f.is_zero():  # the zero form prints as "0", of degree 0
            assert parse_form(str(f), TRIPLE) == f
        g = BinaryForm.from_coeffs(PAIR, [rand_fraction(rng) for _ in range(degree + 1)])
        if not g.is_zero():
            assert parse_form(str(g), PAIR) == g


# ---------------------------------------------------------------------------
# fuzzing: parse_form, form_from_json and the CLI keep their error contract

def hypothesis_or_skip():
    hypothesis = pytest.importorskip("hypothesis")
    return hypothesis, hypothesis.strategies


def grammar_texts(st, variables):
    atom = st.one_of(st.sampled_from(variables), st.integers(0, 99).map(str),
                     st.sampled_from(["1/2", "3/0", "^", "/", " ", "²", "é"]))
    power = st.one_of(st.just(""), st.integers(0, 12).map(lambda k: f"^{k}"))
    factor = st.recursive(
        st.tuples(atom, power).map("".join),
        lambda inner: st.tuples(st.lists(inner, min_size=1, max_size=3), power).map(
            lambda t: "(" + "+".join(t[0]) + ")" + t[1]),
        max_leaves=6)
    term = st.lists(factor, min_size=1, max_size=3).map("*".join)
    return st.one_of(
        st.lists(st.tuples(st.sampled_from(["+", "-", ""]), term), min_size=1, max_size=4)
        .map(lambda ts: "".join(s + t for s, t in ts)),
        st.text(alphabet="s01uvw23+-*/^() ²", max_size=25))


def test_fuzz_parse_form():
    hypothesis, st = hypothesis_or_skip()

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.sampled_from([PAIR, TRIPLE]).flatmap(
        lambda vs: st.tuples(st.just(vs), grammar_texts(st, vs))))
    def check(case):
        variables, text = case
        try:
            f = parse_form(text, variables)
        except ValueError:  # ParseError, HomogeneityError
            return
        assert parse_form(str(f), variables) == f

    check()


def test_fuzz_form_from_json():
    hypothesis, st = hypothesis_or_skip()
    value = st.one_of(st.integers(-10, 10), st.text(max_size=6), st.booleans(), st.none(),
                      st.floats(allow_nan=True), st.lists(st.integers(-2, 5), max_size=4))
    term = st.fixed_dictionaries({"coef": value, "exp": value})
    report = st.fixed_dictionaries({
        "vars": st.one_of(st.just(["u", "v", "w"]), st.just(["s0", "s1"]), value),
        "degree": value, "terms": st.one_of(st.lists(term, max_size=4), value)})
    # homogeneous reports, so many are accepted, over good and bad variable names
    names = st.one_of(st.sampled_from(["u", "v", "w", "s0", "x_1", "é", "a b", "u^2", "2u", ""]),
                      st.text(max_size=3))

    def homogeneous(case):
        variables, degree = case
        exp = st.lists(st.integers(0, degree), min_size=len(variables) - 1,
                       max_size=len(variables) - 1).map(lambda e: e + [degree - sum(e)])
        coef = st.one_of(st.integers(-9, 9), st.sampled_from(["1/2", "-3/4", "0.5", "0"]))
        return st.fixed_dictionaries({
            "vars": st.just(variables), "degree": st.just(degree),
            "terms": st.lists(st.fixed_dictionaries({"coef": coef, "exp": exp}), max_size=4)})

    near = st.tuples(st.lists(names, min_size=2, max_size=3), st.integers(0, 4)).flatmap(homogeneous)

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.one_of(report, near, st.dictionaries(st.text(max_size=5), value)))
    def check(data):
        try:
            f = form_from_json(data)
        except ValueError:
            return
        assert form_from_json(f.to_json()) == f
        # the text "0" carries no degree: it reads back as the degree-0 zero
        assert parse_form(str(f), f.variables) == (f.zero(0, f.variables) if f.is_zero() else f)

    check()


def run_cli(argv):
    """Exit code and stderr of one in-process CLI run; argparse errors exit 2."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def test_fuzz_cli():
    hypothesis, st = hypothesis_or_skip()
    pencil = grammar_texts(st, PAIR)
    dual = grammar_texts(st, TRIPLE)
    point = st.one_of(st.sampled_from(["1:0:0", "0:0:1", "1:1", "a:b:c", "1/0:1:0", ""]),
                      st.text(alphabet="0123456789:/-.", max_size=10))
    argv = st.one_of(
        st.tuples(st.just("poncelet"), pencil, pencil).map(
            lambda a: [a[0], "--gamma1", a[1], "--gamma2", a[2]]),
        st.tuples(dual, point).map(lambda a: ["quartic", "analyze", "--f", a[0], "--node", a[1]]),
        st.tuples(dual, point, dual).map(
            lambda a: ["quartic", "tangent", "--f", a[0], "--node", a[1], "--g", a[2]]),
        st.tuples(st.sampled_from(["eps91", "92", "93"]), point).map(
            lambda a: ["family", "--name", a[0], "--param", a[1]]))

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(argv, st.booleans())
    def check(args, as_json):
        start = time.perf_counter()
        code, err = run_cli(args + ["--json"] * as_json)
        assert code in (0, 2, 3), (args, code, err)
        assert "Traceback" not in err and "internal error" not in err, (args, err)
        assert time.perf_counter() - start < 10, args

    check()
