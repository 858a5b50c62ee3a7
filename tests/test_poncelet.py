"""Jumping-line curves: construction, incidence and the worked families."""

import copy
import pickle
import random
from fractions import Fraction
from math import comb, gcd, lcm

import pytest

from luroth import forms, poncelet, verify
from luroth.forms import BinaryForm, FrozenError, PreconditionError, TernaryForm, parse_form
from luroth.linalg import (det_rational, shifted_multiples, solve_linear,
                           sylvester_matrix, sylvester_resultant)
from luroth.poncelet import (
    DUAL_VARS,
    PARAM_VARS,
    PonceletPencil,
    _dependent,
    chord_dual,
    family_matrix,
    is_base_point_free,
    is_jumping_line,
    jumping_chords,
    make_conic,
    normalize_projective,
    poncelet_curve,
    poncelet_matrix,
    singular_jump_criterion,
    standard_conic,
)
from luroth.verify import (C_SAMPLES, EPS_SAMPLES, printed_92, printed_93,
                           printed_eps_expansion)
from oracles import (bezout_base_point_free, bezout_matrix, bezoutian_is_jumping_line,
                     bitmask_determinant, conic_image, curve_jumping_chords, det_mod,
                     fraction_chord_dual, fraction_family_matrix, lex_leading_coefficient, power,
                     power_sum_jump_terms, prem, prs_coprime, pullback_is_jumping_line,
                     line_pullback, partial, pullback_singular_jump, rational_det,
                     rational_nullspace, rational_rank, substitute_pair, unidivmod, zero_form)


def split_form(roots, pair=PARAM_VARS):
    """Product of the linear forms b*s0 - a*s1 over the given (a, b) roots."""
    out = BinaryForm.from_coeffs(pair, [1])
    for (a, b) in roots:
        out = out * BinaryForm.from_coeffs(pair, [b, -a])
    return out


def rand_pencil(rng, n, gamma1=None):
    while True:
        g1 = gamma1 if gamma1 is not None else BinaryForm.from_coeffs(
            PARAM_VARS, [rng.randint(-9, 9) for _ in range(n + 2)])
        g2 = BinaryForm.from_coeffs(
            PARAM_VARS, [rng.randint(-9, 9) for _ in range(n + 2)])
        try:
            return PonceletPencil(g1, g2)
        except PreconditionError:
            continue


def rand_binary(rng, degree):
    """A nonzero integer binary form."""
    while True:
        f = BinaryForm.from_coeffs(PARAM_VARS, [rng.randint(-5, 5) for _ in range(degree + 1)])
        if not f.is_zero():
            return f


def rand_rational_pencil(rng, n, base_point=False):
    """Rational generators; with base_point, both share a rational linear factor."""
    def rand_form(degree):
        return BinaryForm.from_coeffs(PARAM_VARS, [
            Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(degree + 1)])

    while True:
        if base_point:
            common = BinaryForm.from_coeffs(
                PARAM_VARS, [Fraction(rng.randint(1, 5), rng.randint(1, 3)), rng.randint(-4, 4)])
            g1, g2 = common * rand_form(n), common * rand_form(n)
        else:
            g1, g2 = rand_form(n + 1), rand_form(n + 1)
        try:
            return PonceletPencil(g1, g2)
        except PreconditionError:
            continue


# an integer conic whose pullback's s1^2 coefficient is not a bare coordinate
GEN_CONIC = ("s0^2+2*s0*s1+3*s1^2", "2*s0^2-s0*s1+s1^2", "s0*s1-2*s1^2")


def three_conics():
    """The standard conic, an integer conic, and a rational reparametrization."""
    base = standard_conic()
    m = [[Fraction(1, 2), 3], [Fraction(-2, 3), Fraction(5, 4)]]
    rational = make_conic(*(substitute_pair(p, m) for p in (base.p0, base.p1, base.p2)))
    general = make_conic(*(parse_form(p, PARAM_VARS) for p in GEN_CONIC))
    return [base, general, rational]


def rank_is_jumping_line(conic, pencil, line):
    """Oracle: the rational presentation matrix at the line is singular."""
    n = pencil.n
    q = line_pullback(conic, line)
    columns = ([list(pencil.gamma1.coeffs), list(pencil.gamma2.coeffs)]
               + shifted_multiples(q, n))
    matrix = [[columns[j][i] for j in range(n + 2)] for i in range(n + 2)]
    return rational_rank(matrix) < n + 2


def line_with_pullback(conic, q):
    """The line whose pullback is the binary quadratic q."""
    t = [[p.coeffs[k] for p in (conic.p0, conic.p1, conic.p2)] for k in range(3)]
    line = solve_linear(t, q.coeffs).vector
    assert line_pullback(conic, line) == q
    return line


def integer_evaluator(curve):
    """Evaluation at integer points of an integer multiple of the curve."""
    scale = lcm(*(c.denominator for c in curve.terms.values()))
    terms = [(e, int(c * scale)) for e, c in curve.terms.items()]

    def evaluate(point):
        powers = [[int(x) ** k for k in range(curve.degree + 1)] for x in point]
        return sum(c * powers[0][i] * powers[1][j] * powers[2][k] for (i, j, k), c in terms)

    return evaluate


# ---------------------------------------------------------------------------
# conics

def test_standard_conic_implicit():
    conic = standard_conic()
    assert conic.implicit == parse_form("x*y - t^2", ("x", "y", "t"))
    # the implicit equation vanishes on the parametrized image
    for point in [(1, 0), (0, 1), (1, 1), (2, -3), (Fraction(1, 2), 5)]:
        assert conic.implicit.evaluate(conic_image(conic, point)) == 0


def test_make_conic_rejects_dependent():
    p = BinaryForm.from_coeffs(PARAM_VARS, [1, 0, 0])
    q = BinaryForm.from_coeffs(PARAM_VARS, [0, 0, 1])
    with pytest.raises(PreconditionError):
        make_conic(p, q, p)


def test_make_conic_reparametrized_veronese():
    rng = random.Random(21)
    base = standard_conic()
    for _ in range(10):
        while True:
            a, b, c, d = (rng.randint(-4, 4) for _ in range(4))
            if a * d - b * c != 0:
                break
        m = [[a, b], [c, d]]
        conic = make_conic(substitute_pair(base.p0, m),
                           substitute_pair(base.p1, m),
                           substitute_pair(base.p2, m))
        assert conic.implicit.proportional_to(base.implicit)


def nullspace_conic(p0, p1, p2):
    """Oracle: the quadric vanishing on the image, as the kernel of the 5x6
    system of the products of the components, one column per quadric monomial."""
    monomials = [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)]
    columns = []
    for e in monomials:
        prod = BinaryForm.from_coeffs(p0.variables, [1])
        for p, k in zip((p0, p1, p2), e):
            prod = prod * power(p, k)
        columns.append(prod.coeffs)
    kernel = rational_nullspace([[col[r] for col in columns] for r in range(5)])
    assert len(kernel) == 1
    return TernaryForm.from_terms(2, poncelet.PRIMAL_VARS,
                                  dict(zip(monomials, kernel[0]))).lex_normalized()


def test_make_conic_matches_nullspace_oracle():
    rng = random.Random(22)

    def rand_quadratic():
        return BinaryForm.from_coeffs(PARAM_VARS, [
            Fraction(rng.randint(-9, 9), rng.randint(1, 6)) if rng.random() < 0.8 else 0
            for _ in range(3)])

    checked = dependent = 0
    while checked < 200:
        ps = [rand_quadratic() for _ in range(3)]
        if rng.random() < 0.1:  # a combination of the other two
            ps[2] = ps[0].scale(rng.randint(-3, 3)) + ps[1].scale(Fraction(1, rng.randint(1, 4)))
        if rational_rank([p.coeffs for p in ps]) < 3:
            with pytest.raises(PreconditionError, match="linearly dependent"):
                make_conic(*ps)
            dependent += 1
            continue
        conic = make_conic(*ps)
        assert conic.implicit == nullspace_conic(*ps)
        assert conic.implicit.evaluate(conic_image(conic, (rng.randint(-5, 5), 1))) == 0
        checked += 1
    assert dependent >= 10


# ---------------------------------------------------------------------------
# pullbacks and duals

def test_line_pullback_examples():
    conic = standard_conic()
    assert line_pullback(conic, (1, 0, 0)) == parse_form("s0^2", PARAM_VARS)
    assert line_pullback(conic, (0, 0, 1)) == parse_form("s0*s1", PARAM_VARS)
    assert line_pullback(conic, (3, -1, 2)) == BinaryForm.from_coeffs(
        PARAM_VARS, [3, 2, -1])


def test_chord_dual_examples():
    conic = standard_conic()
    assert chord_dual(conic, (1, 0), (0, 1)) == (0, 0, 1)
    assert normalize_projective(chord_dual(conic, (1, 1), (1, -1))) == (1, -1, 0)
    with pytest.raises(PreconditionError):
        chord_dual(conic, (1, 2), (2, 4))
    for a, b in [((1, 0, 7), (0, 1)), ((1,), (0, 1))]:
        with pytest.raises(ValueError, match="two coordinates"):
            chord_dual(conic, a, b)
    # the zero vector is no parameter, as for a line; it is not a repeated one
    for a, b in [((0, 0), (1, 2)), ((1, 2), (Fraction(0), 0)), ((0, 0), (0, 0))]:
        with pytest.raises(ValueError, match="zero vector") as err:
            chord_dual(conic, a, b)
        assert not isinstance(err.value, PreconditionError)
    # a parameter read at its integers: scaling it, by a negative factor too, moves no chord
    assert chord_dual(conic, (-2, 6), (Fraction(1, 3), Fraction(1, 3))) == chord_dual(
        conic, (1, -3), (1, 1))


def test_integer_chord_dual_matches_the_fraction_images():
    rng = random.Random(2101)
    conics = [standard_conic(), make_conic(*(parse_form(p, PARAM_VARS) for p in GEN_CONIC)),
              make_conic(*(BinaryForm.from_coeffs(PARAM_VARS, [Fraction(rng.randint(-9, 9),
                                                                    rng.randint(1, 9))
                                                           for _ in range(3)])
                           for _ in range(3)))]
    for conic in conics:
        for _ in range(40):
            a, b = ([Fraction(rng.randint(-30, 30), rng.randint(1, 30)) for _ in range(2)]
                    for _ in range(2))
            if not any(a) or not any(b) or a[0] * b[1] == a[1] * b[0]:
                continue
            assert chord_dual(conic, a, b) == fraction_chord_dual(conic, a, b)


def test_chord_pullback_roots():
    # the pullback of the chord through parameters a, b vanishes at a and b
    conic = standard_conic()
    rng = random.Random(22)
    for _ in range(10):
        a = (Fraction(rng.randint(-5, 5)), Fraction(1))
        b = (Fraction(rng.randint(-5, 5)), Fraction(1))
        if a == b:
            continue
        q = line_pullback(conic, chord_dual(conic, a, b))
        assert q.evaluate(a) == 0 and q.evaluate(b) == 0


# ---------------------------------------------------------------------------
# matrix shape and curve degree

def test_matrix_shape_n2():
    conic = standard_conic()
    pencil = PonceletPencil(parse_form("s0^3", PARAM_VARS),
                            parse_form("s1^3", PARAM_VARS))
    m = poncelet_matrix(conic, pencil)
    assert (m.rows, m.cols) == (4, 4)
    for i in range(4):
        for j in range(2):
            e = m.entry(i, j)
            assert e.is_zero() or e.degree == 0
        for j in range(2, 4):
            e = m.entry(i, j)
            assert e.is_zero() or e.degree == 1


def test_matrix_shape_n4():
    conic = standard_conic()
    pencil = rand_pencil(random.Random(23), 4)
    m = poncelet_matrix(conic, pencil)
    assert (m.rows, m.cols) == (6, 6)
    linear = sum(1 for e in m.entries if not e.is_zero() and e.degree == 1)
    assert linear > 0 and m.cols == 2 + pencil.n


def test_curve_degree_range():
    rng = random.Random(24)
    conic = standard_conic()
    for n in range(2, 7):
        pencil = rand_pencil(rng, n)
        curve = poncelet_curve(conic, pencil)
        assert curve.degree == n
        assert curve.variables == DUAL_VARS


def test_curve_matches_determinant_oracle():
    rng = random.Random(32)
    kinds = ("integer", "rational", "base point")
    checked = 0
    for index, conic in enumerate(three_conics()):
        for n in range(2, 11):
            for kind in (kinds if n <= 5 else [kinds[(n + index) % 3]]):
                if kind == "integer":
                    pencil = rand_pencil(rng, n)
                else:
                    pencil = rand_rational_pencil(rng, n, base_point=kind == "base point")
                assert is_base_point_free(pencil) == (kind != "base point")
                curve = poncelet_curve(conic, pencil)
                oracle = poncelet_matrix(conic, pencil).determinant()
                assert curve.proportional_to(oracle)
                assert curve == oracle.lex_normalized()
                assert curve.degree == n and curve.variables == DUAL_VARS
                assert all(type(c) is Fraction for c in curve.terms.values())
                checked += 1
    assert checked == 3 * (4 * 3 + 5)


def test_presentation_determinant_matches_bitmask_oracle():
    rng = random.Random(1404)
    for index, conic in enumerate(three_conics()):
        for n in range(2, 11):
            pencil = (rand_pencil(rng, n) if (n + index) % 2
                      else rand_rational_pencil(rng, n, base_point=n % 3 == 0))
            m = poncelet_matrix(conic, pencil)
            assert m.determinant() == bitmask_determinant(m), (index, n)


def test_curve_coefficients_are_fractions_when_already_monic():
    pencil = PonceletPencil(parse_form("s0^3", PARAM_VARS), parse_form("s1^3", PARAM_VARS))
    curve = poncelet_curve(standard_conic(), pencil)
    assert lex_leading_coefficient(curve) == 1
    assert all(type(c) is Fraction for c in curve.terms.values())


def special_pullbacks(rng):
    """A square (tangent line), a form with no s1^2 term, and beta*s0*s1."""
    alpha, beta = Fraction(rng.randint(-5, 5), rng.randint(1, 3)), Fraction(rng.randint(1, 5))
    linear = BinaryForm.from_coeffs(PARAM_VARS, [alpha, beta])
    s0 = BinaryForm.from_coeffs(PARAM_VARS, [1, 0])
    return [linear * linear, s0 * linear, BinaryForm.from_coeffs(PARAM_VARS, [0, beta, 0])]


def test_jump_test_matches_rank_oracle():
    rng = random.Random(33)
    verdicts = {True: 0, False: 0}
    for conic in three_conics():
        for n in range(2, 7):
            for kind in ("random", "base point", "divisible"):
                qs = special_pullbacks(rng)
                if kind == "divisible":
                    # gamma1 vanishes modulo one special pullback: that line jumps
                    q = qs[rng.randrange(3)]
                    h = BinaryForm.from_coeffs(PARAM_VARS, [rng.randint(1, 9) for _ in range(n)])
                    pencil = rand_pencil(rng, n, gamma1=q * h)
                else:
                    pencil = rand_rational_pencil(rng, n, base_point=kind == "base point")
                params = [(Fraction(rng.randint(-6, 6)), Fraction(rng.randint(1, 3)))
                          for _ in range(4)]
                lines = [line_with_pullback(conic, q) for q in qs]
                lines += [chord_dual(conic, a, b) for i, a in enumerate(params)
                          for b in params[i + 1:] if not _dependent(a, b)]
                lines += [tuple(Fraction(rng.randint(-6, 6)) for _ in range(3)) for _ in range(4)]
                for line in lines:
                    if not any(line):
                        continue
                    expected = rank_is_jumping_line(conic, pencil, line)
                    assert is_jumping_line(conic, pencil, line) == expected
                    verdicts[expected] += 1
                if kind == "divisible":
                    assert is_jumping_line(conic, pencil, line_with_pullback(conic, q))
    assert verdicts[True] >= 20 and verdicts[False] >= 100


@pytest.mark.parametrize("conic_index, n", [(0, 40), (1, 22), (1, 99), (2, 40)])
def test_polygon_property_at_scale(conic_index, n):
    """Every chord between roots of gamma1 lies on the curve; at the degree cap,
    a seeded sample of 200 of the 4950 chords."""
    conic = three_conics()[conic_index]
    rng = random.Random(34 + n)
    roots = [(Fraction(k), Fraction(1)) for k in range(-(n // 2), n - n // 2 + 1)]
    pencil = rand_pencil(rng, n, gamma1=split_form(roots))
    curve = poncelet_curve(conic, pencil)
    assert curve.degree == n and not curve.is_zero()
    evaluate = integer_evaluator(curve)
    chords = [(a, b) for i, a in enumerate(roots) for b in roots[i + 1:]]
    for a, b in chords if len(chords) <= 1000 else rng.sample(chords, 200):
        assert evaluate(chord_dual(conic, a, b)) == 0


# ---------------------------------------------------------------------------
# incidence properties

def test_polygon_property():
    rng = random.Random(25)
    conic = standard_conic()
    for n in (3, 4):
        roots = [(Fraction(k), Fraction(1)) for k in rng.sample(range(-8, 9), n + 1)]
        pencil = rand_pencil(rng, n, gamma1=split_form(roots))
        curve = poncelet_curve(conic, pencil)
        for i in range(len(roots)):
            for j in range(i + 1, len(roots)):
                vertex = chord_dual(conic, roots[i], roots[j])
                assert curve.evaluate(vertex) == 0
                assert is_jumping_line(conic, pencil, vertex)


def test_base_point_factorization():
    # a common linear factor with root (1:1) forces the dual line u+v+w
    # of the image point (1,1,1) to divide the curve
    rng = random.Random(26)
    common = BinaryForm.from_coeffs(PARAM_VARS, [1, -1])  # s0 - s1
    delta1 = parse_form("s0^3 + s1^3", PARAM_VARS)
    delta2 = parse_form("s0^2*s1 - 2*s1^3", PARAM_VARS)
    pencil = PonceletPencil(common * delta1, common * delta2)
    assert not is_base_point_free(pencil)
    curve = poncelet_curve(standard_conic(), pencil)
    # restrict to the line u = -v - w; a degree-n binary form vanishing at
    # n + 1 points is identically zero
    for k in range(curve.degree + 1):
        v, w = Fraction(k), Fraction(1)
        assert curve.evaluate((-v - w, v, w)) == 0
    assert curve.evaluate((1, 1, 1)) != 0  # the factor is the line, not the plane


def test_is_base_point_free_examples():
    assert is_base_point_free(PonceletPencil(parse_form("s0^5", PARAM_VARS),
                                             parse_form("s1^5", PARAM_VARS)))
    common = parse_form("s0 - s1", PARAM_VARS)
    assert not is_base_point_free(
        PonceletPencil(common * parse_form("s0^4", PARAM_VARS),
                       common * parse_form("s1^4", PARAM_VARS)))
    pencil = PonceletPencil(parse_form("s0^2*s1^2*(s1-s0)", PARAM_VARS),
                            parse_form("-(s0^5+s1^5)", PARAM_VARS))
    assert is_base_point_free(pencil)


def test_jumping_agrees_with_curve_vanishing():
    rng = random.Random(27)
    conic = standard_conic()
    checked = 0
    for _ in range(4):
        pencil = rand_pencil(rng, rng.randint(2, 4))
        curve = poncelet_curve(conic, pencil)
        for _ in range(50):
            line = tuple(Fraction(rng.randint(-6, 6)) for _ in range(3))
            if all(x == 0 for x in line):
                continue
            assert is_jumping_line(conic, pencil, line) == (
                curve.evaluate(line) == 0)
            checked += 1
    assert checked >= 150


def test_jumping_at_chord_of_gamma1_roots():
    conic = standard_conic()
    roots = [(Fraction(a), Fraction(1)) for a in (0, 1, -1, 2)]
    pencil = rand_pencil(random.Random(28), 3, gamma1=split_form(roots))
    vertex = chord_dual(conic, roots[0], roots[3])
    assert is_jumping_line(conic, pencil, vertex)


def planted_pencil(rng, n, common):
    """Random rational generators of degree n+1 sharing the factor common."""
    rest = n + 1 - common.degree
    while True:
        g1, g2 = (common * BinaryForm.from_coeffs(PARAM_VARS, [
            Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rest + 1)])
            for _ in range(2))
        try:
            return PonceletPencil(g1, g2)
        except PreconditionError:
            continue


def test_jumping_chords_match_the_curve():
    """The endpoint test against the curve at `chord_dual`, on rational
    parameters (one at s1 = 0 allowed): random pencils, pencils whose first
    generator vanishes at n + 1 of the parameters, and pencils with a base
    point at one of them.  Both verdicts occur, and neither needs the conic."""
    rng = random.Random(2601)
    conics = [standard_conic(), make_conic(*(parse_form(p, PARAM_VARS) for p in GEN_CONIC))]
    for n in (2, 3, 5):
        for _ in range(5):
            params = []
            while len(params) < n + 3:
                p = (Fraction(rng.randint(-9, 9), rng.randint(1, 4)), Fraction(rng.randint(0, 3)))
                if any(p) and not any(p[0] * q[1] == p[1] * q[0] for q in params):
                    params.append(p)
            roots = [BinaryForm.from_coeffs(PARAM_VARS, [b, -a]) for a, b in params]
            vanishing = roots[0]
            for root in roots[1:n + 1]:
                vanishing = vanishing * root
            pencils = [rand_pencil(rng, n), rand_pencil(rng, n, gamma1=vanishing),
                       planted_pencil(rng, n, roots[rng.randrange(len(roots))])]
            found = [jumping_chords(pencil, params) for pencil in pencils]
            assert {(i, j) for i in range(n + 1) for j in range(i + 1, n + 1)} <= found[1]
            assert all(len(got) < len(params) * (len(params) - 1) // 2 for got in found)
            for pencil, got in zip(pencils, found):
                for conic in conics:
                    assert got == curve_jumping_chords(conic, pencil, params), (n, params)


def test_jumping_chords_reject_zero_and_repeated_parameters():
    """A zero parameter is no point, and a parameter repeated up to scaling has
    no chord: `jumping_chords` raises the errors that `chord_dual`, and so the
    curve's verdict, raises there, and a scaled parameter keeps every verdict."""
    rng = random.Random(2602)
    conic = standard_conic()
    for pencil in (rand_pencil(rng, 3), rand_pencil(rng, 4)):
        for params in ([(1, 1), (0, 0)], [(0, 0), (1, 2), (3, 1)]):
            for find in (jumping_chords, lambda p, ps: curve_jumping_chords(conic, p, ps)):
                with pytest.raises(ValueError, match="zero vector") as err:
                    find(pencil, params)
                assert not isinstance(err.value, PreconditionError)
        for params in ([(1, 1), (1, 1)], [(1, 1), (2, 2)], [(1, 0), (3, 1), (-2, 0)],
                       [(Fraction(1, 2), 1), (2, 4), (0, 1)]):
            for find in (jumping_chords, lambda p, ps: curve_jumping_chords(conic, p, ps)):
                with pytest.raises(PreconditionError, match="distinct"):
                    find(pencil, params)
        params = [(1, 1), (2, 1), (-1, 3), (0, 1), (1, 0)]
        scaled = [(Fraction(-3, 2) * a, Fraction(-3, 2) * b) for a, b in params]
        assert (jumping_chords(pencil, scaled) == jumping_chords(pencil, params)
                == curve_jumping_chords(conic, pencil, params))


def test_base_point_free_matches_sylvester_resultant():
    """The PRS verdict against the Sylvester resultant and the Bezout
    determinant: planted common roots at generic points, at s0 = 0 and at
    s1 = 0, and roots at s0 = 0 of one generator only."""
    rng = random.Random(41)
    s0 = BinaryForm.from_coeffs(PARAM_VARS, [1, 0])
    s1 = BinaryForm.from_coeffs(PARAM_VARS, [0, 1])
    shared = free = 0
    for n in range(2, 13):
        for kind in ("random", "small", "rational root", "s1 divides", "s0 divides",
                     "double root", "s0 divides one", "both degree drops"):
            if kind == "random":
                pencil = rand_rational_pencil(rng, n)
            elif kind == "small":  # coefficients in -1..1 often share a root by chance
                pencil = rand_pencil(rng, n, gamma1=BinaryForm.from_coeffs(
                    PARAM_VARS, [1] + [rng.randint(-1, 1) for _ in range(n + 1)]))
            elif kind == "s0 divides one":
                pencil = rand_pencil(rng, n, gamma1=s0 * rand_binary(rng, n))
            elif kind == "both degree drops":  # roots (0:1) and (1:0), apart
                pencil = PonceletPencil(s0 * rand_binary(rng, n), s1 * rand_binary(rng, n))
            else:
                a, b = Fraction(rng.randint(-5, 5), rng.randint(1, 3)), rng.randint(1, 4)
                common = {"rational root": split_form([(a, b)]),
                          "s1 divides": s1, "s0 divides": s0,
                          "double root": split_form([(a, b), (a, b)])}[kind]
                pencil = planted_pencil(rng, n, common)
            res = rational_det(sylvester_matrix(pencil.gamma1, pencil.gamma2))
            assert res == sylvester_resultant(pencil.gamma1, pencil.gamma2)
            assert bezout_base_point_free(pencil) == (res != 0)
            assert is_base_point_free(pencil) == (res != 0)
            if kind in ("rational root", "s1 divides", "s0 divides", "double root"):
                assert not is_base_point_free(pencil)
            shared += res == 0
            free += res != 0
    assert shared >= 4 * 11 and free >= 30


def ascending_pencil(*coeffs):
    """The pencil whose generators g(1, x) have the ascending coefficient lists given."""
    return PonceletPencil(*(BinaryForm.from_coeffs(PARAM_VARS, c) for c in coeffs))


def test_base_point_verdicts_agree_with_the_prs_and_the_bezout_determinant():
    """The heuristic gcd against the PRS and the Bezout determinant: random,
    planted-factor (at a generic root, at s0 = 0 and at s1 = 0) and sparse
    pencils, small and 60-digit."""
    rng = random.Random(43)
    s0 = BinaryForm.from_coeffs(PARAM_VARS, [1, 0])
    s1 = BinaryForm.from_coeffs(PARAM_VARS, [0, 1])
    verdicts = {True: 0, False: 0}
    for n in (2, 3, 5, 8, 14, 22):
        for kind in ("random", "big", "planted", "s0 divides", "s1 divides", "sparse"):
            if kind == "random":
                pencil = rand_rational_pencil(rng, n)
            elif kind == "big":
                pencil = ascending_pencil(*([rng.randint(-10 ** 60, 10 ** 60) for _ in range(n + 2)]
                                            for _ in range(2)))
            elif kind == "sparse":
                pencil = ascending_pencil(*([rng.choice([0, 0, 0, rng.randint(-3, 3)])
                                             for _ in range(n + 1)] + [1] for _ in range(2)))
            else:
                common = {"planted": split_form([(rng.randint(-5, 5), rng.randint(1, 4))]),
                          "s0 divides": s0, "s1 divides": s1}[kind]
                pencil = planted_pencil(rng, n, common)
            free = is_base_point_free(pencil)
            assert free == bezout_base_point_free(pencil)
            coprime = poncelet._coprime(*pencil._ints)  # g1(1, x) and g2(1, x)
            assert coprime == prs_coprime(*pencil._ints)
            assert free == (coprime and kind != "s0 divides")
            if kind in ("planted", "s0 divides", "s1 divides"):
                assert not free
            verdicts[free] += 1
    assert verdicts[True] >= 15 and verdicts[False] >= 18, verdicts


def test_pencils_built_against_a_prime_keep_their_verdicts():
    """Pencils built against p = 2^61 - 1: h = p*x + 1 divides both generators,
    a unit modulo p; one leading coefficient is free of p; and x*(x^2 + 1)
    and (x - p)*(x^2 + 2) meet modulo p only."""
    p = 2 ** 61 - 1
    for coeffs, free in [(([1, p, 1, p], [2, 2 * p, 1, p]), False),
                         (([1, p, 1, p], [2, 0, 1, 1]), True),
                         (([0, 1, 0, 1], [-2 * p, 2, -p, 1]), True)]:
        pencil = ascending_pencil(*coeffs)
        assert is_base_point_free(pencil) == bezout_base_point_free(pencil) == free
        assert prs_coprime(*pencil._ints) == free


def test_1000_digit_pencils_keep_their_verdicts():
    """A 1000-digit n = 22 pencil is base-point free, as its Bezout determinant
    modulo a prime proves (the exact determinant and the PRS each take
    seconds); times 2*s0 + 3*s1, both generators share the root (-3:2)."""
    rng = random.Random(44)
    pencil = ascending_pencil(*([rng.randint(10 ** 999, 10 ** 1000) for _ in range(24)]
                                for _ in range(2)))
    bezout = [row[:-1] for row in bezout_matrix(pencil)]
    assert det_mod(bezout, 2 ** 61 - 1) and is_base_point_free(pencil)
    factor = BinaryForm.from_coeffs(PARAM_VARS, [2, 3])
    planted = PonceletPencil(factor * pencil.gamma1, factor * pencil.gamma2)
    assert not is_base_point_free(planted)


SHARED = ("linear", "quadratic", "repeated", "x", "shared leading factor")


def times(f, g):
    """The product of two ascending coefficient vectors."""
    return [sum(f[i] * g[k - i] for i in range(len(f)) if 0 <= k - i < len(g))
            for k in range(len(f) + len(g) - 1)]


def coprime_cases(rng):
    """(kind, a, b): primitive ascending integer vectors that share a planted
    factor of each kind in SHARED, or are random, sparse, coprime with
    leading coefficients divisible by 12, or always even at integers."""
    def vector(length, digits=1):
        bound = 10 ** digits
        return [rng.randint(-bound, bound) for _ in range(length)] + [rng.randint(1, 9)]

    sizes = [(n, 1) for n in (2, 3, 5, 9, 14, 22, 40)] + [(n, 30) for n in (2, 5, 14, 22, 40)]
    for n, digits in sizes + [(n, 300) for n in (2, 3, 9)]:
        linear = [rng.randint(-9, 9), rng.randint(1, 9)]
        common = dict(zip(SHARED, (linear, [rng.randint(1, 9), rng.randint(-9, 9), 1],
                                   times(linear, linear), [0, 1], [rng.randint(-9, 9), 6])))
        for kind in SHARED + ("random", "sparse", "leading factor 12", "values even"):
            if kind in common:
                pairs = (times(common[kind], vector(n + 2 - len(common[kind]), digits))
                         for _ in range(2))
            elif kind == "random":
                pairs = (vector(n + 1, digits) for _ in range(2))
            elif kind == "sparse":
                pairs = ([rng.choice([0, 0, 0, rng.randint(-3, 3)]) for _ in range(n + 1)] + [1]
                         for _ in range(2))
            elif kind == "leading factor 12":
                pairs = ([*vector(n, digits), 12 * rng.randint(1, 9)] for _ in range(2))
            else:  # x*(x + 1) times one cofactor, plus 2 times another
                pairs = ([2 * x + y for x, y in zip(vector(n + 1, digits),
                                                    times([0, 1, 1], vector(n - 1)))]
                         for _ in range(2))
            yield kind, *(poncelet._primitive(v) for v in pairs)


def test_coprime_matches_the_prs():
    verdicts = {True: 0, False: 0}
    for kind, a, b in coprime_cases(random.Random(241)):
        coprime = poncelet._coprime(a, b)
        assert coprime == prs_coprime(a, b), (kind, a, b)
        if kind in SHARED:
            assert not coprime
        verdicts[coprime] += 1
    assert verdicts[True] >= 45 and verdicts[False] >= 80, verdicts


def test_coprime_matches_sympy_gcd():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for kind, a, b in coprime_cases(random.Random(242)):
        f, g = (sympy.Poly(list(reversed(v)), x) for v in (a, b))
        assert poncelet._coprime(a, b) == (sympy.gcd(f, g).degree() == 0), (kind, a, b)


def test_coprime_retries_at_the_square_of_xi(monkeypatch):
    """-(x - 3)(x - 1)(x + 1) and x^3 - 1 share x - 1, and their roots start
    xi at 16.  There the digits of gcd(-3315, 4095) = 195 read (x - 1)(x - 3),
    which divides the first and not the second; at xi = 256 those of
    gcd = 255 read x - 1.  -2 + x^2 - x^3 and x + x^2 share x + 1, read at
    once at xi = 8."""
    tried = []
    divides = poncelet._divides
    monkeypatch.setattr(poncelet, "_divides", lambda h, a: tried.append(h) or divides(h, a))
    assert not poncelet._coprime([-3, 1, 3, -1], [-1, 0, 0, 1])
    assert tried == [[3, -4, 1], [3, -4, 1], [-1, 1], [-1, 1]]
    tried.clear()
    assert not poncelet._coprime([-2, 0, 1, -1], [0, 1, 1, 0])
    assert tried == [[1, 1], [1, 1]]


def test_root_bound_exceeds_every_root():
    """Against the roots of split forms: integer, rational, huge and zero
    roots, with leading coefficients large and small."""
    rng = random.Random(244)
    for _ in range(300):
        roots = [Fraction(rng.randint(-10 ** rng.randint(0, 30), 10 ** rng.randint(0, 30)),
                          rng.randint(1, 10 ** rng.randint(0, 20)))
                 for _ in range(rng.randint(1, 6))]
        form = split_form([(r.denominator, r.numerator) for r in roots])  # g(1, r) = 0
        v = poncelet._primitive(form.nums)
        bound = poncelet._root_bound(v)
        assert bound & (bound - 1) == 0
        assert all(abs(r) < bound for r in roots)
    # one 130 000-bit coefficient at s0^23 gives roots of about 2^(130 000/23)
    assert poncelet._root_bound([3 * 2 ** 130000] + [1] * 23).bit_length() <= 130000 // 23 + 3


def test_divides_is_exact_division():
    rng = random.Random(243)
    for _ in range(200):
        h = poncelet._primitive([rng.randint(-9, 9) for _ in range(rng.randint(0, 4))]
                                + [rng.randint(1, 9)])
        a = [rng.randint(-99, 99) for _ in range(rng.randint(1, 10))]
        expected = not any(unidivmod(a, h)[1])
        assert poncelet._divides(h, a) == expected
        assert poncelet._divides(h, times(h, a))


def test_bezout_determinant_is_resultant_up_to_sign():
    rng = random.Random(42)
    for n in range(2, 9):
        for _ in range(4):
            pencil = rand_pencil(rng, n)
            bez = [row[:-1] for row in bezout_matrix(pencil)]
            res = rational_det(sylvester_matrix(pencil.gamma1, pencil.gamma2))
            assert abs(det_rational(bez)) == abs(res)
            assert det_rational(bez) == rational_det(bez)


def jump_cases(rng):
    """(label, pencil): random integer pencils at n = 2..40 and 99 with 1- and
    60-digit coefficients, zero first or last coefficients, generators that
    share a root, and the pencil of `verify.check_cross_construction`."""
    def vector(n, digits):
        bound = 10 ** digits
        return [rng.randint(-bound, bound) for _ in range(n + 2)]

    def pencil(*coeffs):
        try:
            return ascending_pencil(*coeffs)
        except PreconditionError:
            return None

    for digits in (1, 60):
        for n in list(range(2, 41)) + [99]:
            yield f"random n={n} digits={digits}", pencil(vector(n, digits), vector(n, digits))
        for n in (2, 3, 8, 22):
            g1, g2, g3 = (vector(n, digits) for _ in range(3))
            g1[0] = g2[-1] = g3[0] = 0
            yield f"zero ends n={n} digits={digits}", pencil(g1, g2)
            yield f"zero first n={n} digits={digits}", pencil(g1, g3)
            yield f"zero last n={n} digits={digits}", pencil(g2, vector(n, digits)[:-1] + [0])
    for n in (2, 5, 14, 30):
        for common in (split_form([(Fraction(1), Fraction(2))]),
                       split_form([(Fraction(-3), Fraction(1))] * 2)):
            yield f"shared root n={n}", planted_pencil(rng, n, common)
    yield "cross construction", PonceletPencil(
        parse_form("s0^2*s1^2*(s1-s0)", PARAM_VARS), parse_form("-(s0^5+s1^5)", PARAM_VARS))


def test_jump_terms_match_the_power_sum_oracle():
    """G from the generators' minors equals G from the Bezout matrix's power
    sums, term for term once the oracle's zero sums are dropped; the kernel
    keeps no zero."""
    checked = zeros = 0
    for label, pencil in jump_cases(random.Random(2027)):
        if pencil is None:
            continue
        terms, oracle = poncelet._jump_terms(pencil), power_sum_jump_terms(pencil)
        assert terms == {e: c for e, c in oracle.items() if c}, label
        assert all(terms.values()), label
        zeros += 0 in oracle.values()
        checked += 1
    assert checked >= 110 and zeros, (checked, zeros)


def complete_symmetric(d_max):
    """Q_0..Q_(d_max) as term maps in (b, a*l): Q_0 = 1, Q_1 = -b and
    Q_d = -b*Q_(d-1) - (a*l)*Q_(d-2), by `forms.mul_terms`."""
    q = [{(0, 0): 1}, {(1, 0): -1}]
    for _ in range(2, d_max + 1):
        step = forms.mul_terms({(1, 0): -1}, q[-1])
        for e, c in forms.mul_terms({(0, 1): -1}, q[-2]).items():
            step[e] = step.get(e, 0) + c
        q.append({e: c for e, c in step.items() if c})
    return q


def test_jump_weights_are_complete_symmetric_functions():
    """Q_d by its recurrence has the closed weights (-1)^(beta+r)*C(beta+r, r)
    at b^beta*(a*l)^r, beta + 2r = d; and the pencil (x^(j+d+1), x^j) has one
    nonzero minor, m[d][j] = 1, so its G is a^j*l^(n-d-j)*Q_d exactly."""
    n = 30
    q = complete_symmetric(n)
    for d, q_d in enumerate(q):
        assert q_d == {(d - 2 * r, r): (-1) ** (d - r) * comb(d - r, r)
                       for r in range(d // 2 + 1)}, d
        for j in sorted({0, (n - d) // 2, n - d}):
            units = [[int(k == m) for k in range(n + 2)] for m in (j + d + 1, j)]
            assert poncelet._jump_terms(ascending_pencil(*units)) == {
                (j + r, beta, n - d - j + r): c for (beta, r), c in q_d.items()}, (d, j)


# ---------------------------------------------------------------------------
# singular-point criterion

def rational_singular_jump(conic, pencil, line):
    """Oracle: the criterion by rational ranks of transposed coefficient columns."""
    if rational_det(sylvester_matrix(pencil.gamma1, pencil.gamma2)) == 0:
        raise PreconditionError("base point")
    n = pencil.n
    q2 = power(line_pullback(conic, line), 2)
    columns = shifted_multiples(q2, max(n - 2, 0))
    base_rank = rational_rank([[col[r] for col in columns] for r in range(n + 2)]) if columns else 0
    with_gammas = columns + [list(pencil.gamma1.coeffs), list(pencil.gamma2.coeffs)]
    full_rank = rational_rank([[col[r] for col in with_gammas] for r in range(n + 2)])
    return full_rank <= base_rank + 1


def test_singular_jump_matches_rational_rank_oracle():
    rng = random.Random(43)
    verdicts = set()
    for conic in three_conics():
        for n in range(2, 11):
            for _ in range(3):
                # a line through two parameters, and a pencil whose gamma1 the
                # square of its pullback divides half of the time
                a, b = rng.sample(range(-6, 7), 2)
                line = chord_dual(conic, (a, 1), (b, 1))
                q = line_pullback(conic, line)
                gamma1 = None
                if n >= 3 and rng.random() < 0.5:
                    gamma1 = q * q * BinaryForm.from_coeffs(
                        PARAM_VARS, [rng.randint(-5, 5) for _ in range(n - 2)])
                    if gamma1.is_zero():
                        gamma1 = None
                pencil = rand_pencil(rng, n, gamma1=gamma1)
                lines = [line, tuple(rng.randint(-5, 5) for _ in range(2)) + (1,)]
                for ln in lines:
                    try:
                        expected = rational_singular_jump(conic, pencil, ln)
                    except PreconditionError:
                        with pytest.raises(PreconditionError):
                            singular_jump_criterion(conic, pencil, ln)
                        continue
                    assert singular_jump_criterion(conic, pencil, ln) == expected
                    verdicts.add(expected)
    assert verdicts == {True, False}


def test_singular_jump_constructed_witness():
    conic = standard_conic()
    q0 = line_pullback(conic, (1, 2, -1))
    pencil = rand_pencil(random.Random(29), 4,
                         gamma1=q0 * q0 * BinaryForm.from_coeffs(PARAM_VARS, [0, 1]))
    assert is_base_point_free(pencil)
    assert singular_jump_criterion(conic, pencil, (1, 2, -1))


def test_singular_jump_requires_base_point_free():
    conic = standard_conic()
    common = parse_form("s0 - s1", PARAM_VARS)
    pencil = PonceletPencil(common * parse_form("s0^4", PARAM_VARS),
                            common * parse_form("s1^4", PARAM_VARS))
    with pytest.raises(PreconditionError):
        singular_jump_criterion(conic, pencil, (1, 0, 0))


def test_singular_jump_gradient_equivalence():
    """The criterion holds exactly at the singular points of the curve."""
    rng = random.Random(30)
    conic = standard_conic()
    checked = 0
    while checked < 100:
        n = rng.randint(3, 4)
        a, b = rng.sample(range(-6, 7), 2)
        q = split_form([(Fraction(a), Fraction(1)), (Fraction(b), Fraction(1))])
        if rng.random() < 0.5:
            # smooth-by-default: gamma1 merely divisible by the chord pullback
            gamma1 = q * BinaryForm.from_coeffs(
                PARAM_VARS, [rng.randint(-9, 9) for _ in range(n)])
        else:
            # constructed singular point: gamma1 divisible by the square
            gamma1 = q * q * BinaryForm.from_coeffs(
                PARAM_VARS, [rng.randint(-9, 9) for _ in range(n - 2)])
        if gamma1.is_zero():
            continue
        try:
            pencil = rand_pencil(rng, n, gamma1=gamma1)
        except PreconditionError:
            continue
        if not is_base_point_free(pencil):
            continue
        line = chord_dual(conic, (Fraction(a), Fraction(1)), (Fraction(b), Fraction(1)))
        curve = poncelet_curve(conic, pencil)
        assert curve.evaluate(line) == 0
        gradient_zero = all(partial(curve, v).evaluate(line) == 0 for v in curve.variables)
        assert singular_jump_criterion(conic, pencil, line) == gradient_zero
        checked += 1


# ---------------------------------------------------------------------------
# remainder kernels and the heuristic gcd against their oracles

def special_lines(conic, rng):
    """Lines whose pullbacks are l = 0, a = 0, b*s0*s1 and squares (tangents)."""
    s0, s1 = (BinaryForm.from_coeffs(PARAM_VARS, c) for c in ([1, 0], [0, 1]))
    out = []
    for _ in range(2):
        alpha = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        beta = Fraction(rng.choice([-1, 1]) * rng.randint(1, 5))
        linear = BinaryForm.from_coeffs(PARAM_VARS, [alpha, beta])
        flipped = BinaryForm.from_coeffs(PARAM_VARS, [beta, alpha])
        for q in (s0 * linear, s1 * flipped, BinaryForm.from_coeffs(PARAM_VARS, [0, beta, 0]),
                  linear * linear, flipped * flipped, s0 * s0, s1 * s1):
            out.append((q, line_with_pullback(conic, q)))
    return out


def test_remainder_kernels_match_oracles_on_special_lines():
    """Jump and singular-jump verdicts against the Bezoutian, rank and rational
    oracles, on both end cases and the b*s0*s1 case, with planted jumps."""
    rng = random.Random(51)
    seen = {(test, verdict): 0 for test in ("jump", "singular") for verdict in (True, False)}
    for conic in three_conics()[:2]:
        for n in range(2, 9):
            for q, line in special_lines(conic, rng):
                plant = rng.choice(("none", "q", "q^2", "q^2 member"))
                if plant == "q":
                    pencil = rand_pencil(rng, n, gamma1=q * rand_binary(rng, n - 1))
                elif plant.startswith("q^2") and n >= 3:
                    member = q * q * rand_binary(rng, n - 3)
                    if plant == "q^2":
                        pencil = rand_pencil(rng, n, gamma1=member)
                    else:  # gamma2 + 3*gamma1 is the member
                        gamma1 = rand_pencil(rng, n).gamma1
                        try:
                            pencil = PonceletPencil(gamma1, member - gamma1.scale(3))
                        except PreconditionError:
                            continue
                else:
                    pencil = rand_rational_pencil(rng, n)
                jump = is_jumping_line(conic, pencil, line)
                assert jump == bezoutian_is_jumping_line(conic, pencil, line)
                assert jump == rank_is_jumping_line(conic, pencil, line)
                if plant != "none" and (plant == "q" or n >= 3):
                    assert jump
                seen["jump", jump] += 1
                if not bezout_base_point_free(pencil):
                    with pytest.raises(PreconditionError):
                        singular_jump_criterion(conic, pencil, line)
                    continue
                singular = singular_jump_criterion(conic, pencil, line)
                assert singular == rational_singular_jump(conic, pencil, line)
                if plant.startswith("q^2") and n >= 3:
                    assert singular
                if n == 2:  # no degree-3 member is divisible by a quartic
                    assert not singular
                seen["singular", singular] += 1
    assert min(seen.values()) >= 20, seen


def test_prem_matches_rational_division():
    rng = random.Random(53)
    for _ in range(200):
        p = [rng.randint(-9, 9) for _ in range(rng.randint(2, 6))]
        p[-1] = p[-1] or 1
        f = [rng.randint(-99, 99) for _ in range(rng.randint(len(p) - 1, 12))]
        k = max(len(f) - len(p) + 1, 0)
        expected = unidivmod([p[-1] ** k * x for x in f], p)[1]
        expected += [0] * (len(p) - 1 - len(expected))
        assert prem(f, p) == expected


def test_two_register_kernels_match_rational_division():
    """`forms._mod_q` is l^(len(f) - 2) * f modulo q, by `unidivmod`, and the ends
    of f at l = 0; `_exact_quotient` undoes a product with a primitive q."""
    rng = random.Random(67)
    for trial in range(300):
        digits = 60 if trial % 3 == 0 else 2
        q = [rng.randint(-9, 9), rng.randint(-9, 9), rng.choice([-1, 1]) * rng.randint(1, 9)]
        f = [rng.randint(-10 ** digits, 10 ** digits) for _ in range(rng.randint(2, 14))]
        expected = unidivmod([q[-1] ** (len(f) - 2) * x for x in f], q)[1]
        expected += [0] * (2 - len(expected))
        assert list(forms._mod_q(f, q)) == expected
        assert forms._mod_q(f, [0, q[1] or 1, 0]) == (f[0], f[-1])
        content = gcd(*q)
        p = [x // content for x in q]
        product = [sum(p[i] * f[k - i] for i in range(3) if 0 <= k - i < len(f))
                   for k in range(len(f) + 2)]
        assert forms._exact_quotient(product, p) == f
        assert not any(forms._mod_q(product, q))


def random_form(rng, degree, digits):
    return BinaryForm.from_coeffs(PARAM_VARS, [rng.randint(-10 ** digits, 10 ** digits)
                                               for _ in range(degree + 1)])


def pencil_of(draw, free=False):
    """PonceletPencil(*draw()), redrawn until the generators are independent,
    and until the pencil is base-point-free if asked."""
    while True:
        try:
            pencil = PonceletPencil(*draw())
        except PreconditionError:
            continue
        if not free or is_base_point_free(pencil):
            return pencil


def test_incidence_tests_match_window_oracle():
    """Both incidence tests against the window route modulo q and q^2
    (`oracles.pullback_is_jumping_line`, `pullback_singular_jump`) on three
    conics, n = 2..12 and 1- and 60-digit coefficients: tangents at roots of
    gamma1 and at random parameters, pullbacks with l = 0 and a = l = 0,
    chords of gamma1's roots, and a planted singular jump, gamma1 = q^2*r
    with gamma2 redrawn until the pencil is base-point-free; and pencils
    where q divides either generator, or where q^2 parts sit on low parts
    whose remainders modulo q are proportional or independent."""
    rng = random.Random(71)
    seen = set()
    for conic in three_conics():
        for n in range(2, 13):
            for digits in (1, 60):
                roots = [(Fraction(k, rng.randint(1, 3)), 1) for k in rng.sample(range(-9, 10), 2)]
                params = roots + [(Fraction(rng.randint(-9, 9), rng.randint(1, 5)), 1),
                                  (1, Fraction(rng.randint(-9, 9), rng.randint(1, 5)))]
                big = [rng.choice([-1, 1]) * rng.randint(1, 10 ** digits) for _ in range(3)]
                s0 = BinaryForm.from_coeffs(PARAM_VARS, [1, 0])
                pullbacks = [split_form([p, p]) for p in params]  # tangents
                pullbacks += [s0 * BinaryForm.from_coeffs(PARAM_VARS, big[:2]),  # l = 0
                              BinaryForm.from_coeffs(PARAM_VARS, [0, big[2], 0]),  # a = l = 0
                              split_form(roots)]  # a chord of gamma1's roots
                lines = [line_with_pullback(conic, q) for q in pullbacks]
                lines.append(tuple(rng.randint(-10 ** digits, 10 ** digits) for _ in range(3)))
                s0_power = BinaryForm.from_coeffs(PARAM_VARS, [1] + [0] * (n + 1))
                q1, q2 = rng.choice(pullbacks), rng.choice(pullbacks)
                pencils = [pencil_of(lambda: (split_form(roots) * random_form(rng, n - 1, digits),
                                              random_form(rng, n + 1, digits))),
                           pencil_of(lambda: (q1 * random_form(rng, n - 1, digits),
                                              random_form(rng, n + 1, digits))),
                           pencil_of(lambda: (random_form(rng, n + 1, digits),
                                              q1 * random_form(rng, n - 1, digits)))]
                if n >= 3:
                    square = q2 * q2 * random_form(rng, n - 3, digits)
                    pencils.append(pencil_of(lambda: (square, random_form(rng, n + 1, digits)),
                                             free=True))
                    assert singular_jump_criterion(conic, pencils[-1], lines[pullbacks.index(q2)])
                if n >= 3 and q2.coeffs[-1]:  # else s0 would divide both generators
                    # c*s0^(n+1) modulo q2: remainders with no s1 term; gamma1 has a
                    # q2 part and gamma2 a q2^2 part, which gamma2 alone would pass
                    pencils.append(pencil_of(lambda: [
                        s0_power.scale(rng.randint(1, 10 ** digits)) + q2 * f
                        for f in (random_form(rng, n - 1, digits),
                                  q2 * random_form(rng, n - 3, digits))], free=True))
                    # low parts a*s0^(n+1) + b*s0^n*s1 plus q2^2 parts: remainders
                    # modulo q2 independent, so no member is divisible by q2
                    pencils.append(pencil_of(lambda: [BinaryForm.from_coeffs(PARAM_VARS, [
                        rng.randint(1, 10 ** digits), rng.randint(1, 10 ** digits)] + [0] * n)
                        + q2 * q2 * random_form(rng, n - 3, digits) for _ in range(2)], free=True))
                for pencil in pencils:
                    free = is_base_point_free(pencil)
                    for line in filter(any, lines):
                        jump = is_jumping_line(conic, pencil, line)
                        assert jump == pullback_is_jumping_line(conic, pencil, line), line
                        seen.add(("jump", jump))
                        if free:
                            singular = singular_jump_criterion(conic, pencil, line)
                            assert singular == pullback_singular_jump(conic, pencil, line), line
                            assert not singular or jump
                            seen.add(("singular", singular))
    assert seen == {(k, v) for k in ("jump", "singular") for v in (True, False)}


def test_incidence_kernels_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    conics = three_conics()[:2]
    coeff = st.integers(-4, 4)

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.integers(2, 5).flatmap(lambda n: st.tuples(
        st.lists(coeff, min_size=n + 2, max_size=n + 2),
        st.lists(coeff, min_size=n + 2, max_size=n + 2))),
        st.tuples(coeff, coeff, coeff).filter(any), st.sampled_from([0, 1]))
    def check(gammas, line, conic_index):
        try:
            pencil = PonceletPencil(*(BinaryForm.from_coeffs(PARAM_VARS, g) for g in gammas))
        except PreconditionError:
            return
        conic = conics[conic_index]
        jump = is_jumping_line(conic, pencil, line)
        assert jump == bezoutian_is_jumping_line(conic, pencil, line)
        assert jump == rank_is_jumping_line(conic, pencil, line)
        free = is_base_point_free(pencil)
        assert free == bezout_base_point_free(pencil)
        if free:
            assert (singular_jump_criterion(conic, pencil, line)
                    == rational_singular_jump(conic, pencil, line))

    check()


def test_integer_pullback_matches_line_pullback_route():
    """T*line in integers is the pullback times a nonzero constant, and both
    incidence tests give the verdicts of the `line_pullback` route, on chord
    duals, random integer and Fraction lines and the special pullbacks (l = 0
    among them), with jumps planted at chords of gamma1's roots and a
    singular jump planted at a line whose squared pullback divides gamma1."""
    rng = random.Random(61)
    seen = set()
    for conic in three_conics():
        for n in (3, 5, 8, 14):
            roots = rng.sample([(Fraction(k, rng.randint(1, 3)), 1) for k in range(-20, 21)], n + 1)
            split = rand_pencil(rng, n, gamma1=split_form(roots))
            planted = tuple(rng.randint(-5, 5) for _ in range(3))
            if not any(planted):
                planted = (1, 2, 3)
            q = line_pullback(conic, planted)
            square = rand_pencil(rng, n, gamma1=q * q * rand_binary(rng, n - 3))
            lines = [chord_dual(conic, a, b) for a, b in zip(roots, roots[1:])] + [planted]
            lines += [tuple(rng.randint(-9, 9) for _ in range(3)) for _ in range(4)]
            lines += [tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3))
                      for _ in range(4)]
            lines += [line for _, line in special_lines(conic, rng)]
            for pencil in (split, square, rand_rational_pencil(rng, n)):
                free = is_base_point_free(pencil)
                for line in filter(any, lines):
                    jump = is_jumping_line(conic, pencil, line)
                    assert jump == pullback_is_jumping_line(conic, pencil, line), line
                    seen.add(("jump", jump))
                    if free:
                        singular = singular_jump_criterion(conic, pencil, line)
                        assert singular == pullback_singular_jump(conic, pencil, line), line
                        seen.add(("singular", singular))
            for line in filter(any, lines):
                coeffs = line_pullback(conic, line).coeffs
                ints = poncelet._pullback_ints(conic, line)
                assert all(type(x) is int for x in ints) and any(ints)
                k = next(i for i, x in enumerate(ints) if x)
                assert all(x * coeffs[k] == y * ints[k] for x, y in zip(ints, coeffs)), line
    assert seen == {(k, v) for k in ("jump", "singular") for v in (True, False)}


def test_conic_cache_is_invisible():
    g1, g2 = (parse_form(p, PARAM_VARS) for p in GEN_CONIC[:2])
    conic = make_conic(g1, g2, parse_form(GEN_CONIC[2], PARAM_VARS))
    fresh = make_conic(*(parse_form(p, PARAM_VARS) for p in GEN_CONIC))
    pickled, hashed = pickle.dumps(fresh), hash(fresh)
    pencil = PonceletPencil(parse_form("s0^3 + s1^3", PARAM_VARS),
                            parse_form("s0*s1^2", PARAM_VARS))
    is_jumping_line(conic, pencil, (1, 2, 3))
    assert vars(conic)["_t"] == [[1, 2, 0], [2, -1, 1], [3, 1, -2]]
    assert "_t" not in vars(fresh)
    assert conic == fresh and hash(conic) == hashed and repr(conic) == repr(fresh)
    assert pickle.dumps(conic) == pickled
    for clone in (pickle.loads(pickle.dumps(conic)), copy.deepcopy(conic), copy.copy(conic)):
        assert clone == conic and hash(clone) == hashed
        assert "_t" not in vars(clone)
    with pytest.raises(FrozenError):
        conic.p0 = g2
    with pytest.raises(FrozenError):
        del conic.p0
    assert conic.p0 == g1


def test_zero_line_is_rejected():
    conic = standard_conic()
    pencil = PonceletPencil(parse_form("s0^3", PARAM_VARS), parse_form("s1^3", PARAM_VARS))
    for test in (is_jumping_line, singular_jump_criterion):
        with pytest.raises(ValueError, match="zero vector"):
            test(conic, pencil, (0, 0, 0))


def test_pencil_cache_is_tuples_and_invisible():
    g1 = parse_form("1/2*s0^4 - s1^4 + s0*s1^3", PARAM_VARS)
    g2 = parse_form("s0^3*s1 + 2/3*s1^4", PARAM_VARS)
    pencil, fresh = PonceletPencil(g1, g2), PonceletPencil(g1, g2)
    pickled, hashed = pickle.dumps(PonceletPencil(g1, g2)), hash(fresh)
    assert is_base_point_free(pencil)
    is_jumping_line(standard_conic(), pencil, (1, 2, 3))
    ints = pencil._ints
    assert type(ints) is tuple and all(type(v) is tuple for v in ints)
    assert ints == ((1, 0, 0, 2, -2), (0, 3, 0, 0, 2))
    assert vars(pencil)["_base_point_free"] is True
    assert pencil == fresh and hash(pencil) == hashed
    assert pickle.dumps(pencil) == pickled
    for clone in (pickle.loads(pickle.dumps(pencil)), copy.deepcopy(pencil), copy.copy(pencil)):
        assert clone == pencil and hash(clone) == hashed
        assert "_base_point_free" not in vars(clone)
    with pytest.raises(FrozenError):
        pencil.gamma1 = g2
    with pytest.raises(FrozenError):
        del pencil.gamma1
    assert pencil.gamma1 == g1


def test_a_common_constant_of_the_generators_changes_nothing():
    """Both generators times one 1000-digit constant: the same primitive
    integers, the same verdicts on chords of gamma1's roots, special lines,
    a planted singular jump and random lines, and the same curve."""
    rng = random.Random(83)
    big = rng.randint(10 ** 999, 10 ** 1000)
    seen = set()
    for conic in three_conics():
        line = tuple(rng.randint(-5, 5) for _ in range(3))
        q = line_pullback(conic, line)
        roots = [(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(2)]
        pencils = [rand_pencil(rng, 4, gamma1=q * q * split_form(roots[:1])),
                   rand_pencil(rng, 3, gamma1=split_form(roots + roots)),
                   rand_rational_pencil(rng, 3, base_point=True)]
        for pencil in pencils:
            scaled = PonceletPencil(pencil.gamma1.scale(big), pencil.gamma2.scale(big))
            assert scaled._ints == pencil._ints
            free = is_base_point_free(scaled)
            assert free == is_base_point_free(pencil)
            assert poncelet_curve(conic, scaled) == poncelet_curve(conic, pencil)
            lines = [line, *(v for _, v in special_lines(conic, rng)),
                     *(tuple(rng.randint(-9, 9) for _ in range(3)) for _ in range(4))]
            if roots[0] != roots[1]:
                lines.append(chord_dual(conic, *roots))
            for v in filter(any, lines):
                jump = is_jumping_line(conic, scaled, v)
                assert jump == is_jumping_line(conic, pencil, v), v
                seen.add(("jump", jump))
                if free:
                    singular = singular_jump_criterion(conic, scaled, v)
                    assert singular == singular_jump_criterion(conic, pencil, v), v
                    seen.add(("singular", singular))
            seen.add(("free", free))
    assert seen == {(k, v) for k in ("jump", "singular", "free") for v in (True, False)}


# ---------------------------------------------------------------------------
# reparametrization invariance

def test_reparametrization_invariance():
    rng = random.Random(31)
    base = standard_conic()
    pencil = rand_pencil(rng, 3)
    curve = poncelet_curve(base, pencil)
    for _ in range(5):
        while True:
            a, b, c, d = (rng.randint(-4, 4) for _ in range(4))
            if a * d - b * c != 0:
                break
        m = [[a, b], [c, d]]
        conic2 = make_conic(substitute_pair(base.p0, m),
                            substitute_pair(base.p1, m),
                            substitute_pair(base.p2, m))
        pencil2 = PonceletPencil(substitute_pair(pencil.gamma1, m),
                                 substitute_pair(pencil.gamma2, m))
        assert poncelet_curve(conic2, pencil2).proportional_to(curve)


# ---------------------------------------------------------------------------
# worked families

def test_family_eps_matches_expansion():
    for eps in EPS_SAMPLES:
        det = family_matrix("eps91", eps).determinant()
        assert det.proportional_to(printed_eps_expansion(eps))


def test_family_92_expansion():
    assert family_matrix("92").determinant().proportional_to(printed_92())


def test_family_93_expansion():
    for c in C_SAMPLES:
        assert family_matrix("93", c).determinant().proportional_to(printed_93(c))


def test_verify_replays_the_printed_93_expansion(monkeypatch):
    assert verify.check_93_analysis().passed
    # a misprinted u^2*v^2 coefficient fails the check at the first sample
    monkeypatch.setattr(verify, "printed_93", lambda c: printed_93(c + 1))
    result = verify.check_93_analysis()
    assert not result.passed and result.detail == f"mismatch at c={C_SAMPLES[0]}"


def test_run_checks_builds_each_family_matrix_once(monkeypatch):
    """One `run_checks` expands each distinct (family, parameter) once: five
    eps91 samples, 92, and five 93 samples, not the 19 uses of the checks."""
    calls = []
    original = poncelet.family_matrix

    def counted(name, param=0):
        calls.append((name, Fraction(param)))
        return original(name, param)

    monkeypatch.setattr(poncelet, "family_matrix", counted)
    assert all(result.passed for result in verify.run_checks())
    assert len(calls) == len(set(calls)) == 11
    assert set(calls) == {("eps91", e) for e in EPS_SAMPLES} | {("92", Fraction(0))} | {
        ("93", c) for c in C_SAMPLES}


@pytest.mark.parametrize("name", poncelet.FAMILY_NAMES)
def test_family_matrix_matches_the_fraction_built_oracle(name):
    for p in {Fraction(0), *EPS_SAMPLES, *C_SAMPLES, Fraction(-1, 4)}:
        assert family_matrix(name, p) == fraction_family_matrix(name, p), p


def test_family_zero_coefficient_entries_keep_their_column_degree():
    eps = family_matrix("eps91", 0)
    for i, j in ((2, 2), (5, 3), (5, 4)):  # p*u, -p*u and p*v at p = 0
        assert eps.entry(i, j).is_zero() and eps.entry(i, j).degree == 1
    assert eps.entry(2, 2) == eps.entry(0, 3) == zero_form(TernaryForm, 1, DUAL_VARS)
    at_zero = family_matrix("93", 0)
    for i in (2, 5):  # c and -c at c = 0
        assert at_zero.entry(i, 1) == zero_form(TernaryForm, 0, DUAL_VARS)
    assert family_matrix("eps91", Fraction(-2, 5)).entry(2, 2) == TernaryForm(
        1, DUAL_VARS, 5, {(1, 0, 0): -2})


def test_family_92_ignores_param_and_is_93_at_zero():
    base = family_matrix("92")
    at_zero = family_matrix("93", 0)
    for p in (Fraction(2), Fraction(-1, 4), Fraction(5)):
        assert family_matrix("92", p) == base
    for i in range(6):
        for j in range(6):
            assert base.entry(i, j) == at_zero.entry(i, j)
            assert base.entry(i, j).degree == at_zero.entry(i, j).degree


def test_family_unknown_name():
    with pytest.raises(ValueError):
        family_matrix("94")


def test_family_curve_normalized():
    curve = family_matrix("eps91", 0).determinant().lex_normalized()
    assert lex_leading_coefficient(curve) == 1
    assert curve.proportional_to(printed_eps_expansion(Fraction(0)))


def test_cross_construction_matches_family_92():
    conic = standard_conic()
    pencil = PonceletPencil(parse_form("s0^2*s1^2*(s1-s0)", PARAM_VARS),
                            parse_form("-(s0^5+s1^5)", PARAM_VARS))
    curve = poncelet_curve(conic, pencil)
    assert curve.proportional_to(family_matrix("92").determinant())


def test_degenerate_pencil_reported():
    # dependent generators are the only pencil whose determinant vanishes
    # identically, and the pencil itself rejects them
    with pytest.raises(PreconditionError):
        PonceletPencil(parse_form("s0^4", PARAM_VARS),
                       parse_form("2*s0^4", PARAM_VARS))


def test_curve_of_an_independent_pencil_is_never_zero():
    """Random, planted-factor and sparse pencils, n = 2..5, on both benchmark
    conics: the curve is a nonzero, lexicographically-monic form of degree n."""
    rng = random.Random(1010)
    conics = [standard_conic(), make_conic(*(parse_form(p, PARAM_VARS) for p in GEN_CONIC))]

    def sparse_pencil(n):
        while True:
            g1, g2 = (BinaryForm.from_coeffs(PARAM_VARS, [
                rng.randint(-9, 9) if rng.random() < 0.3 else 0 for _ in range(n + 2)])
                for _ in range(2))
            try:
                return PonceletPencil(g1, g2)
            except PreconditionError:
                continue

    for n in range(2, 6):
        for _ in range(40):
            for pencil in (rand_pencil(rng, n),
                           planted_pencil(rng, n, rand_binary(rng, rng.randint(1, n))),
                           sparse_pencil(n)):
                for conic in conics:
                    curve = poncelet_curve(conic, pencil)
                    assert not curve.is_zero() and curve.degree == n
                    assert lex_leading_coefficient(curve) == 1


@pytest.mark.parametrize("name", poncelet.FAMILY_NAMES)
def test_family_determinant_has_a_parameter_free_coefficient(name):
    """Some monomial of each family determinant has a nonzero coefficient that
    does not depend on the parameter, so no parameter makes it zero."""
    sympy = pytest.importorskip("sympy")
    u, v, w, p = sympy.symbols("u v w p")

    def expr(form):
        return sum((sympy.Rational(c.numerator, c.denominator) * u**i * v**j * w**k
                    for (i, j, k), c in form.terms.items()), sympy.Integer(0))

    at = [family_matrix(name, x) for x in (0, 1, 2)]
    rows = [[None] * 6 for _ in range(6)]
    for i in range(6):
        for j in range(6):
            e0, e1, e2 = (expr(m.entry(i, j)) for m in at)
            assert sympy.expand(e2 - 2 * e1 + e0) == 0  # each entry is affine in p
            rows[i][j] = e0 + p * (e1 - e0)
    det = sympy.expand(sympy.Matrix(rows).det())
    third = family_matrix(name, Fraction(1, 3)).determinant()
    assert sympy.expand(det.subs(p, sympy.Rational(1, 3)) - expr(third)) == 0
    coeffs = sympy.Poly(det, u, v, w).coeffs()
    assert any(c.is_number and c != 0 for c in coeffs), coeffs
