"""Rational linear algebra, resultants, discriminants and form determinants."""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from luroth.forms import BinaryForm, PreconditionError, TernaryForm, parse_form
from luroth.linalg import (
    PolyMatrix,
    conic_det3,
    conic_kernel_point,
    det_rational,
    disc_binary_quadratic,
    integral_row,
    invert,
    mat_mul,
    nullspace,
    rank,
    shifted_multiples,
    solve_linear,
    sylvester_matrix,
    sylvester_resultant,
)
from oracles import rational_det, rational_rank

PAIR = ("v", "w")
TRIPLE = ("u", "v", "w")


def rand_linear_entry(rng):
    terms = {}
    for k in range(3):
        c = rng.randint(-3, 3)
        if c:
            terms[tuple(1 if i == k else 0 for i in range(3))] = Fraction(c)
    return (TernaryForm.from_terms(1, TRIPLE, terms) if terms
            else TernaryForm.zero(1, TRIPLE))


def naive_determinant(matrix: PolyMatrix) -> TernaryForm:
    """Permutation-expansion oracle, independent of the production algorithm."""
    n = matrix.rows
    total = None
    for perm in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if perm[i] > perm[j])
        prod = TernaryForm.constant((-1) ** inversions, TRIPLE)
        for i in range(n):
            prod = prod * matrix.entry(i, perm[i])
        total = prod if total is None else total + prod
    return total


# ---------------------------------------------------------------------------
# rational solves

def test_solve_identity():
    b = [Fraction(3), Fraction(-1, 2), Fraction(7)]
    sol = solve_linear([[1, 0, 0], [0, 1, 0], [0, 0, 1]], b)
    assert sol.status == "unique" and list(sol.vector) == b


def test_solve_singular_consistent():
    sol = solve_linear([[1, 1], [2, 2]], [3, 6])
    assert sol.status == "non_unique" and sol.vector is None


def test_solve_inconsistent():
    sol = solve_linear([[1, 1], [2, 2]], [3, 7])
    assert sol.status == "no_solution"


def test_rank_and_nullspace():
    m = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert rank(m) == 2
    basis = nullspace(m)
    assert len(basis) == 1
    for row in m:
        assert sum(r * x for r, x in zip(row, basis[0])) == 0


def test_invert_round_trip():
    rng = random.Random(11)
    for _ in range(10):
        m = [[Fraction(rng.randint(-5, 5)) for _ in range(3)] for _ in range(3)]
        if det_rational(m) == 0:
            continue
        assert mat_mul(m, invert(m)) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


# ---------------------------------------------------------------------------
# fraction-free determinant and rank against rational elimination

def rand_rational_matrix(rng, nrows, ncols):
    """Random rational rows; some rows zero, some combinations of earlier rows."""
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.1:
            rows.append([Fraction(0)] * ncols)
        elif kind < 0.3 and rows:
            a, b = rng.choice(rows), rng.choice(rows)
            s, t = Fraction(rng.randint(-4, 4), rng.randint(1, 3)), rng.randint(-3, 3)
            rows.append([s * x + t * y for x, y in zip(a, b)])
        else:
            rows.append([Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                         if rng.random() < 0.8 else Fraction(0) for _ in range(ncols)])
    return rows


def test_det_rational_matches_rational_elimination():
    rng = random.Random(901)
    singular = 0
    for n in range(9):
        for _ in range(25):
            m = rand_rational_matrix(rng, n, n)
            det = det_rational(m)
            assert isinstance(det, Fraction)
            assert det == rational_det(m)
            singular += det == 0
    assert singular >= 20


def test_rank_matches_rational_elimination():
    rng = random.Random(902)
    for nrows in range(9):
        for ncols in range(9):
            for _ in range(4):
                m = rand_rational_matrix(rng, nrows, ncols)
                assert rank(m) == rational_rank(m)


def test_det_and_rank_edge_cases():
    assert det_rational([]) == 1
    assert rank([]) == 0 and rank([[], []]) == 0
    assert rank([[0, 0], [0, 0]]) == 0
    assert det_rational([[Fraction(1, 2), Fraction(1, 3)], [3, 5]]) == Fraction(3, 2)
    assert det_rational([[0, 1], [1, 0]]) == -1  # one row swap
    assert rank([[0, 0, 1], [0, 0, 2], [0, 3, 0]]) == 2  # skipped pivot column
    with pytest.raises(ValueError):
        det_rational([[1, 2]])


def test_integral_row_scale():
    assert integral_row([Fraction(1, 2), Fraction(-2, 3), 4]) == ([3, -4, 24], 6)
    assert integral_row([]) == ([], 1)


# ---------------------------------------------------------------------------
# sympy differential tests

def test_det_rational_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(903)
    for n in range(1, 7):
        for _ in range(6):
            m = rand_rational_matrix(rng, n, n)
            expected = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                                      for x in row] for row in m]).det()
            assert det_rational(m) == Fraction(int(expected.p), int(expected.q))


def test_sylvester_resultant_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(904)
    zero = 0
    for _ in range(40):
        forms = []
        for _ in range(2):
            degree = rng.randint(1, 5)
            coeffs = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 6), rng.randint(1, 4))]
            coeffs += [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(degree)]
            forms.append(BinaryForm.from_coeffs(PAIR, coeffs))
        if rng.random() < 0.3:  # plant a common root at x = 1
            root = BinaryForm.from_coeffs(PAIR, [1, -1])
            forms = [f * root for f in forms]
        g, h = forms
        polys = [sum(sympy.Rational(c.numerator, c.denominator) * x ** (f.degree - j)
                     for j, c in enumerate(f.coeffs)) for f in forms]
        # sympy.resultant gives one value for both argument orders (here
        # Res(h, g) when deg g < deg h), so swap with the sign (-1)^(deg g deg h)
        if g.degree >= h.degree:
            expected = sympy.resultant(*polys, x)
        else:
            expected = (-1) ** (g.degree * h.degree) * sympy.resultant(*polys[::-1], x)
        res = sylvester_resultant(g, h)
        assert res == Fraction(int(expected.p), int(expected.q))
        zero += res == 0
    assert zero >= 5


def test_conic_det3_matches_sympy():
    sympy = pytest.importorskip("sympy")
    symbols = sympy.symbols(TRIPLE)
    rng = random.Random(905)
    monomials = [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)]
    for _ in range(40):
        terms = {e: Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for e in monomials}
        conic = TernaryForm.from_terms(2, TRIPLE, terms)
        expr = sum(sympy.Rational(c.numerator, c.denominator)
                   * sympy.prod(s ** k for s, k in zip(symbols, e))
                   for e, c in terms.items())
        expected = sympy.hessian(expr, symbols).det() / 8
        assert conic_det3(conic) == Fraction(int(expected.p), int(expected.q))


# ---------------------------------------------------------------------------
# the multiplication map

def test_shifted_multiples_match_monomial_products():
    rng = random.Random(808)
    for _ in range(40):
        f = BinaryForm.from_coeffs(PAIR, [rng.randint(-9, 9)
                                          for _ in range(rng.randint(1, 6))])
        for k in range(7):
            monomials = [BinaryForm.from_coeffs(PAIR, [int(j == i) for j in range(k)])
                         for i in range(k)]
            assert shifted_multiples(f, k) == [list((f * m).coeffs) for m in monomials]


def test_shifted_multiples_of_degree_zero_is_empty():
    assert shifted_multiples(parse_form("v^2 - w^2", PAIR), 0) == []


# ---------------------------------------------------------------------------
# resultants

def test_resultant_disjoint_squares():
    g = BinaryForm.from_coeffs(PAIR, [1, 0, 0])  # v^2
    h = BinaryForm.from_coeffs(PAIR, [0, 0, 1])  # w^2
    # hand oracle: rows (1,0,0,0),(0,1,0,0),(0,0,1,0),(0,0,0,1)
    assert sylvester_matrix(g, h) == [
        [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    assert sylvester_resultant(g, h) == 1


def test_resultant_common_root():
    g = parse_form("v*w", PAIR)
    h = parse_form("v^2", PAIR)
    assert sylvester_resultant(g, h) == 0


def test_resultant_coprime_cubic():
    assert sylvester_resultant(parse_form("v^2+w^2", PAIR),
                               parse_form("2*v^3", PAIR)) != 0


def test_resultant_rejects_zero_form():
    with pytest.raises(PreconditionError):
        sylvester_resultant(BinaryForm.zero(2, PAIR), parse_form("v^2", PAIR))
    with pytest.raises(PreconditionError):
        sylvester_resultant(BinaryForm.from_coeffs(PAIR, [4]), parse_form("v^2", PAIR))


# ---------------------------------------------------------------------------
# discriminants

def test_disc_examples():
    assert disc_binary_quadratic(BinaryForm.from_coeffs(PAIR, [0, 0, 1])) == 0
    assert disc_binary_quadratic(parse_form("-u*v", ("u", "v"))) == 1


def test_disc_parametric_samples():
    for c in (Fraction(0), Fraction(2), Fraction(-1, 4), Fraction(1, 3), Fraction(5)):
        h = BinaryForm.from_coeffs(
            ("u", "v"), [c * c - c, 2 * c * c - c - 1, c * c - c])
        assert disc_binary_quadratic(h) == (4 * c + 1) * (c - 1) ** 2


def test_disc_wrong_degree():
    with pytest.raises(PreconditionError):
        disc_binary_quadratic(parse_form("v^3", PAIR))


def test_det3_examples():
    assert conic_det3(parse_form("u^2 - w^2", TRIPLE)) == 0
    assert conic_det3(parse_form("w^2 + u*v", TRIPLE)) == Fraction(-1, 4)


def test_det3_disc_bridge():
    rng = random.Random(740)
    for _ in range(100):
        phi = BinaryForm.from_coeffs(PAIR, [rng.randint(-9, 9) for _ in range(2)])
        psi = BinaryForm.from_coeffs(PAIR, [rng.randint(-9, 9) for _ in range(3)])
        terms = {(0, 0, 2): Fraction(1)}
        for (a, b), c in phi.terms().items():
            terms[(a, b, 1)] = 2 * c
        for (a, b), c in psi.terms().items():
            terms[(a, b, 0)] = terms.get((a, b, 0), Fraction(0)) - c
        conic = TernaryForm.from_terms(2, ("v", "w", "t"), terms)
        assert conic_det3(conic) == Fraction(-1, 4) * disc_binary_quadratic(
            phi * phi + psi)


def test_conic_kernel_point():
    conic = parse_form("u^2 - w^2", TRIPLE)
    kernel = conic_kernel_point(conic)
    assert kernel == (0, 1, 0)
    assert conic_kernel_point(parse_form("w^2 + u*v", TRIPLE)) is None


# ---------------------------------------------------------------------------
# polynomial determinants

def test_determinant_constants():
    one = TernaryForm.constant(1, TRIPLE)
    zero = TernaryForm.constant(0, TRIPLE)
    eye = PolyMatrix.from_rows([[one, zero], [zero, one]])
    assert eye.determinant() == one


def test_determinant_diagonal_linear():
    v = parse_form("v", TRIPLE)
    w = parse_form("w", TRIPLE)
    z = TernaryForm.zero(1, TRIPLE)
    m = PolyMatrix.from_rows([[v, z], [z, w]])
    assert m.determinant() == parse_form("v*w", TRIPLE)


def test_determinant_vs_naive_cofactor():
    rng = random.Random(12)
    for n in (2, 3, 4):
        for _ in range(8):
            rows = [[rand_linear_entry(rng) for _ in range(n)] for _ in range(n)]
            m = PolyMatrix.from_rows(rows)
            assert m.determinant() == naive_determinant(m)


def test_determinant_mixed_columns():
    rng = random.Random(13)
    for _ in range(8):
        rows = []
        for _ in range(3):
            row = [TernaryForm.constant(rng.randint(-3, 3), TRIPLE),
                   rand_linear_entry(rng), rand_linear_entry(rng)]
            rows.append(row)
        m = PolyMatrix.from_rows(rows)
        det = m.determinant()
        assert det == naive_determinant(m)
        assert det.is_zero() or det.degree == 2


def test_determinant_non_square():
    v = parse_form("v", TRIPLE)
    with pytest.raises(PreconditionError):
        PolyMatrix.from_rows([[v, v]]).determinant()


def test_determinant_rejects_high_degree_entries():
    with pytest.raises(ValueError):
        PolyMatrix.from_rows([[parse_form("v^2", TRIPLE)]])
