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
    invert,
    mat_mul,
    nullspace,
    rank,
    shifted_multiples,
    solve_linear,
    sylvester_matrix,
    sylvester_resultant,
)

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
