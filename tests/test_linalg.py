"""Rational linear algebra, resultants, discriminants and form determinants."""

import random
from fractions import Fraction
from itertools import permutations
from math import lcm

import pytest

from luroth.forms import (BinaryForm, PreconditionError, TernaryForm, adjugate3,
                          integral_row, parse_form, projective_ints)
from luroth.linalg import (
    LinearSolution,
    _bareiss,
    PolyMatrix,
    conic_det3,
    conic_kernel_point,
    det_rational,
    disc_binary_quadratic,
    invert,
    normalize_projective,
    rank,
    shifted_multiples,
    solve_linear,
    sylvester_matrix,
    sylvester_resultant,
)
from oracles import (bitmask_determinant, conic_matrix, cyclic_adjugate3, mat_mul, rational_det,
                     rational_invert, rational_nullspace, rational_rank, rational_row_echelon,
                     rational_solve, zero_form)

PAIR = ("v", "w")
TRIPLE = ("u", "v", "w")


def rand_linear_entry(rng):
    terms = {}
    for k in range(3):
        c = rng.randint(-3, 3)
        if c:
            terms[tuple(1 if i == k else 0 for i in range(3))] = Fraction(c)
    return (TernaryForm.from_terms(1, TRIPLE, terms) if terms
            else zero_form(TernaryForm, 1, TRIPLE))


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


def test_rank_of_dependent_rows():
    assert rank([[1, 2, 3], [2, 4, 6], [0, 1, 1]]) == 2


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


def rand_rhs(rng, a, ncols):
    """A consistent right-hand side (A times a random vector) or a random one."""
    if rng.random() < 0.5:
        x = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(ncols)]
        return [sum((r * y for r, y in zip(row, x)), Fraction(0)) for row in a]
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in a]


def test_solve_linear_matches_rational_elimination():
    rng = random.Random(906)
    statuses = {"unique": 0, "no_solution": 0, "non_unique": 0}
    for nrows in range(9):
        for ncols in range(9):
            for _ in range(4):
                a = rand_rational_matrix(rng, nrows, ncols)
                b = rand_rhs(rng, a, ncols)
                sol = solve_linear(a, b)
                assert (sol.status, sol.vector) == rational_solve(a, b)
                assert sol.vector is None or all(type(x) is Fraction for x in sol.vector)
                statuses[sol.status] += 1
    assert min(statuses.values()) >= 20, statuses


def test_invert_matches_rational_elimination():
    rng = random.Random(908)
    singular = 0
    for n in range(9):
        for _ in range(25):
            m = rand_rational_matrix(rng, n, n)
            expected = rational_invert(m)
            if expected is None:
                singular += 1
                with pytest.raises(PreconditionError, match="singular"):
                    invert(m)
            else:
                assert invert(m) == expected
    assert singular >= 20


def test_reduced_pass_ends_with_equal_pivots():
    rng = random.Random(909)
    for nrows in range(1, 9):
        for ncols in range(1, 9):
            m = [integral_row(row)[0] for row in rand_rational_matrix(rng, nrows, ncols)]
            expected, expected_pivots = rational_row_echelon(m)
            pivots, _ = _bareiss(m, reduced=True)
            assert pivots == expected_pivots
            if pivots:
                last = m[len(pivots) - 1][pivots[-1]]
                assert all(m[r][c] == last for r, c in enumerate(pivots))
                assert [[Fraction(x, last) for x in row] for row in m] == expected


def test_solve_and_invert_edge_cases():
    assert solve_linear([], []) == LinearSolution("unique", ())
    assert solve_linear([[], []], [1, 0]).status == "no_solution"
    assert solve_linear([[0, 0], [0, 0]], [0, 0]).status == "non_unique"
    assert solve_linear([[0, 2], [0, 0]], [1, 0]).status == "non_unique"
    assert solve_linear([[0, 2], [3, 0]], [1, 1]).vector == (Fraction(1, 3), Fraction(1, 2))
    assert invert([]) == []
    assert invert([[0, 2], [Fraction(1, 3), 0]]) == [[0, 3], [Fraction(1, 2), 0]]
    with pytest.raises(ValueError):
        solve_linear([[1, 2]], [1, 2])


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


def test_poly_determinant_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    symbols = sympy.symbols(TRIPLE)
    ring = sympy.QQ[symbols]
    rng = random.Random(910)

    def entry(linear):
        if not linear:
            return TernaryForm.constant(Fraction(rng.randint(-4, 4), rng.randint(1, 3)), TRIPLE)
        units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        return TernaryForm.from_terms(1, TRIPLE, {
            e: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for e in units
            if rng.random() < 0.6})

    def expr(form):
        return sum((sympy.Rational(c.numerator, c.denominator)
                    * sympy.prod(s ** k for s, k in zip(symbols, e))
                    for e, c in form.terms.items()), sympy.Integer(0))

    zero = 0
    for n in range(1, 6):
        for _ in range(6):
            linear = [rng.random() < 0.7 for _ in range(n)]  # constant or linear columns
            m = PolyMatrix.from_rows([[entry(linear[j]) for j in range(n)] for _ in range(n)])
            det = m.determinant()
            rows = [[ring.from_sympy(expr(m.entry(i, j))) for j in range(n)] for i in range(n)]
            poly = DomainMatrix(rows, (n, n), ring).det()
            expected = {e: Fraction(int(c.numerator), int(c.denominator))
                        for e, c in poly.terms() if c}
            assert dict(det.terms) == expected
            zero += det.is_zero()
    assert zero >= 1


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
        sylvester_resultant(zero_form(BinaryForm, 2, PAIR), parse_form("v^2", PAIR))
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
        for (a, b), c in phi.terms.items():
            terms[(a, b, 1)] = 2 * c
        for (a, b), c in psi.terms.items():
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
# the 3x3 adjugate against rational elimination

def rand_matrix3_of_rank(rng, r, rational):
    """r random rows and 3 - r combinations of them, shuffled (rank <= r)."""
    def entry():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4)) if rational else rng.randint(-6, 6)
    rows = [[entry() for _ in range(3)] for _ in range(r)]
    for _ in range(3 - r):
        weights = [entry() for _ in range(r)]
        rows.append([sum((c * row[j] for c, row in zip(weights, rows[:r])), 0 * entry())
                     for j in range(3)])
    rng.shuffle(rows)
    return rows


def test_adjugate3_times_matrix_is_det_identity():
    rng = random.Random(930)
    ranks = set()
    for rational in (False, True):
        for r in range(4):
            for _ in range(30):
                m = rand_matrix3_of_rank(rng, r, rational)
                det, adj = adjugate3(m)
                assert det == rational_det(m)
                scalar = [[det if i == j else 0 for j in range(3)] for i in range(3)]
                assert mat_mul(m, adj) == scalar and mat_mul(adj, m) == scalar
                assert rational or all(type(x) is int for row in adj for x in row)
                ranks.add(rational_rank(m))
    assert ranks == {0, 1, 2, 3}


def test_adjugate3_matches_the_cyclic_index_oracle():
    """Same determinant and cofactors, of the same types, on int and Fraction
    matrices of every rank and on 60-digit entries."""
    def flat(result):
        det, adj = result
        return [det, *(x for row in adj for x in row)]

    rng = random.Random(931)
    matrices = [rand_matrix3_of_rank(rng, r, rational)
                for rational in (False, True) for r in range(4) for _ in range(40)]
    matrices += [[[rng.randint(-10 ** 60, 10 ** 60) for _ in range(3)] for _ in range(3)]
                 for _ in range(20)]
    for m in matrices:
        got, want = flat(adjugate3(m)), flat(cyclic_adjugate3(m))
        assert got == want and list(map(type, got)) == list(map(type, want))


@pytest.mark.parametrize("m", [[[1, 2, 3], [4, 5, 6]], [[1, 2], [3, 4], [5, 6]],
                               [[1, 0, 0, 0]] * 4, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]]],
                         ids=["2x3", "3x2", "4x4", "4x3"])
def test_adjugate3_rejects_a_matrix_not_3x3(m):
    """Unpacking the rows raises ValueError, where the cyclic indices raised
    IndexError on a short matrix and read the corner of a long one."""
    with pytest.raises(ValueError):
        adjugate3(m)


def test_projective_ints_match_the_fraction_oracle():
    """The point over its first nonzero entry, times the lcm of the
    denominators: primitive, that entry positive; `normalize_projective`
    is the same integers as Fractions.  The zero vector is a ValueError."""
    rng = random.Random(2602)
    for _ in range(400):
        point = [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) * rng.choice((1, -1, 10 ** 30))
                 for _ in range(3)]
        if not any(point):
            continue
        lead = next(x for x in point if x)
        d = lcm(*((x / lead).denominator for x in point))
        want = [int(x / lead * d) for x in point]
        assert projective_ints(point) == want
        assert normalize_projective(point) == tuple(want)
        assert all(type(x) is Fraction for x in normalize_projective(point))
    for call in (projective_ints, normalize_projective):
        with pytest.raises(ValueError, match="the zero vector is not a projective point"):
            call([0, Fraction(0), 0])


def rand_line(rng):
    while True:
        line = {e: Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))}
        if any(line.values()):
            return TernaryForm.from_terms(1, TRIPLE, line)


def test_conic_det3_matches_det_rational():
    rng = random.Random(931)
    for _ in range(100):
        if rng.random() < 0.3:  # singular: a pair of lines
            conic = rand_line(rng) * rand_line(rng)
        else:
            conic = TernaryForm.from_terms(2, TRIPLE, {
                e: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                for e in ((2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1))})
        assert conic_det3(conic) == det_rational(conic_matrix(conic))


def test_conic_kernel_point_matches_rational_nullspace():
    rng = random.Random(932)
    pairs = 0
    while pairs < 100:
        a, b = rand_line(rng), rand_line(rng)
        if a.proportional_to(b):
            continue
        conic = a * b
        kernel = rational_nullspace(conic_matrix(conic))
        assert len(kernel) == 1
        assert conic_kernel_point(conic) == normalize_projective(kernel[0])
        assert conic_kernel_point(a * a) is None  # a double line: rank 1
        pairs += 1
    smooth = 0
    for _ in range(100):
        conic = a * b + rand_line(rng) * rand_line(rng)
        if conic_det3(conic) != 0:
            assert conic_kernel_point(conic) is None
            smooth += 1
    assert smooth >= 50
    assert conic_kernel_point(zero_form(TernaryForm, 2, TRIPLE)) is None


# ---------------------------------------------------------------------------
# polynomial determinants

def rand_poly_matrix(rng, n):
    """An n x n PolyMatrix with columns of degree 0 or 1, rational
    coefficients and about a quarter of its entries zero."""
    def entry(degree):
        if rng.random() < 0.25:
            return zero_form(TernaryForm, degree, TRIPLE)
        if degree == 0:
            return TernaryForm.constant(Fraction(rng.randint(-5, 5), rng.randint(1, 4)), TRIPLE)
        return TernaryForm.from_terms(1, TRIPLE, {
            e: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)) if rng.random() < 0.7})

    degrees = [rng.choice((0, 1, 1)) for _ in range(n)]
    return PolyMatrix.from_rows([[entry(d) for d in degrees] for _ in range(n)])


def test_determinant_constants():
    one = TernaryForm.constant(1, TRIPLE)
    zero = TernaryForm.constant(0, TRIPLE)
    eye = PolyMatrix.from_rows([[one, zero], [zero, one]])
    assert eye.determinant() == one


def test_determinant_diagonal_linear():
    v = parse_form("v", TRIPLE)
    w = parse_form("w", TRIPLE)
    z = zero_form(TernaryForm, 1, TRIPLE)
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


def test_zero_determinant_has_the_sum_of_the_column_degrees():
    v, w = parse_form("v", TRIPLE), parse_form("w", TRIPLE)
    z = zero_form(TernaryForm, 1, TRIPLE)
    assert PolyMatrix.from_rows([[v, z], [w, z]]).determinant() == zero_form(TernaryForm, 2, TRIPLE)
    one = TernaryForm.constant(1, TRIPLE)
    assert PolyMatrix.from_rows([[one, v], [one, v]]).determinant() == z
    rng = random.Random(1402)  # random matrices with one column set to zero
    for n in range(2, 6):
        m = rand_poly_matrix(rng, n)
        j = rng.randrange(n)
        entries = list(m.entries)
        entries[j::n] = [zero_form(TernaryForm, m.entry(0, j).degree, TRIPLE)] * n
        m = PolyMatrix(n, n, tuple(entries))
        degree = sum(m.entry(0, k).degree for k in range(n))
        assert m.determinant() == bitmask_determinant(m) == zero_form(TernaryForm, degree, TRIPLE)


def test_determinant_matches_bitmask_oracle():
    rng = random.Random(1401)
    zero = 0
    for n in range(1, 8):
        for _ in range(12 if n < 6 else 4):
            m = rand_poly_matrix(rng, n)
            det = m.determinant()
            assert det == bitmask_determinant(m)
            assert all(type(c) is Fraction for c in det.terms.values())
            zero += det.is_zero()
    assert zero >= 1


def test_determinant_matches_bitmask_oracle_on_pairwise_coprime_denominators():
    """Each nonzero entry over its own prime, above its numerators: the lcm d
    is their product, and each entry is scaled by a different d // den."""
    primes = [p for p in range(5, 120) if all(p % k for k in range(2, p))]
    rng = random.Random(1404)
    nonzero = 0
    for n in range(1, 6):
        for _ in range(4):
            dens = iter(rng.sample(primes, n * n))
            degrees = [rng.choice((0, 1, 1)) for _ in range(n)]
            m = PolyMatrix.from_rows([[TernaryForm(deg, TRIPLE, next(dens), {
                e: rng.choice((-4, -3, -2, -1, 1, 2, 3, 4))
                for e in ([(0, 0, 0)] if deg == 0 else [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
                if rng.random() < 0.8}) for deg in degrees] for _ in range(n)])
            used = [e.den for e in m.entries if not e.is_zero()]
            assert len(set(used)) == len(used) and 1 not in used
            det = m.determinant()
            assert det == bitmask_determinant(m)
            nonzero += not det.is_zero()
    assert nonzero >= 10


@pytest.mark.parametrize("make", [lambda: PolyMatrix(0, 0, ()), lambda: PolyMatrix(2, 0, ()),
                                  lambda: PolyMatrix.from_rows([])],
                         ids=["0x0", "2x0", "from-rows"])
def test_poly_matrix_rejects_no_entry(make):
    with pytest.raises(ValueError, match="no entry"):
        make()


def test_conic_matrix_is_half_the_hessian():
    sympy = pytest.importorskip("sympy")
    symbols = sympy.symbols(TRIPLE)
    rng = random.Random(1403)
    monomials = [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)]
    for _ in range(40):
        terms = {e: Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for e in monomials
                 if rng.random() < 0.8}
        conic = TernaryForm.from_terms(2, TRIPLE, terms)
        expr = sum((sympy.Rational(c.numerator, c.denominator)
                    * sympy.prod(s ** k for s, k in zip(symbols, e))
                    for e, c in conic.terms.items()), sympy.Integer(0))
        half = sympy.hessian(expr, symbols) / 2
        assert conic_matrix(conic) == [[Fraction(int(half[i, j].p), int(half[i, j].q))
                                        for j in range(3)] for i in range(3)]


def test_poly_matrix_rejects_mixed_degree_columns():
    v = parse_form("v", TRIPLE)
    with pytest.raises(ValueError, match="column 0"):
        PolyMatrix.from_rows([[v, v], [TernaryForm.constant(1, TRIPLE), v]])
    with pytest.raises(ValueError, match="column 1"):
        PolyMatrix.from_rows([[v, v], [v, zero_form(TernaryForm, 0, TRIPLE)]])


def test_poly_matrix_rejects_a_wrong_entry_count_and_mixed_triples():
    v = parse_form("v", TRIPLE)
    with pytest.raises(ValueError, match="^entry count does not match dimensions$"):
        PolyMatrix(2, 2, (v, v, v))
    with pytest.raises(ValueError, match="^all entries must share one variable triple$"):
        PolyMatrix(1, 2, (v, parse_form("y", ("x", "y", "t"))))


def test_sylvester_resultant_rejects_mismatched_variables():
    g, h = parse_form("v^2+w^2", ("v", "w")), parse_form("a*b", ("a", "b"))
    with pytest.raises(ValueError, match="^variable mismatch$") as err:
        sylvester_resultant(g, h)
    assert type(err.value) is ValueError


def test_determinant_rejects_high_degree_entries():
    with pytest.raises(ValueError):
        PolyMatrix.from_rows([[parse_form("v^2", TRIPLE)]])
