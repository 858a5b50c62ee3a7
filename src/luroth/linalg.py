"""Exact linear algebra over the rationals and determinants of form matrices.

Rational matrices are plain lists of Fraction rows.  Determinants and ranks
are fraction-free (Bareiss elimination on rows scaled to integers); solves,
kernels and inverses use rational Gauss-Jordan elimination.  The polynomial
determinant is division-free: a row-by-row expansion memoized over column
subsets, exponential in the size.  It serves only the worked 6x6 families and
the test oracle: `poncelet` computes jumping-line curves (Barth 1977) from a
closed form in the pencil's Bezout matrix, sum B_ij x^i y^j =
(g1(x)g2(y) - g1(y)g2(x))/(x - y), and the pullback of the line.

`shifted_multiples` is the one multiplication map of the package: the
coefficient vectors of a binary form times every monomial of a degree.  It
builds the Sylvester matrix, the Koszul system of the nodal pipeline and the
shifted-pullback columns of the curve presentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from typing import Sequence

from .forms import (
    BinaryForm,
    HomogeneityError,
    PreconditionError,
    TermMap,
    TernaryForm,
    _q,
    add_terms,
    mul_terms,
    scale_terms,
)

Matrix = list[list[Fraction]]
Vector = list[Fraction]


def as_matrix(rows: Sequence[Sequence]) -> Matrix:
    return [[_q(x) for x in row] for row in rows]


def identity(n: int) -> Matrix:
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> Matrix:
    a, b = as_matrix(a), as_matrix(b)
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def mat_vec(a: Sequence[Sequence], v: Sequence) -> Vector:
    a = as_matrix(a)
    v = [_q(x) for x in v]
    return [sum((a[i][k] * v[k] for k in range(len(v))), Fraction(0))
            for i in range(len(a))]


def _row_echelon(rows: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the pivot column indices (in place copy)."""
    m = [row[:] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def integral_row(values: Sequence) -> tuple[list[int], int]:
    """The values times d, the lcm of their denominators, and d."""
    p = [x if isinstance(x, int) else _q(x) for x in values]
    d = lcm(*(x.denominator for x in p))
    return [x.numerator * (d // x.denominator) for x in p], d


def _bareiss(m: list[list[int]]) -> tuple[int, int]:
    """Rank and signed last pivot (the determinant, for a nonsingular square
    matrix) of Bareiss (1968) fraction-free elimination, in place.  Every
    entry stays an integer minor, so each division by the last pivot is exact."""
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    prev, sign, r = 1, 1, 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            sign = -sign
        p, top = m[r][c], m[r][c + 1:]
        for i in range(r + 1, nrows):
            f = m[i][c]
            m[i] = [0] * (c + 1) + [(p * x - f * y) // prev
                                    for x, y in zip(m[i][c + 1:], top)]
        prev, r = p, r + 1
    return r, sign * prev


def rank(rows: Sequence[Sequence]) -> int:
    """Rank over the rationals, fraction-free on rows scaled to integers."""
    return _bareiss([integral_row(row)[0] for row in rows])[0]


def det_rational(rows: Sequence[Sequence]) -> Fraction:
    """Exact determinant: fraction-free on integer rows, over the row scales."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant requires a square matrix")
    scaled = [integral_row(row) for row in rows]
    full, det = _bareiss([ints for ints, _ in scaled])
    return Fraction(det, prod(d for _, d in scaled)) if full == n else Fraction(0)


def invert(rows: Sequence[Sequence]) -> Matrix:
    m = as_matrix(rows)
    n = len(m)
    aug = [row + unit for row, unit in zip(m, identity(n))]
    red, pivots = _row_echelon(aug)
    if pivots[:n] != list(range(n)):
        raise PreconditionError("matrix is singular")
    return [row[n:] for row in red[:n]]


@dataclass(frozen=True)
class LinearSolution:
    """Outcome of an exact linear solve; status is total over all inputs."""

    status: str  # "unique" | "no_solution" | "non_unique"
    vector: tuple[Fraction, ...] | None = None


def solve_linear(a: Sequence[Sequence], b: Sequence) -> LinearSolution:
    """Solve A x = b exactly by Gaussian elimination over the rationals."""
    a = as_matrix(a)
    bv = [_q(x) for x in b]
    if len(a) != len(bv):
        raise ValueError("incompatible dimensions")
    ncols = len(a[0]) if a else 0
    aug = [a[i] + [bv[i]] for i in range(len(a))]
    red, pivots = _row_echelon(aug)
    if ncols in pivots:
        return LinearSolution("no_solution")
    if len(pivots) < ncols:
        return LinearSolution("non_unique")
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = red[r][ncols]
    return LinearSolution("unique", tuple(x))


def nullspace(rows: Sequence[Sequence]) -> list[tuple[Fraction, ...]]:
    """Basis of the right kernel of the matrix."""
    m = as_matrix(rows)
    if not m:
        return []
    ncols = len(m[0])
    red, pivots = _row_echelon(m)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -red[r][f]
        basis.append(tuple(vec))
    return basis


# ---------------------------------------------------------------------------
# resultants and discriminants

def shifted_multiples(f: BinaryForm, k: int) -> list[list[Fraction]]:
    """Coefficient vectors of f * v0^(k-1-i) * v1^i for i = 0..k-1.

    A monomial factor only shifts coefficients, so vector i is f.coeffs with
    i zeros before and k-1-i zeros after.
    """
    zero = Fraction(0)
    return [[zero] * i + list(f.coeffs) + [zero] * (k - 1 - i) for i in range(k)]


def sylvester_matrix(g: BinaryForm, h: BinaryForm) -> Matrix:
    """Sylvester matrix with deg(h) rows of g-coefficients first."""
    return shifted_multiples(g, h.degree) + shifted_multiples(h, g.degree)


def sylvester_resultant(g: BinaryForm, h: BinaryForm) -> Fraction:
    """Resultant of two binary forms; zero iff they share a projective root."""
    if g.is_zero() or h.is_zero():
        raise PreconditionError("resultant of a zero form is undefined")
    if g.degree < 1 or h.degree < 1:
        raise PreconditionError("resultant needs forms of degree >= 1")
    if g.variables != h.variables:
        raise ValueError("variable mismatch")
    return det_rational(sylvester_matrix(g, h))


def disc_binary_quadratic(h: BinaryForm) -> Fraction:
    """Discriminant q^2 - 4pr of p*v0^2 + q*v0*v1 + r*v1^2."""
    if h.degree != 2:
        raise PreconditionError("discriminant needs a degree-2 binary form")
    p, q, r = h.coeffs
    return q * q - 4 * p * r


def conic_matrix(q: TernaryForm) -> Matrix:
    """Symmetric 3x3 matrix of a ternary quadric (half mixed coefficients)."""
    if q.degree != 2:
        raise PreconditionError("expected a ternary quadric")
    m = [[Fraction(0)] * 3 for _ in range(3)]
    basis = [(2, 0, 0), (0, 2, 0), (0, 0, 2)]
    for i in range(3):
        m[i][i] = q.coefficient(basis[i])
    mixed = {(0, 1): (1, 1, 0), (0, 2): (1, 0, 1), (1, 2): (0, 1, 1)}
    for (i, j), e in mixed.items():
        half = q.coefficient(e) / 2
        m[i][j] = m[j][i] = half
    return m


def conic_det3(q: TernaryForm) -> Fraction:
    """Determinant of the symmetric matrix; zero iff the conic is singular."""
    return det_rational(conic_matrix(q))


def conic_kernel_point(q: TernaryForm) -> tuple[Fraction, ...] | None:
    """Kernel generator of a rank-2 conic (None unless the kernel is a line)."""
    basis = nullspace(conic_matrix(q))
    if len(basis) != 1:
        return None
    return basis[0]


# ---------------------------------------------------------------------------
# matrices of affine-linear ternary forms

@dataclass(frozen=True)
class PolyMatrix:
    """Rectangular matrix of ternary forms of degree <= 1 (zero allowed)."""

    rows: int
    cols: int
    entries: tuple[TernaryForm, ...]  # row-major

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match dimensions")
        variables = self.entries[0].variables if self.entries else None
        for e in self.entries:
            if e.variables != variables:
                raise ValueError("all entries must share one variable triple")
            if not e.is_zero() and e.degree > 1:
                raise ValueError("entries must have degree <= 1")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[TernaryForm]]) -> "PolyMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat = tuple(e for row in rows for e in row)
        return cls(nrows, ncols, flat)

    @property
    def variables(self) -> tuple[str, str, str]:
        return self.entries[0].variables

    def entry(self, i: int, j: int) -> TernaryForm:
        return self.entries[i * self.cols + j]

    def determinant(self) -> TernaryForm:
        """Division-free determinant (subset-memoized Laplace expansion)."""
        if self.rows != self.cols:
            raise PreconditionError("determinant requires a square matrix")
        n = self.rows
        variables = self.variables
        if n == 0:
            return TernaryForm.constant(1, variables)
        # states: column bitmask -> accumulated term map over rows 0..popcount-1
        states: dict[int, TermMap] = {0: {(0, 0, 0): Fraction(1)}}
        for i in range(n):
            nxt: dict[int, TermMap] = {}
            for mask, value in states.items():
                used = mask.bit_count()
                below = 0
                for j in range(n):
                    bit = 1 << j
                    if mask & bit:
                        below += 1
                        continue
                    e = self.entry(i, j)
                    if e.is_zero():
                        continue
                    contrib = mul_terms(value, e.terms)
                    # inversions added: used columns above j
                    if (used - below) % 2:
                        contrib = scale_terms(Fraction(-1), contrib)
                    key = mask | bit
                    nxt[key] = add_terms(nxt[key], contrib) if key in nxt else contrib
            states = nxt
            if not states:
                break
        result = states.get((1 << n) - 1, {})
        degrees = {sum(e) for e in result}
        if len(degrees) > 1:
            raise HomogeneityError("determinant is not homogeneous")
        if not degrees:
            # annotate the zero determinant with the expected degree
            linear_cols = sum(
                1 for j in range(n)
                if any(self.entry(i, j).degree == 1 and not self.entry(i, j).is_zero()
                       for i in range(n)))
            return TernaryForm.zero(linear_cols, variables)
        return TernaryForm(degrees.pop(), variables, result)
