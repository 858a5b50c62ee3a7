"""Exact linear algebra over the rationals and determinants of form matrices.

Rational matrices are plain lists of Fraction rows.  There is one elimination
routine: Bareiss fraction-free elimination on rows scaled to integers.  The
determinant and the rank take its forward pass; solves and inverses take its
reduced pass (fraction-free Gauss-Jordan) and divide once at the end.  The
3x3 jobs of the conic layer (det3 and the kernel point of a singular conic)
use the adjugate `forms.adjugate3` instead.  The polynomial determinant is
division-free: a Laplace expansion along the rows, each minor memoized by the
columns it still uses, exponential in the size; it serves the worked 6x6
families and `poncelet_matrix`, whose columns `shifted_multiples` builds.

No package path needs the elimination, `sylvester_resultant`,
`TernaryForm.substitute_linear`, `poncelet.poncelet_matrix` or a separate
`nodal.koszul_solve`: the benchmark pins them.  `bench/tracing.py` wraps
`substitute_linear` (line 21), `rank` (23), `sylvester_resultant` (24),
`solve_linear` with its `LinearSolution` (25), `invert` (28), `poncelet_matrix`
(29) and `koszul_solve` (36), and `bench/test_bench.py:122` fails on an absent
one.  `bench/workloads.py` calls `sylvester_resultant` (363), `det_rational`
(378) and `substitute_linear` (380).  `bench/test_bench.py:124` wants
`classify` to call `nodal.verify_node`, which `nodal._last` alone keeps cheap.
"""

from __future__ import annotations

from functools import cache
from fractions import Fraction
from math import lcm, prod
from typing import Sequence

from .forms import (
    BinaryForm,
    Frozen,
    PreconditionError,
    TernaryForm,
    adjugate3,
    integral_row,
    mul_terms,
    projective_ints,
)

Matrix = list[list[Fraction]]


def _bareiss(m: list[list[int]], reduced: bool = False) -> tuple[list[int], int]:
    """Pivot columns and signed last pivot (the determinant, for a nonsingular
    square matrix) of Bareiss (1968) fraction-free elimination, in place.

    Every entry stays an integer minor, so each division by the last pivot is
    exact.  With reduced, the rows above each pivot are cleared too
    (fraction-free Gauss-Jordan): every pivot ends equal to the last one, and
    m divided by it is the reduced row echelon form.
    """
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    prev, sign, pivots = 1, 1, []
    for c in range(ncols):
        r = len(pivots)
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
        if reduced:
            for i in range(r):
                f = m[i][c]
                m[i] = [(p * x - f * y) // prev for x, y in zip(m[i], m[r])]
        prev = p
        pivots.append(c)
    return pivots, sign * prev


def _reduced(rows: Sequence[Sequence]) -> tuple[list[list[int]], list[int]]:
    """Integer multiple of the reduced row echelon form, and its pivot columns."""
    m = [integral_row(row)[0] for row in rows]
    return m, _bareiss(m, reduced=True)[0]


def rank(rows: Sequence[Sequence]) -> int:
    """Rank over the rationals, fraction-free on rows scaled to integers."""
    return len(_bareiss([integral_row(row)[0] for row in rows])[0])


def det_rational(rows: Sequence[Sequence]) -> Fraction:
    """Exact determinant: fraction-free on integer rows, over the row scales."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant requires a square matrix")
    scaled = [integral_row(row) for row in rows]
    pivots, det = _bareiss([ints for ints, _ in scaled])
    return Fraction(det, prod(d for _, d in scaled)) if len(pivots) == n else Fraction(0)


def invert(rows: Sequence[Sequence]) -> Matrix:
    n = len(rows)
    scaled = [integral_row(row) for row in rows]
    m, pivots = _reduced([ints + [d if j == i else 0 for j in range(n)]
                          for i, (ints, d) in enumerate(scaled)])
    if pivots[:n] != list(range(n)):
        raise PreconditionError("matrix is singular")
    return [[Fraction(x, row[i]) for x in row[n:]] for i, row in enumerate(m)]


class LinearSolution(Frozen):
    """Outcome of an exact linear solve; status is total over all inputs."""

    status: str  # "unique" | "no_solution" | "non_unique"
    vector: tuple[Fraction, ...] | None


def solve_linear(a: Sequence[Sequence], b: Sequence) -> LinearSolution:
    """Solve A x = b exactly: fraction-free Gauss-Jordan on [A | b]."""
    if len(a) != len(b):
        raise ValueError("incompatible dimensions")
    ncols = len(a[0]) if a else 0
    m, pivots = _reduced([list(row) + [x] for row, x in zip(a, b)])
    if ncols in pivots:
        return LinearSolution("no_solution", None)
    if len(pivots) < ncols:
        return LinearSolution("non_unique", None)
    return LinearSolution("unique", tuple(Fraction(row[ncols], row[r])
                                          for r, row in enumerate(m[:ncols])))


def normalize_projective(point: Sequence) -> tuple[Fraction, ...]:
    """Clear denominators and common factors; first nonzero entry positive."""
    return tuple(map(Fraction, projective_ints(point)))


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
    p, q, r = h.nums
    return Fraction(q * q - 4 * p * r, h.den * h.den)


def _conic_adjugate(q: TernaryForm) -> tuple[int, list[list[int]], int]:
    """det and adjugate of d times the conic's symmetric matrix (half mixed
    coefficients), an integer matrix of the numerators, and d = 2*den."""
    if q.degree != 2:
        raise PreconditionError("expected a ternary quadric")
    a, b, f, h, g, k = map(q.nums.get, [(2, 0, 0), (0, 2, 0), (0, 0, 2),
                                        (1, 1, 0), (1, 0, 1), (0, 1, 1)], [0] * 6)
    return (*adjugate3([[2 * a, h, g], [h, 2 * b, k], [g, k, 2 * f]]), 2 * q.den)


def conic_det3(q: TernaryForm) -> Fraction:
    """Determinant of the symmetric matrix; zero iff the conic is singular."""
    det, _, d = _conic_adjugate(q)
    return Fraction(det, d ** 3)


def conic_kernel_point(q: TernaryForm) -> tuple[Fraction, ...] | None:
    """Normalized kernel point of a rank-2 conic (None unless the kernel is a
    line): a nonzero column of the adjugate, which is then c*k*k^T."""
    det, adj, _ = _conic_adjugate(q)
    column = next((col for col in zip(*adj) if any(col)), None)
    return None if det or column is None else normalize_projective(column)


# ---------------------------------------------------------------------------
# matrices of affine-linear ternary forms

class PolyMatrix(Frozen):
    """Rectangular matrix of ternary forms of degree <= 1 (zero allowed), each
    column of one declared degree (a zero entry counts with its annotation)."""

    rows: int
    cols: int
    entries: tuple[TernaryForm, ...]  # row-major

    def __post_init__(self):
        if not self.entries:
            raise ValueError("a matrix with no entry has no variable triple")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match dimensions")
        variables = self.entries[0].variables
        for e in self.entries:
            if e.variables != variables:
                raise ValueError("all entries must share one variable triple")
            if e.degree > 1:
                raise ValueError("entries must have degree <= 1")
        for j in range(self.cols):
            if len({e.degree for e in self.entries[j::self.cols]}) > 1:
                raise ValueError(f"column {j} mixes entries of different degrees")

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
        """Division-free determinant, of degree the sum of the column degrees:
        Laplace expansion along the rows, memoized over the unused columns."""
        if self.rows != self.cols:
            raise PreconditionError("determinant requires a square matrix")
        n = self.rows
        d = lcm(*(e.den for e in self.entries))  # d*M is integral; det(d*M) = d^n * det(M)
        rows = [[{x: c * (d // e.den) for x, c in e.nums.items()}
                 for e in self.entries[i * n:i * n + n]] for i in range(n)]

        @cache
        def minor(free: tuple[int, ...]) -> dict:
            """Terms of the minor on the last len(free) rows and the columns free."""
            if not free:
                return {(0, 0, 0): 1}
            out: dict = {}
            for k, j in enumerate(free):
                entry = rows[n - len(free)][j]
                rest = minor(free[:k] + free[k + 1:]) if entry else None
                if rest:
                    if k % 2:
                        entry = {e: -c for e, c in entry.items()}
                    for e, c in mul_terms(entry, rest).items():
                        out[e] = out[e] + c if e in out else c
            return {e: c for e, c in out.items() if c}

        terms = minor(tuple(range(n)))
        minor.cache_clear()  # minor refers to itself: free the minors now, not at gc
        return TernaryForm(sum(self.entry(0, j).degree for j in range(n)), self.variables,
                           d ** n, terms)
