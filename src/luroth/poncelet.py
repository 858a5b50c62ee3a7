"""Curves of jumping lines for pencils of binary forms on a smooth conic.

A smooth plane conic is handled through a degree-2 parametrization by the
projective line.  A pencil of degree-(n+1) binary forms on the parametrizing
line determines a degree-n curve in the dual plane: the determinant of an
(n+2)x(n+2) matrix M whose constant columns hold the pencil and whose linear
columns hold the shifted pullback of the moving line (Barth, Math. Ann. 1977).

The curve comes from a closed form of det M.  The line (u, v, w) pulls back to
q = a*s0^2 + b*s0*s1 + l*s1^2 with (a, b, l) = T*(u, v, w), T[k][j] the
coefficient k of p_j.  Modulo q the generators are their values at the roots
x1, x2 of q(1, x), so det M is a constant times l^n * Bez(x1, x2) for the
pencil's Bezout matrix, Bez(x, y) = (g1(x)g2(y) - g1(y)g2(x))/(x - y) =
sum B_ij x^i y^j.  With P_m the power sums of the roots of r^2 + b*r + a*l,

    G(a, b, l) = sum_i B_ii a^i l^(n-i) + sum_(i<j) B_ij a^i l^(n-j) P_(j-i)

is +-det M identically: the curve is G(T*(u, v, w)), and a line is jumping
when G vanishes at its pullback; det B = +-Res(gamma1, gamma2) decides
base-point freeness.  The bitmask determinant of `poncelet_matrix` serves
only the worked 6x6 families and the test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence

from .forms import (BinaryForm, PreconditionError, TernaryForm, _q, _UNITS,
                    substitute_terms)
from .linalg import (
    PolyMatrix,
    det_rational,
    integral_row,
    nullspace,
    rank,
    shifted_multiples,
)

PRIMAL_VARS = ("x", "y", "t")
DUAL_VARS = ("u", "v", "w")
PARAM_VARS = ("s0", "s1")


def projectively_equal(a: Sequence, b: Sequence) -> bool:
    a = [_q(x) for x in a]
    b = [_q(x) for x in b]
    return all(a[i] * b[j] == a[j] * b[i] for i in range(len(a)) for j in range(i))


def normalize_projective(point: Sequence) -> tuple[Fraction, ...]:
    """Clear denominators and common factors; first nonzero entry positive."""
    ints = integral_row(point)[0]
    if not any(ints):
        raise ValueError("the zero vector is not a projective point")
    g = gcd(*ints)
    ints = [x // g for x in ints]
    first = next(x for x in ints if x)
    if first < 0:
        ints = [-x for x in ints]
    return tuple(Fraction(x) for x in ints)


@dataclass(frozen=True)
class ConicParam:
    """A smooth conic given by a degree-2 parametrization plus its equation."""

    p0: BinaryForm
    p1: BinaryForm
    p2: BinaryForm
    implicit: TernaryForm

    @property
    def param_vars(self) -> tuple[str, str]:
        return self.p0.variables

    def image(self, point: Sequence) -> tuple[Fraction, Fraction, Fraction]:
        return (self.p0.evaluate(point), self.p1.evaluate(point),
                self.p2.evaluate(point))


def make_conic(p0: BinaryForm, p1: BinaryForm, p2: BinaryForm,
               primal_vars: tuple[str, str, str] = PRIMAL_VARS) -> ConicParam:
    """Validate a parametrization and compute the implicit conic equation."""
    for p in (p0, p1, p2):
        if p.degree != 2:
            raise PreconditionError("parametrization components must have degree 2")
        if p.variables != p0.variables:
            raise ValueError("parametrization components must share variables")
    coeff_rows = [list(p.coeffs) for p in (p0, p1, p2)]
    if rank(coeff_rows) < 3:
        raise PreconditionError(
            "parametrization components are linearly dependent: image is not a smooth conic")
    # a ternary quadric vanishing on the image: 6 unknowns, one per quadric monomial
    monomials = [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)]
    ps = [p0, p1, p2]
    columns = []
    for (i, j, k) in monomials:
        prod = BinaryForm.from_coeffs(p0.variables, [1])
        for idx, e in enumerate((i, j, k)):
            for _ in range(e):
                prod = prod * ps[idx]
        columns.append(list(prod.coeffs))
    system = [[columns[c][r] for c in range(6)] for r in range(5)]
    kernel = nullspace(system)
    if len(kernel) != 1:
        raise PreconditionError("parametrization image is not a smooth conic")
    coeffs = kernel[0]
    implicit = TernaryForm.from_terms(
        2, primal_vars, {m: c for m, c in zip(monomials, coeffs)}).lex_normalized()
    return ConicParam(p0, p1, p2, implicit)


def standard_conic(param_vars: tuple[str, str] = PARAM_VARS,
                   primal_vars: tuple[str, str, str] = PRIMAL_VARS) -> ConicParam:
    """The conic x*y - t^2 = 0 parametrized by (s0^2, s1^2, s0*s1)."""
    p0 = BinaryForm.from_coeffs(param_vars, [1, 0, 0])
    p1 = BinaryForm.from_coeffs(param_vars, [0, 0, 1])
    p2 = BinaryForm.from_coeffs(param_vars, [0, 1, 0])
    return make_conic(p0, p1, p2, primal_vars)


@dataclass(frozen=True)
class PonceletPencil:
    """Two independent binary forms of degree n+1, n >= 2."""

    gamma1: BinaryForm
    gamma2: BinaryForm

    def __post_init__(self):
        if self.gamma1.variables != self.gamma2.variables:
            raise ValueError("pencil generators must share variables")
        if self.gamma1.degree != self.gamma2.degree:
            raise PreconditionError("pencil generators must have equal degree")
        if self.gamma1.degree < 3:
            raise PreconditionError("pencil degree must be at least 3 (n >= 2)")
        if rank([self.gamma1.coeffs, self.gamma2.coeffs]) < 2:
            raise PreconditionError("pencil generators are linearly dependent")

    @property
    def n(self) -> int:
        return self.gamma1.degree - 1


def line_pullback(conic: ConicParam, line: Sequence) -> BinaryForm:
    """Binary quadratic whose roots are the parameters of line /\\ conic."""
    u, v, w = (_q(c) for c in line)
    return conic.p0.scale(u) + conic.p1.scale(v) + conic.p2.scale(w)


def _pullback_columns(conic: ConicParam, n: int,
                      dual_vars: tuple[str, str, str]) -> list[list[TernaryForm]]:
    """Columns of coefficients of q * s0^(n-1-i) * s1^i, linear in (u,v,w)."""
    shifted = [shifted_multiples(p, n) for p in (conic.p0, conic.p1, conic.p2)]
    return [[TernaryForm.from_terms(1, dual_vars, {
                _UNITS[var]: multiples[i][row] for var, multiples in enumerate(shifted)})
             for row in range(n + 2)]
            for i in range(n)]


def poncelet_matrix(conic: ConicParam, pencil: PonceletPencil,
                    dual_vars: tuple[str, str, str] = DUAL_VARS) -> PolyMatrix:
    """The (n+2)x(n+2) presentation matrix: [gamma1, gamma2, q-shift columns]."""
    n = pencil.n
    const_cols = [
        [TernaryForm.constant(c, dual_vars) for c in pencil.gamma1.coeffs],
        [TernaryForm.constant(c, dual_vars) for c in pencil.gamma2.coeffs],
    ]
    columns = const_cols + _pullback_columns(conic, n, dual_vars)
    rows = [[columns[j][i] for j in range(n + 2)] for i in range(n + 2)]
    return PolyMatrix.from_rows(rows)


class DegeneratePencilError(PreconditionError):
    """The presentation determinant vanishes identically."""


def _bezout_matrix(pencil: PonceletPencil) -> list[list[int]]:
    """B with (g1(x)g2(y) - g1(y)g2(x))/(x - y) = sum B[i][j] x^i y^j, in O(n^2).

    g_k(x) = gamma_k(1, x), scaled to integers (B times a constant); by
    x^i y^(j+1) of the product with x - y.  Each row carries one trailing
    zero for the j+1 lookup.
    """
    c1, c2 = (integral_row(g.coeffs)[0] for g in (pencil.gamma1, pencil.gamma2))
    size = len(c1) - 1
    rows = [[0] * (size + 1)]
    for i in range(size):
        above = rows[-1]
        rows.append([above[j + 1] + c1[j + 1] * c2[i] - c1[i] * c2[j + 1]
                     for j in range(size)] + [0])
    return rows[1:]


def _jump_terms(pencil: PonceletPencil) -> dict[tuple[int, int, int], int]:
    """Integer terms of G(a, b, l) (generators scaled to integers: G times a constant)."""
    n = pencil.n
    bez = _bezout_matrix(pencil)
    # power[m][r]: coefficient of b^(m-2r) (a*l)^r in P_m
    power = [[2], [-1]]
    for m in range(2, n + 1):
        power.append([-x - y for x, y in zip(power[m - 1] + [0], [0] + power[m - 2])])
    weights = [[1]] + power[1:]  # the diagonal sum carries no power sum
    terms: dict[tuple[int, int, int], int] = {}
    for d, weight in enumerate(weights):  # d = j - i
        for r, c in enumerate(weight):
            for i in range(n + 1 - d):
                e = (i + r, d - 2 * r, n - i - d + r)
                terms[e] = terms.get(e, 0) + bez[i][i + d] * c
    return terms


def poncelet_curve(conic: ConicParam, pencil: PonceletPencil,
                   dual_vars: tuple[str, str, str] = DUAL_VARS) -> TernaryForm:
    """Degree-n curve G(T*(u, v, w)) of jumping lines, lexicographically-monic."""
    flat = integral_row([c for p in (conic.p0, conic.p1, conic.p2) for c in p.coeffs])[0]
    t = [flat[k::3] for k in range(3)]  # t[k][j]: coefficient k of p_j
    terms = substitute_terms(_jump_terms(pencil), pencil.n, t)
    if not terms:
        raise DegeneratePencilError("pencil determinant vanishes identically")
    lead = terms[max(terms)]
    return TernaryForm(pencil.n, dual_vars, {e: Fraction(c, lead) for e, c in terms.items()})


def is_base_point_free(pencil: PonceletPencil) -> bool:
    """Whether the generators share no root: det B = +-Res(gamma1, gamma2) != 0."""
    return det_rational([row[:-1] for row in _bezout_matrix(pencil)]) != 0


def is_jumping_line(conic: ConicParam, pencil: PonceletPencil,
                    line: Sequence) -> bool:
    """Whether the restriction of the pencil modulo the line pullback drops rank.

    That is det M = 0 at the line, decided as G = 0 at the pullback's
    coefficients (scaled to integers, which keeps the zero set).
    """
    a, b, l = integral_row(line_pullback(conic, line).coeffs)[0]
    return sum(c * a ** i * b ** j * l ** k
               for (i, j, k), c in _jump_terms(pencil).items()) == 0


def chord_dual(conic: ConicParam, a: Sequence, b: Sequence) -> tuple[Fraction, ...]:
    """Dual coordinates of the chord through the images of two parameters."""
    if projectively_equal(a, b):
        raise PreconditionError("chord endpoints must be distinct parameters")
    pa = conic.image(a)
    pb = conic.image(b)
    cross = (pa[1] * pb[2] - pa[2] * pb[1],
             pa[2] * pb[0] - pa[0] * pb[2],
             pa[0] * pb[1] - pa[1] * pb[0])
    return normalize_projective(cross)


def singular_jump_criterion(conic: ConicParam, pencil: PonceletPencil,
                            line: Sequence) -> bool:
    """Whether some pencil member is divisible by the square of the pullback.

    Requires a base-point-free pencil; decided over the integers by the rank
    of the generators' classes modulo q^2 times lower-degree forms.
    """
    if not is_base_point_free(pencil):
        raise PreconditionError("singular-jump criterion requires a base-point-free pencil")
    q2 = line_pullback(conic, line).power(2)
    multiples = shifted_multiples(q2, max(pencil.n - 2, 0))
    generators = [pencil.gamma1.coeffs, pencil.gamma2.coeffs]
    return rank(multiples + generators) <= rank(multiples) + 1


# ---------------------------------------------------------------------------
# the three worked 6x6 families (entries transcribed verbatim)

FAMILY_NAMES = ("eps91", "92", "93")


def family_matrix(name: str, param=0,
                  dual_vars: tuple[str, str, str] = DUAL_VARS) -> PolyMatrix:
    """One of the three worked 6x6 determinantal families over (u, v, w).

    "92" is "93" at c = 0, so it ignores the parameter.
    """
    if name not in FAMILY_NAMES:
        raise ValueError(f"unknown family name {name!r}; expected one of {FAMILY_NAMES}")
    p = _q(param)
    U, V, W = _UNITS

    def const(c):
        return TernaryForm.constant(c, dual_vars)

    def lin(exp, c=1):
        return TernaryForm.from_terms(1, dual_vars, {exp: c})

    z = TernaryForm.zero(1, dual_vars)
    if name == "eps91":
        rows = [
            [const(1), const(0), lin(V), z, z, z],
            [const(0), const(0), lin(W), lin(V), z, z],
            [const(1), const(0), lin(U, p), lin(W), z, lin(V, -1)],
            [const(0), const(1), z, z, lin(U), z],
            [const(2), const(0), z, z, lin(W), lin(U)],
            [const(0), const(1), z, lin(U, -p), lin(V, p), lin(W)],
        ]
    else:
        c = p if name == "93" else Fraction(0)
        rows = [
            [const(0), const(-1), lin(V), z, z, z],
            [const(0), const(0), lin(W), lin(V), z, z],
            [const(1), const(c), lin(U), lin(W), z, lin(V, -1)],
            [const(0), const(1), z, z, lin(U), z],
            [const(0), const(0), z, z, lin(W), lin(U)],
            [const(1), const(-c), z, lin(U, -1), lin(V), lin(W)],
        ]
    return PolyMatrix.from_rows(rows)


def family_curve(name: str, param=0,
                 dual_vars: tuple[str, str, str] = DUAL_VARS) -> TernaryForm:
    """Determinant of a family matrix, normalized lexicographically-monic."""
    det = family_matrix(name, param, dual_vars).determinant()
    if det.is_zero():
        raise DegeneratePencilError(f"family {name!r} determinant vanishes at this parameter")
    return det.lex_normalized()
