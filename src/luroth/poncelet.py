"""Curves of jumping lines for pencils of binary forms on a smooth conic.

A smooth plane conic is handled through a degree-2 parametrization by the
projective line.  A pencil of degree-(n+1) binary forms on the parametrizing
line determines a degree-n curve in the dual plane: the determinant of an
(n+2)x(n+2) matrix M whose constant columns hold the pencil and whose linear
columns hold the shifted pullback of the moving line (Barth, Math. Ann. 1977).

The curve comes from a closed form of det M.  The line (u, v, w) pulls back to
q = a*s0^2 + b*s0*s1 + l*s1^2 with (a, b, l) = T*(u, v, w), T[k][j] the
coefficient k of p_j.  Modulo q the generators are their values at the roots
x1, x2 of q(1, x), so det M is a constant times l^n times the Bezoutian
(g1(x1)g2(x2) - g1(x2)g2(x1))/(x1 - x2) of g_k(x) = gamma_k(1, x) =
sum_i c_k[i] x^i.  That is a sum of the generators' 2x2 minors
m[d][i] = c1[i+d+1]*c2[i] - c1[i]*c2[i+d+1] times complete symmetric
functions (Helmke & Fuhrmann, Linear Algebra Appl. 1989): with
M_d = sum_i m[d][i] a^i l^(n-d-i) and Q_d those of the roots of
r^2 + b*r + a*l, Q_0 = 1, Q_1 = -b, Q_d = -b*Q_(d-1) - a*l*Q_(d-2),

    G(a, b, l) = sum_(d=0..n) M_d(a, l) * Q_d(b, a*l)

is +-det M identically: the curve is G(T*(u, v, w)).  G has O(n^2) terms,
built by O(n^2) slice operations on the minors, and `forms.substitute_terms`
composes it with T in O(n^3) integer operations: for each elementary factor
of T one Taylor shift per slice of G, and on the standard conic, whose T
swaps b and l, a relabelling alone.

The incidence tests need no determinant.  The columns q*V_(n-1) of M are
independent, so a line is jumping exactly when gamma1 and gamma2, each
reduced in two integer registers, are dependent modulo q; then q divides
the multiples of one member h alone, and some member is divisible by q^2
exactly when q divides h/q, integral for a primitive q (Gauss's lemma).
A chord of two parameters needs no curve: it is jumping exactly when a member
vanishes at both, a 2x2 minor of the generators' values (`jumping_chords`).
Base points are decided once per pencil, by the integer gcd of the
generators' values at a power of two beyond their roots, read back as a
polynomial by its digits (GCDHEU).  The memoized Laplace expansion of
`PolyMatrix.determinant` serves the 6x6 families and `poncelet_matrix`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, reduce
from itertools import cycle, repeat
from math import gcd
from operator import add, mul, sub
from typing import Sequence

from .forms import (BinaryForm, Frozen, PreconditionError, TernaryForm, _by_pullback,
                    _exact_quotient, _mod_q, _primitive, _q, _UNITS, adjugate3,
                    integral_coeffs, integral_row, projective_ints, substitute_terms)
from .linalg import PolyMatrix, normalize_projective, shifted_multiples

PRIMAL_VARS = ("x", "y", "t")
DUAL_VARS = ("u", "v", "w")
PARAM_VARS = ("s0", "s1")


class ConicParam(Frozen):
    """A smooth conic given by a degree-2 parametrization plus its equation;
    the integer coefficient matrix is cached outside ==, hash and pickle."""

    p0: BinaryForm
    p1: BinaryForm
    p2: BinaryForm
    implicit: TernaryForm

    @cached_property
    def _t(self) -> list[list[int]]:
        """T[k][j], coefficient k of p_j, all scaled to integers by one factor."""
        flat = integral_coeffs(self.p0, self.p1, self.p2)[0]
        return [list(flat[k::3]) for k in range(3)]


def make_conic(p0: BinaryForm, p1: BinaryForm, p2: BinaryForm) -> ConicParam:
    """Validate a parametrization and compute the implicit conic equation.

    With t the rows p0.coeffs, p1.coeffs, p2.coeffs, the image of (s0, s1)
    is x = t*m for m = (s0^2, s0*s1, s1^2).  So adj(t)*x = det(t)*m, and the
    equation is y0*y2 - y1^2 at y = adj(t)*x.  det(t) = 0 means dependent
    components, whose image is no smooth conic.
    """
    for p in (p0, p1, p2):
        if p.degree != 2:
            raise PreconditionError("parametrization components must have degree 2")
        if p.variables != p0.variables:
            raise ValueError("parametrization components must share variables")
    flat = integral_coeffs(p0, p1, p2)[0]
    det, adj = adjugate3([flat[3 * j:3 * j + 3] for j in range(3)])
    if det == 0:
        raise PreconditionError(
            "parametrization components are linearly dependent: image is not a smooth conic")
    terms = substitute_terms({(1, 0, 1): 1, (0, 2, 0): -1}, 2, adj)
    return ConicParam(p0, p1, p2, TernaryForm(2, PRIMAL_VARS, terms[max(terms)], terms))


def standard_conic() -> ConicParam:
    """The conic x*y - t^2 = 0 parametrized by (s0^2, s1^2, s0*s1)."""
    p0 = BinaryForm.from_coeffs(PARAM_VARS, [1, 0, 0])
    p1 = BinaryForm.from_coeffs(PARAM_VARS, [0, 0, 1])
    p2 = BinaryForm.from_coeffs(PARAM_VARS, [0, 1, 0])
    return make_conic(p0, p1, p2)


class PonceletPencil(Frozen):
    """Two independent binary forms of degree n+1, n >= 2; the integer
    generators and base-point verdict are cached outside ==, hash and pickle."""

    gamma1: BinaryForm
    gamma2: BinaryForm

    def __post_init__(self):
        if self.gamma1.variables != self.gamma2.variables:
            raise ValueError("pencil generators must share variables")
        if self.gamma1.degree != self.gamma2.degree:
            raise PreconditionError("pencil generators must have equal degree")
        if self.gamma1.degree < 3:
            raise PreconditionError("pencil degree must be at least 3 (n >= 2)")
        if _dependent(*self._ints):
            raise PreconditionError("pencil generators are linearly dependent")

    @property
    def n(self) -> int:
        return self.gamma1.degree - 1

    @cached_property
    def _ints(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Each generator's integer coefficients divided by their content."""
        return tuple(tuple(_primitive(g.nums)) for g in (self.gamma1, self.gamma2))

    @cached_property
    def _base_point_free(self) -> bool:
        """No common root at s0 = 0 (both last coefficients zero), and a
        constant gcd(g1(1, x), g2(1, x)) by `_coprime`."""
        f, g = self._ints
        return bool(f[-1] or g[-1]) and _coprime(f, g)


def _coprime(a: Sequence[int], b: Sequence[int]) -> bool:
    """Whether the primitive ascending integer vectors a, b share no factor of
    positive degree, by GCDHEU (Char, Geddes & Gonnet, J. Symbolic Comput. 1989).

    At xi >= 4 above twice every root of a (or of b), a common factor c has
    |c(xi)| > xi/2, so the symmetric xi-adic digits of gcd(a(xi), b(xi)), made
    primitive, are the gcd if constant or if they divide a and b.  Else xi is
    squared: with a = g*a', b = g*b', the digits are g times a divisor of
    Res(a', b') != 0 once xi > 2*|Res(a', b')|*|g|.
    """
    xi = 4 * min(_root_bound(a), _root_bound(b))
    while True:
        c, h = gcd(*(reduce(lambda v, x: v * xi + x, reversed(p)) for p in (a, b))), []
        while c:
            h.append((c + xi // 2) % xi - xi // 2)
            c = (c - h[-1]) // xi
        h = _primitive(h)
        if len(h) == 1:
            return True
        if _divides(h, a) and _divides(h, b):
            return False
        xi *= xi


def _root_bound(v: Sequence[int]) -> int:
    """A power of two above |r| for each root r of v != 0: Fujiwara's bound, by bit lengths."""
    d = max(k for k, c in enumerate(v) if c)
    top = v[d].bit_length() - 1
    return 2 ** max([0] + [1 - (top - c.bit_length()) // (d - k) for k, c in enumerate(v[:d]) if c])


def _divides(h: Sequence[int], a: Sequence[int]) -> bool:
    """Whether the primitive h, h[-1] != 0, divides a: long division in Z[x] (Gauss)."""
    a, m = list(a), len(h) - 1
    for k in range(len(a) - 1, m - 1, -1):
        c, r = divmod(a[k], h[-1])
        if r:
            return False
        for i, x in enumerate(h):
            a[k - m + i] -= c * x
    return not any(a)


def _dependent(u: Sequence[int], v: Sequence[int]) -> bool:
    """Whether every 2x2 minor of the rows u, v vanishes."""
    k = next((i for i, x in enumerate(u) if x), None)
    return k is None or all(x * v[k] == u[k] * y for x, y in zip(u, v))


def _pullback_ints(conic: ConicParam, line: Sequence) -> list[int]:
    """(a, b, l) = T*line in integers: the pullback's coefficients times a
    nonzero constant, which no incidence verdict depends on."""
    u, v, w = integral_row(line)[0]
    return [r[0] * u + r[1] * v + r[2] * w for r in conic._t]


def _pullback_columns(conic: ConicParam, n: int) -> list[list[TernaryForm]]:
    """Columns of coefficients of q * s0^(n-1-i) * s1^i, linear in (u,v,w)."""
    shifted = [shifted_multiples(p, n) for p in (conic.p0, conic.p1, conic.p2)]
    return [[TernaryForm.from_terms(1, DUAL_VARS, {
                _UNITS[var]: multiples[i][row] for var, multiples in enumerate(shifted)})
             for row in range(n + 2)]
            for i in range(n)]


def poncelet_matrix(conic: ConicParam, pencil: PonceletPencil) -> PolyMatrix:
    """The (n+2)x(n+2) presentation matrix: [gamma1, gamma2, q-shift columns]."""
    n = pencil.n
    columns = [[TernaryForm.constant(c, DUAL_VARS) for c in g.coeffs]
               for g in (pencil.gamma1, pencil.gamma2)] + _pullback_columns(conic, n)
    rows = [[columns[j][i] for j in range(n + 2)] for i in range(n + 2)]
    return PolyMatrix.from_rows(rows)


def _jump_terms(pencil: PonceletPencil) -> dict[tuple[int, int, int], int]:
    """Nonzero integer terms of G(a, b, l) = sum_d M_d(a, l)*Q_d(b, a*l)
    (generators scaled to integers: G times a constant), in O(n^2) slice
    operations.  Q_(beta+2r) has (-1)^(beta+r)*C(beta+r, r)*b^beta*(a*l)^r, so
    with s[d] = (-1)^d*m[d], the minors of (c2, c1) for odd d, row beta of G
    over alpha adds s[beta+2r] shifted by r, times (-1)^r*C(beta+r, r)."""
    n = pencil.n
    c1, c2 = pencil._ints
    rows = [list(map(sub, map(mul, x[d + 1:], y), map(mul, x, y[d + 1:])))
            for d, (x, y) in zip(range(n + 1), cycle(((c1, c2), (c2, c1))))]
    for beta, row in enumerate(rows):  # s[beta] becomes row beta, read no more
        w = 1
        for r in range(1, (n - beta) // 2 + 1):
            w = -w * (beta + r) // r
            row[r:n + 1 - beta - r] = map(add, row[r:n + 1 - beta - r],
                                          map(mul, rows[beta + 2 * r], repeat(w)))
    return {(alpha, beta, n - alpha - beta): c
            for beta, row in enumerate(rows) for alpha, c in enumerate(row) if c}


def poncelet_curve(conic: ConicParam, pencil: PonceletPencil) -> TernaryForm:
    """Lexicographically-monic degree-n curve G(T*(u, v, w)) of jumping lines. G
    is not zero: independent generators leave some chord of the conic not jumping."""
    terms = substitute_terms(_jump_terms(pencil), pencil.n, conic._t)
    return TernaryForm(pencil.n, DUAL_VARS, terms[max(terms)], terms)


def is_base_point_free(pencil: PonceletPencil) -> bool:
    """Whether the generators share no projective root (cached per pencil)."""
    return pencil._base_point_free


def is_jumping_line(conic: ConicParam, pencil: PonceletPencil,
                    line: Sequence) -> bool:
    """Whether det M = 0 at the (nonzero) line: one 2x2 minor of the
    generators' pseudo-remainders modulo the pullback, in O(n) operations."""
    q, ints = _by_pullback(_pullback_ints(conic, line), pencil._ints)
    return _dependent(*(_mod_q(c, q) for c in ints))


def chord_dual(conic: ConicParam, a: Sequence, b: Sequence) -> tuple[Fraction, ...]:
    """Dual coordinates of the chord through the images of two parameters: the
    cross product of the images T^t*(s0^2, s0*s1, s1^2) at `projective_ints`."""
    if len(a) != 2 or len(b) != 2:
        raise ValueError("a parameter of the conic has two coordinates")
    if _dependent(a := projective_ints(a), b := projective_ints(b)):
        raise PreconditionError("chord endpoints must be distinct parameters")
    pa, pb = ([sum(map(mul, column, (x * x, x * y, y * y))) for column in zip(*conic._t)]
              for x, y in (a, b))
    cross = (pa[1] * pb[2] - pa[2] * pb[1],
             pa[2] * pb[0] - pa[0] * pb[2],
             pa[0] * pb[1] - pa[1] * pb[0])
    return normalize_projective(cross)


def jumping_chords(pencil: PonceletPencil, params: Sequence[Sequence]) -> set[tuple[int, int]]:
    """The pairs i < j of parameters whose chord, pulling back to a multiple of
    (a1*s0 - a0*s1)*(b1*s0 - b0*s1), is jumping: [g1(a) g2(a); g1(b) g2(b)] is
    singular.  Each generator is evaluated once per parameter, at its
    `projective_ints`; a repeated parameter is a PreconditionError."""
    ints = [tuple(projective_ints(p)) for p in params]
    if len(set(ints)) < len(ints):
        raise PreconditionError("chord endpoints must be distinct parameters")
    values = [(pencil.gamma1.evaluate(p), pencil.gamma2.evaluate(p)) for p in ints]
    return {(i, j) for i, (a1, a2) in enumerate(values)
            for j, (b1, b2) in enumerate(values[i + 1:], i + 1) if a1 * b2 == a2 * b1}


def singular_jump_criterion(conic: ConicParam, pencil: PonceletPencil,
                            line: Sequence) -> bool:
    """Whether some pencil member is divisible by the square of the pullback.

    Requires a base-point-free pencil, so q divides at most the multiples of
    one member h: gamma1 if q divides it, else r2[j]*gamma1 - r1[j]*gamma2
    if the generators' remainders r1, r2 modulo q are dependent, r1[j] != 0.
    Then some member is divisible by q^2 exactly when q divides h/q.
    """
    if not is_base_point_free(pencil):
        raise PreconditionError("singular-jump criterion requires a base-point-free pencil")
    q, (g1, g2) = _by_pullback(_pullback_ints(conic, line), pencil._ints)
    if not q[2]:  # q = b*s0*s1: modulo q^2 the generators keep two coefficients at each end
        return _dependent(g1[:2] + g1[-2:], g2[:2] + g2[-2:])
    h, r1 = g1, _mod_q(g1, q)
    if any(r1):
        r2 = _mod_q(g2, q)
        if r1[0] * r2[1] != r1[1] * r2[0]:
            return False
        m1, m2 = (r2[0], r1[0]) if r1[0] else (r2[1], r1[1])
        k = gcd(m1, m2)
        h = g2 if not m1 else [m1 // k * x - m2 // k * y for x, y in zip(g1, g2)]
    return not any(_mod_q(_exact_quotient(h, q), q))


# ---------------------------------------------------------------------------
# the three worked 6x6 families (entries transcribed verbatim)

FAMILY_NAMES = ("eps91", "92", "93")


def family_matrix(name: str, param=0) -> PolyMatrix:
    """One of the three worked 6x6 determinantal families over (u, v, w).

    "92" is "93" at c = 0, so it ignores the parameter.  The entries are built
    on integers: the parameter's numerator over its denominator.
    """
    if name not in FAMILY_NAMES:
        raise ValueError(f"unknown family name {name!r}; expected one of {FAMILY_NAMES}")
    p = _q(param)
    n, d = (0, 1) if name == "92" else (p.numerator, p.denominator)
    U, V, W = _UNITS

    def const(c, den=1):
        return TernaryForm(0, DUAL_VARS, den, {(0, 0, 0): c})

    def lin(exp, c=1, den=1):
        return TernaryForm(1, DUAL_VARS, den, {exp: c})

    z = lin(U, 0)
    if name == "eps91":
        rows = [
            [const(1), const(0), lin(V), z, z, z],
            [const(0), const(0), lin(W), lin(V), z, z],
            [const(1), const(0), lin(U, n, d), lin(W), z, lin(V, -1)],
            [const(0), const(1), z, z, lin(U), z],
            [const(2), const(0), z, z, lin(W), lin(U)],
            [const(0), const(1), z, lin(U, -n, d), lin(V, n, d), lin(W)],
        ]
    else:
        rows = [
            [const(0), const(-1), lin(V), z, z, z],
            [const(0), const(0), lin(W), lin(V), z, z],
            [const(1), const(n, d), lin(U), lin(W), z, lin(V, -1)],
            [const(0), const(1), z, z, lin(U), z],
            [const(0), const(0), z, z, lin(W), lin(U)],
            [const(1), const(-n, d), z, lin(U, -1), lin(V), lin(W)],
        ]
    return PolyMatrix.from_rows(rows)
