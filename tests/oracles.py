"""Slow, independent oracles and test-only helpers.

- Rational Gaussian elimination: the oracle of the fraction-free elimination
  in `luroth.linalg` (`det_rational`, `rank`, `solve_linear` and `invert`),
  and, through its kernel, of the adjugate's kernel point of a singular conic
  (`conic_kernel_point`).
- The Bezout matrix (`bezout_matrix`) and G from its power sums,
  G = sum_(i<=j) B_ij a^i l^(n-j) P_(j-i), in O(n^3) dict updates
  (`power_sum_jump_terms`): the oracle of `poncelet._jump_terms`, which
  builds G = sum_d M_d*Q_d from the generators' 2x2 minors and the complete
  symmetric functions Q_d.
- The Bezoutian jump test, and the base-point tests: the Bezout determinant,
  exact or modulo a prime (`det_mod`), and the primitive PRS (Brown & Traub,
  JACM 1971) on the window pseudo-remainder `prem`: the oracles of the
  remainder kernel and of the heuristic gcd `poncelet._coprime`; and both
  incidence tests on the `line_pullback` form by `prem`, modulo q and modulo
  q^2 (six 2x2 minors), the oracles of the integer pullback from the conic's
  cached matrix, of the two-register remainder and of the exact-quotient
  singular-jump test.
- Binary-form helpers that only tests use: a rational Euclidean gcd, monic
  scaling, substitution of a 2x2 matrix, and a rational matrix product.
- The homogeneous Horner substitution of a 3x3 matrix into a ternary form,
  O(degree^4) on any numbers, and the shear kernel that `forms.substitute_terms`
  ran before its packed paths, a relabelling and Taylor shifts by prefix sums
  of the slices per elementary factor, O(degree^3) on ints
  (`shear_substitute`): the two oracles of both packed paths of
  `substitute_terms`; Horner, on Fractions throughout, is also the oracle of
  the integer core of `TernaryForm.substitute_linear`.
- Evaluation term by term on Fractions, the oracle of the integer powers
  table of the shared `evaluate`, and the dense binary derivative, an oracle
  of the term-by-term `partial` below.
- The bitmask determinant, row by row over column subsets with inversion
  counts: the oracle of the memoized Laplace expansion of
  `PolyMatrix.determinant`.  And the directional derivative as two scaled
  partials and a sum (`partial_directional`): the oracle of the coefficient
  formula `forms.directional_coeffs` that `nodal.tangent_map` runs.
- The worked 6x6 families with every entry built from Fractions through
  `TernaryForm.constant` and `from_terms`: the oracle of the integer-built
  entries of `poncelet.family_matrix`.
- The conic's symmetric matrix on Fractions, and the chord through the
  Fraction images of two parameters: the oracles of the integer matrix of
  `linalg.conic_det3` and of the integer `poncelet.chord_dual`.
- Three helpers that only tests use, once methods of the value classes: the
  power of a binary form by repeated products (`power`), a conic's image of
  a parameter, component by component (`conic_image`), and a ternary form's
  lexicographically-leading coefficient (`lex_leading_coefficient`).  And
  five more, once part of the package: a form from a map of exponents to
  rationals (`from_terms`, once `BinaryForm.from_terms`), the zero form of a
  degree (`zero_form`), partial derivatives term by term (`partial`), which
  the singular-jump tests take the curve's gradient with, the Fraction terms
  of text by the package's parser (`parse_terms`), and a line's pullback as
  a BinaryForm on Fractions (`line_pullback`).
- The 3x3 adjugate by cyclic indices, cofactor (j, k) from rows j+1, j+2 and
  columns k+1, k+2 modulo 3: the oracle of the written-out `forms.adjugate3`.
- The chord verdict by the curve: `curve.evaluate` at `chord_dual`, the
  oracle of `poncelet.jumping_chords`.
- `int_str_limit`, for setting Python's int-string digit limit in a block.
- The term-by-term parser, one token per literal, name, operator and
  exponent, each factor a Fraction term map multiplied in by `mul_terms`:
  the oracle of the closed-form monomial parser in `luroth.forms`, for term
  maps and for the message and position of every `ParseError`.
- The frozen-dataclass twin of a value: the oracle of `repr`, `==`, `hash`
  and `NodeReport.flags` of the package's one value base, `forms.Frozen`.
- The nodal pipeline on Fractions throughout: `TernaryForm.substitute_linear`,
  a graded split into `BinaryForm`s, `solve_linear` on the transposed
  `sylvester_matrix`, the conic's `conic_det3` and `conic_kernel_point`, and
  `BinaryForm` arithmetic for the discriminant and the tangent map's
  right-hand side: the oracle of the integer nodal core (`fraction_classify`,
  `fraction_tangent_map`).  And the integer Koszul system as one reduced
  `linalg._bareiss` on [Syl(f3, f2)^T | rhs], the oracle of the remainder
  kernel `nodal._solve` (`bareiss_koszul`).
"""

import dataclasses
import re
import sys
from contextlib import contextmanager
from fractions import Fraction
from functools import cache, reduce
from itertools import accumulate, repeat
from math import gcd
from operator import floordiv, itemgetter, mul
from typing import Mapping, Sequence

from luroth import nodal, poncelet
from luroth.forms import (MAX_DEGREE, _MAX_NESTING, BinaryForm, ParseError, PreconditionError,
                          TernaryForm, _UNITS, _check_exponents, _degree, _int_literal, _parse,
                          _too_big, add_terms, integral_row, mul_terms, scale_terms)
from luroth.linalg import (PolyMatrix, _bareiss, conic_det3, conic_kernel_point, det_rational,
                           disc_binary_quadratic, normalize_projective, solve_linear,
                           sylvester_matrix)

TermMap = dict[tuple[int, ...], Fraction]


def _rows(rows):
    return [[Fraction(x) for x in row] for row in rows]


def rational_det(rows) -> Fraction:
    """Determinant by rational elimination with row swaps."""
    m = _rows(rows)
    n = len(m)
    assert all(len(row) == n for row in m)
    det = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                factor = m[i][c] * inv
                m[i] = [x - factor * y for x, y in zip(m[i], m[c])]
    return det


def rational_rank(rows) -> int:
    """Number of pivots of a rational row echelon form."""
    m = _rows(rows)
    ncols = len(m[0]) if m else 0
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, len(m)):
            if m[i][c] != 0:
                factor = m[i][c] / m[r][c]
                m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


def rational_row_echelon(rows):
    """Reduced row echelon form over the rationals and its pivot columns."""
    m = _rows(rows)
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
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


def rational_solve(a, b):
    """(status, vector) of A x = b, with the statuses of `LinearSolution`."""
    ncols = len(a[0]) if a else 0
    red, pivots = rational_row_echelon([list(row) + [x] for row, x in zip(a, b)])
    if ncols in pivots:
        return "no_solution", None
    if len(pivots) < ncols:
        return "non_unique", None
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = red[r][ncols]
    return "unique", tuple(x)


def rational_nullspace(rows):
    """Right-kernel basis: one vector per free column, 1 there."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = rational_row_echelon(rows)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -red[r][f]
        basis.append(tuple(vec))
    return basis


def rational_invert(rows):
    """Inverse of a square matrix, or None when it is singular."""
    n = len(rows)
    red, pivots = rational_row_echelon(
        [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)])
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in red[:n]]


# ---------------------------------------------------------------------------
# the jumping-line curve and the incidence kernels of luroth.poncelet

def bezout_matrix(pencil) -> list[list[int]]:
    """B with (g1(x)g2(y) - g1(y)g2(x))/(x - y) = sum B[i][j] x^i y^j, in O(n^2).

    g_k(x) = gamma_k(1, x), scaled to integers (B times a constant); by
    x^i y^(j+1) of the product with x - y.  Each row carries one trailing
    zero for the j+1 lookup.
    """
    c1, c2 = pencil._ints
    size = len(c1) - 1
    rows = [[0] * (size + 1)]
    for i in range(size):
        above = rows[-1]
        rows.append([above[j + 1] + c1[j + 1] * c2[i] - c1[i] * c2[j + 1]
                     for j in range(size)] + [0])
    return rows[1:]


def power_sum_jump_terms(pencil) -> dict[tuple[int, int, int], int]:
    """Integer terms of G(a, b, l) = sum_(i<=j) B_ij a^i l^(n-j) P_(j-i)(b, a*l),
    P_m the power sums of the roots of r^2 + b*r + a*l (P_0 taken as 1), one
    dict update per (j - i, r, i), O(n^3); zero sums are kept: the oracle of
    `poncelet._jump_terms` from the generators' minors."""
    n = pencil.n
    bez = bezout_matrix(pencil)
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


def bezoutian_is_jumping_line(conic, pencil, line) -> bool:
    """det M = 0 at the line, as G(a, b, l) = 0 at the integer-scaled pullback,
    G by the power sums of the Bezout matrix."""
    a, b, l = integral_row(line_pullback(conic, line).coeffs)[0]
    return sum(c * a ** i * b ** j * l ** k
               for (i, j, k), c in power_sum_jump_terms(pencil).items()) == 0


def prem(f: Sequence[int], p: Sequence[int]) -> list[int]:
    """The len(p) - 1 low coefficients of lead^k * f modulo p, for ascending
    coefficient vectors, lead = p[-1] != 0 and k = len(f) - len(p) + 1 >= 0.

    A window moves down f: each step takes in the next coefficient, times
    the power of lead the window carries, and cancels the top one.
    """
    m, lead = len(p) - 1, p[-1]
    r, power = list(f[len(f) - m:]), 1
    for c in reversed(f[:len(f) - m]):
        top = r[-1]
        r = [lead * x - top * y for x, y in zip([c * power] + r[:-1], p)]
        power *= lead
    return r


def _trim(v: Sequence[int]) -> list[int]:
    return list(v[:max((i + 1 for i, x in enumerate(v) if x), default=0)])


def prs_coprime(a: Sequence[int], b: Sequence[int]) -> bool:
    """Whether the ascending integer vectors a, b, neither zero, share no
    factor of positive degree, by the primitive PRS: Euclid on
    pseudo-remainders, each divided by its content."""
    a, b = sorted((_trim(a), _trim(b)), key=len, reverse=True)
    while len(b) > 1:
        r = _trim(prem(a, b))
        if not r:
            return False
        a, b = b, poncelet._primitive(r)
    return True


def _window_remainders(pencil, q) -> list:
    """The generators modulo q, a power of the pullback, up to nonzero factors,
    by the window pseudo-remainder `prem`: reduced from the s1 end if
    q[-1] != 0, else from the s0 end if q[0] != 0; q = (b*s0*s1)^e leaves
    the e first and e last coefficients."""
    ints = pencil._ints
    if q[-1]:
        return [prem(c, q) for c in ints]
    if q[0]:
        return [prem(c[::-1], q[::-1]) for c in ints]
    if not any(q):
        raise ValueError("the zero vector is not a projective point")
    e = len(q) // 2
    return [c[:e] + c[-e:] for c in ints]


def pullback_is_jumping_line(conic, pencil, line) -> bool:
    """The generators dependent modulo `line_pullback`, a BinaryForm of
    Fractions scaled to integers: the oracle of the integer pullback T*line
    and of the two-register remainder."""
    q = integral_row(line_pullback(conic, line).coeffs)[0]
    return poncelet._dependent(*_window_remainders(pencil, q))


def pullback_singular_jump(conic, pencil, line) -> bool:
    """The generators dependent modulo the square of `line_pullback` (six 2x2
    minors): the oracle of the exact-quotient singular-jump test."""
    a, b, l = integral_row(line_pullback(conic, line).coeffs)[0]
    q2 = [a * a, 2 * a * b, b * b + 2 * a * l, 2 * b * l, l * l]
    return poncelet._dependent(*_window_remainders(pencil, q2))


def bezout_base_point_free(pencil) -> bool:
    """det B != 0 for the square part of the integer Bezout matrix (det B =
    +-Res(gamma1, gamma2)), by Bareiss elimination."""
    return det_rational([row[:-1] for row in bezout_matrix(pencil)]) != 0


def det_mod(rows, p: int) -> int:
    """The determinant of an integer matrix modulo the prime p, by Gaussian
    elimination there: nonzero proves the integer determinant nonzero."""
    m, det = [[x % p for x in row] for row in rows], 1
    for c in range(len(m)):
        pivot = next((i for i in range(c, len(m)) if m[i][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot], det = m[pivot], m[c], -det
        det, inverse = det * m[c][c] % p, pow(m[c][c], -1, p)
        for row in m[c + 1:]:
            factor = row[c] * inverse % p
            row[c:] = [(x - factor * y) % p for x, y in zip(row[c:], m[c][c:])]
    return det % p


def conic_matrix(q: TernaryForm) -> list:
    """Symmetric 3x3 matrix of a ternary quadric (half mixed coefficients), on
    Fractions: the oracle of the integer matrix of `linalg.conic_det3`."""
    if q.degree != 2:
        raise PreconditionError("expected a ternary quadric")
    def c(exp):
        return q.terms.get(exp, Fraction(0))

    a, b, f = c((2, 0, 0)), c((0, 2, 0)), c((0, 0, 2))
    h, g, k = c((1, 1, 0)) / 2, c((1, 0, 1)) / 2, c((0, 1, 1)) / 2
    return [[a, h, g], [h, b, k], [g, k, f]]


def power(f: BinaryForm, k: int) -> BinaryForm:
    """f^k by k products; ValueError for k < 0."""
    if k < 0:
        raise ValueError(f"negative power {k}")
    return reduce(BinaryForm.__mul__, repeat(f, k), BinaryForm(0, f.variables, 1, (1,)))


def conic_image(conic, point) -> tuple[Fraction, Fraction, Fraction]:
    """The image of a parameter, each component evaluated there."""
    return conic.p0.evaluate(point), conic.p1.evaluate(point), conic.p2.evaluate(point)


def lex_leading_coefficient(f: TernaryForm) -> Fraction:
    """The coefficient of the lexicographically-largest exponent, 0 for zero."""
    return Fraction(f.nums[max(f.nums)], f.den) if f.nums else Fraction(0)


def cyclic_adjugate3(m):
    """Determinant and adjugate of a 3x3 matrix by cyclic indices: adj[k][j]
    is the cofactor of m[j][k].  IndexError on fewer than 3 rows or columns."""
    adj = [[m[(j + 1) % 3][(k + 1) % 3] * m[(j + 2) % 3][(k + 2) % 3]
            - m[(j + 1) % 3][(k + 2) % 3] * m[(j + 2) % 3][(k + 1) % 3]
            for j in range(3)] for k in range(3)]
    return sum(m[0][k] * adj[k][0] for k in range(3)), adj


def curve_jumping_chords(conic, pencil, params) -> set:
    """The pairs i < j whose chord lies on the curve of jumping lines: the
    curve evaluated at `chord_dual` of the two parameters."""
    curve = poncelet.poncelet_curve(conic, pencil)
    return {(i, j) for i in range(len(params)) for j in range(i + 1, len(params))
            if curve.evaluate(poncelet.chord_dual(conic, params[i], params[j])) == 0}


def fraction_chord_dual(conic, a, b) -> tuple:
    """The chord through the images of two parameters: the cross product of
    `conic_image` on Fractions, normalized; the oracle of the integer
    `chord_dual`."""
    pa, pb = conic_image(conic, a), conic_image(conic, b)
    return normalize_projective((pa[1] * pb[2] - pa[2] * pb[1], pa[2] * pb[0] - pa[0] * pb[2],
                                 pa[0] * pb[1] - pa[1] * pb[0]))


def _times_linear(terms: Mapping, line) -> dict:
    """terms * (sum of t * x_k over the (unit exponent of x_k, t) pairs in line)."""
    out: dict = {}
    for (i, j, k), c in terms.items():
        for (di, dj, dk), t in line:
            e = (i + di, j + dj, k + dk)
            out[e] = out.get(e, 0) + c * t
    return out


def horner_substitute(terms: Mapping, degree: int, m: Sequence[Sequence]) -> dict:
    """Terms of a ternary form after x_i := L_i = sum_j m[i][j]*x_j.

    Homogeneous Horner, multiplying only by linear forms: sum_a x0^a f_a(x1, x2)
    is (..(f_d*L0 + f_(d-1))*L0 ..) + f_0, each f_a Horner in L1 over L2^k.
    Coefficients may be of any numeric type; ints stay ints.
    """
    l0, l1, l2 = ([(_UNITS[j], m[i][j]) for j in range(3) if m[i][j]] for i in range(3))
    powers = [{(0, 0, 0): 1}]
    for _ in range(degree):
        powers.append(_times_linear(powers[-1], l2))
    out: dict = {}
    for a in range(degree, -1, -1):
        out = _times_linear(out, l0)
        part: dict = {}
        for b in range(degree - a, -1, -1):
            part = _times_linear(part, l1)
            c = terms.get((a, b, degree - a - b))
            if c:
                for e, p in powers[degree - a - b].items():
                    part[e] = part.get(e, 0) + c * p
        for e, p in part.items():
            out[e] = out.get(e, 0) + p
    return {e: c for e, c in out.items() if c}


def _shear_slices(degree: int, i: int, j: int) -> tuple:
    """The layout (i, j) of the exponents of a degree: slices of fixed x_k
    exponent, each by ascending x_j exponent; then the columns of x_i, x_j,
    x_k and x_i + x_k exponents."""
    place = itemgetter(*map((i, j, 3 - i - j).index, range(3)))
    rows = [(degree - h - u, u, h) for h in range(degree + 1) for u in range(degree - h + 1)]
    ei, ej, ek = zip(*rows)
    return tuple(map(place, rows)), ei, ej, ek, tuple(degree - u for u in ej)


def _shear_scale(w, degree: int, *steps) -> list[int]:
    """w entry by entry op x^e, for each step (op, x, column of exponents e)."""
    for op, x, col in steps:
        if x != 1:
            powers = list(accumulate(repeat(x, degree), mul, initial=1))
            w = map(op, w, map(powers.__getitem__, col))
    return list(w)


def _shear_elementary(w, degree: int, i: int, j: int, v, b: int, s: int) -> list[int]:
    """Coefficients w in layout (i, j) after x_i := v[i]*x_i + b*x_j and
    x_h := v[h]*x_h for h != i, divided exactly by s^degree.  In each slice
    x_k^h*x_j^d*p(x_i/x_j), t^m is scaled by b^m*v[j]^(d-m), t shifted by 1
    (d rounds of prefix sums from the top coefficient), and t^m scaled by
    v[i]^m*v[k]^h/b^m."""
    _, ei, ej, ek, eik = _shear_slices(degree, i, j)
    w = _shear_scale(w, degree, (mul, b or 1, ei), (mul, v[j], ej))
    start = 0
    for d in range(degree, -1, -1):
        for top in range(start + d + 1, start + 1, -1) if b else ():
            w[start:top] = accumulate(w[start:top])
        start += d + 1
    k = 3 - i - j
    post = [(mul, v[i], eik)] if v[i] == v[k] else [(mul, v[i], ei), (mul, v[k], ek)]
    return _shear_scale(w, degree, *post, (floordiv, b or 1, ei), (floordiv, s, repeat(degree)))


def _shear_split(m) -> tuple:
    """s > 0, a relabelling and factors (i, j, v, b) of s*m, each x_i :=
    v[i]*x_i + b*x_j, x_h := v[h]*x_h for h != i.  Row by row, the pivot
    column c of the least free entry clears every other column j by
    col_j := a*col_j - b*col_c with a > 0, and a times the old matrix is the
    new one times x_c := a*x_c + b*x_j, x_k := a*x_k.  What is left is a
    relabelling times a diagonal, which joins the first factor unless it is
    the identity; with no factor, s = 1.  ValueError on a singular m."""
    m = [list(row) for row in m]
    pivots, factors, s = [], [], 1
    for row in m:
        free = [c for c in range(3) if row[c] and c not in pivots]
        if not free:
            raise ValueError("singular substitution matrix")
        c = min(free, key=lambda c: abs(row[c]))
        pivots.append(c)
        for j in [j for j in range(3) if j != c and row[j]]:
            g = gcd(row[c], row[j]) * (1 if row[c] > 0 else -1)
            a, b = row[c] // g, row[j] // g
            for r in m:
                r[j] = a * r[j] - b * r[c]
            factors.insert(0, (c, j, tuple(1 if x == j else a for x in range(3)), b))
            s *= a
    d = [m[pivots.index(x)][x] for x in range(3)]
    h = gcd(s, *d)  # d is often s*(1, 1, 1)
    s, d = s // h, [x // h for x in d]
    if d != [1, 1, 1]:
        i, j, v, b = factors.pop(0) if factors else (0, 1, (1, 1, 1), 0)
        factors.insert(0, (i, j, tuple(map(mul, d, v)), b * d[i]))
    place = itemgetter(*map(pivots.index, range(3)))  # exponent q moves to pivots[q]
    return s, place, tuple(factors)


def shear_substitute(terms: Mapping, degree: int, m: Sequence[Sequence[int]]) -> dict:
    """Integer terms of a ternary form after x_i := sum_j m[i][j]*x_j, in
    O(degree^3): a relabelling, then one pass over the slices per shear factor
    of `_shear_split`, the last dividing by s^degree; ValueError on a singular
    m.  The shear kernel `forms.substitute_terms` ran before its packed paths."""
    s, place, factors = _shear_split(m)
    terms = {place(e): c for e, c in terms.items() if c}
    if not factors:
        return terms
    at = factors[0][:2]
    w = list(map(terms.get, _shear_slices(degree, *at)[0], repeat(0)))
    for t, (i, j, v, b) in enumerate(factors, 1):
        if (i, j) != at:
            index = {e: x for x, e in enumerate(_shear_slices(degree, *at)[0])}
            w, at = [w[index[e]] for e in _shear_slices(degree, i, j)[0]], (i, j)
        w = _shear_elementary(w, degree, i, j, v, b, s if t == len(factors) else 1)
    return {e: c for e, c in zip(_shear_slices(degree, *at)[0], w) if c}


def fraction_substitute_linear(f, t):
    """F with x_i := sum_j t[i][j]*x_j by Horner on the Fraction terms and the
    Fraction matrix, with no scaling to integers."""
    m = _rows(t)
    if rational_det(m) == 0:
        raise PreconditionError("coordinate change matrix is singular")
    return TernaryForm(f.degree, f.variables, horner_substitute(f.terms, f.degree, m))


def fraction_evaluate(f, point) -> Fraction:
    """f at the point, summed term by term on Fractions."""
    p = [Fraction(x) for x in point]
    total = Fraction(0)
    for e, c in f.terms.items():
        for x, k in zip(p, e):
            c *= x ** k
        total += c
    return total


def dense_partial(f, var):
    """d f / d var of a BinaryForm of positive degree, on its coefficient list."""
    d = f.degree
    if var == f.variables[0]:
        coeffs = [(d - j) * f.coeffs[j] for j in range(d)]
    else:
        coeffs = [(j + 1) * f.coeffs[j + 1] for j in range(d)]
    return BinaryForm.from_coeffs(f.variables, coeffs)


def bitmask_determinant(matrix):
    """Division-free determinant of a square PolyMatrix, bottom-up over the
    bitmasks of the columns used by the rows so far."""
    if matrix.rows != matrix.cols:
        raise PreconditionError("determinant requires a square matrix")
    n = matrix.rows
    variables = matrix.variables
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
                e = matrix.entry(i, j)
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
    degree = sum(matrix.entry(0, j).degree for j in range(n))
    return TernaryForm(degree, variables, states.get((1 << n) - 1, {}))


def fraction_family_matrix(name: str, param=0) -> PolyMatrix:
    """A worked 6x6 family, each entry built from Fractions."""
    p = Fraction(param)
    U, V, W = _UNITS
    vs = poncelet.DUAL_VARS

    def const(c):
        return TernaryForm.constant(c, vs)

    def lin(exp, c=1):
        return TernaryForm.from_terms(1, vs, {exp: c})

    z = zero_form(TernaryForm, 1, vs)
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


def partial_directional(f, xi):
    """xi0 * d f/dv0 + xi1 * d f/dv1 of a BinaryForm, as scaled partials."""
    f._check_point(xi)
    p0 = partial(f, f.variables[0]).scale(Fraction(xi[0]))
    p1 = partial(f, f.variables[1]).scale(Fraction(xi[1]))
    return p0 + p1


# ---------------------------------------------------------------------------
# form helpers that only tests use

def from_terms(cls, degree: int, variables, terms: Mapping):
    """A BinaryForm or TernaryForm from a map of exponents to rationals.  A
    binary map is checked by `forms._check_exponents`, as `parse_form` and
    `form_from_json` check theirs, then read off as a coefficient list."""
    if cls is TernaryForm:
        return TernaryForm.from_terms(degree, variables, terms)
    _check_exponents(terms, 2, degree)
    return cls(degree, variables, [terms.get((degree - j, j), 0) for j in range(degree + 1)])


def zero_form(cls, degree: int, variables):
    """The zero BinaryForm or TernaryForm of a degree."""
    return from_terms(cls, degree, variables, {})


def partial(f, var: str):
    """d f / d var of a form of positive degree, term by term."""
    if var not in f.variables:
        raise ValueError(f"unknown variable {var!r}")
    if f.degree == 0:
        raise PreconditionError("cannot differentiate a degree-0 form")
    idx = f.variables.index(var)
    # lowering one exponent is injective, so no two terms meet
    return from_terms(type(f), f.degree - 1, f.variables,
                      {e[:idx] + (e[idx] - 1,) + e[idx + 1:]: c * e[idx]
                       for e, c in f.terms.items() if e[idx]})


def parse_terms(text: str, variables: Sequence[str]) -> TermMap:
    """The Fraction terms of polynomial text, by the parser of `parse_form`."""
    den, nums = _parse(text, variables)
    return {e: Fraction(c, den) for e, c in nums.items()}


def line_pullback(conic, line) -> BinaryForm:
    """Binary quadratic whose roots are the parameters of line /\\ conic, on
    Fractions: the oracle of the integer pullback from the conic's matrix."""
    u, v, w = (Fraction(c) for c in line)
    return conic.p0.scale(u) + conic.p1.scale(v) + conic.p2.scale(w)


# ---------------------------------------------------------------------------
# binary-form helpers

def mat_mul(a, b):
    return [[sum((Fraction(x) * Fraction(y) for x, y in zip(row, col)), Fraction(0))
             for col in zip(*b)] for row in a]


def substitute_pair(f, m):
    """f with (v0, v1) replaced by (m00*v0 + m01*v1, m10*v0 + m11*v1)."""
    l0 = BinaryForm.from_coeffs(f.variables, m[0])
    l1 = BinaryForm.from_coeffs(f.variables, m[1])
    out = zero_form(BinaryForm, f.degree, f.variables)
    for j, coef in enumerate(f.coeffs):
        if coef:
            out = out + (power(l0, f.degree - j) * power(l1, j)).scale(coef)
    return out


def v1_multiplicity(f) -> int:
    """Multiplicity of the second variable as a factor (the degree if zero)."""
    return next((j for j, c in enumerate(f.coeffs) if c), f.degree)


def monic(f):
    """f over its first nonzero coefficient (zero stays zero)."""
    lead = next((c for c in f.coeffs if c), None)
    return f if lead is None else f.scale(1 / lead)


def to_univariate(f):
    """Ascending coefficients in x = v0 of f(x, 1), trailing zeros removed."""
    u = [f.coeffs[f.degree - k] for k in range(f.degree + 1)]
    while u and u[-1] == 0:
        u.pop()
    return u


def unidivmod(a, b):
    """Quotient and remainder of ascending rational coefficient lists."""
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    rem = [Fraction(x) for x in a]
    quot = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(rem) >= len(b):
        k = len(rem) - len(b)
        c = rem[-1] / b[-1]
        quot[k] = c
        for i, bc in enumerate(b):
            rem[k + i] -= c * bc
        while rem and rem[-1] == 0:
            rem.pop()
    return quot, rem


def form_gcd(g, h):
    """Monic gcd of two binary forms (zero inputs handled), by rational Euclid."""
    if g.is_zero():
        return monic(h)
    if h.is_zero():
        return monic(g)
    a, b = to_univariate(g), to_univariate(h)
    while b:
        a, b = b, unidivmod(a, b)[1]
    degree = len(a) - 1 + min(v1_multiplicity(g), v1_multiplicity(h))
    coeffs = [Fraction(0)] * (degree + 1)
    for k, c in enumerate(a):
        coeffs[degree - k] = c
    return monic(BinaryForm(degree, g.variables, tuple(coeffs)))


@contextmanager
def int_str_limit(digits: int):
    """Set Python's int-string digit limit inside the block; 0 lifts it."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


# ---------------------------------------------------------------------------
# the term-by-term parser, the oracle of luroth.forms._Parser

# Integers are ASCII digits only: int() would take other Unicode digits, or
# fail on them, so a \w run that starts with one is an unexpected character.
# Spaces and tabs match no group, so finditer skips them.
_TOKEN = re.compile(r"(?P<int>[0-9]+)|(?P<op>[-+*/^()])|(?P<name>\w+)|(?P<bad>[^ \t])")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for match in _TOKEN.finditer(text):
        kind, val, at = match.lastgroup, match.group(), match.start()
        if kind == "bad" or kind == "name" and not (val[0].isalpha() or val[0] == "_"):
            raise ParseError(f"unexpected character {val[0]!r}", at)
        tokens.append((kind, val, at))
    tokens.append(("end", "", len(text)))
    return tokens


def _literal(digits: str, at: int) -> int:
    """The chunked reader of `forms`, its MAX_COEFF_BITS error at the token."""
    try:
        return _int_literal(digits)
    except ParseError:
        raise _too_big(at) from None


class _Parser:
    """Recursive descent over +, -, *, ^ and parentheses; expands on the fly."""

    def __init__(self, text: str, variables: Sequence[str]):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.variables = list(variables)
        self.nvars = len(variables)

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, val, at = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", at)

    def parse(self) -> TermMap:
        terms = self.expr()
        kind, val, at = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {val!r}", at)
        return terms

    def expr(self) -> TermMap:
        kind, val, _ = self.peek()
        negate = False
        if kind == "op" and val in "+-":
            self.next()
            negate = val == "-"
        terms = self.term()
        if negate:
            terms = scale_terms(Fraction(-1), terms)
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                if val == "-":
                    rhs = scale_terms(Fraction(-1), rhs)
                terms = add_terms(terms, rhs)
            else:
                return terms

    def term(self) -> TermMap:
        terms = self.factor()
        while True:
            kind, val, _ = self.peek()
            if not (kind == "op" and val == "*"):
                return terms
            self.next()
            at = self.peek()[2]
            rhs = self.factor()
            if _degree(terms) + _degree(rhs) > MAX_DEGREE:
                raise ParseError(f"term degree above MAX_DEGREE = {MAX_DEGREE}", at)
            terms = mul_terms(terms, rhs)

    def factor(self) -> TermMap:
        kind, val, at = self.peek()
        if kind == "op" and val == "(":
            self.next()
            self.depth += 1
            if self.depth > _MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {_MAX_NESTING}", at)
            inner = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return self._maybe_power(inner)
        if kind == "int":
            self.next()
            num = _literal(val, at)
            kind2, val2, _ = self.peek()
            if kind2 == "op" and val2 == "/":
                self.next()
                kind3, val3, at3 = self.next()
                if kind3 != "int":
                    raise ParseError("expected integer denominator", at3)
                den = _literal(val3, at3)
                if den == 0:
                    raise ParseError("zero denominator", at3)
                coef = Fraction(num, den)
            else:
                coef = Fraction(num)
            zero_exp = (0,) * self.nvars
            return {zero_exp: coef} if coef else {}
        if kind == "name":
            self.next()
            if val not in self.variables:
                raise ParseError(f"unknown variable {val!r}", at)
            idx = self.variables.index(val)
            exp = tuple(1 if i == idx else 0 for i in range(self.nvars))
            return self._maybe_power({exp: Fraction(1)})
        raise ParseError(f"expected a factor, got {val!r}" if val else "unexpected end of input", at)

    def _maybe_power(self, base: TermMap) -> TermMap:
        """base^k: a single term in closed form, a sum by repeated products."""
        kind, val, _ = self.peek()
        if not (kind == "op" and val == "^"):
            return base
        self.next()
        kind, val, at = self.next()
        if kind != "int":
            raise ParseError("expected integer exponent", at)
        digits = val.lstrip("0")
        power = int(digits or "0") if len(digits) <= len(str(MAX_DEGREE)) else MAX_DEGREE + 1
        if max(power, power * _degree(base)) > MAX_DEGREE:
            raise ParseError(f"exponent or degree above MAX_DEGREE = {MAX_DEGREE}", at)
        if len(base) == 1:
            (e, c), = base.items()
            return {tuple(power * x for x in e): c ** power}
        out: TermMap = {(0,) * self.nvars: Fraction(1)}
        for _ in range(power):
            out = mul_terms(out, base)
        return out


def oracle_parse_terms(text: str, variables: Sequence[str]) -> TermMap:
    return _Parser(text, variables).parse()


# ---------------------------------------------------------------------------
# frozen-dataclass twins of the value classes

@cache
def _twin_class(cls: type) -> type:
    # the class's own annotations, in order: the fields `dataclass` would take
    return dataclasses.make_dataclass(cls.__qualname__, list(vars(cls)["__annotations__"]),
                                      frozen=True)


def dataclass_twin(value, hashable: bool = False):
    """The value's fields in a `make_dataclass(..., frozen=True)` class of the
    same name.  With hashable, a read-only map field becomes the frozenset of
    its items, the key `TernaryForm` compares and hashes."""
    cls = _twin_class(type(value))
    fields = [getattr(value, f.name) for f in dataclasses.fields(cls)]
    if hashable:
        fields = [frozenset(v.items()) if isinstance(v, Mapping) else v for v in fields]
    return cls(*fields)


# ---------------------------------------------------------------------------
# the nodal pipeline on Fractions

def _graded_split(quartic, transform, pair):
    """Pieces f0..f4 of the moved quartic sum t^(4-i) * f_i(pair), t last."""
    moved = quartic.substitute_linear(transform)
    coeffs = [[Fraction(0)] * (i + 1) for i in range(5)]
    for (_, b, c), coef in moved.terms.items():
        coeffs[4 - c][b] = coef
    return tuple(BinaryForm(i, pair, tuple(cs)) for i, cs in enumerate(coeffs))


def _fraction_koszul(f2, f3, rhs):
    """(phi, psi) with phi*f3 + psi*f2 = rhs by a rational solve, or None."""
    x = solve_linear(list(zip(*sylvester_matrix(f3, f2))), rhs.coeffs).vector
    pair = f2.variables
    return None if x is None else (BinaryForm.from_coeffs(pair, x[:2]),
                                   BinaryForm.from_coeffs(pair, x[2:]))


def bareiss_koszul(f2: Sequence[int], f3: Sequence[int], rhs: Sequence[int]):
    """The integer numerators of (phi, psi) with phi*f3 + psi*f2 = rhs and their
    denominator, by one reduced `_bareiss` on [Syl(f3, f2)^T | rhs], whose
    columns are f3*v0, f3*v1, f2*v0^2, f2*v0*v1 and f2*v1^2; None when
    Res(f2, f3) = 0."""
    a3, a2 = [0, *f3, 0], [0, 0, *f2, 0, 0]
    m = [[a3[r + 1], a3[r], a2[r + 2], a2[r + 1], a2[r], rhs[r]] for r in range(5)]
    if _bareiss(m, reduced=True)[0] != [0, 1, 2, 3, 4]:
        return None
    x = [row[5] for row in m]
    return x[:2], x[2:], m[4][4]


def _ternary(pieces, t_var, var_order):
    """sum t^k * g_k over (k, g_k) pieces, in the requested variable order."""
    names = (*pieces[0][1].variables, t_var)
    terms: dict = {}
    for k, g in pieces:
        for (a, b), c in g.terms.items():
            e = dict(zip(names, (a, b, k)))
            terms[tuple(e[v] for v in var_order)] = c
    return TernaryForm.from_terms(pieces[0][0] + pieces[0][1].degree, var_order, terms)


def fraction_classify(quartic, point):
    """`nodal.classify` with every step on Fractions; the same NodeError."""
    p = [Fraction(x) for x in point]
    pivot = next(i for i, x in enumerate(p) if x)
    others = [i for i in range(3) if i != pivot]
    columns = [[Fraction(int(r == k)) for r in range(3)] for k in others]
    columns.append([x / p[pivot] for x in p])
    transform = tuple(tuple(columns[c][r] for c in range(3)) for r in range(3))
    variables = quartic.variables
    pair = (variables[others[0]], variables[others[1]])
    f0, f1, f2, f3, f4 = _graded_split(quartic, transform, pair)
    on_curve = f0.is_zero()
    singular = on_curve and f1.is_zero()
    ordinary = singular and disc_binary_quadratic(f2) != 0
    split = _fraction_koszul(f2, f3, f4) if ordinary else None
    report = nodal.NodeReport(on_curve, singular, ordinary, split is not None)
    if not report.all_ok():
        raise nodal.NodeError(f"node verification failed: {report.flags()}", report)
    dec = nodal.NodeDecomposition(transform, pair, variables[pivot], variables,
                                  f2, f3, f4, split)
    phi, psi = split
    one = BinaryForm.from_coeffs(pair, [1])
    conic = _ternary(((2, one), (1, phi.scale(2)), (0, -psi)), dec.t_var, variables)
    det3 = conic_det3(conic)
    data = nodal.AssociatedConicData(phi, psi, conic, det3,
                                     disc_binary_quadratic(phi * phi + psi))
    kernel = conic_kernel_point(conic) if det3 == 0 else None
    return nodal.NodalQuarticAnalysis(report, dec, data, det3 == 0, kernel)


def fraction_tangent_map(dec, data, direction):
    """`nodal.tangent_map` with every step on Fractions."""
    g0, g1, g2, g3, g4 = _graded_split(direction, dec.transform, dec.pair)
    if not g0.is_zero():
        raise PreconditionError("direction quartic does not vanish at the node")
    disc = disc_binary_quadratic(dec.f2)
    (p, q, r), (a, b) = dec.f2.coeffs, g1.coeffs
    xi = ((2 * r * a - q * b) / disc, (2 * p * b - q * a) / disc)
    rhs = (g4 - (g3 + partial_directional(dec.f4, xi)) * data.phi
           - (g2 + partial_directional(dec.f3, xi)) * data.psi)
    phi_dot, psi_dot = _fraction_koszul(dec.f2, dec.f3, rhs)
    velocity = _ternary(((1, phi_dot.scale(2)), (0, -psi_dot)), dec.t_var, dec.original_vars)
    return nodal.TangentMapResult(xi, phi_dot, psi_dot, velocity)
