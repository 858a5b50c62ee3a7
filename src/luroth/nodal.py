"""Analysis of plane quartics with an ordinary node.

Pipeline: move the node to the last coordinate point by a deterministic
change of coordinates and split the equation as t^2*f2 + t*f3 + f4.  The
node is admissible exactly when Res(f2, f3) != 0, that is when the Koszul
system f4 = phi*f3 + psi*f2 is uniquely solvable; the same solve yields
linear phi and quadratic psi.  Type II means the conic t^2 + 2*t*phi - psi
is singular, which is when disc(phi^2 + psi) = 0; its kernel point is the
residual line's tangency point.

The pipeline runs on integers.  The node's integers, `forms.projective_ints`,
are the transform's last column p/p[pivot] times lam; with the quartic's
numerators over d, the binomial kernel `_pieces` gives the pieces
F_i = d*lam^(4-i)*f_i, and `_solve` solves phi*(lam*F3) + psi*F2 = lam^2*F4 by
remainders modulo F2: Cramer's rule on the two-register pseudo-remainders
`poncelet` uses too, then one exact division for psi.  Each output form takes
its integer numerators over one denominator, reduced by one gcd.
`tangent_map` moves the direction's numerators by the same kernel and solves
by `_solve`.  det3 is -disc(phi^2 + psi)/4, the bridge `verify` replays, from
the discriminant's integers.

`verify_node` alone moves the node and solves, once per call; its report
carries the decomposition, which `classify` reads, and `normalize_at_node`
adds two `NodeError`s.  `associated_conic` and `tangent_map` read the
numerators of the decomposition's and the conic data's forms.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, repeat
from math import gcd
from operator import itemgetter, mul
from typing import Sequence

from .forms import (BinaryForm, Frozen, PreconditionError, TernaryForm, _by_pullback,
                    _exact_quotient, _mod_q, _set, directional_coeffs, integral_coeffs,
                    integral_row, mul_coeffs, projective_ints)
from .linalg import conic_kernel_point, disc_binary_quadratic

Transform = tuple[tuple[Fraction, ...], ...]
_ZERO, _ONE = Fraction(0), Fraction(1)


class NodeError(PreconditionError):
    """The given point is not an admissible ordinary node of the quartic.

    report holds the node flags, at least one of them false.
    """

    def __init__(self, message: str, report: NodeReport):
        super().__init__(message)
        self.report = report


class NodeReport(Frozen):
    on_curve: bool
    singular: bool
    ordinary: bool
    admissible: bool

    def all_ok(self) -> bool:
        return self.on_curve and self.singular and self.ordinary and self.admissible

    def flags(self) -> dict:
        return dict(zip(self._fields, self._values(self)))


class NodeDecomposition(Frozen):
    """Coordinate change plus the graded pieces of the normalized quartic.

    transform sends the last coordinate point to the node; pair holds the two
    variables of f2, f3, f4 and t_var the variable playing the cone direction.
    split is (phi, psi) from the Koszul solve that made the node admissible, or None.
    """

    transform: Transform
    pair: tuple[str, str]
    t_var: str
    original_vars: tuple[str, str, str]
    f2: BinaryForm
    f3: BinaryForm
    f4: BinaryForm
    split: tuple[BinaryForm, BinaryForm] | None


class AssociatedConicData(Frozen):
    phi: BinaryForm
    psi: BinaryForm
    conic: TernaryForm
    det3: Fraction
    disc_binary: Fraction  # discriminant of phi^2 + psi


class NodalQuarticAnalysis(Frozen):
    report: NodeReport
    decomposition: NodeDecomposition
    conic_data: AssociatedConicData
    type_two: bool
    conic_singular_point: tuple[Fraction, ...] | None


class TangentMapResult(Frozen):
    xi: tuple[Fraction, Fraction]
    phi_dot: BinaryForm
    psi_dot: BinaryForm
    conic_velocity: TernaryForm


def _pieces(form: TernaryForm, column: Sequence[int], pivot: int) -> tuple[list, int]:
    """Integer pieces F0..F4 of the form at the node, F_i = d*lam^(4-i)*f_i over its
    denominator d.  For (c0, c1, lam) the column on o0, o1 and the pivot p, x_o0 = y0 + c0*t,
    x_o1 = y1 + c1*t and x_p = lam*t, so c*x_o0^i*x_o1^j*x_p^k adds, by the binomial theorem,
    c*lam^k*C(i,a)*c0^(i-a)*C(j,b)*c1^(j-b) to F_(a+b)[b].  Row i of s0 holds (a, C(i,a)*c0^(i-a))
    from a = i down, by the factor c0*a/(i-a+1); for c0 = 0, a = i alone: a unit node relabels."""
    n, (o0, o1) = form.degree, (i for i in range(3) if i != pivot)
    s0, s1 = [], []
    for s, rows in (column[o0], s0), (column[o1], s1):
        for i in range(n + 1):
            rows.append(row := [(i, 1)])
            for a in range(i, 0, -1) if s else ():
                row.append((a - 1, row[-1][1] * s * a // (i - a + 1)))
    lams = list(accumulate(repeat(column[pivot], n), mul, initial=1))
    pieces = [[0] * (i + 1) for i in range(n + 1)]
    for e, c in form.nums.items():
        c *= lams[e[pivot]]
        ys = s1[e[o1]]
        for a, x in s0[e[o0]]:
            x *= c
            for b, y in ys:
                pieces[a + b][b] += x * y
    return pieces, form.den


def _solve(f2: Sequence[int], f3: Sequence[int], rhs: Sequence[int]):
    """Numerators of (phi, psi) with phi*f3 + psi*f2 = rhs, f2 != 0, over one
    denominator; None when Res(f2, f3) = 0.  Modulo q = f2/c, primitive, the
    system is 2x2 in phi: Cramer's rule on the remainders of f3*v0, f3*v1 and
    rhs.  q divides det*(rhs - phi*f3), with integral quotient psi*c*det (Gauss)."""
    q, moved = _by_pullback(f2, vectors := ([*f3, 0], [0, *f3], rhs))
    (a0, a1), (b0, b1), (r0, r1) = (_mod_q(x, q) for x in moved)
    if not (det := a0 * b1 - a1 * b0):
        return None
    x0, x1 = r0 * b1 - r1 * b0, a0 * r1 - a1 * r0
    h = [det * z - x0 * x - x1 * y for x, y, z in zip(*moved)]
    psi = _exact_quotient(h, q)
    c = gcd(*f2)
    return [c * x0, c * x1], psi if moved is vectors else psi[::-1], c * det


def _assemble(pieces: Sequence[Sequence[int]], den: int, pair: tuple[str, str], t_var: str,
              var_order: tuple[str, str, str]) -> TernaryForm:
    """sum t^k * g_k/den in the requested variable order, for the integer
    coefficient lists g_k of binary forms in pair, from the top k down to 0."""
    names = (*pair, t_var)
    if sorted(var_order) != sorted(names):
        raise ValueError("new variable triple must be a permutation of the old one")
    place, top = itemgetter(*[names.index(v) for v in var_order]), len(pieces) - 1
    terms = {place((len(g) - 1 - j, j, top - i)): c
             for i, g in enumerate(pieces) for j, c in enumerate(g) if c}
    return TernaryForm(top + len(pieces[0]) - 1, var_order, den, terms)


def verify_node(quartic: TernaryForm, point: Sequence) -> NodeReport:
    """Local flags at a rational point: on the curve, singular, ordinary node, and
    admissible (Res(f2, f3) != 0: the Koszul system for (phi, psi) is uniquely solvable).
    The report carries the graded pieces in node-centered coordinates as `_dec`,
    outside ==, hash, repr and pickle."""
    if quartic.is_zero() or quartic.degree != 4:
        raise PreconditionError("expected a nonzero quartic")
    if len(point := tuple(point)) != 3:
        raise ValueError("a point of the plane has three coordinates")
    column = projective_ints(point)  # column/lam = p/p[pivot], lam > 0
    pivot = next(i for i, x in enumerate(column) if x)
    lam = column[pivot]
    others = [i for i in range(3) if i != pivot]
    transform = tuple((_ONE if r == others[0] else _ZERO, _ONE if r == others[1] else _ZERO,
                       Fraction(x, lam)) for r, x in enumerate(column))
    variables = quartic.variables
    pair = (variables[others[0]], variables[others[1]])
    (f0, f1, f2, f3, f4), d = _pieces(quartic, column, pivot)
    on_curve = not f0[0]
    singular = on_curve and not any(f1)
    ordinary = singular and f2[1] * f2[1] != 4 * f2[0] * f2[2]
    sol = _solve(f2, [lam * x for x in f3], [lam * lam * x for x in f4]) if ordinary else None
    split = sol and (BinaryForm(1, pair, sol[2], sol[0]), BinaryForm(2, pair, sol[2], sol[1]))
    report = NodeReport(on_curve, singular, ordinary, sol is not None)
    _set(report, "_dec", NodeDecomposition(
        transform, pair, variables[pivot], variables, BinaryForm(2, pair, d * lam * lam, f2),
        BinaryForm(3, pair, d * lam, f3), BinaryForm(4, pair, d, f4), split))
    return report


def normalize_at_node(quartic: TernaryForm, point: Sequence) -> NodeDecomposition:
    """Deterministic normalization sending the node to the last coordinate point.

    The pivot is the first nonzero coordinate of the node; the other two
    standard vectors keep their order, so the decomposition is reproducible.
    """
    report = verify_node(quartic, point)
    if not report.singular:
        raise NodeError("the point is not a singular point of the quartic", report)
    if not report.ordinary:
        raise NodeError("the singular point is not an ordinary node", report)
    return report._dec


def assemble_quartic(f2: BinaryForm, f3: BinaryForm, f4: BinaryForm,
                     t_var: str, var_order: tuple[str, str, str]) -> TernaryForm:
    """t^2*f2 + t*f3 + f4 as a ternary quartic in the requested variable order."""
    nums, d = integral_coeffs(f2, f3, f4)
    k, m = f2.degree + 1, f2.degree + f3.degree + 2
    return _assemble((nums[:k], nums[k:m], nums[m:]), d, f2.variables, t_var, var_order)


def koszul_solve(f2: BinaryForm, f3: BinaryForm,
                 rhs: BinaryForm) -> tuple[BinaryForm, BinaryForm]:
    """Unique (phi linear, psi quadratic) with phi*f3 + psi*f2 = rhs; needs Res(f2, f3) != 0."""
    if (f2.degree, f3.degree, rhs.degree) != (2, 3, 4):
        raise PreconditionError("the Koszul system needs degrees 2, 3 and 4")
    ints = integral_coeffs(f2, f3, rhs)[0]
    if f2.is_zero() or (sol := _solve(ints[:3], ints[3:7], ints[7:])) is None:
        raise PreconditionError("Koszul system is singular: f2 and f3 share a projective root")
    return BinaryForm(1, f2.variables, sol[2], sol[0]), BinaryForm(2, f2.variables, sol[2], sol[1])


def associated_conic(dec: NodeDecomposition) -> AssociatedConicData:
    """The unique conic t^2 + 2*t*phi - psi through the node's contact points.

    With (phi, psi) = (a, b)/e, phi^2 + psi is (c0, c1, c2)/e^2 for
    c = a*a + e*b, and det3 is -disc(phi^2 + psi)/4, the bridge `verify` replays.
    """
    phi, psi = dec.split or koszul_solve(dec.f2, dec.f3, dec.f4)
    (a0, a1, b0, b1, b2), e = integral_coeffs(phi, psi)
    c0, c1, c2 = a0 * a0 + e * b0, 2 * a0 * a1 + e * b1, a1 * a1 + e * b2
    disc = c1 * c1 - 4 * c0 * c2
    conic = _assemble(([e], [2 * a0, 2 * a1], [-b0, -b1, -b2]), e, dec.pair, dec.t_var,
                      dec.original_vars)
    return AssociatedConicData(phi, psi, conic, Fraction(-disc, 4 * e ** 4), Fraction(disc, e ** 4))


def classify(quartic: TernaryForm, point: Sequence) -> NodalQuarticAnalysis:
    """Full nodal analysis; the verdict is type II exactly when det3 = 0."""
    report = verify_node(quartic, point)
    if not report.all_ok():
        raise NodeError(f"node verification failed: {report.flags()}", report)
    dec = report._dec
    data = associated_conic(dec)
    type_two = data.det3 == 0
    singular_point = conic_kernel_point(data.conic) if type_two else None
    return NodalQuarticAnalysis(report, dec, data, type_two, singular_point)


def residual_line_identity(dec: NodeDecomposition,
                           data: AssociatedConicData) -> BinaryForm:
    """Substitute t := -phi into the normalized quartic.

    The result must factor exactly as (phi^2 + psi) * f2; any mismatch is an
    internal-consistency fault and aborts.
    """
    phi = data.phi
    neg_phi = -phi
    result = (neg_phi * neg_phi) * dec.f2 + neg_phi * dec.f3 + dec.f4
    expected = (phi * phi + data.psi) * dec.f2
    if result != expected:
        raise AssertionError("residual-line identity failed: "
                             "F(., ., -phi) != (phi^2 + psi) * f2")
    return result


def tangent_map(dec: NodeDecomposition, data: AssociatedConicData,
                direction: TernaryForm) -> TangentMapResult:
    """First-order motion of the node and the associated conic.

    direction is a quartic vanishing at the node, decomposed in the same
    normalized coordinates as g1*t^3 + g2*t^2 + g3*t + g4.  The node velocity
    xi solves the polarized cone equation, then a Koszul solve yields the
    conic velocity 2*t*phi_dot - psi_dot.

    On integers, with f_i = F_i/c, (phi, psi) = nums/e and the node's move
    G_i = h*lam^(4-i)*g_i, xi and the right-hand side are X*c/(k*h) and
    R/(k*h*e) for k = disc*lam^3, so the kernel on c*R gives (phi_dot, psi_dot)*k*h*e.
    """
    column, lam = integral_row([row[2] for row in dec.transform])  # coprime: p/p[pivot]
    ints, c = integral_coeffs(dec.f2, dec.f3, dec.f4)
    (p, q, r), f3, f4 = ints[:3], ints[3:7], ints[7:]
    if (disc := q * q - 4 * p * r) == 0:
        raise PreconditionError("node is not ordinary: degenerate tangent cone")
    if direction.degree != 4:
        raise PreconditionError("direction must be a quartic")
    if direction.variables != dec.original_vars:
        raise ValueError("direction must use the quartic's variable triple")
    pivot = next(i for i, x in enumerate(column) if x)
    (g0, (a, b), g2, g3, g4), h = _pieces(direction, column, pivot)
    if g0[0]:
        raise PreconditionError("direction quartic does not vanish at the node")
    # polarized cone equation d(f2).xi = -g1 by Cramer's rule; its determinant is -disc
    x0, x1, k = 2 * r * a - q * b, 2 * p * b - q * a, disc * lam ** 3
    xi = (Fraction(x0 * c, k * h), Fraction(x1 * c, k * h))
    nums, e = integral_coeffs(data.phi, data.psi)
    # R = k*e*g4 - phi*h3 - psi*h2 on numerators, h3 and h2 scaling g3 + f4'(xi), g2 + f3'(xi)
    h3 = [disc * lam * lam * y + z for y, z in zip(g3, directional_coeffs(f4, x0, x1))]
    h2 = [disc * lam * y + z for y, z in zip(g2, directional_coeffs(f3, x0, x1))]
    rhs = [c * (k * e * y - s - t) for y, s, t in zip(g4, mul_coeffs(nums[:2], h3),
                                                      mul_coeffs(nums[2:], h2))]
    if (sol := _solve([p, q, r], f3, rhs)) is None:
        raise PreconditionError("Koszul system is singular: f2 and f3 share a projective root")
    a, b, den = sol[0], sol[1], k * h * e * sol[2]
    velocity = _assemble(([2 * x for x in a], [-x for x in b]), den, dec.pair, dec.t_var,
                         dec.original_vars)
    return TangentMapResult(xi, BinaryForm(1, dec.pair, den, a), BinaryForm(2, dec.pair, den, b),
                            velocity)


def quartic_from_conic_and_cubic(f2: BinaryForm, f3: BinaryForm,
                                 phi: BinaryForm, psi: BinaryForm,
                                 t_var: str,
                                 var_order: tuple[str, str, str] | None = None) -> TernaryForm:
    """Inverse construction: the quartic t^2*f2 + t*f3 + (psi*f2 + phi*f3).

    Round-trips with normalize_at_node + associated_conic at the node
    [0:0:1] of the resulting variable order (pair0, pair1, t_var).
    """
    if f2.degree != 2 or f3.degree != 3 or phi.degree != 1 or psi.degree != 2:
        raise PreconditionError("expected degrees (2, 3) and (1, 2)")
    if disc_binary_quadratic(f2) == 0:
        raise PreconditionError("f2 must be a nondegenerate binary quadratic")
    f4 = psi * f2 + phi * f3
    if _solve(f2.nums, f3.nums, [0] * 5) is None:
        raise PreconditionError("f2 and f3 must be coprime")
    if var_order is None:
        var_order = (*f2.variables, t_var)
    return assemble_quartic(f2, f3, f4, t_var, var_order)
