"""Analysis of plane quartics with an ordinary node.

Pipeline: move the node to the last coordinate point by a deterministic
change of coordinates and split the equation as t^2*f2 + t*f3 + f4.  The
node is admissible exactly when Res(f2, f3) != 0, that is when the Koszul
system f4 = phi*f3 + psi*f2, the transposed Sylvester matrix of (f3, f2),
is uniquely solvable; the same solve yields linear phi and quadratic psi.
Type II means the conic t^2 + 2*t*phi - psi is singular, which is when
disc(phi^2 + psi) = 0; its kernel point is the residual line's tangency point.

`classify` moves the node and eliminates once: a one-entry memo keyed by the
quartic and the point holds the verdict and the decomposition with its split,
all immutable.  `verify_node` returns the verdict, `normalize_at_node` raises.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .forms import BinaryForm, Frozen, PreconditionError, TernaryForm, _q
from .linalg import (
    conic_det3,
    conic_kernel_point,
    disc_binary_quadratic,
    solve_linear,
    sylvester_matrix,
)

Transform = tuple[tuple[Fraction, ...], ...]


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


def _graded_split(quartic: TernaryForm, transform: Transform,
                  pair: tuple[str, str]) -> tuple[BinaryForm, ...]:
    """Pieces f0..f4 of the moved quartic sum t^(4-i) * f_i(pair), t last."""
    moved = quartic.substitute_linear(transform)
    coeffs = [[Fraction(0)] * (i + 1) for i in range(5)]
    for (_, b, c), coef in moved.terms.items():
        coeffs[4 - c][b] = coef
    return tuple(BinaryForm(i, pair, tuple(cs)) for i, cs in enumerate(coeffs))


def _assemble(pieces: Sequence[tuple[int, BinaryForm]], t_var: str,
              var_order: tuple[str, str, str]) -> TernaryForm:
    """sum t^k * g_k over (k, g_k) pieces, in the requested variable order."""
    k0, g0 = pieces[0]
    names = (*g0.variables, t_var)
    if sorted(var_order) != sorted(names):
        raise ValueError("new variable triple must be a permutation of the old one")
    perm = [names.index(v) for v in var_order]
    terms = {tuple((a, b, k)[i] for i in perm): c
             for k, g in pieces for (a, b), c in g.terms.items()}
    return TernaryForm.from_terms(k0 + g0.degree, var_order, terms)


def _decompose(quartic: TernaryForm, point: Sequence) -> tuple[NodeReport, NodeDecomposition]:
    """Node flags and graded pieces of the quartic in node-centered coordinates."""
    if len(point) != 3:
        raise ValueError("a point of the plane has three coordinates")
    return _decompose_at(quartic, tuple(_q(x) for x in point))


@lru_cache(maxsize=1)
def _decompose_at(quartic: TernaryForm, p: tuple[Fraction, ...]):
    pivot = next((i for i, x in enumerate(p) if x != 0), None)
    if pivot is None:
        raise ValueError("the zero vector is not a projective point")
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
    split = _koszul(f2, f3, f4) if ordinary else None
    return (NodeReport(on_curve, singular, ordinary, split is not None),
            NodeDecomposition(transform, pair, variables[pivot], variables, f2, f3, f4, split))


def verify_node(quartic: TernaryForm, point: Sequence) -> NodeReport:
    """Local flags at a rational point: on the curve, singular, ordinary node, and
    admissible (Res(f2, f3) != 0: the Koszul system for (phi, psi) is uniquely solvable)."""
    if quartic.is_zero() or quartic.degree != 4:
        raise PreconditionError("expected a nonzero quartic")
    return _decompose(quartic, point)[0]


def normalize_at_node(quartic: TernaryForm, point: Sequence) -> NodeDecomposition:
    """Deterministic normalization sending the node to the last coordinate point.

    The pivot is the first nonzero coordinate of the node; the other two
    standard vectors keep their order, so the decomposition is reproducible.
    """
    report, dec = _decompose(quartic, point)
    if not report.singular:
        raise NodeError("the point is not a singular point of the quartic", report)
    if not report.ordinary:
        raise NodeError("the singular point is not an ordinary node", report)
    return dec


def assemble_quartic(f2: BinaryForm, f3: BinaryForm, f4: BinaryForm,
                     t_var: str, var_order: tuple[str, str, str]) -> TernaryForm:
    """t^2*f2 + t*f3 + f4 as a ternary quartic in the requested variable order."""
    return _assemble(((2, f2), (1, f3), (0, f4)), t_var, var_order)


def _conic_form(phi: BinaryForm, psi: BinaryForm, t_var: str,
                var_order: tuple[str, str, str]) -> TernaryForm:
    """The conic t^2 + 2*t*phi - psi."""
    one = BinaryForm.from_coeffs(phi.variables, [1])
    return _assemble(((2, one), (1, phi.scale(2)), (0, -psi)), t_var, var_order)


def _koszul(f2: BinaryForm, f3: BinaryForm, rhs: BinaryForm):
    """(phi, psi) of koszul_solve, or None when its system is singular."""
    x = solve_linear(list(zip(*sylvester_matrix(f3, f2))), rhs.coeffs).vector
    pair = f2.variables
    return None if x is None else (BinaryForm.from_coeffs(pair, x[:2]),
                                   BinaryForm.from_coeffs(pair, x[2:]))


def koszul_solve(f2: BinaryForm, f3: BinaryForm,
                 rhs: BinaryForm) -> tuple[BinaryForm, BinaryForm]:
    """Unique (phi linear, psi quadratic) with phi*f3 + psi*f2 = rhs; needs Res(f2, f3) != 0."""
    split = _koszul(f2, f3, rhs)
    if split is None:
        raise PreconditionError("Koszul system is singular: f2 and f3 share a projective root")
    return split


def associated_conic(dec: NodeDecomposition) -> AssociatedConicData:
    """The unique conic t^2 + 2*t*phi - psi through the node's contact points."""
    phi, psi = dec.split or koszul_solve(dec.f2, dec.f3, dec.f4)
    conic = _conic_form(phi, psi, dec.t_var, dec.original_vars)
    det3 = conic_det3(conic)
    disc = disc_binary_quadratic(phi * phi + psi)
    return AssociatedConicData(phi, psi, conic, det3, disc)


def classify(quartic: TernaryForm, point: Sequence) -> NodalQuarticAnalysis:
    """Full nodal analysis; the verdict is type II exactly when det3 = 0."""
    report = verify_node(quartic, point)
    if not report.all_ok():
        raise NodeError(f"node verification failed: {report.flags()}", report)
    dec = normalize_at_node(quartic, point)
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
    """
    if (disc := disc_binary_quadratic(dec.f2)) == 0:
        raise PreconditionError("node is not ordinary: degenerate tangent cone")
    if direction.degree != 4:
        raise PreconditionError("direction must be a quartic")
    if direction.variables != dec.original_vars:
        raise ValueError("direction must use the quartic's variable triple")
    g0, g1, g2, g3, g4 = _graded_split(direction, dec.transform, dec.pair)
    if not g0.is_zero():
        raise PreconditionError("direction quartic does not vanish at the node")
    # polarized cone equation d(f2).xi = -g1 by Cramer's rule; its determinant is -disc
    (p, q, r), (a, b) = dec.f2.coeffs, g1.coeffs
    xi = ((2 * r * a - q * b) / disc, (2 * p * b - q * a) / disc)
    df3 = dec.f3.directional(xi)
    df4 = dec.f4.directional(xi)
    rhs_form = g4 - (g3 + df4) * data.phi - (g2 + df3) * data.psi
    phi_dot, psi_dot = koszul_solve(dec.f2, dec.f3, rhs_form)
    velocity = _assemble(((1, phi_dot.scale(2)), (0, -psi_dot)),
                         dec.t_var, dec.original_vars)
    return TangentMapResult(xi, phi_dot, psi_dot, velocity)


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
    if _koszul(f2, f3, f4) is None:
        raise PreconditionError("f2 and f3 must be coprime")
    pair = f2.variables
    if var_order is None:
        var_order = (pair[0], pair[1], t_var)
    return assemble_quartic(f2, f3, f4, t_var, var_order)
