"""Replay of the worked identities as a self-check suite.

Each check is independent and returns a pass/fail flag with a short detail
string; the CLI's `verify` command prints one line per check and exits
nonzero if any fails.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import nodal, poncelet
from .forms import BinaryForm, Frozen, TernaryForm, parse_form
from .linalg import conic_det3, disc_binary_quadratic
from .poncelet import DUAL_VARS, PARAM_VARS

# the worked-identity samples and printed expansions, defined once; the
# acceptance and family tests import them too
EPS_SAMPLES = (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 3), Fraction(-2, 5))
C_SAMPLES = (Fraction(0), Fraction(2), Fraction(-1, 4), Fraction(1, 3), Fraction(5))
# the printed expansions' parts, parsed once; u^2*v^2 is in both eps91 and 93
_EPS_BASE, _EPS_LINEAR, _U2V2, _FIXED_93 = (parse_form(text, DUAL_VARS) for text in (
    "(u^2+w^2)*(v^2+w^2)+2*u*v^3", "v*u^3+3*u*v*w^2+u*v^3+2*v^4", "u^2*v^2",
    "w^2*(u^2+v^2)+w*(u^3+v^3)-u^3*v-u*v^3"))
# the generators of the pencil on the standard conic whose curve is family 92
_GAMMAS_92 = tuple(parse_form(text, PARAM_VARS)
                   for text in ("s0^2*s1^2*(s1-s0)", "-(s0^5+s1^5)"))
_expanded: dict | None = None  # (family, param) -> determinant, during run_checks


class CheckResult(Frozen):
    name: str
    passed: bool
    detail: str


def printed_eps_expansion(eps: Fraction):
    return _EPS_BASE - _EPS_LINEAR.scale(eps) + _U2V2.scale(eps * eps)


def printed_92():
    return parse_form("w^2*(u^2+v^2)+w*(u^3+v^3)-u*v*(u^2+v^2)", DUAL_VARS)


def printed_93(c: Fraction):
    return _FIXED_93 + _U2V2.scale(-2 * c)


def _determinant(name: str, param=0) -> TernaryForm:
    """The family's determinant, shared by the checks of one `run_checks` call."""
    memo = {} if _expanded is None else _expanded
    if (name, param) not in memo:
        memo[name, param] = poncelet.family_matrix(name, param).determinant()
    return memo[name, param]


def check_eps_family_determinant() -> CheckResult:
    for eps in EPS_SAMPLES:
        det = _determinant("eps91", eps)
        if not det.proportional_to(printed_eps_expansion(eps)):
            return CheckResult("eps91 determinant expansion", False, f"mismatch at eps={eps}")
    return CheckResult("eps91 determinant expansion", True,
                       f"matches printed expansion at {len(EPS_SAMPLES)} samples")


def check_92_determinant() -> CheckResult:
    det = _determinant("92")
    ok = det.proportional_to(printed_92())
    return CheckResult("family 92 determinant", ok,
                       "matches w^2*f2 + w*f3 + f4" if ok else "mismatch")


def check_92_analysis() -> CheckResult:
    quartic = _determinant("92")
    analysis = nodal.classify(quartic, (0, 0, 1))
    pair = analysis.conic_data.phi.variables
    ok = (analysis.conic_data.phi.is_zero()
          and analysis.conic_data.psi == BinaryForm.from_coeffs(pair, [0, -1, 0])
          and analysis.conic_data.conic == parse_form("w^2+u*v", DUAL_VARS)
          and analysis.conic_data.det3 == Fraction(-1, 4)
          and not analysis.type_two)
    return CheckResult("family 92 nodal analysis", ok,
                       "phi=0, psi=-u*v, conic w^2+u*v, det3=-1/4, not type II"
                       if ok else "unexpected analysis values")


def check_93_analysis() -> CheckResult:
    for c in C_SAMPLES:
        quartic = _determinant("93", c)
        analysis = nodal.classify(quartic, (0, 0, 1))
        pair = analysis.conic_data.phi.variables
        phi_expect = BinaryForm.from_coeffs(pair, [c, c])
        psi_expect = BinaryForm.from_coeffs(pair, [-c, -(1 + c), -c])
        det3_expect = Fraction(-1, 4) * (4 * c + 1) * (c - 1) ** 2
        if (not quartic.proportional_to(printed_93(c)) or analysis.conic_data.phi != phi_expect
                or analysis.conic_data.psi != psi_expect
                or analysis.conic_data.det3 != det3_expect):
            return CheckResult("family 93 nodal analysis", False, f"mismatch at c={c}")
    special = nodal.classify(_determinant("93", Fraction(-1, 4)), (0, 0, 1))
    ok = special.type_two and special.conic_singular_point == (
        Fraction(2), Fraction(2), Fraction(1))
    return CheckResult("family 93 nodal analysis", ok,
                       "phi=c*(u+v), det3=-1/4*(4c+1)*(c-1)^2; type II at c=-1/4 with "
                       "kernel [2,2,1]" if ok else "type II verdict or kernel mismatch")


def check_91_classification() -> CheckResult:
    quartic = _determinant("eps91", 0)
    analysis = nodal.classify(quartic, (1, 0, 0))
    ok = (analysis.type_two
          and analysis.conic_data.conic == parse_form("u^2-w^2", DUAL_VARS)
          and analysis.conic_singular_point == (Fraction(0), Fraction(1), Fraction(0)))
    return CheckResult("eps91 type II classification", ok,
                       "conic u^2-w^2 singular at [0,1,0]" if ok else "mismatch")


def check_91_tangent_map() -> CheckResult:
    quartic = _determinant("eps91", 0).lex_normalized()
    analysis = nodal.classify(quartic, (1, 0, 0))
    result = nodal.tangent_map(analysis.decomposition, analysis.conic_data, _EPS_LINEAR)
    pair = result.phi_dot.variables
    ok = (result.xi == (Fraction(-1, 2), Fraction(0))
          and result.phi_dot == BinaryForm.from_coeffs(pair, [Fraction(-1, 2), 0])
          and result.psi_dot == BinaryForm.from_coeffs(pair, [3, 0, 0])
          and result.conic_velocity == parse_form("-u*v-3*v^2", DUAL_VARS))
    return CheckResult("eps91 tangent map", ok,
                       "xi=(-1/2,0), phi_dot=-v/2, psi_dot=3v^2, velocity -u*v-3v^2"
                       if ok else "mismatch")


def check_cross_construction() -> CheckResult:
    conic = poncelet.standard_conic()
    pencil = poncelet.PonceletPencil(*_GAMMAS_92)
    curve = poncelet.poncelet_curve(conic, pencil)
    target = _determinant("92")
    ok = curve.proportional_to(target) and poncelet.is_base_point_free(pencil)
    return CheckResult("generic construction vs family 92", ok,
                       "pencil on the standard conic reproduces the 6x6 determinant"
                       if ok else "curves differ")


def check_polygon_property() -> CheckResult:
    conic = poncelet.standard_conic()
    rng = random.Random(910)
    for n in (4, 5):
        params = [(Fraction(k), Fraction(1)) for k in range(n + 1)]
        gamma1 = BinaryForm.from_coeffs(PARAM_VARS, [1])
        for (a, b) in params:
            gamma1 = gamma1 * BinaryForm.from_coeffs(PARAM_VARS, [b, -a])
        gamma2 = BinaryForm.from_coeffs(
            PARAM_VARS, [Fraction(rng.randint(-9, 9)) for _ in range(n + 2)])
        pencil = poncelet.PonceletPencil(gamma1, gamma2)
        curve = poncelet.poncelet_curve(conic, pencil)
        for i in range(len(params)):
            for j in range(i + 1, len(params)):
                vertex = poncelet.chord_dual(conic, params[i], params[j])
                if curve.evaluate(vertex) != 0:
                    return CheckResult("polygon property", False,
                                       f"vertex off curve at n={n}, pair ({i},{j})")
    return CheckResult("polygon property", True,
                       "all n(n+1)/2 chord duals vanish exactly for n in {4, 5}")


def check_singular_jump_at_node() -> CheckResult:
    conic = poncelet.standard_conic()
    pencil = poncelet.PonceletPencil(*_GAMMAS_92)
    ok = poncelet.singular_jump_criterion(conic, pencil, (0, 0, 1))
    return CheckResult("singular jump criterion at the node", ok,
                       "criterion true at the 92 quartic's node [0,0,1]"
                       if ok else "criterion false at the node")


def check_residual_identity() -> CheckResult:
    cases = [("eps91", Fraction(0), (1, 0, 0)), ("92", Fraction(0), (0, 0, 1)),
             ("93", Fraction(2), (0, 0, 1))]
    for name, param, node in cases:
        quartic = _determinant(name, param)
        analysis = nodal.classify(quartic, node)
        nodal.residual_line_identity(analysis.decomposition, analysis.conic_data)
    return CheckResult("residual-line identity", True,
                       "F(., ., -phi) = (phi^2+psi)*f2 on all three families")


def check_discriminant_bridge() -> CheckResult:
    rng = random.Random(740)
    pair = ("v", "w")
    for _ in range(100):
        a, b = [rng.randint(-9, 9) for _ in range(2)], [rng.randint(-9, 9) for _ in range(3)]
        phi, psi = BinaryForm(1, pair, 1, a), BinaryForm(2, pair, 1, b)
        conic = TernaryForm(2, ("u", "v", "w"), 1, {  # t^2 + 2*t*phi - psi, t = u
            (2, 0, 0): 1, (1, 1, 0): 2 * a[0], (1, 0, 1): 2 * a[1],
            (0, 2, 0): -b[0], (0, 1, 1): -b[1], (0, 0, 2): -b[2]})
        if conic_det3(conic) != Fraction(-1, 4) * disc_binary_quadratic(phi * phi + psi):
            return CheckResult("det3 = -disc/4 bridge", False, "identity failed")
    return CheckResult("det3 = -disc/4 bridge", True,
                       "det3(t^2+2t*phi-psi) = -disc(phi^2+psi)/4 on 100 samples")


ALL_CHECKS = (
    check_eps_family_determinant,
    check_92_determinant,
    check_92_analysis,
    check_93_analysis,
    check_91_classification,
    check_91_tangent_map,
    check_cross_construction,
    check_polygon_property,
    check_singular_jump_at_node,
    check_residual_identity,
    check_discriminant_bridge,
)


def run_checks() -> list[CheckResult]:
    """Every check, in order, with each family determinant expanded once."""
    global _expanded
    _expanded, results = {}, []
    try:
        for check in ALL_CHECKS:
            try:
                results.append(check())
            except Exception as exc:  # a crashed check is a failed check
                results.append(CheckResult(check.__name__, False, f"raised {exc!r}"))
    finally:
        _expanded = None
    return results
