"""Acceptance gate: the ten headline identities and properties.

Every check computes in exact rational arithmetic; equality is exact up to
the documented normalizations (curve equations up to a nonzero scalar, the
family determinants up to a global sign).  Each test prints one pass line.
"""

import random
from fractions import Fraction

from luroth.forms import BinaryForm, PreconditionError, TernaryForm, parse_form
from luroth.linalg import conic_det3, det_rational, disc_binary_quadratic, invert
from luroth.nodal import (
    assemble_quartic,
    associated_conic,
    classify,
    normalize_at_node,
    quartic_from_conic_and_cubic,
    residual_line_identity,
    tangent_map,
)
from luroth.poncelet import (
    DUAL_VARS,
    PARAM_VARS,
    PonceletPencil,
    chord_dual,
    family_matrix,
    is_base_point_free,
    poncelet_curve,
    singular_jump_criterion,
    standard_conic,
)
from luroth.verify import C_SAMPLES, EPS_SAMPLES, printed_92, printed_eps_expansion
from oracles import partial

PAIR_UV = ("u", "v")
PAIR_VW = ("v", "w")

def up_to_sign(a, b):
    return a == b or a == -b


def split_form(roots, pair=PARAM_VARS):
    out = BinaryForm.from_coeffs(pair, [1])
    for (a, b) in roots:
        out = out * BinaryForm.from_coeffs(pair, [b, -a])
    return out


def test_criterion_01_eps_family_determinant():
    for eps in EPS_SAMPLES:
        det = family_matrix("eps91", eps).determinant()
        assert up_to_sign(det, printed_eps_expansion(eps)), f"mismatch at eps={eps}"
    print("PASS criterion 1: eps-family determinant matches its printed "
          "expansion at 5 samples")


def test_criterion_02_quartic_b_analysis():
    det = family_matrix("92").determinant()
    assert up_to_sign(det, printed_92())
    # the quartic's node is [0,0,1] (the gradient vanishes only there)
    analysis = classify(det, (0, 0, 1))
    assert analysis.conic_data.phi.is_zero()
    assert analysis.conic_data.psi == parse_form("-u*v", PAIR_UV)
    assert analysis.conic_data.conic == parse_form("w^2 + u*v", DUAL_VARS)
    assert analysis.conic_data.det3 == Fraction(-1, 4)
    assert not analysis.type_two
    print("PASS criterion 2: second family reassembles and analyzes to "
          "phi=0, psi=-u*v, conic w^2+u*v, det3=-1/4, NotTypeII")


def test_criterion_03_c_family_analysis():
    for c in C_SAMPLES:
        analysis = classify(family_matrix("93", c).determinant(), (0, 0, 1))
        assert analysis.conic_data.phi == BinaryForm.from_coeffs(PAIR_UV, [c, c])
        assert analysis.conic_data.psi == BinaryForm.from_coeffs(
            PAIR_UV, [-c, -(1 + c), -c])
        assert analysis.conic_data.det3 == Fraction(-1, 4) * (4 * c + 1) * (c - 1) ** 2
    special = classify(family_matrix("93", Fraction(-1, 4)).determinant(),
                       (0, 0, 1))
    assert special.type_two and special.conic_singular_point == (2, 2, 1)
    print("PASS criterion 3: c-family gives phi=c(u+v), "
          "det3=-(4c+1)(c-1)^2/4; TypeII at c=-1/4 with point [2,2,1]")


def test_criterion_04_tangent_map():
    f2 = parse_form("v^2+w^2", PAIR_VW)
    f3 = parse_form("2*v^3", PAIR_VW)
    f4 = parse_form("w^2*(v^2+w^2)", PAIR_VW)
    quartic = assemble_quartic(f2, f3, f4, "u", DUAL_VARS)
    dec = normalize_at_node(quartic, (1, 0, 0))
    assert (dec.f2, dec.f3, dec.f4) == (f2, f3, f4)
    data = associated_conic(dec)
    g = parse_form("v*u^3+3*u*v*w^2+u*v^3+2*v^4", DUAL_VARS)
    result = tangent_map(dec, data, g)
    assert result.xi == (Fraction(-1, 2), Fraction(0))
    assert result.phi_dot == BinaryForm.from_coeffs(PAIR_VW, [Fraction(-1, 2), 0])
    assert result.psi_dot == parse_form("3*v^2", PAIR_VW)
    assert result.conic_velocity == parse_form("-u*v - 3*v^2", DUAL_VARS)
    print("PASS criterion 4: tangent map gives xi=(-1/2,0), phi_dot=-v/2, "
          "psi_dot=3v^2, velocity -u*v-3v^2")


def test_criterion_05_cross_construction():
    pencil = PonceletPencil(parse_form("s0^2*s1^2*(s1-s0)", PARAM_VARS),
                            parse_form("-(s0^5+s1^5)", PARAM_VARS))
    curve = poncelet_curve(standard_conic(), pencil)
    assert curve.proportional_to(family_matrix("92").determinant())
    print("PASS criterion 5: generic construction reproduces the 6x6 family "
          "determinant up to scalar")


def test_criterion_06_polygon_property():
    rng = random.Random(6001)
    conic = standard_conic()
    total = 0
    for n in (4, 5, 6):
        roots = [(Fraction(a), Fraction(1))
                 for a in rng.sample(range(-10, 11), n + 1)]
        gamma1 = split_form(roots)
        while True:
            gamma2 = BinaryForm.from_coeffs(
                PARAM_VARS, [rng.randint(-9, 9) for _ in range(n + 2)])
            try:
                pencil = PonceletPencil(gamma1, gamma2)
                break
            except PreconditionError:
                continue
        curve = poncelet_curve(conic, pencil)
        for i in range(len(roots)):
            for j in range(i + 1, len(roots)):
                vertex = chord_dual(conic, roots[i], roots[j])
                assert curve.evaluate(vertex) == 0
                total += 1
    assert total == 10 + 15 + 21
    print(f"PASS criterion 6: polygon property, {total} chord duals vanish "
          "exactly for n in {4,5,6}")


def test_criterion_07_singular_jump_equivalence():
    rng = random.Random(7001)
    conic = standard_conic()
    checked = singular_hits = 0
    while checked < 100:
        n = rng.randint(3, 4)
        a, b = rng.sample(range(-6, 7), 2)
        q = split_form([(Fraction(a), Fraction(1)), (Fraction(b), Fraction(1))])
        if rng.random() < 0.5:
            gamma1 = q * BinaryForm.from_coeffs(
                PARAM_VARS, [rng.randint(-9, 9) for _ in range(n)])
        else:
            gamma1 = q * q * BinaryForm.from_coeffs(
                PARAM_VARS, [rng.randint(-9, 9) for _ in range(n - 2)])
        if gamma1.is_zero():
            continue
        gamma2 = BinaryForm.from_coeffs(
            PARAM_VARS, [rng.randint(-9, 9) for _ in range(n + 2)])
        try:
            pencil = PonceletPencil(gamma1, gamma2)
        except PreconditionError:
            continue
        if not is_base_point_free(pencil):
            continue
        line = chord_dual(conic, (Fraction(a), Fraction(1)),
                          (Fraction(b), Fraction(1)))
        curve = poncelet_curve(conic, pencil)
        assert curve.evaluate(line) == 0
        gradient_zero = all(partial(curve, v).evaluate(line) == 0 for v in curve.variables)
        assert singular_jump_criterion(conic, pencil, line) == gradient_zero
        singular_hits += gradient_zero
        checked += 1
    assert singular_hits >= 20  # both branches of the equivalence exercised
    print("PASS criterion 7: singular-jump criterion matches gradient "
          f"vanishing on 100 pencils ({singular_hits} singular cases)")


def rand_admissible(rng):
    while True:
        f2 = BinaryForm.from_coeffs(PAIR_VW, [rng.randint(-6, 6) for _ in range(3)])
        f3 = BinaryForm.from_coeffs(PAIR_VW, [rng.randint(-6, 6) for _ in range(4)])
        phi = BinaryForm.from_coeffs(PAIR_VW, [rng.randint(-6, 6) for _ in range(2)])
        psi = BinaryForm.from_coeffs(PAIR_VW, [rng.randint(-6, 6) for _ in range(3)])
        try:
            quartic = quartic_from_conic_and_cubic(f2, f3, phi, psi, "u",
                                                   ("u", "v", "w"))
            return quartic, f2, f3, phi, psi
        except PreconditionError:
            continue


def test_criterion_08_residual_line_identity():
    worked = [(family_matrix("eps91", 0).determinant(), (1, 0, 0)),
              (family_matrix("92").determinant(), (0, 0, 1)),
              (family_matrix("93", Fraction(2)).determinant(), (0, 0, 1))]
    for quartic, node in worked:
        analysis = classify(quartic, node)
        residual_line_identity(analysis.decomposition, analysis.conic_data)
    rng = random.Random(8001)
    for _ in range(100):
        quartic, f2, f3, phi, psi = rand_admissible(rng)
        dec = normalize_at_node(quartic, (1, 0, 0))
        data = associated_conic(dec)
        assert (data.phi, data.psi) == (phi, psi)
        assert residual_line_identity(dec, data) == (phi * phi + psi) * f2
    print("PASS criterion 8: residual-line identity F(.,.,-phi) = "
          "(phi^2+psi)*f2 on worked quartics and 100 random round trips")


def test_criterion_09_discriminant_bridge():
    rng = random.Random(9001)
    for _ in range(100):
        phi = BinaryForm.from_coeffs(PAIR_VW, [rng.randint(-9, 9) for _ in range(2)])
        psi = BinaryForm.from_coeffs(PAIR_VW, [rng.randint(-9, 9) for _ in range(3)])
        terms = {(0, 0, 2): Fraction(1)}
        for (i, j), c in phi.terms.items():
            terms[(i, j, 1)] = 2 * c
        for (i, j), c in psi.terms.items():
            terms[(i, j, 0)] = terms.get((i, j, 0), Fraction(0)) - c
        conic = TernaryForm.from_terms(2, ("v", "w", "t"), terms)
        assert conic_det3(conic) == Fraction(-1, 4) * disc_binary_quadratic(
            phi * phi + psi)
    print("PASS criterion 9: det3(t^2+2t*phi-psi) = -disc(phi^2+psi)/4 on "
          "100 random (phi, psi)")


def test_criterion_10_projective_invariance():
    rng = random.Random(10001)
    cases = [(family_matrix("eps91", 0).determinant(), (1, 0, 0), True),
             (family_matrix("92").determinant(), (0, 0, 1), False),
             (family_matrix("93", Fraction(-1, 4)).determinant(), (0, 0, 1), True)]
    for quartic, node, verdict in cases:
        assert classify(quartic, node).type_two == verdict
    transforms = 0
    while transforms < 20:
        t = [[Fraction(rng.randint(-4, 4)) for _ in range(3)] for _ in range(3)]
        if det_rational(t) == 0:
            continue
        inv = invert(t)
        quartic, node, verdict = cases[transforms % 3]
        moved = quartic.substitute_linear(t)
        moved_node = tuple(sum(inv[i][j] * node[j] for j in range(3))
                           for i in range(3))
        assert classify(moved, moved_node).type_two == verdict
        transforms += 1
    print("PASS criterion 10: TypeII verdict invariant under 20 random "
          "projective coordinate changes")
