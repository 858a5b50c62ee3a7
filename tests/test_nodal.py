"""Nodal quartic pipeline: decomposition, associated conic, tangent map."""

import copy
import pickle
import random
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from luroth import linalg, nodal
from luroth.forms import (BinaryForm, PreconditionError, TernaryForm, integral_coeffs, integral_row,
                         mul_coeffs, parse_form)
from luroth.linalg import det_rational, invert, sylvester_resultant
from luroth.nodal import (
    NodeError,
    NodeReport,
    assemble_quartic,
    associated_conic,
    classify,
    koszul_solve,
    normalize_at_node,
    quartic_from_conic_and_cubic,
    residual_line_identity,
    tangent_map,
    verify_node,
)
from luroth.poncelet import DUAL_VARS, family_matrix
from luroth.verify import printed_93
from oracles import (_ternary, bareiss_koszul, fraction_classify, fraction_tangent_map, power,
                     zero_form)

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

from workloads import make_quartic  # noqa: E402

PAIR_VW = ("v", "w")
PAIR_UV = ("u", "v")

QUARTIC_A = parse_form("(u^2+w^2)*(v^2+w^2)+2*u*v^3", DUAL_VARS)
QUARTIC_B = parse_form("w^2*(u^2+v^2)+w*(u^3+v^3)-u*v*(u^2+v^2)", DUAL_VARS)


def rand_invertible(rng):
    while True:
        t = [[Fraction(rng.randint(-4, 4)) for _ in range(3)] for _ in range(3)]
        if det_rational(t) != 0:
            return t


def rand_admissible(rng, pair=PAIR_VW):
    """Random (f2, f3, phi, psi) with nondegenerate f2 coprime to f3."""
    while True:
        f2 = BinaryForm.from_coeffs(pair, [rng.randint(-6, 6) for _ in range(3)])
        f3 = BinaryForm.from_coeffs(pair, [rng.randint(-6, 6) for _ in range(4)])
        phi = BinaryForm.from_coeffs(pair, [rng.randint(-6, 6) for _ in range(2)])
        psi = BinaryForm.from_coeffs(pair, [rng.randint(-6, 6) for _ in range(3)])
        try:
            return quartic_from_conic_and_cubic(f2, f3, phi, psi, "u",
                                                ("u",) + pair), f2, f3, phi, psi
        except PreconditionError:
            continue


# ---------------------------------------------------------------------------
# node verification

def test_verify_node_quartic_a():
    report = verify_node(QUARTIC_A, (1, 0, 0))
    assert report.all_ok()
    assert report.flags() == {"on_curve": True, "singular": True,
                              "ordinary": True, "admissible": True}


def test_verify_node_smooth_point():
    report = verify_node(QUARTIC_A, (0, 0, 1))
    assert report.on_curve is False and report.singular is False


def test_verify_node_double_conic():
    double = parse_form("(u^2+v^2)^2", DUAL_VARS)
    report = verify_node(double, (0, 0, 1))
    assert report.on_curve and report.singular and not report.ordinary


def test_verify_node_quartic_b():
    assert verify_node(QUARTIC_B, (0, 0, 1)).all_ok()
    # the curve passes through [1,0,0] but is smooth there
    report = verify_node(QUARTIC_B, (1, 0, 0))
    assert report.on_curve and not report.singular


# ---------------------------------------------------------------------------
# normalization

@pytest.mark.parametrize("var_order", [("u", "v", "w"), ("u", "w", "v"), ("v", "u", "w"),
                                       ("v", "w", "u"), ("w", "u", "v"), ("w", "v", "u")])
def test_assemble_quartic_matches_the_oracle_in_every_variable_order(var_order):
    rng = random.Random(f"assemble/{var_order}")

    def form(degree):
        return BinaryForm.from_coeffs(PAIR_VW, [
            Fraction(rng.randint(-10 ** 30, 10 ** 30), rng.choice([1, 7, 10 ** 40 + 3]))
            * rng.randint(0, 1) for _ in range(degree + 1)])

    for i in range(20):
        f2, f3, f4 = form(2), form(3) if i % 5 else zero_form(BinaryForm, 3, PAIR_VW), form(4)
        quartic = assemble_quartic(f2, f3, f4, "u", var_order)
        expected = _ternary(((2, f2), (1, f3), (0, f4)), "u", var_order)
        # equal reprs: the same Fractions, inserted in the same term order
        assert quartic == expected and repr(quartic) == repr(expected)


def test_assemble_quartic_needs_a_permutation_of_its_variables():
    f2, f3, f4 = (BinaryForm.from_coeffs(PAIR_VW, [1] * k) for k in (3, 4, 5))
    for var_order in (("u", "v", "x"), ("u", "v", "v"), ("v", "w", "w")):
        with pytest.raises(ValueError, match="permutation of the old one"):
            assemble_quartic(f2, f3, f4, "u", var_order)


def test_normalize_quartic_a():
    dec = normalize_at_node(QUARTIC_A, (1, 0, 0))
    assert dec.t_var == "u" and dec.pair == PAIR_VW
    assert dec.f2 == parse_form("v^2+w^2", PAIR_VW)
    assert dec.f3 == parse_form("2*v^3", PAIR_VW)
    assert dec.f4 == parse_form("w^2*(v^2+w^2)", PAIR_VW)
    assert assemble_quartic(dec.f2, dec.f3, dec.f4, dec.t_var, dec.original_vars) == QUARTIC_A


def test_normalize_identity_transform():
    dec = normalize_at_node(QUARTIC_B, (0, 0, 1))
    assert dec.transform == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert dec.f2 == parse_form("u^2+v^2", PAIR_UV)
    assert dec.f3 == parse_form("u^3+v^3", PAIR_UV)
    assert dec.f4 == parse_form("-u*v*(u^2+v^2)", PAIR_UV)


def test_decomposition_transform_is_immutable():
    analysis = classify(QUARTIC_A, (1, 0, 0))
    transform = analysis.decomposition.transform
    assert type(transform) is tuple and all(type(row) is tuple for row in transform)
    with pytest.raises(TypeError):
        transform[0][0] = 7
    with pytest.raises(TypeError):
        transform[0] = (7, 0, 0)
    assert hash(analysis) == hash(classify(QUARTIC_A, (1, 0, 0)))


def test_normalize_rejects_smooth_point():
    with pytest.raises(NodeError):
        normalize_at_node(QUARTIC_A, (0, 0, 1))


def test_normalize_rejects_degenerate_cone():
    double = parse_form("(u^2+v^2)^2", DUAL_VARS)
    with pytest.raises(NodeError):
        normalize_at_node(double, (0, 0, 1))


@pytest.mark.parametrize("quartic, point, message", [
    (QUARTIC_A, (0, 0, 1), "the point is not a singular point of the quartic"),
    (parse_form("(u^2+v^2)^2", DUAL_VARS), (0, 0, 1),
     "the singular point is not an ordinary node"),
], ids=["smooth-point", "degenerate-cone"])
def test_normalize_error_carries_the_verify_flags(quartic, point, message):
    with pytest.raises(NodeError) as err:
        normalize_at_node(quartic, point)
    assert str(err.value) == message
    assert err.value.report.flags() == verify_node(quartic, point).flags()


def test_reassembly_under_translation():
    # move the node away from a coordinate point and recover a consistent split
    rng = random.Random(41)
    for _ in range(5):
        t = rand_invertible(rng)
        moved = QUARTIC_A.substitute_linear(t)
        inv = invert(t)
        node = tuple(row[0] for row in inv)  # T * node = (1, 0, 0)
        assert moved.evaluate(node) == 0
        dec = normalize_at_node(moved, node)
        # reassembly invariant: t^2*f2 + t*f3 + f4 equals F composed with the
        # normalizing transform, slot for slot
        terms = {}
        for power, f in ((2, dec.f2), (1, dec.f3), (0, dec.f4)):
            for (a, b), coef in f.terms.items():
                terms[(a, b, power)] = coef
        expected = TernaryForm.from_terms(4, moved.variables, terms)
        assert moved.substitute_linear(dec.transform) == expected


# ---------------------------------------------------------------------------
# Koszul solve and the associated conic

def test_koszul_unique_when_coprime():
    f2 = parse_form("v^2+w^2", PAIR_VW)
    f3 = parse_form("2*v^3", PAIR_VW)
    phi, psi = koszul_solve(f2, f3, parse_form("w^2*(v^2+w^2)", PAIR_VW))
    assert phi.is_zero()
    assert psi == parse_form("w^2", PAIR_VW)


def test_koszul_fails_on_shared_root():
    f2 = parse_form("v*w", PAIR_VW)
    f3 = parse_form("v^3", PAIR_VW)
    rhs = parse_form("v^4", PAIR_VW)
    with pytest.raises(PreconditionError):
        koszul_solve(f2, f3, rhs)


def test_koszul_bidirectional_random():
    rng = random.Random(42)
    unique_seen = failed_seen = 0
    for _ in range(60):
        f2 = BinaryForm.from_coeffs(PAIR_VW, [rng.randint(-6, 6) for _ in range(3)])
        f3 = BinaryForm.from_coeffs(PAIR_VW, [rng.randint(-6, 6) for _ in range(4)])
        if f2.is_zero() or f3.is_zero():
            continue
        if rng.random() < 0.4:
            common = BinaryForm.from_coeffs(PAIR_VW, [1, -rng.randint(-4, 4)])
            f2 = common * BinaryForm.from_coeffs(PAIR_VW, [rng.randint(-6, 6), 1])
            f3 = common * BinaryForm.from_coeffs(
                PAIR_VW, [rng.randint(-6, 6) for _ in range(2)] + [1])
        rhs = BinaryForm.from_coeffs(PAIR_VW, [rng.randint(-6, 6) for _ in range(5)])
        coprime = sylvester_resultant(f2, f3) != 0
        if coprime:
            phi, psi = koszul_solve(f2, f3, rhs)
            assert phi * f3 + psi * f2 == rhs
            unique_seen += 1
        else:
            with pytest.raises(PreconditionError):
                koszul_solve(f2, f3, rhs)
            failed_seen += 1
    assert unique_seen >= 10 and failed_seen >= 5


def test_koszul_solve_matches_sympy():
    sympy = pytest.importorskip("sympy")
    v, w = sympy.symbols(PAIR_VW)
    unknowns = sympy.symbols("a0 a1 b0 b1 b2")
    a0, a1, b0, b1, b2 = unknowns

    def expr(form):
        return sum(sympy.Rational(c.numerator, c.denominator) * v ** (form.degree - j) * w ** j
                   for j, c in enumerate(form.coeffs))

    def rand_form(degree):
        return BinaryForm.from_coeffs(PAIR_VW, [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                                                for _ in range(degree + 1)])

    rng = random.Random(44)
    unique = rejected = 0
    for _ in range(40):
        f2, f3, rhs = rand_form(2), rand_form(3), rand_form(4)
        if rng.random() < 0.3:  # plant a shared root
            common = rand_form(1)
            f2, f3 = common * rand_form(1), common * rand_form(2)
        phi = a0 * v + a1 * w
        psi = b0 * v ** 2 + b1 * v * w + b2 * w ** 2
        residual = sympy.expand(phi * expr(f3) + psi * expr(f2) - expr(rhs))
        equations = sympy.Poly(residual, v, w).coeffs()
        solutions = list(sympy.linsolve(equations, unknowns))
        if len(solutions) == 1 and not any(x.free_symbols for x in solutions[0]):
            phi, psi = koszul_solve(f2, f3, rhs)
            assert list(phi.coeffs + psi.coeffs) == [Fraction(int(x.p), int(x.q))
                                                     for x in solutions[0]]
            unique += 1
        else:
            with pytest.raises(PreconditionError):
                koszul_solve(f2, f3, rhs)
            rejected += 1
    assert unique >= 20 and rejected >= 5


def koszul_case(rng, shape, digits):
    """One (f2, f3, rhs) of integer coefficient lists; shape picks f2 and f3."""
    def ints(k):
        return [rng.randint(-10 ** digits, 10 ** digits) for _ in range(k)]

    f2, f3, rhs = ints(3), ints(4), ints(5)
    x, y = ints(2)
    if shape == "first zero":
        f2[0] = 0
    elif shape == "last zero":
        f2[2] = 0
    elif shape == "b*v*w":
        f2 = [0, x or 1, 0]
    elif shape == "square":
        f2 = [x * x, 2 * x * y, y * y]
    elif shape in ("v^2", "w^2", "(v+w)^2"):
        f2 = {"v^2": [1, 0, 0], "w^2": [0, 0, 1], "(v+w)^2": [1, 2, 1]}[shape]
        f2 = [(x or 1) * c for c in f2]
    elif shape == "zero f2":
        f2 = [0, 0, 0]
    elif shape == "zero f3":
        f3 = [0] * 4
    elif shape == "shared root":
        f2, f3 = mul_coeffs([x, y], ints(2)), mul_coeffs([x, y], ints(3))
    elif shape == "shared root at w = 0":
        f2[0] = f3[0] = 0
    elif shape == "shared root at v = 0":
        f2[2] = f3[3] = 0
    if rng.random() < 0.5:  # rhs in the image, so that a singular system stays consistent
        rhs = [a + b for a, b in zip(mul_coeffs(ints(2), f3), mul_coeffs(ints(3), f2))]
    return f2, f3, rhs


KOSZUL_SHAPES = ("generic", "first zero", "last zero", "b*v*w", "square", "v^2", "w^2",
                 "(v+w)^2", "zero f2", "zero f3", "shared root", "shared root at w = 0",
                 "shared root at v = 0")


def test_remainder_kernel_matches_the_bareiss_oracle():
    """The remainder kernel `nodal._solve`, and `koszul_solve` around it, give
    the same rational (phi, psi) and the same None verdicts as the 5x6
    Bareiss elimination `bareiss_koszul`, on 2- and 60-digit entries, each
    degenerate shape of f2, a zero f3, and pairs that share a root.  The
    kernel needs f2 != 0; `koszul_solve` reports a zero f2 as singular."""
    def rational(sol):
        return sol and tuple(Fraction(x, sol[2]) for x in sol[0] + sol[1])

    def public(f2, f3, rhs):
        try:
            phi, psi = koszul_solve(*(BinaryForm(len(c) - 1, PAIR_VW, 1, c) for c in (f2, f3, rhs)))
        except PreconditionError as exc:
            assert str(exc).startswith("Koszul system is singular: ")
            return None
        return phi.coeffs + psi.coeffs

    rng = random.Random(73)
    verdicts = {shape: set() for shape in KOSZUL_SHAPES}
    for trial in range(2600):
        shape = KOSZUL_SHAPES[trial % len(KOSZUL_SHAPES)]
        f2, f3, rhs = koszul_case(rng, shape, 60 if trial // len(KOSZUL_SHAPES) % 2 else 2)
        expected = rational(bareiss_koszul(f2, f3, rhs))
        if any(f2):
            assert rational(nodal._solve(f2, f3, rhs)) == expected, (f2, f3, rhs)
        assert public(f2, f3, rhs) == expected, (f2, f3, rhs)
        verdicts[shape].add(expected is None)
    singular = {"zero f2", "zero f3", "shared root", "shared root at w = 0",
                "shared root at v = 0"}
    for shape, seen in verdicts.items():  # a small generic pair may share a root by chance
        assert seen == {True} if shape in singular else False in seen, shape


def test_associated_conic_quartic_a():
    data = associated_conic(normalize_at_node(QUARTIC_A, (1, 0, 0)))
    assert data.phi.is_zero()
    assert data.psi == parse_form("w^2", PAIR_VW)
    assert data.conic == parse_form("u^2 - w^2", DUAL_VARS)
    assert data.det3 == 0 and data.disc_binary == 0


def test_associated_conic_quartic_b():
    data = associated_conic(normalize_at_node(QUARTIC_B, (0, 0, 1)))
    assert data.phi.is_zero()
    assert data.psi == parse_form("-u*v", PAIR_UV)
    assert data.conic == parse_form("w^2 + u*v", DUAL_VARS)
    assert data.det3 == Fraction(-1, 4)


def test_associated_conic_family_c():
    c = Fraction(2)
    data = associated_conic(normalize_at_node(printed_93(c), (0, 0, 1)))
    assert data.phi == BinaryForm.from_coeffs(PAIR_UV, [c, c])
    assert data.psi == BinaryForm.from_coeffs(PAIR_UV, [-c, -(1 + c), -c])
    assert data.det3 == Fraction(-1, 4) * (4 * c + 1) * (c - 1) ** 2


# ---------------------------------------------------------------------------
# classification

def test_classify_type_two():
    analysis = classify(QUARTIC_A, (1, 0, 0))
    assert analysis.type_two
    assert analysis.conic_singular_point == (0, 1, 0)


def test_classify_not_type_two():
    analysis = classify(QUARTIC_B, (0, 0, 1))
    assert not analysis.type_two
    assert analysis.conic_singular_point is None


def test_classify_family_c_special_value():
    analysis = classify(printed_93(Fraction(-1, 4)), (0, 0, 1))
    assert analysis.type_two
    assert analysis.conic_singular_point == (2, 2, 1)


def test_classify_rejects_bad_node():
    with pytest.raises(NodeError):
        classify(QUARTIC_A, (0, 0, 1))


@pytest.mark.parametrize("point", [(1, 0, 0, 5), (1, 0)])
def test_node_of_wrong_arity_is_rejected(point):
    with pytest.raises(ValueError, match="three coordinates"):
        classify(QUARTIC_A, point)
    with pytest.raises(ValueError, match="three coordinates"):
        verify_node(QUARTIC_A, point)


@pytest.mark.parametrize("point", [(0, 0, 0), (Fraction(0), 0, Fraction(0, 7))])
def test_zero_node_is_rejected(point):
    for call in (classify, verify_node, normalize_at_node):
        with pytest.raises(ValueError, match="the zero vector is not a projective point"):
            call(QUARTIC_A, point)


def test_verdict_projective_invariance():
    rng = random.Random(43)
    cases = [(QUARTIC_A, (1, 0, 0), True),
             (QUARTIC_B, (0, 0, 1), False),
             (printed_93(Fraction(-1, 4)), (0, 0, 1), True)]
    for _ in range(7):
        t = rand_invertible(rng)
        inv = invert(t)
        for quartic, node, verdict in cases:
            moved = quartic.substitute_linear(t)
            moved_node = tuple(sum(inv[i][j] * node[j] for j in range(3))
                               for i in range(3))
            assert classify(moved, moved_node).type_two == verdict


# ---------------------------------------------------------------------------
# one node transform per classify

# two conics through the four points (+-1 : +-1 : 1); each is a node of the product
CONIC_1 = parse_form("u^2 + 2*v^2 - 3*w^2", DUAL_VARS)
TWO_CONICS_1 = CONIC_1 * parse_form("2*u^2 + v^2 - 3*w^2", DUAL_VARS)
TWO_CONICS_2 = CONIC_1 * parse_form("u*v - w^2", DUAL_VARS)


def fresh_classify(quartic, point):
    """classify on a new but equal quartic, which `_decompose`'s last result,
    kept by the quartic's identity, cannot serve."""
    return classify(copy.copy(quartic), point)


def test_classify_moves_the_node_once(monkeypatch):
    """Counts the integer kernels at the module attributes `nodal` calls: the
    node move is one `substitute_terms`, the Koszul solve one remainder kernel
    `_solve`.
    No quartic is hashed, and `tangent_map` reads the numerators of the
    decomposition's forms, the conic data's and the direction's: its one
    `integral_row` is the node's column."""
    calls = {"substitute_terms": 0, "verify_node": 0, "_solve": 0, "integral_row": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    def unhashable(self):
        raise AssertionError("a quartic was hashed")

    quartic = copy.copy(TWO_CONICS_1)
    for name in calls:
        monkeypatch.setattr(nodal, name, counting(name, getattr(nodal, name)))
    monkeypatch.setattr(TernaryForm, "__hash__", unhashable)
    analysis = classify(quartic, (1, -1, 1))
    # one Koszul solve decides admissibility and gives (phi, psi)
    assert {k: calls[k] for k in ("substitute_terms", "verify_node", "_solve")} == {
        "substitute_terms": 1, "verify_node": 1, "_solve": 1}
    assert analysis.report.all_ok()
    # the direction moves once; xi by Cramer's rule, one Koszul solve
    calls["integral_row"] = 0
    tangent_map(analysis.decomposition, analysis.conic_data, TWO_CONICS_2)
    assert calls == {"substitute_terms": 2, "verify_node": 1, "_solve": 2, "integral_row": 1}


def test_interleaved_classify_matches_fresh_calls():
    p1, p2 = (1, 1, 1), (-1, 1, 1)
    sequence = [(TWO_CONICS_1, p1), (TWO_CONICS_2, p1), (TWO_CONICS_1, p2),
                (TWO_CONICS_1, p1)]
    expected = [fresh_classify(q, p) for q, p in sequence]
    assert expected[0] != expected[1] and expected[0] != expected[2]
    assert [classify(q, p) for q, p in sequence] == expected


def test_point_types_give_equal_analyses():
    as_ints = fresh_classify(TWO_CONICS_2, [1, 1, 1])
    as_fractions = fresh_classify(TWO_CONICS_2, (Fraction(1), Fraction(1), Fraction(1)))
    assert as_ints == as_fractions == classify(TWO_CONICS_2, [1, 1, 1])


def test_memoized_pieces_are_tuples():
    result = nodal._decompose(TWO_CONICS_1, [1, 1, 1])
    # the last result serves the same quartic object only
    assert nodal._decompose(TWO_CONICS_1, (1, 1, 1)) is result
    assert nodal._decompose(copy.copy(TWO_CONICS_1), (1, 1, 1)) == result
    assert nodal._decompose(copy.copy(TWO_CONICS_1), (1, 1, 1)) is not result
    report, dec = result
    assert type(result) is tuple and type(report) is NodeReport and report.all_ok()
    assert type(dec) is nodal.NodeDecomposition and type(dec.pair) is tuple
    transform = dec.transform
    assert type(transform) is tuple and all(type(row) is tuple for row in transform)
    assert all(isinstance(f, BinaryForm) for f in (dec.f2, dec.f3, dec.f4))
    assert dec.t_var == "u"
    assert type(dec.split) is tuple and len(dec.split) == 2
    assert all(type(f) is BinaryForm for f in dec.split)
    with pytest.raises(AttributeError):
        dec.split = None
    not_admissible = nodal._decompose(parse_form("w^2*u*v+w*u^3+v^4", DUAL_VARS), (0, 0, 1))
    assert not not_admissible[0].admissible and not_admissible[1].split is None


NODE_ERROR_CASES = [
    (QUARTIC_A, (1, 1, 1), (False, False, False, False)),   # off the curve
    (QUARTIC_B, (1, 0, 0), (True, False, False, False)),    # smooth point
    (parse_form("(u^2+v^2)^2", DUAL_VARS), (0, 0, 1), (True, True, False, False)),
    # ordinary, not admissible: f2 = u*v and f3 = u^3 share a root; f3 = 0
    (parse_form("w^2*u*v+w*u^3+v^4", DUAL_VARS), (0, 0, 1), (True, True, True, False)),
    (parse_form("w^2*(u^2-v^2)+u^4+v^4", DUAL_VARS), (0, 0, 1), (True, True, True, False)),
]


@pytest.mark.parametrize("quartic, point, flags", NODE_ERROR_CASES)
def test_node_error_reports_are_unchanged(quartic, point, flags):
    with pytest.raises(NodeError) as err:
        fresh_classify(quartic, point)
    expected = dict(zip(("on_curve", "singular", "ordinary", "admissible"), flags))
    assert err.value.report.flags() == expected
    assert str(err.value) == f"node verification failed: {expected}"


def test_admissible_exactly_when_the_resultant_is_nonzero():
    rng = random.Random(46)

    def form(degree):
        return BinaryForm.from_coeffs(PAIR_VW, [rng.randint(-5, 5) for _ in range(degree + 1)])

    seen = {True: 0, False: 0}
    for i in range(60):
        f2 = form(2)
        if i % 3 == 1:  # plant a shared root
            common = BinaryForm.from_coeffs(PAIR_VW, [1, rng.randint(-3, 3)])
            f2, f3 = common * form(1), common * form(2)
        else:
            f3 = zero_form(BinaryForm, 3, PAIR_VW) if i % 6 == 2 else form(3)
        if f2.is_zero() or linalg.disc_binary_quadratic(f2) == 0:
            continue
        phi, psi = form(1), form(2)
        admissible = not f3.is_zero() and sylvester_resultant(f2, f3) != 0
        seen[admissible] += 1
        t = rand_invertible(rng)
        inv = invert(t)
        quartic = assemble_quartic(f2, f3, form(4), "u", DUAL_VARS).substitute_linear(t)
        node = tuple(inv[r][0] for r in range(3))
        assert verify_node(quartic, node) == NodeReport(True, True, True, admissible)
        dec = normalize_at_node(quartic, node)
        if admissible:
            data = associated_conic(dec)
            assert data.phi * dec.f3 + data.psi * dec.f2 == dec.f4
            built = quartic_from_conic_and_cubic(f2, f3, phi, psi, "u", DUAL_VARS)
            data = associated_conic(normalize_at_node(built, (1, 0, 0)))
            assert (data.phi, data.psi) == (phi, psi)
        else:
            with pytest.raises(PreconditionError):
                associated_conic(dec)
            with pytest.raises(PreconditionError, match="^f2 and f3 must be coprime$"):
                quartic_from_conic_and_cubic(f2, f3, phi, psi, "u", DUAL_VARS)
    assert seen[True] >= 20 and seen[False] >= 15


def test_coprimality_check_matches_the_resultant():
    """quartic_from_conic_and_cubic rejects (f2, f3), and koszul_solve raises
    PreconditionError, exactly where their resultant vanishes: where the
    Koszul system is singular.  Otherwise koszul_solve recovers (phi, psi)."""
    rng = random.Random(47)

    def form(degree, bound=9):
        return BinaryForm.from_coeffs(PAIR_VW, [rng.randint(-bound, bound)
                                                for _ in range(degree + 1)])

    seen = {True: 0, False: 0}
    for i in range(240):
        if i % 4 == 0:  # a shared finite root
            common = BinaryForm.from_coeffs(PAIR_VW, [rng.randint(1, 4), rng.randint(-5, 5)])
            f2, f3 = common * form(1), common * form(2)
        elif i % 4 == 1:  # a shared root at v = 0
            f2, f3 = form(2), form(3)
            f2 = BinaryForm.from_coeffs(PAIR_VW, [0] + list(f2.coeffs[1:]))
            f3 = BinaryForm.from_coeffs(PAIR_VW, [0] + list(f3.coeffs[1:]))
        else:
            f2, f3 = form(2), form(3, rng.choice([9, 10 ** 20]))
        if linalg.disc_binary_quadratic(f2) == 0:
            continue
        phi, psi = form(1), form(2)
        singular = f3.is_zero() or sylvester_resultant(f2, f3) == 0
        seen[singular] += 1
        if singular:
            with pytest.raises(PreconditionError, match="^Koszul system is singular"):
                koszul_solve(f2, f3, psi * f2 + phi * f3)
            with pytest.raises(PreconditionError, match="^f2 and f3 must be coprime$"):
                quartic_from_conic_and_cubic(f2, f3, phi, psi, "u", DUAL_VARS)
        else:
            assert koszul_solve(f2, f3, psi * f2 + phi * f3) == (phi, psi)
            quartic_from_conic_and_cubic(f2, f3, phi, psi, "u", DUAL_VARS)
    assert seen[True] >= 80 and seen[False] >= 80, seen


# ---------------------------------------------------------------------------
# the integer core against the Fraction path

def assert_same_forms(new, old):
    """Equal values, equal reprs (so equal types down to every Fraction), and
    equal text and JSON for every form field."""
    assert new == old and repr(new) == repr(old)
    for name in new._fields:
        a, b = getattr(new, name), getattr(old, name)
        if isinstance(a, (BinaryForm, TernaryForm)):
            assert str(a) == str(b) and a.to_json() == b.to_json()


def assert_core_matches_oracle(quartic, node, direction):
    analysis = fresh_classify(quartic, node)
    expected = fraction_classify(quartic, node)
    assert_same_forms(analysis, expected)
    assert_same_forms(analysis.decomposition, expected.decomposition)
    assert_same_forms(analysis.conic_data, expected.conic_data)
    result = tangent_map(analysis.decomposition, analysis.conic_data, direction)
    assert_same_forms(result, fraction_tangent_map(expected.decomposition,
                                                   expected.conic_data, direction))
    return analysis


@pytest.mark.parametrize("seed", [1, 7])
def test_integer_core_matches_fraction_path_on_bench_quartics(seed):
    rng = random.Random(f"nodal-batch/{seed}")
    for i in range(64):
        q = make_quartic(rng, type_two=(i % 2 == 0))
        analysis = assert_core_matches_oracle(parse_form(q.quartic, DUAL_VARS), q.node,
                                              parse_form(q.direction, DUAL_VARS))
        assert analysis.type_two == q.type_two


def quartic_with_node(rng, node, type_two):
    """A random admissible quartic with an ordinary node at the point node (a
    random integer matrix with last column node moves it from [0:0:1]), and a
    random direction vanishing there."""
    while True:
        f2, f3, phi, psi = (BinaryForm.from_coeffs(PAIR_UV, [rng.randint(-6, 6)
                                                              for _ in range(k + 1)])
                            for k in (2, 3, 1, 2))
        if type_two:  # phi^2 + psi a square
            psi = power(BinaryForm.from_coeffs(PAIR_UV, [1, rng.randint(-3, 3)]), 2) - phi * phi
        try:
            base = quartic_from_conic_and_cubic(f2, f3, phi, psi, "w", DUAL_VARS)
        except PreconditionError:
            continue
        m = [[rng.randint(-3, 3), rng.randint(-3, 3), x] for x in node]
        if det_rational(m) != 0:
            break
    quartic = base.substitute_linear(invert(m))  # quartic(node) = base(0, 0, 1)
    terms = {(i, j, 4 - i - j): Fraction(rng.randint(-3, 3))
             for i in range(5) for j in range(5 - i)}
    pivot = next(k for k in range(3) if node[k])
    e = tuple(4 if k == pivot else 0 for k in range(3))
    terms[e] -= (TernaryForm.from_terms(4, DUAL_VARS, terms).evaluate(node)
                 / Fraction(node[pivot]) ** 4)
    return quartic, TernaryForm.from_terms(4, DUAL_VARS, terms)


def big_fraction(rng):
    return Fraction(rng.randint(-10 ** 40, 10 ** 40), rng.randint(10 ** 39, 10 ** 40))


def random_node_cases(kind):
    """12 (quartic, node, direction, type_two) cases, alternately of type II."""
    rng = random.Random(f"integer-core/{kind}")
    for i in range(12):
        if kind == "40-digit-denominators":
            node = tuple(big_fraction(rng) for _ in range(3))
        elif kind == "negative-pivot":
            node = (-rng.randint(1, 9), rng.randint(-9, 9), Fraction(rng.randint(-9, 9), 7))
        elif kind == "zero-first-coordinate":
            node = (0, rng.choice([-1, 1]) * rng.randint(1, 99), big_fraction(rng))
        else:
            node = (Fraction(rng.randint(1, 9), rng.randint(1, 9)), rng.randint(-9, 9), 1)
        quartic, direction = quartic_with_node(rng, node, type_two=i % 2 == 0)
        if kind == "fraction-coefficients":
            quartic = quartic.scale(Fraction(rng.randint(1, 99), rng.randint(100, 999)))
            assert any(c.denominator != 1 for c in quartic.terms.values())
        yield quartic, node, direction, i % 2 == 0


@pytest.mark.parametrize("kind", ["40-digit-denominators", "negative-pivot",
                                  "zero-first-coordinate", "fraction-coefficients"])
def test_integer_core_matches_fraction_path_on_random_nodes(kind):
    for quartic, node, direction, type_two in random_node_cases(kind):
        analysis = assert_core_matches_oracle(quartic, node, direction)
        assert analysis.type_two == type_two


def view_cases():
    """The 64 seed-1 bench quartics, then nodes with a zero first coordinate
    and quartics with fraction coefficients."""
    rng = random.Random("nodal-batch/1")
    for i in range(64):
        q = make_quartic(rng, type_two=(i % 2 == 0))
        yield parse_form(q.quartic, DUAL_VARS), q.node, parse_form(q.direction, DUAL_VARS)
    for kind in ("zero-first-coordinate", "fraction-coefficients"):
        for quartic, node, direction, _ in random_node_cases(kind):
            yield quartic, node, direction


def test_integer_views_match_the_public_fields():
    """The integers `tangent_map` reads off the public fields: the node's
    column over lam and the forms' numerators, each set over one
    denominator, are in lowest terms, and the split is the conic data's
    (phi, psi); clones give the same tangent map; and `verify_node` and
    `normalize_at_node`, each alone, give what `classify` holds."""
    for quartic, node, direction in view_cases():
        analysis = fresh_classify(quartic, node)
        dec, data = analysis.decomposition, analysis.conic_data
        expected = tangent_map(dec, data, direction)
        column, lam = integral_row([row[2] for row in dec.transform])
        split = integral_coeffs(*dec.split)
        for nums, den in ((column, lam), integral_coeffs(dec.f2, dec.f3, dec.f4), split,
                          *((f.nums, f.den) for f in (dec.f2, dec.f3, dec.f4, *dec.split))):
            assert all(type(x) is int for x in (*nums, den))
            assert den > 0 and gcd(*nums, den) == 1
        assert split == integral_coeffs(data.phi, data.psi)
        assert column[next(i for i, x in enumerate(column) if x)] == lam
        for clone in (copy.copy(dec), copy.deepcopy(dec), pickle.loads(pickle.dumps(dec))):
            for data_clone in (copy.copy(data), pickle.loads(pickle.dumps(data))):
                assert tangent_map(clone, data_clone, direction) == expected
        assert verify_node(copy.copy(quartic), node) == analysis.report
        assert normalize_at_node(copy.copy(quartic), node) == dec


@pytest.mark.parametrize("quartic, point, flags", NODE_ERROR_CASES)
def test_node_errors_match_fraction_path(quartic, point, flags):
    with pytest.raises(NodeError) as err:
        fresh_classify(quartic, point)
    with pytest.raises(NodeError) as expected:
        fraction_classify(quartic, point)
    assert err.value.report == expected.value.report
    assert str(err.value) == str(expected.value)


# ---------------------------------------------------------------------------
# residual line

def test_residual_identity_worked_values():
    dec = normalize_at_node(QUARTIC_A, (1, 0, 0))
    data = associated_conic(dec)
    result = residual_line_identity(dec, data)
    assert result == parse_form("w^2*(v^2+w^2)", PAIR_VW)
    dec_b = normalize_at_node(QUARTIC_B, (0, 0, 1))
    data_b = associated_conic(dec_b)
    assert residual_line_identity(dec_b, data_b) == parse_form(
        "-u*v*(u^2+v^2)", PAIR_UV)


def test_residual_identity_random_round_trips():
    rng = random.Random(44)
    for _ in range(100):
        quartic, f2, f3, phi, psi = rand_admissible(rng)
        dec = normalize_at_node(quartic, (1, 0, 0))
        data = associated_conic(dec)
        assert data.phi == phi and data.psi == psi
        result = residual_line_identity(dec, data)
        assert result == (phi * phi + psi) * f2
        assert data.det3 == Fraction(-1, 4) * data.disc_binary


# ---------------------------------------------------------------------------
# tangent map

def test_tangent_map_worked_values():
    dec = normalize_at_node(QUARTIC_A, (1, 0, 0))
    data = associated_conic(dec)
    g = parse_form("v*u^3+3*u*v*w^2+u*v^3+2*v^4", DUAL_VARS)
    result = tangent_map(dec, data, g)
    assert result.xi == (Fraction(-1, 2), Fraction(0))
    assert result.phi_dot == BinaryForm.from_coeffs(PAIR_VW, [Fraction(-1, 2), 0])
    assert result.psi_dot == parse_form("3*v^2", PAIR_VW)
    assert result.conic_velocity == parse_form("-u*v - 3*v^2", DUAL_VARS)


def test_tangent_map_zero_direction():
    dec = normalize_at_node(QUARTIC_A, (1, 0, 0))
    data = associated_conic(dec)
    result = tangent_map(dec, data, zero_form(TernaryForm, 4, DUAL_VARS))
    assert result.xi == (0, 0)
    assert result.phi_dot.is_zero() and result.psi_dot.is_zero()
    assert result.conic_velocity.is_zero()


def test_tangent_map_with_zero_f4():
    f2, f3 = parse_form("v*w", PAIR_VW), parse_form("v^3 + w^3", PAIR_VW)
    quartic = quartic_from_conic_and_cubic(f2, f3, zero_form(BinaryForm, 1, PAIR_VW),
                                           zero_form(BinaryForm, 2, PAIR_VW), "u", DUAL_VARS)
    dec = normalize_at_node(quartic, (1, 0, 0))
    assert dec.f4.is_zero()
    g = parse_form("u^3*(v-w) + u^2*v^2 + u*w^3 + v^4", DUAL_VARS)
    result = tangent_map(dec, associated_conic(dec), g)
    assert result.xi == (1, -1)
    assert result.phi_dot == parse_form("v", PAIR_VW)
    assert result.psi_dot == parse_form("-w^2", PAIR_VW)
    assert result.conic_velocity == parse_form("2*u*v + w^2", DUAL_VARS)


def test_tangent_map_rejects_nonvanishing_direction():
    dec = normalize_at_node(QUARTIC_A, (1, 0, 0))
    data = associated_conic(dec)
    with pytest.raises(PreconditionError):
        tangent_map(dec, data, parse_form("u^4", DUAL_VARS))


def test_tangent_map_family_derivative():
    # along the c-parametrized family the node stays put and (phi, psi) are
    # exactly linear in c, so the tangent map along dF/dc must reproduce the
    # c-derivatives (phi' = u + v, psi' = -(u^2 + u*v + v^2)) at every c
    direction = parse_form("-2*u^2*v^2", DUAL_VARS)  # dF/dc
    for c in (Fraction(0), Fraction(1, 3), Fraction(-1, 4), Fraction(5)):
        dec = normalize_at_node(printed_93(c), (0, 0, 1))
        data = associated_conic(dec)
        result = tangent_map(dec, data, direction)
        assert result.xi == (0, 0)
        assert result.phi_dot == BinaryForm.from_coeffs(PAIR_UV, [1, 1])
        assert result.psi_dot == BinaryForm.from_coeffs(PAIR_UV, [-1, -1, -1])
        # finite-difference cross-check: exact values at c and c + h
        h = Fraction(1, 7)
        data_h = associated_conic(normalize_at_node(printed_93(c + h), (0, 0, 1)))
        assert (data_h.phi - data.phi).scale(1 / h) == result.phi_dot
        assert (data_h.psi - data.psi).scale(1 / h) == result.psi_dot


def test_tangent_map_rerun_stable():
    dec = normalize_at_node(QUARTIC_B, (0, 0, 1))
    data = associated_conic(dec)
    first = tangent_map(dec, data, QUARTIC_B)
    second = tangent_map(dec, data, QUARTIC_B)
    assert first == second


# ---------------------------------------------------------------------------
# inverse construction

def test_quartic_from_worked_values():
    f2 = parse_form("v^2+w^2", PAIR_VW)
    f3 = parse_form("2*v^3", PAIR_VW)
    phi = zero_form(BinaryForm, 1, PAIR_VW)
    psi = parse_form("w^2", PAIR_VW)
    built = quartic_from_conic_and_cubic(f2, f3, phi, psi, "u", DUAL_VARS)
    assert built == QUARTIC_A
    f2b = parse_form("u^2+v^2", PAIR_UV)
    f3b = parse_form("u^3+v^3", PAIR_UV)
    built_b = quartic_from_conic_and_cubic(
        f2b, f3b, zero_form(BinaryForm, 1, PAIR_UV), parse_form("-u*v", PAIR_UV),
        "w", DUAL_VARS)
    assert built_b == QUARTIC_B


def test_quartic_from_rejects_degenerate_inputs():
    f3 = parse_form("2*v^3", PAIR_VW)
    phi = zero_form(BinaryForm, 1, PAIR_VW)
    psi = parse_form("w^2", PAIR_VW)
    with pytest.raises(PreconditionError):
        quartic_from_conic_and_cubic(parse_form("v^2", PAIR_VW), f3, phi, psi, "u")
    with pytest.raises(PreconditionError):
        quartic_from_conic_and_cubic(parse_form("v^2+w^2", PAIR_VW),
                                     zero_form(BinaryForm, 3, PAIR_VW), phi, psi, "u")
    with pytest.raises(PreconditionError):
        quartic_from_conic_and_cubic(parse_form("v*w", PAIR_VW),
                                     parse_form("v^3", PAIR_VW), phi, psi, "u")


def test_round_trip_random():
    rng = random.Random(45)
    for _ in range(100):
        quartic, f2, f3, phi, psi = rand_admissible(rng)
        analysis = classify(quartic, (1, 0, 0))
        assert analysis.decomposition.f2 == f2
        assert analysis.decomposition.f3 == f3
        assert analysis.conic_data.phi == phi
        assert analysis.conic_data.psi == psi
        assert analysis.type_two == (analysis.conic_data.det3 == 0)
