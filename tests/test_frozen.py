"""The value classes on their one base, `forms.Frozen`, against frozen
dataclasses of the same fields: repr, ==, hash and the node flags match the
twin, pickle and copy rebuild an equal value, a wrong argument count is a
TypeError, and no field can be assigned or deleted."""

import copy
import dataclasses
import pickle
import random
from fractions import Fraction
from itertools import product

import pytest

import luroth
from luroth import verify
from luroth.forms import BinaryForm, Frozen, FrozenError, TernaryForm, parse_form
from luroth.linalg import solve_linear
from luroth.nodal import NodeReport, classify, quartic_from_conic_and_cubic, tangent_map, verify_node
from luroth.poncelet import (DUAL_VARS, PARAM_VARS, PonceletPencil, family_matrix, make_conic,
                             poncelet_matrix, standard_conic)
from oracles import dataclass_twin

GEN_CONIC = ("s0^2+2*s0*s1+3*s1^2", "2*s0^2-s0*s1+s1^2", "s0*s1-2*s1^2")


def small(rng, k):
    return [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(k)]


def seeded_values(seed: int) -> list:
    """Instances of every value class, built afresh from the seed."""
    rng = random.Random(seed)
    values = [BinaryForm.from_coeffs(PARAM_VARS, small(rng, d + 1)) for d in range(5)]
    values.append(BinaryForm.zero(3, PARAM_VARS))
    for degree in (0, 2, 4):
        terms = {(i, j, degree - i - j): c for i in range(degree + 1)
                 for j in range(degree + 1 - i) for c in small(rng, 1)}
        values.append(TernaryForm.from_terms(degree, DUAL_VARS, terms))
    values.append(TernaryForm.zero(2, DUAL_VARS))
    values += [solve_linear([[1, 2], [3, 4]], small(rng, 2)),
               solve_linear([[1, 2], [2, 4]], [1, 2]),
               solve_linear([[1, 2], [2, 4]], [1, 3])]
    conics = [standard_conic(), make_conic(*(parse_form(p, PARAM_VARS) for p in GEN_CONIC))]
    pencils = []
    while len(pencils) < 2:
        try:
            pencils.append(PonceletPencil(*(BinaryForm.from_coeffs(PARAM_VARS, small(rng, 4))
                                            for _ in range(2))))
        except ValueError:
            continue
    values += conics + pencils + [poncelet_matrix(conics[0], pencils[0]),
                                  family_matrix("92"), family_matrix("93", small(rng, 1)[0])]
    pair = ("v", "w")
    while True:
        f2, f3, phi, psi = (BinaryForm.from_coeffs(pair, small(rng, k)) for k in (3, 4, 2, 3))
        try:
            quartic = quartic_from_conic_and_cubic(f2, f3, phi, psi, "u", DUAL_VARS)
            break
        except ValueError:
            continue
    analysis = classify(quartic, (1, 0, 0))
    direction = parse_form("v^4 + u*w^3 - 2*u^2*v*w", DUAL_VARS)
    values += [analysis, analysis.report, analysis.decomposition, analysis.conic_data,
               tangent_map(analysis.decomposition, analysis.conic_data, direction),
               verify_node(quartic, (0, 1, 0)),
               verify.CheckResult("check_seeded", rng.random() < 0.5, f"seed {seed}")]
    return values


VALUES = seeded_values(5)
AGAIN = seeded_values(5)
OTHER = seeded_values(6)


def fields(value) -> list:
    return [getattr(value, f) for f in vars(type(value))["__annotations__"]]


def test_every_exported_value_class_is_frozen_and_seeded():
    exported = {obj for obj in map(vars(luroth).get, luroth.__all__)
                if isinstance(obj, type) and not issubclass(obj, Exception)}
    assert all(issubclass(cls, Frozen) for cls in exported)
    assert exported | {verify.CheckResult} == {type(v) for v in VALUES}
    assert len(exported) == 11


def test_repr_eq_hash_and_flags_match_the_dataclass_twin():
    pool = VALUES + AGAIN + OTHER
    for a in pool:
        assert repr(a) == repr(dataclass_twin(a))
        assert hash(a) == hash(dataclass_twin(a, hashable=True))
        if isinstance(a, NodeReport):
            assert list(a.flags().items()) == list(dataclasses.asdict(dataclass_twin(a)).items())
    for a, b in product(pool, repeat=2):
        if type(a) is type(b):
            assert (a == b) == (dataclass_twin(a, True) == dataclass_twin(b, True)), (a, b)
            assert (a != b) == (dataclass_twin(a, True) != dataclass_twin(b, True)), (a, b)
        else:
            assert a.__eq__(b) is NotImplemented and a != b
    assert all(a == b and hash(a) == hash(b) for a, b in zip(VALUES, AGAIN))
    assert sum(a == b for a, b in zip(VALUES, OTHER)) < len(VALUES) // 2


def test_pickle_and_copy_rebuild_an_equal_value():
    for value in VALUES:
        clones = [copy.copy(value), copy.deepcopy(value)]
        clones += [pickle.loads(pickle.dumps(value, proto))
                   for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
        for clone in clones:
            assert type(clone) is type(value)
            assert clone == value and hash(clone) == hash(value) and repr(clone) == repr(value)


def test_fields_are_positional_and_counted():
    for value in VALUES:
        cls, args = type(value), fields(value)
        assert cls(*args) == value
        with pytest.raises(TypeError):
            cls(*args[:-1])
        with pytest.raises(TypeError):
            cls(*args, args[-1])


def test_no_field_can_be_assigned_or_deleted():
    assert issubclass(FrozenError, AttributeError)
    for value in VALUES:
        for name, old in zip(vars(type(value))["__annotations__"], fields(value)):
            with pytest.raises(FrozenError):
                setattr(value, name, None)
            with pytest.raises(FrozenError):
                delattr(value, name)
            assert getattr(value, name) is old
        with pytest.raises(FrozenError):
            value.extra = 1
