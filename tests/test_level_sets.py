"""Level sets as thresholds of one fiberwise value table per tag.

The reference evaluates every variable's tag on every atom with
structure.eval_formula.  The value tables must give the same level sets in
the same order, while evaluating each tag only once per atom.
"""

from fractions import Fraction

import pytest

from dilogic import family, mba
from dilogic import formula as fm
from dilogic import integral as di
from dilogic import structure as st
from dilogic import transform as tr
from dilogic.errors import InputError

from helpers import atomic_example_assignment, atomic_example_field, p_of

F = Fraction

INSTANCES = family.determination_instances(0, 17)


def reference_assignment(result, field_, assignment):
    """Level set of every variable, one eval_formula call per atom."""
    out = {}
    for v in sorted(result.variables | mba.free_set_vars(result.g),
                    key=mba.var_sort_key):
        atoms = set()
        for w in field_.space.atoms:
            local = {name: e(w) for name, e in assignment.items()}
            value = st.eval_formula(v.tag, field_.fibers[w], local)
            if value > v.level or (not v.strict and value == v.level):
                atoms.add(w)
        out[v] = frozenset(atoms)
    return out


def compile_instance(inst):
    return tr.transform(fm.rewrite_inf(inst.formula), inst.k,
                        tr.DEFAULT_BUDGET_C, family.FAMILY_BUDGET_VARS)


@pytest.mark.parametrize("inst", INSTANCES, ids=lambda inst: inst.name)
def test_level_assignment_matches_per_atom_reference(inst):
    result = compile_instance(inst)
    assign = tr.build_level_assignment(result, inst.field, inst.assignment)
    expected = reference_assignment(result, inst.field, inst.assignment)
    assert list(assign.items()) == list(expected.items())


def test_threshold_at_a_fiber_value():
    field_ = atomic_example_field()
    assignment = atomic_example_assignment(field_)
    phi = p_of("x")
    values = di.fiber_values(phi, field_, assignment)
    assert values == (F(3, 4), F(1, 4))
    cases = [
        (F(1, 4), di.STRICT, {"w1"}),
        (F(1, 4), di.NONSTRICT, {"w1", "w2"}),
        (F(3, 4), di.STRICT, set()),
        (F(3, 4), di.NONSTRICT, {"w1"}),
    ]
    for t, mode, atoms in cases:
        assert di.threshold(values, field_, t, mode) == frozenset(atoms)
        assert di.level_set(phi, field_, assignment, t, mode) == frozenset(atoms)
    with pytest.raises(InputError):
        di.threshold(values, field_, F(1, 2), "weird")


def test_nonstrict_variables_at_fiber_values():
    # The right branch of sub is rewired to nonstrict variables on
    # 1 -. P(x) at levels 1 - i/12, which meet its fiber values 1/4, 3/4.
    field_ = atomic_example_field()
    assignment = atomic_example_assignment(field_)
    result = tr.transform(fm.TruncSub(p_of("x"), p_of("x")), 4)
    assign = tr.build_level_assignment(result, field_, assignment)
    edge = []
    for v in assign:
        values = di.fiber_values(v.tag, field_, assignment)
        if not v.strict and v.level in values:
            edge.append(v)
            w = field_.space.atoms[values.index(v.level)]
            assert w in assign[v]
    assert {v.level for v in edge} == {F(1, 4), F(3, 4)}
    expected = reference_assignment(result, field_, assignment)
    assert list(assign.items()) == list(expected.items())


@pytest.fixture
def top_level_evals(monkeypatch):
    """Counts eval_formula calls made from outside eval_formula itself."""
    original = st.eval_formula
    count = [0]
    depth = [0]

    def counting(*args, **kwargs):
        count[0] += depth[0] == 0
        depth[0] += 1
        try:
            return original(*args, **kwargs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(st, "eval_formula", counting)
    return count


@pytest.mark.parametrize("inst", INSTANCES, ids=lambda inst: inst.name)
def test_each_tag_is_evaluated_once_per_atom(inst, top_level_evals):
    result = compile_instance(inst)
    atoms = len(inst.field.space.atoms)
    tags = {v.tag for v in result.variables | mba.free_set_vars(result.g)}
    top_level_evals[0] = 0
    tr.build_level_assignment(result, inst.field, inst.assignment)
    assert top_level_evals[0] == len(tags) * atoms
    for zeta in result.formulas:
        top_level_evals[0] = 0
        assert tr.complement_identity_holds(
            zeta, result.levels[zeta], inst.field, inst.assignment)
        assert top_level_evals[0] == 2 * atoms
