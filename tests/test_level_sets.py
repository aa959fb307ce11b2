"""Level sets as thresholds of one fiberwise value table per tag.

The reference evaluates every variable's tag on every atom with
structure.eval_formula.  The value tables must give the same level sets in
the same order, while evaluating each tag only once per atom.  Only the
variables G reads are assigned.  A result reuses the tables of its last
assignment for the same field and an equal assignment, and recomputes
them for any other.
"""

from fractions import Fraction

import pytest

from dilogic import checks, family, mba
from dilogic import formula as fm
from dilogic import integral as di
from dilogic import structure as st
from dilogic import transform as tr

from helpers import (
    atomic_example_assignment,
    atomic_example_field,
    p_of,
    var_sort_key,
)

F = Fraction

INSTANCES = family.determination_instances(0, 17)


def reference_assignment(variables, field_, assignment):
    """Level set of each variable, one eval_formula call per atom."""
    out = {}
    for v in sorted(variables, key=var_sort_key):
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
    expected = reference_assignment(mba.free_set_vars(result.g), inst.field,
                                    inst.assignment)
    assert list(assign.items()) == list(expected.items())


@pytest.mark.parametrize("inst", INSTANCES, ids=lambda inst: inst.name)
def test_read_variables_determine_g(inst):
    # G takes the same value on its own level sets as on the level sets of
    # the whole declared set, in both evaluation modes.
    result = compile_instance(inst)
    assign = tr.build_level_assignment(result, inst.field, inst.assignment)
    assert set(assign) == mba.free_set_vars(result.g) <= result.variables
    declared = reference_assignment(result.variables, inst.field,
                                    inst.assignment)
    space = inst.field.space
    for mode in (mba.MAXIMAL, mba.ENUMERATE):
        assert (mba.eval_mba(result.g, assign, space, mode)
                == mba.eval_mba(result.g, declared, space, mode))


def test_threshold_at_a_fiber_value():
    field_ = atomic_example_field()
    assignment = atomic_example_assignment(field_)
    phi = p_of("x")
    values = di.fiber_values(phi, field_, assignment)
    assert values == (F(3, 4), F(1, 4))
    cases = [
        (F(1, 4), True, {"w1"}),
        (F(1, 4), False, {"w1", "w2"}),
        (F(3, 4), True, set()),
        (F(3, 4), False, {"w1"}),
    ]
    for t, strict, atoms in cases:
        assert di.threshold(values, field_, t, strict=strict) == frozenset(atoms)
        assert di.level_set(phi, field_, assignment, t,
                            strict=strict) == frozenset(atoms)
    # The mode is keyword-only: a positional mode is a TypeError.
    with pytest.raises(TypeError):
        di.threshold(values, field_, F(1, 2), "nonstrict")


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
    expected = reference_assignment(mba.free_set_vars(result.g), field_,
                                    assignment)
    assert list(assign.items()) == list(expected.items())


def test_fiber_values_match_per_atom_eval_formula_on_the_suite():
    """fiber_values walks a tag for its unit once, not once per atom; each
    entry is still eval_formula's value in that atom's fiber, on every
    formula of F over the 204-instance suite."""
    tables = 0
    for inst in family.determination_instances(0, 204):
        field_, assignment = inst.field, inst.assignment
        for zeta in compile_instance(inst).formulas:
            expected = tuple(
                st.eval_formula(zeta, field_.fibers[w],
                                {name: e(w) for name, e in assignment.items()})
                for w in field_.space.atoms)
            assert di.fiber_values(zeta, field_, assignment) == expected, inst.name
            tables += 1
    assert tables > 204


@pytest.fixture
def top_level_evals(monkeypatch):
    """Counts the evaluations of a formula in one model, eval_formula's
    or fiber_values' call of structure._eval_at_unit, made from outside
    such an evaluation itself."""
    original = st._eval_at_unit
    count = [0]
    depth = [0]

    def counting(*args, **kwargs):
        count[0] += depth[0] == 0
        depth[0] += 1
        try:
            return original(*args, **kwargs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(st, "_eval_at_unit", counting)
    return count


@pytest.mark.parametrize("inst", INSTANCES, ids=lambda inst: inst.name)
def test_each_tag_is_evaluated_once_per_atom(inst, top_level_evals):
    result = compile_instance(inst)
    atoms = len(inst.field.space.atoms)
    tags = {v.tag for v in mba.free_set_vars(result.g)}
    top_level_evals[0] = 0
    tr.build_level_assignment(result, inst.field, inst.assignment)
    assert top_level_evals[0] == len(tags) * atoms
    for zeta in result.formulas:
        top_level_evals[0] = 0
        assert tr.complement_identity_holds(
            zeta, result.levels[zeta], inst.field, inst.assignment)
        assert top_level_evals[0] == 2 * atoms


# ---------------------------------------------------------------------------
# One result keeps the tables of its last level assignment

# The 51 instances of perfbench's certify panel.
CERTIFY_PANEL = family.determination_instances(0, 51)


@pytest.fixture
def fiber_value_calls(monkeypatch):
    """Counts di.fiber_values calls."""
    original = di.fiber_values
    count = [0]

    def counting(*args, **kwargs):
        count[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(di, "fiber_values", counting)
    return count


def test_sup_collapse_reuses_the_tables_of_the_determination_check(
        fiber_value_calls):
    supchains = 0
    for inst in CERTIFY_PANEL:
        result = compile_instance(inst)
        tags = {v.tag for v in mba.free_set_vars(result.g)}
        fiber_value_calls[0] = 0
        report = tr.determination_check(inst.formula, inst.k, inst.field,
                                        inst.assignment, result=result)
        assert report.ok
        assert checks.sup_collapse(inst, result) in (True, None)
        assert fiber_value_calls[0] == len(tags), inst.name
        supchains += mba.contains_supchain(result.g)
    assert supchains >= 10


def _other_element(field_, element):
    """A choice function of field_ other than element, or None."""
    return next((e for e in field_.elements() if e != element), None)


def test_a_changed_field_or_assignment_recomputes_the_tables(fiber_value_calls):
    fields = assignments = mutations = 0
    for i, inst in enumerate(CERTIFY_PANEL):
        result = compile_instance(inst)
        tags = {v.tag for v in mba.free_set_vars(result.g)}

        def assigned(field_, assignment):
            """The assignment, checked against the reference, and the
            fiber_values calls it took."""
            fiber_value_calls[0] = 0
            got = tr.build_level_assignment(result, field_, assignment)
            expected = reference_assignment(mba.free_set_vars(result.g),
                                            field_, assignment)
            assert list(got.items()) == list(expected.items()), inst.name
            return fiber_value_calls[0]

        assignment = dict(inst.assignment)
        assert assigned(inst.field, assignment) == len(tags)
        assert assigned(inst.field, dict(assignment)) == 0
        # A different field: an equal copy, and for a sentence another
        # instance's field, whose tables differ.
        copy = di.MeasurableField(inst.field.space, dict(inst.field.fibers))
        assert assigned(copy, assignment) == len(tags)
        if not assignment:
            other = CERTIFY_PANEL[(i + 1) % len(CERTIFY_PANEL)].field
            assert assigned(other, assignment) == len(tags)
            fields += 1
        assert assigned(inst.field, assignment) == len(tags)
        if not assignment:
            continue
        name = sorted(assignment)[0]
        element = _other_element(inst.field, assignment[name])
        if element is None:
            continue
        # A different assignment, then the same dict mutated in place.
        assert assigned(inst.field, {**assignment, name: element}) == len(tags)
        assignments += 1
        assert assigned(inst.field, assignment) == len(tags)
        assignment[name] = element
        assert assigned(inst.field, assignment) == len(tags)
        mutations += 1
    assert min(fields, assignments, mutations) >= 5
