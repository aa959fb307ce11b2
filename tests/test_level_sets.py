"""Level sets from one fiberwise value table per tag, and, for the xi of
a supremum, from the tags' threshold counts at each fiber point.

The reference evaluates every variable's tag on every atom with
structure.eval_formula, and the per-tag path is the threshold of one
integral.fiber_values table per tag.  build_level_assignment must give
the same level sets in the same order, evaluating a tag it reads through
a table once per atom, and, for the xi that the result's supremum built,
each of that supremum's tags once per fiber point, with no xi evaluated.
Only the variables G reads are assigned.  A result reuses the tables of
its last assignment for the same field and an equal assignment, and
recomputes them for any other; a result the builder did not finish
(dataclasses.replace) takes the per-tag path for every tag.
"""

import dataclasses
import random
import re
from fractions import Fraction
from types import SimpleNamespace

import pytest

from dilogic import checks, family, mba
from dilogic import formula as fm
from dilogic import integral as di
from dilogic import structure as st
from dilogic import transform as tr

from dilogic.errors import BudgetError, ValidationError

from helpers import (
    atomic_example_assignment,
    atomic_example_field,
    p_of,
    random_formula,
    recording_xi,
    var_sort_key,
)
from test_fv_transform import BEYOND_TEMPLATES

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


def per_tag_assignment(result, field_, assignment):
    """The per-tag path: each read tag's variables, in result.formulas
    and vars_by_tag order, as thresholds of its one fiber_values table."""
    out = {}
    for tag in result.formulas:
        if tag in result.vars_by_tag:
            values = di.fiber_values(tag, field_, assignment)
            for v in result.vars_by_tag[tag]:
                out[v] = di.threshold(values, field_, v.level, strict=v.strict)
    return out


def via_positions(result):
    """The read variables whose level sets come from grid positions."""
    positions = result._xis.positions if result._xis else {}
    return [v for vs in result.vars_by_tag.values() for v in vs
            if v.tag in positions]


def assert_per_tag_level_sets(result, field_, assignment):
    """Equal to the per-tag path in value and order; returns the count of
    variables that took the position path."""
    got = tr.build_level_assignment(result, field_, assignment)
    assert list(got.items()) == list(
        per_tag_assignment(result, field_, assignment).items())
    return len(via_positions(result))


def test_level_sets_match_the_per_tag_path_on_the_suite():
    read = positioned = 0
    for inst in family.determination_instances(0, 204):
        result = compile_instance(inst)
        positioned += assert_per_tag_level_sets(result, inst.field,
                                                inst.assignment)
        read += len(mba.free_set_vars(result.g))
    assert (read, positioned) == (6492, 4988)


@pytest.mark.parametrize("text", [text for text, *_ in BEYOND_TEMPLATES])
def test_level_sets_match_the_per_tag_path_beyond_the_templates(text):
    phi = fm.parse_formula(text, family.default_signature())
    result = tr.transform(fm.rewrite_inf(phi), 2, 1 << 20, 1 << 20)
    for seed in (1, 2):
        rng = random.Random(seed)
        field_ = family.random_field(family.default_signature(), rng, 2, 2)
        assignment = {v: family.random_element(field_, rng)
                      for v in sorted(fm.free_vars(phi))}
        assert_per_tag_level_sets(result, field_, assignment)


# random_formula's signature: the predicates of the family and the
# functions f and g (random_structure makes them constant).
RANDOM_SIG = fm.Signature(predicates=family.default_signature().predicates,
                          functions=(("f", 1), ("g", 2)))


def test_level_sets_match_the_per_tag_path_on_random_formulas():
    """The 140 of 200 seeded draws that compile under the default
    budgets, each on two random 2-atom fields."""
    rng, fields = random.Random(5), random.Random(6)
    compiled = positioned = 0
    for _ in range(200):
        phi = random_formula(rng, rng.randint(1, 3), ["x"])
        try:
            result = tr.transform(phi, rng.choice((2, 3)))
        except BudgetError:
            continue
        compiled += 1
        for _field in range(2):
            field_ = family.random_field(RANDOM_SIG, fields, 2, 3)
            positioned += assert_per_tag_level_sets(
                result, field_, {"x": family.random_element(field_, fields)})
    assert compiled == 140 and positioned > 100


# A supremum under half, on the left of a sub, nested in another, and one
# whose assignment also binds the supremum's own variable (the parser
# names it y0), which the supremum's points must shadow.
NAMED = {
    "half-sup": ("half(sup y . sub(P(y), Q(x)))", ()),
    "sup-left-of-sub": ("sub(sup y . R(x,y), P(x))", ()),
    "nested-sup": ("sup x . sup y . R(x,y)", ()),
    "assigned-binder": ("sub(sup y . R(x,y), P(y))", ("y0",)),
}


@pytest.mark.parametrize("name", NAMED)
def test_level_sets_of_named_supremum_cases(name):
    text, bound = NAMED[name]
    phi = fm.parse_formula(text, family.default_signature())
    result = tr.transform(phi, 2)
    assert set(bound) <= {result._xis.var}
    positioned = 0
    for seed in range(4):
        rng = random.Random(seed)
        field_ = family.random_field(family.default_signature(), rng, 3, 3)
        assignment = {v: family.random_element(field_, rng)
                      for v in sorted(fm.free_vars(phi) | set(bound))}
        positioned += assert_per_tag_level_sets(result, field_, assignment)
        expected = reference_assignment(mba.free_set_vars(result.g), field_,
                                        assignment)
        got = tr.build_level_assignment(result, field_, assignment)
        assert list(got.items()) == list(expected.items())
    assert positioned


@pytest.fixture
def top_level_evals(monkeypatch):
    """Counts the evaluations of a formula in one model, eval_formula's
    or fiber_values' or point_values' call of structure._eval_at_unit,
    made from outside such an evaluation itself."""
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


def compile_recording_xi(inst):
    """The instance's result and {xi: its supremum's _XiPlans} over every
    xi its compile built."""
    with recording_xi() as built:
        result = compile_instance(inst)
    return result, {xi: plans for plans, _alpha, xi in built}


def table_counts(result, xi_plans):
    """(the read tags that are no xi, each tag's one fiber_values table;
    the tags of the supremum whose xi G reads, each evaluated at every
    fiber point, or 0 when G reads no xi)."""
    tags = {v.tag for v in mba.free_set_vars(result.g)}
    sups = {id(xi_plans[t]): len(xi_plans[t].tags) for t in tags if t in xi_plans}
    assert len(sups) <= 1
    return len(tags - xi_plans.keys()), sum(sups.values())


@pytest.mark.parametrize("inst", INSTANCES, ids=lambda inst: inst.name)
def test_each_tag_is_evaluated_once_per_atom(inst, top_level_evals):
    """A tag read through a table is evaluated once per atom, and the
    tags of the supremum whose xi G reads once per fiber point; the
    complement identity evaluates zeta and 1 -. zeta once per atom."""
    result, xi_plans = compile_recording_xi(inst)
    atoms = len(inst.field.space.atoms)
    points = sum(len(M.points) for M in inst.field.fibers.values())
    tables, sup_tags = table_counts(result, xi_plans)
    top_level_evals[0] = 0
    tr.build_level_assignment(result, inst.field, inst.assignment)
    assert top_level_evals[0] == tables * atoms + sup_tags * points
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
def table_calls(monkeypatch):
    """Counts the di.fiber_values and di.point_values calls, each one
    tag's values, and lists the tags of the fiber_values calls."""
    calls = SimpleNamespace(count=0, fiber_tags=[])
    fiber_values, point_values = di.fiber_values, di.point_values

    def fiber(zeta, *args, **kwargs):
        calls.count += 1
        calls.fiber_tags.append(zeta)
        return fiber_values(zeta, *args, **kwargs)

    def point(*args, **kwargs):
        calls.count += 1
        return point_values(*args, **kwargs)

    monkeypatch.setattr(di, "fiber_values", fiber)
    monkeypatch.setattr(di, "point_values", point)
    return calls


def test_sup_collapse_reuses_the_tables_of_the_determination_check(
        table_calls):
    """determination_check builds one table per tag read through a table
    and one per tag of the supremum whose xi G reads; sup_collapse then
    builds none."""
    supchains = 0
    for inst in CERTIFY_PANEL:
        result, xi_plans = compile_recording_xi(inst)
        table_calls.count = 0
        report = tr.determination_check(inst.formula, inst.k, inst.field,
                                        inst.assignment, result=result)
        assert report.ok
        assert checks.sup_collapse(inst, result) in (True, None)
        assert table_calls.count == sum(table_counts(result, xi_plans)), inst.name
        supchains += mba.contains_supchain(result.g)
    assert supchains >= 10


def test_no_recorded_xi_is_evaluated_on_the_certify_panel(monkeypatch):
    """No fiber_values call is made for an xi that G reads: its level set
    comes from its supremum's tags at the fiber points."""
    tags = []
    fiber_values = di.fiber_values

    def recording(zeta, *args, **kwargs):
        tags.append(zeta)
        return fiber_values(zeta, *args, **kwargs)

    monkeypatch.setattr(di, "fiber_values", recording)
    read_xi = 0
    for inst in CERTIFY_PANEL:
        result, xi_plans = compile_recording_xi(inst)
        read = {v.tag for v in mba.free_set_vars(result.g)} & xi_plans.keys()
        tags.clear()
        tr.determination_check(inst.formula, inst.k, inst.field,
                               inst.assignment, result=result)
        checks.sup_collapse(inst, result)
        assert not read & set(tags), inst.name
        read_xi += len(read)
    assert read_xi > 1000


def _other_element(field_, element):
    """A choice function of field_ other than element, or None."""
    return next((e for e in field_.elements() if e != element), None)


def test_a_changed_field_or_assignment_recomputes_the_tables(table_calls):
    fields = assignments = mutations = 0
    for i, inst in enumerate(CERTIFY_PANEL):
        result, xi_plans = compile_recording_xi(inst)
        tables = sum(table_counts(result, xi_plans))

        def assigned(field_, assignment):
            """The assignment, checked against the reference, and the
            fiber_values and point_values calls it took."""
            table_calls.count = 0
            got = tr.build_level_assignment(result, field_, assignment)
            expected = reference_assignment(mba.free_set_vars(result.g),
                                            field_, assignment)
            assert list(got.items()) == list(expected.items()), inst.name
            return table_calls.count

        assignment = dict(inst.assignment)
        assert assigned(inst.field, assignment) == tables
        assert assigned(inst.field, dict(assignment)) == 0
        # A different field: an equal copy, and for a sentence another
        # instance's field, whose tables differ.
        copy = di.MeasurableField(inst.field.space, dict(inst.field.fibers))
        assert assigned(copy, assignment) == tables
        if not assignment:
            other = CERTIFY_PANEL[(i + 1) % len(CERTIFY_PANEL)].field
            assert assigned(other, assignment) == tables
            fields += 1
        assert assigned(inst.field, assignment) == tables
        if not assignment:
            continue
        name = sorted(assignment)[0]
        element = _other_element(inst.field, assignment[name])
        if element is None:
            continue
        # A different assignment, then the same dict mutated in place.
        assert assigned(inst.field, {**assignment, name: element}) == tables
        assignments += 1
        assert assigned(inst.field, assignment) == tables
        assignment[name] = element
        assert assigned(inst.field, assignment) == tables
        mutations += 1
    assert min(fields, assignments, mutations) >= 5


def test_a_replaced_result_takes_the_per_tag_path(table_calls):
    """dataclasses.replace keeps no record of the supremum: every read
    tag gets one fiber_values table, with the same level sets."""
    replaced = 0
    for inst in CERTIFY_PANEL:
        result = compile_instance(inst)
        if not via_positions(result):
            continue
        copy = dataclasses.replace(result, g=result.g)
        assert copy._xis is None
        table_calls.count = 0
        table_calls.fiber_tags.clear()
        got = tr.build_level_assignment(copy, inst.field, inst.assignment)
        tags = {v.tag for v in mba.free_set_vars(result.g)}
        assert table_calls.count == len(table_calls.fiber_tags) == len(tags)
        assert got == tr.build_level_assignment(result, inst.field,
                                                inst.assignment)
        replaced += 1
    assert replaced >= 10


def test_an_xi_read_at_another_threshold_takes_its_table(table_calls):
    """The position path decides xi > 0 alone: an xi that is also read
    at >= 0 or at > 1/2 gets its fiber_values table, and every level set
    still equals the per-tag path; the other xi keep the position path."""
    phi = fm.parse_formula("sup y . sub(P(y), Q(x))", family.default_signature())
    result = tr.transform(phi, 2)
    by_tag = result.vars_by_tag
    xi = next(tag for tag in result.formulas if tag in result._xis.positions)
    assert by_tag[xi] == [mba.SetVarIndex(xi, F(0), True)]
    result.__dict__["vars_by_tag"] = {**by_tag, xi: [
        mba.SetVarIndex(xi, F(0), False), *by_tag[xi], mba.SetVarIndex(xi, F(1, 2), True)]}
    for seed in range(4):
        rng = random.Random(seed)
        field_ = family.random_field(family.default_signature(), rng, 3, 3)
        assignment = {"x": family.random_element(field_, rng)}
        table_calls.fiber_tags.clear()
        got = tr.build_level_assignment(result, field_, assignment)
        tabled = set(table_calls.fiber_tags) & set(result._xis.positions)
        assert tabled == {xi} and table_calls.fiber_tags.count(xi) == 1
        assert list(got.items()) == list(
            per_tag_assignment(result, field_, assignment).items())


# The foreign elements of test_direct_integral, on the assigned x of a
# supremum over R(x, y): its one tag reads x at every fiber point.
FOREIGN = {
    "point-outside-its-fiber": (lambda c: {**c, "w2": "nope"},
                                "variable 'x': point 'nope' not in the fiber at 'w2'"),
    "missing-atom": (lambda c: {w: p for w, p in c.items() if w != "w3"},
                     "variable 'x': element missing a point at atom 'w3'"),
}


@pytest.mark.parametrize("case", FOREIGN)
def test_a_foreign_element_on_a_supremum_is_a_validation_error(case):
    field_ = family.random_field(family.default_signature(), random.Random(37), 3, 3)
    e = family.random_element(field_, random.Random(1))
    phi = fm.parse_formula("sup y . R(x, y)", field_.signature)
    result = tr.transform(phi, 2)
    bad, message = FOREIGN[case]
    assignment = {"x": di.IntegralElement(bad(e.choice))}
    for call in (lambda: tr.build_level_assignment(result, field_, assignment),
                 lambda: tr.determination_check(phi, 2, field_, assignment,
                                                result=result)):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            call()
    assert via_positions(result)
    assert tr.determination_check(phi, 2, field_, {"x": e}, result=result).ok
