"""The declared-set contract: TransformResult.variables is derived on
demand, the variable budget is checked against its closed-form size, and
the transform document writes the declared set from the levels and G.

The compile panel of perfbench/workloads.py and its recorded counts in
perfbench/reference.json pin what transform declares and what G reads.
"""

import contextlib
import dataclasses
import hashlib
import math
import os
import random
import sys
from fractions import Fraction

import pytest

from dilogic import family, jsonio, mba
from dilogic import formula as fm
from dilogic import transform as tr
from dilogic.errors import BudgetError

from helpers import (GOLDEN_CORPUS, assert_builder_tables, assert_distinct_xi,
                     compile_recording_finish, joint_witness_field, p_of, q_of,
                     random_formula, recording_finish, recording_xi, var_sort_key,
                     xi_formula)

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))

import workloads  # noqa: E402


def assert_tags_in_table(result):
    """The two facts that let F[phi] order every tag: each SetVarIndex of
    G is tagged by a formula of F, and each ChainVar by the tag of a
    ChainSpec of an enclosing SupChain with its binder."""
    g = result.g
    assert all(v.tag in result.levels for v in mba.free_set_vars(g))
    chain_vars = {n for n in mba.nodes(g) if type(n) is mba.ChainVar}
    covered = set()
    for sup in mba.nodes(g):
        if type(sup) is mba.SupChain:
            tags = {spec.tag for spec in sup.chains}
            covered |= {n for n in mba.nodes(sup) if type(n) is mba.ChainVar
                        and n.binder == sup.binder and n.tag in tags}
    assert chain_vars == covered


def test_compile_panel_matches_reference_counts(compile_panel):
    names, results, _finished = compile_panel
    reference = workloads.load_reference()
    assert sorted(names) == sorted(reference)
    for name, result in zip(names, results):
        assert reference[name] == {
            "formulas": len(result.formulas),
            "declared_vars": len(result.variables),
            "read_vars": len(mba.free_set_vars(result.g)),
        }, name
        assert_tags_in_table(result)


# SHA-256 over the `dilogic transform` JSON documents of the whole compile
# panel, concatenated in workloads.compile_panel() order.
COMPILE_PANEL_SHA256 = (
    "ec0b3afea4bf27d115192178777e7dfd6ba8af9ec275538a5eac05b860868b18")


def test_compile_panel_document_bytes(compile_panel):
    _names, results, _finished = compile_panel
    digest = hashlib.sha256()
    for result in results:
        digest.update(workloads.emit_document(result).encode("utf-8"))
    assert digest.hexdigest() == COMPILE_PANEL_SHA256


def suite_jobs():
    return [(fm.rewrite_inf(inst.formula), inst.k, tr.DEFAULT_BUDGET_C,
             family.FAMILY_BUDGET_VARS)
            for inst in family.determination_instances(0, 204)]


@pytest.fixture(scope="module")
def suite_finished():
    """Every result _finish returned compiling the 204-instance suite."""
    return compile_recording_finish(suite_jobs())[1]


def test_closed_form_count_matches_declared_set(compile_panel, suite_finished):
    for result in compile_panel[2] + suite_finished:
        assert result.declared_count == len(result.variables)
        assert_tags_in_table(result)


def test_builder_tables_match_the_walk(compile_panel, suite_finished):
    assert_builder_tables(compile_panel[2] + suite_finished)


def test_each_supremum_of_the_suite_builds_distinct_xi():
    with recording_xi() as built:
        for job in suite_jobs():
            tr.transform(*job)
    assert_distinct_xi(built)


# Tags that both branches of a sub, or a sub under a sup, put in G.
TAG_COLLISIONS = ("sub(sub(1, P(x)), P(x))", "sub(P(x), sub(1, P(x)))",
                  "sub(half(P(x)), half(P(x)))",
                  "sup y . sub(sub(1, P(y)), P(y))")


def test_builder_tables_match_the_walk_on_tag_collisions():
    sig = family.default_signature()
    jobs = [(fm.parse_formula(text, sig), k, 10**6, 10**6)
            for text in TAG_COLLISIONS for k in (2, 3)]
    with recording_xi() as built:
        results, finished = compile_recording_finish(jobs)
    assert_builder_tables(finished)
    assert_distinct_xi(built)
    # At k = 2, sub(1, P(x)) is the left branch's tag for its P(x) at 18
    # and the rewired tag of the right branch's P(x) at 6: the right's 5
    # variables are among the left's 17, and listed once.
    one_minus_p = tr.one_minus(fm.Atomic("P", (fm.Var("x"),)))
    both = results[0].vars_by_tag[one_minus_p]
    assert len(both) == len(set(both)) == 17


def test_builder_tables_match_the_walk_on_random_formulas():
    """200 seeded random formulas of depth at most 3, at k = 2 and 3 under
    the default budgets; a refused draw still checks the results finished
    before its refusal."""
    rng = random.Random(5)
    compiled = refused = 0
    with recording_finish() as finished, recording_xi() as built:
        for _ in range(200):
            phi = random_formula(rng, rng.randint(1, 3), ["x"])
            try:
                tr.transform(phi, rng.choice((2, 3)))
                compiled += 1
            except BudgetError:
                refused += 1
    assert_builder_tables(finished)
    assert_distinct_xi(built)
    assert (compiled, refused) == (140, 60)


def test_replaced_g_gets_its_own_table():
    sig = family.default_signature()
    result, other = (tr.transform(fm.parse_formula(text, sig), 2)
                     for text in ("sub(P(x), Q(x))", "sup y . R(x,y)"))
    replaced = dataclasses.replace(result, g=other.g)
    assert "vars_by_tag" not in vars(replaced)
    assert replaced.vars_by_tag == mba.vars_by_tag(other.g) == other.vars_by_tag
    assert replaced.vars_by_tag != result.vars_by_tag


def test_transform_walks_no_g_for_its_variables(monkeypatch):
    walks = []

    def counting(g):
        walks.append(g)
        return free_set_vars(g)

    free_set_vars = mba.free_set_vars
    monkeypatch.setattr(mba, "free_set_vars", counting)
    for job in compile_panel_jobs():
        tr.transform(*job)
    assert not walks


@pytest.mark.parametrize("text, budget_vars, message", [
    ("sup y . sub(P(y), Q(y))", 2015,
     "declared set-variable count at least 2016 exceeds budget 2015"),
    ("sub(P(x), Q(x))", 16, "declared set-variable count 17 exceeds budget 16"),
], ids=["running-sum", "final-count"])
def test_budget_vars_refusals_keep_their_messages(text, budget_vars, message):
    phi = fm.parse_formula(text, family.default_signature())
    with pytest.raises(BudgetError) as refused:
        tr.transform(phi, 2, budget_vars=budget_vars)
    assert str(refused.value) == message
    tr.transform(phi, 2, budget_vars=budget_vars + 1)


def test_budget_vars_boundary():
    phi = fm.canonicalize(fm.Sup("y", fm.TruncSub(p_of("y"), q_of("y"))))
    result = tr.transform(phi, 2, budget_vars=2016)
    assert len(result.variables) == 2016
    with pytest.raises(BudgetError):
        tr.transform(phi, 2, budget_vars=2015)


def reference_names(result):
    """The document's variable list as the sort of every variable in
    result.variables, by formula-table position, threshold as an integer
    over the lcm of all thresholds, and mode (>= before >)."""
    _table, index = jsonio._formula_table(result)
    lcm = math.lcm(*(v.level.denominator for v in result.variables))
    return [jsonio.var_name(index, v) for v in sorted(
        result.variables,
        key=lambda v: (index[v.tag],
                       v.level.numerator * (lcm // v.level.denominator),
                       v.strict))]


def test_document_variables_match_reference_sort(compile_panel):
    names, results, finished = compile_panel
    # The test_cli golden corpus is the panel's k = 2 column, compiled
    # under the same lifted budgets.
    assert {f"{name}@k2" for name, _text in GOLDEN_CORPUS} <= set(names)
    assert workloads.COMPILE_BUDGET == 65536
    # Strict variables off their tag's grid: at 1/3 on a grid of 1/2s,
    # and at 1, past every grid; 1/3 and 1/2 compare over the lcm 6.
    p = p_of("y0")
    g = mba.inter_all([mba.SetVarIndex(p, level, strict)
                       for level, strict in ((Fraction(1, 3), True),
                                             (Fraction(1, 2), False),
                                             (Fraction(1), True))])
    made_up = tr.TransformResult(2, {p: 2}, mba.Measure(g))
    assert reference_names(made_up) == [
        "Z[0][0]", "Z[0][1/3]", "Z[0][1/2]|ge", "Z[0][1/2]", "Z[0][1]"]
    nonstrict = off_grid = 0
    for result in results + finished + [made_up]:
        doc_names = jsonio.transform_result_to_doc(result)["variables"]
        assert doc_names == reference_names(result)
        nonstrict += sum(name.endswith("|ge") for name in doc_names)
        off_grid += len(result.off_grid_vars)
    assert nonstrict and off_grid > nonstrict


def test_monotone_variable_order_matches_reference_sort(monkeypatch):
    """check_monotone numbers G's variables tag by tag in text order, each
    tag's in vars_by_tag order: on every G of the certify panel, the sort
    by tag text, threshold and mode."""
    orders = []
    compiler = mba._Compiler

    def recording(alg, mode=mba.MAXIMAL, variables=()):
        orders.append(list(variables))
        return compiler(alg, mode, variables)

    monkeypatch.setattr(mba, "_Compiler", recording)
    tags = nonstrict = 0
    for inst in family.determination_instances(workloads.CERTIFY_FAMILY_SEED,
                                               workloads.CERTIFY_COUNT):
        g = tr.transform(fm.rewrite_inf(inst.formula), inst.k, tr.DEFAULT_BUDGET_C,
                         family.FAMILY_BUDGET_VARS).g
        expected = sorted(mba.free_set_vars(g), key=var_sort_key)
        orders.clear()
        mba.check_monotone(g, inst.field.space, trials=1, exhaustive_limit=0)
        assert orders == ([expected] if expected else [])
        tags = max(tags, len({v.tag for v in expected}))
        nonstrict += sum(not v.strict for v in expected)
    assert tags > 1 and nonstrict


def test_texts_render_each_formula_as_to_text(compile_panel, suite_finished):
    """fm.texts renders many formulas through one memo; formula by formula
    it gives to_text's text, on every F built compiling the 58 panel
    cases and the 204-instance suite, with its auxiliary formulas; most
    of them share nodes."""
    _names, results, finished = compile_panel
    shared = 0
    for result in results + finished + suite_finished:
        formulas = jsonio._formula_table(result)[0]  # F, then the auxiliary
        assert fm.texts(formulas) == [fm.to_text(z) for z in formulas]
        shared += len({id(n) for z in formulas for n in fm.nodes(z)}) < sum(
            1 for z in formulas for _n in fm.nodes(z))
    assert shared > 100


def test_monotone_variable_order_is_the_text_order_on_the_suite(
        monkeypatch, suite_finished):
    """check_monotone orders the tags of every G built compiling the
    suite as sorted(..., key=str) does."""
    orders = []

    class Recorded(Exception):
        pass

    def recording(alg, mode=mba.MAXIMAL, variables=()):
        orders.append(list(variables))
        raise Recorded

    monkeypatch.setattr(mba, "_Compiler", recording)
    space = mba.FiniteMeasureAlgebra(("a",), {"a": Fraction(1)})
    many = 0
    for result in suite_finished:
        by_tag = mba.vars_by_tag(result.g)
        expected = [v for tag in sorted(by_tag, key=str) for v in by_tag[tag]]
        orders.clear()
        with contextlib.suppress(Recorded):
            mba.check_monotone(result.g, space, trials=1, exhaustive_limit=0)
        assert orders == ([expected] if expected else [])
        many += len(by_tag) > 2
    assert many > 50


def test_document_writes_declared_set_without_building_it():
    sig = family.default_signature()
    for text in ("sup y . sub(P(y), Q(y))", "sup x . sup y . R(x,y)",
                 "inf y . P(y)"):
        phi = fm.rewrite_inf(fm.parse_formula(text, sig))
        result = tr.transform(phi, 2, workloads.COMPILE_BUDGET,
                              workloads.COMPILE_BUDGET)
        doc = jsonio.transform_result_to_doc(result)
        assert "variables" not in vars(result)
        assert len(doc["variables"]) == result.declared_count


def compile_recording_xi(jobs):
    """Compile each (phi, k, budget_c, budget_vars) job; returns every
    (plans, alpha, xi) transform built, as recording_xi records them."""
    with recording_xi() as built:
        for job in jobs:
            tr.transform(*job)
    return built


def binder_names(phi):
    return [node.var for node in fm.nodes(phi)
            if type(node) in (fm.Sup, fm.Inf)]


def compile_panel_jobs():
    sig = family.default_signature()
    return [(fm.rewrite_inf(fm.parse_formula(text, sig)), k,
             workloads.COMPILE_BUDGET, workloads.COMPILE_BUDGET)
            for text, k in (case.args for case in workloads.compile_panel())]


def test_direct_xi_equals_xi_formula():
    """On the compile panel (nested sup at k = 2 to 4), the certify panel
    and two hand-built cases, every xi transform builds is the reference
    xi_formula's, binder tags included, and no supremum builds one twice."""
    sig = family.default_signature()
    jobs = compile_panel_jobs()
    jobs += [(fm.rewrite_inf(inst.formula), inst.k, tr.DEFAULT_BUDGET_C,
              family.FAMILY_BUDGET_VARS)
             for inst in family.determination_instances(
                 workloads.CERTIFY_FAMILY_SEED, workloads.CERTIFY_COUNT)]
    # Not canonical: the bound z is renamed, to y0 where the tag P(z)
    # stands alone and to y1 where the tag 1 -. R(y0,z) takes part.
    z, y0 = fm.Var("z"), fm.Var("y0")
    jobs += [(fm.Sup("z", fm.TruncSub(fm.Atomic("P", (z,)),
                                      fm.Atomic("R", (y0, z)))), k,
              workloads.COMPILE_BUDGET, workloads.COMPILE_BUDGET)
             for k in (2, 3)]
    # The free y1 is named like a binder: the outer supremum's tags bind a
    # variable and read y1, so their binders skip it.
    skip = fm.parse_formula("sup x . sup w . R(x,y1)", sig)
    jobs += [(skip, 2, workloads.COMPILE_BUDGET, workloads.COMPILE_BUDGET)]
    built = compile_recording_xi(jobs)
    assert_distinct_xi(built)
    direct = [(plans.var, alpha, xi) for plans, alpha, xi in built]
    assert len(direct) > 1000
    assert {xi.var for var, _alpha, xi in direct if var == "z"} == {"y0", "y1"}
    over_binders = [(var, alpha, xi) for var, alpha, xi in direct
                    if any(binder_names(zeta) for zeta, _c in alpha)]
    assert len(over_binders) > 500
    skipping = [xi for _var, alpha, xi in over_binders
                if any("y1" in fm.free_vars(zeta) for zeta, _c in alpha)]
    assert skipping
    assert all("y1" not in binder_names(xi) and "y2" in binder_names(xi)
               for xi in skipping)
    for var, alpha, xi in direct:
        expected = xi_formula(var, alpha)
        assert xi == expected
        assert fm.to_text(xi) == fm.to_text(expected)


def test_xi_item_copies_take_their_own_binder_names():
    """min(b, a) = a -. (a -. b) repeats the item a, never the accumulator
    b; each occurrence of a binder tag takes the next names, in pre-order:
    the last item, its copy, then the first item.  A binder-free item and
    its copy are one object."""
    sig = family.default_signature()
    tags = (fm.parse_formula("sup y . R(x,y)", sig),
            fm.parse_formula("sup y . sub(R(x,y), P(x))", sig))
    # Levels 4 and 4; a threshold's grid position is one past its index:
    # 1/4 is at 2, 1/2 at 3.
    xi, level = tr._XiPlans("x", tags, [4, 4]).xi((2, 3))
    assert fm.to_text(xi) == (
        "sup y0 . sub(sub(sup y1 . sub(R(y0,y1), P(y0)), 1/2), "
        "sub(sub(sup y2 . sub(R(y0,y2), P(y0)), 1/2), "
        "sub(sup y3 . R(y0,y3), 1/4)))")
    alpha = ((tags[0], Fraction(1, 4)), (tags[1], Fraction(1, 2)))
    assert (xi, level) == (xi_formula("x", alpha), 4)
    tags += (fm.parse_formula("P(x)", sig),)
    xi, level = tr._XiPlans("x", tags, [4, 4, 3]).xi((2, 3, 2))
    assert fm.to_text(xi) == (
        "sup y0 . sub(sub(P(y0), 1/3), sub(sub(P(y0), 1/3), "
        "sub(sub(sup y1 . sub(R(y0,y1), P(y0)), 1/2), "
        "sub(sub(sup y2 . sub(R(y0,y2), P(y0)), 1/2), "
        "sub(sup y3 . R(y0,y3), 1/4)))))")
    assert xi.body.left is xi.body.right.left
    alpha += ((tags[2], Fraction(1, 3)),)
    assert (xi, level) == (xi_formula("x", alpha), 4)


def test_xi_names_are_planned_once_per_set_of_tags(monkeypatch):
    """Within one _sup call, fm.binder_names runs at most once per set of
    tags some alpha reads, at most 2^T - 1 times for T tags, and fm.rename
    at most once per (tag, Sup name, binder names), however many
    thresholds alpha gives them."""
    sig = family.default_signature()
    jobs = [(fm.parse_formula("sup x . sup y . R(x,y)", sig), 4),
            (fm.rewrite_inf(fm.parse_formula("inf y . P(y)", sig)), 2)]
    calls = []  # [binder_names calls, top-level rename calls] by _sup call
    stack = []
    sup, names_of, rename = tr._Builder._sup, fm.binder_names, fm.rename

    def counting_sup(builder, phi, k):
        stack.append([0, []])
        try:
            return sup(builder, phi, k)
        finally:
            calls.append(stack.pop())

    def counting_names(taken):
        stack[-1][0] += 1
        return names_of(taken)

    def counting_rename(phi, env, names):
        if stack and stack[-1] is not None:  # the top call of a rename
            frame = stack[-1]
            names = tuple(names)
            frame[1].append((phi, tuple(env.items()), names))
            stack.append(None)  # its recursive calls are not counted
            try:
                return rename(phi, env, iter(names))
            finally:
                stack.pop()
        return rename(phi, env, names)

    monkeypatch.setattr(tr._Builder, "_sup", counting_sup)
    monkeypatch.setattr(fm, "binder_names", counting_names)
    monkeypatch.setattr(fm, "rename", counting_rename)
    for phi, k in jobs:
        tr.transform(phi, k, workloads.COMPILE_BUDGET, workloads.COMPILE_BUDGET)
    assert len(calls) == 3
    for names, renames in calls:
        tags = {phi for phi, _env, _names in renames}  # every tag is read
        assert 0 < names <= 2 ** len(tags) - 1
        assert len(renames) == len(set(renames))
    # Nested sup at k = 4: the outer supremum's 4 tags, each a Sup, take
    # 15 plans for its 624 alpha.
    assert max(names for names, _renames in calls) == 15


def tree_size(phi):
    """phi's node count, a node shared by two parents counted twice."""
    return sum(1 for _node in fm.nodes(phi))


def test_xi_size_is_linear_in_its_items():
    """On the compile panel, each xi is at most twice its items zeta -. c
    plus two nodes per item: the min fold repeats each item once, never
    the accumulator, whose copies would double with each item."""
    nested = 0
    for _plans, alpha, xi in compile_recording_xi(compile_panel_jobs()):
        items = sum(tree_size(zeta) + 2 for zeta, _c in alpha)
        assert tree_size(xi) <= 2 * items + 2 * len(alpha)
        nested += len(alpha) > 2 and any(binder_names(zeta) for zeta, _c in alpha)
    assert nested > 100


def test_transform_makes_no_canonicalize_call(monkeypatch):
    jobs = compile_panel_jobs()

    def refuse(phi):
        raise AssertionError(f"canonicalize({fm.to_text(phi)}) called")

    monkeypatch.setattr(fm, "canonicalize", refuse)
    for job in jobs:
        tr.transform(*job)


def test_level_assignment_reads_the_cached_variables(monkeypatch):
    """A second build_level_assignment on one result, as certify makes,
    walks G no more."""
    phi = fm.canonicalize(fm.Sup("y", fm.TruncSub(p_of("y"), q_of("y"))))
    result = tr.transform(phi, 2)
    field_ = joint_witness_field()
    first = tr.build_level_assignment(result, field_)
    assert set(first) == {v for vs in result.vars_by_tag.values() for v in vs}

    def refuse(g):
        raise AssertionError("G walked again")

    monkeypatch.setattr(mba, "free_set_vars", refuse)
    monkeypatch.setattr(mba, "vars_by_tag", refuse)
    assert tr.build_level_assignment(result, field_) == first
