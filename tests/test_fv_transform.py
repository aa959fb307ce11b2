"""Formula compilation and the determination certificates."""

import dataclasses
import hashlib
import json
import os
import random
import sys
import time
from fractions import Fraction

import pytest

from dilogic import family, jsonio
from dilogic import formula as fm
from dilogic import integral as di
from dilogic import mba
from dilogic import transform as tr
from dilogic.errors import BudgetError, InputError

from helpers import (
    SIG_P,
    SIG_PQ,
    assert_builder_tables,
    assert_distinct_xi,
    atomic_example_assignment,
    atomic_example_field,
    joint_witness_field,
    make_structure,
    p_of,
    q_of,
    recording_finish,
    recording_xi,
    sup_example_field,
    uniform_space,
    xi_formula,
)

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))

import workloads  # noqa: E402

F = Fraction


# ---------------------------------------------------------------------------
# Compiled shapes


def test_atomic_shape():
    phi = p_of("x")
    result = tr.transform(phi, 2)
    assert result.formulas == (phi,)
    assert result.levels == {phi: 2}
    expected = mba.Scale(
        F(1, 2), mba.Measure(mba.SetVarIndex(phi, F(1, 2), True))
    )
    assert result.g == expected
    assert result.variables == frozenset(
        {mba.SetVarIndex(phi, F(0), True), mba.SetVarIndex(phi, F(1, 2), True)}
    )


def test_atomic_shape_k3():
    phi = p_of("x")
    result = tr.transform(phi, 3)
    assert result.levels == {phi: 3}
    assert isinstance(result.g, mba.Scale) and result.g.factor == F(1, 3)


def test_truncsub_shape():
    phi = fm.TruncSub(p_of("x"), q_of("x"))
    result = tr.transform(phi, 2)
    assert [fm.to_text(z) for z in result.formulas] == ["P(x)", "sub(1, Q(x))"]
    # Children compile at 3k = 6.
    assert [result.levels[z] for z in result.formulas] == [6, 6]
    assert isinstance(result.g, mba.TruncSub)
    # The subtrahend side reads complemented nonstrict variables only.
    right_vars = mba.free_set_vars(result.g.right)
    assert right_vars and all(not v.strict for v in right_vars)
    assert all(fm.to_text(v.tag) == "sub(1, Q(x))" for v in right_vars)


def test_sup_shape():
    phi = fm.canonicalize(fm.Sup("y", p_of("y")))
    result = tr.transform(phi, 2)
    assert [fm.to_text(z) for z in result.formulas] == [
        "sup y0 . sub(P(y0), 0)",
        "sup y0 . sub(P(y0), 1/2)",
    ]
    assert [result.levels[z] for z in result.formulas] == [2, 2]
    assert isinstance(result.g, mba.SupChain)
    assert len(result.g.chains) == 1
    # A single compiled tag yields no joint profile constraints.
    assert result.g.profiles == ()


def test_sup_over_subtraction_shape():
    phi = fm.canonicalize(fm.Sup("y", fm.TruncSub(p_of("y"), q_of("y"))))
    result = tr.transform(phi, 2)
    # The body compiles at doubled precision (it reads nonstrict level
    # sets), so both body formulas carry grids of size 12 and the index
    # set has (12+1)^2 - 1 entries.
    assert len(result.formulas) == 168
    assert len(result.variables) == 2016
    assert isinstance(result.g, mba.SupChain)
    assert result.g.profiles  # joint constraints across the two tags


def test_free_variable_inclusion():
    phi = fm.canonicalize(fm.Sup("y", fm.TruncSub(p_of("y"), q_of("x"))))
    result = tr.transform(phi, 2)
    for zeta in result.formulas:
        assert fm.free_vars(zeta) <= fm.free_vars(phi)


def test_transform_deterministic():
    phi = fm.canonicalize(fm.Sup("y", fm.TruncSub(p_of("y"), q_of("y"))))
    r1 = tr.transform(phi, 2)
    r2 = tr.transform(phi, 2)
    assert r1.formulas == r2.formulas
    assert r1.levels == r2.levels
    assert r1.g == r2.g
    assert r1.variables == r2.variables


def _an_equal_copy(g):
    """A SetVarIndex of g equal to an earlier one but another object, or None."""
    first = {}
    for n in mba.nodes(g):
        if type(n) is mba.SetVarIndex and first.setdefault(n, n) is not n:
            return n
    return None


def test_equal_set_variables_of_g_are_one_object():
    """A compiled sup builds one SetVarIndex per xi for all the bounds and
    profiles that read it: on the 204-instance suite and the compile
    panel, equal set variables of G are one object."""
    sig = family.default_signature()
    jobs = [(fm.rewrite_inf(inst.formula), inst.k, tr.DEFAULT_BUDGET_C,
             family.FAMILY_BUDGET_VARS)
            for inst in family.determination_instances(0, 204)]
    jobs += [(fm.rewrite_inf(fm.parse_formula(text, sig)), k,
              workloads.COMPILE_BUDGET, workloads.COMPILE_BUDGET)
             for text, k in (case.args for case in workloads.compile_panel())]
    assert len(jobs) == 204 + 58
    sups = 0
    for job in jobs:
        g = tr.transform(*job).g
        sups += mba.contains_supchain(g)
        assert _an_equal_copy(g) is None, fm.to_text(job[0])
    assert sups


def test_sup_passes_over_a_tag_its_body_does_not_read(monkeypatch):
    """A tag of the body's F that its G does not read gets no chain, yet
    its alphas still give xi.  No formula reaches this under a budget
    (sup x . sup y . sub(P(y), Q(y)) has over 10^60 alphas at k = 2), so
    the body's result is planted: F holds P(y) and Q(y), G reads P(y)."""
    p, q = p_of("y"), q_of("y")
    body = fm.TruncSub(p, q)
    inner = tr.TransformResult(
        2, {p: 2, q: 2}, mba.Scale(F(1, 2), mba.Measure(mba.SetVarIndex(p, F(1, 2)))))
    build = tr._Builder.build
    monkeypatch.setattr(tr._Builder, "build", lambda self, phi, k: (
        inner if phi is body else build(self, phi, k)))
    result = tr.transform(fm.Sup("y", body), 2)
    assert [chain.tag for chain in result.g.chains] == [p]
    assert not result.g.profiles
    grid = (None, F(0), F(1, 2))  # a threshold by grid position
    assert set(result.levels) == {
        xi_formula("y", tuple((tag, grid[n]) for tag, n in zip((p, q), combo) if n))
        for combo in ((0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2))}
    assert len(result.levels) == 8


# ---------------------------------------------------------------------------
# Input guards and budgets


def test_rejects_small_k_and_inf():
    """k < 2 is rejected.  Inf is not: it compiles exactly as its
    rewrite_inf form, down to the document bytes."""
    with pytest.raises(InputError):
        tr.transform(p_of("x"), 1)
    sig = family.default_signature()
    for text in ("inf y . P(y)", "half(inf y . R(x, y))"):
        phi = fm.parse_formula(text, sig)
        assert any(type(n) is fm.Inf for n in fm.nodes(phi))
        direct = tr.transform(phi, 2, 1 << 16, 1 << 16)
        rewritten = tr.transform(fm.rewrite_inf(phi), 2, 1 << 16, 1 << 16)
        assert direct.levels == rewritten.levels
        assert direct.g == rewritten.g
        assert (json.dumps(jsonio.transform_result_to_doc(direct)) ==
                json.dumps(jsonio.transform_result_to_doc(rewritten)))


def test_budget_c_exceeded():
    phi = fm.canonicalize(fm.Sup("y", p_of("y")))
    # P(y0) at k = 2 has a 2-point grid: 3 - 1 partial maps.  The message
    # states the count, the number of tags and the largest level.
    with pytest.raises(BudgetError) as exc:
        tr.transform(phi, 2, budget_c=1)
    assert str(exc.value) == ("index-set size 2 exceeds budget 1; tag count 1, "
                              "largest level 2")


def test_budget_vars_exceeded():
    phi = fm.canonicalize(fm.Sup("y", p_of("y")))
    with pytest.raises(BudgetError):
        tr.transform(phi, 2, budget_vars=1)


def test_a_sup_over_the_variable_budget_is_refused_before_its_xi_are_built():
    # Its declared count is 47,473,776.  Building every xi of its index
    # set before counting costs seconds of CPU and hundreds of MB; the
    # running sum of the xi levels passes the budget after a few.
    phi = fm.rewrite_inf(fm.Half(fm.Inf("y", fm.TruncSub(p_of("y"), q_of("x")))))
    start = time.process_time()
    with pytest.raises(BudgetError, match=r"^declared set-variable count at "
                                          r"least \d+ exceeds budget 1000000$"):
        tr.transform(phi, 2, 10**6, 10**6)
    assert time.process_time() - start < 2


def test_a_huge_k_is_refused_before_any_term_is_built(monkeypatch):
    # A leaf declares exactly its k grid variables, so its k - 1 Measure
    # terms are never built past the budget.
    built = []
    measure = mba.Measure
    monkeypatch.setattr(mba, "Measure", lambda term: built.append(term) or measure(term))
    with pytest.raises(BudgetError,
                       match="^declared set-variable count 100000 exceeds budget 4096$"):
        tr.transform(p_of("x"), 10**5)
    assert built == []


@pytest.mark.parametrize("budgets", [{"budget_c": -1}, {"budget_vars": -1}])
def test_negative_budget_is_refused_as_input(budgets, monkeypatch):
    # Refused before any work: the builder is never made.
    monkeypatch.setattr(tr, "_Builder", None)
    with pytest.raises(InputError, match=f"{next(iter(budgets))} must be >= 0"):
        tr.transform(p_of("x"), 2, **budgets)


# ---------------------------------------------------------------------------
# Determination certificates (frozen instances)


def test_determination_atomic_example():
    field_ = atomic_example_field()
    assignment = atomic_example_assignment(field_)
    report = tr.determination_check(p_of("x"), 2, field_, assignment)
    assert report.ok
    assert report.integral_value == F(1, 2)
    assert report.mba_value == F(1, 4)


def test_determination_const():
    field_ = atomic_example_field()
    report = tr.determination_check(fm.Const(0), 2, field_)
    assert report.ok
    assert report.integral_value == 0 == report.mba_value


def test_determination_sup_example():
    field_ = sup_example_field()
    phi = fm.Sup("y", p_of("y"))
    for mode in (mba.ENUMERATE, mba.MAXIMAL):
        report = tr.determination_check(phi, 2, field_, mode=mode)
        assert report.ok
        assert report.integral_value == F(5, 8)
        assert report.mba_value == F(1, 4)


def test_determination_joint_witness_instance():
    field_ = joint_witness_field()
    phi = fm.Sup("y", fm.TruncSub(p_of("y"), q_of("y")))
    for mode in (mba.ENUMERATE, mba.MAXIMAL):
        report = tr.determination_check(phi, 2, field_, mode=mode)
        assert report.ok, report.failures
        assert report.integral_value == F(5, 8)
        assert report.mba_value == F(2, 3)


def test_determination_inf_blowup_fails_loudly():
    # The inf rewrite nests a supremum inside a subtraction inside a
    # subtraction; the compiled index set outgrows the default budgets
    # and must be reported, never silently truncated.
    field_ = sup_example_field()
    phi = fm.Inf("y", p_of("y"))
    with pytest.raises(BudgetError):
        tr.determination_check(phi, 2, field_)


def _constant_p_field(value):
    """One atom whose one-point fiber has P = value."""
    fiber = make_structure(SIG_P, {"P": {"p": value}})
    return di.MeasurableField(uniform_space(("w1",)), {"w1": fiber})


@pytest.mark.parametrize("p_value, g_value, rule", [
    (F(0), F(1), "D.4"),  # G too high: G > l/k while the value is 0
    (F(1), F(0), "D.3"),  # G too low: the value is 1 while G is 0
])
def test_determination_failures_on_a_wrong_g(p_value, g_value, rule):
    phi = p_of("x")
    field_ = _constant_p_field(p_value)
    assignment = {"x": di.element_of(field_, {"w1": "p"})}
    wrong = dataclasses.replace(tr.transform(phi, 4), g=mba.Const(g_value))
    report = tr.determination_check(phi, 4, field_, assignment, result=wrong)
    assert (report.integral_value, report.mba_value) == (p_value, g_value)
    assert not report.ok
    assert report.failures == tuple(
        (rule, l, p_value, g_value) for l in (1, 2, 3)
    ) + (("gap", None, p_value, g_value),)


def test_determination_family_sample():
    for inst in family.determination_instances(5, 12):
        phi = fm.rewrite_inf(inst.formula)
        result = tr.transform(phi, inst.k, tr.DEFAULT_BUDGET_C,
                              family.FAMILY_BUDGET_VARS)
        report = tr.determination_check(
            phi, inst.k, inst.field, inst.assignment, result=result)
        assert report.ok, (inst.name, report.failures)


# Literal formulas beyond the 17 templates, each with the SHA-256 of its
# `dilogic transform` document (less the closing newline) at k = 2 and 3
# under lifted budgets.  They take in nested sup, R under two binders, a
# sup on either side of a sub, inf, two sups over one free variable,
# free variables named like binders (y1), which the xi binders skip, and
# tags that both branches of a sub put in G: 1 -. P(x) at levels 18 and 6
# at k = 2, and the one xi tag of sup y . P(y) on both branches.
BEYOND_TEMPLATES = [
    ("sup x . sup y . R(x,y)",
     "6540cd269381c4da7b0fa66e6190263a760a4f6136a6b7cd9c77023495868610",
     "e560fa1432ccb37271eab74399f2fb731c526824bbb1e7c571e3c376391c75f8"),
    ("sup x . half(sup y . R(y,x))",
     "413d1e669c1d9bd8463345f5a6f9340076a5060431dedfa6675128a306d61add",
     "54a7bdc1963811603ec652aac47a4506e4aeff4bb65ebd7537004cde8ef105c3"),
    ("sup x . sup y . half(R(x,y))",
     "305c87faa9f8bde26c6b4a8bf282936761b76327d294c2f020cf7cffd2a6d839",
     "1d65b5109f9cf85385651176ef9df5022cd180a4b6e10538ec3609ba258db04a"),
    ("sup x . sup w . R(x,y1)",
     "6612974be9c9c7f1a74d23b6d4edc4cf55ca800afb2a2f4a0edde921cddd826d",
     "b5d3ffa73b0c7e024ecadddf9c0900c057fc3d5b5007e54bbab40f9f33fed416"),
    ("inf y . P(y)",
     "1b0af70393a701625a3c46d5ab31b40a5546f90e4a9b77a6173313b6ebb5ea9c",
     "bd33b3df86f69584187ed47dcbd3bfb762fc70f1b5511af575e63eb2eba0470b"),
    ("inf x . R(x,y1)",
     "e5b20ea641bca00c3c3ecb4b5eda473609786430b20cdfd7054c0a3a031a0848",
     "20aeea84e965ee245ce0a7d354e12aef92728c13e3e564216d450c857d4d6a66"),
    ("sub(sup y . P(y), Q(x))",
     "bf84dbc0f133da4cb9a22d027c095e9b4626b07f752463d0bb170ee21430dbb3",
     "4f81e4fea7e44f1045cf12b0bbecbc53799b21c0c5edfbfe3979f0a5c7b10c53"),
    ("sub(sup y . P(y), half(sup z . Q(z)))",
     "c20e12a85a737b3d0464315590c3751db662f711a69ae6ae33fff7c9768ed260",
     "00f423dfaecb90b12273ed0de91ab8a43cb41c794e511febb0490a2857caaa8a"),
    ("sub(sup y . R(x,y), P(x))",
     "72e7edb8c9888504b8ebac000e65e99defad576ba3981031bb96f9ba29b0f90e",
     "d1f5533e8afca37eaf6055e2f856ff372e9d6463059098b2fa11a6061738fac0"),
    ("sub(sup z . R(x,z), sup w . R(x,w))",
     "6ab8d66147752f3e159b5ca785f9c77741d360d85ec28d6612a3c82a9ae539e0",
     "eb6ea5b2ad2b13853c964ff2a2c4ac430ef87cde261d6ef028988c327f9b52fa"),
    ("sub(sup y . Q(y), sup z . R(x,z))",
     "bce8376d07795d7133473864a11f8e30459d7d8b4df6ba0660146f001ee63c52",
     "98f07ae9c68b5118632f2726534b3b7e26d0da62d8321569c9c8350e1c0e48a7"),
    ("half(sup y . sub(P(y), Q(x)))",
     "7843e80c12b21ec3211400089fe19e8d3a79c0035df2eb7f92733a0d30a6f1a5",
     "cf54f0a534eb397227473db5e63ee0a347426183b09e3a0b052d957302283c8c"),
    ("sup y . half(sub(R(y,y), P(y)))",
     "c5e7b9dcf0f3496b8be3ebb3bac4d7a0ee3c2cb0075073c4be8b141a3b1feb32",
     "41b03f6ec5211541e9e301018cb9b9fa31ac9a067f661a2c2e10b8ca657d00bc"),
    ("sub(sub(1, P(x)), P(x))",
     "81128fdf9988c1f423d0a849823ecd22d87bba5b547ff91261c7dd3a9ab64140",
     "5b271dd1940521265fb17a30d4d28b7947ee18030161bd36e08172ed2ac7bdd8"),
    ("sup y . sub(sub(1, P(y)), P(y))",
     "8b24d574103386eec9e50d4eb58cb0d75a5df24c422dda548b035abbab4d4cf4",
     "357dbaa9ecd75110b07ff85ed92f57a48b04cfe5bbf09b7e979756f5a32704c9"),
    ("sub(sub(1, sup y . P(y)), sup y . P(y))",
     "557d2900fc4fc27d4a0b0ab6936bf74f95e4f17c085b3dc46ec7733e29ba13cc",
     "9db7add4865bc6deb91301cfa095bb0ee02bb2c3edab8ccbd11f3091fa8e6ec1"),
    ("sup y . sub(P(y), P(y))",
     "9df5d9430513b5837413825b5881b141a0e992870e19b90066c775308d0caac7",
     "f7c55a2fab8b16caf5384c865605934c2fa50f2078de9762d1075bc5cb60be92"),
    ("sup y . sub(1/2, P(y))",
     "c9366ea58fb314b9d2b7856dcebb13dae79c93be0c321d4018b913c67e75e234",
     "3f3504045c5971f93cceeb674638b4743c1432b28eb23754aa3295667d1adb5a"),
    ("inf y . half(P(y))",
     "6dd0dfe6a81f4bd1c592bcd74f0c61521802e330131695bef248bc9a77dd4fac",
     "ba19ab3438b3c48d74fa0fcc29afabd485fdabe908022f251ac0a49e61467739"),
    ("sub(1, sup y . sub(P(y), Q(y)))",
     "5422a35238b6de4c92ee7e3c2ff25da6f1b77774b94056a562f7ce3a1651e409",
     "6215524bbe31337e89fe028cfa3aa9fbf3c0efaaab1365b2bf5d3ef95818a1c8"),
]


@pytest.mark.parametrize("text, at_k2, at_k3", BEYOND_TEMPLATES,
                         ids=[text for text, *_ in BEYOND_TEMPLATES])
def test_determination_beyond_the_templates(text, at_k2, at_k3):
    """Each compile also keeps both invariants of README's design notes."""
    phi = fm.parse_formula(text, family.default_signature())
    for k, digest in ((2, at_k2), (3, at_k3)):
        with recording_finish() as finished, recording_xi() as built:
            result = tr.transform(fm.rewrite_inf(phi), k, 1 << 20, 1 << 20)
        assert_builder_tables(finished)
        if built:
            assert_distinct_xi(built)
        doc = json.dumps(jsonio.transform_result_to_doc(result),
                         sort_keys=True, indent=2)
        assert hashlib.sha256(doc.encode("utf-8")).hexdigest() == digest
        for seed in (1, 2):
            rng = random.Random(seed)
            field_ = family.random_field(family.default_signature(), rng, 2, 2)
            assignment = {v: family.random_element(field_, rng)
                          for v in sorted(fm.free_vars(phi))}
            report = tr.determination_check(phi, k, field_, assignment,
                                            result=result)
            assert report.ok, (k, seed, report.failures)


# ---------------------------------------------------------------------------
# Level assignments and identities


def test_build_level_assignment_values():
    field_ = atomic_example_field()
    assignment = atomic_example_assignment(field_)
    phi = p_of("x")
    result = tr.transform(phi, 2)
    assign = tr.build_level_assignment(result, field_, assignment)
    assert assign == {mba.SetVarIndex(phi, F(1, 2), True): frozenset({"w1"})}
    # The level-0 variable is declared but G does not read it.
    unread = mba.SetVarIndex(phi, F(0), True)
    assert unread in result.variables and unread not in assign
    assert di.level_set(phi, field_, assignment, F(0)) == frozenset({"w1", "w2"})


def test_complement_identity_on_examples():
    field_ = sup_example_field()
    for zeta in (p_of("x"), fm.Sup("y", p_of("y")), fm.Half(p_of("x"))):
        assignment = (
            {"x": di.element_of(field_, {"w1": "p", "w2": "r"})}
            if fm.free_vars(zeta)
            else {}
        )
        for level in (2, 3, 6):
            assert tr.complement_identity_holds(zeta, level, field_, assignment)


def test_monotone_on_compiled_outputs():
    field_ = joint_witness_field()
    for phi in (
        p_of("x"),
        fm.TruncSub(p_of("x"), q_of("x")),
        fm.canonicalize(fm.Sup("y", p_of("y"))),
    ):
        result = tr.transform(phi, 2)
        ce = mba.check_monotone(result.g, field_.space, trials=20,
                                exhaustive_limit=2000)
        assert ce is None


def test_corollary_equivalence_relabeled_pair():
    field_a, field_b, _bij = family.relabel_pairs(3, 1)[0]
    bad = tr.corollary_equivalence_check(field_a, field_b, family.sentence_suite())
    assert bad == []


def test_corollary_equivalence_reports_a_disagreement():
    sup_p = fm.canonicalize(fm.Sup("y", p_of("y")))
    zero, one = _constant_p_field(F(0)), _constant_p_field(F(1))
    assert tr.corollary_equivalence_check(zero, one, [sup_p]) == [
        (sup_p, {}, {}, F(0), F(1))]


def test_corollary_equivalence_constant_fiber():
    # Every fiber the same structure: values match the single-fiber case.
    field_ = joint_witness_field()
    m = field_.fibers["w1"]
    space = di.FiniteProbabilitySpace(
        ("w1", "w2"), {"w1": F(1, 3), "w2": F(2, 3)}
    )
    constant = di.MeasurableField(space, {"w1": m, "w2": m})
    for phi in family.sentence_suite():
        if any(name not in ("P", "Q") for name in _preds_used(phi)):
            continue
        assert di.eval_on_integral(phi, constant) == di.eval_on_integral(
            phi, field_
        )


def _preds_used(phi):
    if isinstance(phi, fm.Atomic):
        return {phi.pred}
    if isinstance(phi, fm.Const):
        return set()
    if isinstance(phi, fm.TruncSub):
        return _preds_used(phi.left) | _preds_used(phi.right)
    return _preds_used(phi.body)
