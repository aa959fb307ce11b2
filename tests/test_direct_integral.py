"""Direct integrals: evaluation oracle, level sets, distributions,
relabeling, and materialization."""

import itertools
import random
import re
from fractions import Fraction

import pytest

from dilogic import family
from dilogic import formula as fm
from dilogic import integral as di
from dilogic import structure as st
from dilogic import transform as tr
from dilogic.errors import BudgetError, InputError, SignatureError, ValidationError

from helpers import (
    SIG_P,
    SIG_PQ,
    atomic_example_assignment,
    atomic_example_field,
    joint_witness_field,
    make_structure,
    p_of,
    q_of,
    sup_example_field,
    uniform_space,
)

F = Fraction


# ---------------------------------------------------------------------------
# Field validation and elements


def test_field_requires_matching_fibers():
    space = uniform_space(("w1", "w2"))
    m = make_structure(SIG_P, {"P": {"p": F(0)}})
    with pytest.raises(ValidationError):
        di.MeasurableField(space, {"w1": m})
    other_sig = make_structure(SIG_PQ, {"P": {"p": F(0)}, "Q": {"p": F(0)}})
    with pytest.raises(ValidationError):
        di.MeasurableField(space, {"w1": m, "w2": other_sig})


def test_element_of_validation():
    field_ = sup_example_field()
    e = di.element_of(field_, {"w1": "p", "w2": "r"})
    assert e("w1") == "p"
    with pytest.raises(ValidationError):
        di.element_of(field_, {"w1": "p"})
    with pytest.raises(ValidationError):
        di.element_of(field_, {"w1": "p", "w2": "nope"})
    with pytest.raises(ValidationError):
        di.element_of(field_, {"zz": "p", "w1": "p", "w2": "r"})


def _foreign_instance():
    field_ = family.random_field(family.default_signature(), random.Random(37), 3, 3)
    e = family.random_element(field_, random.Random(1))
    return field_, e, fm.parse_formula("R(x, y)", field_.signature)


FOREIGN = {  # the bad element's choice, from a good one's, and its message
    "point-outside-its-fiber": (lambda c: {**c, "w2": "nope"},
                                "variable 'y': point 'nope' not in the fiber at 'w2'"),
    "missing-atom": (lambda c: {w: p for w, p in c.items() if w != "w3"},
                     "variable 'y': element missing a point at atom 'w3'"),
}
ORACLE_CALLS = {
    "eval_on_integral": di.eval_on_integral,
    "fiber_values": di.fiber_values,
    "level_set": lambda phi, f, a: di.level_set(phi, f, a, F(1, 2)),
    "determination_check": lambda phi, f, a: tr.determination_check(phi, 2, f, a),
}


@pytest.mark.parametrize("call", ORACLE_CALLS)
@pytest.mark.parametrize("case", FOREIGN)
def test_a_foreign_element_is_a_validation_error(case, call):
    """Not a KeyError: the message names the variable and the atom."""
    field_, e, phi = _foreign_instance()
    bad, message = FOREIGN[case]
    assignment = {"x": e, "y": di.IntegralElement(bad(e.choice))}
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        ORACLE_CALLS[call](phi, field_, assignment)
    ORACLE_CALLS[call](phi, field_, {"x": e, "y": e})


def test_elements_from_reordered_dicts_are_one_element():
    a = di.IntegralElement({"w1": "p", "w2": "q"})
    b = di.IntegralElement({"w2": "q", "w1": "p"})
    assert list(a.choice) != list(b.choice)
    assert a == b
    assert hash(a) == hash(b)
    assert {a, b} == {a}
    assert a != di.IntegralElement({"w1": "p", "w2": "p"})


def test_elements_whose_atoms_render_alike_hash_alike():
    # The atoms 1 and "1" print the same, so an order by their text
    # cannot tell the two insertion orders apart.
    a = di.IntegralElement({1: "p", "1": "q"})
    b = di.IntegralElement({"1": "q", 1: "p"})
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_elements_enumeration_and_limit():
    field_ = sup_example_field()
    assert field_.element_count() == 2
    assert len(list(field_.elements())) == 2
    with pytest.raises(BudgetError):
        list(field_.elements(limit=1))


def test_integral_dist():
    field_ = sup_example_field()
    a = di.element_of(field_, {"w1": "p", "w2": "r"})
    b = di.element_of(field_, {"w1": "q", "w2": "r"})
    assert di.integral_dist(field_, a, b) == F(1, 2)
    assert di.integral_dist(field_, a, a) == 0


# ---------------------------------------------------------------------------
# Evaluation oracle


def test_atomic_integration():
    field_ = atomic_example_field()
    assignment = atomic_example_assignment(field_)
    assert di.eval_on_integral(p_of("x"), field_, assignment) == F(1, 2)


def test_const_on_any_field():
    field_ = atomic_example_field()
    assert di.eval_on_integral(fm.Const(F(2, 7)), field_) == F(2, 7)


def test_sup_over_choice_functions():
    field_ = sup_example_field()
    phi = fm.Sup("y", p_of("y"))
    # Best choice function picks p at w1 and r at w2: (1 + 1/4) / 2.
    assert di.eval_on_integral(phi, field_) == F(5, 8)


def test_sup_with_joint_witness_instance():
    field_ = joint_witness_field()
    phi = fm.Sup("y", fm.TruncSub(p_of("y"), q_of("y")))
    assert di.eval_on_integral(phi, field_) == F(5, 8)


def test_inf_over_choice_functions():
    field_ = sup_example_field()
    phi = fm.Inf("y", p_of("y"))
    # Worst choice picks q at w1: (0 + 1/4) / 2.
    assert di.eval_on_integral(phi, field_) == F(1, 8)


def test_choice_limit_guard():
    field_ = sup_example_field()
    phi = fm.Sup("y", p_of("y"))
    with pytest.raises(BudgetError):
        di.eval_on_integral(phi, field_, limit=1)


def test_negative_limit_is_refused_as_input():
    # A negative limit is no budget: refused before any work, also where
    # no quantifier reads it.  None stays "no limit".
    field_ = sup_example_field()
    for phi in (fm.Sup("y", p_of("y")), fm.Const(F(1, 2))):
        with pytest.raises(InputError, match="limit must be >= 0"):
            di.eval_on_integral(phi, field_, limit=-1)
        assert di.eval_on_integral(phi, field_, limit=None) == di.eval_on_integral(
            phi, field_)
    with pytest.raises(InputError, match="limit must be >= 0"):
        field_.elements(limit=-1)
    with pytest.raises(InputError, match="limit must be >= 0"):
        di.materialize(field_, limit=-1)
    assert len(list(field_.elements(limit=None))) == 2
    assert di.materialize(field_, limit=None).points == di.materialize(field_).points


def test_single_atom_degeneracy():
    m = make_structure(
        SIG_PQ,
        {"P": {"a": F(1, 4), "b": F(3, 4)}, "Q": {"a": F(1, 2), "b": F(1, 2)}},
        dist={frozenset({"a", "b"}): F(1, 2)},
    )
    field_ = di.MeasurableField(uniform_space(("w1",)), {"w1": m})
    suite = [
        fm.Sup("y", fm.TruncSub(p_of("y"), q_of("y"))),
        fm.Inf("y", p_of("y")),
        fm.Half(fm.Sup("y", q_of("y"))),
    ]
    for phi in suite:
        assert di.eval_on_integral(phi, field_) == st.eval_formula(phi, m)
    phi_free = fm.TruncSub(p_of("x"), q_of("x"))
    for pt in m.points:
        e = di.element_of(field_, {"w1": pt})
        assert di.eval_on_integral(phi_free, field_, {"x": e}) == st.eval_formula(
            phi_free, m, {"x": pt}
        )


def test_integral_lipschitz_on_small_field():
    field_ = sup_example_field()
    phi = p_of("x")
    elements = list(field_.elements())
    for a in elements:
        for b in elements:
            gap = abs(
                di.eval_on_integral(phi, field_, {"x": a})
                - di.eval_on_integral(phi, field_, {"x": b})
            )
            assert gap <= di.integral_dist(field_, a, b)


# ---------------------------------------------------------------------------
# Level sets


def test_level_set_examples():
    field_ = atomic_example_field()
    assignment = atomic_example_assignment(field_)
    phi = p_of("x")
    assert di.level_set(phi, field_, assignment, F(1), strict=True) == frozenset()
    assert di.level_set(phi, field_, assignment, F(1, 2)) == frozenset({"w1"})
    assert di.level_set(phi, field_, assignment, F(1, 4), strict=False) == frozenset(
        {"w1", "w2"}
    )
    # The mode is keyword-only: a positional mode, which as a bool would
    # silently mean strict, is a TypeError.
    with pytest.raises(TypeError):
        di.level_set(phi, field_, assignment, F(1, 2), "nonstrict")


def test_level_set_fiberwise_quantifier_scope():
    # Fiberwise sup is computed inside each fiber, not over choice functions.
    field_ = sup_example_field()
    phi = fm.Sup("y", p_of("y"))
    assert di.level_set(phi, field_, {}, F(1, 2)) == frozenset({"w1"})
    assert di.level_set(phi, field_, {}, F(1, 8)) == frozenset({"w1", "w2"})


def test_level_set_monotone_nesting():
    field_ = sup_example_field()
    phi = fm.Sup("y", p_of("y"))
    thresholds = [F(i, 8) for i in range(9)]
    for strict in (True, False):
        sets = [di.level_set(phi, field_, {}, t, strict=strict) for t in thresholds]
        for lo, hi in zip(sets, sets[1:]):
            assert hi <= lo


def test_layer_cake_bounds_for_atomic():
    field_ = atomic_example_field()
    assignment = atomic_example_assignment(field_)
    phi = p_of("x")
    v = di.eval_on_integral(phi, field_, assignment)
    for k in (2, 3, 4):
        low = sum(
            (field_.space.measure(di.level_set(phi, field_, assignment, F(i, k)))
             for i in range(1, k)),
            F(0),
        ) / k
        assert low <= v <= low + F(1, k)


# ---------------------------------------------------------------------------
# Theory distributions


def test_theory_distribution_examples():
    field_ = sup_example_field()
    assert di.theory_distribution(field_, [], []) == 1
    phi = fm.Sup("y", p_of("y"))
    assert di.theory_distribution(field_, [phi], [F(1)]) == 0
    assert di.theory_distribution(field_, [phi], [F(1, 2)]) == F(1, 2)


def test_theory_distribution_rejects_free_variables():
    field_ = sup_example_field()
    with pytest.raises(InputError):
        di.theory_distribution(field_, [p_of("x")], [F(0)])
    with pytest.raises(InputError):
        di.theory_distribution(field_, [fm.Const(F(1, 2))], [])


@pytest.mark.parametrize("t", [0.1, "1/2", True], ids=["float", "string", "bool"])
def test_thresholds_must_be_exact(t):
    # 0.1 would be read as 3602879701896397/36028797018963968.
    field_ = sup_example_field()
    phi = fm.Sup("y", p_of("y"))
    with pytest.raises(InputError, match="is not an int or a Fraction"):
        di.theory_distribution(field_, [phi], [t])
    with pytest.raises(InputError, match="is not an int or a Fraction"):
        di.level_set(phi, field_, {}, t)


# ---------------------------------------------------------------------------
# Relabeling


def test_relabel_identity():
    field_ = sup_example_field()
    out = di.relabel_field(field_, {})
    assert out.fibers == field_.fibers


def test_relabel_agreement():
    field_ = sup_example_field()
    bij = {"w1": {"p": "b", "q": "a"}, "w2": {"r": "z"}}
    out = di.relabel_field(field_, bij)
    suite = [
        fm.Sup("y", p_of("y")),
        fm.Inf("y", p_of("y")),
        fm.Half(fm.Sup("y", fm.TruncSub(fm.Const(1), p_of("y")))),
    ]
    for phi in suite:
        assert di.eval_on_integral(phi, field_) == di.eval_on_integral(phi, out)
    phi_free = p_of("x")
    for e in field_.elements():
        mapped = di.map_element(e, bij)
        assert di.eval_on_integral(phi_free, field_, {"x": e}) == di.eval_on_integral(
            phi_free, out, {"x": mapped}
        )


def test_relabel_rejects_bad_bijection():
    field_ = sup_example_field()
    with pytest.raises(ValidationError):
        di.relabel_field(field_, {"w1": {"p": "a"}})
    with pytest.raises(ValidationError):
        di.relabel_field(field_, {"w1": {"p": "a", "q": "a"}})


# ---------------------------------------------------------------------------
# Materialization


def test_materialize_matches_integral_evaluation():
    field_ = sup_example_field()
    M = di.materialize(field_)
    assert st.validate(M) is None
    assert len(M.points) == field_.element_count()
    atoms = field_.space.atoms
    suite = [
        fm.Sup("y", p_of("y")),
        fm.Inf("y", p_of("y")),
        fm.Sup("y", fm.TruncSub(p_of("y"), fm.Const(F(1, 2)))),
    ]
    for phi in suite:
        assert di.eval_on_integral(phi, field_) == st.eval_formula(phi, M)
    phi_free = p_of("x")
    for e in field_.elements():
        name = tuple(e(a) for a in atoms)
        assert di.eval_on_integral(phi_free, field_, {"x": e}) == st.eval_formula(
            phi_free, M, {"x": name}
        )


def _cycle_fiber(sig, points, p_values, r_values):
    """Discrete metric on points; f cycles them (an isometry, so 1-Lipschitz
    and not constant)."""
    dist = {(p, q): F(int(p != q)) for p in points for q in points}
    cycle = dict(zip(points, points[1:] + points[:1]))
    return st.ensure_valid(st.FiniteMetricStructure(
        sig, points, dist,
        {"P": {(p,): v for p, v in zip(points, p_values)},
         "R": {(p, q): r_values[i * len(points) + j]
               for i, p in enumerate(points) for j, q in enumerate(points)}},
        {"f": {(p,): cycle[p] for p in points}},
    ))


def test_function_terms_on_the_integral_match_materialize():
    sig = fm.Signature(predicates=(("P", 1), ("R", 2)), functions=(("f", 1),))
    space = di.FiniteProbabilitySpace(("w1", "w2"), {"w1": F(1, 3), "w2": F(2, 3)})
    field_ = di.MeasurableField(space, {
        "w1": _cycle_fiber(sig, ("a", "b"), (F(1, 4), F(3, 4)),
                          (F(0), F(1, 2), F(1), F(1, 4))),
        "w2": _cycle_fiber(sig, ("c", "d", "e"), (F(0), F(1, 2), F(1)),
                          tuple(F(i, 8) for i in range(9))),
    })
    M = di.materialize(field_)
    atoms = field_.space.atoms
    texts = ["P(f(x))", "sup y . P(f(y))", "inf y . R(f(y), x)",
             "sub(R(f(f(x)), x), P(f(x)))"]
    seen = set()
    for text in texts:
        phi = fm.parse_formula(text, sig)
        for e in field_.elements():
            v = di.eval_on_integral(phi, field_, {"x": e})
            assert v == st.eval_formula(phi, M, {"x": tuple(e(a) for a in atoms)})
            seen.add(v)
    # f is not constant, so the values depend on the assignment.
    assert len(seen) > len(texts)


def test_relabel_transports_function_tables():
    sig = fm.Signature(predicates=(("P", 1), ("R", 2)), functions=(("f", 1),))
    space = di.FiniteProbabilitySpace(("w1", "w2"), {"w1": F(1, 3), "w2": F(2, 3)})
    field_ = di.MeasurableField(space, {
        "w1": _cycle_fiber(sig, ("a", "b"), (F(1, 4), F(3, 4)),
                          (F(0), F(1, 2), F(1), F(1, 4))),
        "w2": _cycle_fiber(sig, ("c", "d", "e"), (F(0), F(1, 2), F(1)),
                          tuple(F(i, 8) for i in range(9))),
    })
    bij = {"w1": {"a": "y", "b": "x"}, "w2": {"c": "d", "d": "e", "e": "c"}}
    out = di.relabel_field(field_, bij)
    assert out.fibers["w1"].funcs == {"f": {("y",): "x", ("x",): "y"}}
    assert out.fibers["w2"].funcs == {"f": {("d",): "e", ("e",): "c", ("c",): "d"}}
    for text in ("P(f(x))", "sub(R(f(f(x)), x), P(f(x)))"):
        phi = fm.parse_formula(text, sig)
        for e in field_.elements():
            assert di.eval_on_integral(phi, field_, {"x": e}) == di.eval_on_integral(
                phi, out, {"x": di.map_element(e, bij)})


# ---------------------------------------------------------------------------
# The oracle on point tuples: each value against eval_formula on materialize


def _choice_grid_field():
    """Fibers of 3, 3 and 4 points: 36 choice functions."""
    rng = random.Random(5)
    sig = family.default_signature()
    return di.MeasurableField(uniform_space(("w1", "w2", "w3")), {
        w: family.random_structure(sig, rng, n, prefix=w)
        for w, n in (("w1", 3), ("w2", 3), ("w3", 4))})


def test_quantifier_free_formula_ignores_the_limit():
    field_ = _choice_grid_field()
    assert field_.element_count() == 36
    e = next(field_.elements())
    for text in ("P(x)", "sub(R(x, x), half(Q(x)))", "2/5"):
        phi = fm.parse_formula(text, field_.signature)
        assert di.eval_on_integral(phi, field_, {"x": e}, limit=1) == \
            di.eval_on_integral(phi, field_, {"x": e}, limit=None)


def test_quantifier_limit_is_the_choice_function_count():
    field_ = _choice_grid_field()
    count = field_.element_count()
    phi = fm.parse_formula("sup y . sub(P(y), Q(y))", field_.signature)
    with pytest.raises(BudgetError, match=f"{count} exceeds limit {count - 1}"):
        di.eval_on_integral(phi, field_, limit=count - 1)
    assert di.eval_on_integral(phi, field_, limit=count) == st.eval_formula(
        phi, di.materialize(field_))
    with pytest.raises(InputError, match="limit must be >= 0"):
        di.eval_on_integral(phi, field_, limit=-1)


@pytest.mark.parametrize("text, visits", [
    ("P(x)", lambda n: 0),
    ("sup y . P(y)", lambda n: n),
    ("sup x . inf y . R(x, y)", lambda n: n * (1 + n)),
    ("sub(sup y . P(y), half(inf z . sup y . R(z, y)))",
     lambda n: n + n * (1 + n)),
], ids=["quantifier-free", "one", "nested", "summed-over-sub"])
def test_nested_quantifiers_are_counted_before_any_is_visited(text, visits):
    field_ = _choice_grid_field()
    n = field_.element_count()
    phi = fm.parse_formula(text, field_.signature)
    count = visits(n)
    assert di.choice_function_visits(phi, n) == count
    e = next(field_.elements())
    if count:
        with pytest.raises(BudgetError,
                           match=f"^choice-function count {count} exceeds limit {count - 1}$"):
            di.eval_on_integral(phi, field_, {"x": e}, limit=count - 1)
    assert di.eval_on_integral(phi, field_, {"x": e}, limit=count) == \
        di.eval_on_integral(phi, field_, {"x": e}, limit=None)


_EDGE_SIG = fm.Signature(predicates=(("C", 0), ("P", 1)),
                         functions=(("f", 1), ("g", 1)))


def _edge_fiber(points, p_values, c_value, g_point):
    """Discrete metric; f cycles the points, g is constant at g_point and
    C is a 0-ary predicate."""
    dist = {(p, q): F(int(p != q)) for p in points for q in points}
    cycle = dict(zip(points, points[1:] + points[:1]))
    return st.ensure_valid(st.FiniteMetricStructure(
        _EDGE_SIG, points, dist,
        {"C": {(): c_value}, "P": {(p,): v for p, v in zip(points, p_values)}},
        {"f": {(p,): cycle[p] for p in points},
         "g": {(p,): g_point for p in points}},
    ))


def test_edge_signatures_on_the_integral_match_materialize():
    # A constant symbol is a 0-ary function, which a signature refuses:
    # the oracle meets constants only as constant functions, like g.
    with pytest.raises(SignatureError):
        fm.Signature(functions=(("k", 0),))
    space = di.FiniteProbabilitySpace(("w1", "w2"), {"w1": F(1, 3), "w2": F(2, 3)})
    field_ = di.MeasurableField(space, {
        "w1": _edge_fiber(("a", "b"), (F(1, 4), F(1)), F(1, 5), "b"),
        "w2": _edge_fiber(("c", "d", "e"), (F(0), F(1, 2), F(6, 7)), F(3, 4), "e"),
    })
    atoms = space.atoms
    M = di.materialize(field_)
    phis = [fm.parse_formula(text, _EDGE_SIG) for text in (
        "C()", "half(C())", "P(g(x))", "P(f(f(x)))", "sub(P(f(f(x))), C())",
        "sub(P(x), P(g(x)))", "sup y . sub(P(f(f(y))), C())",
        "inf y . sub(P(y), P(f(g(y))))")]
    values = set()
    for e in field_.elements():
        # The same element from a mapping in reverse atom order.
        rev = di.element_of(field_, {w: e(w) for w in reversed(atoms)})
        assert list(rev.choice) == list(reversed(atoms))
        row = tuple(e(w) for w in atoms)
        for phi in phis:
            v = di.eval_on_integral(phi, field_, {"x": rev})
            assert v == di.eval_on_integral(phi, field_, {"x": e})
            assert v == st.eval_formula(phi, M, {"x": row})
            values.add(v)
    assert len(values) > len(phis)


def test_materialize_refuses_oversized_tables():
    # Three atoms with two-point fibers give 8 choice functions, within
    # the limit, but an 8-ary predicate table on them has 8**8 entries:
    # refused from the closed-form count before any table is built.
    sig = fm.Signature(predicates=(("S", 8),))
    points = ("p", "q")
    fiber = st.ensure_valid(st.FiniteMetricStructure(
        sig, points, {(p, q): F(int(p != q)) for p in points for q in points},
        {"S": {t: F(0) for t in itertools.product(points, repeat=8)}}))
    field_ = di.MeasurableField(uniform_space(("w1", "w2", "w3")),
                                {a: fiber for a in ("w1", "w2", "w3")})
    assert field_.element_count() == 8
    with pytest.raises(BudgetError, match=str(8**2 + 8**8)):
        di.materialize(field_)


def test_materialize_metric_is_integrated():
    field_ = sup_example_field()
    M = di.materialize(field_)
    a = ("p", "r")
    b = ("q", "r")
    assert M.d(a, b) == F(1, 2)
