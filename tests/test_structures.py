"""Finite metric structures: validation, evaluation, seminorm, isomorphism."""

from fractions import Fraction

import pytest

from dilogic import formula as fm
from dilogic import jsonio
from dilogic import integral as di
from dilogic import structure as st
from dilogic.errors import BudgetError, EvaluationError, ValidationError

from helpers import SIG_P, SIG_PQ, make_structure, p_of, uniform_space

F = Fraction


def two_point(p_lo, p_hi, d=F(1)):
    return make_structure(
        SIG_P, {"P": {"p": p_lo, "q": p_hi}}, dist={frozenset({"p", "q"}): d}
    )


# ---------------------------------------------------------------------------
# Validation


def test_one_point_structure_passes():
    M = make_structure(SIG_P, {"P": {"p": F(1, 3)}})
    assert st.validate(M) is None


def test_lipschitz_violation_reported():
    sig = SIG_P
    dist = {("p", "p"): F(0), ("q", "q"): F(0),
            ("p", "q"): F(1, 4), ("q", "p"): F(1, 4)}
    M = st.FiniteMetricStructure(
        sig, ("p", "q"), dist, {"P": {("p",): F(0), ("q",): F(1)}}
    )
    msg = st.validate(M)
    assert msg is not None and "Lipschitz" in msg
    with pytest.raises(ValidationError):
        st.ensure_valid(M)


def test_discrete_metric_accepts_any_tables():
    M = two_point(F(0), F(1))  # distance 1: Lipschitz is vacuous
    assert st.validate(M) is None


def test_metric_axioms_checked():
    sig = SIG_P
    bad = st.FiniteMetricStructure(
        sig, ("p", "q"),
        {("p", "p"): F(0), ("q", "q"): F(0),
         ("p", "q"): F(1, 2), ("q", "p"): F(1, 4)},
        {"P": {("p",): F(0), ("q",): F(0)}},
    )
    assert st.validate(bad) is not None


def test_triangle_inequality_checked():
    pts = ("a", "b", "c")
    dist = {}
    vals = {("a", "b"): F(1), ("a", "c"): F(1, 8), ("b", "c"): F(1, 8)}
    for p in pts:
        for q in pts:
            if p == q:
                dist[(p, q)] = F(0)
            else:
                dist[(p, q)] = vals[tuple(sorted((p, q)))]
    M = st.FiniteMetricStructure(
        SIG_P, pts, dist, {"P": {(p,): F(0) for p in pts}}
    )
    msg = st.validate(M)
    assert msg is not None and "triangle" in msg


# Inexact or non-numeric values: True compares as 1, 0.25 as 1/4 and "1/2"
# not at all, so each must be refused by its type.
INEXACT_VALUES = [0.25, True, "1/2"]


def _with_value(pred_value=F(1, 2), dist_value=F(1)):
    """Two points p, q: P(p) = pred_value, P(q) = 1/2, d(p, q) =
    dist_value, built without validation."""
    dist = {("p", "p"): F(0), ("q", "q"): F(0),
            ("p", "q"): dist_value, ("q", "p"): dist_value}
    preds = {"P": {("p",): pred_value, ("q",): F(1, 2)}}
    return st.FiniteMetricStructure(SIG_P, ("p", "q"), dist, preds)


def _assert_refused(M, what):
    msg = st.validate(M)
    assert msg is not None and what in msg and "not an int or a Fraction" in msg
    with pytest.raises(ValidationError):
        st.ensure_valid(M)
    with pytest.raises(ValidationError):
        di.MeasurableField(uniform_space(("w1",)), {"w1": M})


@pytest.mark.parametrize("bad", INEXACT_VALUES, ids=repr)
def test_inexact_predicate_value_refused(bad):
    _assert_refused(_with_value(pred_value=bad), "predicate 'P'")


@pytest.mark.parametrize("bad", INEXACT_VALUES, ids=repr)
def test_inexact_distance_refused(bad):
    _assert_refused(_with_value(dist_value=bad), "distance d(p,q)")


def test_int_and_fraction_values_accepted():
    M = _with_value(pred_value=1, dist_value=1)
    assert st.validate(M) is None
    assert M.den == 2
    assert st.eval_formula(fm.Inf("x", p_of("x")), M) == F(1, 2)


def test_missing_table_reported():
    M = st.FiniteMetricStructure(SIG_PQ, ("p",), {("p", "p"): F(0)},
                                 {"P": {("p",): F(0)}})
    assert st.validate(M) is not None


SIG_PF = fm.Signature((("P", 1),), (("f", 1),))


def _metric(points, far):
    """Distance far[(p, q)] for p before q in points (default 1/2), and
    its mirror; 0 on the diagonal."""
    dist = {}
    for i, p in enumerate(points):
        dist[(p, p)] = F(0)
        for q in points[i + 1:]:
            dist[(p, q)] = dist[(q, p)] = far.get((p, q), F(1, 2))
    return dist


def _pf(points=("p", "q"), dist=None, preds=None, funcs=None):
    """A P, f structure, valid unless a table is replaced: d = 1/2 between
    distinct points, P = 0 and f the identity."""
    return st.FiniteMetricStructure(
        SIG_PF, points, _metric(points, {}) if dist is None else dist,
        {"P": {(p,): F(0) for p in points}} if preds is None else preds,
        {"f": {(p,): p for p in points}} if funcs is None else funcs)


PQR = ("p", "q", "r")


@pytest.mark.parametrize("M, message", [
    (_pf(points=()), "structure has no points"),
    (_pf(points=("p", "p"), dist={}), "duplicate point names"),
    (_pf(dist={k: v for k, v in _metric(("p", "q"), {}).items() if k != ("q", "q")}),
     "missing distance (q,q)"),
    (_pf(dist={**_metric(("p", "q"), {}), ("p", "q"): 0.5}),
     "distance d(p,q)=0.5 is not an int or a Fraction"),
    (_pf(dist=_metric(("p", "q"), {("p", "q"): F(2)})),
     "distance d(p,q)=2 outside [0,1]"),
    (_pf(dist=_metric(("p", "q"), {("p", "q"): F(0)})),
     "d(p,q)=0 violates identity of indiscernibles"),
    (_pf(dist={**_metric(("p", "q"), {}), ("q", "p"): F(1, 4)}),
     "d(p,q) != d(q,p)"),
    (_pf(points=PQR, dist=_metric(PQR, {("p", "q"): F(1, 4), ("q", "r"): F(1, 4),
                                        ("p", "r"): F(1)})),
     "triangle inequality fails at (p,q,r)"),
    (_pf(preds={}), "missing table for predicate 'P'"),
    (_pf(preds={"P": {("p",): F(0)}}), "predicate 'P' undefined at ('q',)"),
    (_pf(preds={"P": {("p",): F(0), ("q",): 0.0}}),
     "predicate 'P' value 0.0 at ('q',) is not an int or a Fraction"),
    (_pf(preds={"P": {("p",): F(0), ("q",): F(3, 2)}}),
     "predicate 'P' value 3/2 outside [0,1] at ('q',)"),
    (_pf(preds={"P": {("p",): F(0), ("q",): F(1)}}),
     "predicate 'P' not 1-Lipschitz in coordinate 0 between ('p',) and ('q',)"),
    (_pf(funcs={}), "missing table for function 'f'"),
    (_pf(funcs={"f": {("p",): "p"}}), "function 'f' undefined at ('q',)"),
    (_pf(funcs={"f": {("p",): "p", ("q",): "r"}}),
     "function 'f' maps ('q',) outside the point set"),
    (_pf(points=PQR, dist=_metric(PQR, {("p", "q"): F(1, 4)}),
         funcs={"f": {("p",): "p", ("q",): "r", ("r",): "r"}}),
     "function 'f' not 1-Lipschitz in coordinate 0 between ('p',) and ('q',)"),
])
def test_validate_reports_each_malformed_structure(M, message):
    assert st.validate(_pf()) is None
    assert st.validate(M) == message


def test_structure_document_round_trip_with_constant_and_function():
    sig = fm.Signature((("P", 1), ("C", 0)), (("f", 1),))
    M = st.ensure_valid(st.FiniteMetricStructure(
        sig, ("p", "q"), _metric(("p", "q"), {}),
        {"P": {("p",): F(1, 4), ("q",): F(1, 2)}, "C": {(): F(1, 3)}},
        {"f": {("p",): "q", ("q",): "p"}}))
    doc = jsonio.structure_to_doc(M)
    assert doc["preds"]["C"] == "1/3"
    assert doc["funcs"] == {"f": {"p": "q", "q": "p"}}
    assert jsonio.structure_from_doc(doc) == M


# ---------------------------------------------------------------------------
# Evaluation


def test_eval_const_and_connectives():
    M = two_point(F(1, 4), F(3, 4))
    a = {"x": "p"}
    assert st.eval_formula(fm.Const(F(1, 3)), M) == F(1, 3)
    assert st.eval_formula(fm.Half(p_of("x")), M, a) == F(1, 8)
    # Truncation clamps at zero.
    phi = fm.TruncSub(p_of("x"), fm.Const(F(3, 4)))
    assert st.eval_formula(phi, M, a) == F(0)


def test_eval_sup_inf_are_max_min():
    M = two_point(F(0), F(1))
    assert st.eval_formula(fm.Sup("y", p_of("y")), M) == F(1)
    assert st.eval_formula(fm.Inf("y", p_of("y")), M) == F(0)


def test_eval_missing_assignment():
    M = two_point(F(0), F(1))
    with pytest.raises(EvaluationError):
        st.eval_formula(p_of("x"), M)


def test_eval_function_terms():
    sig = fm.Signature(predicates=(("P", 1),), functions=(("f", 1),))
    pts = ("p", "q")
    dist = {("p", "p"): F(0), ("q", "q"): F(0),
            ("p", "q"): F(1), ("q", "p"): F(1)}
    M = st.ensure_valid(st.FiniteMetricStructure(
        sig, pts, dist,
        {"P": {("p",): F(1, 4), ("q",): F(3, 4)}},
        {"f": {("p",): "q", ("q",): "q"}},
    ))
    phi = fm.Atomic("P", (fm.Apply("f", (fm.Var("x"),)),))
    assert st.eval_formula(phi, M, {"x": "p"}) == F(3, 4)


# ---------------------------------------------------------------------------
# Seminorm


def test_theory_norm_closed_formula():
    M = two_point(F(1, 4), F(3, 4))
    phi = fm.Sup("y", p_of("y"))
    assert st.theory_norm(phi, M) == st.eval_formula(phi, M) == F(3, 4)


def test_theory_norm_max_over_points():
    M = two_point(F(1, 4), F(3, 4))
    assert st.theory_norm(p_of("x"), M) == F(3, 4)


def test_theory_norm_two_variables():
    M = two_point(F(1, 4), F(3, 4), d=F(1, 2))
    phi = fm.TruncSub(p_of("x"), p_of("y"))
    assert st.theory_norm(phi, M) == F(1, 2)


def twelve_points(shift=F(0)):
    return make_structure(SIG_P, {"P": {f"p{i}": F(i, 12) + shift for i in range(12)}})


def test_theory_norm_refuses_an_oversized_assignment_count():
    # 12^6 = 2,985,984 assignments of six free variables: refused before
    # any is evaluated.
    phi = p_of("x0")
    for i in range(1, 6):
        phi = fm.TruncSub(phi, p_of(f"x{i}"))
    with pytest.raises(BudgetError, match=str(12**6)):
        st.theory_norm(phi, twelve_points())


def test_theory_norm_dominates_every_assignment():
    M = two_point(F(1, 4), F(3, 4), d=F(1, 2))
    phi = fm.TruncSub(p_of("x"), fm.Half(p_of("y")))
    best = st.theory_norm(phi, M)
    for x in M.points:
        for y in M.points:
            assert st.eval_formula(phi, M, {"x": x, "y": y}) <= best


# ---------------------------------------------------------------------------
# Isomorphism search


def test_isomorphic_after_permutation():
    M = two_point(F(1, 4), F(3, 4))
    N = make_structure(
        SIG_P, {"P": {"b": F(3, 4), "a": F(1, 4)}},
        dist={frozenset({"a", "b"}): F(1)},
    )
    b = st.is_isomorphic(M, N)
    assert b == {"p": "a", "q": "b"}


def test_not_isomorphic_different_sizes():
    M = two_point(F(0), F(1))
    N = make_structure(SIG_P, {"P": {"p": F(0)}})
    assert st.is_isomorphic(M, N) is None


def test_not_isomorphic_different_tables():
    M = two_point(F(0), F(1))
    N = two_point(F(0), F(1, 2))
    assert st.is_isomorphic(M, N) is None


def test_isomorphism_preserves_evaluation():
    M = two_point(F(1, 4), F(3, 4), d=F(1, 2))
    N = make_structure(
        SIG_P, {"P": {"u": F(3, 4), "v": F(1, 4)}},
        dist={frozenset({"u", "v"}): F(1, 2)},
    )
    b = st.is_isomorphic(M, N)
    assert b is not None
    suite = [
        p_of("x"),
        fm.Half(p_of("x")),
        fm.Sup("y", fm.TruncSub(p_of("y"), p_of("x"))),
    ]
    for phi in suite:
        for p in M.points:
            assert st.eval_formula(phi, M, {"x": p}) == st.eval_formula(
                phi, N, {"x": b[p]}
            )


def test_not_isomorphic_different_signatures():
    M = two_point(F(0), F(1))
    N = make_structure(SIG_PQ, {"P": {"p": F(0), "q": F(1)},
                                "Q": {"p": F(0), "q": F(0)}})
    assert st.is_isomorphic(M, N) is None


def test_isomorphism_search_skips_a_bijection_that_breaks_a_distance():
    # P is constant, so only distances tell the points apart; the first
    # permutation tried, p -> a, q -> b, r -> c, sends d(p,q) = 1/2 to 1.
    half = F(1, 2)
    M = make_structure(SIG_P, {"P": dict.fromkeys("pqr", half)},
                       dist={frozenset("pq"): half, frozenset("pr"): 1,
                             frozenset("qr"): 1})
    N = make_structure(SIG_P, {"P": dict.fromkeys("abc", half)},
                       dist={frozenset("ab"): 1, frozenset("ac"): 1,
                             frozenset("bc"): half})
    assert st.is_isomorphic(M, N) == {"p": "b", "q": "c", "r": "a"}


SIG_PF = fm.Signature(predicates=(("P", 1),), functions=(("f", 1),))


def with_function(M, images):
    """M over SIG_PF, with the unary function f sending p to images[p]."""
    return st.ensure_valid(st.FiniteMetricStructure(
        SIG_PF, M.points, M.dist, M.preds,
        {"f": {(p,): images[p] for p in M.points}}))


def test_isomorphism_preserves_a_unary_function():
    M = with_function(two_point(F(1, 4), F(3, 4)), {"p": "q", "q": "p"})
    N = make_structure(SIG_P, {"P": {"a": F(1, 4), "b": F(3, 4)}})
    assert st.is_isomorphic(M, with_function(N, {"a": "b", "b": "a"})) == {
        "p": "a", "q": "b"}
    # The one bijection that keeps P sends f(p) = q to b, but f(a) = a.
    assert st.is_isomorphic(M, with_function(N, {"a": "a", "b": "a"})) is None


def test_is_isomorphic_refuses_an_oversized_permutation_count():
    # 12! = 479,001,600 permutations, refused before any is tried; the
    # signature and size checks still answer first.
    M = twelve_points()
    with pytest.raises(BudgetError, match=str(479001600)):
        st.is_isomorphic(M, twelve_points(F(0)))
    assert st.is_isomorphic(M, two_point(F(0), F(1))) is None
