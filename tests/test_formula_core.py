"""Formula AST, parser, canonicalization, and the range/inf rewrites."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from dilogic import formula as fm
from dilogic import structure as st
from dilogic.errors import ParseError, SignatureError

from helpers import SIG_PQ, make_structure, p_of, q_of

F = Fraction


# ---------------------------------------------------------------------------
# Signature


def test_signature_rejects_duplicates_and_bad_arities():
    with pytest.raises(SignatureError):
        fm.Signature(predicates=(("P", 1), ("P", 2)))
    with pytest.raises(SignatureError):
        fm.Signature(predicates=(("P", -1),))
    with pytest.raises(SignatureError):
        fm.Signature(functions=(("f", 0),))
    with pytest.raises(SignatureError):
        fm.Signature(predicates=(("sup", 1),))
    for arity in (1.5, "1", None, True):
        with pytest.raises(SignatureError):
            fm.Signature(predicates=(("P", arity),))


def test_signature_rejects_names_that_are_not_strings():
    for name in (None, True, 5):
        with pytest.raises(SignatureError):
            fm.Signature(predicates=((name, 1),))
        with pytest.raises(SignatureError):
            fm.Signature(functions=((name, 1),))


def test_signature_allows_nullary_predicates():
    sig = fm.Signature(predicates=(("c", 0),))
    assert sig.pred_arity("c") == 0
    assert fm.parse_formula("c()", sig) == fm.Atomic("c", ())


# ---------------------------------------------------------------------------
# Parsing


def test_parse_truncated_subtraction():
    phi = fm.parse_formula("sub(P(x), Q(x))", SIG_PQ)
    assert phi == fm.TruncSub(p_of("x"), q_of("x"))


def test_parse_sup_half():
    phi = fm.parse_formula("sup y . half(P(y))", SIG_PQ)
    # Canonical renaming maps the bound variable to y0.
    assert phi == fm.Sup("y0", fm.Half(p_of("y0")))


def test_parse_constant_out_of_range():
    with pytest.raises(ParseError):
        fm.parse_formula("3/2", SIG_PQ)


def test_parse_rationals():
    assert fm.parse_formula("0", SIG_PQ) == fm.Const(F(0))
    assert fm.parse_formula("1", SIG_PQ) == fm.Const(F(1))
    assert fm.parse_formula("2/4", SIG_PQ) == fm.Const(F(1, 2))


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as exc:
        fm.parse_formula("sub(P(x) Q(x))", SIG_PQ)
    assert exc.value.position is not None


@pytest.mark.parametrize(
    "text",
    [
        "R(x)",                # undeclared predicate
        "P(x, y)",             # arity mismatch
        "P()",                 # arity mismatch (too few)
        "P(P)",                # symbol used as a variable
        "sup sub . P(x)",      # reserved word as a variable
        "P(x) Q(x)",           # trailing input
        "half(P(x)",           # unbalanced parenthesis
        "1/0",                 # zero denominator
    ],
)
def test_parse_rejections(text):
    with pytest.raises(ParseError):
        fm.parse_formula(text, SIG_PQ)


SIG_PQF = fm.Signature((("P", 1), ("Q", 1)), (("f", 1),))


@pytest.mark.parametrize("text, message, position", [
    ("P(x) @", "unexpected character '@'", 5),
    ("sub(,", "expected a formula, found ','", 4),
    ("sup 1 . P(x)", "expected a variable name after quantifier", 4),
    ("1/x", "expected a denominator", 2),
    ("P(1)", "expected a term, found '1'", 2),
    ("P(sup)", "'sup' cannot appear in a term", 2),
    ("P(g(x))", "undeclared function 'g'", 2),
    ("Q(f(x,x))", "function 'f' expects 1 argument(s), got 2", 2),
])
def test_parse_error_message_and_position(text, message, position):
    with pytest.raises(ParseError) as exc:
        fm.parse_formula(text, SIG_PQF)
    assert exc.value.position == position
    assert str(exc.value) == f"{message} (at position {position})"


def test_to_text_renders_terms():
    term = fm.Apply("g", (fm.Var("x"), fm.Apply("f", (fm.Var("y"),))))
    assert fm.to_text(term) == "g(x,f(y))"
    assert fm.to_text(fm.Var("x")) == "x"


def test_trailing_whitespace_parses():
    assert fm.parse_formula("P(f(x)) \t\n ", SIG_PQF) == fm.parse_formula(
        "P(f(x))", SIG_PQF)


# ---------------------------------------------------------------------------
# Free variables and canonicalization


def test_free_vars():
    assert fm.free_vars(fm.Atomic("R", (fm.Var("x"), fm.Var("y")))) == {"x", "y"}
    assert fm.free_vars(fm.Sup("y", fm.Atomic("R", (fm.Var("x"), fm.Var("y"))))) == {"x"}
    assert fm.free_vars(fm.Const(F(1, 2))) == set()
    term = fm.Apply("g", (fm.Var("x"), fm.Apply("f", (fm.Var("y"),))))
    assert fm.free_vars(term) == {"x", "y"}
    assert fm.free_vars(fm.Sup("y", fm.Atomic("P", (term,)))) == {"x"}


def test_canonicalize_alpha_equivalence():
    a = fm.Sup("u", fm.TruncSub(p_of("u"), q_of("u")))
    b = fm.Sup("v", fm.TruncSub(p_of("v"), q_of("v")))
    assert fm.canonicalize(a) == fm.canonicalize(b)


def test_canonicalize_avoids_capture():
    # Free variable named y0 must not collide with the canonical bound name.
    phi = fm.Sup("z", fm.TruncSub(p_of("z"), q_of("y0")))
    out = fm.canonicalize(phi)
    assert out.var != "y0"
    assert fm.free_vars(out) == {"y0"}


def test_canonicalize_renames_inside_function_terms():
    sig = fm.Signature(predicates=(("P", 1),), functions=(("g", 2),))
    a = fm.parse_formula("sup u . P(g(u, y0))", sig)
    b = fm.parse_formula("sup v . P(g(v, y0))", sig)
    assert a == b == fm.Sup("y1", fm.Atomic(
        "P", (fm.Apply("g", (fm.Var("y1"), fm.Var("y0"))),)))


# ---------------------------------------------------------------------------
# Round-trip property


def _formulas(max_depth=3):
    leaves = hs.one_of(
        hs.sampled_from([p_of("x"), q_of("x"), p_of("z")]),
        hs.integers(0, 4).map(lambda n: fm.Const(F(n, 4))),
    )

    def extend(children):
        return hs.one_of(
            children.map(fm.Half),
            hs.tuples(children, children).map(lambda ab: fm.TruncSub(*ab)),
            children.map(lambda b: fm.Sup("y", b)),
            children.map(lambda b: fm.Inf("y", b)),
        )

    return hs.recursive(leaves, extend, max_leaves=6).map(fm.canonicalize)


@given(_formulas())
@settings(max_examples=200, deadline=None)
def test_parse_print_round_trip(phi):
    assert fm.parse_formula(fm.to_text(phi), SIG_PQ) == phi


# ---------------------------------------------------------------------------
# Inf elimination


def test_rewrite_inf_shape():
    phi = fm.Inf("y", p_of("y"))
    out = fm.rewrite_inf(phi)
    assert out == fm.TruncSub(
        fm.Const(1), fm.Sup("y", fm.TruncSub(fm.Const(1), p_of("y")))
    )
    assert not any(type(n) is fm.Inf for n in fm.nodes(out))


def test_rewrite_inf_no_op_without_inf():
    phi = fm.TruncSub(p_of("x"), fm.Half(q_of("x")))
    assert fm.rewrite_inf(phi) is not None
    assert fm.rewrite_inf(phi) == phi
    assert fm.rewrite_inf(phi) is phi


@given(_formulas())
@settings(max_examples=100, deadline=None)
def test_rewrite_inf_preserves_values(phi):
    M = make_structure(
        SIG_PQ,
        {
            "P": {"a": F(1, 4), "b": F(3, 4), "c": F(1, 2)},
            "Q": {"a": F(1), "b": F(1, 2), "c": F(3, 4)},
        },
        dist={
            frozenset({"a", "b"}): F(1, 2),
            frozenset({"a", "c"}): F(1, 2),
            frozenset({"b", "c"}): F(1, 2),
        },
    )
    assignment = {v: "a" for v in fm.free_vars(phi)}
    rewritten = fm.rewrite_inf(phi)
    assert not any(type(n) is fm.Inf for n in fm.nodes(rewritten))
    assert st.eval_formula(rewritten, M, assignment) == st.eval_formula(
        phi, M, assignment
    )


# ---------------------------------------------------------------------------
# Range normalization


def test_normalize_range_identity():
    phi = p_of("x")
    assert fm.normalize_range(phi, 1, 0) == phi


def test_normalize_range_half():
    phi = p_of("x")
    assert fm.normalize_range(phi, F(1, 2), 0) == fm.Half(phi)


def test_normalize_range_shift_and_scale():
    phi = p_of("x")
    out = fm.normalize_range(phi, F(1, 2), F(1, 4))
    assert out == fm.Half(fm.TruncSub(phi, fm.Const(F(1, 4))))


def test_normalize_range_value():
    phi = p_of("x")
    M = make_structure(SIG_PQ, {"P": {"a": F(3, 4)}, "Q": {"a": F(0)}})
    out = fm.normalize_range(phi, F(1, 4), F(1, 2))
    assert st.eval_formula(out, M, {"x": "a"}) == F(1, 4) * (F(3, 4) - F(1, 2))


def test_normalize_range_rejections():
    phi = p_of("x")
    with pytest.raises(SignatureError):
        fm.normalize_range(phi, F(1, 3), 0)
    with pytest.raises(SignatureError):
        fm.normalize_range(phi, 0, 0)
    with pytest.raises(SignatureError):
        fm.normalize_range(phi, 2, 0)
    with pytest.raises(SignatureError):
        fm.normalize_range(phi, 1, F(3, 2))
