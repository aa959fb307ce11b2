"""The child-field tables behind `nodes` and `rebuild` in formula and mba.

A reflective walk over every dataclass field is the reference: a field
added to a node class but left out of its module's table would make the
table-driven walkers skip it silently.
"""

import dataclasses
from fractions import Fraction

import pytest

from dilogic import formula as fm
from dilogic import jsonio, mba
from dilogic import structure as st
from dilogic import transform as tr

F = Fraction


def _formula_sample():
    # Every term and formula class, function symbols included.
    return fm.Sup("y", fm.TruncSub(
        fm.Half(fm.Atomic("R", (fm.Var("x"), fm.Apply("f", (fm.Var("y"),))))),
        fm.Inf("z", fm.Const(F(1, 2))),
    ))


def _mba_sample():
    # Every set-term and formula class, with chain and profile specs.
    x = mba.SetVarIndex("X", 0)
    w = mba.SetVarIndex("W", F(1, 2), False)
    y = mba.ChainVar(0, "A", 0)
    bound = mba.Union(mba.Inter((x, mba.Full())), mba.SetLit(frozenset({"w1"})))
    inner = mba.Add((
        mba.Scale(F(1, 2), mba.Measure(mba.Diff(y, mba.Compl(mba.SymDiff(x, mba.Empty()))))),
        mba.TruncSub(mba.Max((mba.Const(1), mba.Measure(y))), mba.Min((mba.Const(0),))),
    ))
    return mba.SupChain(
        binder=0,
        chains=(mba.ChainSpec("A", (bound, x)),),
        inner=inner,
        profiles=(mba.ProfileSpec((("A", 0),), w),),
    )


def _reflective_nodes(node, classes):
    """Pre-order over every dataclass field holding a node or a tuple of
    nodes of the given classes."""
    out = [node]
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        for item in value if isinstance(value, tuple) else (value,):
            if type(item) in classes:
                out += _reflective_nodes(item, classes)
    return out


@pytest.mark.parametrize("module, sample", [
    (fm, _formula_sample()),
    (mba, _mba_sample()),
], ids=["formula", "mba"])
def test_children_table_matches_dataclass_fields(module, sample):
    classes = set(module._CHILDREN)
    expected = _reflective_nodes(sample, classes)
    assert {type(n) for n in expected} == classes
    assert list(module.nodes(sample)) == expected


@pytest.mark.parametrize("module, sample", [
    (fm, _formula_sample()),
    (mba, _mba_sample()),
], ids=["formula", "mba"])
def test_rebuild_keeps_unchanged_nodes(module, sample):
    for node in module.nodes(sample):
        assert module.rebuild(node, lambda child: child) is node


def test_nodes_rejects_foreign_objects():
    with pytest.raises(TypeError):
        list(fm.nodes(fm.Half("not a formula")))
    with pytest.raises(TypeError):
        mba.free_set_vars(fm.Const(0))


_MEASURE = mba.Measure(mba.Full())
_HALF = fm.Const(F(1, 2))
_ONE_POINT = st.FiniteMetricStructure(fm.Signature(), ("p",), {("p", "p"): F(0)}, {})
_ONE_ATOM = mba.FiniteMeasureAlgebra(("a",), {"a": F(1)})


@pytest.mark.parametrize("call, message", [
    (lambda: fm.to_text(_MEASURE), "not a formula or term"),
    (lambda: st.eval_formula(_MEASURE, _ONE_POINT), "not a formula"),
    (lambda: tr.transform(_MEASURE, 2), "not a formula"),
    (lambda: mba.eval_mba(_HALF, {}, _ONE_ATOM), "not an mba formula"),
    (lambda: mba.eval_set(_HALF, {}, _ONE_ATOM), "not a set term"),
    (lambda: jsonio._mba_to_doc(_HALF, {}), "not an mba formula or set term"),
    (lambda: jsonio.pretty_mba(_HALF), "not an mba formula or set term"),
], ids=["to_text", "eval_formula", "transform", "eval_mba", "eval_set",
        "_mba_to_doc", "pretty_mba"])
def test_a_node_of_the_other_ast_is_a_type_error(call, message):
    # Each walker of one AST refuses a node of the other by name.
    with pytest.raises(TypeError, match=message):
        call()
