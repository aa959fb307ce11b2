"""Formula and mba nodes are slotted dataclasses that cache their field
hash (tree.node).

A cached hash must equal the hash the dataclass computes from the fields,
so equal formulas built independently hash equal, and a node made by
rebuild, substitute_set_vars or dataclasses.replace never carries its
source's cached hash.
"""

import dataclasses
from fractions import Fraction

import pytest

from dilogic import family, mba, tree
from dilogic import formula as fm
from dilogic import transform as tr

F = Fraction

SIG = family.default_signature()

FORMULAS = [(name, phi) for name, phi, _small in family.formula_templates()]
FORMULAS += [(f"sentence{i}", phi)
             for i, phi in enumerate(family.sentence_suite())]

# One node of every term and formula class, with its field names.
SAMPLES = [
    (fm.Var("x"), ["name"]),
    (fm.Apply("f", (fm.Var("x"),)), ["func", "args"]),
    (fm.Atomic("P", (fm.Var("x"),)), ["pred", "args"]),
    (fm.Const(F(1, 3)), ["value"]),
    (fm.Half(fm.Const(0)), ["body"]),
    (fm.TruncSub(fm.Const(1), fm.Const(0)), ["left", "right"]),
    (fm.Sup("y", fm.Const(0)), ["var", "body"]),
    (fm.Inf("y", fm.Const(0)), ["var", "body"]),
]

X = mba.SetVarIndex("X", 0)
Y = mba.SetVarIndex("Y", F(1, 2), False)
Z0 = mba.ChainVar(0, "Z", 0)
SPEC = mba.ChainSpec("Z", (X,))
PROFILE = mba.ProfileSpec((("Z", 0),), Y)

# One node of every set-term and mba formula class, with its field names.
MBA_SAMPLES = [
    (X, ["tag", "level", "strict"]),
    (Z0, ["binder", "tag", "slot"]),
    (mba.SetLit(frozenset({"w0"})), ["atoms"]),
    (mba.Empty(), []),
    (mba.Full(), []),
    (mba.Union(X, Y), ["left", "right"]),
    (mba.Inter((X, Y)), ["items"]),
    (mba.Diff(X, Y), ["left", "right"]),
    (mba.SymDiff(X, Y), ["left", "right"]),
    (mba.Compl(X), ["body"]),
    (mba.Measure(X), ["term"]),
    (mba.Const(F(1, 3)), ["value"]),
    (mba.Scale(F(1, 2), mba.Measure(Y)), ["factor", "body"]),
    (mba.Add((mba.Measure(X), mba.Const(0))), ["items"]),
    (mba.TruncSub(mba.Measure(X), mba.Const(0)), ["left", "right"]),
    (mba.Max((mba.Measure(X), mba.Measure(Y))), ["items"]),
    (mba.Min((mba.Measure(X),)), ["items"]),
    (SPEC, ["tag", "bounds"]),
    (PROFILE, ["slots", "bound"]),
    (mba.SupChain(0, (SPEC,), mba.Measure(Z0), (PROFILE,)),
     ["binder", "chains", "inner", "profiles"]),
]


def fresh(value):
    """A deep copy built through the constructors, sharing no node."""
    if type(value) is tuple:
        return tuple(fresh(item) for item in value)
    if dataclasses.is_dataclass(value):
        return type(value)(**{f.name: fresh(getattr(value, f.name))
                              for f in dataclasses.fields(value)})
    return value


def images(phi):
    return [phi, fm.canonicalize(phi), fm.rewrite_inf(phi), tr.one_minus(phi)]


def field_hash(node):
    """The hash a frozen dataclass computes from its fields."""
    return hash(tuple(getattr(node, f.name) for f in dataclasses.fields(node)))


@pytest.mark.parametrize("phi", [phi for _name, phi in FORMULAS],
                         ids=[name for name, _phi in FORMULAS])
def test_equal_formulas_hash_equal(phi):
    for a, b in zip(images(phi), images(fresh(phi))):
        hash(a)  # cache every hash below a before comparing
        for x, y in ((a, b), (a, fresh(a))):
            assert x is not y
            assert x == y
            assert hash(x) == hash(y)
        for node in fm.nodes(a):
            assert hash(node) == field_hash(node)


def test_rebuilt_nodes_carry_no_stale_hash():
    phi = fm.parse_formula("sup y . sub(P(y), half(Q(y)))", SIG)
    old = [hash(node) for node in fm.nodes(phi)]

    def swap(node):
        if type(node) is fm.Atomic and node.pred == "Q":
            return fm.Atomic("P", node.args)
        return fm.rebuild(node, swap)

    swapped = swap(phi)
    expected = fm.parse_formula("sup y . sub(P(y), half(P(y)))", SIG)
    assert swapped == expected
    assert hash(swapped) == hash(expected) != hash(phi)
    assert [hash(node) for node in fm.nodes(phi)] == old


def test_replaced_nodes_carry_no_stale_hash():
    phi = fm.parse_formula("sub(P(x), Q(x))", SIG)
    hash(phi)
    replaced = dataclasses.replace(phi, right=fm.Const(F(1, 2)))
    expected = fm.parse_formula("sub(P(x), 1/2)", SIG)
    assert replaced == expected
    assert hash(replaced) == hash(expected) != hash(phi)
    same = dataclasses.replace(phi)
    assert same is not phi
    assert hash(same) == hash(phi)
    renamed = fm.Sup("y", phi)
    hash(renamed)
    assert hash(dataclasses.replace(renamed, var="z")) == hash(fm.Sup("z", phi))


@pytest.mark.parametrize("node, names", SAMPLES + MBA_SAMPLES,
                         ids=[type(node).__name__ for node, _names in SAMPLES]
                         + [f"mba.{type(node).__name__}" for node, _names in MBA_SAMPLES])
def test_nodes_are_slotted_with_unchanged_fields(node, names):
    hash(node)
    assert not hasattr(node, "__dict__")
    assert [f.name for f in dataclasses.fields(node)] == names
    assert repr(node) == (f"{type(node).__name__}("
                          + ", ".join(f"{n}={getattr(node, n)!r}" for n in names)
                          + ")")


def test_every_ast_class_is_a_node_that_caches_its_hash():
    for table, samples in ((fm._CHILDREN, SAMPLES), (mba._CHILDREN, MBA_SAMPLES)):
        assert {type(node) for node, _names in samples} == set(table)
        for node, _names in samples:
            assert isinstance(node, tree.Node)
            hash(node)
            assert node._hash == field_hash(node)


def test_compiled_g_nodes_hash_their_fields(compile_panel):
    _names, results, _finished = compile_panel
    for result in results:
        g = result.g
        copy = fresh(g)
        assert copy == g
        assert hash(copy) == hash(g)
        for node in mba.nodes(g):
            assert hash(node) == field_hash(node)


def test_substituted_and_rebuilt_mba_nodes_carry_no_stale_hash():
    g = mba.Add((mba.Measure(mba.Diff(X, Y)),
                 mba.Scale(F(1, 2), mba.Measure(mba.Compl(X)))))
    old = [hash(node) for node in mba.nodes(g)]

    substituted = mba.substitute_set_vars(g, {X: mba.Full()})
    expected = mba.Add((mba.Measure(mba.Diff(mba.Full(), Y)),
                        mba.Scale(F(1, 2), mba.Measure(mba.Compl(mba.Full())))))
    assert substituted == expected
    assert hash(substituted) == hash(expected) != hash(g)

    first, second = g.items
    rebuilt = mba.rebuild(g, lambda c: mba.Measure(Y) if c is first else c)
    expected = mba.Add((mba.Measure(Y), second))
    assert rebuilt == expected
    assert hash(rebuilt) == hash(expected) != hash(g)
    assert mba.rebuild(g, lambda c: c) is g
    assert [hash(node) for node in mba.nodes(g)] == old
