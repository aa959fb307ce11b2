"""Formula nodes are slotted dataclasses that cache their field hash.

A cached hash must equal the hash the dataclass computes from the fields,
so equal formulas built independently hash equal, and a node made by
rebuild or dataclasses.replace never carries its source's cached hash.
"""

import dataclasses
from fractions import Fraction

import pytest

from dilogic import family
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


@pytest.mark.parametrize("node, names", SAMPLES,
                         ids=[type(node).__name__ for node, _names in SAMPLES])
def test_nodes_are_slotted_with_unchanged_fields(node, names):
    hash(node)
    assert not hasattr(node, "__dict__")
    assert [f.name for f in dataclasses.fields(node)] == names
    assert repr(node) == (f"{type(node).__name__}("
                          + ", ".join(f"{n}={getattr(node, n)!r}" for n in names)
                          + ")")
