"""The integer core: the oracle's per-field integer tables and the
measure algebra's masks, each against its Fraction and frozenset
definition, on weights and table values with coprime denominators; and
a guard that no float appears in the program."""

import ast
import itertools
import pathlib
import random
from fractions import Fraction

import pytest

from dilogic import family, mba
from dilogic import formula as fm
from dilogic import integral as di
from dilogic import structure as st

from helpers import set_reference

F = Fraction

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "dilogic"

# Weight lists of 1 to 3 atoms with pairwise coprime denominators: the
# acceptance family only draws power-of-two denominators.
COPRIME_WEIGHTS = (
    (F(1),),
    (F(1, 3), F(2, 3)),
    (F(1, 5), F(2, 7), F(18, 35)),
)


def _algebra(weights):
    atoms = tuple(f"w{i}" for i in range(len(weights)))
    return mba.FiniteMeasureAlgebra(atoms, dict(zip(atoms, weights)))


ALGEBRAS = [_algebra(w) for w in COPRIME_WEIGHTS]


# ---------------------------------------------------------------------------
# The integer oracle


def _coprime_field():
    """Weights 1/3 and 2/3; fiber metrics and tables over 5 and over 7."""
    sig = family.default_signature()
    rng = random.Random(0)
    space = di.FiniteProbabilitySpace(("w1", "w2"), {"w1": F(1, 3), "w2": F(2, 3)})
    return di.MeasurableField(space, {
        "w1": family.random_structure(sig, rng, 2, prefix="a", denom=5),
        "w2": family.random_structure(sig, rng, 3, prefix="b", denom=7),
    })


def test_weighted_preds_share_the_lcm_denominator():
    field_ = _coprime_field()
    den, tables = field_.weighted_preds
    assert den == 105
    weights = field_.space.weights
    for name, _arity in field_.signature.predicates:
        # One table per atom, in atom order.
        assert len(tables[name]) == len(field_.space.atoms)
        for w, table in zip(field_.space.atoms, tables[name]):
            fiber = field_.fibers[w].preds[name]
            assert set(table) == set(fiber)
            for args, numerator in table.items():
                assert type(numerator) is int
                assert F(numerator, den) == weights[w] * fiber[args]
    # Built once per field.
    assert field_.weighted_preds is field_.weighted_preds


def test_oracle_matches_materialize_with_coprime_denominators():
    field_ = _coprime_field()
    M = di.materialize(field_)
    atoms = field_.space.atoms
    phis = family.sentence_suite() + [
        phi for _name, phi, _small in family.formula_templates()]
    checked = 0
    for phi in phis:
        free = sorted(fm.free_vars(phi))
        for combo in itertools.product(field_.elements(), repeat=len(free)):
            assignment = dict(zip(free, combo))
            local = {v: tuple(e(a) for a in atoms) for v, e in assignment.items()}
            assert di.eval_on_integral(phi, field_, assignment) == st.eval_formula(
                phi, M, local)
            checked += 1
    assert checked > len(phis)


def test_scaled_pred_is_den_times_the_fraction_sum():
    field_ = _coprime_field()
    integral = di._Integral(field_)
    atoms = field_.space.atoms
    weights = field_.space.weights
    rng = random.Random(3)
    for name, arity in field_.signature.predicates:
        for _ in range(20):
            # A choice function is its tuple of points in atom order.
            args = tuple(tuple(rng.choice(field_.fibers[w].points) for w in atoms)
                         for _ in range(arity))
            reference = sum((weights[w] * field_.fibers[w].preds[name][
                tuple(a[i] for a in args)] for i, w in enumerate(atoms)), F(0))
            got = integral.scaled_pred(name, args)
            assert type(got) is int
            assert got == integral.den * reference


def test_oracle_builds_no_element(monkeypatch):
    field_ = _coprime_field()
    e = next(field_.elements())
    built = []
    init = di.IntegralElement.__post_init__

    def counting(self):
        built.append(self)
        init(self)

    monkeypatch.setattr(di.IntegralElement, "__post_init__", counting)
    for phi in family.sentence_suite():
        di.eval_on_integral(phi, field_)
    # A caller may still pass elements in.
    phi = fm.parse_formula("sup y . sub(R(x, y), P(x))", field_.signature)
    di.eval_on_integral(phi, field_, {"x": e})
    assert built == []


# ---------------------------------------------------------------------------
# Masks against their frozenset definitions


def _measure(alg, subset):
    return sum((alg.weights[a] for a in subset), F(0))


def _set_terms():
    """Every set term over X and Y of depth at most two: the leaves, their
    complements, each binary operation on two of those, and the
    intersections of none and of three of them."""
    x = mba.SetVarIndex("X", 0)
    y = mba.SetVarIndex("Y", 0)
    leaves = [x, y, mba.Empty(), mba.Full(), mba.SetLit(frozenset({"w0"}))]
    unary = leaves + [mba.Compl(t) for t in leaves]
    pairs = list(itertools.product(unary, repeat=2))
    return (unary
            + [op(a, b) for op in (mba.Union, mba.Diff, mba.SymDiff) for a, b in pairs]
            + [mba.Inter(pair) for pair in pairs]
            + [mba.Inter(()), mba.Inter((x, mba.Compl(y), mba.SetLit(frozenset({"w0"}))))])


def _subsets_reference(alg, within):
    """The subsets of within in bitmask order over its own atoms."""
    base = [a for a in alg.atoms if a in within]
    for m in range(1 << len(base)):
        yield frozenset(a for i, a in enumerate(base) if m >> i & 1)


def _feasible_reference(bounds, alg):
    """The frozenset definition: nested tuples in bitmask order."""

    def rec(j, prefix, allowed):
        if j == len(bounds):
            yield tuple(prefix)
            return
        cap = allowed & bounds[j]
        for y in _subsets_reference(alg, cap):
            yield from rec(j + 1, prefix + [y], cap & y)

    yield from rec(0, [], frozenset(alg.atoms))


@pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: f"{len(a.atoms)}atoms")
def test_measure_and_d_equal_their_definitions(alg):
    subsets = list(alg.subsets())
    assert subsets == list(_subsets_reference(alg, alg.atoms))
    for cap in subsets:
        assert list(alg.subsets(cap)) == list(_subsets_reference(alg, cap))
    for a in subsets:
        assert alg.unmask(alg.mask(a)) == a
        assert alg.measure(a) == _measure(alg, a)
        for b in subsets:
            assert alg.d(a, b) == _measure(alg, a ^ b)


@pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: f"{len(a.atoms)}atoms")
def test_eval_set_equals_its_definition(alg):
    terms = _set_terms()
    subsets = list(alg.subsets())
    x, y = mba.SetVarIndex("X", 0), mba.SetVarIndex("Y", 0)
    for sx, sy in itertools.product(subsets, repeat=2):
        assign = {x: sx, y: sy}
        for term in terms:
            assert mba.eval_set(term, assign, alg) == set_reference(
                term, assign, alg)


@pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: f"{len(a.atoms)}atoms")
def test_dist_to_chain_set_equals_brute_force(alg):
    subsets = list(alg.subsets())
    chains = [(u0, u1) for u0 in subsets for u1 in subsets if u1 <= u0]
    for bounds in chains:
        members = list(_feasible_reference(list(bounds), alg))
        masks = [alg.mask(u) for u in bounds]
        assert mba.chain_enumeration_count(masks, alg) == len(members)
        for xs in itertools.product(subsets, repeat=2):
            dist, witness = mba.dist_to_chain_set(xs, bounds, alg)
            distances = [max(_measure(alg, x ^ y) for x, y in zip(xs, ys))
                         for ys in members]
            assert dist == min(distances)
            assert witness == members[distances.index(dist)]


# ---------------------------------------------------------------------------
# No floats in the program


def test_no_float_in_the_program():
    offences = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                offences.append(f"{path.name}:{node.lineno} float literal")
            if isinstance(node, ast.Name) and node.id == "float":
                offences.append(f"{path.name}:{node.lineno} name float")
    assert len(list(SRC.glob("*.py"))) > 10
    assert offences == []


def _unused_imports(tree):
    """(name, line) of each name a module-level import of tree binds and
    no Name node of tree reads; __future__ imports bind no name."""
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name.partition(".")[0], node.lineno)
                      for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(a.asname or a.name, node.lineno) for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(name, line) for name, line in bound if name not in read]


def test_unused_imports_are_found():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\nimport json as j\n"
                     "from dataclasses import dataclass, field\n"
                     "@dataclass\nclass A:\n    x: int = j.loads('1')\n")
    assert _unused_imports(tree) == [("os", 2), ("field", 4)]


def test_every_module_import_in_the_program_is_used():
    # __init__.py imports to re-export.
    offences = [f"{path.name}:{line} {name}"
                for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"
                for name, line in _unused_imports(
                    ast.parse(path.read_text(encoding="utf-8")))]
    assert len(list(SRC.glob("*.py"))) > 10
    assert offences == []
