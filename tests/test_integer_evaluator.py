"""The integer formula evaluator and the per-atom complement identity.

structure.eval_formula computes in integers over one scale per call; it is
checked here against a Fraction reference interpreter on random formulas
(nested half, constants over 3, 5 and 7, truncated subtraction below zero,
inf, function terms), on structures whose predicate denominators are
coprime and on direct integrals against materialize, with binders over
domains of 1 to 6 points.  A quantifier either sweeps a quantifier-free
body, when the model has a sweep, or interprets its body at each point;
the direct integral's sweep is checked value by value, in the order of
the choice functions, against eval_formula on materialize.  A min fold
a -. (a -. b) is checked with its accumulator shared, which is evaluated
once, and copied, and with the item shared, as transform folds, on
structures, fibers and the direct integral.  The column index the
integral's sweep reads is checked at every argument shape and pinned to
one build per symbol and position.  The complement identity, decided per atom, is checked against the explicit
loop over its l+1 thresholds.  No float appears in this module."""

import ast
import collections
import dataclasses
import itertools
import pathlib
import random
from fractions import Fraction

import pytest

from dilogic import family
from dilogic import formula as fm
from dilogic import integral as di
from dilogic import structure as st
from dilogic import transform as tr
from dilogic.errors import EvaluationError

from helpers import SIG_P, make_structure, random_formula

F = Fraction

SIG = fm.Signature(predicates=(("P", 1), ("Q", 1), ("R", 2)),
                   functions=(("f", 1), ("g", 2)))


# ---------------------------------------------------------------------------
# The Fraction reference


class _Coverage:
    """Counts the cases the random formulas must reach."""

    def __init__(self):
        self.negative_sub = 0
        self.nested_half = 0
        self.inf = 0
        self.func = 0


def _term_reference(term, M, env, seen):
    if isinstance(term, fm.Var):
        return env[term.name]
    seen.func += 1
    return M.funcs[term.func][tuple(_term_reference(a, M, env, seen)
                                    for a in term.args)]


def _reference(phi, M, env, seen, halves=0):
    """phi's value in M by the definition, in Fraction arithmetic, reading
    the tables directly."""
    rec = lambda p, h=halves: _reference(p, M, env, seen, h)  # noqa: E731
    if isinstance(phi, fm.Atomic):
        return M.preds[phi.pred][tuple(_term_reference(t, M, env, seen)
                                       for t in phi.args)]
    if isinstance(phi, fm.Const):
        return phi.value
    if isinstance(phi, fm.Half):
        seen.nested_half += halves >= 1
        return rec(phi.body, halves + 1) / 2
    if isinstance(phi, fm.TruncSub):
        v = rec(phi.left) - rec(phi.right)
        seen.negative_sub += v < 0
        return max(F(0), v)
    seen.inf += isinstance(phi, fm.Inf)
    values = [_reference(phi.body, M, {**env, phi.var: p}, seen, halves)
              for p in M.points]
    return max(values) if isinstance(phi, fm.Sup) else min(values)


# ---------------------------------------------------------------------------
# Random formulas and models


def _random_formulas(seed, count):
    rng = random.Random(seed)
    return [random_formula(rng, rng.randint(1, 4), ["x"]) for _ in range(count)]


def _discrete_structure(rng, points, denoms):
    """Distance 1 between distinct points, so every table is 1-Lipschitz:
    P, Q and R take values over the three given denominators, f is a
    permutation of the points and g a coordinate projection."""
    dist = {(p, q): F(int(p != q)) for p in points for q in points}
    preds = {}
    for (name, arity), den in zip(SIG.predicates, denoms):
        preds[name] = {args: F(rng.randrange(den + 1), den)
                       for args in itertools.product(points, repeat=arity)}
    shuffled = rng.sample(points, len(points))
    side = rng.randrange(2)
    funcs = {"f": {(p,): q for p, q in zip(points, shuffled)},
             "g": {args: args[side]
                   for args in itertools.product(points, repeat=2)}}
    return st.ensure_valid(
        st.FiniteMetricStructure(SIG, tuple(points), dist, preds, funcs))


def _check(phis, M, seen):
    """eval_formula against the reference for every phi and every point
    assigned to x; returns the number of values compared."""
    checked = 0
    for phi in phis:
        for p in M.points:
            got = st.eval_formula(phi, M, {"x": p})
            assert type(got) is Fraction
            assert got == _reference(phi, M, {"x": p}, seen), fm.to_text(phi)
            checked += 1
    return checked


def test_den_is_the_lcm_of_the_predicate_denominators():
    M = _discrete_structure(random.Random(0), ["a", "b", "c"], (5, 7, 11))
    assert M.den == 385
    for name, table in M.preds.items():
        for args, v in table.items():
            scaled = M.scaled_pred(name, args)
            assert type(scaled) is int and F(scaled, M.den) == v


def test_eval_formula_matches_the_reference_on_coprime_structures():
    rng = random.Random(1)
    seen = _Coverage()
    phis = _random_formulas(2, 300)
    checked = 0
    for points, denoms in ((["a", "b", "c"], (5, 7, 11)),
                           (["a", "b"], (3, 4, 7)),
                           (["a", "b", "c", "d"], (9, 5, 2))):
        M = _discrete_structure(rng, points, denoms)
        checked += _check(phis, M, seen)
    assert checked == 300 * 9
    assert min(seen.negative_sub, seen.nested_half, seen.inf, seen.func) > 0


def test_eval_formula_matches_the_reference_on_random_metrics():
    """Non-discrete metrics over 5 and 7 (constant functions)."""
    rng = random.Random(3)
    seen = _Coverage()
    phis = _random_formulas(4, 60)
    for denom in (5, 7):
        M = family.random_structure(SIG, rng, 3, denom=denom)
        _check(phis, M, seen)
    assert seen.negative_sub > 0 and seen.inf > 0


def test_shadowing_quantifier_restores_the_outer_value():
    M = make_structure(SIG_P, {"P": {"p": F(1, 3), "q": F(1)}})
    p_x = fm.Atomic("P", (fm.Var("x"),))
    phi = fm.TruncSub(fm.Sup("x", p_x), p_x)
    assert st.eval_formula(phi, M, {"x": "p"}) == F(2, 3)
    assert st.eval_formula(phi, M, {"x": "q"}) == F(0)


def test_eval_on_integral_matches_the_reference_on_materialize():
    rng = random.Random(5)
    space = di.FiniteProbabilitySpace(("w1", "w2"),
                                      {"w1": F(1, 3), "w2": F(2, 3)})
    field_ = di.MeasurableField(space, {
        "w1": _discrete_structure(rng, ["a", "b"], (5, 7, 3)),
        "w2": _discrete_structure(rng, ["c", "d", "e"], (7, 5, 3)),
    })
    M = di.materialize(field_)
    seen = _Coverage()
    checked = 0
    for phi in _random_formulas(6, 100):
        for e in field_.elements():
            got = di.eval_on_integral(phi, field_, {"x": e})
            name = tuple(e(w) for w in space.atoms)
            assert type(got) is Fraction
            assert got == _reference(phi, M, {"x": name}, seen), fm.to_text(phi)
            checked += 1
    assert checked == 100 * 6
    assert min(seen.negative_sub, seen.nested_half, seen.inf, seen.func) > 0


# ---------------------------------------------------------------------------
# Binders over domains of 2 to 6 points.  The "boundary" the sizes
# straddle is 3 points, the largest fiber of the acceptance suite.


def _points(count):
    return [f"p{i}" for i in range(count)]


def _atom(pred, *args):
    return fm.Atomic(pred, tuple(fm.Var(a) if isinstance(a, str) else a
                                 for a in args))


@pytest.mark.parametrize("size", [3, 4])
def test_random_formulas_on_three_and_four_points(size):
    rng = random.Random(11 + size)
    M = _discrete_structure(rng, _points(size), (3, 5, 7))
    seen = _Coverage()
    assert _check(_random_formulas(12, 200), M, seen) == 200 * size
    assert min(seen.negative_sub, seen.nested_half, seen.inf, seen.func) > 0


@pytest.mark.parametrize("size", [2, 3, 4, 5, 6])
def test_nested_binders_across_the_boundary(size):
    rng = random.Random(size)
    M = _discrete_structure(rng, _points(size), (5, 7, 3))
    seen = _Coverage()
    phis = [
        fm.Sup("x", fm.Inf("y", _atom("R", "x", "y"))),
        fm.Inf("x", fm.Sup("y", fm.TruncSub(_atom("R", "x", "y"),
                                            fm.Half(_atom("P", "y"))))),
        fm.Sup("y", fm.Half(fm.TruncSub(fm.Inf("z", _atom("R", "y", "z")),
                                        fm.Sup("z", _atom("Q", "z"))))),
    ]
    _check(phis, M, seen)


def test_a_nested_shadowing_binder_restores_the_outer_value():
    M = _discrete_structure(random.Random(4), _points(5), (5, 7, 3))
    seen = _Coverage()
    # sup x rebinds the free x; the loop of the outer sup y runs the inner
    # sup x, and P(x) after it reads the outer x again.
    inner = fm.Sup("x", _atom("R", "x", "y"))
    phis = [
        fm.TruncSub(fm.Sup("x", _atom("P", "x")), _atom("P", "x")),
        fm.Sup("y", fm.TruncSub(inner, _atom("Q", "x"))),
        fm.Sup("y", fm.TruncSub(_atom("P", "x"), fm.Inf("x", _atom("R", "y", "x")))),
    ]
    assert _check(phis, M, seen) == 3 * 5


def test_function_terms_under_a_binder():
    M = _discrete_structure(random.Random(6), _points(4), (7, 3, 5))
    seen = _Coverage()
    f_y = fm.Apply("f", (fm.Var("y"),))
    g_xy = fm.Apply("g", (fm.Var("x"), fm.Var("y")))
    phis = [
        fm.Sup("y", _atom("R", f_y, g_xy)),
        fm.Inf("y", _atom("P", fm.Apply("f", (f_y,)))),
        fm.Sup("y", fm.TruncSub(_atom("Q", g_xy), _atom("R", "y", f_y))),
    ]
    _check(phis, M, seen)
    assert seen.func > 0


@pytest.mark.parametrize("body", [
    _atom("R", "y", "z"),
    _atom("P", fm.Apply("f", (fm.Var("z"),))),
    fm.Sup("x", fm.TruncSub(_atom("P", "x"), _atom("Q", "z"))),
], ids=["variable", "function-term", "nested-binder"])
def test_an_unassigned_variable_under_a_binder_is_an_evaluation_error(body):
    M = _discrete_structure(random.Random(8), _points(4), (3, 5, 7))
    with pytest.raises(EvaluationError, match="variable 'z' has no assignment"):
        st.eval_formula(fm.Sup("y", body), M, {})


@pytest.mark.parametrize("sizes", [(2,), (3,), (4,), (2, 3)],
                         ids=["below", "at", "above", "two-atoms"])
def test_eval_on_integral_across_the_boundary(sizes):
    rng = random.Random(sum(sizes))
    atoms = tuple(f"w{i}" for i in range(len(sizes)))
    space = di.FiniteProbabilitySpace(
        atoms, dict(zip(atoms, (F(1, 3), F(2, 3)) if len(atoms) == 2 else (F(1),))))
    field_ = di.MeasurableField(space, {
        w: _discrete_structure(rng, [f"{w}p{i}" for i in range(n)], (5, 7, 3))
        for w, n in zip(atoms, sizes)})
    M = di.materialize(field_)
    seen = _Coverage()
    for phi in _random_formulas(13, 60):
        for e in field_.elements():
            got = di.eval_on_integral(phi, field_, {"x": e})
            name = tuple(e(w) for w in atoms)
            assert got == _reference(phi, M, {"x": name}, seen), fm.to_text(phi)
    assert seen.inf > 0 and seen.func > 0


# ---------------------------------------------------------------------------
# The min fold a -. (a' -. b): when a' is the object a, eval_formula takes
# min(a, b) and evaluates a once; an equal but distinct a' is subtracted as
# written.  Either way the value is the reference's, which subtracts twice.
# A fold repeats its accumulator, shared ("shared") or as an equal copy
# ("copied"), or the next item itself ("item"), as transform's xi do.
FOLDS = ("shared", "copied", "item")


def _copy(phi):
    """An equal formula that shares no node with phi."""
    t = type(phi)
    if t is fm.TruncSub:
        return fm.TruncSub(_copy(phi.left), _copy(phi.right))
    if t is fm.Half:
        return fm.Half(_copy(phi.body))
    if t is fm.Sup or t is fm.Inf:
        return t(phi.var, _copy(phi.body))
    return dataclasses.replace(phi)


def _min_fold(items, fold):
    """The items folded left to right, in the way fold names (FOLDS): by
    acc -. (acc' -. item), acc' the accumulator itself or an equal copy of
    it, or by item -. (item -. acc)."""
    acc = items[0]
    for item in items[1:]:
        if fold == "item":
            acc = fm.TruncSub(item, fm.TruncSub(item, acc))
            continue
        copy = acc if fold == "shared" else _copy(acc)
        assert copy == acc and (copy is acc) == (fold == "shared")
        acc = fm.TruncSub(acc, fm.TruncSub(copy, item))
    return acc


def _random_min_folds(seed, count, fold):
    """Folds of 2 to 4 random items over x, some of them under a sup or
    inf binding y, whose items may bind further variables."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        var = rng.choice((None, "y", "y"))
        scope = ["x"] if var is None else ["x", var]
        items = [random_formula(rng, rng.randint(0, 2), scope)
                 for _ in range(rng.randint(2, 4))]
        phi = _min_fold(items, fold)
        out.append(phi if var is None else rng.choice((fm.Sup, fm.Inf))(var, phi))
    return out


@pytest.fixture
def pred_reads(monkeypatch):
    """Counts a structure's predicate reads by predicate name."""
    original = st.FiniteMetricStructure.scaled_pred
    reads = collections.Counter()

    def counting(self, name, args):
        reads[name] += 1
        return original(self, name, args)

    monkeypatch.setattr(st.FiniteMetricStructure, "scaled_pred", counting)
    return reads


def test_a_shared_accumulator_is_evaluated_once(pred_reads):
    M = _discrete_structure(random.Random(9), _points(4), (3, 5, 7))
    env = {"x": "p0"}
    a = fm.Sup("y", _atom("R", "x", "y"))
    b, c = _atom("Q", "x"), fm.Const(F(2, 5))
    # a reads R at each of 4 points.  Folded with b, then c, a shared
    # accumulator is evaluated once; as copies a is evaluated 2, then 4
    # times.  Folded as transform folds, into the item a repeated after b
    # or after c and b, a is evaluated once.
    for items, fold, r_reads, q_reads in (
            ((a, b), "shared", 4, 1), ((a, b), "copied", 8, 1),
            ((a, b, c), "shared", 4, 1), ((a, b, c), "copied", 16, 2),
            ((b, a), "item", 4, 1), ((c, b, a), "item", 4, 1)):
        pred_reads.clear()
        got = st.eval_formula(_min_fold(items, fold), M, env)
        assert pred_reads == {"R": r_reads, "Q": q_reads}
        assert got == min(st.eval_formula(item, M, env) for item in items)


@pytest.mark.parametrize("fold", FOLDS)
def test_min_folds_on_structures_and_fibers(fold):
    rng = random.Random(21)
    seen = _Coverage()
    phis = _random_min_folds(22, 120, fold)
    for points, denoms in ((["a", "b", "c"], (5, 7, 11)), (["a", "b"], (3, 4, 7))):
        _check(phis, _discrete_structure(rng, points, denoms), seen)
    field_ = _sweep_field(rng, (2, 3, 1))
    for phi in phis:
        for e in itertools.islice(field_.elements(), 3):
            values = di.fiber_values(phi, field_, {"x": e})
            assert values == tuple(
                _reference(phi, field_.fibers[w], {"x": e(w)}, seen)
                for w in field_.space.atoms), fm.to_text(phi)
    assert min(seen.negative_sub, seen.inf, seen.func) > 0


@pytest.mark.parametrize("fold", FOLDS)
def test_min_folds_on_the_direct_integral(fold):
    """Under a binder over choice functions whose items bind more."""
    rng = random.Random(23)
    seen = _Coverage()
    nested = 0
    for sizes in ((2, 3), (1, 2, 2)):
        field_ = _sweep_field(rng, sizes)
        M = di.materialize(field_)
        for phi in _random_min_folds(24 + len(sizes), 60, fold):
            nested += sum(type(n) in (fm.Sup, fm.Inf) for n in fm.nodes(phi)) >= 2
            for e in field_.elements():
                got = di.eval_on_integral(phi, field_, {"x": e})
                name = tuple(e(w) for w in field_.space.atoms)
                assert got == _reference(phi, M, {"x": name}, seen), fm.to_text(phi)
    assert nested >= 20 and seen.inf > 0


# ---------------------------------------------------------------------------
# The sweep of a quantifier-free body over every choice function at once

SWEEP_SIG = fm.Signature(predicates=(("C", 0), ("P", 1), ("Q", 1), ("R", 2)),
                         functions=(("f", 1), ("g", 2)))

# Fields of 1 to 5 atoms whose fibers have 1 to 4 points.
SWEEP_FIBER_SIZES = ((1,), (4,), (2, 3), (4, 1, 3), (1, 2, 2, 3),
                     (2, 1, 1, 3, 2), (1, 1, 1, 1, 1))


def _sweep_fiber(rng, points):
    """Distance 1 between distinct points, so every table is 1-Lipschitz:
    C, P, Q and R over 3, 5, 7 and 3, f a permutation and g a coordinate
    projection."""
    dist = {(p, q): F(int(p != q)) for p in points for q in points}
    preds = {name: {args: F(rng.randrange(den + 1), den)
                    for args in itertools.product(points, repeat=arity)}
             for (name, arity), den in zip(SWEEP_SIG.predicates, (3, 5, 7, 3))}
    side = rng.randrange(2)
    funcs = {"f": dict(zip(((p,) for p in points), rng.sample(points, len(points)))),
             "g": {args: args[side] for args in itertools.product(points, repeat=2)}}
    return st.ensure_valid(
        st.FiniteMetricStructure(SWEEP_SIG, tuple(points), dist, preds, funcs))


def _sweep_field(rng, sizes):
    atoms = tuple(f"w{i}" for i in range(len(sizes)))
    weights = [rng.randrange(1, 6) for _ in atoms]
    space = di.FiniteProbabilitySpace(
        atoms, {w: F(n, sum(weights)) for w, n in zip(atoms, weights)})
    return di.MeasurableField(space, {
        w: _sweep_fiber(rng, [f"{w}p{i}" for i in range(n)])
        for w, n in zip(atoms, sizes)})


def _sweep_term(rng, depth):
    roll = rng.randrange(4) if depth > 0 else 0
    if roll == 0:
        return fm.Var(rng.choice("xyy"))
    if roll == 1:
        return fm.Apply("f", (_sweep_term(rng, depth - 1),))
    return fm.Apply("g", (_sweep_term(rng, depth - 1), _sweep_term(rng, depth - 1)))


def _sweep_body(rng, depth):
    """A quantifier-free formula over x and y: constants over 3, 5 and 7,
    the 0-ary C, and terms up to f(f(y)) and g(x, y)."""
    roll = rng.randrange(6) if depth > 0 else rng.randrange(3)
    if roll == 0:
        den = rng.choice((3, 5, 7))
        return fm.Const(F(rng.randrange(den + 1), den))
    if roll == 1:
        pred = rng.choice(("C", "P", "Q", "R", "R"))
        arity = SWEEP_SIG.pred_arity(pred)
        return fm.Atomic(pred, tuple(_sweep_term(rng, 2) for _ in range(arity)))
    if roll == 2:
        return fm.Atomic(rng.choice("PQ"), (fm.Var("y"),))
    if roll == 3:
        return fm.Half(_sweep_body(rng, depth - 1))
    return fm.TruncSub(_sweep_body(rng, depth - 1), _sweep_body(rng, depth - 1))


def _sweep_bodies(seed, count):
    rng = random.Random(seed)
    fixed = [  # f(f(y)), g(x, y), the 0-ary C, R(y, y), below zero
        _atom("P", fm.Apply("f", (fm.Apply("f", (fm.Var("y"),)),))),
        _atom("R", "x", fm.Apply("g", (fm.Var("x"), fm.Var("y")))),
        fm.TruncSub(fm.Atomic("C"), _atom("R", "y", "y")),
        fm.TruncSub(fm.Const(F(1, 7)), fm.Half(_atom("Q", "y"))),
    ]
    return fixed + [_sweep_body(rng, rng.randint(1, 4)) for _ in range(count)]


@pytest.fixture
def sweeps(monkeypatch):
    """The body each _Integral.sweep call was given, in call order."""
    original = di._Integral.sweep
    bodies = []

    def counting(self, phi, *args):
        bodies.append(phi)
        return original(self, phi, *args)

    monkeypatch.setattr(di._Integral, "sweep", counting)
    return bodies


@pytest.fixture
def built_elements(monkeypatch):
    """Every IntegralElement built from here on."""
    built = []
    init = di.IntegralElement.__post_init__

    def counting(self):
        built.append(self)
        init(self)

    monkeypatch.setattr(di.IntegralElement, "__post_init__", counting)
    return built


def test_sweep_gives_the_value_at_every_choice_function_in_points_order():
    """Against eval_formula on materialize, point by point: y, and the
    shadowing x, run over the choice functions while the other is
    assigned."""
    rng = random.Random(21)
    bodies = _sweep_bodies(22, 40)
    checked = 0
    for sizes in SWEEP_FIBER_SIZES:
        field_ = _sweep_field(rng, sizes)
        M, integral = di.materialize(field_), field_.integral
        assert list(integral.points) == list(M.points)
        for phi in bodies:
            unit = st._unit(phi)
            scale = integral.den * unit
            for var in ("y", "x"):
                env = {"x": rng.choice(M.points), "y": rng.choice(M.points)}
                values = list(integral.sweep(phi, var, env, unit, scale))
                assert all(type(v) is int for v in values)
                expected = [st.eval_formula(phi, M, {**env, var: p})
                            for p in M.points]
                if len(values) == 1:  # phi does not read var
                    values *= len(M.points)
                assert [F(v, scale) for v in values] == expected, fm.to_text(phi)
                checked += 1
    assert checked == len(SWEEP_FIBER_SIZES) * 44 * 2


def test_binders_over_swept_bodies_match_materialize(sweeps, built_elements):
    """sup and inf over a body and over a sup, each binder shadowing an
    assigned variable: the oracle against eval_formula on materialize,
    building no IntegralElement while it evaluates."""
    rng = random.Random(23)
    bodies = _sweep_bodies(24, 12)
    for sizes in SWEEP_FIBER_SIZES:
        field_ = _sweep_field(rng, sizes)
        M = di.materialize(field_)
        n = len(M.points)
        elements = list(field_.elements())
        built_elements.clear()
        for phi in bodies:
            assignment = {v: rng.choice(elements) for v in ("x", "y")}
            names = {v: tuple(e(w) for w in field_.space.atoms)
                     for v, e in assignment.items()}
            for outer in (fm.Sup, fm.Inf):
                swept = len(sweeps)
                formulas = [outer("y", phi), outer("x", phi),
                            outer("x", fm.Sup("y", phi))]
                for psi in formulas:
                    got = di.eval_on_integral(psi, field_, assignment)
                    assert got == st.eval_formula(psi, M, names), \
                        fm.to_text(psi)
                # One sweep per plain binder, one per point of the outer
                # binder of a nested one.
                assert sweeps[swept:] == [phi] * (2 + n)
        assert built_elements == []


@pytest.mark.parametrize("body", [
    _atom("R", "y", "z"),
    _atom("P", fm.Apply("f", (fm.Var("z"),))),
], ids=["variable", "function-term"])
def test_an_unassigned_variable_under_a_swept_binder_is_an_evaluation_error(
        body, sweeps):
    field_ = _sweep_field(random.Random(8), (2, 4))
    with pytest.raises(EvaluationError, match="variable 'z' has no assignment"):
        di.eval_on_integral(fm.Sup("y", body), field_, {})
    assert sweeps == [body]


# ---------------------------------------------------------------------------
# The column index: built once per field, read by every inner sweep


def test_the_oracle_at_every_argument_shape_matches_materialize():
    """The swept y at position 0 and 1 of R, R(y, y), function terms over
    y and the 0-ary C, each under sup and inf at one and two binder
    levels, interleaved on one field in a shuffled order and its reverse:
    a column index holds nothing that depends on a formula."""
    rng = random.Random(31)
    field_ = _sweep_field(rng, (2, 3, 1, 2))
    M = di.materialize(field_)
    x, y = fm.Var("x"), fm.Var("y")
    bodies = [_atom("R", "y", "x"), _atom("R", "x", "y"), _atom("R", "y", "y"),
              _atom("R", fm.Apply("f", (y,)), "x"),
              _atom("R", fm.Apply("g", (x, y)), "y"), fm.Atomic("C")]
    binders = (fm.Sup, fm.Inf)
    formulas = [q("y", body) for body in bodies for q in binders]
    formulas += [q("x", r("y", body)) for body in bodies
                 for q in binders for r in binders]
    rng.shuffle(formulas)
    elements = dict(zip(M.points, field_.elements()))
    checked = 0
    for order in (formulas, formulas[::-1]):
        for phi in order:
            name = rng.choice(M.points)
            got = di.eval_on_integral(phi, field_, {"x": elements[name]})
            assert got == st.eval_formula(phi, M, {"x": name}), fm.to_text(phi)
            checked += 1
    assert checked == 2 * 6 * (2 + 4)
    # R at either position, f under R, g at y's position; R(y, y) and a
    # function term over y read no index of R.
    assert set(field_.integral.columns) == {("R", 0), ("R", 1), ("f", 0), ("g", 1)}


def test_a_ternary_predicate_reads_its_index_at_every_position():
    """Keyed by the tuple of the two other points: y at each position of
    T, beside x twice or x and f(x), under one binder and two."""
    sig = fm.Signature(predicates=(("T", 3),), functions=(("f", 1),))
    rng = random.Random(33)
    space = di.FiniteProbabilitySpace(("w0", "w1"), {"w0": F(2, 5), "w1": F(3, 5)})
    fibers = {}
    for w, n in (("w0", 2), ("w1", 3)):
        points = tuple(f"{w}p{i}" for i in range(n))
        fibers[w] = st.ensure_valid(st.FiniteMetricStructure(
            sig, points, {(p, q): F(int(p != q)) for p in points for q in points},
            {"T": {args: F(rng.randrange(8), 7)
                   for args in itertools.product(points, repeat=3)}},
            {"f": dict(zip(((p,) for p in points), points[1:] + points[:1]))}))
    field_ = di.MeasurableField(space, fibers)
    M = di.materialize(field_)
    elements = dict(zip(M.points, field_.elements()))
    fx = fm.Apply("f", (fm.Var("x"),))
    bodies = [_atom("T", "y", "x", "x"), _atom("T", "x", "y", fx),
              _atom("T", fx, "x", "y")]
    for body in bodies:
        for phi in (fm.Sup("y", body), fm.Inf("y", body),
                    fm.Sup("x", fm.Inf("y", body))):
            for name in M.points:
                got = di.eval_on_integral(phi, field_, {"x": elements[name]})
                assert got == st.eval_formula(phi, M, {"x": name}), fm.to_text(phi)
    assert set(field_.integral.columns) == {("T", 0), ("T", 1), ("T", 2)}


def test_nested_binders_read_every_column_from_one_index(monkeypatch):
    """sup and inf over sup on five 3-point fibers (243 choice functions),
    each twice: one index build per (symbol, position) and field, and the
    inner sweeps build no column of their own."""
    field_ = family.random_field(family.default_signature(), random.Random(37), 5, 3)
    assert field_.element_count() == 243
    index, lookup = di._Integral._index, di._Integral._lookup
    builds, swept = [], []

    def counting_index(self, tables, pos, arity):
        builds.append((tables, pos))
        return index(self, tables, pos, arity)

    def recording_lookup(self, *args):
        reads, entries = lookup(self, *args)
        if reads:
            swept.append(entries)
        return reads, entries

    monkeypatch.setattr(di._Integral, "_index", counting_index)
    monkeypatch.setattr(di._Integral, "_lookup", recording_lookup)
    for text, value in [("sup x . sup y . R(x,y)", F(9, 16)),
                        ("inf x . sup y . R(y,x)", F(9, 32))] * 2:
        phi = fm.parse_formula(text, field_.signature)
        assert di.eval_on_integral(phi, field_) == value
    r_tables = field_.weighted_preds[1]["R"]
    assert [pos for _, pos in builds] == [1, 0]
    assert all(tables is r_tables for tables, _ in builds)
    assert len(swept) == 4 * 243
    stored = {id(column) for atoms in field_.integral.columns.values()
              for by_others in atoms for column in by_others.values()}
    assert all(id(column) in stored for entries in swept for column in entries)


# ---------------------------------------------------------------------------
# The complement identity against its l+1 thresholds


def _complement_reference(values, neg_values, level):
    """{zeta > i/l} = complement of {1 - zeta >= 1 - i/l} for each i in
    0..l, as sets of atom positions."""
    atoms = range(len(values))
    for i in range(level + 1):
        t = F(i, level)
        strict = {w for w in atoms if values[w] > t}
        outside = {w for w in atoms if not neg_values[w] >= 1 - t}
        if strict != outside:
            return False
    return True


def _planted_values(level):
    """Every grid point i/l (0 and 1 among them) and two off-grid values."""
    return [F(i, level) for i in range(level + 1)] + [F(1, 2 * level + 1),
                                                      F(level, level + 1)]


def test_complement_identity_on_every_formula_of_the_suite():
    checked = 0
    for inst in family.determination_instances(0, 204):
        result = tr.transform(inst.formula, inst.k, tr.DEFAULT_BUDGET_C,
                              family.FAMILY_BUDGET_VARS)
        for zeta in result.formulas:
            level = result.levels[zeta]
            values = di.fiber_values(zeta, inst.field, inst.assignment)
            neg = di.fiber_values(tr.one_minus(zeta), inst.field,
                                  inst.assignment)
            assert _complement_reference(values, neg, level)
            assert tr.complement_identity_holds(zeta, level, inst.field,
                                                inst.assignment)
            checked += 1
    assert checked > 5000


def test_complement_identity_on_planted_tables():
    for level in range(1, 9):
        values = _planted_values(level)
        neg = [1 - v for v in values]
        assert _complement_reference(values, neg, level)
        assert tr._complement_tables_agree(values, neg, level)
        # One atom of 1 -. zeta moved by one grid step, inside [0, 1].
        step = F(1, level)
        for w, n in enumerate(neg):
            moved = list(neg)
            moved[w] = n - step if n - step >= 0 else n + step
            assert not _complement_reference(values, moved, level)
            assert not tr._complement_tables_agree(values, moved, level)


def test_complement_tables_agree_with_the_reference_on_random_tables():
    rng = random.Random(7)
    outcomes = set()
    for _ in range(2000):
        level = rng.randint(1, 12)
        den = rng.choice((level, 2 * level, 3, 5, 7))
        values = [F(rng.randrange(den + 1), den) for _ in range(3)]
        neg = [1 - v + F(rng.randint(-1, 1), rng.choice((level, 2 * level)))
               for v in values]
        neg = [min(F(1), max(F(0), n)) for n in neg]
        expected = _complement_reference(values, neg, level)
        assert tr._complement_tables_agree(values, neg, level) == expected
        outcomes.add(expected)
    assert outcomes == {True, False}


def test_moved_atom_of_the_complement_table_fails(monkeypatch):
    M = make_structure(SIG_P, {"P": {"p": F(1, 2), "q": F(1)}})
    field_ = di.MeasurableField(
        di.FiniteProbabilitySpace(("w1",), {"w1": F(1)}), {"w1": M})
    zeta = fm.Sup("y", fm.Atomic("P", (fm.Var("y"),)))  # 1 at the atom
    level = 4
    assert tr.complement_identity_holds(zeta, level, field_)
    original = di.fiber_values

    def moved(phi, field_, assignment=None):
        values = original(phi, field_, assignment)
        if phi == tr.one_minus(zeta):
            return (values[0] + F(1, level),) + values[1:]
        return values

    monkeypatch.setattr(di, "fiber_values", moved)
    assert not tr.complement_identity_holds(zeta, level, field_)


# ---------------------------------------------------------------------------
# No floats here either


def test_no_float_in_this_module():
    """The guard of test_integer_core, on this file; it names the float
    type only as a string, so it does not trip on itself."""
    tree = ast.parse(pathlib.Path(__file__).read_text(encoding="utf-8"))
    offences = [node.lineno for node in ast.walk(tree)
                if (isinstance(node, ast.Constant)
                    and type(node.value).__name__ == "float")
                or (isinstance(node, ast.Name) and node.id == "float")]
    assert offences == []
