"""Measure-algebra formulas: evaluation, constrained suprema, monotonicity,
and the definability formulas with their distance oracles."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from dilogic import family, mba
from dilogic import formula as fm
from dilogic.errors import (BudgetError, ChainError, EvaluationError, InputError,
                            SignatureError, ValidationError)

F = Fraction

UNIFORM2 = mba.FiniteMeasureAlgebra(("w1", "w2"), {"w1": F(1, 2), "w2": F(1, 2)})
UNIFORM3 = mba.FiniteMeasureAlgebra(
    ("w1", "w2", "w3"), {"w1": F(1, 3), "w2": F(1, 3), "w3": F(1, 3)}
)


def s(*atoms):
    return frozenset(atoms)


# ---------------------------------------------------------------------------
# Algebra basics


def test_algebra_validation():
    with pytest.raises(ValidationError):
        mba.FiniteMeasureAlgebra(("a",), {"a": F(1, 2)})
    with pytest.raises(ValidationError):
        mba.FiniteMeasureAlgebra(("a", "b"), {"a": F(1), "b": F(0)})
    with pytest.raises(ValidationError):
        mba.FiniteMeasureAlgebra(("a", "a"), {"a": F(1)})


@pytest.mark.parametrize("weights", [
    {"a": True}, {"a": 1.0}, {"a": 0.5, "b": 0.5}, {"a": "1"},
], ids=["bool", "float", "float-halves", "str"])
def test_algebra_refuses_inexact_weights(weights):
    # Weights are ints or Fractions, as distances and predicate values are;
    # a bool is refused although it is an int.
    with pytest.raises(ValidationError, match="not an int or a Fraction"):
        mba.FiniteMeasureAlgebra(tuple(weights), weights)


@pytest.mark.parametrize("call, error, match", [
    (lambda: mba.FiniteMeasureAlgebra(("a",), {"b": 1}), ValidationError,
     "cover exactly the atom list"),
    (lambda: UNIFORM2.d_tuple([s("w1")], []), ChainError, "length mismatch"),
    (lambda: mba.Scale(F(-1, 2), mba.Const(1)), ValidationError, "non-negative"),
    (lambda: mba.eval_mba(mba.Const(0), {}, UNIFORM2, "fastest"), EvaluationError,
     "unknown mode"),
    (lambda: mba.psi_multichain({}), ChainError, "empty chain family"),
    (lambda: fm.Const(F(3, 2)), SignatureError, "outside"),
    (lambda: family.random_space(random.Random(0), family.DENOM + 1), InputError,
     "cannot split"),
], ids=["weights-not-the-atoms", "d-tuple-lengths", "negative-scale",
        "unknown-mode", "empty-chain-family", "const-above-one", "too-many-parts"])
def test_refusals_of_the_library(call, error, match):
    with pytest.raises(error, match=match):
        call()


X0 = mba.SetVarIndex("X", 0)


@pytest.mark.parametrize("call", [
    lambda: UNIFORM2.measure(s("zz")),
    lambda: UNIFORM2.d(s("zz"), s("w1")),
    lambda: UNIFORM2.subsets(s("zz")),
    lambda: mba.eval_mba(mba.Measure(X0), {X0: s("zz")}, UNIFORM2),
    lambda: mba.eval_set(X0, {X0: s("zz")}, UNIFORM2),
    lambda: mba.eval_mba(mba.Measure(mba.SetLit(s("zz"))), {}, UNIFORM2),
    lambda: mba.dist_to_chain_set([s("zz")], [s("w1")], UNIFORM2),
], ids=["measure", "d", "subsets", "eval-mba-assign", "eval-set-assign",
        "eval-mba-setlit", "dist-to-chain-set"])
def test_an_atom_outside_the_algebra_is_a_validation_error(call):
    with pytest.raises(ValidationError, match="atom 'zz' is not in the algebra"):
        call()


def test_algebra_accepts_int_and_fraction_weights():
    assert mba.FiniteMeasureAlgebra(("a",), {"a": 1}).weights == {"a": F(1)}
    alg = mba.FiniteMeasureAlgebra(("a", "b"), {"a": F(1, 3), "b": F(2, 3)})
    assert alg.measure({"b"}) == F(2, 3)


NODE_MAKERS = {
    "const": lambda value: mba.Const(value),
    "scale": lambda value: mba.Scale(value, mba.Const(1)),
    "set-var": lambda value: mba.SetVarIndex("X", value),
}


@pytest.mark.parametrize("make", NODE_MAKERS.values(), ids=NODE_MAKERS)
@pytest.mark.parametrize("value", [0.1, True, "1/2"], ids=["float", "bool", "str"])
def test_node_values_refuse_inexact_types(make, value):
    with pytest.raises(ValidationError, match="not an int or a Fraction"):
        make(value)


@pytest.mark.parametrize("make, field", zip(NODE_MAKERS.values(),
                                            ("value", "factor", "level")),
                         ids=NODE_MAKERS)
def test_node_values_take_ints_and_keep_fractions(make, field):
    assert getattr(make(1), field) == F(1)
    assert type(getattr(make(1), field)) is Fraction
    half = F(1, 2)
    assert getattr(make(half), field) is half


def test_measure_additivity_exhaustive():
    alg = UNIFORM3
    for a in alg.subsets():
        for b in alg.subsets():
            assert alg.measure(a | b) + alg.measure(a & b) == alg.measure(
                a
            ) + alg.measure(b)


def test_symmetric_difference_metric_axioms():
    alg = UNIFORM3
    subsets = list(alg.subsets())
    for a in subsets:
        assert alg.d(a, a) == 0
        for b in subsets:
            assert alg.d(a, b) == alg.d(b, a)
            assert (alg.d(a, b) == 0) == (a == b)
            for c in subsets:
                assert alg.d(a, c) <= alg.d(a, b) + alg.d(b, c)


@given(hs.integers(0, 7), hs.integers(0, 7))
@settings(max_examples=64, deadline=None)
def test_weighted_measure_additivity(m1, m2):
    alg = mba.FiniteMeasureAlgebra(
        ("a", "b", "c"), {"a": F(1, 2), "b": F(1, 3), "c": F(1, 6)}
    )
    atoms = alg.atoms
    a = frozenset(x for i, x in enumerate(atoms) if m1 >> i & 1)
    b = frozenset(x for i, x in enumerate(atoms) if m2 >> i & 1)
    assert alg.measure(a | b) + alg.measure(a & b) == alg.measure(a) + alg.measure(b)


# ---------------------------------------------------------------------------
# Set terms and plain formulas


def test_eval_set_operations():
    alg = UNIFORM3
    x = mba.SetVarIndex("X", 0)
    y = mba.SetVarIndex("Y", 0)
    assign = {x: s("w1", "w2"), y: s("w2", "w3")}
    assert mba.eval_set(mba.Union(x, y), assign, alg) == s("w1", "w2", "w3")
    assert mba.eval_set(mba.Inter((x, y)), assign, alg) == s("w2")
    assert mba.eval_set(mba.Diff(x, y), assign, alg) == s("w1")
    assert mba.eval_set(mba.SymDiff(x, y), assign, alg) == s("w1", "w3")
    assert mba.eval_set(mba.Compl(x), assign, alg) == s("w3")
    assert mba.eval_set(mba.Compl(mba.Compl(x)), assign, alg) == s("w1", "w2")
    assert mba.eval_set(mba.Empty(), assign, alg) == s()
    assert mba.eval_set(mba.Full(), assign, alg) == alg.full


def test_vars_by_tag_groups_and_orders_each_tag():
    a_half, a_half_ge = mba.SetVarIndex("A", F(1, 2)), mba.SetVarIndex("A", F(1, 2), False)
    a_zero, b_one = mba.SetVarIndex("A", 0), mba.SetVarIndex("B", F(1, 3), False)
    g = mba.Add((mba.Measure(mba.Union(a_half, b_one)),
                 mba.Max((mba.Measure(a_half_ge), mba.Measure(mba.Compl(a_zero)),
                          mba.Measure(a_half)))))
    # By threshold, and >= before > at an equal threshold.
    assert mba.vars_by_tag(g) == {"A": [a_zero, a_half_ge, a_half], "B": [b_one]}
    assert mba.vars_by_tag(mba.Const(1)) == {}


def test_eval_measure_of_variable():
    v = mba.SetVarIndex("X", 0)
    g = mba.Measure(v)
    assert mba.eval_mba(g, {v: s("w1")}, UNIFORM2) == F(1, 2)


def test_eval_truncation():
    g = mba.TruncSub(mba.Const(F(1, 4)), mba.Const(F(1, 2)))
    assert mba.eval_mba(g, {}, UNIFORM2) == 0


def test_eval_unbound_variable():
    g = mba.Measure(mba.SetVarIndex("X", 0))
    with pytest.raises(EvaluationError):
        mba.eval_mba(g, {}, UNIFORM2)


def test_eval_scale_add_max_min():
    g = mba.Scale(
        F(1, 2),
        mba.Add((
            mba.Max((mba.Const(F(1, 4)), mba.Const(F(1, 2)))),
            mba.Min((mba.Const(F(1, 4)), mba.Const(F(1, 2)))),
        )),
    )
    assert mba.eval_mba(g, {}, UNIFORM2) == F(3, 8)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5])
def test_nary_add_and_inter_fold_every_item(n):
    # Item i is the set {w1, w2, w3} minus w_i (for i < 3) and measures
    # 2/3, so the Add is 2n/3 and the Inter drops the first min(n, 3) atoms.
    xs = [mba.SetVarIndex("X", i) for i in range(n)]
    atoms = ("w1", "w2", "w3")
    assign = {x: s(*(a for a in atoms if a != atoms[i % 3])) for i, x in enumerate(xs)}
    add = mba.Add(tuple(mba.Measure(x) for x in xs))
    assert mba.eval_mba(add, assign, UNIFORM3) == F(2 * n, 3)
    inter = mba.Inter(tuple(xs))
    assert mba.eval_set(inter, assign, UNIFORM3) == s(*atoms[min(n, 3):])
    assert mba.eval_mba(mba.Measure(inter), assign, UNIFORM3) == F(3 - min(n, 3), 3)


# ---------------------------------------------------------------------------
# SupChain evaluation


def test_supchain_single_slot_both_modes():
    u = mba.SetVarIndex("U", 0)
    g = mba.SupChain(
        binder=0,
        chains=(mba.ChainSpec("T", (u,)),),
        inner=mba.Measure(mba.ChainVar(0, "T", 0)),
    )
    assign = {u: s("w1")}
    assert mba.eval_mba(g, assign, UNIFORM2, mba.ENUMERATE) == F(1, 2)
    assert mba.eval_mba(g, assign, UNIFORM2, mba.MAXIMAL) == F(1, 2)


def test_supchain_nesting_constraint():
    # Y_1 must sit inside Y_0, so mu(Y_1) cannot beat mu(U_0 & U_1).
    u0 = mba.SetVarIndex("U", 0)
    u1 = mba.SetVarIndex("U", F(1, 2))
    g = mba.SupChain(
        binder=0,
        chains=(mba.ChainSpec("T", (u0, u1)),),
        inner=mba.Measure(mba.ChainVar(0, "T", 1)),
    )
    assign = {u0: s("w1", "w2"), u1: s("w1")}
    assert mba.eval_mba(g, assign, UNIFORM2, mba.ENUMERATE) == F(1, 2)
    assert mba.eval_mba(g, assign, UNIFORM2, mba.MAXIMAL) == F(1, 2)


def test_supchain_maximal_requires_decreasing_bounds():
    u0 = mba.SetVarIndex("U", 0)
    u1 = mba.SetVarIndex("U", F(1, 2))
    g = mba.SupChain(
        binder=0,
        chains=(mba.ChainSpec("T", (u0, u1)),),
        inner=mba.Measure(mba.ChainVar(0, "T", 1)),
    )
    assign = {u0: s("w1"), u1: s("w2")}
    with pytest.raises(ChainError):
        mba.eval_mba(g, assign, UNIFORM2, mba.MAXIMAL)
    # Enumeration still works: the nesting forces Y_1 = {}.
    assert mba.eval_mba(g, assign, UNIFORM2, mba.ENUMERATE) == 0


def test_enumerate_refuses_an_oversized_supchain():
    # 6 depths per atom over 20 atoms: 6**20 feasible tuples, refused
    # from the closed-form count before any is visited.
    atoms = tuple(f"w{i}" for i in range(20))
    alg = mba.FiniteMeasureAlgebra(atoms, {a: F(1, 20) for a in atoms})
    g = mba.SupChain(
        binder=0,
        chains=(mba.ChainSpec("T", (mba.Full(),) * 5),),
        inner=mba.Measure(mba.ChainVar(0, "T", 4)),
    )
    with pytest.raises(BudgetError, match=str(6**20)):
        mba.eval_mba(g, {}, alg, mba.ENUMERATE)
    assert mba.eval_mba(g, {}, alg, mba.MAXIMAL) == 1


def test_maximal_refuses_an_oversized_atom_product():
    # Two length-1 chains whose slots the profile keeps disjoint: each atom
    # has the 2 maximal depth vectors (1, 0) and (0, 1), so 21 atoms give
    # 2**21 combinations, refused before any is evaluated.
    atoms = tuple(f"w{i}" for i in range(21))
    alg = mba.FiniteMeasureAlgebra(atoms, {a: F(1, 21) for a in atoms})
    g = mba.SupChain(
        binder=0,
        chains=(mba.ChainSpec("A", (mba.Full(),)),
                mba.ChainSpec("B", (mba.Full(),))),
        inner=mba.Measure(mba.ChainVar(0, "A", 0)),
        profiles=(mba.ProfileSpec((("A", 0), ("B", 0)), mba.Empty()),),
    )
    with pytest.raises(BudgetError, match=f"^maximal-mode depth vector "
                                          f"combination count {2**21} exceeds"):
        mba.eval_mba(g, {}, alg, mba.MAXIMAL)


def test_maximal_depth_vector_search_refuses_oversized_caps():
    # Caps (1000, 1000, 1) give 1001 * 1001 * 2 vectors to visit, refused
    # in both modes before any is built, under the name of the mode.
    for maximal, mode in ((True, mba.MAXIMAL), (False, mba.ENUMERATE)):
        with pytest.raises(BudgetError, match=f"^{mode}-mode depth vector search "
                                              f"count {1001 * 1001 * 2} exceeds"):
            mba._depth_vectors([1000, 1000, 1], [((0, 0), (1, 0))], maximal)
    assert mba._depth_vectors([2, 1], [((0, 0), (1, 0))], True) == [(0, 1), (2, 0)]


def test_depth_vectors_of_one_atom_match_their_definition():
    """Both SupChain modes read an atom's depth vectors from one
    enumeration: maximal mode keeps the vectors no one-coordinate step up
    keeps feasible, enumerate mode every feasible vector.  Against the
    definition (v under caps, no pattern with v[i] > j in all its pairs),
    on seeded random keys and on literal edge keys: maximal mode gives the
    feasible set's maximal elements and enumerate mode the feasible set
    itself, ascending."""
    rng = random.Random(19)
    shapes = Counter()

    def check(caps, forbidden):
        feasible = [v for v in itertools.product(*(range(c + 1) for c in caps))
                    if not any(all(v[i] > j for i, j in pattern) for pattern in forbidden)]
        maximal = [v for v in feasible
                   if not any(w != v and all(map(int.__ge__, w, v)) for w in feasible)]
        assert mba._depth_vectors(caps, forbidden, True) == maximal, (caps, forbidden)
        assert mba._depth_vectors(caps, forbidden, False) == feasible, (caps, forbidden)
        return feasible, maximal

    for _ in range(3000):
        n = rng.randrange(5)
        caps = tuple(rng.randrange(4) for _ in range(n))
        forbidden = tuple(
            tuple((rng.randrange(n), rng.randrange(4))
                  for _ in range(rng.randrange(1, 4) if n else 0))
            for _ in range(rng.randrange(5)))
        feasible, maximal = check(caps, forbidden)
        shapes["empty" if not feasible else "several maximal" if len(maximal) > 1
               else "pruned" if maximal != [caps] else "unpruned"] += 1
    assert min(shapes.values()) >= 50 and len(shapes) == 4, shapes
    # No coordinates: the one empty vector, forbidden only by an empty pattern.
    assert check((), ()) == ([()], [()])
    assert check((), ((),)) == ([], [])
    # An empty pattern forbids every vector.
    assert check((2, 1), ((),)) == ([], [])
    # A pattern naming one coordinate twice needs both pairs exceeded.
    assert check((3, 2), (((0, 2), (0, 0)),))[1] == [(2, 2)]
    # A pattern the caps cannot violate (caps[1] <= 2) forbids nothing.
    assert check((1, 2), (((0, 0), (1, 2)),))[1] == [(1, 2)]


def test_supchain_profile_constraint():
    # Two independent slots, but the profile forbids them from jointly
    # containing any atom; the sum of measures then caps at 1.
    a0 = mba.SetVarIndex("A", 0)
    b0 = mba.SetVarIndex("B", 0)
    inner = mba.Add((
        mba.Measure(mba.ChainVar(0, "A", 0)), mba.Measure(mba.ChainVar(0, "B", 0))
    ))
    profile = mba.ProfileSpec((("A", 0), ("B", 0)), mba.Empty())
    g = mba.SupChain(
        binder=0,
        chains=(
            mba.ChainSpec("A", (a0,)),
            mba.ChainSpec("B", (b0,)),
        ),
        inner=inner,
        profiles=(profile,),
    )
    unconstrained = mba.SupChain(g.binder, g.chains, g.inner)
    assign = {a0: alg_full(UNIFORM2), b0: alg_full(UNIFORM2)}
    assert mba.eval_mba(unconstrained, assign, UNIFORM2, mba.ENUMERATE) == 2
    for mode in (mba.ENUMERATE, mba.MAXIMAL):
        assert mba.eval_mba(g, assign, UNIFORM2, mode) == 1


def alg_full(alg):
    return alg.full


def test_supchain_profile_modes_agree_exhaustively():
    # Increasing inner + decreasing chains: staircase substitution must
    # match exhaustive enumeration for every assignment of the bounds.
    a0 = mba.SetVarIndex("A", 0)
    b0 = mba.SetVarIndex("B", 0)
    w = mba.SetVarIndex("W", 0)
    inner = mba.Add((
        mba.Measure(mba.ChainVar(0, "A", 0)),
        mba.Scale(F(1, 2), mba.Measure(mba.ChainVar(0, "B", 0))),
    ))
    g = mba.SupChain(
        binder=0,
        chains=(
            mba.ChainSpec("A", (a0,)),
            mba.ChainSpec("B", (b0,)),
        ),
        inner=inner,
        profiles=(mba.ProfileSpec((("A", 0), ("B", 0)), w),),
    )
    subsets = list(UNIFORM2.subsets())
    for va, vb, vw in itertools.product(subsets, repeat=3):
        assign = {a0: va, b0: vb, w: vw}
        assert mba.eval_mba(g, assign, UNIFORM2, mba.ENUMERATE) == mba.eval_mba(
            g, assign, UNIFORM2, mba.MAXIMAL
        )


def test_supchain_profile_validation():
    g = mba.SupChain(
        binder=0,
        chains=(mba.ChainSpec("A", (mba.Full(),)),),
        inner=mba.Measure(mba.ChainVar(0, "A", 0)),
        profiles=(mba.ProfileSpec((("missing", 0),), mba.Empty()),),
    )
    with pytest.raises(EvaluationError):
        mba.eval_mba(g, {}, UNIFORM2, mba.ENUMERATE)


def test_free_set_vars_sees_profile_bounds():
    w = mba.SetVarIndex("W", 0)
    g = mba.SupChain(
        binder=0,
        chains=(mba.ChainSpec("A", (mba.Full(),)),),
        inner=mba.Measure(mba.ChainVar(0, "A", 0)),
        profiles=(mba.ProfileSpec((("A", 0),), w),),
    )
    assert mba.free_set_vars(g) == {w}
    assert mba.substitute_set_vars(g, {}) is g
    substituted = mba.substitute_set_vars(g, {w: mba.Empty()})
    assert mba.free_set_vars(substituted) == set()


# ---------------------------------------------------------------------------
# Monotonicity checking


def test_monotone_measure_passes():
    v = mba.SetVarIndex("X", 0)
    g = mba.Measure(v)
    assert mba.check_monotone(g, UNIFORM3) is None


def test_monotone_complement_fails():
    v = mba.SetVarIndex("X", 0)
    g = mba.Measure(mba.Compl(v))
    ce = mba.check_monotone(g, UNIFORM3)
    assert ce is not None
    assert ce.low_value > ce.high_value


def test_monotone_random_mode_finds_complement():
    v = mba.SetVarIndex("X", 0)
    g = mba.Measure(mba.Compl(v))
    ce = mba.check_monotone(g, UNIFORM3, trials=50, exhaustive_limit=0)
    assert ce is not None


# ---------------------------------------------------------------------------
# Chain-set definability formulas


def test_phi_chain_worked_example():
    alg = UNIFORM3
    bounds = [s("w1", "w2", "w3"), s("w1")]
    xs = [s("w2", "w3"), s("w2")]
    phi = mba.phi_chain(bounds)
    assign = {mba.chain_var("X", m, 2): x for m, x in enumerate(xs)}
    assert mba.eval_mba(phi, assign, alg) == F(1, 3)
    dist, witness = mba.dist_to_chain_set(xs, bounds, alg)
    assert dist == F(1, 3)
    # First nearest witness in enumeration order.
    assert witness == (s("w2"), s())
    assert alg.d_tuple(xs, witness) == dist


def test_phi_chain_zero_on_members():
    alg = UNIFORM3
    bounds = [s("w1", "w2"), s("w1")]
    xs = list(bounds)  # the chain itself is a member of its chain set
    phi = mba.phi_chain(bounds)
    assign = {mba.chain_var("X", m, 2): x for m, x in enumerate(xs)}
    assert mba.eval_mba(phi, assign, alg) == 0
    dist, _ = mba.dist_to_chain_set(xs, bounds, alg)
    assert dist == 0


def test_phi_chain_full_bound_unconstrained():
    alg = UNIFORM3
    bounds = [alg.full]
    phi = mba.phi_chain(bounds)
    for x in alg.subsets():
        assign = {mba.chain_var("X", 0, 1): x}
        assert mba.eval_mba(phi, assign, alg) == 0
        dist, _ = mba.dist_to_chain_set([x], bounds, alg)
        assert dist == 0


def test_phi_chain_requires_decreasing():
    with pytest.raises(ChainError):
        mba.phi_chain([s("w1"), s("w2")])
    with pytest.raises(ChainError):
        mba.phi_chain([])


def test_dist_length_mismatch():
    with pytest.raises(ChainError):
        mba.dist_to_chain_set([s("w1")], [s("w1"), s("w1")], UNIFORM3)


def test_psi_multichain_two_tags():
    alg = UNIFORM3
    chains = {"A": [s("w1", "w2")], "B": [s("w3")]}
    psi = mba.psi_multichain(chains)
    assign = {
        mba.chain_var("A", 0, 1): s("w1"),   # inside chain set of A
        mba.chain_var("B", 0, 1): s("w1"),   # outside chain set of B
    }
    phi_b = mba.phi_chain(chains["B"], tag="B")
    expected = mba.eval_mba(
        phi_b, {mba.chain_var("B", 0, 1): s("w1")}, alg
    )
    assert mba.eval_mba(psi, assign, alg) == expected == F(1, 3)
    # Both inside: zero.
    assign_ok = {
        mba.chain_var("A", 0, 1): s("w2"),
        mba.chain_var("B", 0, 1): s("w3"),
    }
    assert mba.eval_mba(psi, assign_ok, alg) == 0


def test_psi_multichain_single_tag_equals_phi():
    alg = UNIFORM3
    chains = {"A": [s("w1", "w2"), s("w1")]}
    psi = mba.psi_multichain(chains)
    phi = mba.phi_chain(chains["A"], tag="A")
    for x0 in alg.subsets():
        for x1 in alg.subsets():
            assign = {
                mba.chain_var("A", 0, 2): x0,
                mba.chain_var("A", 1, 2): x1,
            }
            assert mba.eval_mba(psi, assign, alg) == mba.eval_mba(phi, assign, alg)


# ---------------------------------------------------------------------------
# Warm-up definability formulas


def test_simple_definables_examples():
    alg = UNIFORM2
    phi, psi = mba.simple_definables()
    x1, x2, x3 = (mba.SetVarIndex(n, 0) for n in ("X1", "X2", "X3"))
    assert mba.eval_mba(phi, {x1: s("w1"), x2: s("w1", "w2")}, alg) == 0
    # ({w1,w2},{w1}) sits at max-metric distance 1/2 from the inclusion set.
    v = mba.eval_mba(phi, {x1: s("w1", "w2"), x2: s("w1")}, alg)
    assert v == F(1, 2)
    exact = min(
        max(alg.d(s("w1", "w2"), a), alg.d(s("w1"), b))
        for a in alg.subsets()
        for b in alg.subsets()
        if a <= b
    )
    assert exact == v
    for a in alg.subsets():
        for b in alg.subsets():
            assert mba.eval_mba(psi, {x1: a, x2: b, x3: a & b}, alg) == 0


def test_simple_definables_zero_sets():
    alg = UNIFORM3
    phi, psi = mba.simple_definables()
    x1, x2, x3 = (mba.SetVarIndex(n, 0) for n in ("X1", "X2", "X3"))
    for a in alg.subsets():
        for b in alg.subsets():
            assert (mba.eval_mba(phi, {x1: a, x2: b}, alg) == 0) == (a <= b)
            for c in alg.subsets():
                v = mba.eval_mba(psi, {x1: a, x2: b, x3: c}, alg)
                assert (v == 0) == (a & b == c)
