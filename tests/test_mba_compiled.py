"""The compiled measure-algebra evaluator against its definition.

eval_mba compiles G once per call into closures over int masks whose
values are integers over one scale.  A Fraction and frozenset evaluator
written here from the definitions checks it in both SupChain modes on
random formulas over 1-3 atoms with non-uniform weights: nested
Scale(1/2), Scale(1/3) and Scale(1/k), Const with denominators 5 and 7,
TruncSub below zero, Max/Min, and SupChains with joint profiles.
Enumerate mode builds only feasible tuples, so it is also checked on
SupChains of up to three chains whose profiles name several slots of one
chain, slots of one chain only, or no slot, and the tuples its inner
formula sees are pinned to the feasible ones, in the order of the
product over atoms of their depth vectors.  Enumerate mode sums a
SupChain's inner measures atom by atom (its groups), so grouped, lone and
nested measures are checked on their own generator, and a counting test
pins each group term to one run per (atom, vector).  check_monotone must
return the counterexample that the same search, run with the reference
evaluator, finds first; the compile-time errors keep their
EvaluationError type.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from dilogic import checks, family, mba
from dilogic import formula as fm
from dilogic import transform as tr
from dilogic.errors import BudgetError, ChainError, EvaluationError

from helpers import (monotone_pair_scan, p_of, set_reference, sup_example_field,
                     var_sort_key)

F = Fraction


def _algebra(weights):
    atoms = tuple(f"w{i}" for i in range(len(weights)))
    return mba.FiniteMeasureAlgebra(atoms, dict(zip(atoms, weights)))


ALGEBRAS = [_algebra(w) for w in (
    (F(1),),
    (F(2, 7), F(5, 7)),
    (F(1, 6), F(1, 3), F(1, 2)),
)]

X = mba.SetVarIndex("X", 0)
Y = mba.SetVarIndex("Y", F(1, 2))
LEAVES = (X, Y, mba.SetLit(frozenset({"w0"})), mba.Full(), mba.Empty())


# ---------------------------------------------------------------------------
# The reference evaluator


def _subsets(alg):
    return [frozenset(c) for r in range(len(alg.atoms) + 1)
            for c in itertools.combinations(alg.atoms, r)]


def ref_value(g, assign, env, alg, mode, seen):
    """The value of g by the definitions; seen counts what was exercised."""
    rec = lambda h: ref_value(h, assign, env, alg, mode, seen)  # noqa: E731
    k = type(g)
    if k is mba.Measure:
        return sum((alg.weights[a] for a in set_reference(g.term, assign, alg, env)), F(0))
    if k is mba.Const:
        return g.value
    if k is mba.Scale:
        return g.factor * rec(g.body)
    if k is mba.Add:
        return sum(map(rec, g.items), F(0))
    if k is mba.TruncSub:
        v = rec(g.left) - rec(g.right)
        seen["truncsub below zero"] += v < 0
        return max(F(0), v)
    if k is mba.Max:
        return max(map(rec, g.items))
    if k is mba.Min:
        return min(map(rec, g.items))
    return ref_sup(g, assign, env, alg, mode, seen)


def _feasible(g, assign, env, alg):
    """Every combination of bound tuples, one tuple of sets per chain,
    that meets the chain and profile constraints: Y_j within U_j and
    within Y_(j-1), and each profile's meet within its bound."""
    per_chain = []
    for spec in g.chains:
        us = [set_reference(b, assign, alg, env) for b in spec.bounds]
        per_chain.append([
            ys for ys in itertools.product(_subsets(alg), repeat=len(us))
            if all(y <= u for y, u in zip(ys, us))
            and all(ys[j] <= ys[j - 1] for j in range(1, len(ys)))])
    tag_pos = {spec.tag: i for i, spec in enumerate(g.chains)}
    for combo in itertools.product(*per_chain):
        if all(_meet([combo[tag_pos[tag]][slot] for tag, slot in prof.slots], alg)
               <= set_reference(prof.bound, assign, alg, env) for prof in g.profiles):
            yield combo


def _meet(sets, alg):
    out = frozenset(alg.atoms)
    for s in sets:
        out &= s
    return out


def _depths(combo, atom):
    """The atom's membership pattern: per chain, how many sets hold it."""
    return tuple(sum(atom in y for y in ys) for ys in combo)


def ref_sup(g, assign, env, alg, mode, seen):
    combos = list(_feasible(g, assign, env, alg))
    if mode == mba.MAXIMAL:
        for spec in g.chains:
            us = [set_reference(b, assign, alg, env) for b in spec.bounds]
            if not all(us[j] <= us[j - 1] for j in range(1, len(us))):
                raise ChainError("bounds not decreasing")
        # Keep the tuples whose every atom sits at a maximal feasible
        # pattern: one no other feasible pattern of that atom dominates.
        for atom in alg.atoms:
            patterns = {_depths(c, atom) for c in combos}
            maximal = {v for v in patterns
                       if not any(w != v and all(a >= b for a, b in zip(w, v))
                                  for w in patterns)}
            combos = [c for c in combos if _depths(c, atom) in maximal]
    seen["profiles"] += bool(g.profiles)
    seen[f"supchain {mode}"] += 1

    def inner(combo):
        inner_env = dict(env)
        for spec, ys in zip(g.chains, combo):
            for slot, y in enumerate(ys):
                inner_env[(g.binder, spec.tag, slot)] = y
        return ref_value(g.inner, assign, inner_env, alg, mode, seen)

    return max(map(inner, combos))


# ---------------------------------------------------------------------------
# Random formulas


def random_set(rng, leaves, depth):
    if depth == 0 or rng.randrange(3) == 0:
        return rng.choice(leaves)
    op = rng.randrange(5)
    if op == 4:
        return mba.Compl(random_set(rng, leaves, depth - 1))
    cls = (mba.Union, mba.Inter, mba.Diff, mba.SymDiff)[op]
    left, right = random_set(rng, leaves, depth - 1), random_set(rng, leaves, depth - 1)
    return mba.Inter((left, right)) if cls is mba.Inter else cls(left, right)


def random_formula(rng, leaves, depth, sup=False):
    """A random formula; with sup, one SupChain somewhere inside it."""
    if sup and (depth <= 1 or rng.randrange(3) == 0):
        return random_supchain(rng, leaves, depth)
    if depth <= 0:
        kind = rng.randrange(2)
    else:
        kind = rng.randrange(7)
    if kind == 0:
        return mba.Measure(random_set(rng, leaves, 2))
    if kind == 1:
        if rng.randrange(2):
            return mba.Const(F(rng.randrange(6), 5))
        return mba.Const(F(rng.randrange(8), 7))
    if kind == 2:
        factor = rng.choice((F(1, 2), F(1, 3), F(1, rng.randrange(2, 8)), F(2, 3)))
        return mba.Scale(factor, random_formula(rng, leaves, depth - 1, sup))
    if kind in (3, 4):
        if sup and rng.randrange(2):
            pair = (random_formula(rng, leaves, depth - 1),
                    random_formula(rng, leaves, depth - 1, sup))
        else:
            pair = (random_formula(rng, leaves, depth - 1, sup),
                    random_formula(rng, leaves, depth - 1))
        return mba.Add(pair) if kind == 3 else mba.TruncSub(*pair)
    cls = mba.Max if kind == 5 else mba.Min
    items = [random_formula(rng, leaves, depth - 1) for _ in range(rng.randrange(1, 4))]
    if sup:
        items[rng.randrange(len(items))] = random_formula(rng, leaves, depth - 1, sup)
    return cls(tuple(items))


def random_supchain(rng, leaves, depth):
    """One or two chains of at most three slots in all, mostly decreasing
    bounds (each bound meets the previous one three times in four), and
    up to two profiles of one or two slots each."""
    lengths = rng.choice(((1,), (2,), (3,), (1, 1), (2, 1), (1, 2)))
    chains, slots = [], []
    for tag, n in zip("AB", lengths):
        bounds, prev = [], None
        for j in range(n):
            u = random_set(rng, leaves, 1)
            if prev is not None and rng.randrange(4):
                u = mba.Inter((prev, u))
            bounds.append(u)
            prev = u
            slots.append((tag, j))
        chains.append(mba.ChainSpec(tag, tuple(bounds)))
    profiles = tuple(
        mba.ProfileSpec(tuple(rng.sample(slots, min(len(slots), rng.randrange(1, 3)))),
                        random_set(rng, leaves, 1))
        for _ in range(rng.randrange(3)))
    chain_leaves = leaves + tuple(mba.ChainVar(7, tag, j) for tag, j in slots)
    inner = random_formula(rng, chain_leaves, max(depth - 1, 1))
    return mba.SupChain(7, tuple(chains), inner, profiles)


def _expect(g, assign, alg, mode, seen):
    try:
        return ref_value(g, assign, {}, alg, mode, seen)
    except ChainError:
        return ChainError


def _actual(g, assign, alg, mode):
    try:
        return mba.eval_mba(g, assign, alg, mode)
    except ChainError:
        return ChainError


def test_eval_mba_matches_the_definition_in_both_modes():
    rng = random.Random(20230417)
    seen = Counter()
    for case in range(240):
        alg = ALGEBRAS[case % len(ALGEBRAS)]
        g = random_formula(rng, LEAVES, 3, sup=case % 2 == 0)
        subsets = _subsets(alg)
        for _ in range(3):
            assign = {X: rng.choice(subsets), Y: rng.choice(subsets)}
            for mode in (mba.ENUMERATE, mba.MAXIMAL):
                expected = _expect(g, assign, alg, mode, seen)
                assert _actual(g, assign, alg, mode) == expected, (g, assign, mode)
                seen["chain error"] += expected is ChainError
    # What the generator is meant to reach, it reached.
    assert seen["supchain enumerate"] > 100
    assert seen["supchain maximal"] > 100
    assert seen["profiles"] > 50
    assert seen["truncsub below zero"] > 50
    assert seen["chain error"] > 10


def test_scale_is_exact_over_nested_denominators():
    # mu(w2) = 1/2 on the 3-atom algebra; 1/2 * 1/3 * 1/7 of it, plus
    # consts over 5 and 7, needs a scale of 6 * 2 * 3 * 7 * 5.
    alg = ALGEBRAS[2]
    w2 = mba.SetLit(frozenset({"w2"}))
    g = mba.Add((
        mba.Scale(F(1, 2), mba.Scale(F(1, 3), mba.Scale(F(1, 7), mba.Measure(w2)))),
        mba.TruncSub(mba.Const(F(2, 5)), mba.Scale(F(1, 3), mba.Const(F(3, 7))))))
    expected = F(1, 2) * F(1, 3) * F(1, 7) * F(1, 2) + F(2, 5) - F(1, 7)
    for mode in (mba.ENUMERATE, mba.MAXIMAL):
        assert mba.eval_mba(g, {}, alg, mode) == expected
    below = mba.TruncSub(mba.Const(F(1, 7)), mba.Scale(F(1, 5), mba.Measure(mba.Full())))
    assert mba.eval_mba(below, {}, alg) == 0


@pytest.mark.parametrize("inner_binder, inner_tag", [(8, "B"), (7, "A")],
                         ids=["own-binder", "shadowing-the-outer-slot"])
def test_nested_supchain_reads_the_enclosing_chain_variable(inner_binder, inner_tag):
    outer_y = mba.ChainVar(7, "A", 0)
    inner_y = mba.ChainVar(inner_binder, inner_tag, 0)
    nested = mba.SupChain(
        inner_binder, (mba.ChainSpec(inner_tag, (outer_y,)),),
        mba.Add((mba.Measure(inner_y), mba.Measure(mba.Diff(Y, outer_y)))),
        (mba.ProfileSpec(((inner_tag, 0),), X),))
    g = mba.SupChain(7, (mba.ChainSpec("A", (mba.Compl(X),)),),
                     mba.Scale(F(1, 3), nested))
    for alg in ALGEBRAS:
        for sx, sy in itertools.product(_subsets(alg), repeat=2):
            assign = {X: sx, Y: sy}
            for mode in (mba.ENUMERATE, mba.MAXIMAL):
                assert mba.eval_mba(g, assign, alg, mode) == ref_value(
                    g, assign, {}, alg, mode, Counter())


# ---------------------------------------------------------------------------
# Enumerate mode: only feasible tuples


def random_profiled_supchain(rng, leaves, binder=7):
    """Up to three chains of at most four slots in all, with bounds that
    need not decrease (Full one time in two), an inner formula that need
    not increase, and one to three profiles, each of a shape worth
    checking apart: two slots of one chain
    (perhaps with a slot of another chain), slots of a single chain, slots
    across chains, and, one time in ten, no slot at all."""
    lengths = rng.choice(((1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2),
                          (2, 2), (3, 1), (1, 3), (3,)))
    chains, per_chain = [], []
    for tag, n in zip("ABC", lengths):
        bounds = (rng.choice((mba.Full(), random_set(rng, leaves, 1))) for _ in range(n))
        chains.append(mba.ChainSpec(tag, tuple(bounds)))
        per_chain.append([(tag, j) for j in range(n)])
    slots = [s for chain in per_chain for s in chain]
    profiles = []
    for _ in range(rng.randrange(1, 4)):
        kind = rng.randrange(10)
        long = [chain for chain in per_chain if len(chain) >= 2]
        if kind < 3 and long:
            named = rng.sample(rng.choice(long), 2)
            others = [s for s in slots if s[0] != named[0][0]]
            if others and rng.randrange(2):
                named.append(rng.choice(others))
        elif kind < 5:
            chain = rng.choice(per_chain)
            named = rng.sample(chain, rng.randrange(1, len(chain) + 1))
        elif kind < 9:
            named = rng.sample(slots, min(len(slots), rng.randrange(2, 4)))
        else:
            named = []
        rng.shuffle(named)
        profiles.append(mba.ProfileSpec(tuple(named), random_set(rng, leaves, 1)))
    chain_vars = [mba.ChainVar(binder, tag, j) for tag, j in slots]
    if rng.randrange(2):
        inner = random_formula(rng, leaves + tuple(chain_vars), 2)
    else:
        # A weighted sum of the slots' measures, some of them taken on the
        # complement: its supremum sits where the profiles cut.
        terms = [mba.Scale(rng.choice((F(1), F(1, 2), F(1, 3), F(2, 3))),
                           mba.Measure(rng.choice((y, mba.Compl(y)))))
                 for y in chain_vars]
        inner = mba.Add(tuple(terms))
    return mba.SupChain(binder, tuple(chains), inner, tuple(profiles))


def _enumerate_expect(g, assign, alg):
    """The reference value, or EvaluationError for an empty feasible
    region (the reference's max() of nothing)."""
    try:
        return ref_value(g, assign, {}, alg, mba.ENUMERATE, Counter())
    except ValueError:
        return EvaluationError


def _enumerate_actual(g, assign, alg):
    try:
        return mba.eval_mba(g, assign, alg, mba.ENUMERATE)
    except EvaluationError:
        return EvaluationError


def _profile_shapes(g, assign, alg):
    """The shapes of g's profiles that are checked apart."""
    shapes = set()
    if len(g.chains) == 3:
        shapes.add("three chains")
    for prof in g.profiles:
        tags = [tag for tag, _slot in prof.slots]
        if not tags:
            full = set_reference(prof.bound, assign, alg) == frozenset(alg.atoms)
            shapes.add("slotless, full bound" if full else "slotless, bound not full")
        elif len(set(tags)) == 1:
            shapes.add("single chain")
        if len(set(tags)) < len(tags):
            shapes.add("two slots of one chain")
    return shapes


def test_enumerate_search_matches_the_definition_on_profiled_supchains():
    rng = random.Random(20230418)
    seen = Counter()
    for case in range(200):
        alg = ALGEBRAS[1 + case % 2]
        g = random_profiled_supchain(rng, LEAVES)
        subsets = _subsets(alg)
        for _ in range(2):
            assign = {X: rng.choice(subsets), Y: rng.choice(subsets)}
            expected = _enumerate_expect(g, assign, alg)
            assert _enumerate_actual(g, assign, alg) == expected, (g, assign)
            seen.update(_profile_shapes(g, assign, alg))
            if expected is EvaluationError:
                continue
            # The value without some of the profiles: did they matter?
            for what, kept in (("profiles", ()),
                               ("cross-chain profiles", tuple(
                                   p for p in g.profiles
                                   if len({tag for tag, _slot in p.slots}) == 1))):
                seen[f"{what} change the value"] += expected != mba.eval_mba(
                    mba.SupChain(g.binder, g.chains, g.inner, kept), assign, alg,
                    mba.ENUMERATE)
    for shape in ("three chains", "two slots of one chain", "single chain",
                  "slotless, full bound", "slotless, bound not full"):
        assert seen[shape] >= 3, (shape, seen)
    assert seen["profiles change the value"] > 40, seen
    assert seen["cross-chain profiles change the value"] > 5, seen


W0 = mba.SetLit(frozenset({"w0"}))
A0, A1, B0 = (mba.ChainVar(0, "A", 0), mba.ChainVar(0, "A", 1), mba.ChainVar(0, "B", 0))


@pytest.mark.parametrize("bound, expected, maximal", [
    (mba.Full(), F(2), F(10, 7)),
    (mba.Union(W0, mba.Compl(W0)), F(2), F(10, 7)),
    (W0, EvaluationError, EvaluationError),
    (mba.Empty(), EvaluationError, EvaluationError),
], ids=["full", "full-by-value", "not-full", "empty"])
def test_a_slotless_profile_is_checked_once(bound, expected, maximal):
    # mu(A_0 sym B_0) + mu(A_1 minus B_0) is 2 at A = (Full, Full), B = {}
    # unless a slotless profile with a bound short of Full empties the
    # region.  The sum is not increasing, so maximal mode, which only
    # tries each atom's maximal depth vectors, reaches 10/7 (w1 at A
    # depth 2, B depth 0); it refuses an empty region like enumerate mode.
    alg = ALGEBRAS[1]
    g = mba.SupChain(0, (mba.ChainSpec("A", (mba.Full(), mba.Full())),
                         mba.ChainSpec("B", (mba.Full(),))),
                     mba.Add((mba.Measure(mba.SymDiff(A0, B0)),
                              mba.Measure(mba.Diff(A1, B0)))),
                     (mba.ProfileSpec((), bound),
                      mba.ProfileSpec((("A", 1), ("B", 0)), W0)))
    assert _enumerate_expect(g, {}, alg) == expected
    assert _enumerate_actual(g, {}, alg) == expected
    if maximal is EvaluationError:
        with pytest.raises(EvaluationError, match="empty feasible region"):
            mba.eval_mba(g, {}, alg, mba.MAXIMAL)
    else:
        assert mba.eval_mba(g, {}, alg, mba.MAXIMAL) == maximal


def test_nested_supchain_profile_bound_reads_the_enclosing_chain_variables():
    # The inner SupChain's profiles are bounded by outer chain variables, so
    # its pruning changes with every outer tuple; the outer profile names
    # both slots of chain A and the slot of chain B.
    c0, d0 = mba.ChainVar(8, "C", 0), mba.ChainVar(8, "D", 0)
    nested = mba.SupChain(
        8, (mba.ChainSpec("C", (A0,)), mba.ChainSpec("D", (mba.Compl(X),))),
        mba.TruncSub(mba.Add((mba.Measure(c0), mba.Scale(F(1, 2), mba.Measure(d0)))),
                     mba.Measure(mba.Inter((d0, A1)))),
        (mba.ProfileSpec((("C", 0), ("D", 0)), B0),
         mba.ProfileSpec((("D", 0),), mba.Compl(A1))))
    g = mba.SupChain(
        0, (mba.ChainSpec("A", (mba.Full(), Y)), mba.ChainSpec("B", (mba.Full(),))),
        mba.Add((nested, mba.Scale(F(1, 3), mba.Measure(mba.Diff(A0, B0))))),
        (mba.ProfileSpec((("A", 0), ("B", 0), ("A", 1)), X),))
    for alg in ALGEBRAS[:2]:
        for sx, sy in itertools.product(_subsets(alg), repeat=2):
            assign = {X: sx, Y: sy}
            assert _enumerate_actual(g, assign, alg) == _enumerate_expect(g, assign, alg)
    alg, rng = ALGEBRAS[2], random.Random(5)
    for _ in range(6):
        assign = {X: rng.choice(_subsets(alg)), Y: rng.choice(_subsets(alg))}
        assert _enumerate_actual(g, assign, alg) == _enumerate_expect(g, assign, alg)


def test_enumerate_search_visits_exactly_the_feasible_tuples_in_product_order(monkeypatch):
    """The compiled inner formula runs once on each feasible tuple, in the
    order of the product over atoms of each atom's feasible depth vectors
    (per chain, how many of its slots hold the atom), each atom's vectors
    ascending: the lexicographic order of the per-atom vectors."""
    original = mba._Compiler.search
    visits = []

    def watching(self, tags, bounds, lo, profiles, inner):
        e, hi = self.e, lo + sum(map(len, bounds))

        def watched():
            visits.append(tuple(e[lo:hi]))
            return inner()
        return original(self, tags, bounds, lo, profiles, watched)

    monkeypatch.setattr(mba._Compiler, "search", watching)
    rng = random.Random(31)
    pruned = 0
    for case in range(40):
        alg = ALGEBRAS[1 + case % 2]
        g = random_profiled_supchain(rng, LEAVES)
        assign = {X: rng.choice(_subsets(alg)), Y: rng.choice(_subsets(alg))}
        feasible = sorted(_feasible(g, assign, {}, alg), key=lambda combo: [
            tuple(sum(a in y for y in ys) for ys in combo) for a in alg.atoms])
        visits.clear()
        _enumerate_actual(g, assign, alg)
        assert visits == [tuple(alg.mask(y) for ys in combo for y in ys)
                          for combo in feasible], g
        pruned += len(feasible) < mba.supchain_search_size(g, assign, alg)
    assert pruned > 10


def test_enumerate_budget_counts_tuples_before_profiles():
    # The profile leaves one feasible tuple, but the budget counts the
    # 2**20 tuples of the bounds alone and refuses before any search.
    atoms = tuple(f"w{i}" for i in range(20))
    alg = mba.FiniteMeasureAlgebra(atoms, {a: F(1, 20) for a in atoms})
    g = mba.SupChain(0, (mba.ChainSpec("A", (mba.Full(),)),), mba.Measure(A0),
                     (mba.ProfileSpec((("A", 0),), mba.Empty()),))
    assert mba.supchain_search_size(g, {}, alg) == 2**20
    with pytest.raises(BudgetError, match=str(2**20)):
        mba.eval_mba(g, {}, alg, mba.ENUMERATE)
    assert mba.eval_mba(g, {}, alg, mba.MAXIMAL) == 0


# ---------------------------------------------------------------------------
# Groups: a SupChain's inner measures, summed atom by atom


def random_grouped_inner(rng, leaves, depth):
    """An inner formula whose measures are groups: Adds of two to four
    Measures, lone Measures under Max, Min, Scale and TruncSub, and Adds
    mixing a Measure with a constant."""
    if depth == 0 or rng.randrange(4) == 0:
        kind = rng.randrange(3)
        if kind == 0:
            return mba.Add(tuple(mba.Measure(random_set(rng, leaves, 2))
                                 for _ in range(rng.randrange(2, 5))))
        if kind == 1:
            return mba.Measure(random_set(rng, leaves, 2))
        return mba.Add((mba.Measure(random_set(rng, leaves, 2)),
                        mba.Const(F(rng.randrange(4), 3))))
    op = rng.randrange(4)
    if op == 0:
        factor = rng.choice((F(1, 2), F(2, 3), F(1, 5)))
        return mba.Scale(factor, random_grouped_inner(rng, leaves, depth - 1))
    if op == 1:
        return mba.TruncSub(random_grouped_inner(rng, leaves, depth - 1),
                            random_grouped_inner(rng, leaves, depth - 1))
    cls = mba.Max if op == 2 else mba.Min
    return cls(tuple(random_grouped_inner(rng, leaves, depth - 1)
                     for _ in range(rng.randrange(1, 4))))


def random_grouped_formula(rng):
    """A SupChain of chains A (one or two slots) and B over the free
    variables, perhaps with a profile, whose grouped inner formula holds
    a nested SupChain of chain C, bounded by an enclosing chain variable;
    the nested inner formula's groups read C and the enclosing slots.
    The SupChain sits alone, under a Scale, or beside a measure no
    SupChain encloses."""
    slots = [("A", j) for j in range(rng.randrange(1, 3))] + [("B", 0)]
    outer = tuple(mba.ChainVar(7, tag, j) for tag, j in slots)
    chains = (mba.ChainSpec("A", tuple(random_set(rng, LEAVES, 1)
                                       for _tag, j in slots if _tag == "A")),
              mba.ChainSpec("B", (random_set(rng, LEAVES, 1),)))
    profiles = ()
    if rng.randrange(2):
        named = tuple(rng.sample(slots, rng.randrange(1, 3)))
        profiles = (mba.ProfileSpec(named, random_set(rng, LEAVES, 1)),)
    nested = mba.SupChain(
        8, (mba.ChainSpec("C", (random_set(rng, LEAVES + outer, 1),)),),
        random_grouped_inner(rng, LEAVES + outer + (mba.ChainVar(8, "C", 0),), 1))
    inner = random_grouped_inner(rng, LEAVES + outer, 2)
    inner = rng.choice((mba.Add((inner, mba.Scale(F(1, 2), nested))),
                        mba.Max((nested, inner)),
                        mba.TruncSub(inner, nested),
                        inner))
    g = mba.SupChain(7, chains, inner, profiles)
    return rng.choice((g, mba.Scale(F(1, 3), g),
                       mba.Add((mba.Measure(random_set(rng, LEAVES, 2)), g))))


def test_grouped_measures_match_the_definition_in_both_modes():
    """Each group's value is its atoms' shares summed by the search; the
    reference evaluator sums each measure over the whole tuple."""
    rng = random.Random(20230419)
    seen = Counter()
    for case in range(160):
        alg = ALGEBRAS[case % len(ALGEBRAS)]
        g = random_grouped_formula(rng)
        groups = {}  # each SupChain's groups, by its binder
        for sup in mba.nodes(g):
            if type(sup) is mba.SupChain:
                ids = mba._groups(sup.inner, {}, 0)
                groups[sup.binder] = [n for n in mba.nodes(sup.inner) if id(n) in ids]
        seen["grouped adds"] += sum(type(n) is mba.Add for n in groups[7])
        seen["lone measures"] += sum(type(n) is mba.Measure for n in groups[7])
        seen["nested groups reading the enclosing slots"] += sum(
            any(type(y) is mba.ChainVar and y.binder == 7 for y in mba.nodes(n))
            for n in groups.get(8, ()))
        subsets = _subsets(alg)
        for _ in range(2):
            assign = {X: rng.choice(subsets), Y: rng.choice(subsets)}
            for mode in (mba.ENUMERATE, mba.MAXIMAL):
                expected = _expect(g, assign, alg, mode, seen)
                assert _actual(g, assign, alg, mode) == expected, (g, assign, mode)
                seen["chain error"] += expected is ChainError
    assert seen["supchain enumerate"] > 1000
    assert seen["supchain maximal"] > 300
    assert seen["profiles"] > 150
    assert seen["grouped adds"] > 80
    assert seen["lone measures"] > 150
    assert seen["nested groups reading the enclosing slots"] > 60
    assert seen["chain error"] > 20


def test_group_terms_run_once_per_atom_and_vector(monkeypatch):
    """Two 11-slot chains on 2 atoms give 12 * 12 depth vectors per atom:
    20,736 tuples, but in enumerate mode the 22 set terms of the two
    groups run once per (atom, vector), 288 times each.  Maximal mode, one
    vector per atom without profiles, evaluates the inner formula once."""
    a = [mba.ChainVar(0, "A", j) for j in range(11)]
    b = [mba.ChainVar(0, "B", j) for j in range(11)]
    terms = a + [mba.Compl(y) for y in b]
    original = mba._Compiler.set_term
    runs = Counter()

    def counting(self, t, scope):
        closure = original(self, t, scope)
        if t not in terms:
            return closure

        def counted():
            runs[t] += 1
            return closure()
        return counted

    monkeypatch.setattr(mba._Compiler, "set_term", counting)
    full = (mba.Full(),) * 11
    g = mba.SupChain(
        0, (mba.ChainSpec("A", full), mba.ChainSpec("B", full)),
        mba.TruncSub(mba.Scale(F(1, 11), mba.Add(tuple(mba.Measure(y) for y in a))),
                     mba.Scale(F(1, 11), mba.Add(tuple(mba.Measure(mba.Compl(y))
                                                       for y in b)))))
    alg = ALGEBRAS[1]
    assert mba.supchain_search_size(g, {}, alg) == 144 ** 2
    for mode, per_term in ((mba.ENUMERATE, 2 * 144), (mba.MAXIMAL, 1)):
        runs.clear()
        assert mba.eval_mba(g, {}, alg, mode) == 1
        assert runs == dict.fromkeys(terms, per_term), mode


# ---------------------------------------------------------------------------
# check_monotone: the first counterexample of the same search


def ref_check_monotone(g, alg, trials=200, seed=0, exhaustive_limit=100_000):
    """check_monotone's search, with the reference evaluator."""
    return monotone_pair_scan(
        g, alg, trials, seed, exhaustive_limit,
        lambda g, assign: ref_value(g, assign, {}, alg, mba.MAXIMAL, Counter()))


UNIFORM3 = mba.FiniteMeasureAlgebra(("w1", "w2", "w3"), {a: F(1, 3) for a in ("w1", "w2", "w3")})
NOT_X = mba.Measure(mba.Compl(X))


def test_monotone_counterexamples_of_the_complement_are_pinned():
    exhaustive = mba.check_monotone(NOT_X, UNIFORM3)
    assert exhaustive == mba.MonotoneCounterexample(
        {X: frozenset()}, {X: frozenset({"w3"})}, F(1), F(2, 3))
    sampled = mba.check_monotone(NOT_X, UNIFORM3, trials=50, exhaustive_limit=0)
    assert sampled == mba.MonotoneCounterexample(
        {X: frozenset()}, {X: frozenset({"w1", "w2"})}, F(1), F(1, 3))
    assert exhaustive == ref_check_monotone(NOT_X, UNIFORM3)
    assert sampled == ref_check_monotone(NOT_X, UNIFORM3, trials=50, exhaustive_limit=0)


def _decreasing_sup_g():
    """1 - G for G of `sup y . P(y)` at k = 2, as tests/test_checks.py plants it."""
    inst = family.Instance("t", fm.Sup("y", p_of("y")), sup_example_field(), {}, 2)
    result, _report = checks.certify(inst, tr.DEFAULT_BUDGET_C, tr.DEFAULT_BUDGET_VARS)
    return mba.TruncSub(mba.Const(1), result.g), inst.field.space


@pytest.mark.parametrize("kwargs, low, high, values", [
    ({"trials": checks.MONOTONE_TRIALS, "seed": 0,
      "exhaustive_limit": checks.MONOTONE_EXHAUSTIVE_LIMIT},
     ([], []), (["w2"], ["w2"]), (F(1), F(3, 4))),
    ({"trials": 10, "seed": 0, "exhaustive_limit": 0},
     ([], []), (["w1", "w2"], ["w2"]), (F(1), F(3, 4))),
    ({"trials": 3, "seed": 5, "exhaustive_limit": 0},
     (["w1"], ["w1"]), (["w1", "w2"], ["w1", "w2"]), (F(3, 4), F(1, 2))),
], ids=["exhaustive", "sampled-seed0", "sampled-seed5"])
def test_monotone_counterexample_of_a_decreasing_sup_is_pinned(kwargs, low, high, values):
    g, alg = _decreasing_sup_g()
    ce = mba.check_monotone(g, alg, **kwargs)
    variables = sorted(ce.low, key=var_sort_key)
    assert [fm.to_text(v.tag) for v in variables] == [
        "sup y0 . sub(P(y0), 0)", "sup y0 . sub(P(y0), 1/2)"]
    assert tuple(sorted(ce.low[v]) for v in variables) == low
    assert tuple(sorted(ce.high[v]) for v in variables) == high
    assert (ce.low_value, ce.high_value) == values
    assert ce == ref_check_monotone(g, alg, **kwargs)


def test_monotone_matches_the_reference_search_on_random_formulas():
    rng = random.Random(7)
    found = Counter()
    for case in range(60):
        alg = ALGEBRAS[1 + case % 2]
        g = random_formula(rng, LEAVES, 3, sup=case % 3 == 0)
        for path, kwargs in (("exhaustive", {"exhaustive_limit": 10**4}),
                             ("sampled", {"trials": 8, "seed": case, "exhaustive_limit": 0})):
            try:
                expected = ref_check_monotone(g, alg, **kwargs)
            except ChainError:
                with pytest.raises(ChainError):
                    mba.check_monotone(g, alg, **kwargs)
                continue
            assert mba.check_monotone(g, alg, **kwargs) == expected, (g, kwargs)
            found[path] += expected is not None
    assert found["exhaustive"] >= 5 and found["sampled"] >= 5


@pytest.mark.parametrize("alg", [
    ALGEBRAS[2], _algebra((F(1, 10), F(1, 5), F(3, 10), F(2, 5))),
], ids=["3-atoms", "4-atoms"])
def test_sampled_monotone_draws_match_the_reference_on_three_and_four_atoms(alg):
    """check_monotone reuses a drawn choice's masks; the reference sums
    each draw afresh.  40 trials of 2 variables draw 80 choices of 3^3 or
    3^4, so many choices are drawn again and many are new."""
    rng = random.Random(17)
    found = 0
    for case in range(30):
        g = random_formula(rng, LEAVES, 3, sup=case % 3 == 0)
        kwargs = {"trials": 40, "seed": case, "exhaustive_limit": 0}
        try:
            expected = ref_check_monotone(g, alg, **kwargs)
        except ChainError:
            with pytest.raises(ChainError):
                mba.check_monotone(g, alg, **kwargs)
            continue
        assert mba.check_monotone(g, alg, **kwargs) == expected, (g, kwargs)
        found += expected is not None
    assert found >= 5


def test_exhaustive_monotone_evaluates_each_assignment_once(monkeypatch):
    """3 variables on 2 atoms: 3^6 comparable pairs, 2 evaluations each,
    but only 2^6 distinct assignments, and g is evaluated at each once."""
    original = mba._Compiler.formula
    calls = []  # the masks of a at each call of the compiled value

    def formula(self, g):
        value, scale = original(self, g)

        def counted():
            calls.append(tuple(self.a))
            return value()
        return counted, scale

    monkeypatch.setattr(mba._Compiler, "formula", formula)
    z = mba.SetVarIndex("Z", 0)
    g = mba.SupChain(
        0, (mba.ChainSpec("A", (X,)),),
        mba.Measure(mba.Inter((mba.ChainVar(0, "A", 0), Y))),
        (mba.ProfileSpec((("A", 0),), z),))
    assert mba.check_monotone(g, ALGEBRAS[1]) is None
    assert len(calls) == len(set(calls)) == 2 ** 6
    assert ref_check_monotone(g, ALGEBRAS[1]) is None



@pytest.fixture(scope="module")
def suite_gs():
    """G and 1 -. G of 72 certify-suite instances, with their spaces."""
    out = []
    for seed in (0, 1):
        for inst in family.determination_instances(seed, 36):
            g = checks.certify(inst, tr.DEFAULT_BUDGET_C,
                               family.FAMILY_BUDGET_VARS)[0].g
            out += [(g, inst.field.space),
                    (mba.TruncSub(mba.Const(1), g), inst.field.space)]
    return out


def test_monotone_matches_the_pair_scan_on_the_suite(suite_gs):
    """The exhaustive path passes on its covers alone; where a cover falls
    it scans the pairs, and the sampled path draws randrange(3) by two
    random bits: verdicts and counterexamples match the scan's, at
    certify's limit and, where it changes the path, at the default."""
    found = Counter()
    for g, alg in suite_gs:
        pairs = 3 ** (len(alg.atoms) * len(mba.free_set_vars(g)))
        for limit in (2000, 100_000) if 2000 < pairs <= 100_000 else (2000,):
            kwargs = {"trials": checks.MONOTONE_TRIALS, "exhaustive_limit": limit}
            expected = monotone_pair_scan(g, alg, **kwargs)
            assert mba.check_monotone(g, alg, **kwargs) == expected
            found[pairs <= limit, expected is None] += 1
    assert min(found.values()) >= 5 and len(found) == 4


# On one atom, X before Y: the exhaustive pairs 2, 4 and 5 are
# ({}, {}) <= ({}, {w0}), ({}, {}) <= ({w0}, {}) and ({}, {}) <= ({w0}, {w0})
# as (X, Y).  A chain bounded by (Y, X) raises ChainError where X is not
# within Y, first at pair 4, and is 0 elsewhere.
_ERROR_AT_PAIR_4 = mba.SupChain(0, (mba.ChainSpec("A", (Y, X)),), mba.Const(0))


@pytest.mark.parametrize("first", ["counterexample", "error"])
def test_monotone_meets_points_in_pair_order(first):
    """The memo of values fills lazily: mu(not Y) is decreasing at pair 2,
    before the point that raises, and mu(not X) at pair 5, after it."""
    alg = ALGEBRAS[0]
    if first == "counterexample":
        g = mba.Add((mba.Measure(mba.Compl(Y)), _ERROR_AT_PAIR_4))
        ce = mba.check_monotone(g, alg)
        assert ce == mba.MonotoneCounterexample(
            {X: frozenset(), Y: frozenset()}, {X: frozenset(), Y: frozenset({"w0"})},
            F(1), F(0))
        assert ce == ref_check_monotone(g, alg)
    else:
        g = mba.Add((mba.Measure(mba.Compl(X)), _ERROR_AT_PAIR_4))
        with pytest.raises(ChainError):
            mba.check_monotone(g, alg)
        with pytest.raises(ChainError):
            ref_check_monotone(g, alg)


def test_monotone_error_matches_the_pair_scan():
    """An evaluation that raises on the covers' pass is raised by the
    pair scan where it first meets it, with the scan's message."""
    g = mba.Add((mba.Measure(X), _ERROR_AT_PAIR_4))
    with pytest.raises(ChainError) as scan:
        monotone_pair_scan(g, ALGEBRAS[0])
    with pytest.raises(ChainError) as check:
        mba.check_monotone(g, ALGEBRAS[0])
    assert str(check.value) == str(scan.value)


# ---------------------------------------------------------------------------
# Errors keep their type


def _chain(inner=None, bound=mba.Full(), profiles=()):
    return mba.SupChain(
        binder=0,
        chains=(mba.ChainSpec("A", (bound, mba.Full())),),
        inner=inner or mba.Measure(mba.ChainVar(0, "A", 1)),
        profiles=profiles)


UNBOUND = mba.SetVarIndex("missing", 0)


@pytest.mark.parametrize("mode", [mba.ENUMERATE, mba.MAXIMAL])
@pytest.mark.parametrize("g", [
    _chain(inner=mba.Measure(mba.Inter((mba.ChainVar(0, "A", 0), UNBOUND)))),
    _chain(profiles=(mba.ProfileSpec((("A", 0),), UNBOUND),)),
    _chain(inner=mba.Measure(mba.ChainVar(1, "A", 0))),
    _chain(profiles=(mba.ProfileSpec((("B", 0),), mba.Full()),)),
    _chain(profiles=(mba.ProfileSpec((("A", 2),), mba.Full()),)),
], ids=["unbound-set-var-in-inner", "unbound-set-var-in-profile-bound",
        "chain-var-of-a-foreign-binder", "profile-unknown-tag",
        "profile-slot-out-of-range"])
def test_malformed_supchain_is_an_evaluation_error(g, mode):
    with pytest.raises(EvaluationError):
        mba.eval_mba(g, {}, ALGEBRAS[1], mode)


def test_chain_var_outside_its_supchain_is_an_evaluation_error():
    g = mba.Add((_chain(), mba.Measure(mba.ChainVar(0, "A", 0))))
    with pytest.raises(EvaluationError):
        mba.eval_mba(g, {}, ALGEBRAS[1])
    with pytest.raises(EvaluationError):
        mba.check_monotone(mba.Add((g, mba.Measure(X))), ALGEBRAS[1])
    with pytest.raises(EvaluationError):
        mba.eval_set(mba.ChainVar(0, "A", 0), {}, ALGEBRAS[1])


# ---------------------------------------------------------------------------
# Depth vectors: searched once per key within a call


def test_depth_vectors_are_searched_once_per_key_per_call(monkeypatch):
    """A compiled maximal-mode search keeps the depth vectors of each
    (caps, forbidden) key it meets, for the evaluations of its own call
    only: check_monotone asks for no key twice, and a second call asks for
    all of them again."""
    original = mba._depth_vectors
    keys = []

    def recording(caps, forbidden, maximal):
        keys.append((caps, forbidden))
        return original(caps, forbidden, maximal)

    monkeypatch.setattr(mba, "_depth_vectors", recording)
    instances = [inst for inst in family.determination_instances(0, 17)
                 if isinstance(inst.formula, fm.Sup)]
    assert instances
    for inst in instances:
        g = checks.certify(inst, tr.DEFAULT_BUDGET_C,
                           family.FAMILY_BUDGET_VARS)[0].g
        per_call = []
        for _ in range(2):
            keys.clear()
            assert mba.check_monotone(g, inst.field.space, trials=10) is None
            per_call.append(list(keys))
        assert per_call[0]
        assert len(set(per_call[0])) == len(per_call[0])
        assert per_call[1] == per_call[0]
