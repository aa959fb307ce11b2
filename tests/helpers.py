"""Shared builders for the test suite: tiny structures, fields, the
frozen example instances and random formulas used across modules, and
compiles that record every result the builder finishes."""

import contextlib
import itertools
import random
from fractions import Fraction

import pytest

from dilogic import family, mba
from dilogic import formula as fm
from dilogic import integral as di
from dilogic import structure as st
from dilogic import transform as tr

F = Fraction

SIG_P = fm.Signature(predicates=(("P", 1),))
SIG_PQ = fm.Signature(predicates=(("P", 1), ("Q", 1)))


def make_structure(sig, values, dist=None):
    """Structure from per-predicate point->value dicts.

    `values` maps predicate name -> {point: value} (unary only here).
    `dist` maps frozenset({p, q}) -> value; defaults to distance 1
    between distinct points (discrete metric, always 1-Lipschitz).
    """
    first = next(iter(values.values()))
    points = tuple(first)
    d = {}
    for p in points:
        for q in points:
            if p == q:
                d[(p, q)] = F(0)
            else:
                key = frozenset({p, q})
                v = F(1) if dist is None else F(dist[key])
                d[(p, q)] = v
    preds = {
        name: {(p,): F(v) for p, v in table.items()}
        for name, table in values.items()
    }
    return st.ensure_valid(st.FiniteMetricStructure(sig, points, d, preds))


def uniform_space(atoms):
    n = len(atoms)
    return di.FiniteProbabilitySpace(tuple(atoms), {a: F(1, n) for a in atoms})


def atomic_example_field():
    """Two one-point fibers; P integrates to 1/2 on the unique element."""
    m1 = make_structure(SIG_P, {"P": {"p": F(3, 4)}})
    m2 = make_structure(SIG_P, {"P": {"p": F(1, 4)}})
    return di.MeasurableField(uniform_space(("w1", "w2")), {"w1": m1, "w2": m2})


def atomic_example_assignment(field_):
    return {"x": di.element_of(field_, {"w1": "p", "w2": "p"})}


def sup_example_field():
    """sup y.P(y) evaluates to 5/8: best choice picks p at w1 and r at w2."""
    m1 = make_structure(SIG_P, {"P": {"p": F(1), "q": F(0)}})
    m2 = make_structure(SIG_P, {"P": {"r": F(1, 4)}})
    return di.MeasurableField(uniform_space(("w1", "w2")), {"w1": m1, "w2": m2})


def joint_witness_field():
    """One atom, two points with P == 1 and Q = (3/8, 1/2).

    On sup y.sub(P(y), Q(y)) at k = 2 this instance exercises the joint
    profile constraints of the compiled supremum: per-slot bounds alone
    would under-determine the value.
    """
    m = make_structure(
        SIG_PQ,
        {"P": {"p0": F(1), "p1": F(1)}, "Q": {"p0": F(3, 8), "p1": F(1, 2)}},
        dist={frozenset({"p0", "p1"}): F(1, 2)},
    )
    return di.MeasurableField(uniform_space(("w1",)), {"w1": m})


def p_of(v):
    return fm.Atomic("P", (fm.Var(v),))


def q_of(v):
    return fm.Atomic("Q", (fm.Var(v),))


def xi_formula(var, alpha):
    """The reference xi_alpha: sup_var min over (zeta, c) in alpha of
    (zeta -. c), the min folded left to right by min(out, item) =
    item -. (item -. out), then canonicalized."""
    items = [fm.TruncSub(zeta, fm.Const(c)) for zeta, c in alpha]
    out = items[0]
    for item in items[1:]:
        out = fm.TruncSub(item, fm.TruncSub(item, out))
    return fm.canonicalize(fm.Sup(var, out))


def var_sort_key(index):
    """A set variable's order by tag text, threshold and mode."""
    return (str(index.tag), index.level, index.strict)


def monotone_pair_scan(g, alg, trials=200, seed=0, exhaustive_limit=100_000,
                       evaluate=None):
    """check_monotone's search as a scan of comparable assignment pairs:
    per atom (neither, high only, both), exhaustive in product order when
    3^(atoms * variables) is within the limit, else drawn with
    random.Random(seed), one randrange(3) per atom per variable.
    evaluate(g, assign) is g's value, eval_mba in maximal mode unless
    given; it is called once per distinct assignment, so an error is
    raised where its assignment is first met."""
    if evaluate is None:
        def evaluate(g, assign):
            return mba.eval_mba(g, assign, alg, mba.MAXIMAL)
    variables = sorted(mba.free_set_vars(g), key=var_sort_key)
    if not variables:
        return None

    def comparable(choice):
        return (frozenset(a for a, c in zip(alg.atoms, choice) if c == 2),
                frozenset(a for a, c in zip(alg.atoms, choice) if c >= 1))

    if 3 ** (len(alg.atoms) * len(variables)) <= exhaustive_limit:
        all_pairs = [comparable(c)
                     for c in itertools.product(range(3), repeat=len(alg.atoms))]
        draws = itertools.product(all_pairs, repeat=len(variables))
    else:
        rng = random.Random(seed)
        draws = ([comparable([rng.randrange(3) for _a in alg.atoms])
                  for _v in variables] for _ in range(trials))
    values = {}

    def value(sets):
        if sets not in values:
            values[sets] = evaluate(g, dict(zip(variables, sets)))
        return values[sets]

    for pairs in draws:
        low, high = zip(*pairs)
        lv, hv = value(low), value(high)
        if lv > hv:
            return mba.MonotoneCounterexample(dict(zip(variables, low)),
                                              dict(zip(variables, high)), lv, hv)
    return None


def set_reference(term, assign, alg, env=None):
    """The frozenset a set term denotes, by the definitions: assign holds
    frozensets by SetVarIndex, env by chain-variable key (binder, tag,
    slot)."""
    full = frozenset(alg.atoms)
    rec = lambda t: set_reference(t, assign, alg, env)  # noqa: E731
    k = type(term)
    if k is mba.SetVarIndex:
        return assign[term]
    if k is mba.ChainVar:
        return env[(term.binder, term.tag, term.slot)]
    if k is mba.SetLit:
        return term.atoms
    if k is mba.Empty:
        return frozenset()
    if k is mba.Full:
        return full
    if k is mba.Compl:
        return full - rec(term.body)
    if k is mba.Inter:
        return full.intersection(*map(rec, term.items))
    left, right = rec(term.left), rec(term.right)
    return {mba.Union: left | right, mba.Diff: left - right,
            mba.SymDiff: left ^ right}[k]


def random_term(rng, scope):
    var = fm.Var(rng.choice(scope))
    roll = rng.randrange(4)
    if roll == 0:
        return fm.Apply("f", (var,))
    if roll == 1:
        return fm.Apply("g", (var, fm.Var(rng.choice(scope))))
    return var


def random_formula(rng, depth, scope):
    """A formula of depth at most depth whose free variables lie in scope;
    a quantifier may rebind a variable already in scope."""
    roll = rng.randrange(7) if depth > 0 else rng.randrange(2)
    if roll == 0:
        return fm.Const(F(rng.randrange(8), 7) if rng.randrange(2)
                        else F(rng.randrange(4), rng.choice((3, 5))))
    if roll == 1:
        pred = rng.choice(("P", "Q", "R"))
        arity = 2 if pred == "R" else 1
        return fm.Atomic(pred, tuple(random_term(rng, scope)
                                     for _ in range(arity)))
    if roll == 2:
        return fm.Half(random_formula(rng, depth - 1, scope))
    if roll in (3, 4):
        return fm.TruncSub(random_formula(rng, depth - 1, scope),
                           random_formula(rng, depth - 1, scope))
    var = rng.choice(("x", "y", "z"))
    body = random_formula(rng, depth - 1, scope + [var])
    return (fm.Sup if roll == 5 else fm.Inf)(var, body)


# The 17 templates and the three compile-frontier formulas at k = 2.
GOLDEN_CORPUS = [(name, fm.to_text(phi))
                 for name, phi, _small in family.formula_templates()] + [
    ("frontier-sup-sub", "sup y . sub(P(y), Q(y))"),
    ("frontier-sup-sup", "sup x . sup y . R(x,y)"),
    ("frontier-inf", "inf y . P(y)"),
]


@contextlib.contextmanager
def recording_finish():
    """Yields the list of every result _Builder._finish returns in the
    block, a refused compile's included."""
    finished = []
    original = tr._Builder._finish

    def recording(self, *args):
        result = original(self, *args)
        finished.append(result)
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tr._Builder, "_finish", recording)
        yield finished


@contextlib.contextmanager
def recording_xi():
    """Yields the list of every (plans, alpha, xi) _XiPlans.xi builds in
    the block: plans is one supremum's _XiPlans, and alpha is read back
    from the grid positions."""
    built = []
    build = tr._XiPlans.xi

    def recording(plans, combo):
        xi, level = build(plans, combo)
        alpha = tuple((plans.tags[t], plans.consts[t][p].value)
                      for t, p in enumerate(combo) if p)
        built.append((plans, alpha, xi))
        return xi, level

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tr._XiPlans, "xi", recording)
        yield built


def assert_distinct_xi(built):
    """Invariant (i) of README's design notes: within one supremum, no two
    alphas give one xi."""
    by_sup = {}
    for plans, _alpha, xi in built:
        by_sup.setdefault(id(plans), []).append(xi)  # built keeps plans alive
    assert by_sup
    for xis in by_sup.values():
        assert len(set(xis)) == len(xis)


def assert_builder_tables(finished):
    """The builder hands each result mba.vars_by_tag(result.g): the same
    tags, each with the same variables in the same order.  Each variable
    lies on its tag's grid in [0,1], invariant (ii) of README's design
    notes."""
    assert finished
    for result in finished:
        assert "vars_by_tag" in vars(result)
        walked = mba.vars_by_tag(result.g)
        assert result.vars_by_tag.keys() == walked.keys()
        for tag, variables in walked.items():
            assert result.vars_by_tag[tag] == variables
            level = result.levels[tag]
            assert all(level % (t := v.level).denominator == 0
                       and 0 <= t.numerator <= t.denominator
                       for v in variables), (fm.to_text(tag), level)


def compile_recording_finish(jobs):
    """Compile each (phi, k, budget_c, budget_vars) job; returns the top
    results and every result _Builder._finish returned on the way."""
    with recording_finish() as finished:
        results = [tr.transform(*job) for job in jobs]
    return results, finished
