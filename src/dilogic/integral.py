"""Direct integrals of finite metric structures over finite probability
spaces.

Elements of the integral are choice functions (one point per atom of the
space).  The metric and predicates integrate fiberwise values against the
atom weights; functions act fiberwise.  Quantifiers on the integral range
over all choice functions, so evaluation here is the brute-force oracle
against which the compiled measure-algebra formulas are checked.

Inside the oracle a choice function is the tuple of its points in atom
order; IntegralElement is the element type at the public boundary only.
Each field builds, once, its per-atom tables in atom order: the weighted
fiber predicate values as integer numerators over one common denominator
(MeasurableField.weighted_preds), the integral's `den` in
structure.eval_formula's model protocol, and the fiber function tables
(MeasurableField.fiber_funcs).  So `scaled_pred`, an integrated predicate
value times den, is one integer sum, and evaluating a formula on the
integral builds one Fraction in all.  A field is not changed once built.

A quantifier whose body is quantifier-free is the oracle's inner loop, and
the integral evaluates that body at every choice function in one pass
(_Integral.sweep): an Atomic becomes one column per atom, its weighted
table entries over the atom's fiber, and its values are the column sums
over itertools.product of the fibers, the order of the choice functions
themselves (read from the model's column index, built once per symbol
and position, when the bound variable is itself the one argument reading
it).  The value at every choice function is still computed (one serves
them all when the body does not read the bound variable): the integer
the point-by-point evaluation gives.
Before any choice function is visited, eval_on_integral counts the visits
of the whole formula in closed form (choice_function_visits) and refuses
them over its limit.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from . import formula as fm
from . import structure as st
from .errors import EvaluationError, InputError, ValidationError, exact, refuse_over
from .mba import FiniteMeasureAlgebra

# A finite probability space is exactly a finite measure algebra: ordered
# atoms with positive rational weights summing to 1.
FiniteProbabilitySpace = FiniteMeasureAlgebra

DEFAULT_CHOICE_LIMIT = 10**6


def _refuse_over_limit(count, limit, what):
    """None is no limit; a negative limit is an InputError."""
    if limit is not None and limit < 0:
        raise InputError(f"limit must be >= 0, got {limit}")
    if limit is not None and count > limit:  # so a count in limit costs no call
        refuse_over(count, what, limit, "limit")


@dataclass(frozen=True)
class MeasurableField:
    space: FiniteProbabilitySpace
    fibers: dict  # atom -> FiniteMetricStructure

    def __post_init__(self):
        if set(self.fibers) != set(self.space.atoms):
            raise ValidationError("fibers must cover exactly the space's atoms")
        sigs = {M.signature for M in self.fibers.values()}
        if len(sigs) != 1:
            raise ValidationError("all fibers must share one signature")
        for a, M in self.fibers.items():
            msg = st.validate(M)
            if msg is not None:
                raise ValidationError(f"fiber at atom {a!r}: {msg}")

    @property
    def signature(self):
        return next(iter(self.fibers.values())).signature

    @functools.cached_property
    def weighted_preds(self):
        """(den, {name: (table, ...)}), one table {args: numerator} per atom
        in atom order: every weighted fiber value weights[w] *
        preds[name][args] as an integer numerator over den, the lcm of all
        their denominators."""
        weights = self.space.weights
        values = {
            name: [{args: weights[w] * v
                    for args, v in self.fibers[w].preds[name].items()}
                   for w in self.space.atoms]
            for name, _arity in self.signature.predicates
        }
        den = math.lcm(*(v.denominator for tables in values.values()
                         for table in tables for v in table.values()))
        return den, {
            name: tuple({args: v.numerator * (den // v.denominator)
                         for args, v in table.items()} for table in tables)
            for name, tables in values.items()
        }

    @functools.cached_property
    def fiber_funcs(self):
        """{name: (table, ...)}: each fiber's function table, in atom order."""
        return {name: tuple(self.fibers[w].funcs[name] for w in self.space.atoms)
                for name, _arity in self.signature.functions}

    @functools.cached_property
    def integral(self):
        """The direct integral as a model for structure.eval_formula."""
        return _Integral(self)

    def element_count(self):
        return math.prod(len(self.fibers[a].points) for a in self.space.atoms)

    def elements(self, limit=DEFAULT_CHOICE_LIMIT):
        """All choice functions, in fiber point order; guarded by limit
        when called, before the first is built."""
        _refuse_over_limit(self.element_count(), limit, "choice-function count")
        atoms = self.space.atoms
        return (IntegralElement(dict(zip(atoms, combo))) for combo in
                itertools.product(*[self.fibers[a].points for a in atoms]))


@dataclass(frozen=True)
class IntegralElement:
    choice: dict  # atom -> point

    def __post_init__(self):
        object.__setattr__(self, "choice", dict(self.choice))

    def __call__(self, atom):
        return self.choice[atom]

    def __hash__(self):
        # Order-free, so it agrees with ==, which compares the dicts.
        return hash(frozenset(self.choice.items()))


def element_of(field_, mapping, prefix=""):
    e = IntegralElement(mapping)
    for a in e.choice:
        if a not in field_.space.weights:
            raise ValidationError(f"{prefix}element names atom {a!r} outside the space")
    for a in field_.space.atoms:
        if a not in e.choice:
            raise ValidationError(f"{prefix}element missing a point at atom {a!r}")
        if e.choice[a] not in field_.fibers[a].points:
            raise ValidationError(f"{prefix}point {e.choice[a]!r} not in the fiber at {a!r}")
    return e


def integral_dist(field_, a, b):
    return sum(
        (field_.space.weights[w] * field_.fibers[w].d(a(w), b(w))
         for w in field_.space.atoms),
        Fraction(0),
    )


def _fiber_assignment(assignment, atom):
    return {name: e(atom) for name, e in assignment.items()}


def _refuse_foreign(field_, assignment, failure):
    """Raise, for failure (a KeyError), the ValidationError of the first
    assigned element foreign to field_, or failure itself if none is."""
    for var, e in assignment.items():
        element_of(field_, e.choice, f"variable {var!r}: ")
    raise failure


class _Integral:
    """The direct integral of a field as a model for
    structure.eval_formula: its points are the choice functions as tuples
    of fiber points in atom order (eval_on_integral counts every visit to
    one against its limit before it evaluates), predicates integrate the
    fiber values against the atom weights, as integers over den, and
    functions act fiberwise.  It also gives eval_formula the sweep of a
    quantifier-free body over every point at once.  Each field builds its
    one model on first use (MeasurableField.integral), and the model
    builds each column index it reads (`columns`) on first use."""

    def __init__(self, field_):
        self.fiber_points = tuple(field_.fibers[w].points for w in field_.space.atoms)
        self.count = math.prod(map(len, self.fiber_points))
        self.den, self.tables = field_.weighted_preds
        self.funcs = field_.fiber_funcs
        self.columns = {}  # (name, position) -> its column index

    @property
    def points(self):
        return itertools.product(*self.fiber_points)

    def scaled_pred(self, name, args):
        # A 0-ary predicate reads () at every atom.
        return sum(map(dict.__getitem__, self.tables[name],
                       zip(*args) if args else itertools.repeat(())))

    def func(self, name, args):
        # A signature's functions take at least one argument.
        return tuple(map(dict.__getitem__, self.funcs[name], zip(*args)))

    def sweep(self, phi, var, env, unit, scale):
        """The values times scale of the quantifier-free phi at every
        point, with var bound to the point and every other variable to its
        row in env, as eval_formula's value computes them one point at a
        time: an iterator in points order, or a 1-tuple when phi does not
        read var and so has one value at every point.  A variable that is
        neither var nor in env is an EvaluationError, as in eval_formula.

        Functions act fiberwise, so a term that reads var has at each atom
        one point per point of that atom's fiber, and an Atomic that reads
        var has one column per atom: its weighted table entries over the
        fiber.  Its value at a choice function is the sum of one entry of
        each column, so its values in points order are the sums over
        itertools.product of the columns.  Const, Half and TruncSub then
        combine whole iterators, and a subformula that does not read var
        stays one int."""
        v = self._sweep(phi, var, env, unit, scale)
        return (v,) if type(v) is int else v

    def _sweep(self, phi, var, env, unit, scale):
        t = type(phi)
        if t is fm.Atomic:
            reads, entries = self._lookup(self.tables, phi.pred, phi.args, var, env)
            if not reads:
                return sum(entries) * unit
            sums = map(sum, itertools.product(*entries))
            return sums if unit == 1 else map(unit.__mul__, sums)
        if t is fm.Const:
            return phi.value.numerator * (scale // phi.value.denominator)
        if t is fm.Half:
            v = self._sweep(phi.body, var, env, unit, scale)
            return v // 2 if type(v) is int else map(_HALF, v)
        # phi is a TruncSub: sweep is given quantifier-free formulas only.
        left = self._sweep(phi.left, var, env, unit, scale)
        right = self._sweep(phi.right, var, env, unit, scale)
        if type(left) is int:
            if type(right) is int:
                return left - right if left > right else 0
            diffs = map(left.__sub__, right)
        elif type(right) is int:
            diffs = map(right.__rsub__, left)
        else:
            diffs = map(operator.sub, left, right)
        return (d if d > 0 else 0 for d in diffs)

    def _term(self, term, var, env):
        """term's value at each atom, as _lookup gives it."""
        if type(term) is fm.Var:
            if term.name == var:
                return True, self.fiber_points
            try:
                return False, env[term.name]
            except KeyError:
                raise EvaluationError(
                    f"variable {term.name!r} has no assignment") from None
        return self._lookup(self.funcs, term.func, term.args, var, env)

    def _lookup(self, kind, name, args, var, env):
        """The per-atom tables kind[name] read at the terms args, in atom
        order: (False, the entry at each atom) when no argument reads var,
        else (True, at each atom the entries as var runs over its fiber,
        from columns when var is itself the one argument that reads it)."""
        terms = [self._term(a, var, env) for a in args]
        reading = [i for i, (reads, _) in enumerate(terms) if reads]
        if len(reading) == 1 and type(args[reading[0]]) is fm.Var:
            pos = reading[0]
            index = (self.columns.get((name, pos)) or self.columns.setdefault(
                (name, pos), self._index(kind[name], pos, len(args))))
            rows = [v for i, (_, v) in enumerate(terms) if i != pos]
            keys = rows[0] if len(rows) == 1 else zip(*rows)
            return True, tuple(map(dict.__getitem__, index, keys)) if rows else index
        if not reading:
            # A 0-ary predicate reads () at every atom.
            keys = zip(*[v for _, v in terms]) if terms else itertools.repeat(())
            return False, tuple(map(dict.__getitem__, kind[name], keys))
        return True, [
            list(map(table.__getitem__,
                     zip(*[v[i] if reads else itertools.repeat(v[i])
                           for reads, v in terms])))
            for i, table in enumerate(kind[name])]

    def _index(self, tables, pos, arity):
        """At each atom, the column of tables as position pos runs over the
        fiber; for arity > 1 a dict of them by the other point or points."""
        def column(table, fiber, others):
            return tuple(table[others[:pos] + (p,) + others[pos:]] for p in fiber)
        return tuple(column(table, fiber, ()) if arity == 1 else
                     {others[0] if arity == 2 else others: column(table, fiber, others)
                      for others in itertools.product(fiber, repeat=arity - 1)}
                     for table, fiber in zip(tables, self.fiber_points))


# The exact half of an int, as a function of it: (2).__rfloordiv__(v) is v // 2.
_HALF = (2).__rfloordiv__


def choice_function_visits(phi, n):
    """The choice functions eval_on_integral visits on phi over a field of
    n: a Sup or Inf visits all n, each once per evaluation of its body, so
    it counts n * (1 + the visits of its body); a quantifier-free phi
    visits none."""
    t = type(phi)
    if t is fm.Atomic or t is fm.Const:
        return 0
    if t is fm.Half:
        return choice_function_visits(phi.body, n)
    if t is fm.TruncSub:
        return (choice_function_visits(phi.left, n)
                + choice_function_visits(phi.right, n))
    return n * (1 + choice_function_visits(phi.body, n))


def eval_on_integral(phi, field_, assignment=None, limit=DEFAULT_CHOICE_LIMIT):
    """Exact value of phi on the direct integral of the field.

    This is structure.eval_formula on the integral seen as a structure:
    Sup/Inf range over all choice functions of the field, and Atomic
    integrates the fiberwise table values.  A Sup or Inf whose body is
    quantifier-free takes the body's values at every choice function from
    one _Integral.sweep; one with a quantifier below binds each choice
    function in turn and interprets its body there.  The choice functions
    phi visits in all, choice_function_visits, are refused over limit
    before any is visited.  Each assigned IntegralElement enters as its
    row of points in atom order; one whose point or atom a lookup misses
    is a ValidationError.
    """
    integral = field_.integral
    _refuse_over_limit(choice_function_visits(phi, integral.count), limit,
                       "choice-function count")
    atoms = field_.space.atoms
    try:
        rows = {var: tuple(map(e.choice.__getitem__, atoms))
                for var, e in assignment.items()} if assignment else {}
        return st.eval_formula(phi, integral, rows)
    except KeyError as err:
        _refuse_foreign(field_, assignment or {}, err)


def fiber_values(zeta, field_, assignment=None):
    """The fiberwise value of zeta at each atom, in atom order.

    zeta is evaluated fiberwise, as structure.eval_formula in each atom's
    fiber, with zeta's unit walked once for all the atoms: its quantifiers
    range within each fiber, not over choice functions, and a fiber has no
    sweep, so each binds the fiber's points in turn and interprets its body
    there.  Every level set of zeta under this assignment is a threshold
    of this one table.  A lookup that misses an assigned element's point
    or atom is a ValidationError.
    """
    assignment = assignment or {}
    unit = st._unit(zeta)
    try:
        return tuple(
            st._eval_at_unit(zeta, field_.fibers[w], _fiber_assignment(assignment, w), unit)
            for w in field_.space.atoms)
    except KeyError as err:
        _refuse_foreign(field_, assignment, err)


def point_values(zeta, var, field_, assignment=None):
    """fiber_values of zeta with var bound to each point of each fiber, per atom."""
    unit, assignment = st._unit(zeta), assignment or {}
    try:
        return [[st._eval_at_unit(zeta, M, {**local, var: p}, unit) for p in M.points]
                for M, local in ((field_.fibers[w], _fiber_assignment(assignment, w))
                                 for w in field_.space.atoms)]
    except KeyError as err:
        _refuse_foreign(field_, assignment, err)


def threshold(values, field_, t, *, strict=True):
    """Atoms whose entry of a fiber_values table exceeds the rational t:
    compared with > when strict, else with >=."""
    if strict:
        return frozenset(w for w, v in zip(field_.space.atoms, values) if v > t)
    return frozenset(w for w, v in zip(field_.space.atoms, values) if v >= t)


def level_set(zeta, field_, assignment, t, *, strict=True):
    """Atoms where the fiberwise value of zeta exceeds t: the threshold at
    t of zeta's fiber_values table."""
    return threshold(fiber_values(zeta, field_, assignment), field_,
                     exact(t, "threshold", InputError), strict=strict)


def theory_distribution(field_, sentences, thresholds):
    """mu of the atoms where every sentence's fiber value exceeds its
    threshold strictly."""
    sentences = list(sentences)
    thresholds = [exact(r, "threshold", InputError) for r in thresholds]
    if len(sentences) != len(thresholds):
        raise InputError("sentence and threshold tuples differ in length")
    for phi in sentences:
        if fm.free_vars(phi):
            raise InputError(f"sentence has free variables: {fm.to_text(phi)}")
    out = frozenset(field_.space.atoms)
    for phi, r in zip(sentences, thresholds):
        out &= threshold(fiber_values(phi, field_), field_, r)
    return field_.space.measure(out)


def relabel_field(field_, bijections):
    """New field with each fiber's points renamed by the given bijections.

    Each bijection must be an isomorphism onto its image structure, which
    is guaranteed by construction here: tables are transported along it.
    """
    fibers = {}
    for w in field_.space.atoms:
        M = field_.fibers[w]
        b = bijections.get(w)
        if b is None:
            fibers[w] = M
            continue
        if set(b) != set(M.points) or len(set(b.values())) != len(M.points):
            raise ValidationError(f"bijection at atom {w!r} does not match the fiber")
        fibers[w] = st.FiniteMetricStructure(
            M.signature,
            tuple(b[p] for p in M.points),
            {(b[p], b[q]): d for (p, q), d in M.dist.items()},
            {
                name: {tuple(b[p] for p in tup): v for tup, v in table.items()}
                for name, table in M.preds.items()
            },
            {
                name: {tuple(b[p] for p in tup): b[v] for tup, v in table.items()}
                for name, table in M.funcs.items()
            },
        )
    return MeasurableField(field_.space, fibers)


def map_element(element, bijections):
    return IntegralElement(
        {w: bijections.get(w, {}).get(p, p) for w, p in element.choice.items()}
    )


def materialize(field_, limit=DEFAULT_CHOICE_LIMIT):
    """The direct integral as an explicit FiniteMetricStructure.

    Point names are tuples of fiber points in atom order.  Intended for
    tiny instances: the point count is the product of the fiber sizes,
    and limit caps both it and the entry count of the metric, predicate
    and function tables (points^arity each), counted before any is built.
    """
    n = field_.element_count()
    sig = field_.signature
    entries = sum(n ** arity for arity in
                  (2, *(arity for _name, arity in sig.predicates + sig.functions)))
    _refuse_over_limit(entries, limit, "materialized table entry count")
    atoms = field_.space.atoms
    elements = list(field_.elements(limit))
    names = [tuple(e(a) for a in atoms) for e in elements]
    by_name = dict(zip(names, elements))
    dist = {}
    for n1, e1 in by_name.items():
        for n2, e2 in by_name.items():
            dist[(n1, n2)] = integral_dist(field_, e1, e2)
    preds = {}
    for pname, arity in sig.predicates:
        table = {}
        for combo in itertools.product(names, repeat=arity):
            total = Fraction(0)
            for w in atoms:
                M = field_.fibers[w]
                args = tuple(by_name[n](w) for n in combo)
                total += field_.space.weights[w] * M.preds[pname][args]
            table[combo] = total
        preds[pname] = table
    funcs = {}
    for fname, arity in sig.functions:
        table = {}
        for combo in itertools.product(names, repeat=arity):
            table[combo] = tuple(
                field_.fibers[w].funcs[fname][tuple(by_name[n](w) for n in combo)]
                for w in atoms
            )
        funcs[fname] = table
    return st.FiniteMetricStructure(sig, tuple(names), dist, preds, funcs)
