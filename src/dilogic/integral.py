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
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import formula as fm
from . import structure as st
from .errors import BudgetError, InputError, ValidationError
from .mba import FiniteMeasureAlgebra

# A finite probability space is exactly a finite measure algebra: ordered
# atoms with positive rational weights summing to 1.
FiniteProbabilitySpace = FiniteMeasureAlgebra

DEFAULT_CHOICE_LIMIT = 10**6


def _refuse_over_limit(count, limit, what):
    """None is no limit; a negative limit is an InputError."""
    if limit is not None and limit < 0:
        raise InputError(f"limit must be >= 0, got {limit}")
    if limit is not None and count > limit:
        raise BudgetError(f"{what} count {count} exceeds limit {limit}")


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

    def element_count(self):
        return math.prod(len(self.fibers[a].points) for a in self.space.atoms)

    def elements(self, limit=DEFAULT_CHOICE_LIMIT):
        """All choice functions, in fiber point order; guarded by limit
        when called, before the first is built."""
        _refuse_over_limit(self.element_count(), limit, "choice-function")
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


def element_of(field_, mapping):
    e = IntegralElement(mapping)
    for a in e.choice:
        if a not in field_.space.weights:
            raise ValidationError(f"element names atom {a!r} outside the space")
    for a in field_.space.atoms:
        if a not in e.choice:
            raise ValidationError(f"element missing a point at atom {a!r}")
        if e.choice[a] not in field_.fibers[a].points:
            raise ValidationError(f"point {e.choice[a]!r} not in the fiber at {a!r}")
    return e


def integral_dist(field_, a, b):
    return sum(
        (field_.space.weights[w] * field_.fibers[w].d(a(w), b(w))
         for w in field_.space.atoms),
        Fraction(0),
    )


def _fiber_assignment(assignment, atom):
    return {name: e(atom) for name, e in assignment.items()}


class _Integral:
    """The direct integral of a field as a model for
    structure.eval_formula: its points are the choice functions as tuples
    of fiber points in atom order (at most limit of them, refused each
    time a quantifier ranges), predicates integrate the fiber values
    against the atom weights, as integers over den, and functions act
    fiberwise."""

    def __init__(self, field_, limit):
        self.field = field_
        self.limit = limit
        self.den, self.tables = field_.weighted_preds
        self.funcs = field_.fiber_funcs

    @property
    def points(self):
        _refuse_over_limit(self.field.element_count(), self.limit, "choice-function")
        fibers = self.field.fibers
        return itertools.product(*[fibers[w].points for w in self.field.space.atoms])

    def scaled_pred(self, name, args):
        # A 0-ary predicate reads () at every atom.
        return sum(map(dict.__getitem__, self.tables[name],
                       zip(*args) if args else itertools.repeat(())))

    def func(self, name, args):
        # A signature's functions take at least one argument.
        return tuple(map(dict.__getitem__, self.funcs[name], zip(*args)))


def eval_on_integral(phi, field_, assignment=None, limit=DEFAULT_CHOICE_LIMIT):
    """Exact value of phi on the direct integral of the field.

    This is structure.eval_formula on the integral seen as a structure:
    Sup/Inf range over all choice functions of the field (at most limit
    of them), and run their body compiled past the first
    structure.INTERPRETED_POINTS of them; Atomic integrates the fiberwise
    table values.  Each assigned IntegralElement enters as its row of
    points in atom order.
    """
    # Refused here too: a quantifier-free phi never reads the limit.
    _refuse_over_limit(0, limit, "choice-function")
    rows = {var: tuple(map(e.choice.__getitem__, field_.space.atoms))
            for var, e in (assignment or {}).items()}
    return st.eval_formula(phi, _Integral(field_, limit), rows)


def fiber_values(zeta, field_, assignment=None):
    """The fiberwise value of zeta at each atom, in atom order.

    zeta is evaluated fiberwise, one structure.eval_formula call per atom:
    its quantifiers range within each fiber, not over choice functions,
    so on a fiber of at most structure.INTERPRETED_POINTS points (every
    fiber of the acceptance suite has at most 3) they are interpreted and
    nothing is compiled.  Every level set of zeta under this assignment is
    a threshold of this one table.
    """
    assignment = assignment or {}
    return tuple(
        st.eval_formula(zeta, field_.fibers[w], _fiber_assignment(assignment, w))
        for w in field_.space.atoms
    )


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
                     Fraction(t), strict=strict)


def theory_distribution(field_, sentences, thresholds):
    """mu of the atoms where every sentence's fiber value exceeds its
    threshold strictly."""
    sentences = list(sentences)
    thresholds = [Fraction(r) for r in thresholds]
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
    _refuse_over_limit(entries, limit, "materialized table entry")
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
