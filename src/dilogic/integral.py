"""Direct integrals of finite metric structures over finite probability
spaces.

Elements of the integral are choice functions (one point per atom of the
space).  The metric and predicates integrate fiberwise values against the
atom weights; functions act fiberwise.  Quantifiers on the integral range
over all choice functions, so evaluation here is the brute-force oracle
against which the compiled measure-algebra formulas are checked.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from . import formula as fm
from . import structure as st
from .errors import EvaluationError, InputError, ValidationError
from .mba import FiniteMeasureAlgebra

# A finite probability space is exactly a finite measure algebra: ordered
# atoms with positive rational weights summing to 1.
FiniteProbabilitySpace = FiniteMeasureAlgebra

STRICT = "strict"
NONSTRICT = "nonstrict"

DEFAULT_CHOICE_LIMIT = 10**6


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

    def element_count(self):
        n = 1
        for a in self.space.atoms:
            n *= len(self.fibers[a].points)
        return n

    def elements(self, limit=DEFAULT_CHOICE_LIMIT):
        """All choice functions, in fiber point order; guarded by limit."""
        if limit is not None and self.element_count() > limit:
            raise EvaluationError(
                f"choice-function count {self.element_count()} exceeds limit {limit}"
            )
        atoms = self.space.atoms
        for combo in itertools.product(*[self.fibers[a].points for a in atoms]):
            yield IntegralElement(dict(zip(atoms, combo)))


@dataclass(frozen=True)
class IntegralElement:
    choice: dict  # atom -> point

    def __post_init__(self):
        object.__setattr__(self, "choice", dict(self.choice))

    def __call__(self, atom):
        return self.choice[atom]

    def __hash__(self):
        return hash(tuple(sorted(self.choice.items(), key=lambda kv: str(kv[0]))))

    def __eq__(self, other):
        return isinstance(other, IntegralElement) and self.choice == other.choice


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


def integral_dist_tuple(field_, xs, ys):
    return max(
        (integral_dist(field_, x, y) for x, y in zip(xs, ys)), default=Fraction(0)
    )


def _fiber_assignment(assignment, atom):
    return {name: e(atom) for name, e in assignment.items()}


def eval_on_integral(phi, field_, assignment=None, limit=DEFAULT_CHOICE_LIMIT):
    """Exact value of phi on the direct integral of the field.

    Sup/Inf range over all choice functions of the field; Atomic
    integrates the fiberwise table values.  Inf nodes are rewritten away
    first, which preserves the value.
    """
    phi = fm.rewrite_inf(phi)
    assignment = assignment or {}
    return _eval_integral(phi, field_, assignment, limit)


def _eval_integral(phi, field_, assignment, limit):
    if isinstance(phi, fm.Atomic):
        total = Fraction(0)
        for w in field_.space.atoms:
            M = field_.fibers[w]
            local = _fiber_assignment(assignment, w)
            args = tuple(st.eval_term(t, M, local) for t in phi.args)
            total += field_.space.weights[w] * M.preds[phi.pred][args]
        return total
    if isinstance(phi, fm.Const):
        return phi.value
    if isinstance(phi, fm.Half):
        return _eval_integral(phi.body, field_, assignment, limit) / 2
    if isinstance(phi, fm.TruncSub):
        v = (_eval_integral(phi.left, field_, assignment, limit)
             - _eval_integral(phi.right, field_, assignment, limit))
        return max(Fraction(0), v)
    if isinstance(phi, fm.Sup):
        best = None
        for e in field_.elements(limit):
            inner = dict(assignment)
            inner[phi.var] = e
            v = _eval_integral(phi.body, field_, inner, limit)
            if best is None or v > best:
                best = v
        return best
    raise TypeError(f"not an inf-free formula: {phi!r}")


def fiber_values(zeta, field_, assignment=None):
    """The fiberwise value of zeta at each atom, in atom order.

    zeta is evaluated fiberwise: its quantifiers range within each fiber,
    not over choice functions.  Every level set of zeta under this
    assignment is a threshold of this one table.
    """
    assignment = assignment or {}
    return tuple(
        st.eval_formula(zeta, field_.fibers[w], _fiber_assignment(assignment, w))
        for w in field_.space.atoms
    )


def threshold(values, field_, t, strictness=STRICT):
    """Atoms whose entry of a fiber_values table exceeds the rational t.

    Strict compares with >, nonstrict with >=.
    """
    if strictness == STRICT:
        return frozenset(w for w, v in zip(field_.space.atoms, values) if v > t)
    if strictness == NONSTRICT:
        return frozenset(w for w, v in zip(field_.space.atoms, values) if v >= t)
    raise InputError(f"unknown strictness {strictness!r}")


def level_set(zeta, field_, assignment, t, strictness=STRICT):
    """Atoms where the fiberwise value of zeta exceeds t: the threshold at
    t of zeta's fiber_values table."""
    return threshold(fiber_values(zeta, field_, assignment), field_,
                     Fraction(t), strictness)


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
    out = set()
    for w in field_.space.atoms:
        M = field_.fibers[w]
        if all(st.eval_formula(phi, M) > r for phi, r in zip(sentences, thresholds)):
            out.add(w)
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
    tiny instances: the point count is the product of the fiber sizes.
    """
    atoms = field_.space.atoms
    elements = list(field_.elements(limit))
    names = [tuple(e(a) for a in atoms) for e in elements]
    by_name = dict(zip(names, elements))
    dist = {}
    for n1, e1 in by_name.items():
        for n2, e2 in by_name.items():
            dist[(n1, n2)] = integral_dist(field_, e1, e2)
    sig = field_.signature
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
