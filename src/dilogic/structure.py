"""Finite metric structures with exact formula evaluation.

Points are named; the metric, predicate tables, and function tables are
given extensionally with rational values.  Quantifiers range over the
point set exactly, so sup/inf are max/min.

The evaluator reads a structure only through `points` (the quantifier
domain), `pred(name, args)` and `func(name, args)`, so it also evaluates
formulas on the direct integral of a field (see integral.eval_on_integral).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import formula as fm
from .errors import EvaluationError, ValidationError
from .mba import refuse_over_budget


@dataclass(frozen=True)
class FiniteMetricStructure:
    signature: fm.Signature
    points: tuple
    dist: dict        # (p, q) -> Fraction
    preds: dict       # name -> {point tuple -> Fraction}
    funcs: dict = field(default_factory=dict)  # name -> {point tuple -> point}

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))

    def d(self, p, q):
        return self.dist[(p, q)]

    def pred(self, name, args):
        return self.preds[name][args]

    def func(self, name, args):
        return self.funcs[name][args]


def _tuples(points, arity):
    return itertools.product(points, repeat=arity)


def validate(M):
    """Check all structure invariants; return None on pass, else a message."""
    if not M.points:
        return "structure has no points"
    if len(set(M.points)) != len(M.points):
        return "duplicate point names"
    pts = M.points
    for p, q in _tuples(pts, 2):
        if (p, q) not in M.dist:
            return f"missing distance ({p},{q})"
        d = M.dist[(p, q)]
        if not 0 <= d <= 1:
            return f"distance d({p},{q})={d} outside [0,1]"
        if (p == q) != (d == 0):
            return f"d({p},{q})={d} violates identity of indiscernibles"
        if d != M.dist[(q, p)]:
            return f"d({p},{q}) != d({q},{p})"
    for p, q, r in _tuples(pts, 3):
        if M.dist[(p, r)] > M.dist[(p, q)] + M.dist[(q, r)]:
            return f"triangle inequality fails at ({p},{q},{r})"
    for name, arity in M.signature.predicates:
        table = M.preds.get(name)
        if table is None:
            return f"missing table for predicate {name!r}"
        for tup in _tuples(pts, arity):
            if tup not in table:
                return f"predicate {name!r} undefined at {tup}"
            v = table[tup]
            if not 0 <= v <= 1:
                return f"predicate {name!r} value {v} outside [0,1] at {tup}"
        msg = _check_lipschitz_pred(M, name, arity, table)
        if msg:
            return msg
    for name, arity in M.signature.functions:
        table = M.funcs.get(name)
        if table is None:
            return f"missing table for function {name!r}"
        for tup in _tuples(pts, arity):
            if tup not in table:
                return f"function {name!r} undefined at {tup}"
            if table[tup] not in pts:
                return f"function {name!r} maps {tup} outside the point set"
        msg = _check_lipschitz_func(M, name, arity, table)
        if msg:
            return msg
    return None


def _coordinate_variants(M, tup, i):
    for q in M.points:
        if q != tup[i]:
            yield tup[:i] + (q,) + tup[i + 1:]


def _check_lipschitz_pred(M, name, arity, table):
    for tup in _tuples(M.points, arity):
        for i in range(arity):
            for other in _coordinate_variants(M, tup, i):
                if abs(table[tup] - table[other]) > M.dist[(tup[i], other[i])]:
                    return (
                        f"predicate {name!r} not 1-Lipschitz in coordinate {i}"
                        f" between {tup} and {other}"
                    )
    return None


def _check_lipschitz_func(M, name, arity, table):
    for tup in _tuples(M.points, arity):
        for i in range(arity):
            for other in _coordinate_variants(M, tup, i):
                if M.dist[(table[tup], table[other])] > M.dist[(tup[i], other[i])]:
                    return (
                        f"function {name!r} not 1-Lipschitz in coordinate {i}"
                        f" between {tup} and {other}"
                    )
    return None


def ensure_valid(M):
    msg = validate(M)
    if msg is not None:
        raise ValidationError(msg)
    return M


def eval_term(term, M, assignment):
    if isinstance(term, fm.Var):
        try:
            return assignment[term.name]
        except KeyError:
            raise EvaluationError(f"variable {term.name!r} has no assignment") from None
    return M.func(term.func, tuple(eval_term(a, M, assignment) for a in term.args))


def eval_formula(phi, M, assignment=None):
    """Exact rational value of phi in M under the assignment."""
    assignment = assignment or {}
    if isinstance(phi, fm.Atomic):
        return M.pred(phi.pred, tuple(eval_term(t, M, assignment) for t in phi.args))
    if isinstance(phi, fm.Const):
        return phi.value
    if isinstance(phi, fm.Half):
        return eval_formula(phi.body, M, assignment) / 2
    if isinstance(phi, fm.TruncSub):
        v = eval_formula(phi.left, M, assignment) - eval_formula(phi.right, M, assignment)
        return max(Fraction(0), v)
    if isinstance(phi, (fm.Sup, fm.Inf)):
        # Over a generator, not a list: the domain of a direct integral
        # can hold up to integral.DEFAULT_CHOICE_LIMIT choice functions.
        pick = max if isinstance(phi, fm.Sup) else min
        return pick(eval_formula(phi.body, M, {**assignment, phi.var: p})
                    for p in M.points)
    raise TypeError(f"not a formula: {phi!r}")


def theory_norm(phi, M):
    """Max of eval_formula over all assignments of phi's free variables."""
    names = sorted(fm.free_vars(phi))
    refuse_over_budget(len(M.points) ** len(names), "theory_norm assignment")
    best = Fraction(0)
    for combo in itertools.product(M.points, repeat=len(names)):
        v = eval_formula(phi, M, dict(zip(names, combo)))
        if v > best:
            best = v
    return best


def is_isomorphic(M, N):
    """Search for a distance- and table-preserving bijection M -> N.

    Returns the bijection as a dict, or None.  Exhaustive over point
    permutations, so intended for small structures only: n! permutations
    over the budget are refused.
    """
    if M.signature != N.signature:
        return None
    if len(M.points) != len(N.points):
        return None
    refuse_over_budget(math.factorial(len(M.points)), "point permutation")
    for perm in itertools.permutations(N.points):
        b = dict(zip(M.points, perm))
        if _is_iso(M, N, b):
            return b
    return None


def _is_iso(M, N, b):
    for p, q in _tuples(M.points, 2):
        if M.dist[(p, q)] != N.dist[(b[p], b[q])]:
            return False
    for name, arity in M.signature.predicates:
        for tup in _tuples(M.points, arity):
            if M.preds[name][tup] != N.preds[name][tuple(b[p] for p in tup)]:
                return False
    for name, arity in M.signature.functions:
        for tup in _tuples(M.points, arity):
            if b[M.funcs[name][tup]] != N.funcs[name][tuple(b[p] for p in tup)]:
                return False
    return True
