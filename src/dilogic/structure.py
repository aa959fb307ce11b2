"""Finite metric structures with exact formula evaluation.

Points are named; the metric, predicate tables, and function tables are
given extensionally with rational values.  Quantifiers range over the
point set exactly, so sup/inf are max/min.

The evaluator computes in integers.  It reads a model only through
`points` (the quantifier domain), `den`, `scaled_pred(name, args)` (the
predicate value times den, an int), `func(name, args)` and `sweep`, so it
also evaluates formulas on the direct integral of a field (see
integral.eval_on_integral).  A structure's den is the lcm of its
predicate-value denominators, and its integer tables are built once, on
first use; a structure is not changed once built.  Each eval_formula call
walks phi once for its unit, the lcm over the leaves of 2^(Half nodes
above the leaf) times the leaf's Const denominator, and computes every
subformula's value times the scale S = den * unit as an integer: Half is
the exact // 2, truncated subtraction max(0, a - b), and the result is
one Fraction over S.  A min fold a -. (a -. b) whose two a are one
object, as transform writes min(a, b) for a binder-free item a of an xi
and its accumulator b, is evaluated as min(a, b), so a is evaluated
once; on integers >= 0 the two are equal.

A model's sweep is None, or a function that gives a quantifier-free
body's values at every point at once (the direct integral's,
integral._Integral.sweep).  So a Sup or Inf is evaluated in one of two
ways: when the model has a sweep and its body is quantifier-free, it
takes the max or min of the sweep; otherwise it binds each point of its
domain in turn and interprets its body there.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import formula as fm
from .errors import EXACT_TYPES, EvaluationError, ValidationError, refuse_over


@dataclass(frozen=True)
class FiniteMetricStructure:
    signature: fm.Signature
    points: tuple
    dist: dict        # (p, q) -> Fraction
    preds: dict       # name -> {point tuple -> Fraction}
    funcs: dict = field(default_factory=dict)  # name -> {point tuple -> point}

    # No sweep: eval_formula interprets a quantifier's body at each point.
    sweep = None

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))

    def d(self, p, q):
        return self.dist[(p, q)]

    @functools.cached_property
    def den(self):
        """The lcm of the predicate-value denominators."""
        return math.lcm(*(v.denominator for table in self.preds.values()
                          for v in table.values()))

    @functools.cached_property
    def _scaled_preds(self):
        den = self.den
        return {name: {args: v.numerator * (den // v.denominator)
                       for args, v in table.items()}
                for name, table in self.preds.items()}

    def scaled_pred(self, name, args):
        """The predicate value at args times den, an int."""
        return self._scaled_preds[name][args]

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
        if type(d) not in EXACT_TYPES:
            return f"distance d({p},{q})={d!r} is not an int or a Fraction"
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
            if type(v) not in EXACT_TYPES:
                return (f"predicate {name!r} value {v!r} at {tup} is not an"
                        " int or a Fraction")
            if not 0 <= v <= 1:
                return f"predicate {name!r} value {v} outside [0,1] at {tup}"
        msg = _check_lipschitz(M, "predicate", name, arity, table,
                               lambda u, v: abs(u - v))
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
        msg = _check_lipschitz(M, "function", name, arity, table,
                               lambda p, q: M.dist[(p, q)])
        if msg:
            return msg
    return None


def _check_lipschitz(M, kind, name, arity, table, gap):
    """The first tuple pair differing in one coordinate i whose table
    entries are further apart by gap than d(tup[i], other[i]), as a
    message; None when there is none."""
    for tup in _tuples(M.points, arity):
        for i, p in enumerate(tup):
            for q in M.points:
                other = tup[:i] + (q,) + tup[i + 1:]
                if q != p and gap(table[tup], table[other]) > M.dist[(p, q)]:
                    return (f"{kind} {name!r} not 1-Lipschitz in coordinate {i}"
                            f" between {tup} and {other}")
    return None


def ensure_valid(M):
    msg = validate(M)
    if msg is not None:
        raise ValidationError(msg)
    return M


def eval_term(term, M, assignment):
    if type(term) is fm.Var:
        try:
            return assignment[term.name]
        except KeyError:
            raise EvaluationError(f"variable {term.name!r} has no assignment") from None
    return M.func(term.func, tuple(eval_term(a, M, assignment) for a in term.args))


def _unit(phi, above=1):
    """The lcm, over the Atomic and Const leaves of phi, of 2^(the Half
    nodes above the leaf) times the leaf's own denominator (1 for an
    Atomic).  Times a model's den, it is the scale S at which every
    subformula's value is an integer: the body of a Half is then even."""
    t = type(phi)
    if t is fm.Atomic:
        return above
    if t is fm.Const:
        return above * phi.value.denominator
    if t is fm.Half:
        return _unit(phi.body, 2 * above)
    if t is fm.TruncSub:
        right = phi.right
        if type(right) is fm.TruncSub and right.left is phi.left:
            right = right.right  # the min fold's copy adds no leaf
        return math.lcm(_unit(phi.left, above), _unit(right, above))
    if t is fm.Sup or t is fm.Inf:
        return _unit(phi.body, above)
    raise TypeError(f"not a formula: {phi!r}")


def _quantifier_free(phi):
    t = type(phi)
    if t is fm.Half:
        return _quantifier_free(phi.body)
    if t is fm.TruncSub:
        return _quantifier_free(phi.left) and _quantifier_free(phi.right)
    return t is fm.Atomic or t is fm.Const


_UNBOUND = object()


def _bodies(env, var, points, body):
    """Yield body once per point of points, with var bound to that point
    in env until the next is drawn; after the last, put var's outer
    binding back.  So map(value, _bodies(...)) evaluates body at each
    point in turn."""
    outer = env.get(var, _UNBOUND)
    for p in points:
        env[var] = p
        yield body
    if outer is _UNBOUND:
        del env[var]
    else:
        env[var] = outer


def eval_formula(phi, M, assignment=None):
    """Exact rational value of phi in M under the assignment: an integer
    over the scale S = M.den * unit (see the module docstring)."""
    return _eval_at_unit(phi, M, assignment, _unit(phi))


def _eval_at_unit(phi, M, assignment, unit):
    """eval_formula with phi's _unit given, so a caller that evaluates one
    phi in many models walks for it once."""
    scale = M.den * unit
    scaled_pred = M.scaled_pred
    env = dict(assignment) if assignment else {}

    def value(phi):
        t = type(phi)
        if t is fm.Atomic:
            try:
                args = tuple([env[a.name] if type(a) is fm.Var
                              else eval_term(a, M, env) for a in phi.args])
            except KeyError:
                # eval_term raises the error of the first argument that
                # fails: an unassigned variable is an EvaluationError.
                args = tuple([eval_term(a, M, env) for a in phi.args])
            return scaled_pred(phi.pred, args) * unit
        if t is fm.Const:
            return phi.value.numerator * (scale // phi.value.denominator)
        if t is fm.Half:
            return value(phi.body) // 2
        if t is fm.TruncSub:
            left, right = phi.left, phi.right
            if type(right) is fm.TruncSub and right.left is left:
                # a -. (a -. b) is min(a, b) on integers >= 0.
                a, b = value(left), value(right.right)
                return a if a < b else b
            v = value(left) - value(right)
            return v if v > 0 else 0
        # phi is a Sup or an Inf: _unit has rejected every other type.
        var, body, pick = phi.var, phi.body, max if t is fm.Sup else min
        if M.sweep is not None and _quantifier_free(body):
            return pick(M.sweep(body, var, env, unit, scale))
        # The domain is a generator, not a list: a direct integral's can
        # hold up to integral.DEFAULT_CHOICE_LIMIT choice functions.
        return pick(map(value, _bodies(env, var, M.points, body)))

    return Fraction(value(phi), scale)


def theory_norm(phi, M):
    """Max of eval_formula over all assignments of phi's free variables."""
    names = sorted(fm.free_vars(phi))
    refuse_over(len(M.points) ** len(names), "theory_norm assignment count")
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
    refuse_over(math.factorial(len(M.points)), "point permutation count")
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
