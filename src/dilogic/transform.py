"""Compilation of metric formulas into measure-algebra formulas.

transform(phi, k) produces a finite formula set F[phi], a level table, and
a coordinatewise-increasing measure-algebra formula G over set variables
indexed by (formula, threshold, comparison mode).  The intended value of
the variable (zeta, t, strict) on a direct integral is the level set of
zeta at threshold t; determination_check wires these level sets in and
certifies that G's value pins down the integral value of phi to 2/k.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import formula as fm
from . import integral as di
from . import mba
from .errors import BudgetError, InputError

DEFAULT_BUDGET_C = 4096
DEFAULT_BUDGET_VARS = 4096


def one_minus(zeta):
    return fm.TruncSub(fm.Const(1), zeta)


def _xi_direct(var, alpha, free, binders, items):
    """xi_alpha = sup_y min over (zeta, c) in alpha of (zeta -. c), built
    in the canonical form fm.canonicalize would give it, without its walk.

    Truncated subtraction replaces plain subtraction so the range stays in
    [0,1]; the strict-positivity level set at 0 is unchanged.

    The min folds the items left to right by min(a, b) = a -. (a -. b),
    exact on [0,1].  canonicalize numbers binders y0, y1, ... in pre-order
    and skips every free variable of alpha's tags (free[zeta]: zeta's own
    but var).  So the Sup takes the first free name, and each occurrence of
    a tag in the expanded fold takes the next binders[zeta] names for its
    own binders, in its pre-order.  The fold repeats its accumulator a, so
    the two copies of an accumulator that binds a variable take different
    names; a binder-free accumulator is one shared object.  items caches
    each renamed tag by (zeta, Sup name, binder names), paired with the
    whole items zeta -. c over that copy, by c.
    """
    taken = set().union(*(free[zeta] for zeta, _c in alpha))
    names = fm.binder_names(taken)
    name = next(names)

    def item(zeta, c):
        key = (zeta, name, tuple(itertools.islice(names, binders[zeta])))
        if key not in items:
            items[key] = (fm.rename(zeta, {var: name}, iter(key[2])), {})
        renamed, by_c = items[key]
        out = by_c.get(c)
        if out is None:
            out = by_c[c] = fm.TruncSub(renamed, fm.Const(c))
        return out

    def fold(n):
        # The min of alpha's first n items, naming binders in pre-order:
        # the accumulator's, then its copy's, then the next item's.
        acc = item(*alpha[0])
        bound = binders[alpha[0][0]]
        for m in range(1, n):
            copy = fold(m) if bound else acc
            zeta, c = alpha[m]
            acc = fm.TruncSub(acc, fm.TruncSub(copy, item(zeta, c)))
            bound = bound or binders[zeta]
        return acc

    return fm.Sup(name, fold(len(alpha)))


@dataclass(frozen=True)
class TransformResult:
    """F[phi] (the keys of `levels`; `formulas` is their text order, the
    one tag order, rendered once in `formula_texts`), its levels and G.
    The declared set is G's variables plus the strict grid (zeta, i/l, >),
    0 <= i < l, of each formula zeta of level l.  Only G's variables get
    level sets.

    G is walked once for its variables, by `vars_by_tag`; the budget
    check, the compiler's rewiring and bound slots, the document's
    declared set and build_level_assignment all read that one walk.  The
    document writes the declared set from `levels` and `off_grid_vars`;
    the `variables` set serves tests and counters only."""

    k: int
    levels: dict           # formula -> integer level l >= 1
    g: object              # MbaFormula over SetVarIndex variables

    @functools.cached_property
    def formula_texts(self):
        """{zeta: fm.to_text(zeta)} over F, in text order (no two share one)."""
        texts = {zeta: fm.to_text(zeta) for zeta in self.levels}
        return dict(sorted(texts.items(), key=lambda item: item[1]))

    @functools.cached_property
    def formulas(self):
        return tuple(self.formula_texts)

    @functools.cached_property
    def vars_by_tag(self):
        """mba.vars_by_tag(self.g), computed once."""
        return mba.vars_by_tag(self.g)

    @property
    def off_grid_vars(self):
        """G's variables off the strict grids: nonstrict, or at a threshold
        no grid of their tag holds."""
        levels = self.levels
        return [v for vs in self.vars_by_tag.values() for v in vs
                if not (v.strict and v.tag in levels and 0 <= v.level < 1
                        and levels[v.tag] % v.level.denominator == 0)]

    @property
    def declared_count(self):
        """len(variables) in closed form: every grid, plus off_grid_vars."""
        return sum(self.levels.values()) + len(self.off_grid_vars)

    @functools.cached_property
    def variables(self):
        variables = {v for vs in self.vars_by_tag.values() for v in vs}
        grids = {}  # one threshold grid per level, shared by its variables
        for zeta in self.formulas:
            level = self.levels[zeta]
            if level not in grids:
                grids[level] = [Fraction(i, level) for i in range(level)]
            variables |= {mba.SetVarIndex(zeta, t, True) for t in grids[level]}
        return frozenset(variables)


class _Builder:
    def __init__(self, budget_c, budget_vars):
        self.budget_c = budget_c
        self.budget_vars = budget_vars
        self.memo = {}
        self.next_binder = 0

    def fresh_binder(self):
        b = self.next_binder
        self.next_binder += 1
        return b

    def build(self, phi, k):
        key = (phi, k)
        if key not in self.memo:
            self.memo[key] = self._build(phi, k)
        return self.memo[key]

    def _build(self, phi, k):
        if isinstance(phi, (fm.Atomic, fm.Const)):
            return self._atomic(phi, k)
        if isinstance(phi, fm.Half):
            inner = self.build(phi.body, k)
            return self._finish(k, inner.levels, mba.Scale(Fraction(1, 2), inner.g))
        if isinstance(phi, fm.TruncSub):
            return self._truncsub(phi, k)
        if isinstance(phi, fm.Sup):
            return self._sup(phi, k)
        if isinstance(phi, fm.Inf):
            return self.build(fm.rewrite_inf(phi), k)
        raise TypeError(f"not a formula: {phi!r}")

    # Each case returns a finished TransformResult, checked against the
    # variable budget without building its declared set.

    def _finish(self, k, levels, g):
        result = TransformResult(k, dict(levels), g)
        count = result.declared_count
        if count > self.budget_vars:
            raise BudgetError(
                f"declared set-variable count {count} exceeds budget "
                f"{self.budget_vars}"
            )
        return result

    def _atomic(self, phi, k):
        levels = {phi: k}
        terms = [
            mba.Measure(mba.SetVarIndex(phi, Fraction(i, k), True))
            for i in range(1, k)
        ]
        acc = mba.Const(0) if not terms else terms[0]
        for t in terms[1:]:
            acc = mba.Add(acc, t)
        g = mba.Scale(Fraction(1, k), acc)
        return self._finish(k, levels, g)

    def _merge_levels(self, *level_maps):
        # Levels are k * 2^i * 3^j for one base k (ratio 6 occurs), so two
        # need not divide each other.  A collision merges to the larger;
        # none occurs on the compile panel or the acceptance suite.
        out = {}
        for m in level_maps:
            for zeta, lev in m.items():
                out[zeta] = max(lev, out.get(zeta, 1))
        return out

    def _truncsub(self, phi, k):
        left = self.build(phi.left, 3 * k)
        right = self.build(phi.right, 3 * k)
        # The right branch is rewired through the complement identity
        #   {zeta > t} = complement of {1 - zeta >= 1 - t},
        # so G stays coordinatewise increasing in the new variables.
        mapping = {}
        right_levels = {}
        for tag, variables in right.vars_by_tag.items():
            neg = one_minus(tag)
            for v in variables:
                mapping[v] = mba.Compl(
                    mba.SetVarIndex(neg, 1 - v.level, not v.strict))
        for zeta, lev in right.levels.items():
            right_levels[one_minus(zeta)] = lev
        g = mba.TruncSub(left.g, mba.substitute_set_vars(right.g, mapping))
        levels = self._merge_levels(left.levels, right_levels)
        return self._finish(k, levels, g)

    def _sup(self, phi, k):
        inner = self.build(phi.body, k)
        if any(not v.strict for vs in inner.vars_by_tag.values() for v in vs):
            # A joint witness point can only be certified to beat a
            # nonstrict threshold by the grid step below it; compiling the
            # body at doubled precision absorbs that one-step slack inside
            # the body's own determination margin.
            inner = self.build(phi.body, 2 * k)
        by_tag = inner.vars_by_tag
        tags = inner.formulas
        grid_sizes = [inner.levels[z] for z in tags]
        # Bound slots: the variables of each tag the inner formula actually
        # reads, in vars_by_tag order, so intended level sets decrease.
        # Every tag is in F.
        mentioned_by_tag = {zeta: by_tag.get(zeta, []) for zeta in tags}
        c_size = math.prod(lev + 1 for lev in grid_sizes) - 1
        profile_size = math.prod(len(m) + 1 for m in mentioned_by_tag.values()) - 1
        if max(c_size, profile_size) > self.budget_c:
            blowup = " * ".join(f"({lev}+1)" for lev in grid_sizes)
            raise BudgetError(
                f"index-set size {blowup} - 1 = {max(c_size, profile_size)} "
                f"exceeds budget {self.budget_c}"
            )

        def slot_threshold(v):
            # The witness coordinate a slot can certify: its own threshold
            # for a strict slot, the grid step below for a nonstrict one.
            lev = inner.levels[v.tag]
            return v.level if v.strict else v.level - Fraction(1, lev)

        # C: nonempty partial maps from tags to their threshold grids, in a
        # fixed order (per tag: absent, then thresholds ascending).
        per_tag = [[None] + [Fraction(i, lev) for i in range(lev)] for lev in grid_sizes]
        # _xi_direct's tables and item cache live for this call.
        free = {zeta: fm.free_vars(zeta) - {phi.var} for zeta in tags}
        binders = {zeta: sum(type(node) in (fm.Sup, fm.Inf)
                             for node in fm.nodes(zeta))
                   for zeta in tags}
        items = {}
        xi_levels = {}
        xi_of_alpha = {}
        for combo in itertools.product(*per_tag):
            alpha = tuple(
                (zeta, c) for zeta, c in zip(tags, combo) if c is not None
            )
            if not alpha:
                continue
            xi = _xi_direct(phi.var, alpha, free, binders, items)
            lev = max(inner.levels[zeta] for zeta, _c in alpha)
            xi_levels[xi] = max(lev, xi_levels.get(xi, 1))
            xi_of_alpha[alpha] = xi

        def xi_var(alpha):
            return mba.SetVarIndex(xi_of_alpha[alpha], Fraction(0), True)

        binder = self.fresh_binder()
        chains = []
        mapping = {}
        for zeta in tags:
            mentioned = mentioned_by_tag[zeta]
            if not mentioned:
                continue
            bounds = []
            for slot, v in enumerate(mentioned):
                cap = slot_threshold(v)
                lev = inner.levels[zeta]
                terms = [
                    xi_var(((zeta, Fraction(i, lev)),))
                    for i in range(lev)
                    if Fraction(i, lev) <= cap
                ]
                bounds.append(mba.inter_all(terms))
                mapping[v] = mba.ChainVar(binder, zeta, slot)
            chains.append(mba.ChainSpec(zeta, tuple(bounds)))
        # Joint constraints: picking one mentioned slot on each of two or
        # more tags, the intersection of those bound sets must admit a
        # common witness point, i.e. lie inside the level set of the joint
        # supremum formula at the slots' certified coordinates.
        profiles = []
        slot_choices = [
            [None] + list(enumerate(mentioned_by_tag[zeta])) for zeta in tags
        ]
        for combo in itertools.product(*slot_choices):
            picked = [
                (zeta, slot, v)
                for zeta, choice in zip(tags, combo)
                if choice is not None
                for slot, v in [choice]
            ]
            if len(picked) < 2:
                continue
            alpha = tuple((zeta, slot_threshold(v)) for zeta, _slot, v in picked)
            profiles.append(
                mba.ProfileSpec(
                    tuple((zeta, slot) for zeta, slot, _v in picked),
                    xi_var(alpha),
                )
            )
        g = mba.SupChain(
            binder,
            tuple(chains),
            mba.substitute_set_vars(inner.g, mapping),
            tuple(profiles),
        )
        return self._finish(k, xi_levels, g)


def transform(phi, k, budget_c=DEFAULT_BUDGET_C, budget_vars=DEFAULT_BUDGET_VARS):
    """Compile phi at precision k; see the module docstring.

    Inf nodes compile as their rewrite_inf form; k >= 2 and the budgets
    are >= 0.  Raises BudgetError when the index-set or variable blowup
    exceeds the budgets.
    """
    if k < 2:
        raise InputError(f"k must be >= 2, got {k}")
    for name, budget in (("budget_c", budget_c), ("budget_vars", budget_vars)):
        if budget < 0:
            raise InputError(f"{name} must be >= 0, got {budget}")
    return _Builder(budget_c, budget_vars).build(phi, k)


def build_level_assignment(result, field_, assignment=None):
    """Intended value of every variable G reads: the level set of its tag
    formula at its threshold, in its comparison mode.  Declared variables
    G does not read are not assigned.

    Each distinct tag is evaluated once per atom, and its level sets are
    thresholds of that one value table.  Tags come in result.formulas
    order (F tags every variable of G), each in vars_by_tag order, which
    result caches: a second call on one result does not walk G.
    """
    by_tag = result.vars_by_tag
    out = {}
    for tag in result.formulas:
        if tag in by_tag:
            values = di.fiber_values(tag, field_, assignment)
            for v in by_tag[tag]:
                out[v] = di.threshold(values, field_, v.level, strict=v.strict)
    return out


@dataclass(frozen=True)
class DeterminationReport:
    k: int
    integral_value: Fraction
    mba_value: Fraction
    failures: tuple

    @property
    def ok(self):
        return not self.failures


def determination_check(phi, k, field_, assignment=None, mode=mba.MAXIMAL,
                        limit=di.DEFAULT_CHOICE_LIMIT, result=None):
    """Certify the two determination implications for one instance.

    For every integer l: value > l/k implies G > (l-1)/k, and G > l/k
    implies value > (l-1)/k; together these force |value - G| <= 2/k,
    which is asserted as well.  result, when given, is the transform of
    phi, else phi is compiled under the default budgets; G is evaluated
    on the level sets of the variables it reads.
    """
    if result is None:
        result = transform(phi, k)
    v = di.eval_on_integral(phi, field_, assignment, limit)
    assign = build_level_assignment(result, field_, assignment)
    g = mba.eval_mba(result.g, assign, field_.space, mode)
    failures = []
    for l in range(k + 1):
        lo = Fraction(l, k)
        prev = Fraction(l - 1, k)
        if v > lo and not g > prev:
            failures.append(("D.3", l, v, g))
        if g > lo and not v > prev:
            failures.append(("D.4", l, v, g))
    if abs(v - g) > Fraction(2, k):
        failures.append(("gap", None, v, g))
    return DeterminationReport(k, v, g, tuple(failures))


def complement_identity_holds(zeta, level, field_, assignment=None):
    """{zeta > i/l} = complement of {1 - zeta >= (l-i)/l}, for 0 <= i <= l.

    zeta and 1 -. zeta are each evaluated once per atom, independently of
    each other; _complement_tables_agree decides all l+1 thresholds on
    those two value tables.
    """
    return _complement_tables_agree(
        di.fiber_values(zeta, field_, assignment),
        di.fiber_values(one_minus(zeta), field_, assignment), level)


def _threshold_count(num, den, level):
    """How many of the thresholds i/l, 0 <= i <= l, lie below num/den: the
    i < l*num/den form a prefix of 0..l of length ceil(l*num/den),
    clamped to [0, l+1]."""
    return min(level + 1, max(0, -(-level * num // den)))


def _complement_tables_agree(values, neg_values, level):
    """The complement identity at every threshold i/l, decided per atom.

    An atom with value v lies in {zeta > i/l} exactly for the i < l*v, and
    outside {1 - zeta >= 1 - i/l}, where 1 -. zeta has value n, exactly
    for the i < l*(1 - n).  Both are prefixes of 0..l, so the identity
    holds at every i if and only if the two prefixes have equal length at
    every atom."""
    return all(
        _threshold_count(v.numerator, v.denominator, level)
        == _threshold_count(n.denominator - n.numerator, n.denominator, level)
        for v, n in zip(values, neg_values))


def corollary_equivalence_check(field_a, field_b, formulas, assignment_pairs=None):
    """Exact agreement of direct-integral values across two fields.

    Intended for fields with fiberwise-isomorphic structures over the same
    space (for instance relabel_field output).  assignment_pairs matches
    elements of field_a to elements of field_b; sentences need none.
    Returns the list of disagreements (empty means pass).
    """
    pairs = assignment_pairs or [({}, {})]
    bad = []
    for phi in formulas:
        for asg_a, asg_b in pairs:
            va = di.eval_on_integral(phi, field_a, asg_a)
            vb = di.eval_on_integral(phi, field_b, asg_b)
            if va != vb:
                bad.append((phi, asg_a, asg_b, va, vb))
    return bad
