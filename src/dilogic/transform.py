"""Compilation of metric formulas into measure-algebra formulas.

transform(phi, k) produces a finite formula set F[phi], a level table, and
a coordinatewise-increasing measure-algebra formula G over set variables
indexed by (formula, threshold, comparison mode).  The intended value of
the variable (zeta, t, strict) on a direct integral is the level set of
zeta at threshold t; determination_check wires these level sets in and
certifies that G's value pins down the integral value of phi to 2/k.
"""

from __future__ import annotations

import itertools
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


def _min_pair(a, b):
    # min(a, b) = a -. (a -. b), exact on [0,1]
    return fm.TruncSub(a, fm.TruncSub(a, b))


def _min_fold(items):
    out = items[0]
    for item in items[1:]:
        out = _min_pair(out, item)
    return out


def xi_formula(var, alpha):
    """xi_alpha = sup_y min over (zeta, c) in alpha of (zeta -. c).

    Truncated subtraction replaces plain subtraction so the range stays in
    [0,1]; the strict-positivity level set at 0 is unchanged.
    """
    items = [fm.TruncSub(zeta, fm.Const(c)) for zeta, c in alpha]
    return fm.canonicalize(fm.Sup(var, _min_fold(items)))


@dataclass(frozen=True)
class TransformResult:
    k: int
    formulas: tuple        # ordered F[phi]
    levels: dict           # formula -> integer level l >= 1
    g: object              # MbaFormula over SetVarIndex variables
    variables: frozenset   # declared SetVarIndex set (g may ignore some)


def _formula_key(zeta):
    return fm.to_text(zeta)


class _Builder:
    def __init__(self, budget_c, budget_vars):
        self.budget_c = budget_c
        self.budget_vars = budget_vars
        self.memo = {}
        self.next_binder = 0
        # One threshold grid per level, shared by the tens of thousands of
        # variables a large compile declares.
        self.grids = {}

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
            raise InputError("Inf nodes must be removed with rewrite_inf first")
        raise TypeError(f"not a formula: {phi!r}")

    # Each case returns a finished TransformResult; helpers below assemble
    # the shared (formulas, variables) bookkeeping.

    def _finish(self, k, levels, g):
        formulas = tuple(sorted(levels, key=_formula_key))
        variables = set(mba.free_set_vars(g))
        for zeta in formulas:
            variables |= self._strict_grid(zeta, levels[zeta])
        if len(variables) > self.budget_vars:
            raise BudgetError(
                f"declared set-variable count {len(variables)} exceeds budget "
                f"{self.budget_vars}"
            )
        return TransformResult(k, formulas, dict(levels), g, frozenset(variables))

    def _strict_grid(self, zeta, level):
        if level not in self.grids:
            self.grids[level] = [Fraction(i, level) for i in range(level)]
        return {mba.SetVarIndex(zeta, t, True) for t in self.grids[level]}

    def _atomic(self, phi, k):
        levels = {phi: k}
        terms = [
            mba.Measure(mba.SetVar(mba.SetVarIndex(phi, Fraction(i, k), True)))
            for i in range(1, k)
        ]
        acc = mba.Const(0) if not terms else terms[0]
        for t in terms[1:]:
            acc = mba.Add(acc, t)
        g = mba.Scale(Fraction(1, k), acc)
        return self._finish(k, levels, g)

    def _merge_levels(self, *level_maps):
        # Levels are all k * 3^j for one base k, so colliding entries merge
        # to the larger, whose threshold grid contains the smaller's.
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
        for v in mba.free_set_vars(right.g):
            neg = one_minus(v.tag)
            w = mba.SetVarIndex(neg, 1 - v.level, not v.strict)
            mapping[v] = mba.Compl(mba.SetVar(w))
        for zeta, lev in right.levels.items():
            right_levels[one_minus(zeta)] = lev
        g = mba.TruncSub(left.g, mba.substitute_set_vars(right.g, mapping))
        levels = self._merge_levels(left.levels, right_levels)
        return self._finish(k, levels, g)

    def _sup(self, phi, k):
        inner = self.build(phi.body, k)
        if any(not v.strict for v in mba.free_set_vars(inner.g)):
            # A joint witness point can only be certified to beat a
            # nonstrict threshold by the grid step below it; compiling the
            # body at doubled precision absorbs that one-step slack inside
            # the body's own determination margin.
            inner = self.build(phi.body, 2 * k)
        tags = inner.formulas
        grid_sizes = [inner.levels[z] for z in tags]
        inner_vars = sorted(mba.free_set_vars(inner.g), key=mba.var_sort_key)
        mentioned_by_tag = {}
        for zeta in tags:
            # Bound slots: the variables of this tag the inner formula
            # actually reads, ordered so intended level sets decrease
            # (higher threshold later; >= before > at equal threshold).
            mentioned = [v for v in inner_vars if v.tag == zeta]
            mentioned.sort(key=lambda v: (v.level, v.strict))
            mentioned_by_tag[zeta] = mentioned
        c_size = 1
        for lev in grid_sizes:
            c_size *= lev + 1
        c_size -= 1
        profile_size = 1
        for zeta in tags:
            profile_size *= len(mentioned_by_tag[zeta]) + 1
        profile_size -= 1
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
        per_tag = []
        for zeta, lev in zip(tags, grid_sizes):
            choices = [None] + [Fraction(i, lev) for i in range(lev)]
            per_tag.append(choices)
        xi_levels = {}
        xi_of_alpha = {}
        for combo in itertools.product(*per_tag):
            alpha = tuple(
                (zeta, c) for zeta, c in zip(tags, combo) if c is not None
            )
            if not alpha:
                continue
            xi = xi_formula(phi.var, alpha)
            lev = max(inner.levels[zeta] for zeta, _c in alpha)
            xi_levels[xi] = max(lev, xi_levels.get(xi, 1))
            xi_of_alpha[alpha] = xi

        def xi_var(alpha):
            return mba.SetVar(mba.SetVarIndex(xi_of_alpha[alpha], Fraction(0), True))

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

    phi must be inf-free (apply rewrite_inf first); k >= 2.  Raises
    BudgetError when the index-set or variable blowup exceeds the budgets.
    """
    if k < 2:
        raise InputError(f"k must be >= 2, got {k}")
    if fm.contains_inf(phi):
        raise InputError("Inf nodes must be removed with rewrite_inf first")
    return _Builder(budget_c, budget_vars).build(phi, k)


def build_level_assignment(result, field_, assignment=None):
    """Intended value of every declared variable: the level set of its tag
    formula at its threshold, in its comparison mode.

    Each distinct tag is evaluated once per atom, and its level sets are
    thresholds of that one value table.  Variables come in var_sort_key
    order, with each tag rendered as text once.
    """
    by_tag = {}
    for v in result.variables | mba.free_set_vars(result.g):
        by_tag.setdefault(v.tag, []).append(v)
    out = {}
    for tag in sorted(by_tag, key=str):
        values = di.fiber_values(tag, field_, assignment)
        for v in sorted(by_tag[tag], key=lambda v: (v.level, v.strict)):
            mode = di.STRICT if v.strict else di.NONSTRICT
            out[v] = di.threshold(values, field_, v.level, mode)
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
                        budget_c=DEFAULT_BUDGET_C, budget_vars=DEFAULT_BUDGET_VARS,
                        limit=di.DEFAULT_CHOICE_LIMIT, result=None, assign=None):
    """Certify the two determination implications for one instance.

    For every integer l: value > l/k implies G > (l-1)/k, and G > l/k
    implies value > (l-1)/k; together these force |value - G| <= 2/k,
    which is asserted as well.  result and assign, when given, are the
    transform of phi and its build_level_assignment on this field.
    """
    phi = fm.rewrite_inf(phi)
    if result is None:
        result = transform(phi, k, budget_c, budget_vars)
    v = di.eval_on_integral(phi, field_, assignment, limit)
    if assign is None:
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
    each other; all l+1 thresholds compare those two value tables.
    """
    values = di.fiber_values(zeta, field_, assignment)
    neg_values = di.fiber_values(one_minus(zeta), field_, assignment)
    for i in range(level + 1):
        t = Fraction(i, level)
        strict = di.threshold(values, field_, t, di.STRICT)
        nonstrict = di.threshold(neg_values, field_, 1 - t, di.NONSTRICT)
        if strict != field_.space.full - nonstrict:
            return False
    return True


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
