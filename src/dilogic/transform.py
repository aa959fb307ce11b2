"""Compilation of metric formulas into measure-algebra formulas.

transform(phi, k) produces a finite formula set F[phi], a level table, and
a coordinatewise-increasing measure-algebra formula G over set variables
indexed by (formula, threshold, comparison mode).  The intended value of
the variable (zeta, t, strict) on a direct integral is the level set of
zeta at threshold t; determination_check wires these level sets in and
certifies that G's value pins down the integral value of phi to 2/k.

Each fold of the compiler is one node: a leaf at precision k is the layer
cake (1/k) * sum_i mu(X_{i/k}) as one mba.Add of its k - 1 measures (a
bare Measure at k = 2), and each bound of a compiled sup one mba.Inter of
its level sets (mba.inter_all).  So G's depth depends on phi's nesting
alone, never on k (see the formula module docstring for the bound).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import formula as fm
from . import integral as di
from . import mba
from .errors import InputError, refuse_over

DEFAULT_BUDGET_C = 4096
DEFAULT_BUDGET_VARS = 4096
_ONE = fm.Const(1)  # shared by every one_minus
_ZERO = Fraction(0)  # the threshold of every xi variable


def one_minus(zeta):
    return fm.TruncSub(_ONE, zeta)


class _XiPlans:
    """xi_alpha = sup_y min over (zeta, c) in alpha of (zeta -. c), for the
    alpha of one supremum's index set as grid positions, in the canonical
    form fm.canonicalize gives it, without its walk (-. keeps the range in
    [0,1]; the level set at 0 is unchanged).  The min folds the items left
    to right as min(a, b) = a -. (a -. b), repeating the item a, never the
    accumulator b, so xi's size is linear in alpha's.  The Sup binds the
    first y<i> free in none of alpha's tags but var, and each occurrence of
    a tag takes the next names for its binders, in the fold's pre-order:
    the last item, its copy, ..., the first item.  So the names depend only
    on which tags alpha reads: they are planned once per set of tag
    positions, and a tag is renamed once per (position, Sup name, binder
    names), with its items zeta -. c by grid position.  A binder-free item
    and its copy are one object, evaluated once by structure.eval_formula.
    """

    def __init__(self, var, tags, levels):
        self.var, self.tags, self.all_tags = var, tags, range(len(tags))
        self.free = [fm.free_vars(zeta) - {var} for zeta in tags]
        self.binders = [sum(type(node) in (fm.Sup, fm.Inf) for node in fm.nodes(zeta))
                        for zeta in tags]
        # Position p of a tag of level l holds the threshold (p - 1)/l.
        self.consts = [[None] + [fm.Const(Fraction(i, lev)) for i in range(lev)]
                       for lev in levels]
        self.renamed, self.plans = {}, {}

    def plan(self, positions):
        """(Sup name, level, (position, items) of the first item, and
        (position, items, copy's items) of the others, innermost first)."""
        names = fm.binder_names(set().union(*(self.free[t] for t in positions)))
        name = next(names)

        def items(t):  # the renamed tag's items by grid position
            key = (t, name, tuple(itertools.islice(names, self.binders[t])))
            if key not in self.renamed:
                renamed = fm.rename(self.tags[t], {self.var: name}, iter(key[2]))
                self.renamed[key] = [None] + [fm.TruncSub(renamed, c)
                                              for c in self.consts[t][1:]]
            return self.renamed[key]

        pairs = [(t, items(t), items(t)) for t in reversed(positions[1:])]
        return (name, max(len(self.consts[t]) - 1 for t in positions),
                (positions[0], items(positions[0])), pairs[::-1])

    def xi(self, combo):
        """(xi_alpha, its level) for the alpha at grid positions combo."""
        positions = tuple(itertools.compress(self.all_tags, combo))
        if (plan := self.plans.get(positions)) is None:
            plan = self.plans[positions] = self.plan(positions)
        name, level, (t, items), pairs = plan
        acc = items[combo[t]]
        for t, items, copies in pairs:
            acc = fm.TruncSub(items[combo[t]], fm.TruncSub(copies[combo[t]], acc))
        return fm.Sup(name, acc), level


@dataclass(frozen=True)
class TransformResult:
    """F[phi] (the keys of `levels`; `formulas` is their text order, the
    one tag order, rendered once in `formula_texts`), its levels and G.
    The declared set is G's variables plus the strict grid (zeta, i/l, >),
    0 <= i < l, of each formula zeta of level l.  Only G's variables get
    level sets.

    `vars_by_tag` is G's variable table.  The builder hands each result
    it compiles the table of the case that built G, so transform never
    walks G for it; any other result walks its G once.  The budget check,
    the compiler's rewiring and bound slots, the document's declared set
    and build_level_assignment all read that one table.  The document
    writes the declared set from `levels` and `off_grid_vars`; the
    `variables` set serves tests and counters only."""

    k: int
    levels: dict           # formula -> integer level l >= 1
    g: object              # MbaFormula over SetVarIndex variables
    # build_level_assignment's last [field, assignment, tables] on this
    # result; it lives and dies with the result.
    _level_tables: list = field(default_factory=list, init=False,
                                repr=False, compare=False)

    @functools.cached_property
    def formula_texts(self):
        """{zeta: fm.to_text(zeta)} over F, in text order (no two share one)."""
        texts = dict(zip(self.levels, fm.texts(self.levels)))
        return dict(sorted(texts.items(), key=lambda item: item[1]))

    @functools.cached_property
    def formulas(self):
        return tuple(self.formula_texts)

    @functools.cached_property
    def vars_by_tag(self):
        """mba.vars_by_tag(self.g), computed once unless the builder set it."""
        return mba.vars_by_tag(self.g)

    @property
    def off_grid_vars(self):
        """G's variables off the strict grids: nonstrict, or at a threshold
        no grid of their tag holds."""
        levels = self.levels
        return [v for vs in self.vars_by_tag.values() for v in vs
                if not (v.strict and v.tag in levels
                        and 0 <= (t := v.level).numerator < t.denominator
                        and levels[v.tag] % t.denominator == 0)]

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
        self.binder_ids = itertools.count()  # one per compiled SupChain

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
            return self._finish(k, inner.levels, mba.Scale(Fraction(1, 2), inner.g),
                                inner.vars_by_tag)
        if isinstance(phi, fm.TruncSub):
            return self._truncsub(phi, k)
        if isinstance(phi, fm.Sup):
            return self._sup(phi, k)
        if isinstance(phi, fm.Inf):
            return self.build(fm.rewrite_inf(phi), k)
        raise TypeError(f"not a formula: {phi!r}")

    # Each case returns a finished TransformResult, checked against the
    # variable budget without building its declared set.  by_tag is
    # mba.vars_by_tag(g), which the case knows without walking g; results
    # share these tables, and nothing changes one.

    def _finish(self, k, levels, g, by_tag):
        result = TransformResult(k, dict(levels), g)
        result.__dict__["vars_by_tag"] = by_tag  # fills the cached property
        refuse_over(result.declared_count, "declared set-variable count", self.budget_vars)
        return result

    def _atomic(self, phi, k):
        # A leaf declares exactly k variables: refused before building them.
        refuse_over(k, "declared set-variable count", self.budget_vars)
        # The layer cake (1/k) * sum_i mu(X_{i/k}), 0 < i < k, as one Add
        # node; k >= 2, and its one term at k = 2 stands alone, as
        # inter_all leaves a single term.
        variables = [mba.SetVarIndex(phi, Fraction(i, k), True) for i in range(1, k)]
        terms = tuple(map(mba.Measure, variables))
        layers = terms[0] if len(terms) == 1 else mba.Add(terms)
        return self._finish(k, {phi: k}, mba.Scale(Fraction(1, k), layers),
                            {phi: variables})

    def _merge_levels(self, *level_maps):
        # A tag on both branches of a sub takes the larger level, on whose
        # grid every variable of both stays: a leaf compiled at K has levels
        # K * 3^j (outside a sup only sub multiplies a level; a sup's tags
        # are its own xi), and xi variables sit at 0, or 1 once rewired.
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
        # so G stays coordinatewise increasing in the new variables.  The
        # rewiring reverses each tag's (level, strict) order.
        neg = {zeta: one_minus(zeta) for zeta in right.levels}
        mapping = {}
        by_tag = dict(left.vars_by_tag)
        for tag, variables in right.vars_by_tag.items():
            rewired = [mba.SetVarIndex(neg[tag], 1 - v.level, not v.strict)
                       for v in reversed(variables)]
            mapping.update(zip(reversed(variables), map(mba.Compl, rewired)))
            if neg[tag] in by_tag:
                # On both branches: each variable once, as vars_by_tag sorts.
                rewired = sorted(set(by_tag[neg[tag]]).union(rewired),
                                 key=lambda v: (v.level, v.strict))
            by_tag[neg[tag]] = rewired
        g = mba.TruncSub(left.g, mba.substitute_set_vars(right.g, mapping))
        levels = self._merge_levels(
            left.levels, {neg[zeta]: lev for zeta, lev in right.levels.items()})
        return self._finish(k, levels, g, by_tag)

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
        # reads, in vars_by_tag order, so intended level sets decrease.  A
        # slot's cap is the witness coordinate it can certify: its own
        # threshold if strict, the grid step below if not.  C works in grid
        # positions, 0 for absent and p for the threshold (p - 1)/l on a tag
        # of level l.  A slot keeps n, the count of thresholds up to its cap,
        # which is the cap's position: l * v.level, plus 1 if strict, is in
        # 1..l, since every variable lies on its tag's grid (_merge_levels),
        # strict ones below 1 and nonstrict ones above 0.  Every tag is in F.
        slots_by_tag = [[(v, v.level.numerator * lev // v.level.denominator + v.strict)
                         for v in by_tag.get(zeta, ())]
                        for zeta, lev in zip(tags, grid_sizes)]
        c_size = math.prod(lev + 1 for lev in grid_sizes) - 1
        profile_size = math.prod(len(slots) + 1 for slots in slots_by_tag) - 1
        size = max(c_size, profile_size)
        if size > self.budget_c:  # compared here too: a sup in budget builds no detail
            refuse_over(size, "index-set size", self.budget_c,
                        detail=f"; tag count {len(tags)}, largest level {max(grid_sizes)}")

        # C: nonempty partial maps from tags to their threshold grids, as
        # position tuples in product order (per tag: absent, then thresholds
        # ascending; the all-absent first is skipped).  Each alpha adds its
        # own xi to F, as the formulas of F are canonical and distinct alphas
        # give distinct xi, with one SetVarIndex that every bound and profile
        # reading it shares, so _Compiler.slot and bind find equal variables
        # of G by identity.  declared, the levels' running sum, bounds the
        # declared count below: a sup over budget stops building its xi.
        xis = _XiPlans(phi.var, tags, grid_sizes)
        levels, var_of_alpha, declared = {}, {}, 0
        positions = itertools.product(*(range(lev + 1) for lev in grid_sizes))
        for combo in itertools.islice(positions, 1, None):
            xi, level = xis.xi(combo)
            declared += level
            refuse_over(declared, "declared set-variable count at least", self.budget_vars)
            levels[xi] = level
            var_of_alpha[combo] = mba.SetVarIndex(xi, _ZERO, True)

        binder = next(self.binder_ids)
        chains = []
        mapping = {}
        # G's variables: the xi the bounds and the profiles read.
        read = {}
        absent = (0,) * len(tags)
        for t, (zeta, lev, slots) in enumerate(zip(tags, grid_sizes, slots_by_tag)):
            if not slots:
                continue
            # A slot's bound meets the xi of its tag's first n thresholds:
            # a prefix of this tag's one-threshold xi variables.
            singles = [var_of_alpha[absent[:t] + (p,) + absent[t + 1:]]
                       for p in range(1, lev + 1)]
            bounds = []
            for slot, (v, n) in enumerate(slots):
                bounds.append(mba.inter_all(singles[:n]))
                mapping[v] = mba.ChainVar(binder, zeta, slot)
            chains.append(mba.ChainSpec(zeta, tuple(bounds)))
            top = max(n for _v, n in slots)
            read.update((var.tag, [var]) for var in singles[:top])
        # Joint constraints: picking one mentioned slot on each of two or
        # more tags, the intersection of those bound sets must admit a
        # common witness point, i.e. lie inside the level set of the joint
        # supremum formula at the slots' caps, read at their positions.
        profiles = []
        slot_choices = [[(None, 0)] + [(slot, n) for slot, (_v, n) in enumerate(slots)]
                        for slots in slots_by_tag]
        for combo in itertools.product(*slot_choices):
            picked = tuple((zeta, slot) for zeta, (slot, _pos) in zip(tags, combo)
                           if slot is not None)
            if len(picked) < 2:
                continue
            var = var_of_alpha[tuple(pos for _slot, pos in combo)]
            read[var.tag] = [var]
            profiles.append(mba.ProfileSpec(picked, var))
        g = mba.SupChain(
            binder,
            tuple(chains),
            mba.substitute_set_vars(inner.g, mapping),
            tuple(profiles),
        )
        return self._finish(k, levels, g, read)


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
    result caches: a second call on one result does not walk G.  The
    result also keeps the tables of its last call: a call with the same
    field (the same object) and an equal assignment, as sup_collapse
    makes after determination_check, reuses them.  Each call returns a
    dict of its own.
    """
    assignment = dict(assignment or {})
    last = result._level_tables
    if not (last and last[0] is field_ and last[1] == assignment):
        by_tag = result.vars_by_tag
        out = {}
        for tag in result.formulas:
            if tag in by_tag:
                values = di.fiber_values(tag, field_, assignment)
                for v in by_tag[tag]:
                    out[v] = di.threshold(values, field_, v.level, strict=v.strict)
        last[:] = field_, assignment, out
    return dict(last[2])


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
