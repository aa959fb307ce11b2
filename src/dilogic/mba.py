"""Measure-algebra formulas over finite probability spaces.

Elements of the algebra are subsets of a finite atom list with positive
rational weights summing to 1; d(A,B) = mu(A symmetric-difference B).
Formulas are real-valued terms over set variables, including a
constrained-supremum node (SupChain) evaluated either by exhaustive
search or by substituting the maximal feasible element.  A set variable
is a SetVarIndex (tag, level, strict), the leaf of set terms; within a
tag, vars_by_tag orders them by (level, strict), the one per-tag order.
Set terms and formulas are tree.node classes, like formula's nodes.

Inside this module a set is an int mask over the atom order (atom i is
bit i).  eval_mba, check_monotone, eval_set and supchain_search_size
compile their formula once per call into closures of no arguments over
masks (_Compiler): each SetVarIndex reads a slot of one list of masks,
each chain variable a slot of one flat list that the SupChain searches
write in place, and every value is an integer over one scale S,
the weight denominator times the lcm of the Const denominators and the
products of nested Scale denominators, so a result is one Fraction.
Nothing is cached across calls: each call pays for its own O(|G|)
compile.  The public functions take and return frozensets and convert at
the boundary.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetError, ChainError, EvaluationError, ValidationError
from .tree import Node, Shape, node

ENUMERATE = "enumerate"
MAXIMAL = "maximal"

# Enumerate mode refuses a SupChain whose chain tuples, counted in closed
# form before profile constraints, exceed this; the 204-instance suite
# needs at most 13,068.
# The same budget caps maximal mode's product of per-atom maximal vectors
# and each atom's depth-vector search, the chain-set walk of
# dist_to_chain_set, and structure's permutation and assignment searches.
ENUMERATE_TUPLE_BUDGET = 10**6

# The exact value types of weights, distances and predicate values; bool,
# float and every other type are rejected.
EXACT_TYPES = (int, Fraction)


@dataclass(frozen=True)
class FiniteMeasureAlgebra:
    atoms: tuple
    weights: dict  # atom -> Fraction > 0, summing to 1

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))
        if len(set(self.atoms)) != len(self.atoms):
            raise ValidationError("duplicate atom names")
        if set(self.weights) != set(self.atoms):
            raise ValidationError("weights must cover exactly the atom list")
        for a, v in self.weights.items():
            if type(v) not in EXACT_TYPES:
                raise ValidationError(
                    f"weight of atom {a!r} is {v!r}, not an int or a Fraction")
            if v <= 0:
                raise ValidationError(f"weight of atom {a!r} is not positive")
        w = {a: Fraction(v) for a, v in self.weights.items()}
        object.__setattr__(self, "weights", w)
        if sum(w.values()) != 1:
            raise ValidationError("weights must sum to exactly 1")

    @functools.cached_property
    def full(self):
        return frozenset(self.atoms)

    @functools.cached_property
    def bit(self):
        """atom -> its mask bit, 1 << (position in the atom order)."""
        return {a: 1 << i for i, a in enumerate(self.atoms)}

    @functools.cached_property
    def full_mask(self):
        return (1 << len(self.atoms)) - 1

    def mask(self, subset):
        """The mask of a set of atoms."""
        bit = self.bit
        out = 0
        for a in subset:
            out |= bit[a]
        return out

    def unmask(self, mask):
        """The frozenset of atoms of a mask."""
        return frozenset(a for a, b in self.bit.items() if mask & b)

    @functools.cached_property
    def _mask_sums(self):
        """(sums, den): den is the least common denominator of the
        weights, and sums maps a mask to its measure times den, an integer
        memoised per mask that occurs; a 2^n table is never built."""
        den = math.lcm(*(w.denominator for w in self.weights.values()))
        return _MaskSums(tuple(self.weights[a].numerator
                               * (den // self.weights[a].denominator)
                               for a in self.atoms)), den

    def measure_mask(self, mask):
        """mu of a mask, from its memoised integer sum."""
        sums, den = self._mask_sums
        return Fraction(sums[mask], den)

    def measure(self, subset):
        return self.measure_mask(self.mask(subset))

    def d(self, a, b):
        return self.measure_mask(self.mask(a) ^ self.mask(b))

    def d_tuple(self, xs, ys):
        if len(xs) != len(ys):
            raise ChainError("tuple length mismatch")
        return max((self.d(x, y) for x, y in zip(xs, ys)), default=Fraction(0))

    def subsets(self, within=None):
        """All subsets of `within` (default: all atoms), in bitmask order."""
        cap = self.full_mask if within is None else self.mask(within)
        return map(self.unmask, _submasks(cap))


class _MaskSums(dict):
    """mask -> the sum of the integer weights of its atoms, on first use."""

    __slots__ = ("weights",)

    def __init__(self, weights):
        super().__init__()
        self.weights = weights

    def __missing__(self, mask):
        value = self[mask] = sum(w for i, w in enumerate(self.weights) if mask >> i & 1)
        return value


def _submasks(cap):
    """Every submask of cap, ascending: the bitmask order of subsets."""
    y = 0
    while True:
        yield y
        if y == cap:
            return
        y = (y - cap) & cap


# ---------------------------------------------------------------------------
# Set variables and set terms


@node
class SetVarIndex(Node):
    """A set variable, the leaf of set terms: a formula tag, a threshold
    level, and the comparison mode its intended level set uses (strict
    '>' vs '>=')."""

    tag: object
    level: Fraction
    strict: bool = True

    def __post_init__(self):
        if type(self.level) is not Fraction:
            object.__setattr__(self, "level", Fraction(self.level))


@node
class ChainVar(Node):
    """A bound variable of a SupChain, identified by binder id, tag, slot."""

    binder: int
    tag: object
    slot: int


@node
class SetLit(Node):
    atoms: frozenset


@node
class Empty(Node):
    pass


@node
class Full(Node):
    pass


@node
class Union(Node):
    left: object
    right: object


@node
class Inter(Node):
    left: object
    right: object


@node
class Diff(Node):
    left: object
    right: object


@node
class SymDiff(Node):
    left: object
    right: object


@node
class Compl(Node):
    body: object


def eval_set(term, assign, alg):
    """The set a term denotes; assign holds frozensets by SetVarIndex."""
    compiler = _Compiler(alg)
    term = compiler.set_term(term, {})
    compiler.bind(assign)
    return alg.unmask(term())


def inter_all(terms):
    terms = list(terms)
    if not terms:
        return Full()
    out = terms[0]
    for t in terms[1:]:
        out = Inter(out, t)
    return out


# ---------------------------------------------------------------------------
# Real-valued measure-algebra formulas


@node
class Measure(Node):
    term: object


@node
class Const(Node):
    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", Fraction(self.value))


@node
class Scale(Node):
    factor: Fraction
    body: object

    def __post_init__(self):
        f = Fraction(self.factor)
        if f < 0:
            raise ValidationError("scale factor must be non-negative")
        object.__setattr__(self, "factor", f)


@node
class Add(Node):
    left: object
    right: object


@node
class TruncSub(Node):
    left: object
    right: object


@node
class Max(Node):
    items: tuple


@node
class Min(Node):
    items: tuple


@node
class ChainSpec(Node):
    """Per-tag chain: upper-bound set terms U_0, ..., U_{l-1} over the outer
    variables; the bound chain variables Y_0, ..., Y_{l-1} must satisfy
    Y_j <= U_j intersect (Y_0 ... Y_{j-1})."""

    tag: object
    bounds: tuple  # of set terms


@node
class ProfileSpec(Node):
    """Joint upper bound coupling slots across tags:
    the intersection of the named bound variables Y^tag_slot must lie
    inside the bound set.  slots is a tuple of (tag, slot index)."""

    slots: tuple
    bound: object  # set term


@node
class SupChain(Node):
    binder: int
    chains: tuple  # of ChainSpec
    inner: object
    profiles: tuple = ()  # of ProfileSpec


MbaFormula = (Measure, Const, Scale, Add, TruncSub, Max, Min, SupChain)


# Child fields of every set-term and formula class, in traversal order.
_CHILDREN = Shape({
    **dict.fromkeys((SetVarIndex, ChainVar, SetLit, Empty, Full, Const), ()),
    **dict.fromkeys((Union, Inter, Diff, SymDiff, Add, TruncSub), ("left", "right")),
    **dict.fromkeys((Compl, Scale), ("body",)),
    **dict.fromkeys((Max, Min), ("items",)),
    Measure: ("term",),
    ChainSpec: ("bounds",),
    ProfileSpec: ("bound",),
    SupChain: ("chains", "inner", "profiles"),
}, "an mba formula or set term")
nodes = _CHILDREN.nodes
rebuild = _CHILDREN.rebuild


def free_set_vars(g):
    """Free SetVarIndex occurrences of a formula (chain variables are bound)."""
    return {node for node in nodes(g) if type(node) is SetVarIndex}


def vars_by_tag(g):
    """{tag: its free set variables sorted by (level, strict)}: by
    threshold, and >= before > at an equal threshold, so their intended
    level sets decrease."""
    out = {}
    for v in free_set_vars(g):
        out.setdefault(v.tag, []).append(v)
    for variables in out.values():
        variables.sort(key=lambda v: (v.level, v.strict))
    return out


def contains_supchain(g):
    return any(type(node) is SupChain for node in nodes(g))


def _feasible_chain_tuples(bounds, alg):
    """All nested mask tuples (Y_0,...,Y_{l-1}) with Y_j within U_j and all
    previous Y's, in deterministic bitmask order: one generator per slot,
    each extending the tuples of the slot before."""
    if not bounds:
        return iter([()])
    out = ((y,) for y in _submasks(alg.full_mask & bounds[0]))
    for u in bounds[1:]:
        out = _extend(out, u)
    return out


def _extend(tuples, u):
    """Each tuple followed by every submask of its last mask within u."""
    return (ys + (y,) for ys in tuples for y in _submasks(ys[-1] & u))


def _depth(bounds, bit):
    """How many leading masks of a bound chain contain the atom's bit."""
    for j, u in enumerate(bounds):
        if not u & bit:
            return j
    return len(bounds)


def chain_enumeration_count(bounds, alg):
    """Number of feasible tuples for one chain of evaluated bound masks.

    A nested tuple is determined by a per-atom depth bounded by the first
    bound set excluding the atom, so the count is a product over atoms.
    """
    return math.prod(_depth(bounds, bit) + 1 for bit in alg.bit.values())


def supchain_search_size(g, assign, alg):
    """The number of chain tuples the bounds of the outermost SupChain
    allow under assign, before any profile constraint: the count the
    enumerate-mode budget refuses on."""
    compiler = _Compiler(alg)
    bounds = [[compiler.set_term(b, {}) for b in spec.bounds] for spec in g.chains]
    compiler.bind(assign)
    return math.prod(chain_enumeration_count([b() for b in bs], alg) for bs in bounds)


def eval_mba(g, assign, alg, mode=MAXIMAL):
    """Exact value of g under the assignment.

    SupChain semantics: supremum of the inner value over all bound tuples
    respecting the chain constraints and the joint profile constraints.
    Mode `enumerate` searches the whole feasible region; mode `maximal`
    substitutes per-atom maximal feasible membership patterns (requires
    the evaluated bound chains to be decreasing), which reduces to
    substituting the single maximal feasible element when there are no
    profile constraints.  The modes agree whenever the inner formula is
    coordinatewise increasing and the bounds are decreasing.
    """
    if mode not in (ENUMERATE, MAXIMAL):
        raise EvaluationError(f"unknown mode {mode!r}")
    compiler = _Compiler(alg, mode)
    value, scale = compiler.formula(g)
    compiler.bind(assign)
    return Fraction(value(), scale)


def refuse_over_budget(count, what):
    if count > ENUMERATE_TUPLE_BUDGET:
        raise BudgetError(
            f"{what} count {count} exceeds budget {ENUMERATE_TUPLE_BUDGET}")


def _maximal_depth_vectors(caps, forbidden):
    """Maximal vectors v with 0 <= v[i] <= caps[i] avoiding every forbidden
    pattern: v is infeasible when some pattern ((i, j), ...) has v[i] > j in
    all its coordinates.  The feasible set is downward closed, so its
    maximal elements exist and are computed by branching on violations.
    The branching visits each vector under caps at most once, so it is
    refused when there are more of those than the budget allows."""
    refuse_over_budget(math.prod(c + 1 for c in caps), "maximal depth vector search")
    memo = {}

    def violated(v):
        for pattern in forbidden:
            if all(v[i] > j for i, j in pattern):
                return pattern
        return None

    def rec(v):
        if v in memo:
            return memo[v]
        pattern = violated(v)
        if pattern is None:
            out = {v}
        else:
            out = set()
            for i, j in pattern:
                if v[i] > j:
                    reduced = list(v)
                    reduced[i] = j
                    out |= rec(tuple(reduced))
        memo[v] = out
        return out

    candidates = rec(tuple(caps))
    return sorted(
        v for v in candidates
        if not any(w != v and all(wi >= vi for wi, vi in zip(w, v)) for w in candidates)
    )


# ---------------------------------------------------------------------------
# Compiling a formula


def _leaf_denominator(g, above=1):
    """The lcm, over the Measure and Const leaves of g, of the product of
    the Scale denominators above the leaf times the leaf's own denominator
    (1 for a Measure).  Times the weight denominator, it is the scale S
    at which every subformula's value is an integer: the body of a
    Scale(n/d) is then a multiple of d."""
    t = type(g)
    if t is Measure:
        return above
    if t is Const:
        return above * g.value.denominator
    if t is Scale:
        return _leaf_denominator(g.body, above * g.factor.denominator)
    if t is SupChain:
        return _leaf_denominator(g.inner, above)
    if t is Add or t is TruncSub:
        children = (g.left, g.right)
    elif t is Max or t is Min:
        children = g.items
    else:
        raise TypeError(f"not an mba formula: {g!r}")
    return math.lcm(*(_leaf_denominator(c, above) for c in children))


class _Compiler:
    """Compiles a formula or set term into closures of no arguments, once
    per call of eval_mba, check_monotone, eval_set or supchain_search_size;
    only the algebra's memo of mask sums outlives that call.

    A free SetVarIndex reads its slot of the list `a`, which bind fills from
    an assignment or the caller writes in the order of the `variables` it
    names; slots of other variables follow in order of first occurrence.
    A ChainVar reads its slot of the list `e`, which the search of its
    SupChain writes in place.  Set terms give masks and formulas give
    their value times the scale S, an integer.  A chain variable no
    enclosing SupChain binds and a profile naming a slot its SupChain
    lacks are EvaluationErrors when compiled, an unassigned set variable
    when bound.
    """

    def __init__(self, alg, mode=MAXIMAL, variables=()):
        self.alg = alg
        self.mode = mode
        self.slots = {v: i for i, v in enumerate(variables)}
        self.a = []
        self.e = []

    def formula(self, g):
        """The closure of a formula and the scale S of its values."""
        self.sums, den = self.alg._mask_sums
        self.unit = _leaf_denominator(g)
        self.scale = den * self.unit
        return self.value(g, {}), self.scale

    def slot(self, index):
        return self.slots.setdefault(index, len(self.slots))

    def bind(self, assign):
        """Fill a from assign (frozensets by SetVarIndex), one lookup per
        variable the compiled closures read."""
        a = self.a
        a.clear()
        for index in self.slots:
            try:
                subset = assign[index]
            except KeyError:
                raise EvaluationError(f"unbound set variable {index}") from None
            a.append(self.alg.mask(subset))

    def set_term(self, t, scope):
        """The closure of a set term; scope maps each chain-variable key
        (binder, tag, slot) in reach to its slot of e."""
        k = type(t)
        if k is SetVarIndex:
            a, i = self.a, self.slot(t)
            return lambda: a[i]
        if k is ChainVar:
            i = scope.get((t.binder, t.tag, t.slot))
            if i is None:
                raise EvaluationError(f"unbound chain variable {t}")
            e = self.e
            return lambda: e[i]
        if k is Inter or k is Union or k is Diff or k is SymDiff:
            left, right = self.set_term(t.left, scope), self.set_term(t.right, scope)
            if k is Inter:
                return lambda: left() & right()
            if k is Union:
                return lambda: left() | right()
            if k is Diff:
                return lambda: left() & ~right()
            return lambda: left() ^ right()
        full = self.alg.full_mask
        if k is Compl:
            body = self.set_term(t.body, scope)
            return lambda: full ^ body()
        if k is Full or k is Empty or k is SetLit:
            mask = full if k is Full else 0 if k is Empty else self.alg.mask(t.atoms)
            return lambda: mask
        raise TypeError(f"not a set term: {t!r}")

    def value(self, g, scope):
        """The closure of a formula: its value times S."""
        t = type(g)
        if t is Measure:
            sums, unit, term = self.sums, self.unit, self.set_term(g.term, scope)
            return lambda: sums[term()] * unit
        if t is Const:
            c = g.value.numerator * (self.scale // g.value.denominator)
            return lambda: c
        if t is Scale:
            n, d = g.factor.numerator, g.factor.denominator
            body = self.value(g.body, scope)
            return lambda: n * body() // d
        if t is Add or t is TruncSub:
            left, right = self.value(g.left, scope), self.value(g.right, scope)
            if t is Add:
                return lambda: left() + right()

            def trunc_sub():
                v = left() - right()
                return v if v > 0 else 0
            return trunc_sub
        if t is Max or t is Min:
            pick = max if t is Max else min
            items = tuple(self.value(item, scope) for item in g.items)
            return lambda: pick([f() for f in items])
        if t is SupChain:
            return self.supchain(g, scope)
        raise TypeError(f"not an mba formula: {g!r}")

    def supchain(self, g, scope):
        """The bounds and profile bounds read the enclosing scope; the
        chain variables get consecutive slots of e, chain after chain, in
        the inner formula's scope."""
        bounds = [[self.set_term(b, scope) for b in spec.bounds] for spec in g.chains]
        tag_pos = {spec.tag: i for i, spec in enumerate(g.chains)}
        profiles = []
        for prof in g.profiles:
            for tag, slot in prof.slots:
                if tag not in tag_pos:
                    raise EvaluationError(f"profile references unknown tag {tag!r}")
                if not 0 <= slot < len(bounds[tag_pos[tag]]):
                    raise EvaluationError(f"profile slot {slot} out of range for tag {tag!r}")
            profiles.append((tuple((tag_pos[tag], slot) for tag, slot in prof.slots),
                             self.set_term(prof.bound, scope)))
        starts, inner_scope = [], dict(scope)
        for spec, bs in zip(g.chains, bounds):
            starts.append(len(self.e))
            for slot in range(len(bs)):
                inner_scope[(g.binder, spec.tag, slot)] = len(self.e)
                self.e.append(0)
        inner = self.value(g.inner, inner_scope)
        if self.mode == ENUMERATE:
            return self.enumerate_search(bounds, starts, profiles, inner)
        tags = [spec.tag for spec in g.chains]
        return self.maximal_search(tags, bounds, starts, profiles, inner)

    def enumerate_search(self, bounds, starts, profiles, inner):
        """Supremum over the feasible tuples, the only ones built, in the
        order of the product of the chains' tuples in bitmask order.  The
        masks of a chain are nested, so a profile bounds only its deepest
        slot on each chain it names; the bound of its slot on the last such
        chain loses the meet of its earlier slots outside its bound set.
        The budget counts the untightened bounds' tuples."""
        alg, e, full = self.alg, self.e, self.alg.full_mask
        # Per chain: (its deepest slot, positions of the earlier slots, bound).
        cuts = [[] for _ in bounds]
        slotless = []
        for pairs, w in profiles:
            deepest = {}
            for i, slot in pairs:
                deepest[i] = max(slot, deepest.get(i, slot))
            if not deepest:
                slotless.append(w)
                continue
            last = max(deepest)
            cuts[last].append((deepest.pop(last),
                               tuple(starts[i] + slot for i, slot in deepest.items()), w))

        def walk(us, outsides, j):
            u = list(us[j])
            for slot, ps, outside in outsides[j]:
                for p in ps:
                    outside &= e[p]
                u[slot] &= ~outside
            lo, innermost = starts[j], j + 1 == len(us)
            best = None
            for ys in _feasible_chain_tuples(u, alg):
                e[lo:lo + len(ys)] = ys
                v = inner() if innermost else walk(us, outsides, j + 1)
                if best is None or v > best:
                    best = v
            return best

        def search():
            us = [[b() for b in bs] for bs in bounds]
            refuse_over_budget(math.prod(chain_enumeration_count(u, alg) for u in us),
                               "SupChain feasible tuple")
            if any(full & ~w() for w in slotless):
                raise EvaluationError("SupChain has an empty feasible region")
            outsides = [[(slot, ps, full & ~w()) for slot, ps, w in cut] for cut in cuts]
            return walk(us, outsides, 0) if us else inner()

        return search

    def maximal_search(self, tags, bounds, starts, profiles, inner):
        """Supremum via per-atom maximal feasible patterns.

        All constraints are pointwise: an atom's membership pattern is a
        per-tag prefix depth capped by the first excluding bound, and a
        profile forbids jointly exceeding its slots outside its bound set.
        For an inner formula increasing in the chain variables the
        supremum is attained with every atom at one of its maximal
        feasible depth vectors, independently across atoms."""
        alg, e = self.alg, self.e
        bits = tuple(alg.bit.values())
        # (caps, forbidden) -> its maximal depth vectors, for the evaluations
        # of this compiled search only; a new key is still budget-checked.
        vectors = {}

        def search():
            us = [[b() for b in bs] for bs in bounds]
            ws = [(pairs, w()) for pairs, w in profiles]
            for tag, u in zip(tags, us):
                prev = alg.full_mask
                for m in u:
                    if m & ~prev:
                        raise ChainError(
                            f"evaluated bound chain for tag {tag!r} is not decreasing")
                    prev = m
            per_atom = []
            for bit in bits:
                key = (tuple(_depth(u, bit) for u in us),
                       tuple(pairs for pairs, w in ws if not w & bit))
                found = vectors.get(key)
                if found is None:
                    found = vectors[key] = _maximal_depth_vectors(*key)
                per_atom.append(found)
            refuse_over_budget(math.prod(map(len, per_atom)),
                               "maximal depth vector combination")
            best = None
            for combo in itertools.product(*per_atom):
                for i, (start, u) in enumerate(zip(starts, us)):
                    for slot in range(len(u)):
                        e[start + slot] = sum(
                            bit for bit, vec in zip(bits, combo) if vec[i] > slot)
                v = inner()
                if best is None or v > best:
                    best = v
            if best is None:
                raise EvaluationError("SupChain has an empty feasible region")
            return best

        return search


def substitute_set_vars(g, mapping):
    """Replace free set variables by set terms (chain variables untouched)."""

    def sub(node):
        if type(node) is SetVarIndex:
            return mapping.get(node, node)
        return rebuild(node, sub)

    return sub(g)


# ---------------------------------------------------------------------------
# Monotonicity checking


@dataclass(frozen=True)
class MonotoneCounterexample:
    low: dict
    high: dict
    low_value: Fraction
    high_value: Fraction


def check_monotone(g, alg, trials=200, seed=0, exhaustive_limit=100_000):
    """Verify g is coordinatewise increasing on alg, evaluating in
    MAXIMAL mode.

    Returns None on pass, or the first MonotoneCounterexample found.
    Exhaustive over all comparable assignment pairs when their count,
    3^(atoms * variables), is within exhaustive_limit; otherwise samples
    `trials` seeded random pairs.  trials < 1 is refused on both paths.
    """
    if trials < 1:
        raise EvaluationError("trials must be >= 1")
    by_tag = vars_by_tag(g)
    # Tag by tag in text order, each tag's variables in vars_by_tag order.
    variables = [v for tag in sorted(by_tag, key=str) for v in by_tag[tag]]
    if not variables:
        return None
    bits = tuple(alg.bit.values())
    compiler = _Compiler(alg, variables=variables)
    value, scale = compiler.formula(g)
    a = compiler.a

    def comparable(choice):
        """Masks A <= B: each atom is in neither (0), B only (1) or both (2)."""
        low = sum(bit for bit, c in zip(bits, choice) if c == 2)
        high = sum(bit for bit, c in zip(bits, choice) if c >= 1)
        return low, high

    if 3 ** (len(bits) * len(variables)) <= exhaustive_limit:
        all_pairs = [comparable(choice)
                     for choice in itertools.product(range(3), repeat=len(bits))]
        draws = itertools.product(all_pairs, repeat=len(variables))
    else:
        rng = random.Random(seed)
        draws = ([comparable([rng.randrange(3) for _bit in bits]) for _v in variables]
                 for _ in range(trials))
    for pairs in draws:
        low, high = zip(*pairs)
        a[:] = low
        lv = value()
        a[:] = high
        hv = value()
        if lv > hv:
            return MonotoneCounterexample(
                {v: alg.unmask(m) for v, m in zip(variables, low)},
                {v: alg.unmask(m) for v, m in zip(variables, high)},
                Fraction(lv, scale), Fraction(hv, scale))
    return None


# ---------------------------------------------------------------------------
# Definability formulas and distance oracles


def chain_var(tag, slot, length):
    return SetVarIndex(tag, Fraction(slot, length), True)


def phi_chain(bounds, tag="X"):
    """Distance-bound formula for the chain set of a decreasing tuple U.

    phi_U(X) = max over slots m of mu(X_m minus the intersection of the
    earlier X's) + mu(X_m minus U_m); the m = 0 term reduces to
    mu(X_0 minus U_0).  Zero set = the chain set of U.
    """
    bounds = [frozenset(u) for u in bounds]
    _require_decreasing(bounds)
    length = len(bounds)
    items = []
    for m in range(length):
        x_m = chain_var(tag, m, length)
        prev = [chain_var(tag, j, length) for j in range(m)]
        nested = Measure(Diff(x_m, inter_all(prev)))
        outside = Measure(Diff(x_m, SetLit(bounds[m])))
        items.append(Add(nested, outside))
    return Max(tuple(items))


def _require_decreasing(bounds):
    if not bounds:
        raise ChainError("empty chain")
    for j in range(1, len(bounds)):
        if not bounds[j] <= bounds[j - 1]:
            raise ChainError(f"bound chain not decreasing at slot {j}")


def dist_to_chain_set(xs, bounds, alg):
    """Exact max-metric distance from the tuple xs to the chain set of
    bounds, with a nearest witness (first in enumeration order)."""
    bounds = [frozenset(u) for u in bounds]
    _require_decreasing(bounds)
    xs = [alg.mask(x) for x in xs]
    if len(xs) != len(bounds):
        raise ChainError("tuple length does not match chain length")
    bounds = [alg.mask(u) for u in bounds]
    refuse_over_budget(chain_enumeration_count(bounds, alg),
                       "chain set tuple")
    best = None
    witness = None
    for ys in _feasible_chain_tuples(bounds, alg):
        d = max(alg.measure_mask(x ^ y) for x, y in zip(xs, ys))
        if best is None or d < best:
            best = d
            witness = ys
    return best, tuple(map(alg.unmask, witness))


def psi_multichain(chains):
    """Max over tags of phi_chain; zero set is the product of the per-tag
    chain sets.  `chains` maps tag -> decreasing bound list."""
    if not chains:
        raise ChainError("empty chain family")
    items = []
    for tag in sorted(chains, key=str):
        items.append(phi_chain(chains[tag], tag=tag))
    return Max(tuple(items))


def simple_definables():
    """The two warm-up definability formulas.

    phi(X1,X2) = mu(X1 minus X2) witnesses definability of inclusion pairs;
    psi(X1,X2,X3) = mu((X1 inter X2) symdiff X3) witnesses definability of
    intersection triples.
    """
    x1, x2, x3 = (SetVarIndex(name, 0) for name in ("X1", "X2", "X3"))
    phi = Measure(Diff(x1, x2))
    psi = Measure(SymDiff(Inter(x1, x2), x3))
    return phi, psi
