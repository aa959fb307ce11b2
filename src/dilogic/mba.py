"""Measure-algebra formulas over finite probability spaces.

Elements of the algebra are subsets of a finite atom list with positive
rational weights summing to 1; d(A,B) = mu(A symmetric-difference B).
Formulas are real-valued terms over set variables, including a
constrained-supremum node (SupChain) whose constraints hold atom by
atom: one search walks the product over atoms of per-atom depth vectors,
every feasible one in enumerate mode and the maximal ones in maximal
mode.  A set variable is a SetVarIndex (tag, level, strict), the leaf of
set terms; within a tag, vars_by_tag orders them by (level, strict), the
one per-tag order.
Set terms and formulas are tree.node classes, like formula's nodes.
Add and Inter are n-ary over items, as Max and Min are, so a fold is one
node: transform's layer cake (1/k) * sum_i mu(X_{i/k}) is one Add and
inter_all's intersection of a bound's level sets one Inter, and G's
depth does not grow with k.

Inside this module a set is an int mask over the atom order (atom i is
bit i).  eval_mba, check_monotone, eval_set and supchain_search_size
compile their formula once per call into closures of no arguments over
masks (_Compiler): each SetVarIndex reads a slot of one list of masks,
each chain variable or group (see search) a slot of one flat list that
the SupChain search writes in place, and every value is an integer over
one scale S, the weight denominator times the lcm of the Const
denominators and the products of nested Scale denominators (one Fraction).
Nothing is cached across calls: each call pays for its own O(|G|)
compile.  The public functions take and return frozensets and convert at
the boundary.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import formula as fm
from .errors import (EXACT_TYPES, ChainError, DilogicError, EvaluationError, ValidationError,
                     exact, refuse_over)
from .tree import Node, Shape, node

ENUMERATE = "enumerate"
MAXIMAL = "maximal"


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
        """The mask of a set of atoms, each of which must be in the algebra."""
        bit = self.bit
        out = 0
        try:
            for a in subset:
                out |= bit[a]
        except KeyError as missing:
            raise ValidationError(f"atom {missing.args[0]!r} is not in the algebra") from None
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
            object.__setattr__(self, "level", exact(self.level, "level", ValidationError))


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
    """The intersection of items, one node however many; no items is Full."""

    items: tuple


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
    """The intersection of terms as one Inter node: Full() for no term,
    the term itself for one."""
    terms = tuple(terms)
    if not terms:
        return Full()
    return terms[0] if len(terms) == 1 else Inter(terms)


# ---------------------------------------------------------------------------
# Real-valued measure-algebra formulas


@node
class Measure(Node):
    term: object


@node
class Const(Node):
    value: Fraction

    def __post_init__(self):
        if type(self.value) is not Fraction:
            object.__setattr__(self, "value", exact(self.value, "constant", ValidationError))


@node
class Scale(Node):
    factor: Fraction
    body: object

    def __post_init__(self):
        f = self.factor
        if type(f) is not Fraction:
            object.__setattr__(self, "factor", f := exact(f, "scale factor", ValidationError))
        if f.numerator < 0:
            raise ValidationError("scale factor must be non-negative")


@node
class Add(Node):
    """The sum of items, one node however many."""

    items: tuple


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
    **dict.fromkeys((Union, Diff, SymDiff, TruncSub), ("left", "right")),
    **dict.fromkeys((Compl, Scale), ("body",)),
    **dict.fromkeys((Inter, Add, Max, Min), ("items",)),
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
    Both modes search the product over atoms of per-atom depth vectors:
    mode `enumerate` takes every feasible vector, the whole feasible
    region; mode `maximal` takes the maximal ones only (and requires the
    evaluated bound chains to be decreasing), which reduces to the single
    maximal feasible element when there are no profile constraints.  The
    modes agree whenever the inner formula is coordinatewise increasing
    and the bounds are decreasing.
    """
    if mode not in (ENUMERATE, MAXIMAL):
        raise EvaluationError(f"unknown mode {mode!r}")
    compiler = _Compiler(alg, mode)
    value, scale = compiler.formula(g)
    compiler.bind(assign)
    return Fraction(value(), scale)


def _depth_vectors(caps, forbidden, maximal):
    """The vectors v with 0 <= v[i] <= caps[i] that no forbidden pattern
    ((i, j), ...) forbids, by v[i] > j in all its pairs, ascending.  A
    pattern with some caps[i] <= j forbids nothing and is dropped first.
    With maximal, a feasible v is kept only when raising any one
    coordinate by one gives no feasible vector: the feasible set is
    downward closed, so that is maximality; with no pattern left, caps
    is the one maximal vector.  The budget counts the vectors under caps,
    exactly the ones visited otherwise."""
    mode = MAXIMAL if maximal else ENUMERATE
    refuse_over(math.prod(c + 1 for c in caps), f"{mode}-mode depth vector search count")
    patterns = [p for p in forbidden if all(j < caps[i] for i, j in p)]
    if maximal and not patterns:
        return [tuple(caps)]
    feasible = [v for v in itertools.product(*(range(c + 1) for c in caps))
                if not any(all(v[i] > j for i, j in p) for p in patterns)]
    if not maximal:
        return feasible
    kept = set(feasible)
    return [v for v in feasible
            if not any(v[i] < c and v[:i] + (v[i] + 1,) + v[i + 1:] in kept
                       for i, c in enumerate(caps))]


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
    if t is TruncSub:
        children = (g.left, g.right)
    elif t is Add or t is Max or t is Min:
        children = g.items
    else:
        raise TypeError(f"not an mba formula: {g!r}")
    return math.lcm(*(_leaf_denominator(c, above) for c in children))


def _groups(g, out, first):
    """The groups of a SupChain's inner formula g, each Measure and each Add
    of Measures outside nested SupChains: id -> [slot from first, set terms]."""
    t = type(g)
    if t is Measure or t is Add and all(type(m) is Measure for m in g.items):
        out.setdefault(id(g), [first + len(out), None])
    elif t is not SupChain and t is not Const:
        for child in (g.body,) if t is Scale else (g.left, g.right) if t is TruncSub else g.items:
            _groups(child, out, first)
    return out


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
        self.groups = {}  # the groups of the inner formula compiling (_groups)

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
        if k is Union or k is Diff or k is SymDiff:
            left, right = self.set_term(t.left, scope), self.set_term(t.right, scope)
            if k is Union:
                return lambda: left() | right()
            if k is Diff:
                return lambda: left() & ~right()
            return lambda: left() ^ right()
        full = self.alg.full_mask
        if k is Inter:
            items = tuple(self.set_term(item, scope) for item in t.items)
            if len(items) == 2:
                left, right = items
                return lambda: left() & right()

            def inter():
                mask = full
                for f in items:
                    mask &= f()
                return mask
            return inter
        if k is Compl:
            body = self.set_term(t.body, scope)
            return lambda: full ^ body()
        if k is Full or k is Empty or k is SetLit:
            mask = full if k is Full else 0 if k is Empty else self.alg.mask(t.atoms)
            return lambda: mask
        raise TypeError(f"not a set term: {t!r}")

    def value(self, g, scope):
        """The closure of a formula: its value times S (a group's, from e)."""
        t = type(g)
        group = self.groups.get(id(g)) if t is Measure or t is Add else None
        if group is not None:
            group[1] = [self.set_term(m.term, scope) for m in (g.items if t is Add else (g,))]
            e, i = self.e, group[0]
            return lambda: e[i]
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
        if t is TruncSub:
            left, right = self.value(g.left, scope), self.value(g.right, scope)

            def trunc_sub():
                v = left() - right()
                return v if v > 0 else 0
            return trunc_sub
        if t is Max or t is Min:
            pick = max if t is Max else min
            items = tuple(self.value(item, scope) for item in g.items)
            return lambda: pick([f() for f in items])
        if t is Add:
            items = tuple(self.value(item, scope) for item in g.items)
            # Two items, the common case, skip building a list.
            if len(items) == 2:
                left, right = items
                return lambda: left() + right()
            return lambda: sum([f() for f in items])
        # g is a SupChain: _leaf_denominator has rejected every other type.
        return self.supchain(g, scope)

    def supchain(self, g, scope):
        """The bounds and profile bounds read the enclosing scope; the
        chain variables get consecutive slots of e, chain after chain, in
        the inner formula's scope, and in enumerate mode its groups
        (_groups) the next ones."""
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
        lo, inner_scope = len(self.e), dict(scope)
        for spec, bs in zip(g.chains, bounds):
            for slot in range(len(bs)):
                inner_scope[(g.binder, spec.tag, slot)] = len(self.e)
                self.e.append(0)
        # Maximal mode takes few vectors per atom: rows would cost more than
        # the tuples they replace, so its measures stay closures.
        outer, self.groups = self.groups, (
            _groups(g.inner, {}, len(self.e)) if self.mode == ENUMERATE else {})
        self.e += [0] * len(self.groups)
        inner = self.value(g.inner, inner_scope)
        search = self.search([spec.tag for spec in g.chains], bounds, lo, profiles, inner)
        self.groups = outer
        return search

    def search(self, tags, bounds, lo, profiles, inner):
        """Supremum of inner over a product over atoms of depth vectors.

        All constraints are pointwise: an atom's membership pattern is a
        per-chain depth, capped by the chain's first bound excluding the
        atom, and a profile forbids the atoms outside its bound set to
        exceed all its slots at once.  Both modes read an atom's vectors
        from one enumeration per (caps, forbidden) key, _depth_vectors:
        patterns the caps cannot violate dropped, every vector under the
        caps visited and counted against the budget.  Enumerate mode keeps
        every feasible vector: the whole feasible region, refused first
        when the bounds' tuples, counted in closed form, exceed the
        budget.  Maximal mode keeps those no one-coordinate step up keeps
        feasible, the maximal ones, and requires decreasing bounds; for
        an inner formula increasing in the chain variables the supremum
        is attained there.  A vector is a row of its atom: its bit in each
        chain slot it fills, then in enumerate mode its share of each group
        (self.groups), weight times S per set term holding it with only its
        bits in the chain slots, exact as set terms are pointwise.  Each
        combination writes its rows' column sums into e[lo:hi] at once."""
        alg, e, enumerate_all = self.alg, self.e, self.mode == ENUMERATE
        bits = tuple(alg.bit.values())
        columns = [(i, slot) for i, bs in enumerate(bounds) for slot in range(len(bs))]
        groups = [terms for _slot, terms in self.groups.values()]
        mid = lo + len(columns)
        hi = mid + len(groups)
        sums, unit = self.sums, self.unit
        # (caps, forbidden) -> its depth vectors, for the evaluations of this
        # compiled search only; a new key is still budget-checked.
        vectors = {}

        def shared(bit, row):
            """row, then the atom's share of each group, with row written."""
            e[lo:mid] = row
            return row + tuple([unit * sum([sums[t() & bit] for t in terms])
                                for terms in groups])

        def search():
            us = [[b() for b in bs] for bs in bounds]
            if enumerate_all:
                refuse_over(math.prod(chain_enumeration_count(u, alg) for u in us),
                            "SupChain feasible tuple count")
            else:
                for tag, u in zip(tags, us):
                    prev = alg.full_mask
                    for m in u:
                        if m & ~prev:
                            raise ChainError(
                                f"evaluated bound chain for tag {tag!r} is not decreasing")
                        prev = m
            ws = [(pairs, w()) for pairs, w in profiles]
            per_atom = []
            for bit in bits:
                key = (tuple(_depth(u, bit) for u in us),
                       tuple(pairs for pairs, w in ws if not w & bit))
                found = vectors.get(key)
                if found is None:
                    found = vectors[key] = _depth_vectors(*key, not enumerate_all)
                # Each vector as this atom's bit in the chain slots it fills.
                per_atom.append([tuple(bit if v[i] > slot else 0 for i, slot in columns)
                                 for v in found])
            refuse_over(math.prod(map(len, per_atom)),
                        f"{self.mode}-mode depth vector combination count")
            if groups:
                per_atom = [[shared(bit, row) for row in rows] for bit, rows in zip(bits, per_atom)]
            best = None
            for combo in itertools.product(*per_atom):
                e[lo:hi] = map(sum, zip(*combo))
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
    MAXIMAL mode.  Returns None on pass, or the first MonotoneCounterexample
    of a scan of comparable assignment pairs: all of them when their count,
    3^(atoms * variables), is within exhaustive_limit, else `trials` seeded
    random pairs, one randrange(3) per atom per variable (a drawn choice's
    masks are summed once).  trials < 1 is refused on both paths.  The
    exhaustive path first evaluates g at all 2^(atoms * variables)
    assignments, and passes, scanning no pair, if every cover (one atom
    added to one variable) rises.  g is evaluated once per distinct
    assignment that does not raise: the pairs, their order, the first
    counterexample and every error, raised where its assignment is first
    met, are as if each pair were evaluated afresh.
    """
    if trials < 1:
        raise EvaluationError("trials must be >= 1")
    by_tag = vars_by_tag(g)
    # Tag by tag in text order (fm.texts), each in vars_by_tag order.
    formulas = [tag for tag in by_tag if isinstance(tag, fm.Formula)]
    text = dict(zip(formulas, fm.texts(formulas)))
    variables = [v for tag in sorted(by_tag, key=lambda t: text.get(t) or str(t))
                 for v in by_tag[tag]]
    if not variables:
        return None
    bits = tuple(alg.bit.values())
    compiler = _Compiler(alg, variables=variables)
    value, scale = compiler.formula(g)
    a = compiler.a
    n, size = len(bits), len(bits) * len(variables)
    seen = {}  # value() by the masks written into a

    def comparable(choice):
        """Masks A <= B: each atom is in neither (0), B only (1) or both (2)."""
        low = sum(bit for bit, c in zip(bits, choice) if c == 2)
        high = sum(bit for bit, c in zip(bits, choice) if c >= 1)
        return low, high

    if 3 ** size <= exhaustive_limit:
        # An assignment's place in product order holds, in binary, each atom
        # of each variable as one bit: a cover sets one clear bit.
        with contextlib.suppress(DilogicError):  # raised again by the pair scan
            for masks in itertools.product(range(1 << n), repeat=len(variables)):
                a[:] = masks
                seen[masks] = value()
            values = list(seen.values())
            if all(values[i] <= values[i | 1 << j]
                   for j in range(size) for i in range(1 << size) if not i >> j & 1):
                return None
        all_pairs = [comparable(choice)
                     for choice in itertools.product(range(3), repeat=n)]
        draws = itertools.product(all_pairs, repeat=len(variables))
    else:
        drawn = functools.cache(comparable)  # each drawn choice's masks
        # randrange(3) as random draws it: two bits, drawn again on 3.  A
        # trial's draws in one list, cut into one choice per variable.
        two_bits = functools.partial(random.Random(seed).getrandbits, 2)
        stream = (r for r in iter(two_bits, None) if r != 3)
        trial_draws = (list(itertools.islice(stream, size)) for _ in range(trials))
        draws = ([drawn(tuple(c[i:i + n])) for i in range(0, size, n)] for c in trial_draws)

    def value_at(masks):
        v = seen.get(masks)
        if v is None:
            a[:] = masks
            v = seen[masks] = value()
        return v

    for pairs in draws:
        low, high = zip(*pairs)
        lv = value_at(low)
        hv = value_at(high)
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
        items.append(Add((nested, outside)))
    return Max(tuple(items))


def _require_decreasing(bounds):
    if not bounds:
        raise ChainError("empty chain")
    for j in range(1, len(bounds)):
        if not bounds[j] <= bounds[j - 1]:
            raise ChainError(f"bound chain not decreasing at slot {j}")


def dist_to_chain_set(xs, bounds, alg):
    """Exact max-metric distance from the tuple xs to the chain set of
    bounds, with a nearest witness.

    A chain tuple is one depth per atom, at most the atom's depth in the
    bounds, and Y_m holds the atoms of depth > m.  The walk keeps the least
    (integer distance, masks) over every depth vector, so the witness is
    the lexicographically least nearest tuple of masks."""
    bounds = [frozenset(u) for u in bounds]
    _require_decreasing(bounds)
    xs = [alg.mask(x) for x in xs]
    if len(xs) != len(bounds):
        raise ChainError("tuple length does not match chain length")
    bounds = [alg.mask(u) for u in bounds]
    refuse_over(chain_enumeration_count(bounds, alg), "chain set tuple count")
    sums, den = alg._mask_sums
    # Each depth of an atom as its bit in the masks Y_0, ..., Y_{l-1}.
    per_atom = [[tuple(bit if depth > m else 0 for m in range(len(bounds)))
                 for depth in range(_depth(bounds, bit) + 1)]
                for bit in alg.bit.values()]
    tuples = (tuple(map(sum, zip(*combo))) for combo in itertools.product(*per_atom))
    dist, witness = min((max(sums[x ^ y] for x, y in zip(xs, ys)), ys) for ys in tuples)
    return Fraction(dist, den), tuple(map(alg.unmask, witness))


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
    psi = Measure(SymDiff(Inter((x1, x2)), x3))
    return phi, psi
