"""Measure-algebra formulas over finite probability spaces.

Elements of the algebra are subsets of a finite atom list with positive
rational weights summing to 1; d(A,B) = mu(A symmetric-difference B).
Formulas are real-valued terms over indexed set variables, including a
constrained-supremum node (SupChain) evaluated either by exhaustive
search or by substituting the maximal feasible element.

Inside this module a set is an int mask over the atom order (atom i is
bit i), and the measure of a mask is an integer sum of the weights over
their least common denominator, memoised per mask.  The public functions
take and return frozensets and convert at the boundary.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetError, ChainError, EvaluationError, ValidationError
from .tree import Shape

ENUMERATE = "enumerate"
MAXIMAL = "maximal"

# Enumerate mode refuses a SupChain whose feasible chain tuples, counted
# in closed form, exceed this; the 204-instance suite needs at most 13,068.
# The same budget caps maximal mode's product of per-atom maximal vectors
# and the chain-set walk of dist_to_chain_set.
ENUMERATE_TUPLE_BUDGET = 10**6


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
        w = {a: Fraction(v) for a, v in self.weights.items()}
        object.__setattr__(self, "weights", w)
        for a, v in w.items():
            if v <= 0:
                raise ValidationError(f"weight of atom {a!r} is not positive")
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
    def _mask_measures(self):
        """The memo of measure_mask, and the weights as integer numerators
        over their least common denominator."""
        den = math.lcm(*(w.denominator for w in self.weights.values()))
        scaled = tuple(self.weights[a].numerator * (den // self.weights[a].denominator)
                       for a in self.atoms)
        return {}, scaled, den

    def measure_mask(self, mask):
        """mu of a mask: one integer sum and one Fraction per mask seen.
        Only masks that occur are memoised; a 2^n table is never built."""
        memo, scaled, den = self._mask_measures
        value = memo.get(mask)
        if value is None:
            value = memo[mask] = Fraction(
                sum(w for i, w in enumerate(scaled) if mask >> i & 1), den)
        return value

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


def _submasks(cap):
    """Every submask of cap, ascending: the bitmask order of subsets."""
    y = 0
    while True:
        yield y
        if y == cap:
            return
        y = (y - cap) & cap


def _masks(sets, alg):
    """A dict of frozenset values with each value as a mask."""
    return {key: alg.mask(s) for key, s in sets.items()}


# ---------------------------------------------------------------------------
# Set variables and set terms


@dataclass(frozen=True, slots=True)
class SetVarIndex:
    """Index of a set variable: a formula tag, a threshold level, and the
    comparison mode the intended level set uses (strict '>' vs '>=')."""

    tag: object
    level: Fraction
    strict: bool = True

    def __post_init__(self):
        if type(self.level) is not Fraction:
            object.__setattr__(self, "level", Fraction(self.level))


def var_sort_key(index):
    return (str(index.tag), index.level, index.strict)


@dataclass(frozen=True)
class SetVar:
    index: SetVarIndex


@dataclass(frozen=True)
class ChainVar:
    """A bound variable of a SupChain, identified by binder id, tag, slot."""

    binder: int
    tag: object
    slot: int


@dataclass(frozen=True)
class SetLit:
    atoms: frozenset


@dataclass(frozen=True)
class Empty:
    pass


@dataclass(frozen=True)
class Full:
    pass


@dataclass(frozen=True)
class Union:
    left: object
    right: object


@dataclass(frozen=True)
class Inter:
    left: object
    right: object


@dataclass(frozen=True)
class Diff:
    left: object
    right: object


@dataclass(frozen=True)
class SymDiff:
    left: object
    right: object


@dataclass(frozen=True)
class Compl:
    body: object


def eval_set(term, assign, alg, env=None):
    """The set a term denotes; assign and env hold frozensets."""
    return alg.unmask(_eval_set(term, _masks(assign, alg), alg,
                                _masks(env or {}, alg)))


def _eval_set(term, assign, alg, env):
    """eval_set on masks: assign and env hold masks."""
    t = type(term)
    if t is SetVar:
        try:
            return assign[term.index]
        except KeyError:
            raise EvaluationError(f"unbound set variable {term.index}") from None
    if t is ChainVar:
        try:
            return env[(term.binder, term.tag, term.slot)]
        except KeyError:
            raise EvaluationError(f"unbound chain variable {term}") from None
    if t is Inter:
        return _eval_set(term.left, assign, alg, env) & _eval_set(term.right, assign, alg, env)
    if t is Compl:
        return alg.full_mask ^ _eval_set(term.body, assign, alg, env)
    if t is Full:
        return alg.full_mask
    if t is Empty:
        return 0
    if t is SetLit:
        return alg.mask(term.atoms)
    if t is Union:
        return _eval_set(term.left, assign, alg, env) | _eval_set(term.right, assign, alg, env)
    if t is Diff:
        return _eval_set(term.left, assign, alg, env) & ~_eval_set(term.right, assign, alg, env)
    if t is SymDiff:
        return _eval_set(term.left, assign, alg, env) ^ _eval_set(term.right, assign, alg, env)
    raise TypeError(f"not a set term: {term!r}")


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


@dataclass(frozen=True)
class Measure:
    term: object


@dataclass(frozen=True)
class Const:
    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", Fraction(self.value))


@dataclass(frozen=True)
class Scale:
    factor: Fraction
    body: object

    def __post_init__(self):
        f = Fraction(self.factor)
        if f < 0:
            raise ValidationError("scale factor must be non-negative")
        object.__setattr__(self, "factor", f)


@dataclass(frozen=True)
class Add:
    left: object
    right: object


@dataclass(frozen=True)
class TruncSub:
    left: object
    right: object


@dataclass(frozen=True)
class Max:
    items: tuple


@dataclass(frozen=True)
class Min:
    items: tuple


@dataclass(frozen=True)
class ChainSpec:
    """Per-tag chain: upper-bound set terms U_0, ..., U_{l-1} over the outer
    variables; the bound chain variables Y_0, ..., Y_{l-1} must satisfy
    Y_j <= U_j intersect (Y_0 ... Y_{j-1})."""

    tag: object
    bounds: tuple  # of set terms

    @property
    def length(self):
        return len(self.bounds)


@dataclass(frozen=True)
class ProfileSpec:
    """Joint upper bound coupling slots across tags:
    the intersection of the named bound variables Y^tag_slot must lie
    inside the bound set.  slots is a tuple of (tag, slot index)."""

    slots: tuple
    bound: object  # set term


@dataclass(frozen=True)
class SupChain:
    binder: int
    chains: tuple  # of ChainSpec
    inner: object
    profiles: tuple = ()  # of ProfileSpec


MbaFormula = (Measure, Const, Scale, Add, TruncSub, Max, Min, SupChain)


# Child fields of every set-term and formula class, in traversal order.
_CHILDREN = Shape({
    **dict.fromkeys((SetVar, ChainVar, SetLit, Empty, Full, Const), ()),
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
    return {node.index for node in nodes(g) if type(node) is SetVar}


def contains_supchain(g):
    return any(type(node) is SupChain for node in nodes(g))


def _feasible_chain_tuples(bounds, alg):
    """All nested mask tuples (Y_0,...,Y_{l-1}) with Y_j within U_j and all
    previous Y's, in deterministic bitmask order."""

    def rec(j, prefix, allowed):
        if j == len(bounds):
            yield prefix
            return
        for y in _submasks(allowed & bounds[j]):
            yield from rec(j + 1, prefix + (y,), y)

    yield from rec(0, (), alg.full_mask)


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
    """Total feasible-tuple count of the outermost SupChain under assign."""
    masks = _masks(assign, alg)
    return math.prod(
        chain_enumeration_count([_eval_set(b, masks, alg, {}) for b in spec.bounds], alg)
        for spec in g.chains)


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
    return _eval(g, _masks(assign, alg), alg, mode, {})


def _eval(g, assign, alg, mode, env):
    """eval_mba on masks: assign and env hold masks."""
    t = type(g)
    if t is Measure:
        return alg.measure_mask(_eval_set(g.term, assign, alg, env))
    if t is Const:
        return g.value
    if t is Scale:
        return g.factor * _eval(g.body, assign, alg, mode, env)
    if t is Add:
        return _eval(g.left, assign, alg, mode, env) + _eval(g.right, assign, alg, mode, env)
    if t is TruncSub:
        v = _eval(g.left, assign, alg, mode, env) - _eval(g.right, assign, alg, mode, env)
        return max(Fraction(0), v)
    if t is Max:
        return max(_eval(item, assign, alg, mode, env) for item in g.items)
    if t is Min:
        return min(_eval(item, assign, alg, mode, env) for item in g.items)
    if t is SupChain:
        return _eval_supchain(g, assign, alg, mode, env)
    raise TypeError(f"not an mba formula: {g!r}")


def _eval_supchain(g, assign, alg, mode, env):
    bounds = []
    for spec in g.chains:
        values = [_eval_set(b, assign, alg, env) for b in spec.bounds]
        bounds.append(values)
    tag_pos = {spec.tag: i for i, spec in enumerate(g.chains)}
    profile_values = []
    for prof in g.profiles:
        for tag, slot in prof.slots:
            if tag not in tag_pos:
                raise EvaluationError(f"profile references unknown tag {tag!r}")
            if not 0 <= slot < len(bounds[tag_pos[tag]]):
                raise EvaluationError(f"profile slot {slot} out of range for tag {tag!r}")
        profile_values.append((prof.slots, _eval_set(prof.bound, assign, alg, env)))
    if mode == MAXIMAL:
        for spec, values in zip(g.chains, bounds):
            prev = alg.full_mask
            for u in values:
                if u & ~prev:
                    raise ChainError(
                        f"evaluated bound chain for tag {spec.tag!r} is not decreasing"
                    )
                prev = u
        return _eval_supchain_maximal(g, assign, alg, env, bounds, tag_pos, profile_values)
    refuse_over_budget(
        math.prod(chain_enumeration_count(values, alg) for values in bounds),
        "SupChain feasible tuple")
    # Resolved once per search, not per tuple: each profile's (chain,
    # slot) positions and the chain variables' env keys.
    joint = [([(tag_pos[tag], slot) for tag, slot in slots], w)
             for slots, w in profile_values]
    keys = [(g.binder, spec.tag, slot)
            for spec, values in zip(g.chains, bounds) for slot in range(len(values))]
    best = None
    for combo in itertools.product(
        *[_feasible_chain_tuples(values, alg) for values in bounds]
    ):
        ok = True
        for positions, w in joint:
            meet = alg.full_mask
            for i, slot in positions:
                meet &= combo[i][slot]
            if meet & ~w:
                ok = False
                break
        if not ok:
            continue
        inner_env = dict(env)
        inner_env.update(zip(keys, itertools.chain.from_iterable(combo)))
        v = _eval(g.inner, assign, alg, mode, inner_env)
        if best is None or v > best:
            best = v
    if best is None:
        raise EvaluationError("SupChain has an empty feasible region")
    return best


def refuse_over_budget(count, what):
    if count > ENUMERATE_TUPLE_BUDGET:
        raise BudgetError(
            f"{what} count {count} exceeds budget {ENUMERATE_TUPLE_BUDGET}")


def _maximal_depth_vectors(caps, forbidden):
    """Maximal vectors v with 0 <= v[i] <= caps[i] avoiding every forbidden
    pattern: v is infeasible when some pattern ((i, j), ...) has v[i] > j in
    all its coordinates.  The feasible set is downward closed, so its
    maximal elements exist and are computed by branching on violations."""
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


def _eval_supchain_maximal(g, assign, alg, env, bounds, tag_pos, profile_values):
    """Supremum via per-atom maximal feasible patterns.

    All constraints are pointwise: an atom's membership pattern is a
    per-tag prefix depth capped by the first excluding bound, and a
    profile forbids jointly exceeding its slots outside its bound set.
    For an inner formula increasing in the chain variables the supremum
    is attained with every atom at one of its maximal feasible depth
    vectors, independently across atoms."""
    bits = tuple(alg.bit.values())
    per_atom = []
    for bit in bits:
        caps = [_depth(values, bit) for values in bounds]
        forbidden = [tuple((tag_pos[tag], slot) for tag, slot in slots)
                     for slots, w in profile_values if not w & bit]
        per_atom.append(_maximal_depth_vectors(caps, forbidden))
    refuse_over_budget(math.prod(map(len, per_atom)),
                       "maximal depth vector combination")
    best = None
    for combo in itertools.product(*per_atom):
        inner_env = dict(env)
        for i, spec in enumerate(g.chains):
            for slot in range(len(bounds[i])):
                inner_env[(g.binder, spec.tag, slot)] = sum(
                    bit for bit, vec in zip(bits, combo) if vec[i] > slot)
        v = _eval(g.inner, assign, alg, MAXIMAL, inner_env)
        if best is None or v > best:
            best = v
    return best


def substitute_set_vars(g, mapping):
    """Replace free set variables by set terms (chain variables untouched)."""

    def sub(node):
        if type(node) is SetVar:
            return mapping.get(node.index, node)
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
    `trials` seeded random pairs.
    """
    variables = sorted(free_set_vars(g), key=var_sort_key)
    if not variables:
        return None
    exhaustive = 3 ** (len(alg.atoms) * len(variables)) <= exhaustive_limit
    bits = tuple(alg.bit.values())

    def comparable(choice):
        """Masks A <= B: each atom is in neither (0), B only (1) or both (2)."""
        low = sum(bit for bit, c in zip(bits, choice) if c == 2)
        high = sum(bit for bit, c in zip(bits, choice) if c >= 1)
        return low, high

    def test(pairs):
        low = {v: p[0] for v, p in zip(variables, pairs)}
        high = {v: p[1] for v, p in zip(variables, pairs)}
        lv = _eval(g, low, alg, MAXIMAL, {})
        hv = _eval(g, high, alg, MAXIMAL, {})
        if lv > hv:
            return MonotoneCounterexample(
                {v: alg.unmask(m) for v, m in low.items()},
                {v: alg.unmask(m) for v, m in high.items()}, lv, hv)
        return None

    if exhaustive:
        all_pairs = [comparable(choice)
                     for choice in itertools.product(range(3), repeat=len(bits))]
        for combo in itertools.product(all_pairs, repeat=len(variables)):
            ce = test(combo)
            if ce is not None:
                return ce
        return None
    if trials < 1:
        raise EvaluationError("trials must be >= 1")
    rng = random.Random(seed)
    for _ in range(trials):
        pairs = [comparable([rng.randrange(3) for _bit in bits])
                 for _v in variables]
        ce = test(pairs)
        if ce is not None:
            return ce
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
        x_m = SetVar(chain_var(tag, m, length))
        prev = [SetVar(chain_var(tag, j, length)) for j in range(m)]
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
    x1 = SetVar(SetVarIndex("X1", 0))
    x2 = SetVar(SetVarIndex("X2", 0))
    x3 = SetVar(SetVarIndex("X3", 0))
    phi = Measure(Diff(x1, x2))
    psi = Measure(SymDiff(Inter(x1, x2), x3))
    return phi, psi
