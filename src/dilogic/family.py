"""Seeded random families of structures, fields, formulas, and type-I
descriptions.

The same generators back the command-line selftest and the acceptance
suite, so every reported property is reproducible from a seed.  All
generated rationals have power-of-two denominators to keep downstream
arithmetic denominators small.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from . import formula as fm
from . import integral as di
from . import structure as st
from . import typei
from .errors import InputError

DENOM = 8

# The sup-over-subtraction templates compile with tripled grids under the
# supremum, so their declared variable sets outgrow the default budget.
FAMILY_BUDGET_VARS = 32768


def default_signature():
    return fm.Signature(predicates=(("P", 1), ("Q", 1), ("R", 2)))


def _partition(rng, n_parts, denom=DENOM):
    """A random composition of 1 into n_parts positive denom-ths."""
    if not 1 <= n_parts <= denom:
        raise InputError(f"cannot split {denom} units into {n_parts} parts")
    cuts = sorted(rng.sample(range(1, denom), n_parts - 1))
    edges = [0] + cuts + [denom]
    return [Fraction(b - a, denom) for a, b in zip(edges, edges[1:])]


def random_metric(points, rng, denom=DENOM):
    """Random metric with values in (0,1]: seed a symmetric matrix, then
    take its shortest-path closure so the triangle inequality holds."""
    d = {(p, p): Fraction(0) for p in points}
    for i, p in enumerate(points):
        for q in points[i + 1:]:
            v = Fraction(rng.randint(1, denom), denom)
            d[(p, q)] = d[(q, p)] = v
    for mid in points:
        for p in points:
            for q in points:
                via = d[(p, mid)] + d[(mid, q)]
                if via < d[(p, q)]:
                    d[(p, q)] = via
    return d


def _lipschitz_table(points, dist, arity, rng, denom=DENOM):
    """1-Lipschitz [0,1] table: the minimal Lipschitz extension of random
    seed values, using the coordinate-sum metric, capped at 1."""
    tuples = list(itertools.product(points, repeat=arity))
    seeds = {t: Fraction(rng.randint(0, denom), denom) for t in tuples}
    table = {}
    for t in tuples:
        best = min(
            seeds[s] + sum((dist[(a, b)] for a, b in zip(t, s)), Fraction(0))
            for s in tuples
        )
        table[t] = min(Fraction(1), best)
    return table


def random_structure(sig, rng, n_points, prefix="p", denom=DENOM):
    points = tuple(f"{prefix}{i}" for i in range(n_points))
    dist = random_metric(points, rng, denom)
    preds = {
        name: _lipschitz_table(points, dist, arity, rng, denom)
        for name, arity in sig.predicates
    }
    funcs = {}
    for name, arity in sig.functions:
        # Nearest-seed assignment is not automatically Lipschitz; constant
        # functions are, and suffice for the generated families.
        target = rng.choice(points)
        funcs[name] = {t: target for t in itertools.product(points, repeat=arity)}
    return st.ensure_valid(
        st.FiniteMetricStructure(sig, points, dist, preds, funcs)
    )


def random_space(rng, n_atoms):
    atoms = tuple(f"w{i + 1}" for i in range(n_atoms))
    weights = dict(zip(atoms, _partition(rng, n_atoms)))
    return di.FiniteProbabilitySpace(atoms, weights)


def random_field(sig, rng, n_atoms, max_points):
    space = random_space(rng, n_atoms)
    fibers = {
        a: random_structure(sig, rng, rng.randint(1, max_points))
        for a in space.atoms
    }
    return di.MeasurableField(space, fibers)


def random_element(field_, rng):
    return di.IntegralElement(
        {a: rng.choice(field_.fibers[a].points) for a in field_.space.atoms}
    )


# ---------------------------------------------------------------------------
# Formula templates


def _p(v):
    return fm.Atomic("P", (fm.Var(v),))


def _q(v):
    return fm.Atomic("Q", (fm.Var(v),))


def _r(v, w):
    return fm.Atomic("R", (fm.Var(v), fm.Var(w)))


def formula_templates():
    """Depth <= 3 formulas over the default signature.

    The `small` flag marks formulas whose compiled form contains a
    supremum over a compiled truncated subtraction; those get 2-atom
    spaces so exhaustive SupChain enumeration stays affordable.
    """
    c = lambda q: fm.Const(Fraction(q))
    templates = [
        ("atomic-unary", _p("x1"), False),
        ("atomic-unary-2", _q("x1"), False),
        ("atomic-binary", _r("x1", "x2"), False),
        ("const", c("1/3"), False),
        ("half-atomic", fm.Half(_p("x1")), False),
        ("half-half", fm.Half(fm.Half(_q("x1"))), False),
        ("sub-atomic", fm.TruncSub(_p("x1"), _q("x1")), False),
        ("sub-mixed", fm.TruncSub(fm.Half(_p("x1")), c("1/4")), False),
        ("sub-const-left", fm.TruncSub(c("1/2"), _p("x1")), False),
        ("half-sub", fm.Half(fm.TruncSub(_q("x1"), _r("x1", "x2"))), False),
        ("sub-sub", fm.TruncSub(fm.TruncSub(_p("x1"), c("1/4")), _q("x1")), False),
        ("sup-atomic", fm.Sup("y", _p("y")), False),
        ("sup-binary", fm.Sup("y", _r("x1", "y")), False),
        ("half-sup", fm.Half(fm.Sup("y", _q("y"))), False),
        ("sup-sub", fm.Sup("y", fm.TruncSub(_p("y"), _q("y"))), True),
        ("sup-sub-const", fm.Sup("y", fm.TruncSub(_r("x1", "y"), c("1/2"))), True),
        ("sub-sup", fm.TruncSub(_p("x1"), fm.Sup("y", _q("y"))), True),
    ]
    return [(name, fm.canonicalize(phi), small) for name, phi, small in templates]


def sentence_suite():
    """Depth <= 2 sentences used by the fiber-relabeling agreement checks."""
    sentences = [
        fm.Sup("y", _p("y")),
        fm.Sup("y", fm.Half(_q("y"))),
        fm.Sup("y", fm.TruncSub(_p("y"), _q("y"))),
        fm.Inf("y", _p("y")),
        fm.Sup("x", fm.Sup("y", _r("x", "y"))),
        fm.Inf("x", fm.Sup("y", _r("x", "y"))),
        fm.Const(Fraction(2, 5)),
    ]
    return [fm.canonicalize(s) for s in sentences]


@dataclass(frozen=True)
class Instance:
    name: str
    formula: object
    field: di.MeasurableField
    assignment: dict
    k: int


def determination_instances(seed, count):
    """The seeded (formula, field, assignment, k) family."""
    if count < 0:
        raise InputError(f"instance count {count} is negative")
    sig = default_signature()
    rng = random.Random(seed)
    templates = formula_templates()
    out = []
    for i in range(count):
        name, phi, small = templates[i % len(templates)]
        k = rng.choice([2, 3])
        if small:
            # Keep exhaustive SupChain enumeration affordable: the slot
            # count grows with k, so k = 3 instances get one atom.
            n_atoms = 1 if k == 3 else rng.randint(1, 2)
        else:
            n_atoms = rng.randint(1, 3)
        field_ = random_field(sig, rng, n_atoms, max_points=3)
        assignment = {
            v: random_element(field_, rng) for v in sorted(fm.free_vars(phi))
        }
        out.append(Instance(f"{name}#{i}", phi, field_, assignment, k))
    return out


# ---------------------------------------------------------------------------
# Fiber-relabeling pairs


def relabel_pairs(seed, count):
    """(field, relabeled field) pairs with per-fiber renaming bijections."""
    sig = default_signature()
    rng = random.Random(seed)
    out = []
    for i in range(count):
        field_ = random_field(sig, rng, rng.randint(1, 3), max_points=3)
        bijections = {}
        for a in field_.space.atoms:
            pts = list(field_.fibers[a].points)
            renamed = [f"q{i}_{j}" for j in range(len(pts))]
            rng.shuffle(renamed)
            bijections[a] = dict(zip(pts, renamed))
        out.append((field_, di.relabel_field(field_, bijections), bijections))
    return out


# ---------------------------------------------------------------------------
# Type-I description families


def _coin(rng):
    """A fair coin in integers.  It reads the two 32-bit words that
    rng.random() reads and is heads exactly when rng.random() < 1/2 (the
    top bit of the first word is clear), so seeded families are the same
    as with that float test."""
    return not rng.getrandbits(64) >> 31 & 1


def random_description(rng):
    """Random type-I description with sizes in {1,..,4}, masses in twelfths."""
    sizes = rng.sample([1, 2, 3, 4], rng.randint(1, 3))
    slots = []
    for m in sizes:
        for _ in range(rng.randint(0, 2)):
            slots.append((m, "atom"))
        if _coin(rng):
            slots.append((m, "diffuse"))
    if not slots:
        slots.append((sizes[0], "atom"))
    masses = _partition(rng, len(slots), 12)
    components = {}
    for (m, kind), mass in zip(slots, masses):
        atoms, diffuse = components.get(m, ([], Fraction(0)))
        if kind == "atom":
            atoms = atoms + [mass]
        else:
            diffuse = diffuse + mass
        components[m] = (atoms, diffuse)
    return typei.TypeIDescription(
        tuple((m, tuple(a), d) for m, (a, d) in components.items())
    )


def represent(desc, rng):
    """An equivalent re-presentation: components shuffled and split, atom
    lists shuffled; the constructor canonicalizes it back."""
    raw = []
    for m, atoms, diffuse in desc.components:
        atoms = list(atoms)
        rng.shuffle(atoms)
        if len(atoms) >= 2 and _coin(rng):
            cut = rng.randint(1, len(atoms) - 1)
            raw.append((m, tuple(atoms[:cut]), Fraction(0)))
            raw.append((m, tuple(atoms[cut:]), diffuse))
        else:
            raw.append((m, tuple(atoms), diffuse))
    rng.shuffle(raw)
    return typei.TypeIDescription(tuple(raw), desc.remainder)


def description_quadruples(seed, count):
    """(d1, d1', d2, d2') with d1 ~ d1' and d2 ~ d2'."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        d1 = random_description(rng)
        d2 = random_description(rng)
        out.append((d1, represent(d1, rng), d2, represent(d2, rng)))
    return out
