"""Acceptance suite: nine exact, zero-tolerance criteria over seeded
families.  Each criterion prints a single pass/fail line."""

import itertools
import random
import time
from fractions import Fraction

import numpy as np

from dilogic import checks, family
from dilogic import formula as fm
from dilogic import integral as di
from dilogic import mba
from dilogic import structure as st
from dilogic import transform as tr

F = Fraction

SEED = 0
SUITE_SIZE = 204  # 12 full cycles of the 17 formula templates

_CACHE = {}


def _report(number, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {number} ({name}): {verdict}{detail}")
    assert ok, f"criterion {number} ({name}) failed{detail}"


def get_suite():
    """(instance, inf-free formula, transform, report, level assignment)
    for every suite instance; built once and reused across criteria."""
    if "suite" not in _CACHE:
        start = time.monotonic()
        _CACHE["suite"] = [
            (inst, *checks.certify(inst, tr.DEFAULT_BUDGET_C,
                                   family.FAMILY_BUDGET_VARS))
            for inst in family.determination_instances(SEED, SUITE_SIZE)
        ]
        _CACHE["suite_seconds"] = time.monotonic() - start
    return _CACHE["suite"]


# ---------------------------------------------------------------------------
# 1. Determination


def test_criterion_1_determination():
    suite = get_suite()
    elapsed = _CACHE["suite_seconds"]
    bad = [
        (inst.name, report.failures)
        for inst, _phi, _result, report, _assign in suite
        if not report.ok
    ]
    for _inst, _phi, _result, report, _assign in suite:
        assert abs(report.integral_value - report.mba_value) <= F(2, report.k)
    ok = not bad and len(suite) >= 200 and elapsed < 300
    _report(
        1, "determination",
        ok,
        f" [{len(suite)} instances, {elapsed:.1f}s"
        + (f", failures: {bad[:3]}" if bad else "") + "]",
    )


# ---------------------------------------------------------------------------
# 2. Layer-cake bounds for atomic instances


def test_criterion_2_layer_cake():
    verdicts = [checks.layer_cake(inst, phi, report)
                for inst, phi, _result, report, _assign in get_suite()]
    checked, bad = len(verdicts) - verdicts.count(None), verdicts.count(False)
    ok = checked > 0 and not bad
    _report(2, "layer cake", ok, f" [{checked} atomic instances]")


# ---------------------------------------------------------------------------
# 3. Monotonicity of every compiled formula


def test_criterion_3_monotonicity():
    bad = [inst.name for inst, _phi, result, _report_, _assign in get_suite()
           if not checks.monotone(inst, result, SEED)]
    _report(3, "monotonicity", not bad, f" [{len(get_suite())} outputs]")


# ---------------------------------------------------------------------------
# 4. Definability oracles, exhaustive


def _weight_table(weights):
    """weights: per-atom integer masses; returns wt[mask] for all masks."""
    n = len(weights)
    wt = np.zeros(1 << n, dtype=np.int64)
    for mask in range(1 << n):
        wt[mask] = sum(w for i, w in enumerate(weights) if mask >> i & 1)
    return wt


def _chains(n_atoms, length):
    """All decreasing chains as per-atom depth vectors -> tuple of masks."""
    for depths in itertools.product(range(length + 1), repeat=n_atoms):
        yield tuple(
            sum(1 << i for i, d in enumerate(depths) if d > slot)
            for slot in range(length)
        )


def _feasible_masks(chain, n_atoms):
    """All nested tuples inside the chain, as arrays of masks."""
    length = len(chain)
    caps = []
    for i in range(n_atoms):
        cap = length
        for slot in range(length):
            if not chain[slot] >> i & 1:
                cap = slot
                break
        caps.append(cap)
    out = []
    for depths in itertools.product(*[range(c + 1) for c in caps]):
        out.append(tuple(
            sum(1 << i for i, d in enumerate(depths) if d > slot)
            for slot in range(length)
        ))
    return np.array(out, dtype=np.int64)


def _phi_values(chain, xs, wt, full):
    """Integer-scaled phi values for every X tuple (xs: array (N, l))."""
    length = len(chain)
    n = xs.shape[0]
    vals = np.zeros(n, dtype=np.int64)
    prefix = np.full(n, full, dtype=np.int64)
    for m in range(length):
        xm = xs[:, m]
        term = wt[xm & ~prefix & full] + wt[xm & ~chain[m] & full]
        np.maximum(vals, term, out=vals)
        prefix &= xm
    return vals


def _dist_values(xs, ys, wt):
    """Min over feasible ys of the max-metric distance, per X tuple."""
    d = wt[xs[:, None, :] ^ ys[None, :, :]]
    return d.max(axis=2).min(axis=1)


def test_criterion_4_definability_oracle():
    start = time.monotonic()
    weights = [1, 1, 2, 4]  # masses out of 8: a non-uniform 4-atom algebra
    n_atoms = len(weights)
    full = (1 << n_atoms) - 1
    wt = _weight_table(weights)
    ok = True
    detail = ""

    # (a) phi-chain soundness, exhaustive over chains of length <= 3 and
    # ALL X tuples.
    for length in (1, 2, 3):
        masks = np.arange(1 << n_atoms, dtype=np.int64)
        xs = np.array(
            list(itertools.product(masks, repeat=length)), dtype=np.int64
        )
        for chain in _chains(n_atoms, length):
            ys = _feasible_masks(chain, n_atoms)
            phi = _phi_values(chain, xs, wt, full)
            dist = _dist_values(xs, ys, wt)
            if not ((dist <= phi).all() and ((phi == 0) == (dist == 0)).all()):
                ok = False
                detail = f" [phi chain {chain} at length {length}]"
                break
        if not ok:
            break

    # Cross-check the integer harness against the formula evaluator and
    # the search oracle on sampled instances.
    alg = mba.FiniteMeasureAlgebra(
        ("a0", "a1", "a2", "a3"),
        {"a0": F(1, 8), "a1": F(1, 8), "a2": F(1, 4), "a3": F(1, 2)},
    )

    def to_set(mask):
        return frozenset(a for i, a in enumerate(alg.atoms) if mask >> i & 1)

    rng = random.Random(SEED)
    if ok:
        for _ in range(25):
            length = rng.randint(1, 3)
            chain = rng.choice(list(_chains(n_atoms, length)))
            x_masks = tuple(rng.randrange(1 << n_atoms) for _ in range(length))
            bounds = [to_set(m) for m in chain]
            xs_sets = [to_set(m) for m in x_masks]
            formula = mba.phi_chain(bounds)
            assign = {
                mba.chain_var("X", m, length): x for m, x in enumerate(xs_sets)
            }
            phi_exact = mba.eval_mba(formula, assign, alg)
            dist_exact, witness = mba.dist_to_chain_set(xs_sets, bounds, alg)
            xs_arr = np.array([x_masks], dtype=np.int64)
            phi_int = _phi_values(chain, xs_arr, wt, full)[0]
            dist_int = _dist_values(
                xs_arr, _feasible_masks(chain, n_atoms), wt
            )[0]
            if (phi_exact != F(int(phi_int), 8)
                    or dist_exact != F(int(dist_int), 8)
                    or alg.d_tuple(xs_sets, witness) != dist_exact):
                ok = False
                detail = " [harness cross-check]"
                break

    # (b) psi multichain with 2 tags: exhaustive over all chain pairs of
    # length 2 on a 3-atom algebra and all X tuples per tag.
    if ok:
        w3 = [1, 1, 1]
        wt3 = _weight_table(w3)
        full3 = 7
        xs2 = np.array(
            list(itertools.product(range(8), repeat=2)), dtype=np.int64
        )
        tables = {}
        for chain in _chains(3, 2):
            phi = _phi_values(chain, xs2, wt3, full3)
            dist = _dist_values(xs2, _feasible_masks(chain, 3), wt3)
            tables[chain] = (phi, dist)
        for ca, cb in itertools.product(tables, repeat=2):
            phi_a, dist_a = tables[ca]
            phi_b, dist_b = tables[cb]
            psi = np.maximum(phi_a[:, None], phi_b[None, :])
            da = dist_a[:, None]
            db = dist_b[None, :]
            if not ((da <= psi).all() and (db <= psi).all()
                    and ((psi == 0) == ((da == 0) & (db == 0))).all()):
                ok = False
                detail = f" [psi multichain {ca} x {cb}]"
                break

    # Cross-check psi against the evaluator on a few sampled assignments.
    if ok:
        alg3 = mba.FiniteMeasureAlgebra(
            ("b0", "b1", "b2"), {"b0": F(1, 3), "b1": F(1, 3), "b2": F(1, 3)}
        )

        def to_set3(mask):
            return frozenset(
                a for i, a in enumerate(alg3.atoms) if mask >> i & 1
            )

        for _ in range(10):
            ca = rng.choice(list(_chains(3, 2)))
            cb = rng.choice(list(_chains(3, 2)))
            psi_formula = mba.psi_multichain({
                "A": [to_set3(m) for m in ca],
                "B": [to_set3(m) for m in cb],
            })
            xa = tuple(rng.randrange(8) for _ in range(2))
            xb = tuple(rng.randrange(8) for _ in range(2))
            assign = {}
            for m, mask in enumerate(xa):
                assign[mba.chain_var("A", m, 2)] = to_set3(mask)
            for m, mask in enumerate(xb):
                assign[mba.chain_var("B", m, 2)] = to_set3(mask)
            expected = max(
                _phi_values(ca, np.array([xa], dtype=np.int64), wt3, full3)[0],
                _phi_values(cb, np.array([xb], dtype=np.int64), wt3, full3)[0],
            )
            if mba.eval_mba(psi_formula, assign, alg3) != F(int(expected), 3):
                ok = False
                detail = " [psi cross-check]"
                break

    # (c) warm-up formulas, exhaustive over the 4-atom algebra.
    if ok:
        masks = np.arange(1 << n_atoms, dtype=np.int64)
        # Inclusion: value wt[A \ B]; zero set {A <= B}.
        a_grid, b_grid = np.meshgrid(masks, masks, indexing="ij")
        val = wt[a_grid & ~b_grid & full]
        member = (a_grid & ~b_grid) == 0
        zero_pairs = np.array(
            [(a, b) for a in range(16) for b in range(16) if a & ~b == 0],
            dtype=np.int64,
        )
        d_incl = np.maximum(
            wt[a_grid[:, :, None] ^ zero_pairs[None, None, :, 0]],
            wt[b_grid[:, :, None] ^ zero_pairs[None, None, :, 1]],
        ).min(axis=2)
        if not (((val == 0) == member).all() and (d_incl <= val).all()):
            ok = False
            detail = " [inclusion warm-up]"

    if ok:
        triples = np.array(
            list(itertools.product(range(16), repeat=3)), dtype=np.int64
        )
        val = wt[(triples[:, 0] & triples[:, 1]) ^ triples[:, 2]]
        member = val == 0
        zero_triples = np.array(
            [(a, b, a & b) for a in range(16) for b in range(16)],
            dtype=np.int64,
        )
        d3 = wt[triples[:, None, :] ^ zero_triples[None, :, :]].max(
            axis=2
        ).min(axis=1)
        if not (((val == 0) == member).all() and (d3 <= val).all()
                and ((val == 0) == (d3 == 0)).all()):
            ok = False
            detail = " [intersection warm-up]"

    elapsed = time.monotonic() - start
    ok = ok and elapsed < 120
    _report(4, "definability oracle", ok, detail + f" [{elapsed:.1f}s]")


# ---------------------------------------------------------------------------
# 5. Enumerate / maximal agreement on every compiled supremum


def test_criterion_5_sup_collapse():
    verdicts = [checks.sup_collapse(inst, result, assign)
                for inst, _phi, result, _report_, assign in get_suite()]
    checked, bad = len(verdicts) - verdicts.count(None), verdicts.count(False)
    ok = checked > 0 and not bad
    _report(5, "sup collapse", ok, f" [{checked} suprema]")


# ---------------------------------------------------------------------------
# 6. Complement identity


def test_criterion_6_complement_identity():
    suite = get_suite()
    checked = sum(len(result.formulas)
                  for _inst, _phi, result, _report_, _assign in suite)
    bad = [inst.name for inst, _phi, result, _report_, _assign in suite
           if not checks.complement_identity(inst, result)]
    ok = checked > 0 and not bad
    _report(6, "complement identity", ok, f" [{checked} formulas]")


# ---------------------------------------------------------------------------
# 7. Relabeled-fiber agreement


def test_criterion_7_relabel_agreement():
    pairs = family.relabel_pairs(SEED, 50)
    sentences = family.sentence_suite()
    bad = []
    for i, (field_a, field_b, _bij) in enumerate(pairs):
        if tr.corollary_equivalence_check(field_a, field_b, sentences):
            bad.append(i)
    ok = len(pairs) >= 50 and not bad
    _report(7, "relabel agreement", ok,
            f" [{len(pairs)} pairs x {len(sentences)} sentences]")


# ---------------------------------------------------------------------------
# 8. Type-I congruence


def test_criterion_8_typei_congruence():
    start = time.monotonic()
    quadruples = family.description_quadruples(SEED, 100)
    bad = [quad for quad in quadruples if not checks.typei_congruence(*quad)]
    elapsed = time.monotonic() - start
    ok = len(quadruples) >= 100 and not bad and elapsed < 30
    _report(8, "type-I congruence", ok,
            f" [{len(quadruples)} quadruples, {elapsed:.1f}s]")


# ---------------------------------------------------------------------------
# 9. Lipschitz and degeneracy invariants


def _term_occurrences(term, var):
    if isinstance(term, fm.Var):
        return 1 if term.name == var else 0
    return sum(_term_occurrences(a, var) for a in term.args)


def _lipschitz_constant(phi, var):
    """Syntax-derived Lipschitz constant of phi in the variable var.

    Symbols are 1-Lipschitz per coordinate, so each occurrence of the
    variable contributes 1; halving halves the constant and truncated
    subtraction sums its sides (the constant is 1 exactly when no
    variable is read on both sides of a subtraction).
    """
    if isinstance(phi, fm.Atomic):
        return F(sum(_term_occurrences(t, var) for t in phi.args))
    if isinstance(phi, fm.Const):
        return F(0)
    if isinstance(phi, fm.Half):
        return _lipschitz_constant(phi.body, var) / 2
    if isinstance(phi, fm.TruncSub):
        return _lipschitz_constant(phi.left, var) + _lipschitz_constant(
            phi.right, var
        )
    if phi.var == var:
        return F(0)
    return _lipschitz_constant(phi.body, var)


def _formula_lipschitz_violation(M, phi):
    names = sorted(fm.free_vars(phi))
    lip = {name: _lipschitz_constant(phi, name) for name in names}
    for combo in itertools.product(M.points, repeat=len(names)):
        base = dict(zip(names, combo))
        v = st.eval_formula(phi, M, base)
        if not 0 <= v <= 1:
            return f"range violation {v}"
        for name in names:
            for q in M.points:
                other = dict(base)
                other[name] = q
                w = st.eval_formula(phi, M, other)
                if abs(v - w) > lip[name] * M.d(base[name], q):
                    return f"modulus violation in {name}"
    return None


def _integral_lipschitz_violation(field_, phi):
    names = sorted(fm.free_vars(phi))
    lip = {name: _lipschitz_constant(phi, name) for name in names}
    elements = list(field_.elements())
    for combo in itertools.product(elements, repeat=len(names)):
        base = dict(zip(names, combo))
        v = di.eval_on_integral(phi, field_, base)
        for name in names:
            for e in elements:
                other = dict(base)
                other[name] = e
                w = di.eval_on_integral(phi, field_, other)
                if abs(v - w) > lip[name] * di.integral_dist(
                        field_, base[name], e):
                    return f"modulus violation in {name}"
    return None


def test_criterion_9_lipschitz_and_degeneracy():
    sig = family.default_signature()
    rng = random.Random(SEED)
    templates = family.formula_templates()
    bad = []

    # Exhaustive evaluator modulus checks on structures of <= 4 points:
    # every formula is Lipschitz with its syntax-derived constant, which
    # equals 1 whenever no variable straddles a truncated subtraction.
    for i in range(8):
        M = family.random_structure(sig, rng, rng.randint(1, 4))
        for name, phi, _small in templates:
            msg = _formula_lipschitz_violation(M, phi)
            if msg:
                bad.append((f"structure {i}", name, msg))

    # Exhaustive evaluator modulus checks on fields of <= 2 atoms, plus
    # symbol-level 1-Lipschitz validation of the materialized integral
    # (integration preserves every symbol's modulus).
    for i in range(5):
        field_ = family.random_field(sig, rng, rng.randint(1, 2), max_points=3)
        if st.validate(di.materialize(field_)) is not None:
            bad.append((f"field {i}", "materialized", "symbol Lipschitz"))
        for name, phi, _small in templates:
            if not fm.free_vars(phi):
                continue
            msg = _integral_lipschitz_violation(field_, phi)
            if msg:
                bad.append((f"field {i}", name, msg))

    # Single-atom degeneracy: the direct integral of one fiber is the fiber.
    for i in range(5):
        field_ = family.random_field(sig, rng, 1, max_points=3)
        atom = field_.space.atoms[0]
        M = field_.fibers[atom]
        for name, phi, _small in templates:
            for combo in itertools.product(
                M.points, repeat=len(sorted(fm.free_vars(phi)))
            ):
                names = sorted(fm.free_vars(phi))
                point_assign = dict(zip(names, combo))
                elem_assign = {
                    v: di.element_of(field_, {atom: p})
                    for v, p in point_assign.items()
                }
                if di.eval_on_integral(phi, field_, elem_assign) != \
                        st.eval_formula(phi, M, point_assign):
                    bad.append((f"degeneracy {i}", name, "value mismatch"))
        for phi in family.sentence_suite():
            if di.eval_on_integral(phi, field_) != st.eval_formula(phi, M):
                bad.append((f"degeneracy {i}", fm.to_text(phi), "sentence"))

    _report(9, "Lipschitz and degeneracy", not bad,
            f" [{len(bad)} violations]" if bad else "")
