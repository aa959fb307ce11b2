"""The three workloads of the dilogic benchmark.

Each workload turns a seed into a list of cases and defines, per case,
one timed op (a call path a user of dilogic waits for), an untimed
observation of the op's output (its verdict, a fingerprint that must
repeat exactly on every pass, and closed-form work counters) and a final
check against a reference that is independent of the timed code.

Why these three (see also BENCHMARK.json):

- ``certify`` is the certification path that ``dilogic selftest`` and the
  acceptance suite run.  Level sets, enumerate-mode SupChain search and
  monotonicity checking do most of its work.
- ``compile`` is the ``dilogic transform`` path on a few large compiles
  under lifted budgets; serialization is its larger cost, and it builds
  no field and calls no evaluator.
- ``eval`` is the direct-integral oracle (``dilogic eval``) on wider
  fields.  The oracle is a negligible share of ``certify``, so only this
  workload can show a change to ``integral``.

Every exponential enumeration is counted in closed form before it runs
and refused above a cap, so no case can hang; a refused case raises
``BudgetError`` and counts as a failed op.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
from fractions import Fraction

from dilogic import family, jsonio, mba
from dilogic import formula as fm
from dilogic import integral as di
from dilogic import structure as st
from dilogic import transform as tr
from dilogic.errors import BudgetError

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")

# Caps on the closed-form size of each enumeration a case may start.
ENUMERATE_TUPLE_CAP = 10**6
MONOTONE_EVAL_CAP = 10**5
CHOICE_FUNCTION_CAP = 10**6

# The same counters are reported by every workload; a workload that does
# not touch a layer reports 0 for that layer's counters.
COUNTERS = (
    "transform.formulas",
    "transform.declared_vars",
    "transform.read_vars",
    "transform.profiles",
    "transform.levels.level_sets",
    "transform.levels.read_vars",
    "transform.complement.level_sets",
    "mba.enumerate.tuples",
    "mba.monotone.evals",
    "integral.oracle.choice_functions",
    "jsonio.bytes",
)


@dataclasses.dataclass(frozen=True)
class Case:
    name: str
    args: tuple


@dataclasses.dataclass(frozen=True)
class Observation:
    ok: bool            # the op's own verdicts all passed
    fingerprint: object  # must be identical on every pass of the run
    counters: dict


def _refuse_over(count, cap, what):
    if count > cap:
        raise BudgetError(f"{what} count {count} exceeds benchmark cap {cap}")


# ---------------------------------------------------------------------------
# Closed-form work counts


def _mba_children(node):
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        items = value if isinstance(value, tuple) else (value,)
        for item in items:
            if isinstance(item, mba.MbaFormula):
                yield item


def _supchains(g, outermost_only):
    if isinstance(g, mba.SupChain):
        yield g
        if outermost_only:
            return
    for child in _mba_children(g):
        yield from _supchains(child, outermost_only)


def profile_count(g):
    """Joint profile constraints over every SupChain of g."""
    return sum(len(s.profiles) for s in _supchains(g, False))


def enumerate_tuples(g, assign, alg):
    """Feasible chain tuples enumerate mode visits in the outermost
    SupChains of g (``mba.supchain_search_size`` summed over them)."""
    return sum(mba.supchain_search_size(s, assign, alg)
               for s in _supchains(g, True))


def monotone_evals(g, alg, trials, exhaustive_limit):
    """eval_mba calls a passing ``check_monotone`` makes, by its own rule:
    two per comparable assignment pair, exhaustive when 3^(atoms*vars) is
    within the limit, else two per sampled trial."""
    n_vars = len(mba.free_set_vars(g))
    if n_vars == 0:
        return 0
    pairs = 3 ** (len(alg.atoms) * n_vars)
    return 2 * (pairs if pairs <= exhaustive_limit else trials)


def oracle_choice_functions(phi, field_):
    """Choice functions ``eval_on_integral`` enumerates for phi: every Sup
    (after Inf rewriting) walks all of them once per evaluation of its
    enclosing body."""
    n = field_.element_count()

    def visits(p):
        if isinstance(p, (fm.Atomic, fm.Const)):
            return 0
        if isinstance(p, fm.Half):
            return visits(p.body)
        if isinstance(p, fm.TruncSub):
            return visits(p.left) + visits(p.right)
        if isinstance(p, fm.Sup):
            return n * (1 + visits(p.body))
        raise TypeError(f"not an inf-free formula: {p!r}")

    return visits(fm.rewrite_inf(phi))


def _transform_counters(result):
    return {
        "transform.formulas": len(result.formulas),
        "transform.declared_vars": len(result.variables),
        "transform.read_vars": len(mba.free_set_vars(result.g)),
        "transform.profiles": profile_count(result.g),
    }


def _counters(**known):
    out = dict.fromkeys(COUNTERS, 0)
    out.update(known)
    return out


# ---------------------------------------------------------------------------
# certify: the per-instance body of `dilogic selftest`

# The panel is three cycles of the 17 templates: the first 51 instances
# of the acceptance family (seed 0), a superset of `dilogic selftest`'s
# default 34, and check_monotone samples with seed 0, as `dilogic
# selftest` does by default.  Both are pinned: the six enumerate-heavy
# instances take most of the time and their cost swings by a factor of
# four with the field drawn, and a light instance's cost swings by half
# with check_monotone's sampling seed, so a panel drawn per seed would
# make runs incomparable.  The benchmark seed orders the panel.
CERTIFY_FAMILY_SEED = 0
CERTIFY_COUNT = 51
MONOTONE_TRIALS = 10
MONOTONE_EXHAUSTIVE_LIMIT = 2000


class Certify:
    name = "certify"

    def __init__(self, seed, limit=None):
        instances = family.determination_instances(CERTIFY_FAMILY_SEED,
                                                   CERTIFY_COUNT)
        random.Random(seed).shuffle(instances)
        self.cases = [Case(inst.name, (inst,)) for inst in instances[:limit]]

    def op(self, inst):
        phi = fm.rewrite_inf(inst.formula)
        space = inst.field.space
        result = tr.transform(phi, inst.k, tr.DEFAULT_BUDGET_C,
                              family.FAMILY_BUDGET_VARS)
        report = tr.determination_check(phi, inst.k, inst.field,
                                        inst.assignment, result=result)
        verdicts = {"determination": report.ok}
        if isinstance(phi, (fm.Atomic, fm.Const)):
            low = sum(
                (space.measure(di.level_set(phi, inst.field, inst.assignment,
                                            Fraction(i, inst.k)))
                 for i in range(1, inst.k)), Fraction(0)) / inst.k
            verdicts["layer_cake"] = (
                low <= report.integral_value <= low + Fraction(1, inst.k))
        _refuse_over(monotone_evals(result.g, space, MONOTONE_TRIALS,
                                    MONOTONE_EXHAUSTIVE_LIMIT),
                     MONOTONE_EVAL_CAP, "monotone evaluation")
        verdicts["monotone"] = mba.check_monotone(
            result.g, space, trials=MONOTONE_TRIALS, seed=CERTIFY_FAMILY_SEED,
            exhaustive_limit=MONOTONE_EXHAUSTIVE_LIMIT) is None
        assign = None
        if mba.contains_supchain(result.g):
            assign = tr.build_level_assignment(result, inst.field,
                                               inst.assignment)
            _refuse_over(enumerate_tuples(result.g, assign, space),
                         ENUMERATE_TUPLE_CAP, "SupChain tuple")
            a = mba.eval_mba(result.g, assign, space, mba.ENUMERATE)
            b = mba.eval_mba(result.g, assign, space, mba.MAXIMAL)
            verdicts["sup_collapse"] = a == b
        verdicts["complement_identity"] = all(
            tr.complement_identity_holds(zeta, result.levels[zeta],
                                         inst.field, inst.assignment)
            for zeta in result.formulas)
        return result, report, assign, verdicts

    def observe(self, inst, output):
        result, report, assign, verdicts = output
        space = inst.field.space
        declared = len(result.variables | mba.free_set_vars(result.g))
        read = len(mba.free_set_vars(result.g))
        # determination_check assigns every declared variable once, and
        # the enumerate/maximal agreement check does so again.
        assignments = 1 if assign is None else 2
        counters = _counters(
            **_transform_counters(result),
            **{
                "transform.levels.level_sets": assignments * declared,
                "transform.levels.read_vars": assignments * read,
                "transform.complement.level_sets": sum(
                    2 * (result.levels[z] + 1) for z in result.formulas),
                "mba.enumerate.tuples": (
                    0 if assign is None
                    else enumerate_tuples(result.g, assign, space)),
                "mba.monotone.evals": monotone_evals(
                    result.g, space, MONOTONE_TRIALS,
                    MONOTONE_EXHAUSTIVE_LIMIT),
                "integral.oracle.choice_functions": oracle_choice_functions(
                    inst.formula, inst.field),
            })
        fingerprint = (report.integral_value, report.mba_value,
                       tuple(sorted(verdicts.items())))
        return Observation(all(verdicts.values()), fingerprint, counters)

    def check(self, case, fingerprint):
        return True  # every verdict is checked by observe


# ---------------------------------------------------------------------------
# compile: `dilogic transform` under lifted budgets

# The 17 templates plus the three compile-frontier formulas, each at the
# k values listed.  The nested supremum is left out at k >= 5 (33 s at
# k = 5, 420 s at k = 6) and `inf y . P(y)` is compiled at k = 2 only (6 s
# and 50,550 declared variables there; it sets the workload's peak RSS).
COMPILE_KS = (2, 3, 4)
FRONTIER = (
    ("frontier-sup-sub", "sup y . sub(P(y), Q(y))", COMPILE_KS),
    ("frontier-sup-sup", "sup x . sup y . R(x,y)", COMPILE_KS),
    ("frontier-inf", "inf y . P(y)", (2,)),
)
# Lifted, but finite: transform counts each supremum's index set in
# closed form before building it and refuses one over budget.
COMPILE_BUDGET = 1 << 16


def emit_document(result):
    """The bytes `dilogic transform` prints for a result."""
    return json.dumps(jsonio.transform_result_to_doc(result),
                      sort_keys=True, indent=2)


def load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)["compile"]


def compile_panel():
    panel = [(name, fm.to_text(phi), COMPILE_KS)
             for name, phi, _small in family.formula_templates()]
    panel += FRONTIER
    return [Case(f"{name}@k{k}", (text, k))
            for name, text, ks in panel for k in ks]


class Compile:
    name = "compile"

    def __init__(self, seed, limit=None, reference=None):
        self.sig = family.default_signature()
        self.reference = load_reference() if reference is None else reference
        cases = compile_panel()
        random.Random(seed).shuffle(cases)
        self.cases = cases[:limit]

    def op(self, text, k):
        phi = fm.rewrite_inf(fm.parse_formula(text, self.sig))
        result = tr.transform(phi, k, COMPILE_BUDGET, COMPILE_BUDGET)
        return result, emit_document(result)

    def observe(self, text, k, output):
        result, data = output
        raw = data.encode("utf-8")
        counters = _counters(**_transform_counters(result),
                             **{"jsonio.bytes": len(raw)})
        fingerprint = (hashlib.sha256(raw).hexdigest(),
                       counters["transform.formulas"],
                       counters["transform.declared_vars"],
                       counters["transform.read_vars"])
        return Observation(True, fingerprint, counters)

    def check(self, case, fingerprint):
        """The formula, declared-variable and read-variable counts must
        match the counts recorded in reference.json."""
        _digest, formulas, declared, read = fingerprint
        return self.reference.get(case.name) == {
            "formulas": formulas, "declared_vars": declared, "read_vars": read}


# ---------------------------------------------------------------------------
# eval: the direct-integral oracle on wider fields

# Fields have 4 or 5 atoms (the acceptance family uses 1 to 3) and are
# built like family.random_field, but from a fixed multiset of fiber
# sizes: the oracle's work is set by the choice-function count, their
# product (36 here), so seeds change every weight, metric and table value
# but not the amount of work, and runs of different seeds compare.
EVAL_FIBER_SIZES = ((3, 3, 2, 2), (3, 3, 2, 2, 1)) * 2
# Each open template is evaluated under this many random assignments.
EVAL_ASSIGNMENTS = 2


def field_with_fiber_sizes(sig, rng, sizes):
    sizes = list(sizes)
    rng.shuffle(sizes)
    space = family.random_space(rng, len(sizes))
    fibers = {a: family.random_structure(sig, rng, n)
              for a, n in zip(space.atoms, sizes)}
    return di.MeasurableField(space, fibers)


def eval_formulas():
    """family.sentence_suite() and the templates with free variables."""
    out = [(f"sentence{i}", phi)
           for i, phi in enumerate(family.sentence_suite())]
    out += [(name, phi) for name, phi, _small in family.formula_templates()
            if fm.free_vars(phi)]
    return out


class Eval:
    name = "eval"

    def __init__(self, seed, limit=None):
        sig = family.default_signature()
        rng = random.Random(seed)
        self.fields = [field_with_fiber_sizes(sig, rng, sizes)
                       for sizes in EVAL_FIBER_SIZES]
        cases = []
        for f_index, field_ in enumerate(self.fields):
            for name, phi in eval_formulas():
                free = sorted(fm.free_vars(phi))
                size = oracle_choice_functions(phi, field_)
                for j in range(EVAL_ASSIGNMENTS if free else 1):
                    assignment = {v: family.random_element(field_, rng)
                                  for v in free}
                    cases.append(Case(f"{name}/field{f_index}/{j}",
                                      (phi, f_index, assignment, size)))
        rng.shuffle(cases)
        self.cases = cases[:limit]
        self._materialized = {}

    def op(self, phi, f_index, assignment, size):
        _refuse_over(size, CHOICE_FUNCTION_CAP, "choice-function")
        return di.eval_on_integral(phi, self.fields[f_index], assignment)

    def observe(self, phi, f_index, assignment, size, value):
        counters = _counters(**{"integral.oracle.choice_functions": size})
        return Observation(True, value, counters)

    def check(self, case, value):
        """The value must equal structure.eval_formula on the materialized
        integral, an evaluator the oracle does not share."""
        phi, f_index, assignment, _size = case.args
        field_ = self.fields[f_index]
        if f_index not in self._materialized:
            self._materialized[f_index] = di.materialize(field_)
        atoms = field_.space.atoms
        local = {v: tuple(e(a) for a in atoms) for v, e in assignment.items()}
        return value == st.eval_formula(phi, self._materialized[f_index], local)


WORKLOADS = {w.name: w for w in (Certify, Compile, Eval)}
