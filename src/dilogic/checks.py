"""The exact property checks of `dilogic selftest` and the acceptance suite.

Each per-instance check returns True when its property holds, False when
it is violated, and None when it does not apply to the instance.
"""

from fractions import Fraction

from . import formula as fm
from . import integral as di
from . import mba
from . import transform as tr
from . import typei

MONOTONE_TRIALS = 10
MONOTONE_EXHAUSTIVE_LIMIT = 2000


def certify(inst, budget_c, budget_vars):
    """(transform, determination report) of an instance."""
    result = tr.transform(inst.formula, inst.k, budget_c, budget_vars)
    return result, tr.determination_check(
        inst.formula, inst.k, inst.field, inst.assignment, result=result)


def layer_cake(inst, report):
    """Layer-cake bounds on the integral of an atomic or constant
    instance formula."""
    phi = inst.formula
    if not isinstance(phi, (fm.Atomic, fm.Const)):
        return None
    k = inst.k
    values = di.fiber_values(phi, inst.field, inst.assignment)
    low = sum(
        (inst.field.space.measure(
            di.threshold(values, inst.field, Fraction(i, k)))
         for i in range(1, k)), Fraction(0)) / k
    return low <= report.integral_value <= low + Fraction(1, k)


def monotone(inst, result, seed):
    """G is coordinatewise increasing on the instance's measure algebra."""
    return mba.check_monotone(
        result.g, inst.field.space, trials=MONOTONE_TRIALS, seed=seed,
        exhaustive_limit=MONOTONE_EXHAUSTIVE_LIMIT) is None


def sup_collapse(inst, result):
    """Enumerate and maximal evaluation of G agree on the instance's level
    sets of the variables G reads."""
    if not mba.contains_supchain(result.g):
        return None
    assign = tr.build_level_assignment(result, inst.field, inst.assignment)
    return (mba.eval_mba(result.g, assign, inst.field.space, mba.ENUMERATE)
            == mba.eval_mba(result.g, assign, inst.field.space, mba.MAXIMAL))


def complement_identity(inst, result):
    """The exact complement identity holds for every formula of F."""
    return all(tr.complement_identity_holds(
        zeta, result.levels[zeta], inst.field, inst.assignment)
        for zeta in result.formulas)


def typei_congruence(d1, d1p, d2, d2p):
    """Tensor products respect equivalence and commute, with total mass 1."""
    t = typei.tensor(d1, d2)
    return (typei.equiv(d1, d1p) and typei.equiv(d2, d2p)
            and typei.equiv(t, typei.tensor(d1p, d2p))
            and typei.equiv(t, typei.tensor(d2, d1))
            and t.total_mass() == 1)
