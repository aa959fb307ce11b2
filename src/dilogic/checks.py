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
    """(inf-free formula, transform, determination report, level
    assignment) of an instance."""
    phi = fm.rewrite_inf(inst.formula)
    result = tr.transform(phi, inst.k, budget_c, budget_vars)
    assign = tr.build_level_assignment(result, inst.field, inst.assignment)
    return phi, result, tr.determination_check(
        phi, inst.k, inst.field, inst.assignment, result=result,
        assign=assign), assign


def layer_cake(inst, phi, report):
    """Layer-cake bounds on the integral of an atomic or constant phi."""
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


def sup_collapse(inst, result, assign):
    """Enumerate and maximal evaluation of G agree on the level sets of
    assign, the instance's build_level_assignment."""
    if not mba.contains_supchain(result.g):
        return None
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
