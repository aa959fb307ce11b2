"""The declared-set contract: TransformResult.variables is derived on
demand, and the variable budget is checked against its closed-form size.

The compile panel of perfbench/workloads.py and its recorded counts in
perfbench/reference.json pin what transform declares and what G reads.
"""

import hashlib
import os
import sys

import pytest

from dilogic import family, mba
from dilogic import formula as fm
from dilogic import transform as tr
from dilogic.errors import BudgetError

from helpers import p_of, q_of

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))

import workloads  # noqa: E402


def compile_recording_finish(jobs):
    """Compile each (phi, k, budget_c, budget_vars) job; returns the top
    results and every result _Builder._finish returned on the way."""
    finished = []
    original = tr._Builder._finish

    def recording(self, k, levels, g):
        result = original(self, k, levels, g)
        finished.append(result)
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tr._Builder, "_finish", recording)
        results = [tr.transform(*job) for job in jobs]
    return results, finished


def assert_tags_in_table(result):
    """The two facts that let F[phi] order every tag: each free SetVar of
    G is tagged by a formula of F, and each ChainVar by the tag of a
    ChainSpec of an enclosing SupChain with its binder."""
    g = result.g
    assert all(v.tag in result.levels for v in mba.free_set_vars(g))
    chain_vars = {n for n in mba.nodes(g) if type(n) is mba.ChainVar}
    covered = set()
    for sup in mba.nodes(g):
        if type(sup) is mba.SupChain:
            tags = {spec.tag for spec in sup.chains}
            covered |= {n for n in mba.nodes(sup) if type(n) is mba.ChainVar
                        and n.binder == sup.binder and n.tag in tags}
    assert chain_vars == covered


@pytest.fixture(scope="module")
def compile_panel():
    sig = family.default_signature()
    cases = workloads.compile_panel()
    jobs = [(fm.rewrite_inf(fm.parse_formula(text, sig)), k,
             workloads.COMPILE_BUDGET, workloads.COMPILE_BUDGET)
            for text, k in (case.args for case in cases)]
    results, finished = compile_recording_finish(jobs)
    return [case.name for case in cases], results, finished


def test_compile_panel_matches_reference_counts(compile_panel):
    names, results, _finished = compile_panel
    reference = workloads.load_reference()
    assert sorted(names) == sorted(reference)
    for name, result in zip(names, results):
        assert reference[name] == {
            "formulas": len(result.formulas),
            "declared_vars": len(result.variables),
            "read_vars": len(mba.free_set_vars(result.g)),
        }, name
        assert_tags_in_table(result)


# SHA-256 over the `dilogic transform` JSON documents of the whole compile
# panel, concatenated in workloads.compile_panel() order.
COMPILE_PANEL_SHA256 = (
    "b9ab8efa909c597282d7a313870e3082ec544aee7394f14519681cfad1bd5353")


def test_compile_panel_document_bytes(compile_panel):
    _names, results, _finished = compile_panel
    digest = hashlib.sha256()
    for result in results:
        digest.update(workloads.emit_document(result).encode("utf-8"))
    assert digest.hexdigest() == COMPILE_PANEL_SHA256


def test_closed_form_count_matches_declared_set(compile_panel):
    _names, _results, finished = compile_panel
    suite = [(fm.rewrite_inf(inst.formula), inst.k, tr.DEFAULT_BUDGET_C,
              family.FAMILY_BUDGET_VARS)
             for inst in family.determination_instances(0, 204)]
    finished = finished + compile_recording_finish(suite)[1]
    for result in finished:
        assert tr.declared_count(result.levels, result.g) == len(
            result.variables)
        assert_tags_in_table(result)


def test_budget_vars_boundary():
    phi = fm.canonicalize(fm.Sup("y", fm.TruncSub(p_of("y"), q_of("y"))))
    result = tr.transform(phi, 2, budget_vars=2016)
    assert len(result.variables) == 2016
    with pytest.raises(BudgetError):
        tr.transform(phi, 2, budget_vars=2015)
