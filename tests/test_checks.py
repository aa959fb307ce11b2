"""The shared property checks: each passes on a sound instance and
returns False on a planted fault; `dilogic selftest` counts the fault."""

import dataclasses
import json
from fractions import Fraction

from dilogic import checks, cli, family, mba, typei
from dilogic import formula as fm
from dilogic import integral as di
from dilogic import transform as tr

from helpers import atomic_example_assignment, atomic_example_field, p_of
from helpers import sup_example_field

F = Fraction


def certify(phi, field_, assignment=None, k=2):
    inst = family.Instance("t", phi, field_, assignment or {}, k)
    return inst, checks.certify(inst, tr.DEFAULT_BUDGET_C,
                                tr.DEFAULT_BUDGET_VARS)


def decreasing(g):
    return mba.TruncSub(mba.Const(1), g)


def test_certify_compiles_and_checks_a_family_instance():
    inst = family.determination_instances(0, 1)[0]
    result, report = checks.certify(inst, tr.DEFAULT_BUDGET_C,
                                    family.FAMILY_BUDGET_VARS)
    assert result.k == report.k == inst.k
    assert report.ok


def test_determination_fails_on_a_wrong_integral_value(monkeypatch):
    monkeypatch.setattr(di, "eval_on_integral", lambda *a, **kw: F(1))
    _inst, (_result, report) = certify(fm.Const(0), sup_example_field())
    assert not report.ok


def test_layer_cake():
    field_ = atomic_example_field()
    inst, (_result, report) = certify(
        p_of("x"), field_, atomic_example_assignment(field_))
    assert checks.layer_cake(inst, report) is True
    wrong = dataclasses.replace(report, integral_value=F(1))
    assert checks.layer_cake(inst, wrong) is False
    inst, (_result, report) = certify(
        fm.Sup("y", p_of("y")), sup_example_field())
    assert checks.layer_cake(inst, report) is None


def test_monotone_fails_on_a_decreasing_g():
    inst, (result, _report) = certify(
        fm.Sup("y", p_of("y")), sup_example_field())
    assert checks.monotone(inst, result, 0) is True
    bad = dataclasses.replace(result, g=decreasing(result.g))
    assert checks.monotone(inst, bad, 0) is False


def test_sup_collapse_fails_on_a_decreasing_inner_formula():
    inst, (result, _report) = certify(
        fm.Sup("y", p_of("y")), sup_example_field())
    assert checks.sup_collapse(inst, result) is True
    g = dataclasses.replace(result.g, inner=decreasing(result.g.inner))
    assert checks.sup_collapse(
        inst, dataclasses.replace(result, g=g)) is False
    field_ = atomic_example_field()
    inst, (result, _report) = certify(
        p_of("x"), field_, atomic_example_assignment(field_))
    assert checks.sup_collapse(inst, result) is None


def test_complement_identity_fails_on_a_wrong_complement(monkeypatch):
    inst, (result, _report) = certify(
        fm.Sup("y", p_of("y")), sup_example_field())
    assert checks.complement_identity(inst, result) is True
    monkeypatch.setattr(tr, "one_minus", lambda zeta: zeta)
    assert checks.complement_identity(inst, result) is False


def test_typei_congruence_fails_on_a_non_equivalent_description():
    d1, d1p, d2, d2p = family.description_quadruples(0, 1)[0]
    assert checks.typei_congruence(d1, d1p, d2, d2p) is True
    other = typei.matrix_point_mass(7)
    assert not typei.equiv(d1, other)
    assert checks.typei_congruence(d1, other, d2, d2p) is False


def test_selftest_exits_1_and_counts_a_failing_check(monkeypatch, capsys):
    monkeypatch.setattr(checks, "complement_identity",
                        lambda inst, result: False)
    code = cli.main(["selftest", "--seed", "0", "--count", "1"])
    doc = json.loads(capsys.readouterr().out)
    assert code == cli.EXIT_VIOLATION
    assert doc["ok"] is False
    assert doc["failures"]["complement_identity"] == 1
    assert sum(doc["failures"].values()) == 1
