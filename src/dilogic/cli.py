"""Command-line front end.

Exit codes: 0 all checks pass, 1 a property violation was found, 2 budget
exceeded or malformed input.  All machine output is JSON with sorted keys
so repeated runs produce identical byte streams.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import checks, family, integral as di, jsonio, mba
from . import formula as fm
from . import transform as tr
from . import typei
from .errors import BudgetError, DilogicError, InputError

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2


def _load_json(path):
    """The JSON value in the file at path.  Bad UTF-8, bad JSON and an
    integer past the interpreter's digit limit are all ValueErrors."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise InputError(f"bad JSON document {path}: {exc}") from None


def _emit(fmt, doc, text=None):
    """Print the rendering fmt selects, and build only that one: doc and
    text are functions of no arguments giving the JSON document and the
    pretty text.  A command without a text prints its document in either
    format."""
    if fmt == "pretty" and text is not None:
        print(text())
    else:
        json.dump(doc(), sys.stdout, sort_keys=True, indent=2)
        print()


def _parse_with_sig(args):
    sig = jsonio.signature_from_doc(_load_json(args.signature))
    return fm.parse_formula(args.formula, sig), sig


def _load_field(args):
    return jsonio.field_from_doc(_load_json(args.field))


def cmd_transform(args):
    phi, _sig = _parse_with_sig(args)
    result = tr.transform(phi, args.k, args.budget_c, args.budget_vars)
    _emit(args.format, lambda: jsonio.transform_result_to_doc(result),
          lambda: jsonio.pretty_transform_result(result))
    return EXIT_PASS


def cmd_eval(args):
    field_ = _load_field(args)
    phi = fm.parse_formula(args.formula, field_.signature)
    assignment = jsonio.assignment_from_doc(
        _load_json(args.assignment) if args.assignment else {}, field_)
    value = di.eval_on_integral(phi, field_, assignment,
                                limit=args.max_choice_functions)
    _emit(args.format, lambda: {"value": jsonio.format_fraction(value)},
          lambda: jsonio.format_fraction(value))
    return EXIT_PASS


def cmd_check(args):
    field_ = _load_field(args)
    phi = fm.parse_formula(args.formula, field_.signature)
    assignment = jsonio.assignment_from_doc(
        _load_json(args.assignment) if args.assignment else {}, field_)
    result = tr.transform(phi, args.k, args.budget_c, args.budget_vars)
    report = tr.determination_check(
        phi, args.k, field_, assignment, mode=args.mode,
        limit=args.max_choice_functions, result=result)
    _emit(args.format, lambda: {
        "k": report.k,
        "integral_value": jsonio.format_fraction(report.integral_value),
        "mba_value": jsonio.format_fraction(report.mba_value),
        "ok": report.ok,
        "failures": [
            {"rule": rule, "l": l,
             "integral_value": jsonio.format_fraction(v),
             "mba_value": jsonio.format_fraction(g)}
            for rule, l, v, g in report.failures
        ],
    }, lambda: (f"v = {report.integral_value}, g = {report.mba_value}, "
                f"{'pass' if report.ok else 'FAIL'}"))
    return EXIT_PASS if report.ok else EXIT_VIOLATION


def cmd_mba_defin(args):
    alg = jsonio.algebra_from_doc(_load_json(args.algebra))
    # Each of the 4^n subset pairs is compared with each of the 3^n
    # inclusion pairs.
    mba.refuse_over_budget(12 ** len(alg.atoms), "definability pair comparison")
    phi, psi = mba.simple_definables()
    x1, x2, x3 = (mba.SetVarIndex(n, 0) for n in ("X1", "X2", "X3"))
    bad = []
    zero_pairs = [(a2, b2) for a2 in alg.subsets() for b2 in alg.subsets()
                  if a2 <= b2]
    for a in alg.subsets():
        for b in alg.subsets():
            v = mba.eval_mba(phi, {x1: a, x2: b}, alg)
            exact = min(
                max(alg.d(a, a2), alg.d(b, b2)) for a2, b2 in zero_pairs
            )
            if (v == 0) != (a <= b) or exact > v:
                bad.append(("inclusion", sorted(a), sorted(b)))
            w = mba.eval_mba(psi, {x1: a, x2: b, x3: a & b}, alg)
            if w != 0:
                bad.append(("intersection", sorted(a), sorted(b)))
    _emit(args.format,
          lambda: {"ok": not bad, "violations": [list(x) for x in bad]},
          lambda: "pass" if not bad else f"FAIL: {bad[:3]}")
    return EXIT_PASS if not bad else EXIT_VIOLATION


def cmd_mba_monotone(args):
    alg = jsonio.algebra_from_doc(_load_json(args.algebra))
    phi, _sig = _parse_with_sig(args)
    result = tr.transform(phi, args.k, args.budget_c, args.budget_vars)
    ce = mba.check_monotone(result.g, alg, trials=args.trials, seed=args.seed)
    if ce is None:
        _emit(args.format, lambda: {"ok": True}, lambda: "pass")
        return EXIT_PASS
    _emit(args.format, lambda: {
        "ok": False,
        "low_value": jsonio.format_fraction(ce.low_value),
        "high_value": jsonio.format_fraction(ce.high_value),
    }, lambda: f"FAIL: {ce.low_value} > {ce.high_value}")
    return EXIT_VIOLATION


def cmd_mba_dist(args):
    alg = jsonio.algebra_from_doc(_load_json(args.algebra))
    chain, xs = jsonio.dist_input_from_doc(_load_json(args.input), alg)
    formula = mba.phi_chain(chain)
    assign = {mba.chain_var("X", m, len(chain)): x for m, x in enumerate(xs)}
    bound = mba.eval_mba(formula, assign, alg)
    dist, witness = mba.dist_to_chain_set(xs, chain, alg)
    witness_doc = [jsonio.subset_to_doc(y, alg) for y in witness]
    _emit(args.format, lambda: {
        "phi_value": jsonio.format_fraction(bound),
        "distance": jsonio.format_fraction(dist),
        "witness": witness_doc,
        "ok": dist <= bound,
    }, lambda: f"phi = {bound}, dist = {dist}, witness = {witness_doc}")
    return EXIT_PASS if dist <= bound else EXIT_VIOLATION


def cmd_typei(args):
    if args.typei_cmd == "rho":
        desc = jsonio.description_from_doc(_load_json(args.desc))
        _emit(args.format, lambda: jsonio.rho_to_doc(typei.rho(desc)))
        return EXIT_PASS
    d1 = jsonio.description_from_doc(_load_json(args.left))
    d2 = jsonio.description_from_doc(_load_json(args.right))
    if args.typei_cmd == "equiv":
        same = typei.equiv(d1, d2)
        _emit(args.format, lambda: {"equiv": same},
              lambda: "equivalent" if same else "different")
        return EXIT_PASS
    _emit(args.format, lambda: jsonio.description_to_doc(typei.tensor(d1, d2)))
    return EXIT_PASS


def cmd_selftest(args):
    instances = family.determination_instances(args.seed, args.count)
    names = ("determination", "layer_cake", "monotone", "sup_collapse",
             "complement_identity")
    failures = dict.fromkeys(names, 0)
    for inst in instances:
        result, report = checks.certify(inst, args.budget_c,
                                        args.budget_vars)
        verdicts = (report.ok, checks.layer_cake(inst, report),
                    checks.monotone(inst, result, args.seed),
                    checks.sup_collapse(inst, result),
                    checks.complement_identity(inst, result))
        for name, verdict in zip(names, verdicts):
            failures[name] += verdict is False
    failures["relabel_agreement"] = sum(
        bool(tr.corollary_equivalence_check(a, b, family.sentence_suite()))
        for a, b, _bij in family.relabel_pairs(args.seed, 10))
    failures["typei_congruence"] = sum(
        not checks.typei_congruence(*quad)
        for quad in family.description_quadruples(args.seed, 25))
    ok = not any(failures.values())
    _emit(args.format,
          lambda: {"ok": ok, "failures": failures, "instances": len(instances),
                   "seed": args.seed},
          lambda: ("pass" if ok else "FAIL") + f" ({len(instances)} instances)")
    return EXIT_PASS if ok else EXIT_VIOLATION


def _add_common(p, k=False, budgets=False, fmt=True):
    if k:
        p.add_argument("--k", type=int, default=2)
    if budgets:
        p.add_argument("--budget-c", type=int, default=tr.DEFAULT_BUDGET_C)
        p.add_argument("--budget-vars", type=int, default=tr.DEFAULT_BUDGET_VARS)
    if fmt:
        p.add_argument("--format", choices=["json", "pretty"], default="json")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dilogic",
        description="Formula compiler and exact verifier for direct "
                    "integrals of metric structures.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("transform", help="compile a formula at precision k")
    p.add_argument("--formula", required=True)
    p.add_argument("--signature", required=True)
    _add_common(p, k=True, budgets=True)
    p.set_defaults(run=cmd_transform)

    p = sub.add_parser("eval", help="evaluate a formula on a direct integral")
    p.add_argument("--formula", required=True)
    p.add_argument("--field", required=True)
    p.add_argument("--assignment")
    p.add_argument("--max-choice-functions", type=int,
                   default=di.DEFAULT_CHOICE_LIMIT)
    _add_common(p)
    p.set_defaults(run=cmd_eval)

    p = sub.add_parser("check", help="run the determination check")
    p.add_argument("--formula", required=True)
    p.add_argument("--field", required=True)
    p.add_argument("--assignment")
    p.add_argument("--mode", choices=[mba.ENUMERATE, mba.MAXIMAL],
                   default=mba.MAXIMAL)
    p.add_argument("--max-choice-functions", type=int,
                   default=di.DEFAULT_CHOICE_LIMIT)
    _add_common(p, k=True, budgets=True)
    p.set_defaults(run=cmd_check)

    p = sub.add_parser("mba", help="measure-algebra checks")
    msub = p.add_subparsers(dest="mba_cmd", required=True)
    q = msub.add_parser("defin", help="verify the warm-up definability formulas")
    q.add_argument("--algebra", required=True)
    _add_common(q)
    q.set_defaults(run=cmd_mba_defin)
    q = msub.add_parser("monotone", help="check a transform output is increasing")
    q.add_argument("--formula", required=True)
    q.add_argument("--signature", required=True)
    q.add_argument("--algebra", required=True)
    q.add_argument("--trials", type=int, default=200)
    q.add_argument("--seed", type=int, default=0)
    _add_common(q, k=True, budgets=True)
    q.set_defaults(run=cmd_mba_monotone)
    q = msub.add_parser("dist", help="distance to a chain set, with witness")
    q.add_argument("--algebra", required=True)
    q.add_argument("--input", required=True,
                   help='JSON {"chain": [...], "tuple": [...]}')
    _add_common(q)
    q.set_defaults(run=cmd_mba_dist)

    p = sub.add_parser("typei", help="type-I description calculus")
    tsub = p.add_subparsers(dest="typei_cmd", required=True)
    q = tsub.add_parser("rho", help="canonical invariant table")
    q.add_argument("--desc", required=True)
    _add_common(q)
    q.set_defaults(run=cmd_typei)
    for name in ("equiv", "tensor"):
        q = tsub.add_parser(name)
        q.add_argument("--left", required=True)
        q.add_argument("--right", required=True)
        _add_common(q)
        q.set_defaults(run=cmd_typei)

    p = sub.add_parser("selftest", help="seeded property-suite run")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=34)
    _add_common(p, budgets=True)
    p.set_defaults(budget_vars=family.FAMILY_BUDGET_VARS)
    p.set_defaults(run=cmd_selftest)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except BudgetError as exc:
        print(json.dumps({"error": "budget", "message": str(exc)},
                         sort_keys=True), file=sys.stderr)
        return EXIT_INPUT
    except (DilogicError, OSError) as exc:
        print(json.dumps({"error": "input", "message": str(exc)},
                         sort_keys=True), file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
