"""Bounded depth: formula text nesting is an input bound, and G's depth is
a function of that nesting alone, never of k.

formula.MAX_NESTING bounds the open parentheses plus open binders of
formula text, and a formula of nesting n compiles to a G of depth at most
5n + 4 (see the formula module docstring).  The commands below used to end
in a RecursionError; they now exit 0 or 2.
"""

import json
import os
import sys

import pytest

from dilogic import cli, family, jsonio, mba
from dilogic import formula as fm
from dilogic import integral as di
from dilogic import transform as tr
from dilogic.errors import ParseError

from helpers import SIG_PQ, make_structure, uniform_space

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))

import workloads  # noqa: E402

SIG_PQF = fm.Signature((("P", 1), ("Q", 1), ("R", 0)), (("f", 1),))
SUB5 = "sub(P(x), sub(Q(x), sub(P(x), sub(Q(x), sub(P(x), Q(x))))))"


def g_depth(g):
    """The number of nodes on the longest downward path of g, by the mba
    child table (a formula tag is data, not a child)."""
    best, stack = 0, [(g, 1)]
    while stack:
        node, depth = stack.pop()
        best = max(best, depth)
        stack += [(child, depth + 1) for child in mba._CHILDREN.children(node)]
    return best


def nesting(phi):
    """The nesting the tokenizer counts, read off the AST: one level per
    node written with parentheses (Atomic, Apply, Half, TruncSub) and per
    binder."""
    if type(phi) in (fm.Var, fm.Const):
        return 0
    return 1 + max(map(nesting, fm._CHILDREN.children(phi)), default=0)


def depth_bound(phi):
    return 5 * nesting(phi) + 4


# ---------------------------------------------------------------------------
# G's depth


def test_g_depth_is_bounded_by_the_formula_nesting():
    sig = family.default_signature()
    jobs = [(fm.parse_formula(text, sig), k, workloads.COMPILE_BUDGET,
             workloads.COMPILE_BUDGET)
            for text, k in (case.args for case in workloads.compile_panel())]
    assert len(jobs) == 58
    suite = family.determination_instances(0, 204)
    assert len(suite) == 204
    jobs += [(inst.formula, inst.k, tr.DEFAULT_BUDGET_C, family.FAMILY_BUDGET_VARS)
             for inst in suite]
    for phi, k, budget_c, budget_vars in jobs:
        assert nesting(phi) <= fm.MAX_NESTING
        g = tr.transform(fm.rewrite_inf(phi), k, budget_c, budget_vars).g
        assert g_depth(g) <= depth_bound(phi), fm.to_text(phi)


@pytest.mark.parametrize("text", [
    "1/2", "P(x)", "half(P(x))", "sub(P(x), Q(x))", "sub(1/2, P(x))",
    "sup y . P(y)", "inf y . 1/2", "sub(1, sub(1, sup y . P(y)))",
    "half(inf y . P(y))", SUB5,
])
def test_the_depth_bound_holds_on_each_connective(text):
    phi = fm.parse_formula(text, SIG_PQ)
    g = tr.transform(fm.rewrite_inf(phi), 2, 10**6, 10**6).g
    assert g_depth(g) <= depth_bound(phi)


def test_a_leaf_is_one_add_whatever_k():
    p = fm.parse_formula("P(x)", SIG_PQ)
    depths = {k: g_depth(tr.transform(p, k).g) for k in (2, 3, 4, 800, 4096)}
    # Scale, Add, Measure, variable; at k = 2 the one layer is a bare
    # Measure, as inter_all leaves a single term unwrapped.
    assert depths == {2: 3, 3: 4, 4: 4, 800: 4, 4096: 4}
    g = tr.transform(p, 4096).g
    assert type(g.body) is mba.Add and len(g.body.items) == 4095


def test_a_bound_is_one_inter():
    phi = fm.parse_formula("sup y . P(y)", SIG_PQ)
    g = tr.transform(phi, 8).g
    # Slot j's bound intersects the xi variables of thresholds 0 to
    # (j + 1)/8: one Inter of j + 2 items.
    bounds = [b for spec in g.chains for b in spec.bounds]
    assert {type(b) for b in bounds} == {mba.Inter}
    assert [len(b.items) for b in bounds] == list(range(2, 9))
    assert mba.inter_all([]) == mba.Full()
    x = mba.SetVarIndex("X", 0)
    assert mba.inter_all([x]) is x
    assert mba.inter_all(iter([x, x, x])) == mba.Inter((x, x, x))


# ---------------------------------------------------------------------------
# The nesting bound on formula text


@pytest.mark.parametrize("text, expected", [
    ("1/2", 0),
    ("R()", 1),
    ("P(x)", 1),
    ("P(f(f(x)))", 3),
    ("half(P(x))", 2),
    ("sup x . P(x)", 2),
    ("sup x . inf y . 1", 2),
    # A comma or a closing parenthesis ends the binders opened in its group.
    ("sub(sup x . P(x), Q(y))", 3),
    ("sub(sup x . sup y . 1, sup z . P(z))", 3),
    ("half(sup x . half(P(x)))", 4),
    ("sub(P(x), sup x . sup y . Q(y))", 4),
    (SUB5, 6),
])
def test_the_tokenizer_counts_parentheses_and_open_binders(monkeypatch, text,
                                                           expected):
    assert nesting(fm.parse_formula(text, SIG_PQF)) == expected
    monkeypatch.setattr(fm, "MAX_NESTING", expected)
    fm.parse_formula(text, SIG_PQF)
    if expected:
        monkeypatch.setattr(fm, "MAX_NESTING", expected - 1)
        with pytest.raises(ParseError, match="nested deeper than"):
            fm.parse_formula(text, SIG_PQF)


def _nested(shape, n):
    """A text of nesting exactly n, built by repeating one connective."""
    return {
        "half": "half(" * (n - 1) + "P(x)" + ")" * (n - 1),
        "sub-left": "sub(" * (n - 1) + "P(x)" + ", 1/2)" * (n - 1),
        "sub-right": "sub(1, " * (n - 1) + "P(x)" + ")" * (n - 1),
        "sup": "".join(f"sup y{i} . " for i in range(n - 1)) + "P(x)",
        "inf": "".join(f"inf y{i} . " for i in range(n - 1)) + "P(x)",
        "term": "P(" + "f(" * (n - 1) + "x" + ")" * n,
    }[shape]


@pytest.mark.parametrize("shape", ["half", "sub-left", "sub-right", "sup",
                                   "inf", "term"])
def test_text_past_the_bound_is_refused_before_the_parser_runs(monkeypatch,
                                                               shape):
    at_bound = fm.parse_formula(_nested(shape, fm.MAX_NESTING), SIG_PQF)
    assert nesting(at_bound) == fm.MAX_NESTING

    def refuse(_self):
        raise AssertionError("the parser ran")
    monkeypatch.setattr(fm._Parser, "parse_formula", refuse)
    with pytest.raises(ParseError, match=f"nested deeper than {fm.MAX_NESTING}"):
        fm.parse_formula(_nested(shape, fm.MAX_NESTING + 1), SIG_PQF)


@pytest.mark.parametrize("text", [
    "sub(P(x), 1/1" + "0" * 4400 + ")",
    "sub(P(x), " + "1" * 4400 + "/" + "1" * 4401 + ")",
    "-" + "9" * 5000,
])
def test_an_integer_past_the_digit_limit_is_a_parse_error(text):
    with pytest.raises(ParseError, match="digits is past the interpreter's limit"):
        fm.parse_formula(text, SIG_PQF)


# ---------------------------------------------------------------------------
# The commands that used to crash


@pytest.fixture()
def files(tmp_path):
    fiber = {"w1": make_structure(SIG_PQ, {"P": {"p": "3/4"}, "Q": {"p": "1/3"}}),
             "w2": make_structure(SIG_PQ, {"P": {"p": "1/4"}, "Q": {"p": "5/6"}})}
    field_ = di.MeasurableField(uniform_space(("w1", "w2")), fiber)
    docs = {"sig": jsonio.signature_to_doc(SIG_PQ),
            "field": jsonio.field_to_doc(field_),
            "assign": {"x": {"w1": "p", "w2": "p"}}}
    out = {}
    for name, doc in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out[name] = str(path)
    return out


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def transform(files, text, k, fmt="json"):
    return ["transform", "--formula", text, "--signature", files["sig"],
            "--k", str(k), "--format", fmt]


def test_five_nested_subs_compile_and_pass_determination(files, capsys):
    code, out, _err = run(capsys, transform(files, SUB5, 2))
    assert code == cli.EXIT_PASS
    assert len(json.loads(out)["variables"]) == 1875
    code, out, _err = run(capsys, [
        "check", "--formula", SUB5, "--field", files["field"],
        "--assignment", files["assign"], "--k", "2"])
    assert code == cli.EXIT_PASS
    assert json.loads(out)["ok"] is True


@pytest.mark.parametrize("fmt", ["json", "pretty"])
def test_a_leaf_at_k_4096_compiles(files, capsys, fmt):
    code, out, err = run(capsys, transform(files, "P(x)", 4096, fmt))
    assert (code, err) == (cli.EXIT_PASS, "")
    # 4095 measures; the document also declares the 4096 grid variables.
    if fmt == "json":
        assert out.count('"Z[0][') == 4096 + 4095
    else:
        assert out.count("mu(") == 4095


def test_the_document_of_a_leaf_grows_linearly_in_k(files, capsys):
    sizes = {}
    for k in (100, 200, 400, 800):
        code, out, _err = run(capsys, transform(files, "P(x)", k))
        assert code == cli.EXIT_PASS
        sizes[k] = len(out.encode("utf-8"))
    assert sizes[800] < 10**6
    # Each threshold adds about the same bytes, whatever k: a declared name
    # and one measure item, at an indentation that does not grow with k.
    per_threshold = (sizes[200] - sizes[100]) / 100
    assert (sizes[800] - sizes[400]) / 400 < 1.1 * per_threshold


def test_an_over_budget_formula_is_refused_without_a_crash(files, capsys):
    code, out, err = run(capsys, transform(files, "half(inf y0 . inf y1 . P(y1))", 3))
    assert (code, out) == (cli.EXIT_INPUT, "")
    assert json.loads(err)["error"] == "budget"


@pytest.mark.parametrize("depth, code, error", [
    (fm.MAX_NESTING - 1, cli.EXIT_PASS, None),
    (fm.MAX_NESTING, cli.EXIT_INPUT, "input"),
    (400, cli.EXIT_INPUT, "input"),
    (2000, cli.EXIT_INPUT, "input"),
])
def test_nested_half_exits_0_up_to_the_bound_and_2_past_it(files, capsys, depth,
                                                          code, error):
    text = "half(" * depth + "P(x)" + ")" * depth
    for fmt in ("json", "pretty"):
        got, out, err = run(capsys, transform(files, text, 2, fmt))
        assert got == code
        if error is None:
            assert err == ""
        else:
            assert out == ""
            assert json.loads(err)["error"] == error
    got, _out, _err = run(capsys, [
        "check", "--formula", text, "--field", files["field"],
        "--assignment", files["assign"], "--k", "2"])
    assert got == code


def test_a_long_integer_literal_exits_2(files, capsys):
    code, out, err = run(capsys, transform(files, "sub(P(x), 1/1" + "0" * 4400 + ")", 2))
    assert (code, out) == (cli.EXIT_INPUT, "")
    body = json.loads(err)
    assert body["error"] == "input" and "digit" in body["message"]
