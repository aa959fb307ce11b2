"""Renderings of the ASTs: the transform document, the pretty text of G,
the formula text, and which rendering each command builds."""

import json
from fractions import Fraction

import pytest

from dilogic import cli, jsonio, mba
from dilogic import formula as fm
from dilogic import transform as tr

F = Fraction

P = fm.Atomic("P", (fm.Var("x"),))
Q = fm.Atomic("Q", (fm.Var("x"),))


def _every_node_result():
    """A TransformResult whose G holds one node of every mba class."""
    z = mba.SetVarIndex(P, F(1, 2))
    z_ge = mba.SetVarIndex(P, F(0), False)
    y0, y1 = mba.ChainVar(0, Q, 0), mba.ChainVar(0, Q, 1)
    sets = mba.Union(
        mba.Inter((z, mba.Compl(z_ge))),
        mba.Diff(mba.SymDiff(mba.SetLit(frozenset({"b", "a"})), mba.Empty()),
                 mba.Full()))
    inner = mba.Max((
        mba.Measure(mba.Inter((y0, y1))),
        mba.Min((mba.Const(F(1, 3)), mba.Scale(F(1, 2), mba.Add((
            mba.Measure(sets), mba.TruncSub(mba.Const(1), mba.Measure(y1))))))),
    ))
    g = mba.SupChain(0, (mba.ChainSpec(Q, (z, mba.Full())),), inner,
                     (mba.ProfileSpec(((Q, 0), (Q, 1)), mba.Compl(z)),))
    return tr.TransformResult(2, {P: 2}, g)


def test_every_node_class_is_rendered():
    result = _every_node_result()
    assert {type(n) for n in mba.nodes(result.g)} == set(mba._CHILDREN)

    def var(name):
        return {"op": "var", "name": name}

    def chainvar(slot):
        return {"op": "chainvar", "binder": 0, "tag": 1, "slot": slot}

    sets = {"op": "union",
            "left": {"op": "inter", "items": [
                var("Z[0][1/2]"), {"op": "compl", "body": var("Z[0][0]|ge")}]},
            "right": {"op": "diff",
                      "left": {"op": "symdiff",
                               "left": {"op": "lit", "atoms": ["a", "b"]},
                               "right": {"op": "empty"}},
                      "right": {"op": "full"}}}
    inner = {"op": "max", "items": [
        {"op": "measure",
         "set": {"op": "inter", "items": [chainvar(0), chainvar(1)]}},
        {"op": "min", "items": [
            {"op": "const", "value": "1/3"},
            {"op": "scale", "factor": "1/2", "body": {
                "op": "add", "items": [
                    {"op": "measure", "set": sets},
                    {"op": "sub", "left": {"op": "const", "value": "1"},
                     "right": {"op": "measure", "set": chainvar(1)}}]}},
        ]},
    ]}
    assert jsonio.transform_result_to_doc(result) == {
        "k": 2,
        "formulas": ["P(x)"],
        "auxiliary_formulas": ["Q(x)"],
        "levels": {"0": 2},
        "variables": ["Z[0][0]|ge", "Z[0][0]", "Z[0][1/2]"],
        "g": {"op": "supchain", "binder": 0,
              "chains": [{"tag": 1, "bounds": [var("Z[0][1/2]"), {"op": "full"}]}],
              "inner": inner,
              "profiles": [{"slots": [[1, 0], [1, 1]],
                            "bound": {"op": "compl", "body": var("Z[0][1/2]")}}]},
    }
    assert jsonio.pretty_mba(result.g) == (
        "sup[Y0 | Q(x): Z^{P(x)}_{1/2}, 1"
        " | Y0^{Q(x)}_0 & Y0^{Q(x)}_1 <= c(Z^{P(x)}_{1/2})]"
        "(max(mu((Y0^{Q(x)}_0 & Y0^{Q(x)}_1)),"
        " min(1/3, 1/2*((mu(((Z^{P(x)}_{1/2} & c(Z~^{P(x)}_{0}))"
        " + (({a,b} ^ 0) \\ 1))) + (1 -. mu(Y0^{Q(x)}_1)))))))")


def test_nary_add_and_inter_render_over_their_items():
    """Add and Inter render infix joined over any number of items, one
    document node with an items list; a leaf at k = 4 is one Add of its
    three layers."""
    x, y, w = (mba.SetVarIndex(P, F(i, 4)) for i in (1, 2, 3))
    inter = mba.Inter((x, y, mba.Compl(w)))
    assert jsonio.pretty_mba(inter) == (
        "(Z^{P(x)}_{1/4} & Z^{P(x)}_{1/2} & c(Z^{P(x)}_{3/4}))")
    assert jsonio.pretty_mba(mba.Inter(())) == "()"
    result = tr.transform(P, 4)
    layer = [{"op": "measure", "set": {"op": "var", "name": f"Z[0][{t}]"}}
             for t in ("1/4", "1/2", "3/4")]
    assert jsonio.transform_result_to_doc(result)["g"] == {
        "op": "scale", "factor": "1/4", "body": {"op": "add", "items": layer}}
    assert jsonio.pretty_mba(result.g) == (
        "1/4*((mu(Z^{P(x)}_{1/4}) + mu(Z^{P(x)}_{1/2}) + mu(Z^{P(x)}_{3/4})))")


def test_formula_text_renders_nested_function_terms():
    sig = fm.Signature((("R", 2), ("P", 1)), (("f", 1), ("g", 2)))
    phi = fm.parse_formula(
        "inf z . sup y . sub(half(R(f(g(x,y)), g(f(z),x))), sub(P(f(f(y))), 1/3))",
        sig)
    text = fm.to_text(phi)
    assert text == ("inf y0 . sup y1 . sub(half(R(f(g(x,y1)),g(f(y0),x))),"
                    " sub(P(f(f(y1))), 1/3))")
    assert fm.parse_formula(text, sig) == phi


def _refuse(what):
    def refuse(*_args):
        raise AssertionError(f"{what} was built")
    return refuse


@pytest.mark.parametrize("fmt, unused", [
    ("json", ("pretty_transform_result", "pretty_mba")),
    ("pretty", ("transform_result_to_doc",)),
])
def test_transform_builds_only_the_selected_format(tmp_path, capsys,
                                                   monkeypatch, fmt, unused):
    sig_path = tmp_path / "sig.json"
    sig_path.write_text(json.dumps({"predicates": [{"name": "P", "arity": 1}]}),
                        encoding="utf-8")
    argv = ["transform", "--formula", "sup y . P(y)",
            "--signature", str(sig_path), "--k", "2", "--format", fmt]
    assert cli.main(argv) == cli.EXIT_PASS
    expected = capsys.readouterr().out
    for name in unused:
        monkeypatch.setattr(jsonio, name, _refuse(name))
    assert cli.main(argv) == cli.EXIT_PASS
    assert capsys.readouterr().out == expected
