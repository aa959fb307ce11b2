"""Command-line front end: exit codes, JSON determinism, error bodies."""

import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from dilogic import cli, family, jsonio
from dilogic import formula as fm
from dilogic import integral as di

from helpers import (
    SIG_P,
    atomic_example_field,
    joint_witness_field,
    make_structure,
    sup_example_field,
    uniform_space,
)

F = Fraction


@pytest.fixture()
def paths(tmp_path):
    out = {}

    def write(name, doc):
        p = tmp_path / name
        p.write_text(json.dumps(doc), encoding="utf-8")
        out[name] = str(p)
        return str(p)

    write("sig.json", {"predicates": [{"name": "P", "arity": 1},
                                      {"name": "Q", "arity": 1}]})
    write("sig_p.json", {"predicates": [{"name": "P", "arity": 1}]})
    write("sig_default.json", jsonio.signature_to_doc(family.default_signature()))
    write("atomic_field.json", jsonio.field_to_doc(atomic_example_field()))
    write("sup_field.json", jsonio.field_to_doc(sup_example_field()))
    write("joint_field.json", jsonio.field_to_doc(joint_witness_field()))
    write("assignment.json", {"x": {"w1": "p", "w2": "p"}})
    write("alg.json", {"atoms": ["w1", "w2"], "weights": ["1/2", "1/2"]})
    write("alg_int.json", {"atoms": [1, 2], "weights": ["1/2", "1/2"]})
    write("alg3.json", {"atoms": ["a", "b", "c"],
                        "weights": ["1/2", "1/4", "1/4"]})
    write("m2.json", {"components": [{"m": 2, "atoms": ["1"], "diffuse": "0"}]})
    write("m3.json", {"components": [{"m": 3, "atoms": ["1"], "diffuse": "0"}]})
    write("dist_input.json", {"chain": [["w1", "w2"], ["w1"]],
                              "tuple": [["w2"], ["w2"]]})
    return out


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# check / eval


def test_check_atomic_example(paths, capsys):
    code, out, _ = run(capsys, [
        "check", "--formula", "P(x)", "--field", paths["atomic_field.json"],
        "--assignment", paths["assignment.json"], "--k", "2",
    ])
    assert code == cli.EXIT_PASS
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["integral_value"] == "1/2"
    assert doc["mba_value"] == "1/4"


def test_check_joint_witness(paths, capsys):
    code, out, _ = run(capsys, [
        "check", "--formula", "sup y . sub(P(y), Q(y))",
        "--field", paths["joint_field.json"], "--k", "2",
        "--mode", "enumerate",
    ])
    assert code == cli.EXIT_PASS
    doc = json.loads(out)
    assert doc["integral_value"] == "5/8"
    assert doc["mba_value"] == "2/3"


def test_check_enumerate_budget_exit_2(tmp_path, capsys):
    # P = 1 everywhere, so every level set is full and the compiled
    # SupChain has 3**20 feasible tuples at k = 3: refused, not searched.
    atoms = [f"w{i}" for i in range(20)]
    fiber = make_structure(SIG_P, {"P": {"p": F(1)}})
    field_ = di.MeasurableField(uniform_space(atoms), {a: fiber for a in atoms})
    field_path = tmp_path / "wide_field.json"
    field_path.write_text(json.dumps(jsonio.field_to_doc(field_)),
                          encoding="utf-8")
    code, out, err = run(capsys, [
        "check", "--formula", "sup y . P(y)", "--field", str(field_path),
        "--k", "3", "--mode", "enumerate",
    ])
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert json.loads(err)["error"] == "budget"


def test_eval_sup(paths, capsys):
    code, out, _ = run(capsys, [
        "eval", "--formula", "sup y . P(y)", "--field", paths["sup_field.json"],
    ])
    assert code == cli.EXIT_PASS
    assert json.loads(out) == {"value": "5/8"}


def test_eval_choice_limit_is_a_budget_error(paths, capsys):
    code, out, err = run(capsys, [
        "eval", "--formula", "sup y . P(y)", "--field", paths["sup_field.json"],
        "--max-choice-functions", "1",
    ])
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert json.loads(err)["error"] == "budget"


@pytest.mark.parametrize("points, arity", [(["p"], 10**21), (["p", "q"], 20)],
                         ids=["one-point-huge-arity", "two-points-arity-20"])
def test_eval_table_over_budget_is_a_budget_error(tmp_path, capsys, points,
                                                  arity):
    # The table has len(points) ** arity entries: refused before any is
    # read, and its size is never computed when it is huge.
    field_path = tmp_path / "huge_arity_field.json"
    field_path.write_text(json.dumps({
        "space": {"atoms": ["w"], "weights": ["1"]},
        "fibers": {"w": {
            "signature": {"predicates": [{"name": "P", "arity": arity}]},
            "points": points,
            "dist": [["0" if p == q else "1" for q in points] for p in points],
            "preds": {"P": {}},
        }},
    }), encoding="utf-8")
    code, out, err = run(capsys, [
        "eval", "--formula", "P(x)", "--field", str(field_path),
    ])
    assert code == cli.EXIT_INPUT
    assert out == ""
    body = json.loads(err)
    assert body["error"] == "budget"
    assert f"^{arity} entries" in body["message"]


def test_eval_pretty_format(paths, capsys):
    code, out, _ = run(capsys, [
        "eval", "--formula", "sup y . P(y)", "--field", paths["sup_field.json"],
        "--format", "pretty",
    ])
    assert code == cli.EXIT_PASS
    assert out.strip() == "5/8"


def _integer_atom_field():
    """sup_example_field with its atoms w1, w2 renamed 1, 2."""
    field_ = sup_example_field()
    return di.MeasurableField(uniform_space((1, 2)),
                              {1: field_.fibers["w1"], 2: field_.fibers["w2"]})


def test_field_over_integer_atoms_round_trips():
    field_ = _integer_atom_field()
    doc = json.loads(json.dumps(jsonio.field_to_doc(field_)))
    assert sorted(doc["fibers"]) == ["1", "2"]
    assert jsonio.field_from_doc(doc) == field_
    assignment = jsonio.assignment_from_doc({"x": {"1": "q", "2": "r"}}, field_)
    assert assignment == {"x": di.element_of(field_, {1: "q", 2: "r"})}


def test_eval_over_integer_atoms(tmp_path, capsys):
    field_path = tmp_path / "int_field.json"
    field_path.write_text(json.dumps(jsonio.field_to_doc(_integer_atom_field())),
                          encoding="utf-8")
    assignment_path = tmp_path / "int_assignment.json"
    assignment_path.write_text(json.dumps({"x": {"1": "q", "2": "r"}}),
                               encoding="utf-8")
    code, out, _ = run(capsys, [
        "eval", "--formula", "sup y . P(y)", "--field", str(field_path),
    ])
    assert code == cli.EXIT_PASS
    assert json.loads(out) == {"value": "5/8"}
    code, out, _ = run(capsys, [
        "eval", "--formula", "P(x)", "--field", str(field_path),
        "--assignment", str(assignment_path),
    ])
    assert code == cli.EXIT_PASS
    assert json.loads(out) == {"value": "1/8"}


# ---------------------------------------------------------------------------
# transform


def test_transform_deterministic_bytes(paths, capsys):
    argv = ["transform", "--formula", "sup y . P(y)",
            "--signature", paths["sig_p.json"], "--k", "2"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == cli.EXIT_PASS
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["k"] == 2
    assert doc["formulas"] == [
        "sup y0 . sub(P(y0), 0)", "sup y0 . sub(P(y0), 1/2)",
    ]
    assert doc["levels"] == {"0": 2, "1": 2}


def test_transform_budget_error_exit_2(paths, capsys):
    code, out, err = run(capsys, [
        "transform", "--formula", "sup y . P(y)",
        "--signature", paths["sig_p.json"], "--k", "2", "--budget-c", "1",
    ])
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert json.loads(err)["error"] == "budget"


def test_transform_serializes_supchain_profiles(paths, capsys):
    code, out, _ = run(capsys, [
        "transform", "--formula", "sup y . sub(P(y), Q(y))",
        "--signature", paths["sig.json"], "--k", "2",
    ])
    assert code == cli.EXIT_PASS
    g = json.loads(out)["g"]
    assert g["op"] == "supchain"
    assert len(g["profiles"]) == 121
    slots_per_tag = {c["tag"]: len(c["bounds"]) for c in g["chains"]}
    for prof in g["profiles"]:
        assert len(prof["slots"]) >= 2
        for tag, slot in prof["slots"]:
            assert 0 <= slot < slots_per_tag[tag]


# The 17 templates and the three compile-frontier formulas at k = 2.
GOLDEN_CORPUS = [(name, fm.to_text(phi))
                 for name, phi, _small in family.formula_templates()] + [
    ("frontier-sup-sub", "sup y . sub(P(y), Q(y))"),
    ("frontier-sup-sup", "sup x . sup y . R(x,y)"),
    ("frontier-inf", "inf y . P(y)"),
]

# SHA-256 of the JSON and of the pretty stdout of `dilogic transform`.
GOLDEN_SHA256 = {
    "atomic-unary": (
        "e39ab05a06249639068e2904ce1bf485bda49655198bd554e9d41cb6c34c0b57",
        "797c9ebc4864ecb5484a3f6015ee8545a7f7f1dae34537437d1aa1808f1713a5",
    ),
    "atomic-unary-2": (
        "b5eac4a4c172bc1128cdc86acfeef531cc16212fb76e6f372cc05d1a35ebcad3",
        "bb09234f58946d4bf92a41a2d92dde4e74693b024b3fae829c51f813b85ec71f",
    ),
    "atomic-binary": (
        "f1554777b1dbaed9034101a963ead163d89b63cdf8eade5ef458fc7cafe026b7",
        "f5cce050a190f5de4ef51fcdfdaee51f22f2184e84967299004968913645bc7c",
    ),
    "const": (
        "82547460e1cf053ebe0ac0ed41d3dedac04bee3d85c375638fba66b4243dca91",
        "5b16f924a64502d73c123de02d3a6f0018b4febb91c6b7d78d918ce5a24a9176",
    ),
    "half-atomic": (
        "001c5ca90c321e2b985fdcf9bb4d612e817c8cc0d55d2fe1874099ac8a001788",
        "e8575c5d1710fc460e19fe2b03b7a3d86ae07f24e03ada49d80977e4d4806b84",
    ),
    "half-half": (
        "aea899b8ee7f69779f68fbc5939fb2a98136ace6f228a71890e56246bf1ecd0c",
        "65f85d0b8e09c0494cef24cd4f283c1e88cab6dae3353f3e58b3d9eb40f41415",
    ),
    "sub-atomic": (
        "79a325331d3048f58a61a9ccfb848d651b92451a41ad8bd4cd06b8e6040dcc55",
        "259e954532d91b1658cf1ab83a4d3463adda90d3cd24294bcdc853db32978a68",
    ),
    "sub-mixed": (
        "0055963113bbd957288ca1f490b8844244219cfc01fb20243fcae4e5f64feafd",
        "0d2c1c3651a654f6b63af8f16dc404966da1e90552b867927966b361f6fd238b",
    ),
    "sub-const-left": (
        "4788c74b387b13652008b63b888d149edfb682243edf33a3e316ab78efc9e12a",
        "a66d41e835c8a70b54d520e553b31a97278fbdfa731fd1056e59f4d5392be492",
    ),
    "half-sub": (
        "0fc639de7ae5a10639e3bb7b189965d9cc327be2401eca4c5f22fa63d0dc87e5",
        "e9d732044638deb5b49d46dfa2e5bdf40a0c4b13f6e4b67f5102d0d76e845239",
    ),
    "sub-sub": (
        "18d98eae198eee2cb8a6761738aac2622e826766c08f2983ef6c8933c0e73bfa",
        "89a920df1e91feb60a5b31531284d26cdf601992f2624dd8fca61c8815c2a4e4",
    ),
    "sup-atomic": (
        "3209bafc0eee22e73792207f2f2d6a304e5bfd602027f3e4cf5db7af134dc951",
        "75f9e4f728445a2dff11c6a7ae75625ade9b81dc253cfb6b4e1327923f9681fb",
    ),
    "sup-binary": (
        "1e8868d9d20185d0587a9874b82d689c11a3c93af74cf8234104c7489b8bb826",
        "e47be98f55537067936df1041a871b26e5a66f80d7684d2bbca0da1e7ceebf23",
    ),
    "half-sup": (
        "54a7a4fb7d27cf9d48859f1b5f2d8bd340000d93cafd7466ecfb4ba567108ec6",
        "b2fb6873b98582bf6a76bf881a31962710446fae29ec6aa89a91f42c134aec03",
    ),
    "sup-sub": (
        "44d11967d2b4e709df67993d31e93ee89f9af29e76f49c3856fb799128e85410",
        "c457213fb9dbad5754789187a08d660e5b5e74fd262aa177b1587282a7aa4a77",
    ),
    "sup-sub-const": (
        "de245444c3eeef4b65db87e2ab12effd7cf88158a69b355da8a6a3b6a47919b3",
        "d854bd6e36fe92bbf085911daee66f352967e1b2a1e88242f6f3f73ed51da6b1",
    ),
    "sub-sup": (
        "6c0ee53be7bd869d901b981b0abfe1c089192c5752a83a363381b3a66db8d88f",
        "b2da703febfe3ef6fc843600a9234bcdb257656a25a6db6ada139b155eadf1fd",
    ),
    "frontier-sup-sub": (
        "44d11967d2b4e709df67993d31e93ee89f9af29e76f49c3856fb799128e85410",
        "c457213fb9dbad5754789187a08d660e5b5e74fd262aa177b1587282a7aa4a77",
    ),
    "frontier-sup-sup": (
        "29ef52918c91f845416fac36cf11a7efc29f458988c837a79dd81a39b5698cf6",
        "4ecca3cfd8a5aa3d0f74e4510dad0277a58f01ff9592d8491b6a115836415865",
    ),
    "frontier-inf": (
        "865c01765e15ec7624fafd495ada26c6fc3cc018b87fcc838c5f44a8537e71eb",
        "8b577e49dbd9ac7606cf2e26c69c63d9b383b5fb996b9f522ed2a02ccd8bde46",
    ),
}


@pytest.mark.parametrize("name, text", GOLDEN_CORPUS,
                         ids=[name for name, _text in GOLDEN_CORPUS])
def test_transform_golden_bytes(paths, capsys, name, text):
    digests = []
    for fmt in ("json", "pretty"):
        code, out, _ = run(capsys, [
            "transform", "--formula", text, "--signature", paths["sig_default.json"],
            "--k", "2", "--budget-c", "65536", "--budget-vars", "65536",
            "--format", fmt,
        ])
        assert code == cli.EXIT_PASS
        digests.append(hashlib.sha256(out.encode("utf-8")).hexdigest())
    assert tuple(digests) == GOLDEN_SHA256[name]


def test_bad_input_exit_2(paths, capsys):
    code, _, err = run(capsys, [
        "eval", "--formula", "R(x)", "--field", paths["sup_field.json"],
    ])
    assert code == cli.EXIT_INPUT
    assert json.loads(err)["error"] == "input"
    code, _, err = run(capsys, [
        "eval", "--formula", "P(x)", "--field", "/does/not/exist.json",
    ])
    assert code == cli.EXIT_INPUT


def _field_doc(**fiber_w1):
    """The atomic example field document with keys of fiber w1 replaced."""
    doc = jsonio.field_to_doc(atomic_example_field())
    doc["fibers"]["w1"].update(fiber_w1)
    return doc


def _one_atom_pq_field_doc(points):
    """A one-atom field whose fiber has points p, q, with its point list
    replaced by `points`."""
    fiber = make_structure(SIG_P, {"P": {"p": F(3, 4), "q": F(1, 4)}})
    doc = jsonio.field_to_doc(di.MeasurableField(uniform_space(("w1",)),
                                                 {"w1": fiber}))
    doc["fibers"]["w1"]["points"] = points
    return doc


def _signature_doc(arity):
    return {"predicates": [{"name": "P", "arity": arity}]}


def _func_field_doc(entry):
    """A one-atom field whose fiber has the points "5" and "q" and a unary
    function f with f("5") = entry and f("q") = "q"."""
    sig = {"predicates": [{"name": "P", "arity": 1}],
           "functions": [{"name": "f", "arity": 1}]}
    fiber = {"signature": sig, "points": ["5", "q"],
             "dist": [["0", "1"], ["1", "0"]], "preds": {"P": {"5": "1", "q": "0"}},
             "funcs": {"f": {"5": entry, "q": "q"}}}
    return {"space": {"atoms": ["w1"], "weights": ["1"]}, "fibers": {"w1": fiber}}


def _field_doc_without(key):
    """The atomic example field document with `key` dropped from fiber w1."""
    doc = _field_doc()
    del doc["fibers"]["w1"][key]
    return doc


@pytest.mark.parametrize("argv, doc", [
    (["transform", "--formula", "P(x)", "--signature", "DOC"],
     [{"name": "P", "arity": 1}]),
    (["eval", "--formula", "P(x)", "--field", "atomic_field.json",
      "--assignment", "DOC"], [{"w1": "p", "w2": "p"}]),
    (["eval", "--formula", "P(x)", "--field", "atomic_field.json",
      "--assignment", "DOC"], "x"),
    (["check", "--formula", "P(x)", "--field", "atomic_field.json",
      "--assignment", "DOC"], {"x": "p"}),
    (["mba", "dist", "--algebra", "alg.json", "--input", "DOC"],
     {"chain": [["w1"]]}),
    (["mba", "dist", "--algebra", "alg.json", "--input", "DOC"],
     {"chain": [5], "tuple": [["w1"]]}),
    (["mba", "dist", "--algebra", "alg.json", "--input", "DOC"],
     {"chain": 5, "tuple": [["w1"]]}),
    (["eval", "--formula", "sup y . P(y)", "--field", "DOC"],
     _one_atom_pq_field_doc("pq")),
    (["eval", "--formula", "P(x)", "--field", "DOC"],
     _field_doc(points=[["p"]])),
    (["eval", "--formula", "P(x)", "--field", "sup_field.json",
      "--assignment", "DOC"], {"x": {"zz": "p", "w1": "p", "w2": "r"}}),
    (["transform", "--formula", "P(x)", "--signature", "DOC"],
     _signature_doc("x")),
    (["transform", "--formula", "P(x)", "--signature", "DOC"],
     _signature_doc(None)),
    (["transform", "--formula", "P(x)", "--signature", "DOC"],
     _signature_doc(1.5)),
    (["eval", "--formula", "P(x)", "--field", "DOC"],
     {**_field_doc(), "fibers": ["w1", "w2"]}),
    (["eval", "--formula", "P(x)", "--field", "DOC"], _field_doc(preds=[1])),
    (["eval", "--formula", "P(x)", "--field", "DOC"], _field_doc(dist=0)),
    (["mba", "defin", "--algebra", "DOC"],
     {"atoms": [["a"], ["b"]], "weights": ["1/2", "1/2"]}),
    (["mba", "defin", "--algebra", "DOC"],
     {"atoms": "ab", "weights": ["1/2", "1/2"]}),
    (["mba", "defin", "--algebra", "DOC"],
     {"atoms": [0.5, 1.5], "weights": ["1/2", "1/2"]}),
    (["typei", "rho", "--desc", "DOC"],
     {"components": [{"m": "two", "atoms": ["1"]}]}),
    (["typei", "rho", "--desc", "DOC"],
     {"components": [{"m": 2.7, "atoms": ["1"]}]}),
    (["mba", "dist", "--algebra", "alg3.json", "--input", "DOC"],
     {"chain": ["ab"], "tuple": [["a"]]}),
    (["typei", "rho", "--desc", "DOC"], {"components": [{"m": 1, "atoms": "1"}]}),
    (["mba", "defin", "--algebra", "DOC"], {"atoms": ["a"], "weights": ["1/0"]}),
    (["mba", "defin", "--algebra", "DOC"], {"atoms": ["a"], "weights": ["x"]}),
    (["transform", "--formula", "P(x)", "--signature", "DOC"],
     {"predicates": [{"name": "P"}]}),
    (["mba", "defin", "--algebra", "DOC"], {"atoms": ["a"]}),
    (["mba", "defin", "--algebra", "DOC"],
     {"atoms": ["a", "b"], "weights": ["1"]}),
    (["mba", "dist", "--algebra", "alg.json", "--input", "DOC"],
     {"chain": [["zz"]], "tuple": [["w1"]]}),
    (["eval", "--formula", "P(x)", "--field", "DOC"], _field_doc_without("dist")),
    (["eval", "--formula", "P(x)", "--field", "DOC"],
     {"space": _field_doc()["space"]}),
    (["eval", "--formula", "P(x)", "--field", "DOC"],
     {**_field_doc(), "fibers": {"w1": _field_doc()["fibers"]["w1"]}}),
    (["eval", "--formula", "P(x)", "--field", "DOC"], _field_doc(preds={"P": {}})),
    (["typei", "rho", "--desc", "DOC"], {"remainder": "1"}),
    (["eval", "--formula", "P(x)", "--field", "DOC"],
     {"space": {"atoms": [1, "1"], "weights": ["1/2", "1/2"]},
      "fibers": {"1": _field_doc()["fibers"]["w1"]}}),
    (["transform", "--formula", "None(x)", "--signature", "DOC"],
     {"predicates": [{"name": None, "arity": 1}]}),
    (["transform", "--formula", "True(x)", "--signature", "DOC"],
     {"predicates": [{"name": True, "arity": 1}]}),
    (["mba", "defin", "--algebra", "DOC"],
     {"atoms": ["w1", True], "weights": ["1/2", "1/2"]}),
    (["mba", "dist", "--algebra", "alg_int.json", "--input", "DOC"],
     {"chain": [[True]], "tuple": [[1]]}),
    (["mba", "defin", "--algebra", "DOC"],
     {"atoms": ["w1", "w2"], "weights": ["1/2", 0.5]}),
    (["mba", "defin", "--algebra", "DOC"],
     {"atoms": ["a", "b"], "weights": ["1e-1", "9/10"]}),
    (["eval", "--formula", "sup y . P(f(y))", "--field", "DOC"],
     _func_field_doc(5)),
], ids=["signature-list", "assignment-list", "assignment-string",
        "assignment-entry-string", "dist-missing-tuple", "dist-subset-number",
        "dist-chain-number", "points-string", "points-nested",
        "assignment-unknown-atom", "arity-string", "arity-null",
        "arity-fraction", "fibers-list", "preds-list", "dist-number",
        "atoms-lists", "atoms-string", "atoms-float", "m-string",
        "m-fraction", "dist-subset-string", "desc-atoms-string",
        "weight-zero-denominator", "weight-not-rational", "arity-missing",
        "weights-missing", "weights-length", "dist-subset-unknown-atom",
        "structure-dist-missing", "fibers-missing", "fiber-missing",
        "pred-entry-missing", "components-missing", "atoms-share-text",
        "name-null", "name-true", "atom-true", "subset-atom-true",
        "weight-float", "weight-exponent", "func-entry-number"])
def test_malformed_document_exit_2(paths, tmp_path, capsys, argv, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = [str(path) if a == "DOC" else paths.get(a, a) for a in argv]
    code, out, err = run(capsys, argv)
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert json.loads(err)["error"] == "input"


def test_valid_function_field_evaluates(tmp_path, capsys):
    # The document the func-entry-number case spoils, with its entry a string.
    path = tmp_path / "field.json"
    path.write_text(json.dumps(_func_field_doc("5")), encoding="utf-8")
    code, out, _ = run(capsys, ["eval", "--formula", "sup y . P(f(y))",
                                "--field", str(path)])
    assert code == cli.EXIT_PASS
    assert json.loads(out) == {"value": "1"}


def test_exponent_rational_is_refused_before_it_is_built(tmp_path, capsys):
    # Fraction("1e-10000000") would build 10**10000000 first.
    path = tmp_path / "alg.json"
    path.write_text(json.dumps({"atoms": ["a", "b"],
                                "weights": ["1e-10000000", "1"]}), encoding="utf-8")
    start = time.process_time()
    code, out, err = run(capsys, ["mba", "defin", "--algebra", str(path)])
    assert time.process_time() - start < 1
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert json.loads(err)["error"] == "input"


@pytest.mark.parametrize("data", [b"\xff\xfe", b"[" + b"1" * 5000 + b"]"],
                         ids=["not-utf-8", "integer-past-digit-limit"])
def test_unreadable_json_exit_2(tmp_path, capsys, data):
    path = tmp_path / "alg.json"
    path.write_bytes(data)
    code, out, err = run(capsys, ["mba", "defin", "--algebra", str(path)])
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert json.loads(err)["error"] == "input"


# ---------------------------------------------------------------------------
# mba subcommands


def test_mba_defin(paths, capsys):
    code, out, _ = run(capsys, ["mba", "defin", "--algebra", paths["alg3.json"]])
    assert code == cli.EXIT_PASS
    assert json.loads(out)["ok"] is True


def test_mba_monotone(paths, capsys):
    code, out, _ = run(capsys, [
        "mba", "monotone", "--formula", "sub(P(x), Q(x))",
        "--signature", paths["sig.json"], "--algebra", paths["alg.json"],
        "--k", "2", "--trials", "20",
    ])
    assert code == cli.EXIT_PASS
    assert json.loads(out) == {"ok": True}


@pytest.mark.parametrize("argv", [
    ["selftest", "--count", "-1"],
    # P(x) is checked exhaustively and the supremum by sampling: the trial
    # count is refused on both paths.
    ["mba", "monotone", "--formula", "P(x)", "--signature", "sig.json",
     "--algebra", "alg.json", "--trials", "-3"],
    ["mba", "monotone", "--formula", "sup y . sub(P(y), Q(y))",
     "--signature", "sig.json", "--algebra", "alg.json", "--trials", "-3"],
    # A negative budget or limit is an argument error, not a budget.
    ["transform", "--formula", "sup y . P(y)", "--signature", "sig.json",
     "--budget-c", "-1"],
    ["transform", "--formula", "sup y . P(y)", "--signature", "sig.json",
     "--budget-vars", "-1"],
    ["eval", "--formula", "sup y . P(y)", "--field", "sup_field.json",
     "--max-choice-functions", "-1"],
    ["selftest", "--budget-vars", "-5"],
], ids=["selftest-negative-count", "monotone-exhaustive-negative-trials",
        "monotone-sampled-negative-trials", "transform-negative-budget-c",
        "transform-negative-budget-vars", "eval-negative-max-choice-functions",
        "selftest-negative-budget-vars"])
def test_out_of_range_argument_exit_2(paths, capsys, argv):
    code, out, err = run(capsys, [paths.get(a, a) for a in argv])
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert json.loads(err)["error"] == "input"


def test_mba_defin_budget_exit_2(tmp_path, capsys):
    # 4**20 subset pairs against 3**20 inclusion pairs: 12**20 comparisons,
    # refused from the closed-form count, not walked.
    atoms = [f"w{i}" for i in range(20)]
    alg_path = tmp_path / "wide_alg.json"
    alg_path.write_text(json.dumps(jsonio.algebra_to_doc(
        uniform_space(atoms))), encoding="utf-8")
    code, out, err = run(capsys, ["mba", "defin", "--algebra", str(alg_path)])
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert json.loads(err)["error"] == "budget"
    assert str(12**20) in json.loads(err)["message"]


def test_mba_dist_budget_exit_2(tmp_path, capsys):
    # A full chain of length 3 over 20 atoms has 4**20 tuples in its chain
    # set: refused from the closed-form count, not walked.
    atoms = [f"w{i}" for i in range(20)]
    alg_path = tmp_path / "wide_alg.json"
    alg_path.write_text(json.dumps(jsonio.algebra_to_doc(
        uniform_space(atoms))), encoding="utf-8")
    input_path = tmp_path / "wide_dist.json"
    input_path.write_text(json.dumps({"chain": [atoms] * 3,
                                      "tuple": [[], [], []]}),
                          encoding="utf-8")
    code, out, err = run(capsys, [
        "mba", "dist", "--algebra", str(alg_path), "--input", str(input_path),
    ])
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert json.loads(err)["error"] == "budget"
    assert str(4**20) in json.loads(err)["message"]


def test_mba_dist(paths, capsys):
    code, out, _ = run(capsys, [
        "mba", "dist", "--algebra", paths["alg.json"],
        "--input", paths["dist_input.json"],
    ])
    assert code == cli.EXIT_PASS
    doc = json.loads(out)
    assert doc["ok"] is True
    assert jsonio.parse_fraction(doc["distance"]) <= jsonio.parse_fraction(
        doc["phi_value"]
    )


# ---------------------------------------------------------------------------
# typei subcommands


def test_typei_rho(paths, capsys):
    code, out, _ = run(capsys, ["typei", "rho", "--desc", paths["m2.json"]])
    assert code == cli.EXIT_PASS
    assert json.loads(out) == {"(2,1)": "1"}


def test_typei_equiv_and_tensor(paths, capsys):
    code, out, _ = run(capsys, [
        "typei", "equiv", "--left", paths["m2.json"], "--right", paths["m3.json"],
    ])
    assert code == cli.EXIT_PASS
    assert json.loads(out) == {"equiv": False}
    code, out, _ = run(capsys, [
        "typei", "tensor", "--left", paths["m2.json"], "--right", paths["m3.json"],
    ])
    assert code == cli.EXIT_PASS
    doc = json.loads(out)
    assert doc["components"] == [{"m": 6, "atoms": ["1"], "diffuse": "0"}]


# ---------------------------------------------------------------------------
# selftest


def test_selftest_small_run(capsys):
    code, out, _ = run(capsys, ["selftest", "--seed", "0", "--count", "6"])
    assert code == cli.EXIT_PASS
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["instances"] == 6


# SHA-256 of the JSON and of the pretty stdout of
# `dilogic selftest --seed 0 --count 6`.
SELFTEST_SHA256 = (
    "42ac4639738a6c66ec3ae4138098d9b4cdcdd289f30007a29a968c03cdd18c2f",
    "1d641d396b7ec9e665a2635fa4516a50be9fea0a2c975aa78de4ed0447d7d010",
)


def test_python_dash_m_runs_the_cli(capsys):
    argv = ["selftest", "--seed", "0", "--count", "1"]
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "dilogic", *argv], env=env,
                          capture_output=True, text=True, timeout=120, check=False)
    code, out, _ = run(capsys, argv)
    assert proc.returncode == code == cli.EXIT_PASS
    assert proc.stdout == out


def test_selftest_golden_bytes(capsys):
    digests = []
    for fmt in ("json", "pretty"):
        code, out, _ = run(capsys, ["selftest", "--seed", "0", "--count", "6",
                                    "--format", fmt])
        assert code == cli.EXIT_PASS
        digests.append(hashlib.sha256(out.encode("utf-8")).hexdigest())
    assert tuple(digests) == SELFTEST_SHA256


def test_selftest_seed_0_count_34_golden_bytes(capsys):
    code, out, _ = run(capsys, ["selftest", "--seed", "0", "--count", "34"])
    assert code == cli.EXIT_PASS
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "df9b169fe627dfaa14883787c09d4ef19ce7492edc740ba06cd97a346b139614")


def test_readme_example_documents(tmp_path, capsys):
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    block = re.search(r"Example documents:\s*```json\n(.*?)```", readme.read_text(
        encoding="utf-8"), re.S).group(1)
    docs = {name: json.loads(body) for name, body in
            re.findall(r"^// (\S+)\n(.*?)(?=^// |\Z)", block, re.S | re.M)}
    assert sorted(docs) == ["alg.json", "field.json", "sig.json"]
    jsonio.signature_from_doc(docs["sig.json"])
    jsonio.algebra_from_doc(docs["alg.json"])
    jsonio.field_from_doc(docs["field.json"])
    path = tmp_path / "field.json"
    path.write_text(json.dumps(docs["field.json"]), encoding="utf-8")
    code, out, _ = run(capsys, ["eval", "--formula", "sup y . P(y)",
                                "--field", str(path)])
    assert code == cli.EXIT_PASS
    assert json.loads(out) == {"value": "3/4"}
