"""Command-line front end: exit codes, JSON determinism, error bodies."""

import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys
import time
import types
from fractions import Fraction

import pytest

from dilogic import cli, errors, family, jsonio, mba
from dilogic import integral as di
from dilogic import transform as tr

from helpers import (
    GOLDEN_CORPUS,
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


def _plant_constant_g(monkeypatch, value):
    """Make every transform give G = Const(value) with no formulas."""
    monkeypatch.setattr(tr, "transform", lambda phi, k, *budgets: tr.TransformResult(
        k, {}, mba.Const(value)))


def test_check_reports_each_failure_of_a_planted_g(paths, capsys, monkeypatch):
    # P(x) integrates to 1/2; G = 1 at k = 8 claims G > l/8 where the value
    # is not above (l-1)/8 for l = 5, 6, 7, and misses it by more than 2/8.
    _plant_constant_g(monkeypatch, 1)
    code, out, _ = run(capsys, [
        "check", "--formula", "P(x)", "--field", paths["atomic_field.json"],
        "--assignment", paths["assignment.json"], "--k", "8",
    ])
    assert code == cli.EXIT_VIOLATION
    doc = json.loads(out)
    assert doc["ok"] is False
    assert doc["failures"] == [
        {"rule": rule, "l": l, "integral_value": "1/2", "mba_value": "1"}
        for rule, l in (("D.4", 5), ("D.4", 6), ("D.4", 7), ("gap", None))]


@pytest.mark.parametrize("planted, line", [
    (None, "v = 1/2, g = 1/4, pass"),
    (1, "v = 1/2, g = 1, FAIL"),
], ids=["pass", "planted-fail"])
def test_check_pretty_line(paths, capsys, monkeypatch, planted, line):
    if planted is not None:
        _plant_constant_g(monkeypatch, planted)
    code, out, _ = run(capsys, [
        "check", "--formula", "P(x)", "--field", paths["atomic_field.json"],
        "--assignment", paths["assignment.json"], "--k", "2" if planted is None else "8",
        "--format", "pretty",
    ])
    assert code == (cli.EXIT_PASS if planted is None else cli.EXIT_VIOLATION)
    assert out == line + "\n"


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


def test_eval_refuses_nested_binders_before_it_starts(tmp_path, capsys):
    # 4 choice functions: twelve nested binders visit 4 + 4**2 + ... +
    # 4**12 of them, which took about 11 s when each was run.
    field_ = di.MeasurableField(uniform_space(("w1", "w2")), {
        "w1": make_structure(SIG_P, {"P": {"p": F(1), "q": F(0)}}),
        "w2": make_structure(SIG_P, {"P": {"r": F(1, 4), "s": F(1, 2)}})})
    path = tmp_path / "field.json"
    path.write_text(json.dumps(jsonio.field_to_doc(field_)), encoding="utf-8")
    text = " ".join(f"sup z{i} ." for i in range(12)) + " P(z0)"
    start = time.process_time()
    code, out, err = run(capsys, ["eval", "--formula", text,
                                  "--field", str(path)])
    assert time.process_time() - start < 1
    assert code == cli.EXIT_INPUT
    assert out == ""
    count = sum(4 ** j for j in range(1, 13))
    assert json.loads(err) == {
        "error": "budget",
        "message": f"choice-function count {count} exceeds limit "
                   f"{di.DEFAULT_CHOICE_LIMIT}"}


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
    assert json.loads(err) == {
        "error": "budget",
        "message": "index-set size 2 exceeds budget 1; tag count 1, largest level 2"}


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
        "f139d1a65bddc774a0525379f2fdb86711a972f618699243a3c5723ae55bd2a8",
        "73b472afac1453227a4bdfc4b0f7a39639b17fcbd9b44f853e478169f464962e",
    ),
    "sub-mixed": (
        "59477411620e8c7206d0c625457ce9c0cf595899200ca7507ce8baa5757ac8ab",
        "20b07eba7b107a50c68327a9f8a5623063f8054262e69d634c1796fd180c5def",
    ),
    "sub-const-left": (
        "c06443ffa812d2bc797ba61b64d83840264aab8a33c85ce8a63e6745c2d4a7ec",
        "98b635e7b2532519bfe3e05446fd06cc66bb39886941572b8ce1e68025949607",
    ),
    "half-sub": (
        "fbda084f46e56782c545855e4d44c89f665ce8bb351e4bc763abdcad8e82912d",
        "e6bd5d2be4d16ceb4331515b7b4363bf809ec7a93b44650c8378a71690f48904",
    ),
    "sub-sub": (
        "9650236afec753592e77019c7e8b8b9979dc6fa8404c3626b84dcc26ea422abe",
        "2f978e8253823e002055d54c2481239b1e2bff060b93ca0b36f13b55e185e2d5",
    ),
    "sup-atomic": (
        "9e1d3e4aaede659af7eef6ac953d6c9277c054cbc32fd539aa3240fad71245bd",
        "75f9e4f728445a2dff11c6a7ae75625ade9b81dc253cfb6b4e1327923f9681fb",
    ),
    "sup-binary": (
        "ab7ba8e7f952b535ebf27f0935e978b94562ff3343a8e7874b6fbc760a85a950",
        "e47be98f55537067936df1041a871b26e5a66f80d7684d2bbca0da1e7ceebf23",
    ),
    "half-sup": (
        "eb69a2afeca76d20a946f686924e121848f2c73c74b5fd1ca263f1d42bdcb3af",
        "b2fb6873b98582bf6a76bf881a31962710446fae29ec6aa89a91f42c134aec03",
    ),
    "sup-sub": (
        "c8fc01d29140d23b31a0d5b29981bc16ccd737c0b9f050a4bcd19ad54f4922e1",
        "b9aafd0b0c271ba55947d4ff25289418952f405d5ce51b82a8af9b93cf66ecd0",
    ),
    "sup-sub-const": (
        "41dfdbc5fea6a689ca5b62d67cfadfbc12325dcc71bc17507584f57eb8196c20",
        "0780973eea252d6759eec2df49e0e3607797fc62760f284059d229cb1f3ef0a1",
    ),
    "sub-sup": (
        "521cdf5e712e2f5b17213c74ea9cb23c81c1787cf2f00e44978cce6e893759c6",
        "6475b9a291810eb86bc12f79c4dbd35d36e95c25e4b89871f3e20613feb12f8f",
    ),
    "frontier-sup-sub": (
        "c8fc01d29140d23b31a0d5b29981bc16ccd737c0b9f050a4bcd19ad54f4922e1",
        "b9aafd0b0c271ba55947d4ff25289418952f405d5ce51b82a8af9b93cf66ecd0",
    ),
    "frontier-sup-sup": (
        "bb9923e81a920db4f49045ab75c3009aa167188d92e1a195e2899db5a2f4d610",
        "a94586ab322931d8a583ac4827c867cd613ad4380c1caa017626cc1423d7ea9f",
    ),
    "frontier-inf": (
        "39689756572bba6392c2d1d1d1fefcf5855fe9bd98a1e96a60766bf219c54a9e",
        "d1977762bc69b0cace0b774c4207e49bceb9c7144a0d1f798932ef175b8263d4",
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
    (["eval", "--formula", "sup y . P(y)", "--field", "DOC"],
     {**_func_field_doc("5"),
      "fibers": {"w1": _func_field_doc("5")["fibers"]["w1"], "zz": 5}}),
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
        "weight-float", "weight-exponent", "func-entry-number",
        "fibers-unknown-atom"])
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


def test_mba_defin_reports_planted_violations(paths, capsys, monkeypatch):
    # mu(X2 minus X1) is zero off the inclusion pairs, and mu(X3) is not
    # zero at X3 = X1 inter X2: both warm-up checks fail.
    x1, x2, x3 = (mba.SetVarIndex(n, 0) for n in ("X1", "X2", "X3"))
    monkeypatch.setattr(mba, "simple_definables",
                        lambda: (mba.Measure(mba.Diff(x2, x1)), mba.Measure(x3)))
    code, out, _ = run(capsys, ["mba", "defin", "--algebra", paths["alg.json"]])
    assert code == cli.EXIT_VIOLATION
    doc = json.loads(out)
    assert doc["ok"] is False
    assert {v[0] for v in doc["violations"]} == {"inclusion", "intersection"}


def test_mba_monotone_reports_a_planted_decreasing_formula(paths, capsys, monkeypatch):
    # A transform whose G is mu of a complement, which decreases.
    x = mba.SetVarIndex("X", 0)
    monkeypatch.setattr(tr, "transform", lambda *args: types.SimpleNamespace(
        g=mba.Measure(mba.Compl(x))))
    code, out, _ = run(capsys, [
        "mba", "monotone", "--formula", "P(x)", "--signature", paths["sig.json"],
        "--algebra", paths["alg.json"]])
    assert code == cli.EXIT_VIOLATION
    assert json.loads(out) == {"ok": False, "low_value": "1", "high_value": "1/2"}


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


def test_an_internal_bug_exits_3_with_its_traceback(paths, capsys, monkeypatch):
    # Exit 1 means "violation"; an exception that is no DilogicError and no
    # OSError is a bug and gets its own code.
    def broken(args):
        raise RuntimeError("planted bug")

    monkeypatch.setattr(cli, "cmd_transform", broken)
    code, out, err = run(capsys, ["transform", "--formula", "P(x)",
                                  "--signature", paths["sig.json"], "--k", "2"])
    assert code == cli.EXIT_BUG == 3
    assert out == ""
    assert err.startswith("Traceback (most recent call last):")
    assert err.rstrip().endswith("RuntimeError: planted bug")


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


@pytest.mark.parametrize("xs", [[], [["w1"]], [["w1"], ["w1"], []]],
                         ids=["empty", "short", "long"])
def test_mba_dist_tuple_length_exit_2(paths, tmp_path, capsys, xs):
    input_path = tmp_path / "dist_length.json"
    input_path.write_text(json.dumps({"chain": [["w1", "w2"], ["w1"]],
                                      "tuple": xs}), encoding="utf-8")
    code, out, err = run(capsys, [
        "mba", "dist", "--algebra", paths["alg.json"], "--input", str(input_path),
    ])
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert json.loads(err) == {
        "error": "input", "message": "tuple length does not match chain length"}


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


BIG_A, BIG_B = 10**2200, 3**4700  # coprime, each under 4,300 digits


@pytest.mark.parametrize("command, components", [
    ("tensor", [{"m": 10**2500, "diffuse": "1"}]),
    ("tensor", [{"m": 1, "atoms": [f"{10**2500 - 1}/{10**2500}", f"1/{10**2500}"]}]),
    ("rho", [{"m": 1, "diffuse": f"1/{BIG_A}"}, {"m": 1, "diffuse": f"1/{BIG_B}"},
             {"m": 2, "diffuse": f"{BIG_A - 2}/{2 * BIG_A}"},
             {"m": 3, "diffuse": f"{BIG_B - 2}/{2 * BIG_B}"}]),
], ids=["tensor-size", "tensor-atom-mass", "rho-merged-mass"])
def test_output_past_the_digit_limit_is_a_budget_error(tmp_path, capsys, command,
                                                      components):
    # Each description is readable, but a size or mass it leads to (the
    # product's, or the sum of the two size-1 masses) has more digits than
    # an integer may have as text: refused before anything is written.
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"components": components}), encoding="utf-8")
    argv = (["--desc", str(path)] if command == "rho"
            else ["--left", str(path), "--right", str(path)])
    code, out, err = run(capsys, ["typei", command, *argv])
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert json.loads(err)["error"] == "budget"


# Four atoms of weights 1/4 +- 1/BIG_C and 1/4 +- 1/BIG_D: each weight is
# readable, but the mass of {w1, w3} has more digits than an integer may
# have as text.
BIG_C, BIG_D = 10**4000, 3**8000
NEAR_QUARTERS = {"atoms": ["w1", "w2", "w3", "w4"],
                 "weights": [f"{BIG_C + 4}/{4 * BIG_C}", f"{BIG_C - 4}/{4 * BIG_C}",
                             f"{BIG_D + 4}/{4 * BIG_D}", f"{BIG_D - 4}/{4 * BIG_D}"]}


def _near_quarters_field_doc():
    """NEAR_QUARTERS with one-point fibers: P = 1 at w1 and w3, 0 elsewhere."""
    fibers = {a: jsonio.structure_to_doc(make_structure(SIG_P, {"P": {"p": F(v)}}))
              for a, v in zip(NEAR_QUARTERS["atoms"], (1, 0, 1, 0))}
    return {"space": NEAR_QUARTERS, "fibers": fibers}


@pytest.mark.parametrize("argv, docs, error", [
    (["typei", "rho", "--desc", "DESC"],
     {"DESC": {"components": [{"m": 1, "diffuse": f"1/{BIG_A}"},
                              {"m": 1, "diffuse": f"1/{BIG_B}"},
                              {"m": 2, "diffuse": "1"}]}}, "input"),
    (["check", "--formula", "sup y . P(y)", "--field", "FIELD", "--format", "pretty"],
     {"FIELD": _near_quarters_field_doc()}, "budget"),
    (["mba", "dist", "--algebra", "ALG", "--input", "DIST", "--format", "pretty"],
     {"ALG": NEAR_QUARTERS, "DIST": {"chain": [[]], "tuple": [["w1", "w3"]]}},
     "budget"),
], ids=["typei-rho-total-mass", "check-pretty", "mba-dist-pretty"])
def test_a_rational_past_the_digit_limit_is_refused_without_output(
        tmp_path, capsys, argv, docs, error):
    # A total mass, an integral value or a distance no integer text can
    # hold: exit 2 with an error body, and nothing on stdout.
    for name, doc in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = [str(path) if a == name else a for a in argv]
    code, out, err = run(capsys, argv)
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert json.loads(err)["error"] == error


# A uniform 4,000-atom algebra, and a uniform 200-atom field whose fibers
# each hold three points.
WIDE_ATOMS = [f"w{i}" for i in range(4000)]
WIDE_ALGEBRA = {"atoms": WIDE_ATOMS, "weights": ["1/4000"] * 4000}


def _wide_field_doc():
    fiber = make_structure(SIG_P, {"P": {"p": F(0), "q": F(1, 2), "r": F(1)}})
    atoms = WIDE_ATOMS[:200]
    return jsonio.field_to_doc(di.MeasurableField(uniform_space(atoms),
                                                  {a: fiber for a in atoms}))


SIG_R = {"predicates": [{"name": "R", "arity": 2}]}
LIFTED = ["--k", "2", "--budget-c", "1048576", "--budget-vars", "1048576"]
SUP_TAGS = "exceeds budget 1048576; tag count 5329, largest level 72"
HUGE = r"(of more than \d+ digits|\d+)"  # the whole count where no limit applies


@pytest.mark.parametrize("argv, docs, message", [
    (["transform", "--formula", "sup y . inf z . R(y,z)", "--signature", "SIG", *LIFTED],
     {"SIG": SIG_R}, rf"index-set size {HUGE} {SUP_TAGS}"),
    (["transform", "--formula", "half(sup y . inf z . R(z,y))", "--signature", "SIG",
      *LIFTED], {"SIG": SIG_R}, rf"index-set size {HUGE} {SUP_TAGS}"),
    (["mba", "defin", "--algebra", "ALG"], {"ALG": WIDE_ALGEBRA},
     rf"definability pair comparison count {HUGE} exceeds budget 1000000"),
    (["eval", "--formula", " ".join(f"sup v{i} ." for i in range(48)) + " P(v0)",
      "--field", "FIELD"], {"FIELD": _wide_field_doc()},
     rf"choice-function count {HUGE} exceeds limit 1000000"),
], ids=["transform-sup-inf", "transform-half-sup-inf", "mba-defin", "eval-48-sups"])
def test_a_count_past_the_digit_limit_is_a_budget_error(tmp_path, capsys, argv, docs,
                                                        message):
    # Each count (an index set over 5,329 tags, 12**4000 pair comparisons,
    # 3**200 choice functions visited 48 levels deep) has more digits than
    # an integer may have as text: refused by that limit, and quickly (the
    # transforms take about 0.2 s, most of it compiling the inner sup).
    for name, doc in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = [str(path) if a == name else a for a in argv]
    start = time.process_time()
    code, out, err = run(capsys, argv)
    assert time.process_time() - start < 1
    assert code == cli.EXIT_INPUT
    assert out == ""
    body = json.loads(err)
    assert body["error"] == "budget"
    assert re.fullmatch(message, body["message"])


def test_refuse_over_writes_a_count_past_the_digit_limit():
    errors.refuse_over(10**6, "tuple count")
    with pytest.raises(errors.BudgetError) as refused:
        errors.refuse_over(10**6 + 1, "tuple count")
    assert str(refused.value) == "tuple count 1000001 exceeds budget 1000000"
    with pytest.raises(errors.BudgetError) as refused:
        errors.refuse_over(10**5000, "tuple count", 7, "limit", "; detail")
    assert re.fullmatch(rf"tuple count {HUGE} exceeds limit 7; detail", str(refused.value))


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
