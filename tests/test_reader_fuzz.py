"""A seeded mutation fuzzer over every document reader and every command
that reads a document.

Valid documents are mutated by type swaps, deleted keys and items, huge
integers, true/false/null, renamed keys and nesting changes, and valid
--formula texts by deep nesting, long digit runs, truncation, and swapped
and dropped tokens.  A reader may only return or raise a DilogicError; a
command may only exit 0, 1 or 2, and exit 2 prints nothing on stdout and
an "input" or "budget" body on stderr.  Commands read their documents in
memory, through a patched cli._load_json, so no file is written.
"""

import copy
import json
import random
import re

from dilogic import cli, jsonio
from dilogic import formula as fm
from dilogic.errors import DilogicError

SEED = 18
READER_MUTATIONS = 5000
CLI_MUTATIONS = 1000
FORMULA_SEED = 22
FORMULA_MUTATIONS = 400

_FIBER = {
    "signature": {"predicates": [{"name": "P", "arity": 1},
                                 {"name": "R", "arity": 0}],
                  "functions": [{"name": "f", "arity": 1}]},
    "points": ["p", "q"],
    "dist": [["0", "1/2"], ["1/2", "0"]],
    "preds": {"P": {"p": "3/4", "q": "1/4"}, "R": "1/2"},
    "funcs": {"f": {"p": "q", "q": "p"}},
}

VALID = {
    "sig": {"predicates": [{"name": "P", "arity": 1}, {"name": "Q", "arity": 2}],
            "functions": [{"name": "f", "arity": 1}]},
    "alg": {"atoms": ["w1", "w2"], "weights": ["1/2", "1/2"]},
    "alg_int": {"atoms": [1, 2, 3], "weights": ["1/2", "1/4", "1/4"]},
    "field": {"space": {"atoms": ["w1", "w2"], "weights": ["1/3", "2/3"]},
              "fibers": {"w1": _FIBER, "w2": _FIBER}},
    "assign": {"x": {"w1": "p", "w2": "q"}},
    "desc": {"components": [{"m": 2, "atoms": ["1/2"], "diffuse": "1/4"},
                            {"m": 3, "atoms": ["1/4"]}],
             "remainder": "0"},
    "dist": {"chain": [["w1", "w2"], ["w1"]], "tuple": [["w2"], ["w2"]]},
}

FIELD = jsonio.field_from_doc(VALID["field"])
ALG = jsonio.algebra_from_doc(VALID["alg"])
READERS = {
    "sig": jsonio.signature_from_doc,
    "alg": jsonio.algebra_from_doc,
    "alg_int": jsonio.algebra_from_doc,
    "field": jsonio.field_from_doc,
    "assign": lambda doc: jsonio.assignment_from_doc(doc, FIELD),
    "desc": jsonio.description_from_doc,
    "dist": lambda doc: jsonio.dist_input_from_doc(doc, ALG),
}

# Every command that reads a document; each name in an argv is read as
# that document.  desc2 is a second description, so that a run mutates
# one side of a binary typei command.
COMMANDS = [
    ["transform", "--formula", "sup y . Q(x, f(y))", "--signature", "sig"],
    ["eval", "--formula", "sup y . sub(P(y), P(f(x)))", "--field", "field",
     "--assignment", "assign"],
    ["check", "--formula", "sub(P(x), R())", "--field", "field",
     "--assignment", "assign"],
    ["mba", "defin", "--algebra", "alg"],
    ["mba", "monotone", "--formula", "sub(P(x), Q(x, x))", "--signature", "sig",
     "--algebra", "alg", "--trials", "5"],
    ["mba", "dist", "--algebra", "alg", "--input", "dist"],
    ["typei", "rho", "--desc", "desc"],
    ["typei", "equiv", "--left", "desc", "--right", "desc2"],
    ["typei", "tensor", "--left", "desc", "--right", "desc2"],
]

HUGE = [2**64, -(2**63), 10**30, 10**4000]
SWAPS = [None, True, False, 0, 1, -1, 2, 0.5, 1.5, "", "x", "w1", "p",
         "1/2", "1/0", "0.5", "1e-10000000", [], {}, ["w1"], [["0"]],
         {"p": "1"}, {"name": "P", "arity": 1}]


def _paths(node, path=()):
    yield path
    if type(node) is dict:
        for key, child in node.items():
            yield from _paths(child, path + (key,))
    elif type(node) is list:
        for i, child in enumerate(node):
            yield from _paths(child, path + (i,))


def mutate(doc, rng):
    """doc with one to three random mutations; doc itself is not changed."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 3)):
        path = rng.choice(list(_paths(doc)))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        node = parent[path[-1]] if path else doc
        op = rng.randrange(7)
        if op == 0:
            new = copy.deepcopy(rng.choice(SWAPS))
        elif op == 1:
            new = rng.choice(HUGE)
        elif op == 2:
            new = rng.choice([[node], {"k": node}])
        elif op == 3 and type(node) in (dict, list) and node:
            new = rng.choice(list(node.values() if type(node) is dict else node))
        elif op == 4 and type(node) is list and node:
            new = node + [copy.deepcopy(rng.choice(node))]
        elif op == 5 and type(node) is dict and node:
            key = rng.choice(list(node))
            new = {(k + "z" if k == key else k): v for k, v in node.items()}
        elif path:
            del parent[path[-1]]
            continue
        else:
            new = rng.choice(SWAPS)
        if path:
            parent[path[-1]] = new
        else:
            doc = new
    return doc


def test_readers_refuse_mutated_documents_with_dilogic_errors():
    rng = random.Random(SEED)
    names = sorted(READERS)
    read = refused = 0
    for i in range(READER_MUTATIONS):
        name = names[i % len(names)]
        try:
            READERS[name](mutate(VALID[name], rng))
            read += 1
        except DilogicError:
            refused += 1
    assert read > 0 and refused > 0


def test_commands_exit_0_1_or_2_on_mutated_documents(monkeypatch, capsys):
    rng = random.Random(SEED)
    docs = {**VALID, "desc2": VALID["desc"]}
    monkeypatch.setattr(cli, "_load_json", lambda name: current[name])
    codes = {}
    for i in range(CLI_MUTATIONS):
        argv = COMMANDS[i % len(COMMANDS)]
        target = rng.choice([a for a in argv if a in docs])
        base = "desc" if target == "desc2" else target
        current = {**docs, target: mutate(VALID[base], rng)}
        code = cli.main(argv)
        out, err = capsys.readouterr()
        codes[code] = codes.get(code, 0) + 1
        assert code in (cli.EXIT_PASS, cli.EXIT_VIOLATION, cli.EXIT_INPUT)
        if code == cli.EXIT_INPUT:
            assert out == ""
            assert json.loads(err)["error"] in ("input", "budget")
    assert codes.get(cli.EXIT_PASS) and codes.get(cli.EXIT_INPUT)


# ---------------------------------------------------------------------------
# Formula texts

_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|-?[0-9]+|[(),./]")
# Nesting depths around the bound and far past it, where the parser and
# every walker used to recurse without limit.
NEST_DEPTHS = [fm.MAX_NESTING - 2, fm.MAX_NESTING - 1, fm.MAX_NESTING,
               fm.MAX_NESTING + 1, 400, 2000]
# Digit runs on both sides of the interpreter's 4,300-digit limit for
# text-to-integer conversion.
DIGIT_RUNS = [4299, 4300, 4301, 5000, 10000]
# Quantifier evaluation walks the choice functions once per enclosing
# binder, so eval gets few added binders: 4^6 bodies on the fuzz field.
EVAL_BINDERS = 5


def _nest(text, rng, binders_cap):
    n = rng.choice(NEST_DEPTHS + [rng.randint(1, 60)])
    shape = rng.randrange(4)
    if shape == 0:
        return "half(" * n + text + ")" * n
    if shape == 1:
        return "sub(1, " * n + text + ")" * n
    if shape == 2:
        return "sub(" * n + text + ", 1/2)" * n
    n = min(n, binders_cap)
    return "".join(f"{rng.choice(('sup', 'inf'))} z{i} . " for i in range(n)) + text


def mutate_formula(text, rng, binders_cap):
    """text with one or two of: deep nesting, a long digit run, truncation,
    and a swapped or dropped token."""
    for _ in range(rng.randint(1, 2)):
        op = rng.randrange(5)
        if op == 0:
            text = _nest(text, rng, binders_cap)
            continue
        if op == 1:
            digits = "1" + "0" * (rng.choice(DIGIT_RUNS) - 1)
            run = rng.choice([digits, "1/" + digits, digits + "/" + digits])
            at = rng.randrange(len(text) + 1)
            text = text[:at] + run + text[at:]
            continue
        if op == 2:
            text = text[:rng.randrange(len(text) + 1)]
            continue
        tokens = _TOKEN.findall(text)
        if len(tokens) < 2:
            continue
        i, j = rng.sample(range(len(tokens)), 2)
        if op == 3:
            tokens[i], tokens[j] = tokens[j], tokens[i]
        else:
            del tokens[i]
        text = " ".join(tokens)
    return text


def test_commands_exit_0_1_or_2_on_mutated_formulas(monkeypatch, capsys):
    rng = random.Random(FORMULA_SEED)
    monkeypatch.setattr(cli, "_load_json", lambda name: VALID[name])
    commands = [argv for argv in COMMANDS if "--formula" in argv]
    codes, messages = {}, []
    for i in range(FORMULA_MUTATIONS):
        argv = list(commands[i % len(commands)])
        at = argv.index("--formula") + 1
        cap = EVAL_BINDERS if argv[0] == "eval" else max(NEST_DEPTHS)
        argv[at] = mutate_formula(argv[at], rng, cap)
        code = cli.main(argv)
        out, err = capsys.readouterr()
        codes[code] = codes.get(code, 0) + 1
        assert code in (cli.EXIT_PASS, cli.EXIT_VIOLATION, cli.EXIT_INPUT), argv[at][:200]
        if code == cli.EXIT_INPUT:
            assert out == ""
            body = json.loads(err)
            assert body["error"] in ("input", "budget")
            messages.append(body["message"])
    assert codes.get(cli.EXIT_PASS) and codes.get(cli.EXIT_INPUT)
    # The table reaches both parser bounds.
    assert any("nested deeper than" in m for m in messages)
    assert any("digits is past the interpreter's limit" in m for m in messages)
