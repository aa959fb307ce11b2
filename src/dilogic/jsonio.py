"""JSON document formats and human-readable rendering.

All rationals travel as "p/q" strings (or "p" for integers).  Documents
are plain dict/list trees ready for json.dumps with sort_keys=True, so
identical inputs produce identical byte streams.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from . import formula as fm
from . import integral as di
from . import mba
from . import structure as st
from . import typei
from .errors import InputError


def parse_fraction(text):
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational {text!r}: {exc}") from None


def format_fraction(value):
    return str(Fraction(value))


# ---------------------------------------------------------------------------
# Signatures


def signature_to_doc(sig):
    return {
        "predicates": [{"name": n, "arity": a} for n, a in sig.predicates],
        "functions": [{"name": n, "arity": a} for n, a in sig.functions],
    }


def _object(doc, what):
    if not isinstance(doc, dict):
        raise InputError(f"bad {what} document: expected a JSON object")
    return doc


def signature_from_doc(doc):
    _object(doc, "signature")
    try:
        preds = tuple((e["name"], e["arity"]) for e in doc.get("predicates", []))
        funcs = tuple((e["name"], e["arity"]) for e in doc.get("functions", []))
    except (TypeError, KeyError) as exc:
        raise InputError(f"bad signature document: {exc}") from None
    return fm.Signature(preds, funcs)


# ---------------------------------------------------------------------------
# Measure algebras / probability spaces


def algebra_to_doc(alg):
    return {
        "atoms": list(alg.atoms),
        "weights": [format_fraction(alg.weights[a]) for a in alg.atoms],
    }


def algebra_from_doc(doc):
    try:
        atoms = tuple(doc["atoms"])
        weights = [parse_fraction(w) for w in doc["weights"]]
    except (TypeError, KeyError) as exc:
        raise InputError(f"bad algebra document: {exc}") from None
    if len(atoms) != len(weights):
        raise InputError("atoms and weights differ in length")
    for a in atoms:
        if isinstance(a, (list, dict)):
            raise InputError(f"algebra atom {a!r} is not a string or number")
    return mba.FiniteMeasureAlgebra(atoms, dict(zip(atoms, weights)))


def subset_from_doc(doc, alg):
    try:
        subset = frozenset(doc)
    except TypeError as exc:
        raise InputError(f"bad subset {doc!r}: {exc}") from None
    for a in subset:
        if a not in alg.weights:
            raise InputError(f"unknown atom {a!r} in subset")
    return subset


def subset_to_doc(subset, alg):
    return [a for a in alg.atoms if a in subset]


# ---------------------------------------------------------------------------
# Structures and fields


def _table_to_doc(points, arity, table, leaf):
    if arity == 0:
        return leaf(table[()])

    def build(prefix):
        if len(prefix) == arity:
            return leaf(table[prefix])
        return {p: build(prefix + (p,)) for p in points}

    return build(())


def _table_from_doc(points, arity, doc, leaf, what):
    table = {}
    if arity == 0:
        table[()] = leaf(doc)
        return table
    for tup in itertools.product(points, repeat=arity):
        node = doc
        try:
            for p in tup:
                node = node[p]
        except (KeyError, TypeError):
            raise InputError(f"{what} table missing entry at {tup}") from None
        table[tup] = leaf(node)
    return table


def structure_to_doc(M):
    doc = {
        "signature": signature_to_doc(M.signature),
        "points": list(M.points),
        "dist": [
            [format_fraction(M.dist[(p, q)]) for q in M.points] for p in M.points
        ],
        "preds": {
            name: _table_to_doc(M.points, arity, M.preds[name], format_fraction)
            for name, arity in M.signature.predicates
        },
    }
    if M.signature.functions:
        doc["funcs"] = {
            name: _table_to_doc(M.points, arity, M.funcs[name], str)
            for name, arity in M.signature.functions
        }
    return doc


def structure_from_doc(doc, sig=None):
    try:
        sig = sig or signature_from_doc(doc["signature"])
        points = tuple(doc["points"])
        matrix = doc["dist"]
    except (TypeError, KeyError) as exc:
        raise InputError(f"bad structure document: {exc}") from None
    if (not isinstance(matrix, list) or len(matrix) != len(points)
            or any(not isinstance(row, list) or len(row) != len(points)
                   for row in matrix)):
        raise InputError("dist matrix shape does not match the point list")
    pred_docs = _object(doc.get("preds", {}), "structure preds")
    func_docs = _object(doc.get("funcs", {}), "structure funcs")
    dist = {
        (p, q): parse_fraction(matrix[i][j])
        for i, p in enumerate(points)
        for j, q in enumerate(points)
    }
    preds = {
        name: _table_from_doc(points, arity, pred_docs.get(name),
                              parse_fraction, f"predicate {name!r}")
        for name, arity in sig.predicates
    }
    funcs = {
        name: _table_from_doc(points, arity, func_docs.get(name),
                              str, f"function {name!r}")
        for name, arity in sig.functions
    }
    return st.ensure_valid(st.FiniteMetricStructure(sig, points, dist, preds, funcs))


def field_to_doc(field_):
    return {
        "space": algebra_to_doc(field_.space),
        "fibers": {str(a): structure_to_doc(field_.fibers[a])
                   for a in field_.space.atoms},
    }


def field_from_doc(doc):
    try:
        space = algebra_from_doc(doc["space"])
        fiber_docs = _object(doc["fibers"], "fibers")
    except (TypeError, KeyError) as exc:
        raise InputError(f"bad field document: {exc}") from None
    fibers = {}
    for a in space.atoms:
        if a not in fiber_docs:
            raise InputError(f"missing fiber for atom {a!r}")
        fibers[a] = structure_from_doc(fiber_docs[a])
    return di.MeasurableField(space, fibers)


def assignment_from_doc(doc, field_):
    out = {}
    for var, choice in _object(doc or {}, "assignment").items():
        out[var] = di.element_of(field_, _object(choice, f"assignment entry {var!r}"))
    return out


# ---------------------------------------------------------------------------
# Type-I descriptions


def description_to_doc(desc):
    return {
        "components": [
            {
                "m": m,
                "atoms": [format_fraction(a) for a in atoms],
                "diffuse": format_fraction(diffuse),
            }
            for m, atoms, diffuse in desc.components
        ],
        "remainder": format_fraction(desc.remainder),
    }


def description_from_doc(doc):
    try:
        components = tuple(
            (e["m"], tuple(parse_fraction(a) for a in e.get("atoms", [])),
             parse_fraction(e.get("diffuse", 0)))
            for e in doc["components"]
        )
        remainder = parse_fraction(doc.get("remainder", 0))
    except (TypeError, KeyError) as exc:
        raise InputError(f"bad description document: {exc}") from None
    return typei.TypeIDescription(components, remainder)


def rho_to_doc(table):
    return {f"({m},{n})": format_fraction(v) for (m, n), v in sorted(table.items())}


# ---------------------------------------------------------------------------
# Transform results


def _formula_table(result):
    """F[phi] followed by any auxiliary tag formulas (inner SupChain tags),
    in deterministic order."""
    seen = list(result.formulas)
    index = {z: i for i, z in enumerate(seen)}

    def note(tag):
        if tag not in index:
            index[tag] = len(seen)
            seen.append(tag)

    for node in mba.nodes(result.g):
        if type(node) is mba.SetVar:
            note(node.index.tag)
        elif type(node) in (mba.ChainVar, mba.ChainSpec):
            note(node.tag)
    for v in sorted(result.variables, key=mba.var_sort_key):
        note(v.tag)
    return seen, index


def var_name(index, v):
    name = f"Z[{index[v.tag]}][{v.level}]"
    return name if v.strict else name + "|ge"


def _set_to_doc(t, index):
    if isinstance(t, mba.SetVar):
        return {"op": "var", "name": var_name(index, t.index)}
    if isinstance(t, mba.ChainVar):
        return {"op": "chainvar", "binder": t.binder, "tag": index[t.tag],
                "slot": t.slot}
    if isinstance(t, mba.SetLit):
        return {"op": "lit", "atoms": sorted(t.atoms, key=str)}
    if isinstance(t, mba.Empty):
        return {"op": "empty"}
    if isinstance(t, mba.Full):
        return {"op": "full"}
    if isinstance(t, mba.Compl):
        return {"op": "compl", "body": _set_to_doc(t.body, index)}
    ops = {mba.Union: "union", mba.Inter: "inter", mba.Diff: "diff",
           mba.SymDiff: "symdiff"}
    return {"op": ops[type(t)], "left": _set_to_doc(t.left, index),
            "right": _set_to_doc(t.right, index)}


def _mba_to_doc(g, index):
    if isinstance(g, mba.Measure):
        return {"op": "measure", "set": _set_to_doc(g.term, index)}
    if isinstance(g, mba.Const):
        return {"op": "const", "value": format_fraction(g.value)}
    if isinstance(g, mba.Scale):
        return {"op": "scale", "factor": format_fraction(g.factor),
                "body": _mba_to_doc(g.body, index)}
    if isinstance(g, (mba.Add, mba.TruncSub)):
        op = "add" if isinstance(g, mba.Add) else "sub"
        return {"op": op, "left": _mba_to_doc(g.left, index),
                "right": _mba_to_doc(g.right, index)}
    if isinstance(g, (mba.Max, mba.Min)):
        op = "max" if isinstance(g, mba.Max) else "min"
        return {"op": op, "items": [_mba_to_doc(i, index) for i in g.items]}
    if isinstance(g, mba.SupChain):
        return {
            "op": "supchain",
            "binder": g.binder,
            "chains": [
                {"tag": index[spec.tag],
                 "bounds": [_set_to_doc(b, index) for b in spec.bounds]}
                for spec in g.chains
            ],
            "inner": _mba_to_doc(g.inner, index),
            "profiles": [
                {"slots": [[index[tag], slot] for tag, slot in prof.slots],
                 "bound": _set_to_doc(prof.bound, index)}
                for prof in g.profiles
            ],
        }
    raise TypeError(f"not an mba formula: {g!r}")


def transform_result_to_doc(result):
    table, index = _formula_table(result)
    return {
        "k": result.k,
        "formulas": [fm.to_text(z) for z in result.formulas],
        "auxiliary_formulas": [
            fm.to_text(z) for z in table[len(result.formulas):]
        ],
        "levels": {str(i): result.levels[z]
                   for i, z in enumerate(result.formulas)},
        "variables": [var_name(index, v)
                      for v in sorted(result.variables, key=mba.var_sort_key)],
        "g": _mba_to_doc(result.g, index),
    }


# ---------------------------------------------------------------------------
# Pretty printing of measure-algebra formulas


def _pretty_var(v):
    mode = "" if v.strict else "~"
    return f"Z{mode}^{{{fm.to_text(v.tag)}}}_{{{v.level}}}"


def _pretty_set(t):
    if isinstance(t, mba.SetVar):
        return _pretty_var(t.index)
    if isinstance(t, mba.ChainVar):
        return f"Y{t.binder}^{{{fm.to_text(t.tag)}}}_{t.slot}"
    if isinstance(t, mba.SetLit):
        return "{" + ",".join(sorted(t.atoms, key=str)) + "}"
    if isinstance(t, mba.Empty):
        return "0"
    if isinstance(t, mba.Full):
        return "1"
    if isinstance(t, mba.Compl):
        return f"c({_pretty_set(t.body)})"
    sym = {mba.Union: "+", mba.Inter: "&", mba.Diff: "\\", mba.SymDiff: "^"}
    return f"({_pretty_set(t.left)} {sym[type(t)]} {_pretty_set(t.right)})"


def pretty_mba(g):
    if isinstance(g, mba.Measure):
        return f"mu({_pretty_set(g.term)})"
    if isinstance(g, mba.Const):
        return format_fraction(g.value)
    if isinstance(g, mba.Scale):
        return f"{format_fraction(g.factor)}*({pretty_mba(g.body)})"
    if isinstance(g, mba.Add):
        return f"({pretty_mba(g.left)} + {pretty_mba(g.right)})"
    if isinstance(g, mba.TruncSub):
        return f"({pretty_mba(g.left)} -. {pretty_mba(g.right)})"
    if isinstance(g, (mba.Max, mba.Min)):
        name = "max" if isinstance(g, mba.Max) else "min"
        return f"{name}({', '.join(pretty_mba(i) for i in g.items)})"
    if isinstance(g, mba.SupChain):
        chains = "; ".join(
            f"{fm.to_text(spec.tag)}: "
            + ", ".join(_pretty_set(b) for b in spec.bounds)
            for spec in g.chains
        )
        profiles = "; ".join(
            " & ".join(_pretty_set(mba.ChainVar(g.binder, tag, slot))
                       for tag, slot in prof.slots)
            + f" <= {_pretty_set(prof.bound)}"
            for prof in g.profiles
        )
        if profiles:
            chains += f" | {profiles}"
        return f"sup[Y{g.binder} | {chains}]({pretty_mba(g.inner)})"
    raise TypeError(f"not an mba formula: {g!r}")


def pretty_transform_result(result):
    lines = [f"k = {result.k}"]
    for i, z in enumerate(result.formulas):
        lines.append(f"F[{i}] = {fm.to_text(z)}   (l = {result.levels[z]})")
    lines.append(f"G = {pretty_mba(result.g)}")
    return "\n".join(lines)
