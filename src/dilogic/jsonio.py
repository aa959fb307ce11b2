"""JSON document formats and human-readable rendering.

All rationals travel as "p/q" strings (or "p" for integers).  Documents
are plain dict/list trees ready for json.dumps with sort_keys=True, so
identical inputs produce identical byte streams.

Every reader checks what it reads through _as and _get, by exact type:
a bool is never an integer, and a float is never a rational.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction

from . import formula as fm
from . import integral as di
from . import mba
from . import structure as st
from . import typei
from .errors import ENUMERATE_TUPLE_BUDGET, BudgetError, InputError

# Atoms and rationals are strings or integers.
_SCALAR = (str, int)
# A table node: an object keyed by point, or a leaf its reader checks.
_TABLE = (dict, str, int)
_RATIONAL_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _as(value, kinds, what):
    """value, if its exact type is kinds or one of them."""
    kinds = kinds if type(kinds) is tuple else (kinds,)
    if type(value) not in kinds:
        raise InputError(f"{what} must be {' or '.join(k.__name__ for k in kinds)}"
                         f", not {type(value).__name__}")
    return value


def _get(doc, key, kinds, what, default=None):
    """doc[key], checked by _as, of doc checked to be an object; a missing
    key gives default, and is an error when default is None."""
    if key not in _as(doc, dict, what):
        if default is None:
            raise InputError(f"{what} is missing key {key!r}")
        return default
    return _as(doc[key], kinds, f"{what} {key!r}")


def parse_fraction(value):
    """A rational from a "p/q" or "p" string or an integer.  The form is
    checked before Fraction sees it, so no float or exponent is read."""
    if type(_as(value, (str, int), "rational")) is str \
            and not _RATIONAL_RE.fullmatch(value):
        raise InputError(f"bad rational {value!r}: not of the form p/q")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational {value!r}: {exc}") from None


def _text(value):
    """str(value); a BudgetError when an integer in it has more digits
    than the interpreter converts to text."""
    try:
        return str(value)
    except ValueError:
        raise BudgetError("an integer to write has more digits than the "
                          "interpreter's integer-to-text limit") from None


def format_fraction(value):
    return _text(Fraction(value))


# ---------------------------------------------------------------------------
# Signatures


def signature_to_doc(sig):
    return {
        "predicates": [{"name": n, "arity": a} for n, a in sig.predicates],
        "functions": [{"name": n, "arity": a} for n, a in sig.functions],
    }


def signature_from_doc(doc):
    return fm.Signature(*(
        tuple((_get(e, "name", str, key), _get(e, "arity", int, key))
              for e in _get(doc, key, list, "signature", []))
        for key in ("predicates", "functions")))


# ---------------------------------------------------------------------------
# Measure algebras / probability spaces


def algebra_to_doc(alg):
    return {
        "atoms": list(alg.atoms),
        "weights": [format_fraction(alg.weights[a]) for a in alg.atoms],
    }


def algebra_from_doc(doc):
    atoms = [_as(a, _SCALAR, "algebra atom")
             for a in _get(doc, "atoms", list, "algebra")]
    weights = [parse_fraction(w) for w in _get(doc, "weights", list, "algebra")]
    if len(atoms) != len(weights):
        raise InputError("atoms and weights differ in length")
    return mba.FiniteMeasureAlgebra(tuple(atoms), dict(zip(atoms, weights)))


def subset_from_doc(doc, alg):
    subset = frozenset(_as(a, _SCALAR, "subset atom")
                       for a in _as(doc, list, "subset"))
    for a in subset:
        if a not in alg.weights:
            raise InputError(f"unknown atom {a!r} in subset")
    return subset


def subset_to_doc(subset, alg):
    return [a for a in alg.atoms if a in subset]


def dist_input_from_doc(doc, alg):
    """The chain and the tuple of a `dilogic mba dist` input, each a list
    of subsets."""
    return tuple([subset_from_doc(u, alg) for u in _get(doc, key, list, "dist input")]
                 for key in ("chain", "tuple"))


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
    if arity == 0:
        return {(): leaf(doc)}
    # The table has len(points) ** arity entries of arity points each.  For
    # b the budget's bit length, the power exceeds the budget exactly when
    # len(points) ** min(arity, b) does, so the huge power is never built.
    budget = ENUMERATE_TUPLE_BUDGET
    if arity > budget or len(points) ** min(arity, budget.bit_length()) > budget:
        raise BudgetError(
            f"{what} table of {len(points)}^{arity} entries exceeds budget "
            f"{budget}")
    table = {}
    for tup in itertools.product(points, repeat=arity):
        node = doc
        for p in tup:
            node = _get(node, p, _TABLE, f"{what} table at {tup}")
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


def structure_from_doc(doc):
    sig = signature_from_doc(_get(doc, "signature", dict, "structure"))
    points = tuple(_as(p, str, "structure point")
                   for p in _get(doc, "points", list, "structure"))
    matrix = _get(doc, "dist", list, "structure")
    if len(matrix) != len(points) or any(
            len(_as(row, list, "dist row")) != len(points) for row in matrix):
        raise InputError("dist matrix shape does not match the point list")
    pred_docs = _get(doc, "preds", dict, "structure", {})
    func_docs = _get(doc, "funcs", dict, "structure", {})
    dist = {(p, q): parse_fraction(v) for p, row in zip(points, matrix)
            for q, v in zip(points, row)}
    preds = {name: _table_from_doc(
                 points, arity, _get(pred_docs, name, _TABLE, "preds"),
                 parse_fraction, f"predicate {name!r}")
             for name, arity in sig.predicates}
    funcs = {name: _table_from_doc(
                 points, arity, _get(func_docs, name, dict, "funcs"),
                 lambda v: _as(v, str, "function table entry"), f"function {name!r}")
             for name, arity in sig.functions}
    return st.ensure_valid(st.FiniteMetricStructure(sig, points, dist, preds, funcs))


def field_to_doc(field_):
    return {
        "space": algebra_to_doc(field_.space),
        "fibers": {str(a): structure_to_doc(field_.fibers[a])
                   for a in field_.space.atoms},
    }


def field_from_doc(doc):
    """A field; its document keys fibers, like assignment entries, by atom text."""
    space = algebra_from_doc(_get(doc, "space", dict, "field"))
    fiber_docs = _get(doc, "fibers", dict, "field")
    texts = {str(a) for a in space.atoms}
    if len(texts) != len(space.atoms):
        raise InputError("field atoms must have distinct texts")
    unknown = sorted(set(fiber_docs) - texts)
    if unknown:
        raise InputError(f"field fibers name no atom of the space: {unknown}")
    return di.MeasurableField(space, {
        a: structure_from_doc(_get(fiber_docs, str(a), dict, "field fibers"))
        for a in space.atoms})


def assignment_from_doc(doc, field_):
    by_text = {str(a): a for a in field_.space.atoms}
    out = {}
    for var, choice in _as(doc, dict, "assignment").items():
        what = f"assignment entry {var!r}"
        out[var] = di.element_of(field_, {
            by_text.get(t, t): _as(p, str, f"{what} point")
            for t, p in _as(choice, dict, what).items()})
    return out


# ---------------------------------------------------------------------------
# Type-I descriptions


def description_to_doc(desc):
    """The document of a description.  A size or a mass past the
    interpreter's digit limit for integer-to-text conversion is a
    BudgetError, raised before any of the document is written."""
    for m, _atoms, _diffuse in desc.components:
        _text(m)
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


def _component(doc):
    what = "description component"
    return (_get(doc, "m", int, what),
            tuple(map(parse_fraction, _get(doc, "atoms", list, what, []))),
            parse_fraction(_get(doc, "diffuse", _SCALAR, what, 0)))


def description_from_doc(doc):
    return typei.TypeIDescription(
        tuple(map(_component, _get(doc, "components", list, "description"))),
        parse_fraction(_get(doc, "remainder", _SCALAR, "description", 0)))


def rho_to_doc(table):
    return {f"({m},{n})": format_fraction(v) for (m, n), v in sorted(table.items())}


# ---------------------------------------------------------------------------
# Transform results


def _formula_table(result):
    """F[phi], then the ChainSpec tags outside it in pre-order: F tags
    every SetVarIndex of G, and a ChainSpec of each ChainVar's tag comes
    before it in pre-order."""
    seen = list(result.formulas)
    index = {z: i for i, z in enumerate(seen)}
    for node in mba.nodes(result.g):
        if type(node) is mba.ChainSpec and node.tag not in index:
            index[node.tag] = len(seen)
            seen.append(node.tag)
    return seen, index


def var_name(index, v):
    name = f"Z[{index[v.tag]}][{v.level}]"
    return name if v.strict else name + "|ge"


# The document op and the pretty infix symbol of each binary node class,
# and of each n-ary one (None: pretty renders it as a call, max(a, b));
# _mba_to_doc and pretty_mba read both.
_INFIX = {
    mba.Union: ("union", "+"), mba.Diff: ("diff", "\\"),
    mba.SymDiff: ("symdiff", "^"), mba.TruncSub: ("sub", "-."),
}
_NARY = {
    mba.Inter: ("inter", "&"), mba.Add: ("add", "+"),
    mba.Max: ("max", None), mba.Min: ("min", None),
}


def _mba_to_doc(g, index):
    """The document of a set term or formula of G; index numbers its tags."""
    t = type(g)
    if t is mba.SetVarIndex:
        return {"op": "var", "name": var_name(index, g)}
    if t in _INFIX:
        return {"op": _INFIX[t][0], "left": _mba_to_doc(g.left, index),
                "right": _mba_to_doc(g.right, index)}
    if t is mba.Compl:
        return {"op": "compl", "body": _mba_to_doc(g.body, index)}
    if t is mba.Measure:
        return {"op": "measure", "set": _mba_to_doc(g.term, index)}
    if t is mba.ChainVar:
        return {"op": "chainvar", "binder": g.binder, "tag": index[g.tag],
                "slot": g.slot}
    if t is mba.SetLit:
        return {"op": "lit", "atoms": sorted(g.atoms, key=str)}
    if t is mba.Empty:
        return {"op": "empty"}
    if t is mba.Full:
        return {"op": "full"}
    if t is mba.Const:
        return {"op": "const", "value": format_fraction(g.value)}
    if t is mba.Scale:
        return {"op": "scale", "factor": format_fraction(g.factor),
                "body": _mba_to_doc(g.body, index)}
    if t in _NARY:
        return {"op": _NARY[t][0], "items": [_mba_to_doc(i, index) for i in g.items]}
    if t is mba.SupChain:
        return {
            "op": "supchain",
            "binder": g.binder,
            "chains": [
                {"tag": index[spec.tag],
                 "bounds": [_mba_to_doc(b, index) for b in spec.bounds]}
                for spec in g.chains
            ],
            "inner": _mba_to_doc(g.inner, index),
            "profiles": [
                {"slots": [[index[tag], slot] for tag, slot in prof.slots],
                 "bound": _mba_to_doc(prof.bound, index)}
                for prof in g.profiles
            ],
        }
    raise TypeError(f"not an mba formula or set term: {g!r}")


def _declared_names(result, index):
    """The names of the declared set, tag by tag in F order: each tag's
    strict grid merged with G's off-grid variables on that tag, by
    threshold and then mode (>= before >).  Written from levels and G, so
    result.variables is never built."""
    off = {}
    for v in result.off_grid_vars:
        off.setdefault(v.tag, []).append(v)
    grids = {}  # level -> the texts of its thresholds j/l, 0 <= j < l
    names = []
    for zeta in result.formulas:
        level = result.levels[zeta]
        if level not in grids:
            grids[level] = [str(Fraction(j, level)) for j in range(level)]
        prefix = f"Z[{index[zeta]}]"
        if zeta not in off:
            names += [f"{prefix}[{t}]" for t in grids[level]]
            continue
        # Thresholds compare as integer numerators over this tag's lcm.
        lcm = math.lcm(level, *(v.level.denominator for v in off[zeta]))
        keyed = [(j * (lcm // level), True, t)
                 for j, t in enumerate(grids[level])]
        keyed += [(v.level.numerator * (lcm // v.level.denominator),
                   v.strict, str(v.level)) for v in off[zeta]]
        names += [f"{prefix}[{t}]" + ("" if strict else "|ge")
                  for _key, strict, t in sorted(keyed)]
    return names


def transform_result_to_doc(result):
    """The `dilogic transform` document.  Its declared set is written from
    result.levels and G; result.variables serves tests and counters only."""
    table, index = _formula_table(result)
    return {
        "k": result.k,
        "formulas": list(result.formula_texts.values()),
        "auxiliary_formulas": fm.texts(table[len(result.formulas):]),
        "levels": {str(i): result.levels[z]
                   for i, z in enumerate(result.formulas)},
        "variables": _declared_names(result, index),
        "g": _mba_to_doc(result.g, index),
    }


# ---------------------------------------------------------------------------
# Pretty printing of measure-algebra formulas


def pretty_mba(g):
    """The text of a set term or formula of G."""
    t = type(g)
    if t is mba.SetVarIndex:
        mode = "" if g.strict else "~"
        return f"Z{mode}^{{{fm.to_text(g.tag)}}}_{{{g.level}}}"
    if t in _INFIX:
        return f"({pretty_mba(g.left)} {_INFIX[t][1]} {pretty_mba(g.right)})"
    if t is mba.Compl:
        return f"c({pretty_mba(g.body)})"
    if t is mba.Measure:
        return f"mu({pretty_mba(g.term)})"
    if t is mba.ChainVar:
        return f"Y{g.binder}^{{{fm.to_text(g.tag)}}}_{g.slot}"
    if t is mba.SetLit:
        return "{" + ",".join(sorted(g.atoms, key=str)) + "}"
    if t is mba.Empty:
        return "0"
    if t is mba.Full:
        return "1"
    if t is mba.Const:
        return format_fraction(g.value)
    if t is mba.Scale:
        return f"{format_fraction(g.factor)}*({pretty_mba(g.body)})"
    if t in _NARY:
        name, symbol = _NARY[t]
        items = [pretty_mba(i) for i in g.items]
        if symbol is None:
            return f"{name}({', '.join(items)})"
        return f"({f' {symbol} '.join(items)})"
    if t is mba.SupChain:
        chains = "; ".join(
            f"{fm.to_text(spec.tag)}: "
            + ", ".join(pretty_mba(b) for b in spec.bounds)
            for spec in g.chains
        )
        profiles = "; ".join(
            " & ".join(pretty_mba(mba.ChainVar(g.binder, tag, slot))
                       for tag, slot in prof.slots)
            + f" <= {pretty_mba(prof.bound)}"
            for prof in g.profiles
        )
        if profiles:
            chains += f" | {profiles}"
        return f"sup[Y{g.binder} | {chains}]({pretty_mba(g.inner)})"
    raise TypeError(f"not an mba formula or set term: {g!r}")


def pretty_transform_result(result):
    lines = [f"k = {result.k}"]
    for i, (z, text) in enumerate(result.formula_texts.items()):
        lines.append(f"F[{i}] = {text}   (l = {result.levels[z]})")
    lines.append(f"G = {pretty_mba(result.g)}")
    return "\n".join(lines)
