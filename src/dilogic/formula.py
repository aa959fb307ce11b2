"""Signature and formula AST for a single-sorted continuous metric language.

The connective fragment is fixed: atomic predicates, rational constants in
[0,1], halving, truncated subtraction, and the quantifiers sup/inf.  All
values are exact rationals.  Bound variables are renamed canonically
(y0, y1, ...) so that structurally equal formulas compare equal.  Terms
and formulas are tree.node classes: frozen, slotted, hash cached.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError, SignatureError
from .tree import Node, Shape, node

RESERVED_WORDS = frozenset({"half", "sub", "sup", "inf"})

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _check_symbol_name(name):
    if not isinstance(name, str) or not _IDENT_RE.fullmatch(name):
        raise SignatureError(f"bad symbol name {name!r}")
    if name in RESERVED_WORDS:
        raise SignatureError(f"symbol name {name!r} is a reserved word")


@dataclass(frozen=True)
class Signature:
    """Predicate and function symbols with arities.

    All symbols carry the default modulus: 1-Lipschitz in each coordinate.
    Predicates may be 0-ary (constants of the structure's value field);
    functions must take at least one argument.
    """

    predicates: tuple = ()
    functions: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "predicates", tuple((str(n), a) for n, a in self.predicates))
        object.__setattr__(self, "functions", tuple((str(n), a) for n, a in self.functions))
        for name, arity in self.predicates + self.functions:
            if isinstance(arity, bool) or not isinstance(arity, int):
                raise SignatureError(f"symbol {name!r} has arity {arity!r}, not an integer")
        seen = set()
        for name, arity in self.predicates:
            _check_symbol_name(name)
            if name in seen:
                raise SignatureError(f"duplicate symbol name {name!r}")
            seen.add(name)
            if arity < 0:
                raise SignatureError(f"predicate {name!r} has negative arity")
        for name, arity in self.functions:
            _check_symbol_name(name)
            if name in seen:
                raise SignatureError(f"duplicate symbol name {name!r}")
            seen.add(name)
            if arity < 1:
                raise SignatureError(f"function {name!r} must have arity >= 1")

    def pred_arity(self, name):
        for n, a in self.predicates:
            if n == name:
                return a
        return None

    def func_arity(self, name):
        for n, a in self.functions:
            if n == name:
                return a
        return None


# ---------------------------------------------------------------------------
# Terms


@node
class Var(Node):
    name: str


@node
class Apply(Node):
    func: str
    args: tuple


# ---------------------------------------------------------------------------
# Formulas


class _Formula(Node):
    """Base of the formula classes: str renders the formula as text."""

    __slots__ = ()

    def __str__(self):
        return to_text(self)


@node
class Atomic(_Formula):
    pred: str
    args: tuple = ()


@node
class Const(_Formula):
    value: Fraction

    def __post_init__(self):
        v = Fraction(self.value)
        if not 0 <= v <= 1:
            raise SignatureError(f"constant {v} outside [0,1]")
        object.__setattr__(self, "value", v)


@node
class Half(_Formula):
    body: object


@node
class TruncSub(_Formula):
    left: object
    right: object


@node
class Sup(_Formula):
    var: str
    body: object


@node
class Inf(_Formula):
    var: str
    body: object


# Child fields of every term and formula class, in traversal order.
_CHILDREN = Shape({
    **dict.fromkeys((Var, Const), ()),
    **dict.fromkeys((Apply, Atomic), ("args",)),
    **dict.fromkeys((Half, Sup, Inf), ("body",)),
    TruncSub: ("left", "right"),
}, "a formula or term")
nodes = _CHILDREN.nodes
rebuild = _CHILDREN.rebuild


def free_vars(phi):
    """Free variables of a formula or term; Sup/Inf bind their variable."""
    if type(phi) is Var:
        return {phi.name}
    out = set()
    for child in _CHILDREN.children(phi):
        out |= free_vars(child)
    if type(phi) in (Sup, Inf):
        out.discard(phi.var)
    return out


# ---------------------------------------------------------------------------
# Pretty printing


def to_text(phi):
    """Render a formula or term in the DSL grammar.  A canonical formula
    reads back: parse_formula(to_text(phi)) == phi."""
    t = type(phi)
    if t is Atomic or t is Apply:
        name = phi.pred if t is Atomic else phi.func
        return f"{name}({','.join(map(to_text, phi.args))})"
    if t is Var:
        return phi.name
    if t is Const:
        return str(phi.value)
    if t is Half:
        return f"half({to_text(phi.body)})"
    if t is TruncSub:
        return f"sub({to_text(phi.left)}, {to_text(phi.right)})"
    if t is Sup:
        return f"sup {phi.var} . {to_text(phi.body)}"
    if t is Inf:
        return f"inf {phi.var} . {to_text(phi.body)}"
    raise TypeError(f"not a formula or term: {phi!r}")


# ---------------------------------------------------------------------------
# Canonical renaming of bound variables


def canonicalize(phi):
    """Rename bound variables to y0, y1, ... in traversal order.

    Names already used by free variables are skipped, so no capture is
    possible.  Two alpha-equivalent formulas canonicalize to equal ASTs.
    """
    taken = free_vars(phi)
    counter = [0]

    def fresh():
        while True:
            name = f"y{counter[0]}"
            counter[0] += 1
            if name not in taken:
                return name

    def renamer(env):
        def walk(node):
            if type(node) is Var:
                name = env.get(node.name, node.name)
                return node if name == node.name else Var(name)
            if type(node) in (Sup, Inf):
                name = fresh()
                body = renamer({**env, node.var: name})(node.body)
                if name == node.var and body is node.body:
                    return node
                return type(node)(name, body)
            return rebuild(node, walk)

        return walk

    return renamer({})(phi)


# ---------------------------------------------------------------------------
# Rewrites


def rewrite_inf(phi):
    """Eliminate Inf: inf_y psi  ==>  1 -. sup_y (1 -. psi).

    Value-preserving on every structure since all ranges lie in [0,1].
    """
    if type(phi) is Atomic:
        return phi  # terms hold no Inf
    phi = rebuild(phi, rewrite_inf)
    if type(phi) is Inf:
        return TruncSub(Const(1), Sup(phi.var, TruncSub(Const(1), phi.body)))
    return phi


def normalize_range(phi, r, t):
    """Affine range adjustment r*(phi - t), realized inside the fragment.

    r must be an inverse power of two (the fragment's only multiplier is
    halving); t must be a rational in [0,1].  When the caller guarantees
    the affine image of phi's range lies in [0,1], the result's value is
    exactly r*(value - t); otherwise it is that value clamped below at 0.
    """
    r = Fraction(r)
    t = Fraction(t)
    if r <= 0:
        raise SignatureError(f"scale {r} must be positive")
    m = 0
    acc = r
    while acc < 1:
        acc *= 2
        m += 1
    if acc != 1:
        raise SignatureError(f"scale {r} is not an inverse power of two")
    if not 0 <= t <= 1:
        raise SignatureError(f"offset {t} outside [0,1]")
    out = phi if t == 0 else TruncSub(phi, Const(t))
    for _ in range(m):
        out = Half(out)
    return out


# ---------------------------------------------------------------------------
# Parser (recursive descent over a simple token stream)

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<int>-?\d+)|(?P<punct>[(),./]))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise ParseError(f"unexpected character {rest[0]!r}",
                             len(text) - len(rest))
        kind = m.lastgroup
        value = m.group(kind)
        tokens.append((kind, value, m.start(kind)))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens, sig):
        self.tokens = tokens
        self.sig = sig
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value):
        kind, val, pos = self.next()
        if val != value:
            raise ParseError(f"expected {value!r}, found {val or 'end of input'!r}", pos)

    def parse_formula(self):
        kind, val, pos = self.peek()
        if kind == "int":
            return self.parse_rational()
        if kind != "ident":
            raise ParseError(f"expected a formula, found {val or 'end of input'!r}", pos)
        if val == "half":
            self.next()
            self.expect("(")
            body = self.parse_formula()
            self.expect(")")
            return Half(body)
        if val == "sub":
            self.next()
            self.expect("(")
            left = self.parse_formula()
            self.expect(",")
            right = self.parse_formula()
            self.expect(")")
            return TruncSub(left, right)
        if val in ("sup", "inf"):
            self.next()
            vkind, vname, vpos = self.next()
            if vkind != "ident":
                raise ParseError("expected a variable name after quantifier", vpos)
            if vname in RESERVED_WORDS:
                raise ParseError(f"{vname!r} cannot be a variable name", vpos)
            self.expect(".")
            body = self.parse_formula()
            return (Sup if val == "sup" else Inf)(vname, body)
        return self.parse_atom()

    def parse_rational(self):
        kind, val, pos = self.next()
        num = int(val)
        if self.peek()[1] == "/":
            self.next()
            dkind, dval, dpos = self.next()
            if dkind != "int":
                raise ParseError("expected a denominator", dpos)
            den = int(dval)
            if den <= 0:
                raise ParseError(f"denominator must be positive, found {den}", dpos)
            value = Fraction(num, den)
        else:
            value = Fraction(num)
        if not 0 <= value <= 1:
            raise ParseError(f"constant {value} outside [0,1]", pos)
        return Const(value)

    def parse_atom(self):
        kind, name, pos = self.next()
        arity = self.sig.pred_arity(name)
        if arity is None:
            raise ParseError(f"undeclared predicate {name!r}", pos)
        self.expect("(")
        args = []
        if self.peek()[1] != ")":
            args.append(self.parse_term())
            while self.peek()[1] == ",":
                self.next()
                args.append(self.parse_term())
        self.expect(")")
        if len(args) != arity:
            raise ParseError(
                f"predicate {name!r} expects {arity} argument(s), got {len(args)}", pos
            )
        return Atomic(name, tuple(args))

    def parse_term(self):
        kind, name, pos = self.next()
        if kind != "ident":
            raise ParseError(f"expected a term, found {name!r}", pos)
        if name in RESERVED_WORDS:
            raise ParseError(f"{name!r} cannot appear in a term", pos)
        if self.peek()[1] == "(":
            arity = self.sig.func_arity(name)
            if arity is None:
                raise ParseError(f"undeclared function {name!r}", pos)
            self.next()
            args = [self.parse_term()]
            while self.peek()[1] == ",":
                self.next()
                args.append(self.parse_term())
            self.expect(")")
            if len(args) != arity:
                raise ParseError(
                    f"function {name!r} expects {arity} argument(s), got {len(args)}", pos
                )
            return Apply(name, tuple(args))
        if self.sig.pred_arity(name) is not None or self.sig.func_arity(name) is not None:
            raise ParseError(f"symbol {name!r} used as a variable", pos)
        return Var(name)


def parse_formula(text, sig):
    """Parse DSL text into a canonical formula AST."""
    parser = _Parser(_tokenize(text), sig)
    phi = parser.parse_formula()
    kind, val, pos = parser.peek()
    if kind != "eof":
        raise ParseError(f"trailing input {val!r}", pos)
    return canonicalize(phi)
