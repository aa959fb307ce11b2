"""Signature and formula AST for a single-sorted continuous metric language.

The connective fragment is fixed: atomic predicates, rational constants in
[0,1], halving, truncated subtraction, and the quantifiers sup/inf.  All
values are exact rationals.  Bound variables are renamed canonically
(y0, y1, ...) so that structurally equal formulas compare equal.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError, SignatureError
from .tree import Shape

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
# The node base shared by terms and formulas


class _Node:
    """Base of the term and formula classes: one slot that caches the
    dataclass-generated hash, so a deep AST is hashed once, not on every
    dict or set lookup."""

    __slots__ = ("_hash",)


def _node(cls):
    """A frozen, slotted dataclass whose field hash is cached in _hash."""
    cls = dataclass(frozen=True, slots=True)(cls)
    field_hash = cls.__hash__

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = field_hash(self)
            object.__setattr__(self, "_hash", h)
            return h

    cls.__hash__ = __hash__
    return cls


# ---------------------------------------------------------------------------
# Terms


@_node
class Var(_Node):
    name: str


@_node
class Apply(_Node):
    func: str
    args: tuple


# ---------------------------------------------------------------------------
# Formulas


@_node
class Atomic(_Node):
    pred: str
    args: tuple = ()

    def __str__(self):
        return to_text(self)


@_node
class Const(_Node):
    value: Fraction

    def __post_init__(self):
        v = Fraction(self.value)
        if not 0 <= v <= 1:
            raise SignatureError(f"constant {v} outside [0,1]")
        object.__setattr__(self, "value", v)

    def __str__(self):
        return to_text(self)


@_node
class Half(_Node):
    body: object

    def __str__(self):
        return to_text(self)


@_node
class TruncSub(_Node):
    left: object
    right: object

    def __str__(self):
        return to_text(self)


@_node
class Sup(_Node):
    var: str
    body: object

    def __str__(self):
        return to_text(self)


@_node
class Inf(_Node):
    var: str
    body: object

    def __str__(self):
        return to_text(self)


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


def contains_inf(phi):
    return any(type(node) is Inf for node in nodes(phi))


# ---------------------------------------------------------------------------
# Pretty printing


def _term_text(term):
    if isinstance(term, Var):
        return term.name
    return f"{term.func}({','.join(_term_text(a) for a in term.args)})"


def to_text(phi):
    """Render a formula in the DSL grammar; parse(to_text(phi)) == phi."""
    if isinstance(phi, Atomic):
        return f"{phi.pred}({','.join(_term_text(t) for t in phi.args)})"
    if isinstance(phi, Const):
        return str(phi.value)
    if isinstance(phi, Half):
        return f"half({to_text(phi.body)})"
    if isinstance(phi, TruncSub):
        return f"sub({to_text(phi.left)}, {to_text(phi.right)})"
    if isinstance(phi, Sup):
        return f"sup {phi.var} . {to_text(phi.body)}"
    if isinstance(phi, Inf):
        return f"inf {phi.var} . {to_text(phi.body)}"
    raise TypeError(f"not a formula: {phi!r}")


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
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", pos)
        if m.lastgroup is None and not m.group().strip():
            pos = m.end()
            continue
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
