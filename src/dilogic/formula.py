"""Signature and formula AST for a single-sorted continuous metric language.

The connective fragment is fixed: atomic predicates, rational constants in
[0,1], halving, truncated subtraction, and the quantifiers sup/inf.  All
values are exact rationals.  Bound variables are renamed canonically
(y0, y1, ...) so that structurally equal formulas compare equal.  Terms
and formulas are tree.node classes: frozen, slotted, hash cached.

Formula text nested deeper than MAX_NESTING = 50 is a ParseError: the
tokenizer counts open parentheses plus binders whose body is still open,
before the parser recurses.  transform compiles a formula of nesting n to
a G of depth at most 5n + 4 nodes, 254 at the bound, whatever k: a leaf
is Scale, Add, Measure and a variable; half, sup and the left branch of
sub add one level each, the right branch of sub two (its TruncSub, and
one complement over each variable below), and inf, compiled as
1 -. sup (1 -. .), five.  So the parser and every formula and G walker
recurse a bounded number of times, well below the interpreter's default
recursion limit of 1000.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError, SignatureError, exact
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
        object.__setattr__(self, "predicates", tuple((n, a) for n, a in self.predicates))
        object.__setattr__(self, "functions", tuple((n, a) for n, a in self.functions))
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


class Formula(Node):
    """Base of the formula classes: str renders the formula as text."""

    __slots__ = ()

    def __str__(self):
        return to_text(self)


@node
class Atomic(Formula):
    pred: str
    args: tuple = ()


@node
class Const(Formula):
    value: Fraction

    def __post_init__(self):
        v = self.value
        if type(v) is not Fraction:
            object.__setattr__(self, "value", v := exact(v, "constant", SignatureError))
        if not 0 <= v.numerator <= v.denominator:
            raise SignatureError(f"constant {v} outside [0,1]")


@node
class Half(Formula):
    body: object


@node
class TruncSub(Formula):
    left: object
    right: object


@node
class Sup(Formula):
    var: str
    body: object


@node
class Inf(Formula):
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
    return texts((phi,))[0]


def texts(formulas):
    """[to_text(phi) for phi in formulas], rendering each connective node
    once by identity: formulas of one F, or tags of one G, share them."""
    memo = {}

    def text(phi):
        t = type(phi)
        if t is Atomic or t is Apply:
            name = phi.pred if t is Atomic else phi.func
            return f"{name}({','.join(map(text, phi.args))})"
        if t is Var:
            return phi.name
        if t is Const:
            return str(phi.value)
        out = memo.get(id(phi))
        if out is None:
            if t is Half:
                out = f"half({text(phi.body)})"
            elif t is TruncSub:
                out = f"sub({text(phi.left)}, {text(phi.right)})"
            elif t is Sup or t is Inf:
                out = f"{'sup' if t is Sup else 'inf'} {phi.var} . {text(phi.body)}"
            else:
                raise TypeError(f"not a formula or term: {phi!r}")
            memo[id(phi)] = out
        return out

    # The list keeps every node alive, so no id is reused meanwhile.
    return [text(phi) for phi in list(formulas)]


# ---------------------------------------------------------------------------
# Canonical renaming of bound variables


def rename(phi, env, names):
    """phi with each free variable v in env renamed env[v], and each binder
    renamed the next of the iterator names, in pre-order.  A node whose
    names do not change is returned as is."""
    t = type(phi)
    if t is Var:
        name = env.get(phi.name, phi.name)
        return phi if name == phi.name else Var(name)
    if t is Sup or t is Inf:
        name = next(names)
        body = rename(phi.body, {**env, phi.var: name}, names)
        return phi if name == phi.var and body is phi.body else t(name, body)
    return rebuild(phi, lambda child: rename(child, env, names))


def canonicalize(phi):
    """Rename bound variables to y0, y1, ... in traversal order.

    Names already used by free variables are skipped, so no capture is
    possible.  Two alpha-equivalent formulas canonicalize to equal ASTs.
    """
    return rename(phi, {}, binder_names(free_vars(phi)))


def binder_names(taken):
    """The canonical binder names y0, y1, ..., skipping those in taken."""
    return (f"y{i}" for i in itertools.count() if f"y{i}" not in taken)


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
    r = exact(r, "scale", SignatureError)
    t = exact(t, "offset", SignatureError)
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

# The deepest nesting formula text may have (see the module docstring).
MAX_NESTING = 50


def _tokenize(text):
    """The token list of text, refused past MAX_NESTING before any parse.

    A binder's body runs to the comma or closing parenthesis of the group
    it sits in, or to the end of the text, so each open group counts the
    binders opened in it, and its end closes them."""
    tokens = []
    pos = 0
    depth = 0
    binders = [0]  # per open group, the outermost first
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
        if value == "(":
            binders.append(0)
            depth += 1
        elif value == "sup" or value == "inf":
            binders[-1] += 1
            depth += 1
        elif value == "," or value == ")":
            depth -= binders[-1]
            binders[-1] = 0
            if value == ")" and len(binders) > 1:
                binders.pop()
                depth -= 1
        if depth > MAX_NESTING:
            raise ParseError(f"formula nested deeper than {MAX_NESTING}",
                             m.start(kind))
        tokens.append((kind, value, m.start(kind)))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


def _integer(text, pos):
    """int(text); a ParseError past the interpreter's digit limit for
    text-to-integer conversion."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"integer of {len(text.lstrip('-'))} digits is past the "
                         "interpreter's limit", pos) from None


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
        num = _integer(val, pos)
        if self.peek()[1] == "/":
            self.next()
            dkind, dval, dpos = self.next()
            if dkind != "int":
                raise ParseError("expected a denominator", dpos)
            den = _integer(dval, dpos)
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
