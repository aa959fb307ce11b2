"""AST nodes, and their traversal over a table of child fields.

Every formula and mba node class is declared with @node on Node.  An AST
module states its shape once, as a table from node class to the names of
its child fields in traversal order.  A child field holds one node or a
tuple of nodes; every other field is data.
"""

from __future__ import annotations

import dataclasses
import operator


class Node:
    """Base of every AST node class: one slot caching the dataclass field
    hash, so a deep AST is hashed once, not on every dict or set lookup."""

    __slots__ = ("_hash",)


def node(cls):
    """A frozen, slotted dataclass whose field hash is cached in _hash."""
    cls = dataclasses.dataclass(frozen=True, slots=True)(cls)
    field_hash = cls.__hash__

    def __hash__(self):
        h = getattr(self, "_hash", None)
        if h is None:
            h = field_hash(self)
            object.__setattr__(self, "_hash", h)
        return h

    cls.__hash__ = __hash__
    return cls


class Shape(dict):
    """The child-field table of one AST, with its traversals."""

    def __init__(self, table, what):
        super().__init__(table)
        self.what = what

    def __missing__(self, cls):
        raise TypeError(f"not {self.what}: {cls.__name__}")

    def children(self, node):
        out = []
        for name in self[type(node)]:
            value = getattr(node, name)
            if type(value) is tuple:
                out += value
            else:
                out.append(value)
        return out

    def nodes(self, node):
        """Pre-order iterator over node and every node below it."""
        stack = [node]
        while stack:
            node = stack.pop()
            yield node
            stack += reversed(self.children(node))

    def rebuild(self, node, fn):
        """node with each child c replaced by fn(c); node itself when fn
        returns every child unchanged."""
        changes = {}
        for name in self[type(node)]:
            value = getattr(node, name)
            if type(value) is tuple:
                new = tuple(map(fn, value))
                if any(map(operator.is_not, new, value)):
                    changes[name] = new
            elif (new := fn(value)) is not value:
                changes[name] = new
        return dataclasses.replace(node, **changes) if changes else node
