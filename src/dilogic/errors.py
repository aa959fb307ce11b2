"""Exception types shared across the package, the one refusal of an
inexact value, and the one refusal of a count over its budget."""

import sys
from fractions import Fraction

# The exact value types of weights, distances, predicate values, masses
# and thresholds; bool, float and every other type are rejected.
EXACT_TYPES = (int, Fraction)


def exact(value, what, error):
    """value as a Fraction: an int or a Fraction, else error."""
    if type(value) not in EXACT_TYPES:
        raise error(f"{what} {value!r} is not an int or a Fraction")
    return Fraction(value)


# Enumerate mode refuses a SupChain whose chain tuples, counted in closed
# form before profile constraints, exceed this; the 204-instance suite
# needs at most 13,068.
# The same budget caps the product of the atoms' depth-vector counts and
# each atom's depth-vector search, the chain-set walk of
# dist_to_chain_set, structure's permutation and assignment searches, the
# definability pair comparison and the entries of a structure's table.
ENUMERATE_TUPLE_BUDGET = 10**6


def refuse_over(count, what, bound=ENUMERATE_TUPLE_BUDGET, kind="budget", detail=""):
    """A BudgetError "{what} {count} exceeds {kind} {bound}{detail}" when
    count > bound.  A count past the interpreter's integer-to-text limit
    is written by that limit's digit count instead."""
    if count > bound:
        try:
            count = str(count)
        except ValueError:  # caught, not read first: CPython before 3.10.7 has no limit
            count = f"of more than {sys.get_int_max_str_digits()} digits"
        raise BudgetError(f"{what} {count} exceeds {kind} {bound}{detail}")


class DilogicError(Exception):
    """Base class for all package errors."""


class ParseError(DilogicError):
    """Formula text does not conform to the DSL grammar."""

    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class SignatureError(DilogicError):
    """Ill-formed signature, or a formula that does not match one."""


class ValidationError(DilogicError):
    """A structure, field, or algebra violates its invariants."""


class EvaluationError(DilogicError):
    """Evaluation cannot proceed (unbound variable, bad assignment)."""


class ChainError(DilogicError):
    """A chain of upper-bound sets is not decreasing, or lengths mismatch."""


class BudgetError(DilogicError):
    """A configured combinatorial budget was exceeded; never truncate silently."""


class InputError(DilogicError):
    """Malformed input document or out-of-range argument."""
