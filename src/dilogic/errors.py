"""Exception types shared across the package, and the one refusal of an
inexact value."""

from fractions import Fraction

# The exact value types of weights, distances, predicate values, masses
# and thresholds; bool, float and every other type are rejected.
EXACT_TYPES = (int, Fraction)


def exact(value, what, error):
    """value as a Fraction: an int or a Fraction, else error."""
    if type(value) not in EXACT_TYPES:
        raise error(f"{what} {value!r} is not an int or a Fraction")
    return Fraction(value)


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
