"""Exception hierarchy shared by all derpair modules."""

_QUOTE_LIMIT = 60       # characters of outside input an error message repeats


def _quote(value) -> str:
    """repr(value) for an error message: a longer one is cut, with its length."""
    text = repr(value)
    return text if len(text) <= _QUOTE_LIMIT else \
        f"{text[:_QUOTE_LIMIT]}... ({len(text)} characters)"


class DerpairError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(DerpairError):
    """Dimension or arity mismatch between operands."""


class SchemaError(DerpairError):
    """Malformed input: bad file contents, unknown kind, missing names."""


class EliminationError(DerpairError):
    """An exact elimination step broke one of its invariants."""


class UnsupportedRoleError(DerpairError):
    """Operator role requested on a structure kind that does not define it."""


class InvalidStructureError(DerpairError):
    """A precondition structure check failed; carries the first violation."""

    def __init__(self, message, violation=None):
        super().__init__(message)
        self.violation = violation


class DegreeBudgetError(DerpairError):
    """A cochain space exceeded the configured coordinate-size budget."""

    def __init__(self, dimension, budget):
        super().__init__(
            f"cochain space of dimension {dimension} exceeds budget {budget}"
        )
        self.dimension = dimension
        self.budget = budget
