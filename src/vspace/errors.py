"""Exception types shared across the package, and the search budget's default."""

# Hard cap on enumerated covers (brute) or visited search nodes (pruned).
DEFAULT_MAX_COVERS = 2**24


class VSpaceError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(VSpaceError):
    """An input violates a structural precondition (invalid space, cover,
    labeling, oracle, or endpoint)."""


class ParseError(VSpaceError):
    """A file does not conform to its line-oriented format."""


class BudgetExceededError(VSpaceError):
    """A search would exceed the configured cover/node budget.

    Raised instead of silently truncating: a wrong verdict is worse than
    no verdict.
    """


class CodingConfigError(VSpaceError):
    """A coded-space configuration is rejected (endpoint enumerated,
    endpoint collides with a claimed pair code, or the point/stage bounds
    are too small to carry the coding structure)."""
