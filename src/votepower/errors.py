"""Exception types shared across the library, and the one check of a count."""


class VotingError(Exception):
    """Base class for library-specific errors."""


class InputError(VotingError, ValueError):
    """Invalid user input: bad parameters, ranges, or references."""


class GameValidationError(InputError):
    """A game description violates the schema or its invariants."""


class DegenerateGameError(VotingError):
    """Every player has zero influence, so powers cannot be normalized."""


class CapacityError(VotingError):
    """The request exceeds a hard enumeration limit."""


def as_count(value, what: str, error: type[Exception] = InputError, least: int = 1) -> int:
    """Return ``value`` if it is an integer of at least ``least`` (1 or 0),
    else raise ``error``.  A bool is refused: it is an int to Python, but
    never a count."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        kind = "positive" if least else "non-negative"
        raise error(f"{what} must be a {kind} integer, got {value!r}")
    return value
