"""Domain errors raised by the library.

All of them derive from ResavgError so callers (notably the CLI) can
distinguish domain failures from genuine bugs with one except clause.
"""


class ResavgError(Exception):
    """Base class for every domain error in this package."""


class InconsistentTower(ResavgError):
    """Index sequences cannot come from a subgroup lattice."""


class InsufficientData(ResavgError):
    """Fewer defined growth ratios than the requested window."""


class ZeroInput(ResavgError):
    """Divisibility functions are undefined at zero."""


class InvalidPrimePower(ResavgError):
    """Group-order formulas over finite fields need a prime-power size."""


class CoprimalityViolation(ResavgError):
    """Multiplicative-order tables need the base coprime to each prime."""


class TableExhausted(ResavgError):
    """An exponent table is too shallow to realize the next selection window."""


class IdentityInput(ResavgError):
    """The divisibility function is infinite at the identity element."""


class BoundExceeded(ResavgError):
    """No prime within the search bound separates the element."""


class LevelTooDeep(ResavgError):
    """Tree level past the configured bound of the level-quotient computation."""


class InsufficientLevels(ResavgError):
    """Not enough level orders to form the requested series terms."""


class SchemaError(ResavgError):
    """A tower or table file does not match the documented schema."""
