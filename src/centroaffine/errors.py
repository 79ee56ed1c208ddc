"""Exception types raised by the geometric containers and operations."""


class InvariantViolation(ValueError):
    """A container or file was handed data that breaks a structural invariant."""


class NotStarShaped(InvariantViolation):
    """Vertex arguments fail to increase strictly through a half turn."""


class ClosureViolation(ValueError):
    """A cross-product sequence does not close up into a polygon."""


class DegenerateRays(ValueError):
    """Two rays (nearly) coincide, so no finite normalization exists."""


class AlphaOutOfRange(ValueError):
    """A shift parameter left the open interval (0, pi)."""


class NotADiffeo(ValueError):
    """The angle map fails the minimum-slope requirement."""


class InteriorPoint(ValueError):
    """The outer billiard map needs a point strictly outside the table."""


class UndefinedOnSingularSet(ValueError):
    """The outer billiard map is ambiguous on the singular set."""


class NotUnitSpeed(ValueError):
    """Chord averages require an arclength parameterization."""


class ParseError(ValueError):
    """An input file could not be decoded into the expected shape."""


class ConfigError(ValueError):
    """A command-line configuration violates a precondition."""
