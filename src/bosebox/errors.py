"""Error taxonomy shared by every module.

All numerical failure modes raise a subclass of :class:`NumericsError` so the
command line layer can map them to a single exit code.
"""


class NumericsError(Exception):
    """Base class for every numerical failure raised by this package."""


class DomainError(NumericsError, ValueError):
    """An argument lies outside the mathematical domain of the requested quantity."""


class CutoffTooLarge(NumericsError):
    """A cutoff or table out of reach: more modes below e_max than the mode
    budget, no cutoff meeting its tail tolerance, power sums past double
    range, an axis of over 2^22 levels, or an excited level rounding onto
    the ground."""


class CutoffInsufficient(NumericsError):
    """A truncation is too small to meet the requested accuracy target."""


class NoConvergence(NumericsError):
    """An iterative solver failed to reach its tolerance within its budget."""


class PoleProximity(NumericsError):
    """An evaluation point is too close to a pole of a series representation."""


class ConfigError(ValueError):
    """A run configuration violates a documented invariant."""
