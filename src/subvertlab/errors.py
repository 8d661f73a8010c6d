"""Exception hierarchy.

ParameterError covers configuration mistakes (CLI exit code 2);
InvariantViolation covers consistency failures detected mid-run (exit code 3).
"""

__all__ = [
    "SubvertLabError",
    "ParameterError",
    "LengthMismatchError",
    "InvalidHistoryError",
    "WrongDocumentCountError",
    "ScheduleError",
    "InvariantViolation",
    "UniversalityViolation",
    "SchemaMismatchError",
]


class SubvertLabError(Exception):
    """Base class for all package errors."""


class ParameterError(SubvertLabError, ValueError):
    """Invalid parameter or configuration value."""


class LengthMismatchError(ParameterError):
    """Two components disagree about a bit length."""


class InvalidHistoryError(SubvertLabError):
    """A history rejected by a channel grammar."""


class WrongDocumentCountError(SubvertLabError):
    """Decoder handed a document sequence of the wrong length."""


class ScheduleError(ParameterError):
    """Reboot schedule segment lengths do not sum to the output length."""


class InvariantViolation(SubvertLabError):
    """A runtime consistency check failed."""


class UniversalityViolation(InvariantViolation):
    """Universal attack touched a host field outside its allowed interface."""


class SchemaMismatchError(SubvertLabError):
    """Report file carries an unexpected schema version."""
