"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "ComputationError", "ConfigurationError", "ConncalcError", "IntegrityError", "StateError",
    "ValidationError",
]


class ConncalcError(Exception):
    """Base class for all conncalc errors."""


class ValidationError(ConncalcError):
    """A value or scenario breaks a structural invariant.

    When raised for a whole scenario, ``violations`` holds the individual
    breaches (see :func:`conncalc.model.validate_scenario`).
    """

    def __init__(self, message: str, violations: list | None = None):
        super().__init__(message)
        self.violations = list(violations or [])


class IntegrityError(ConncalcError):
    """A reference points at something that does not exist, or an id collides."""


class StateError(ConncalcError):
    """An operation was applied to a value in the wrong state."""


class ConfigurationError(ConncalcError):
    """A scenario lacks configuration an operation requires."""


class ComputationError(ConncalcError):
    """A metric cannot be computed, e.g. a zero denominator."""
