"""Exception types shared across the package, and the real-number check that raises one."""

import math
import numbers


class ParameterError(ValueError):
    """An argument violates an operation's preconditions."""


class DivergenceError(RuntimeError):
    """Logistic training produced a non-finite loss it could not recover from."""

    def __init__(self, iteration: int, message: str | None = None):
        self.iteration = iteration
        super().__init__(message or f"non-finite training loss at iteration {iteration}")


def check_real(name: str, value) -> None:
    """Reject ``value`` unless it is a finite real number; bools are rejected too."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ParameterError(f"{name} must be a finite real number, got {value!r}")
