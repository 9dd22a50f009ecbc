"""Exception types shared across the package, and the input checks that raise one."""

import dataclasses
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


def check_int(name: str, value, low: int) -> int:
    """``value`` as an int; anything but an integer >= ``low`` is rejected, bools included."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ParameterError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def from_object(cls, value, where: str):
    """The dataclass ``cls`` built from the JSON object ``value``.

    A non-object, an unknown key or a missing required field is rejected,
    naming ``where`` in the message.
    """
    if not isinstance(value, dict):
        raise ParameterError(f"{where} must be a JSON object, got {value!r}")
    fields = dataclasses.fields(cls)
    unknown = set(value) - {f.name for f in fields}
    if unknown:
        raise ParameterError(f"{where} has unknown keys {sorted(unknown)}")
    missing = [
        f.name
        for f in fields
        if f.default is f.default_factory is dataclasses.MISSING and f.name not in value
    ]
    if missing:
        raise ParameterError(f"{where} is missing required keys {missing}")
    return cls(**value)
