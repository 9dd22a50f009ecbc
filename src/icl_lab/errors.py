"""Exception types shared across the package, and the input checks that raise one."""

import dataclasses
import json
import math
import numbers
from collections import Counter


class ParameterError(ValueError):
    """An argument violates an operation's preconditions."""


class DivergenceError(RuntimeError):
    """Logistic training produced a non-finite loss it could not recover from."""

    def __init__(self, iteration: int):
        self.iteration = iteration
        super().__init__(f"non-finite training loss at iteration {iteration}")


def check_real(
    name: str, value, *, above=None, at_least=None, below=None, at_most=None
) -> float | int:
    """``value`` as a Python float, or an int when it is an integer, so that a
    numpy scalar echoes into a report as the plain number would; anything but a
    finite real number in the interval the bounds give is refused, bools included.
    ``above`` and ``below`` are open ends, ``at_least`` and ``at_most`` closed ones."""
    got = None
    try:
        finite = isinstance(value, numbers.Real) and math.isfinite(value)
    except OverflowError:  # an int past the float range, too long to echo
        finite, got = False, "an int too large for a float"
    if finite and not isinstance(value, bool):
        number = int(value) if isinstance(value, numbers.Integral) else float(value)
        if (
            (above is None or number > above)
            and (at_least is None or number >= at_least)
            and (below is None or number < below)
            and (at_most is None or number <= at_most)
        ):
            return number
    low = f"({above}" if above is not None else "(-inf" if at_least is None else f"[{at_least}"
    high = f"{below})" if below is not None else "inf)" if at_most is None else f"{at_most}]"
    message = f"{name} must be a finite real number in {low}, {high}"
    raise ParameterError(f"{message}, got {got or repr(value)}")


def check_int(name: str, value, low: int, high: int | None = None) -> int:
    """``value`` as an int; anything but an integer in [``low``, ``high``] is refused, bools
    included.  No ``high`` is no ceiling; one from 2**63 - 1 up is 2**k - 1, and named so."""
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if integral and low <= value and (high is None or value <= high):
        return int(value)
    if high is not None and high >= 2**63 - 1:
        high = f"2**{high.bit_length()} - 1"
    bound = f">= {low}" if high is None else f"in [{low}, {high}]"
    raise ParameterError(f"{name} must be an integer {bound}, got {shown(value)}")


def shown(value) -> str:
    """``repr(value)``, or a stand-in for an int too long for ``str`` to print."""
    try:
        return repr(value)
    except ValueError:  # past Python's limit of 4,300 digits
        return "<an integer too long to print>"


def check_keys(value: dict, known, where: str) -> None:
    """Reject any key of the JSON object ``value`` outside ``known``, naming ``where``."""
    unknown = set(value) - set(known)
    if unknown:
        raise ParameterError(f"{where} has unknown keys {sorted(unknown)}")


def from_object(cls, value, where: str):
    """The dataclass ``cls`` built from the JSON object ``value``.

    A non-object, an unknown key or a missing required field is rejected,
    naming ``where`` in the message.
    """
    if not isinstance(value, dict):
        raise ParameterError(f"{where} must be a JSON object, got {value!r}")
    fields = dataclasses.fields(cls)
    check_keys(value, {f.name for f in fields}, where)
    missing = [
        f.name
        for f in fields
        if f.default is f.default_factory is dataclasses.MISSING and f.name not in value
    ]
    if missing:
        raise ParameterError(f"{where} is missing required keys {missing}")
    return cls(**value)


def load_json_object(path, what: str) -> dict:
    """The JSON object in the UTF-8 file at ``path``; anything else, or an object at
    any depth that repeats a key, is refused, naming ``what``."""

    def unique_keys(pairs: list) -> dict:
        payload = dict(pairs)
        if len(payload) < len(pairs):
            counts = Counter(key for key, _ in pairs)
            repeated = sorted(key for key, count in counts.items() if count > 1)
            raise ParameterError(f"{what} {path} repeats keys {repeated}")
        return payload

    with open(path, encoding="utf-8") as handle:
        try:
            payload = json.load(handle, object_pairs_hook=unique_keys)
        except ParameterError:  # a repeated key; itself a ValueError
            raise
        except UnicodeDecodeError as exc:
            raise ParameterError(f"{what} {path} is not UTF-8 text: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ParameterError(f"{what} {path} is not valid JSON: {exc}") from exc
        except (ValueError, RecursionError) as exc:  # too many digits, or nested too deep
            raise ParameterError(f"{what} {path} is past a JSON parser limit: {exc}") from exc
    if not isinstance(payload, dict):
        raise ParameterError(f"{what} {path} must contain a JSON object")
    return payload
