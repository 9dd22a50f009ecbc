"""Closed-form sample-size calculators.

Each calculator evaluates its rule in double precision and applies ``ceil``
last.  All logarithms are natural.  The next-token rule comes in two modes:

* ``big_o`` — the order-of-growth form ``constant * (V / eps^2) * ln(m / delta)``
  with a configurable leading constant;
* ``exact`` — the fully explicit per-token union-bound chain
  ``(V^2 / (2 eps^2)) * ln(2 V m / delta)``, whose constants are fixed by the
  derivation (the leading ``constant`` is ignored).

The two modes disagree by a factor of roughly V; both are exposed on purpose
so experiments can compare them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import ParameterError, check_int, check_real

MODE_BIG_O = "big_o"
MODE_EXACT = "exact"
MODES = (MODE_BIG_O, MODE_EXACT)

# The formula text of each rule (of textgen, one per mode), formatted with the
# BoundParams fields; the subset penalty's with ``constant`` and ``size``.
FORMULAS = {
    MODE_BIG_O: "n = ceil({constant:g} * (V/eps^2) * ln(m/delta)); "
    "V={vocab_size}, m={num_contexts}, eps={epsilon:g}, delta={delta:g} (natural log)",
    MODE_EXACT: "n = ceil((V^2/(2*eps^2)) * ln(2*V*m/delta)); "
    "V={vocab_size}, m={num_contexts}, eps={epsilon:g}, delta={delta:g} "
    "(natural log; constants fixed by the union-bound derivation)",
    "bounded_textgen": "k = ceil({constant:g} * (l*ln(V)/eps^2) * ln(1/delta)); "
    "V={vocab_size}, l={output_len} (natural log)",
    "coreset": "size = ceil({constant:g} * d/eps); d={input_dim}",
    "knn": "k = ceil({constant:g} * (1/eps^2) * ln(1/delta)) (natural log)",
    "subset_penalty": "penalty = {constant:g} / sqrt(size); size={size}",
}


@dataclass(frozen=True)
class BoundParams:
    """Inputs shared by the calculators.

    ``epsilon`` is the error tolerance in (0, 2] (L1 scale), ``delta`` the
    failure probability in (0, 1).  Integer fields default to their smallest
    legal values (V >= 2; m, d, l >= 1) so callers set only what a calculator reads.
    """

    epsilon: float
    delta: float
    vocab_size: int = 2
    num_contexts: int = 1
    input_dim: int = 1
    output_len: int = 1
    constant: float = 1.0

    def __post_init__(self):
        ceilings = {"epsilon": dict(at_most=2), "delta": dict(below=1), "constant": {}}
        for name, high in ceilings.items():
            object.__setattr__(self, name, check_real(name, getattr(self, name), above=0, **high))
        for name in ("vocab_size", "num_contexts", "input_dim", "output_len"):
            low = getattr(BoundParams, name)  # the default is the smallest legal value
            object.__setattr__(self, name, check_int(name, getattr(self, name), low))


@dataclass(frozen=True)
class BoundResult:
    """A resolved sample size plus the formula it came from."""

    per_context: int
    total: int
    mode: str
    formula_text: str


def _finite_size(*names):
    """A calculator reading the ``names`` of its params, refusing a size that is not
    a finite number: at a tiny epsilon (or delta) ``eps**2`` underflows to 0, or the
    size overflows before ``ceil``, as it does at a huge constant or integer field.
    The error names only those params, and gives the values of the real ones."""
    reals = [name for name in names if name in ("epsilon", "delta", "constant")]
    small = " or ".join(name for name in names if name in ("epsilon", "delta"))
    large = " or ".join(name for name in names if name not in ("epsilon", "delta"))
    reason = f"{small} is too small" + (f" or {large} too large" if large else "")

    def wrap(calculator):
        @functools.wraps(calculator)
        def checked(params: BoundParams):
            try:
                return calculator(params)
            except (ZeroDivisionError, OverflowError):
                at = ", ".join(f"{name} = {getattr(params, name)!r}" for name in reals)
                message = f"the sample size at {at} is not a finite number"
                raise ParameterError(f"{message}; {reason}") from None

        return checked

    return wrap


@_finite_size("epsilon", "delta", "constant", "vocab_size", "num_contexts")
def _big_o_samples(params: BoundParams) -> int:
    V, m = params.vocab_size, params.num_contexts
    return math.ceil(params.constant * (V / params.epsilon**2) * math.log(m / params.delta))


@_finite_size("epsilon", "delta", "vocab_size", "num_contexts")
def _exact_samples(params: BoundParams) -> int:
    V, m = params.vocab_size, params.num_contexts
    return math.ceil((V**2 / (2 * params.epsilon**2)) * math.log(2 * V * m / params.delta))


def textgen_samples_per_context(params: BoundParams, mode: str = MODE_BIG_O) -> BoundResult:
    """Per-context sample count for matching every next-token distribution in L1.

    Returns both the per-context count and the total over all contexts
    (``total = num_contexts * per_context``).
    """
    if mode not in MODES:
        raise ParameterError(f"unknown bound mode {mode!r}; expected one of {MODES}")
    per_context = (_big_o_samples if mode == MODE_BIG_O else _exact_samples)(params)
    total = params.num_contexts * per_context
    return BoundResult(per_context, total, mode, FORMULAS[mode].format(**vars(params)))


@_finite_size("epsilon", "constant", "input_dim")
def coreset_size(params: BoundParams) -> int:
    """Subset size for training a near-equivalent linear classifier: c * d / eps."""
    return math.ceil(params.constant * params.input_dim / params.epsilon)


@_finite_size("epsilon", "delta", "constant")
def knn_context_size(params: BoundParams) -> int:
    """Per-query neighborhood size for local classification: c * ln(1/delta) / eps^2."""
    log_term = math.log(1.0 / params.delta)
    return math.ceil(params.constant * (1.0 / params.epsilon**2) * log_term)


@_finite_size("epsilon", "delta", "constant", "output_len")
def bounded_textgen_size(params: BoundParams) -> int:
    """Per-context sample count for length-l sequence distributions.

    Treats length-l generation as classification over ``vocab_size ** l``
    outcomes: c * (l * ln V / eps^2) * ln(1/delta).
    """
    log_term = math.log(1.0 / params.delta)
    scale = params.output_len * math.log(params.vocab_size) / params.epsilon**2
    return math.ceil(params.constant * scale * log_term)


def subset_penalty(subset_size: int, constant: float = 1.0) -> float:
    """Extra estimation error from seeing only a subset: constant / sqrt(size)."""
    check_int("subset size", subset_size, 1)
    constant = check_real("constant", constant, above=0)
    try:
        return constant / math.sqrt(subset_size)
    except OverflowError:  # an int past the float range, too long to echo
        raise ParameterError("subset size must fit in a float, got a larger integer") from None
