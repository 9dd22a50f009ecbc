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
    legal values so callers only set what their calculator reads.
    """

    epsilon: float
    delta: float
    vocab_size: int = 2
    num_contexts: int = 1
    input_dim: int = 1
    output_len: int = 1
    constant: float = 1.0

    def __post_init__(self):
        for name in ("epsilon", "delta", "constant"):
            check_real(name, getattr(self, name))
        if not 0.0 < self.epsilon <= 2.0:
            raise ParameterError(f"epsilon must be in (0, 2], got {self.epsilon}")
        if not 0.0 < self.delta < 1.0:
            raise ParameterError(f"delta must be in (0, 1), got {self.delta}")
        for name in ("vocab_size", "num_contexts", "input_dim", "output_len"):
            object.__setattr__(self, name, check_int(name, getattr(self, name), 1))
        if self.constant <= 0:
            raise ParameterError(f"constant must be positive, got {self.constant}")


@dataclass(frozen=True)
class BoundResult:
    """A resolved sample size plus the formula it came from."""

    per_context: int
    total: int
    mode: str
    formula_text: str


def _checked_log(argument: float, description: str) -> float:
    if argument <= 1.0:
        raise ParameterError(
            f"log argument {description} = {argument!r} must exceed 1; "
            "the requested (epsilon, delta) regime admits no positive sample size"
        )
    return math.log(argument)


def textgen_samples_per_context(params: BoundParams, mode: str = MODE_BIG_O) -> BoundResult:
    """Per-context sample count for matching every next-token distribution in L1.

    Returns both the per-context count and the total over all contexts
    (``total = num_contexts * per_context``).
    """
    V, m = params.vocab_size, params.num_contexts
    eps, delta, c = params.epsilon, params.delta, params.constant
    if mode == MODE_BIG_O:
        log_term = _checked_log(m / delta, "m/delta")
        per_context = math.ceil(c * (V / eps**2) * log_term)
    elif mode == MODE_EXACT:
        log_term = _checked_log(2 * V * m / delta, "2*V*m/delta")
        per_context = math.ceil((V**2 / (2 * eps**2)) * log_term)
    else:
        raise ParameterError(f"unknown bound mode {mode!r}; expected one of {MODES}")
    formula = FORMULAS[mode].format(**vars(params))
    return BoundResult(
        per_context=per_context, total=m * per_context, mode=mode, formula_text=formula
    )


def coreset_size(params: BoundParams) -> int:
    """Subset size for training a near-equivalent linear classifier: c * d / eps."""
    return math.ceil(params.constant * params.input_dim / params.epsilon)


def knn_context_size(params: BoundParams) -> int:
    """Per-query neighborhood size for local classification: c * ln(1/delta) / eps^2."""
    log_term = _checked_log(1.0 / params.delta, "1/delta")
    return math.ceil(params.constant * (1.0 / params.epsilon**2) * log_term)


def bounded_textgen_size(params: BoundParams) -> int:
    """Per-context sample count for length-l sequence distributions.

    Treats length-l generation as classification over ``vocab_size ** l``
    outcomes: c * (l * ln V / eps^2) * ln(1/delta).
    """
    if params.vocab_size < 2:
        raise ParameterError(f"vocab_size must be >= 2, got {params.vocab_size}")
    log_term = _checked_log(1.0 / params.delta, "1/delta")
    size = (
        params.constant
        * (params.output_len * math.log(params.vocab_size) / params.epsilon**2)
        * log_term
    )
    return math.ceil(size)


def subset_penalty(subset_size: int, constant: float = 1.0) -> float:
    """Extra estimation error from seeing only a subset: constant / sqrt(size)."""
    if subset_size < 1:
        raise ParameterError(f"subset size must be >= 1, got {subset_size}")
    check_real("constant", constant)
    if constant <= 0:
        raise ParameterError(f"constant must be positive, got {constant}")
    return constant / math.sqrt(subset_size)
