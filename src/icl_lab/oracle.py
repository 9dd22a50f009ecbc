"""Idealized in-context responder.

Given prompt samples, the responder returns exactly the behavior the
verification experiments assume: the empirical distribution of the samples,
computed from their per-outcome counts (a sufficient statistic), for single
tokens or whole sequences.  An injectable error knob degrades the output by
mixing toward uniform, which lets experiments chart how guarantees decay as
responder fidelity drops; :func:`mix_probability` applies the same knob to a
classifier's class-1 probability.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .distributions import CategoricalDistribution, Context, Vocabulary, token_counts
from .errors import ParameterError, check_int, check_real

ETA_NONE = "none"
ETA_UNIFORM_MIX = "uniform_mix"

# Dense sequence distributions refuse to materialize beyond this many outcomes.
DEFAULT_SEQUENCE_LIMIT = 10**6


@dataclass(frozen=True)
class EtaModel:
    """Responder error knob: mix weight ``eta`` toward the uniform distribution."""

    eta: float = 0.0
    kind: str = ETA_NONE

    def __post_init__(self):
        object.__setattr__(self, "eta", check_real("eta", self.eta))
        if self.kind not in (ETA_NONE, ETA_UNIFORM_MIX):
            raise ParameterError(f"unknown eta kind {self.kind!r}")
        if self.kind == ETA_NONE and self.eta != 0.0:
            raise ParameterError("eta must be 0 when kind is 'none'")
        if not 0.0 <= self.eta < 1.0:
            raise ParameterError(f"eta must be in [0, 1), got {self.eta}")

    @classmethod
    def none(cls) -> "EtaModel":
        return cls()

    @classmethod
    def uniform_mix(cls, eta: float) -> "EtaModel":
        return cls(eta=eta, kind=ETA_UNIFORM_MIX)


@dataclass(frozen=True)
class IclPromptSamples:
    """Prompt contents: one sample list per context."""

    per_context: Mapping[int, object] = field(default_factory=dict)

    def samples_for(self, context_id: int):
        if context_id not in self.per_context:
            raise ParameterError(f"prompt has no samples for context {context_id}")
        return self.per_context[context_id]


def mix_with_uniform(
    dist: CategoricalDistribution, eta_model: EtaModel
) -> CategoricalDistribution:
    """(1 - eta) * dist + eta * uniform; identity when the knob is off."""
    if eta_model.kind == ETA_NONE:
        return dist
    eta = eta_model.eta
    return CategoricalDistribution((1.0 - eta) * dist.probs + eta / dist.size)


def mix_probability(p, eta_model: EtaModel):
    """Scalar/array counterpart of :func:`mix_with_uniform`: mixes toward 1/2."""
    if eta_model.kind == ETA_NONE:
        return p
    return (1.0 - eta_model.eta) * p + eta_model.eta * 0.5


def icl_counts_dist(counts, eta: EtaModel = EtaModel.none()) -> CategoricalDistribution:
    """Output distribution the responder produces from per-outcome prompt counts.

    With the error knob off this is exactly the empirical distribution
    ``counts / counts.sum()``.
    """
    counts = np.asarray(counts)
    total = counts.sum()
    if total < 1:
        raise ParameterError("cannot estimate a distribution from zero samples")
    return mix_with_uniform(CategoricalDistribution(counts / total), eta)


def icl_textgen_dist(
    prompt: IclPromptSamples,
    context: Context,
    vocab: Vocabulary,
    eta: EtaModel = EtaModel.none(),
) -> CategoricalDistribution:
    """Next-token distribution the responder produces for ``context``."""
    return icl_counts_dist(token_counts(prompt.samples_for(context.id), vocab.size), eta)


def encode_sequences(sequences, vocab_size: int, length: int) -> np.ndarray:
    """Map length-``length`` token tuples to integer codes in [0, vocab_size**length)."""
    arr = np.asarray(sequences, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != length:
        raise ParameterError(f"samples must be sequences of exactly {length} token indices")
    if arr.size and (arr.min() < 0 or arr.max() >= vocab_size):
        raise IndexError(f"token index out of range [0, {vocab_size})")
    weights = vocab_size ** np.arange(length - 1, -1, -1, dtype=np.int64)
    return arr @ weights


def sequence_space(vocab_size: int, length: int, limit: int) -> int:
    """The number ``vocab_size ** length`` of length-``length`` sequences, refused past
    ``limit``.  With V >= 2 any ``length >= limit.bit_length()`` has V^l >= 2^l > limit,
    so it is refused before V^l is computed."""
    if vocab_size < 2 or length < limit.bit_length():
        space = vocab_size**length
        if space <= limit:
            return space
    raise ParameterError(
        f"sequence space V^l = {vocab_size}^{length} exceeds the limit {limit}; "
        "use a smaller vocabulary or shorter length"
    )


def icl_sequence_dist(
    prompt: IclPromptSamples,
    context: Context,
    vocab: Vocabulary,
    length: int,
    eta: EtaModel = EtaModel.none(),
    sequence_limit: int = DEFAULT_SEQUENCE_LIMIT,
) -> CategoricalDistribution:
    """Joint distribution over all length-``length`` sequences, stored densely.

    The support has ``vocab.size ** length`` outcomes; anything past
    ``sequence_limit`` is refused rather than approximated, so reduce the
    vocabulary size or the sequence length to stay exact.
    """
    check_int("sequence length", length, 1)
    check_int("sequence_limit", sequence_limit, 1)
    space = sequence_space(vocab.size, length, sequence_limit)
    codes = encode_sequences(prompt.samples_for(context.id), vocab.size, length)
    return icl_counts_dist(np.bincount(codes, minlength=space), eta)
