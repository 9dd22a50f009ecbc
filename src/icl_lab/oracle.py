"""Idealized in-context responder.

Given prompt samples, the responder returns exactly the behavior the
verification experiments assume: the empirical distribution of the samples,
computed from their per-outcome counts (a sufficient statistic), for single
tokens or whole sequences.  :func:`icl_counts_rows` is that answer for a block
of count vectors; the harness scores it directly, and the single-distribution
functions here are one-row calls of it.  An injectable error knob degrades the
output by mixing toward uniform (:func:`mix_with_uniform`), which lets
experiments chart how guarantees decay as responder fidelity drops; the
classification runners mix a class-1 probability the same way, over 2 outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .distributions import CategoricalDistribution, Context, Vocabulary
from .distributions import normalized_rows, token_counts
from .errors import ParameterError, check_int, check_real

ETA_NONE = "none"
ETA_UNIFORM_MIX = "uniform_mix"

# Dense sequence distributions refuse to materialize beyond this many outcomes.
SEQUENCE_LIMIT = 10**6


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


def mix_with_uniform(probs, eta_model: EtaModel, support: int):
    """(1 - eta) * probs + eta / support: ``probs`` mixed toward the uniform
    distribution on ``support`` outcomes; ``probs`` itself when the knob is off."""
    if eta_model.kind == ETA_NONE:
        return probs
    return (1.0 - eta_model.eta) * probs + eta_model.eta / support


def icl_counts_rows(counts, eta: EtaModel = EtaModel.none()) -> np.ndarray:
    """The responder's answer for each row of the (rows, V) per-outcome prompt counts:
    ``counts / totals`` with the error knob off, and its uniform mix with it on.

    A row with fewer than one sample is refused.  The mixed rows are not renormalized
    again; callers apply :func:`normalized_rows` once (as
    :class:`CategoricalDistribution` does).
    """
    counts = np.asarray(counts)
    totals = counts.sum(axis=-1, keepdims=True)
    if totals.min() < 1:
        raise ParameterError("cannot estimate a distribution from zero samples")
    if eta.kind == ETA_NONE:
        return counts / totals
    return mix_with_uniform(normalized_rows(counts / totals), eta, counts.shape[-1])


def icl_counts_dist(counts, eta: EtaModel = EtaModel.none()) -> CategoricalDistribution:
    """The responder's distribution from one vector of per-outcome prompt counts: one
    row of :func:`icl_counts_rows`, exactly ``counts / counts.sum()`` with the knob off."""
    return CategoricalDistribution(icl_counts_rows(counts, eta))


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


def sequence_space(vocab_size: int, length: int) -> int:
    """The number ``vocab_size ** length`` of length-``length`` sequences, refused past
    :data:`SEQUENCE_LIMIT`.  With V >= 2 any ``length >= SEQUENCE_LIMIT.bit_length()``
    has V^l >= 2^l > SEQUENCE_LIMIT, so it is refused before V^l is computed."""
    if vocab_size < 2 or length < SEQUENCE_LIMIT.bit_length():
        space = vocab_size**length
        if space <= SEQUENCE_LIMIT:
            return space
    raise ParameterError(
        f"sequence space V^l = {vocab_size}^{length} exceeds the limit {SEQUENCE_LIMIT}; "
        "use a smaller vocabulary or shorter length"
    )


def icl_sequence_dist(
    prompt: IclPromptSamples,
    context: Context,
    vocab: Vocabulary,
    length: int,
    eta: EtaModel = EtaModel.none(),
) -> CategoricalDistribution:
    """Joint distribution over all length-``length`` sequences, stored densely.

    The support has ``vocab.size ** length`` outcomes; anything past
    :data:`SEQUENCE_LIMIT` is refused rather than approximated, so reduce the
    vocabulary size or the sequence length to stay exact.
    """
    check_int("sequence length", length, 1)
    space = sequence_space(vocab.size, length)
    codes = encode_sequences(prompt.samples_for(context.id), vocab.size, length)
    return icl_counts_dist(np.bincount(codes, minlength=space), eta)
