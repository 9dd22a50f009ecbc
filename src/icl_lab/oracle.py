"""Idealized in-context responder.

Given prompt samples, the responder returns exactly the behavior the
verification experiments assume: the empirical distribution of the samples,
computed from their per-outcome counts (a sufficient statistic), for single
tokens or whole sequences.  :func:`icl_counts_rows` is that answer for a block
of count vectors; the harness scores it directly, and the single-distribution
functions here are one-row calls of it.  An error knob, the number ``eta`` in
[0, 1), degrades the output by mixing it toward uniform with weight ``eta``
(:func:`mix_with_uniform`), which moves it by at most ``2 * eta`` in L1 and lets
experiments chart how guarantees decay as responder fidelity drops; ``eta`` 0
turns the knob off.  The classification runners mix a class-1 probability the
same way, over 2 outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .distributions import CategoricalDistribution, Context, Vocabulary
from .distributions import token_counts, token_indices
from .errors import ParameterError, check_int, check_real, shown

# Dense sequence distributions refuse to materialize beyond this many outcomes.
SEQUENCE_LIMIT = 10**6


@dataclass(frozen=True)
class IclPromptSamples:
    """Prompt contents: one sample list per context."""

    per_context: Mapping[int, object] = field(default_factory=dict)

    def samples_for(self, context_id: int):
        if context_id not in self.per_context:
            raise ParameterError(f"prompt has no samples for context {context_id}")
        return self.per_context[context_id]


def check_eta(eta) -> float | int:
    """``eta`` as :func:`check_real` returns it; anything but a finite real number in
    [0, 1) is refused."""
    return check_real("eta", eta, at_least=0, below=1)


def mix_with_uniform(probs, eta: float, support: int, out=None):
    """(1 - eta) * probs + eta / support: ``probs`` mixed toward the uniform
    distribution on ``support`` outcomes, written to ``out`` when given (``probs``
    itself included); ``probs`` itself at ``eta`` 0, which turns the knob off."""
    eta = check_eta(eta)
    if eta == 0.0:
        return probs
    mixed = np.multiply(probs, 1.0 - eta, out=out)
    mixed += eta / support
    return mixed


def icl_counts_rows(counts, eta: float = 0.0, out=None, totals=None) -> np.ndarray:
    """The responder's answer for each row of the (rows, V) per-outcome prompt counts:
    ``counts / totals`` with the error knob off, and its uniform mix with it on;
    written to the float64 array ``out`` when given (``counts`` itself included),
    with the same arithmetic.  ``totals``, the rows' sample counts, is their sums
    when not given; the harness gives each draw's exact size, as float64 counts past
    2**53 need not sum to it.

    A row with fewer than one sample is refused.  The rows are not renormalized:
    the harness scores them as they are, and :class:`CategoricalDistribution`
    renormalizes a row once on construction.
    """
    counts = np.asarray(counts)
    if totals is None:
        totals = counts.sum(axis=-1, keepdims=True)
    if np.min(totals) < 1:
        raise ParameterError("cannot estimate a distribution from zero samples")
    rows = np.divide(counts, totals, out=out)
    return mix_with_uniform(rows, eta, counts.shape[-1], out=rows)


def icl_counts_dist(counts, eta: float = 0.0) -> CategoricalDistribution:
    """The responder's distribution from one vector of per-outcome prompt counts: one
    row of :func:`icl_counts_rows`, renormalized as a distribution is."""
    return CategoricalDistribution(icl_counts_rows(counts, eta))


def icl_textgen_dist(
    prompt: IclPromptSamples,
    context: Context,
    vocab: Vocabulary,
    eta: float = 0.0,
) -> CategoricalDistribution:
    """Next-token distribution the responder produces for ``context``."""
    return icl_counts_dist(token_counts(prompt.samples_for(context.id), vocab.size), eta)


def encode_sequences(sequences, vocab_size: int, length: int) -> np.ndarray:
    """Map length-``length`` token tuples to integer codes in [0, vocab_size**length)."""
    arr = token_indices(sequences)
    if arr.size == 0:  # no codes, whatever the shape: the caller's empty-list message
        arr = arr.reshape(0, length)
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
        f"sequence space V^l = {shown(vocab_size)}^{shown(length)} exceeds the limit "
        f"{SEQUENCE_LIMIT}; use a smaller vocabulary or shorter length"
    )


def icl_sequence_dist(
    prompt: IclPromptSamples,
    context: Context,
    vocab: Vocabulary,
    length: int,
    eta: float = 0.0,
) -> CategoricalDistribution:
    """Joint distribution over all length-``length`` sequences, stored densely.

    The support has ``vocab.size ** length`` outcomes; anything past
    :data:`SEQUENCE_LIMIT` is refused rather than approximated, so reduce the
    vocabulary size or the sequence length to stay exact.
    """
    check_int("sequence length", length, 1)
    space = sequence_space(vocab.size, length)
    codes = encode_sequences(prompt.samples_for(context.id), vocab.size, length)
    return icl_counts_dist(token_counts(codes, space), eta)
