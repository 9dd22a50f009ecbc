"""Finite categorical distributions: construction, count sampling, estimation, L1 metric.

The distance between two distributions here is the plain L1 sum
``sum_v |p(v) - q(v)|`` (range [0, 2]), twice the total-variation distance.
All randomness flows through an explicit ``numpy.random.Generator`` so every
operation is a pure function of its inputs and the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

# Distributions whose entries sum to 1 within this tolerance are renormalized
# on construction; anything further off is rejected.
PROB_SUM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Vocabulary:
    """Ordered collection of distinct token identifiers."""

    tokens: tuple[str, ...]

    def __post_init__(self):
        if len(self.tokens) < 1:
            raise ParameterError("vocabulary must contain at least one token")
        if len(set(self.tokens)) != len(self.tokens):
            raise ParameterError("vocabulary tokens must be distinct")

    @classmethod
    def of_size(cls, size: int) -> "Vocabulary":
        """Synthetic vocabulary of ``size`` generic tokens."""
        if size < 1:
            raise ParameterError(f"vocabulary size must be >= 1, got {size}")
        return cls(tuple(f"tok{i}" for i in range(size)))

    @property
    def size(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class CategoricalDistribution:
    """Probability vector over a finite support.

    Entries must be non-negative and sum to 1 within ``PROB_SUM_TOLERANCE``;
    the stored vector is renormalized to sum exactly (up to rounding) to 1 and
    frozen against mutation.
    """

    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 1 or probs.size < 1:
            raise ParameterError("probability vector must be one-dimensional and non-empty")
        if not np.all(np.isfinite(probs)):
            raise ParameterError("probability vector contains non-finite entries")
        if np.any(probs < 0.0) or np.any(probs > 1.0 + PROB_SUM_TOLERANCE):
            raise ParameterError("probability entries must lie in [0, 1]")
        total = float(probs.sum())
        if abs(total - 1.0) > PROB_SUM_TOLERANCE:
            raise ParameterError(
                f"probabilities sum to {total!r}, outside tolerance {PROB_SUM_TOLERANCE} of 1"
            )
        probs = probs / total
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    @property
    def size(self) -> int:
        return int(self.probs.size)

    @classmethod
    def point_mass(cls, index: int, size: int) -> "CategoricalDistribution":
        if not 0 <= index < size:
            raise ParameterError(f"point-mass index {index} out of range for size {size}")
        probs = np.zeros(size)
        probs[index] = 1.0
        return cls(probs)


@dataclass(frozen=True)
class Context:
    """A conditioning context, identified by its index within a task."""

    id: int


def l1_distance(p: CategoricalDistribution, q: CategoricalDistribution) -> float:
    """Sum of absolute probability differences; 0 iff p == q, at most 2."""
    if p.size != q.size:
        raise ParameterError(f"distribution sizes differ: {p.size} vs {q.size}")
    return float(np.abs(p.probs - q.probs).sum())


def token_counts(samples, size: int) -> np.ndarray:
    """Occurrences of each index of ``[0, size)`` among the token indices ``samples``."""
    idx = np.asarray(samples, dtype=np.int64)
    if idx.size == 0:
        raise ParameterError("cannot estimate a distribution from an empty sample list")
    if idx.ndim != 1:
        raise ParameterError("samples must be a flat sequence of token indices")
    if idx.min() < 0 or idx.max() >= size:
        raise IndexError(f"token index out of range [0, {size}): min {idx.min()}, max {idx.max()}")
    return np.bincount(idx, minlength=size)


def empirical_distribution(samples, vocab: Vocabulary) -> CategoricalDistribution:
    """Frequency estimate from i.i.d. token indices. Raw counts, no smoothing."""
    counts = token_counts(samples, vocab.size)
    return CategoricalDistribution(counts / counts.sum())


def sample_counts(dist: CategoricalDistribution, n: int, rng: np.random.Generator) -> np.ndarray:
    """Counts of ``n`` i.i.d. draws from ``dist``: one Multinomial(n, p) vector of length V.

    With ``n >= V`` it is one ``rng.multinomial`` call, O(V).  With ``n < V``
    it counts ``n`` sorted uniforms placed on the CDF, O(n log n + V), which
    beats multinomial's one binomial draw per outcome.  Scaling the uniforms by
    the CDF's last entry keeps every index below V and off zero-probability outcomes.
    """
    if n < 1:
        raise ParameterError(f"sample count must be >= 1, got {n}")
    if n >= dist.size:
        return rng.multinomial(n, dist.probs)
    cdf = np.cumsum(dist.probs)
    u = np.sort(rng.random(n)) * cdf[-1]
    return np.bincount(np.searchsorted(cdf, u, side="right"), minlength=dist.size)


def random_distribution(
    size: int, concentration: float, rng: np.random.Generator
) -> CategoricalDistribution:
    """Symmetric Dirichlet-style draw via normalized Gamma variates.

    Small ``concentration`` gives skewed vectors (mass on few entries); large
    values approach the uniform vector.
    """
    if size < 1:
        raise ParameterError(f"support size must be >= 1, got {size}")
    if concentration <= 0:
        raise ParameterError(f"concentration must be positive, got {concentration}")
    draws = rng.gamma(concentration, 1.0, size=size)
    total = draws.sum()
    while not np.isfinite(total) or total <= 0.0:
        # All gamma draws can underflow to zero for very small concentration.
        draws = rng.gamma(concentration, 1.0, size=size)
        total = draws.sum()
    return CategoricalDistribution(draws / total)

