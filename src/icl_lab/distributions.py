"""Finite categorical distributions: construction, count sampling, estimation, L1 metric.

The distance between two distributions here is the plain L1 sum
``sum_v |p(v) - q(v)|`` (range [0, 2]), twice the total-variation distance.
All randomness flows through an explicit ``numpy.random.Generator`` so every
operation is a pure function of its inputs and the seed.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, check_int, check_real, shown

# Distributions whose entries sum to 1 within this tolerance are renormalized
# on construction; anything further off is rejected.
PROB_SUM_TOLERANCE = 1e-9

# The byte of a uint64 that holds its lowest bit.
_LOW_BYTE = 0 if np.little_endian else 7

# Uniforms whose ranks one slice of the merged positions subtracts at a time.
_RANK_SLICE = 4096


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
        """Synthetic vocabulary of ``size`` generic tokens; a size below 1 is refused."""
        return cls(tuple(f"tok{i}" for i in range(size)))

    @property
    def size(self) -> int:
        return len(self.tokens)


def normalized_rows(probs: np.ndarray) -> np.ndarray:
    """``probs`` over its sums along the last axis; each sum must be within
    ``PROB_SUM_TOLERANCE`` of 1, and no entry may be negative.  A row that sums to
    exactly 1.0 comes back bit for bit (-0.0 included), since x / 1.0 is x."""
    # A non-finite entry or an overflowing sum fails the sum test; with no negative
    # entry, a sum within tolerance bounds every entry by 1 + PROB_SUM_TOLERANCE.
    with np.errstate(over="ignore", invalid="ignore"):
        totals = probs.sum(axis=-1, keepdims=True)
        if not np.abs(totals - 1.0).max() <= PROB_SUM_TOLERANCE:
            total = next(float(t) for t in totals.flat if not abs(t - 1.0) <= PROB_SUM_TOLERANCE)
            raise ParameterError(
                f"probabilities sum to {total!r}, outside tolerance {PROB_SUM_TOLERANCE} of 1"
            )
    if probs.min() < 0.0:
        raise ParameterError("probability entries must be non-negative")
    return probs / totals


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
        probs = normalized_rows(probs)
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    @property
    def size(self) -> int:
        return int(self.probs.size)


@dataclass(frozen=True)
class Context:
    """A conditioning context, identified by its index within a task."""

    id: int


def l1_distance(p: CategoricalDistribution, q: CategoricalDistribution) -> float:
    """Sum of absolute probability differences; 0 iff p == q, at most 2."""
    if p.size != q.size:
        raise ParameterError(f"distribution sizes differ: {p.size} vs {q.size}")
    diff = p.probs - q.probs
    return float(np.abs(diff, out=diff).sum())  # in place: one V-sized temporary, not two


def token_indices(samples) -> np.ndarray:
    """``samples`` as int64 token indices, refused unless an integer array: a float,
    bool or string is not read as an index.  An empty one passes, for its caller."""
    idx = np.asarray(samples)
    if idx.size and not np.issubdtype(idx.dtype, np.integer):
        raise ParameterError(f"token indices must be integers, got an array of {idx.dtype}")
    return idx.astype(np.int64, copy=False)


def token_counts(samples, size: int) -> np.ndarray:
    """Occurrences of each index of ``[0, size)`` among the token indices ``samples``."""
    idx = token_indices(samples)
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
    """Counts of ``n`` i.i.d. draws from ``dist``: one Multinomial(n, p) vector of length V."""
    return next(nested_counts(dist.probs[None], (n,), rng))[0]


def nested_counts(probs: np.ndarray, sizes, rng: np.random.Generator):
    """The (rows, V) counts of nested i.i.d. samples of the strictly increasing
    ``sizes`` (from 1 to 2**63 - 1) from the rows of the (rows, V) array ``probs``, one
    int64 array per size: each size after the first adds ``Multinomial(n_k - n_{k-1},
    p)`` draws, the joint law of one token stream's prefixes, by :func:`add_counts` in
    one key vector sized by :func:`check_draw_sizes`.  The sizes are checked and the
    key vector allocated on the call; each size's counts are drawn as it is taken."""
    sizes, sampled = check_draw_sizes(sizes, probs.shape[1])
    keys = np.empty(probs.shape[1] + sampled)

    def draws():
        counts = np.zeros(probs.shape, np.int64)
        for low, high in zip((0,) + sizes, sizes):
            add_counts(probs, high - low, rng, counts, keys)
            yield counts.copy()

    return draws()


def check_draw_sizes(sizes, support: int) -> tuple[tuple[int, ...], int]:
    """``sizes`` as a tuple, refused unless they are integers (no float or bool) that
    strictly increase from 1 or more to 2**63 - 1 or less (numpy's ``multinomial``
    draws at most that many), and their largest increment below ``support``, 0 if
    none: the n < V draw that merges the most floats, which sizes each key vector
    past its V floats, the one of :func:`nested_counts` and each counts batch's in
    ``_counts_measure``."""
    sizes = tuple(sizes)
    if not all(isinstance(n, numbers.Integral) and not isinstance(n, bool) for n in sizes):
        raise ParameterError(f"sizes must be integers, got {shown(sizes)}")
    steps = [high - low for low, high in zip((0,) + sizes, sizes)]
    if any(step <= 0 for step in steps):
        raise ParameterError(f"sizes must be strictly increasing and >= 1, got {shown(sizes)}")
    if sizes and sizes[-1] >= 2**63:
        raise ParameterError(f"sample size {shown(sizes[-1])} exceeds the largest draw, 2**63 - 1")
    return sizes, max((step for step in steps if step < support), default=0)


def add_counts(probs, n: int, rng, counts, keys) -> None:
    """Add to each row of the int64 (rows, V) ``counts`` the counts of ``n`` i.i.d.
    draws from the same row of ``probs``.

    With ``n >= V`` the draw is one ``rng.multinomial`` call, equal bit for bit to one
    call per row.  With ``n < V`` each row's draws are located on its CDF by a merge
    in the float64 ``keys``' first V + n floats, sized by :func:`check_draw_sizes`,
    which beats multinomial's one binomial draw per outcome, and added with
    ``np.add.at``.  A grid of sizes in ``_counts_measure`` keeps its running counts
    here; the responder's divide writes its count rows once per size.
    """
    if n >= probs.shape[1]:
        counts += rng.multinomial(n, probs)
        return
    one = counts.dtype.type(1)  # np.add.at's fast path takes the row's own dtype
    for p, row in zip(probs, counts):
        np.add.at(row, _cdf_index(p, n, rng, keys), one)


def write_counts(probs, n: int, rng, keys) -> None:
    """Write the counts of ``n`` i.i.d. draws from each row of the (rows, V) ``probs``,
    drawn as :func:`add_counts` draws them, as float64 to the head of ``keys``, which
    holds rows * V floats and, when ``n < V``, ``n`` more.

    Row r merges in the V + n floats from its own place on, its own and those of
    rows not yet drawn or the ``n`` after the last row, so it overwrites no counts;
    it is then zeroed and its counts added there.  Every n < V count is exact in
    float64, and a multinomial draw's int64 counts are cast as a division casts them.
    """
    support = probs.shape[1]
    counts = keys[: probs.size].reshape(probs.shape)
    if n >= support:
        counts[...] = rng.multinomial(n, probs)
        return
    for r, p in enumerate(probs):
        index = _cdf_index(p, n, rng, keys[r * support :])
        counts[r] = 0.0
        np.add.at(counts[r], index, 1.0)


def _cdf_index(p, n, rng, keys) -> np.ndarray:
    """The outcome of each of ``n`` i.i.d. draws from the probability row ``p``, in
    increasing order, merged in the float64 ``keys``' first V + n floats: ``p``'s CDF
    in the first V, shifted in place into its keys, then ``n`` sorted uniforms.

    Scaling the uniforms by the CDF's last entry keeps every index below V and off
    zero-probability outcomes.  The sorted uniforms are merged into the CDF, O(n log n
    + V), and each lands on the index ``searchsorted(cdf, u, side="right")`` gives.
    """
    support = len(p)
    cdf, uniforms = keys[:support], keys[support : support + n]
    merged = keys[: support + n].view(np.uint64)
    np.cumsum(p, out=cdf)
    rng.random(out=uniforms)
    uniforms.sort()
    uniforms *= cdf[-1]
    # As uint64, non-negative doubles order like the floats: their bit patterns
    # are all below 2**63.  So 2 bits(c) < 2 bits(u) + 1 exactly when c <= u,
    # and the shift drops a leading -0.0's sign bit.  numpy's stable sort of
    # uint64 is timsort, which merges the two sorted runs; a uniform's index,
    # the number of CDF entries at most u, is then its merged position less its
    # rank among the uniforms.
    merged <<= 1
    merged[support:] |= 1
    merged.sort(kind="stable")
    merged &= 1
    # Read as bools, the tags take numpy's branch-free nonzero; a 1-D view needs no
    # raveled copy, as flatnonzero's would.  The ranks go in slices, not one arange.
    (index,) = np.nonzero(merged.view(np.bool_)[_LOW_BYTE::8])
    for start in range(0, n, _RANK_SLICE):
        part = index[start : start + _RANK_SLICE]
        part -= np.arange(start, start + len(part))
    return index


def random_distribution(
    size: int, concentration: float, rng: np.random.Generator
) -> CategoricalDistribution:
    """Symmetric Dirichlet draw: skewed at small ``concentration``, near uniform at large."""
    return CategoricalDistribution(dirichlet_rows(1, size, concentration, rng)[0])


def dirichlet_rows(
    rows: int, size: int, concentration: float, rng: np.random.Generator, out=None
) -> np.ndarray:
    """(rows, size) symmetric Dirichlet draws, written to the C-contiguous float64
    ``out`` when given: one ``standard_gamma`` call, then a redraw of each row in
    turn whose sum is 0 (every draw underflowed) or inf, then each row over its sum.
    That sum is the one the degenerate-row check took, a redrawn row's taken after
    its redraw, so each row is summed once.  In law Gamma(a) = Gamma(a + 1) *
    U**(1/a), whose log, scaled by min(a, 1), neither underflows nor overflows.  At
    a = 1 the call is ``standard_exponential``, whose variates numpy's
    ``standard_gamma(1.0)`` returns bit for bit, drawn as one fill instead of one
    function call per variate."""
    check_int("support size", size, 1)
    concentration = check_real("concentration", concentration, above=0)
    scale = min(concentration, 1.0)
    with np.errstate(over="ignore"):
        if concentration == 1.0:
            draws = rng.standard_exponential(size=(rows, size), out=out)
        else:
            draws = rng.standard_gamma(concentration, size=(rows, size), out=out)
        totals = draws.sum(axis=1)
        for i, total in enumerate(totals):
            if not 0.0 < total < np.inf:
                logs = scale * np.log(rng.standard_gamma(concentration + 1.0, size=size))
                logs += scale / concentration * np.log1p(-rng.random(size))
                draws[i] = np.exp((logs - logs.max()) / scale)
                totals[i] = draws[i].sum()
    return np.divide(draws, totals[:, None], out=draws)
