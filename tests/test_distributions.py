import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icl_lab import (
    CategoricalDistribution,
    ParameterError,
    Vocabulary,
    empirical_distribution,
    l1_distance,
    random_distribution,
    sample_counts,
    sample_tokens,
    tv_distance,
)


def dist(*probs):
    return CategoricalDistribution(np.array(probs, dtype=float))


@st.composite
def dist_pairs(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    def one():
        raw = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n)))
        return CategoricalDistribution(raw / raw.sum())
    return one(), one(), one()


class TestL1Distance:
    def test_disjoint_support(self):
        assert l1_distance(dist(1, 0), dist(0, 1)) == 2.0

    def test_identity(self):
        p = dist(0.2, 0.3, 0.5)
        assert l1_distance(p, p) == 0.0

    def test_direct_arithmetic(self):
        assert l1_distance(dist(0.5, 0.5), dist(0.75, 0.25)) == pytest.approx(0.5)

    def test_dimension_mismatch(self):
        with pytest.raises(ParameterError):
            l1_distance(dist(1, 0), dist(1, 0, 0))

    def test_tv_is_half_l1(self):
        p, q = dist(0.5, 0.5), dist(0.75, 0.25)
        assert tv_distance(p, q) == pytest.approx(l1_distance(p, q) / 2)

    @settings(max_examples=200)
    @given(dist_pairs())
    def test_metric_properties(self, triple):
        p, q, r = triple
        assert l1_distance(p, q) == pytest.approx(l1_distance(q, p))
        assert l1_distance(p, r) <= l1_distance(p, q) + l1_distance(q, r) + 1e-12
        assert 0.0 <= l1_distance(p, q) <= 2.0
        if not np.array_equal(p.probs, q.probs):
            assert l1_distance(p, q) > 0.0


class TestCategoricalDistribution:
    def test_renormalizes_within_tolerance(self):
        p = CategoricalDistribution(np.array([0.5, 0.5 + 5e-10]))
        assert p.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_bad_sum(self):
        with pytest.raises(ParameterError):
            CategoricalDistribution(np.array([0.5, 0.6]))

    def test_rejects_negative(self):
        with pytest.raises(ParameterError):
            CategoricalDistribution(np.array([-0.1, 1.1]))

    def test_immutable(self):
        p = dist(0.5, 0.5)
        with pytest.raises(ValueError):
            p.probs[0] = 0.9

    def test_point_mass(self):
        p = CategoricalDistribution.point_mass(2, 4)
        assert list(p.probs) == [0.0, 0.0, 1.0, 0.0]


class TestVocabulary:
    def test_of_size(self):
        v = Vocabulary.of_size(3)
        assert v.size == 3 and len(set(v.tokens)) == 3

    def test_rejects_duplicates(self):
        with pytest.raises(ParameterError):
            Vocabulary(("a", "a"))

    def test_rejects_empty(self):
        with pytest.raises(ParameterError):
            Vocabulary.of_size(0)


class TestEmpiricalDistribution:
    def test_count_ratios(self):
        p = empirical_distribution([0, 0, 1, 1], Vocabulary.of_size(3))
        assert list(p.probs) == [0.5, 0.5, 0.0]

    def test_point_mass(self):
        p = empirical_distribution([2] * 10, Vocabulary.of_size(3))
        assert list(p.probs) == [0.0, 0.0, 1.0]

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            empirical_distribution([], Vocabulary.of_size(3))

    def test_out_of_range_index(self):
        with pytest.raises(IndexError):
            empirical_distribution([0, 3], Vocabulary.of_size(3))


class TestSampleTokens:
    def test_point_mass_samples(self):
        p = CategoricalDistribution.point_mass(3, 5)
        out = sample_tokens(p, 5, np.random.default_rng(0))
        assert list(out) == [3, 3, 3, 3, 3]

    def test_deterministic_given_seed(self):
        p = dist(0.5, 0.5)
        a = sample_tokens(p, 4, np.random.default_rng(42))
        b = sample_tokens(p, 4, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_law_of_large_numbers(self):
        # n = 10^4 draws from [0.9, 0.1]: the empirical estimate lands well
        # inside L1 0.05 (binomial sd of the first coordinate is 0.003).
        p = dist(0.9, 0.1)
        out = sample_tokens(p, 10_000, np.random.default_rng(7))
        estimate = empirical_distribution(out, Vocabulary.of_size(2))
        assert l1_distance(estimate, p) < 0.05

    def test_rejects_non_positive_count(self):
        with pytest.raises(ParameterError):
            sample_tokens(dist(0.5, 0.5), 0, np.random.default_rng(0))

    def test_convergence_is_monotone_in_median(self):
        p = dist(0.35, 0.25, 0.2, 0.2)
        vocab = Vocabulary.of_size(4)
        medians = []
        for n in (100, 1_000, 10_000):
            errs = [
                l1_distance(empirical_distribution(
                    sample_tokens(p, n, np.random.default_rng(seed)), vocab), p)
                for seed in range(100)
            ]
            medians.append(np.median(errs))
        assert medians[0] > medians[1] > medians[2]


class TestSampleCounts:
    # Each test covers both sampler paths: multinomial (n >= V) and sorted
    # uniforms placed on the CDF (n < V).
    def test_int64_vector_summing_to_n(self):
        for probs, n in (((0.2, 0.3, 0.5), 1_000), (np.full(50, 0.02), 20)):
            out = sample_counts(dist(*probs), n, np.random.default_rng(0))
            assert out.dtype == np.int64
            assert out.shape == (len(probs),)
            assert out.sum() == n

    def test_deterministic_given_seed(self):
        p = dist(0.1, 0.2, 0.3, 0.4)
        for n in (50, 3):
            a = sample_counts(p, n, np.random.default_rng(42))
            b = sample_counts(p, n, np.random.default_rng(42))
            assert np.array_equal(a, b)

    def test_rejects_non_positive_count(self):
        with pytest.raises(ParameterError):
            sample_counts(dist(0.5, 0.5), 0, np.random.default_rng(0))

    def test_mean_matches_n_times_p(self):
        # The mean of 200 Multinomial(n, p) vectors has standard error
        # sqrt(n p (1-p) / 200) per entry.
        seeds = 200
        for probs, n in ((np.array([0.1, 0.2, 0.3, 0.4]), 500), (np.arange(1, 9) / 36, 5)):
            draws = np.array(
                [sample_counts(dist(*probs), n, np.random.default_rng(s)) for s in range(seeds)]
            )
            stderr = np.sqrt(n * probs * (1 - probs) / seeds)
            assert np.all(np.abs(draws.mean(axis=0) - n * probs) <= 5 * stderr)

    @pytest.mark.parametrize("n", [2, 1_000])
    def test_zero_probability_outcomes_are_never_counted(self, n):
        # Leading, inner and trailing zeros; the normalized cumulative sum of
        # this vector ends just below 1.
        p = dist(0.0, *[0.1] * 5, 0.0, *[0.1] * 5, 0.0)
        zeros = p.probs == 0.0
        for seed in range(200):
            out = sample_counts(p, n, np.random.default_rng(seed))
            assert out.shape == (13,) and out.sum() == n
            assert not out[zeros].any()


class TestRandomDistribution:
    def test_large_concentration_approaches_uniform(self):
        d = random_distribution(8, 1e7, np.random.default_rng(0))
        assert np.max(np.abs(d.probs - 0.125)) < 0.005

    def test_rejects_non_positive_concentration(self):
        with pytest.raises(ParameterError):
            random_distribution(4, 0.0, np.random.default_rng(0))
