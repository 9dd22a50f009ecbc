import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icl_lab import ParameterError, Vocabulary
from icl_lab.distributions import (
    PROB_SUM_TOLERANCE,
    CategoricalDistribution,
    check_draw_sizes,
    dirichlet_rows,
    empirical_distribution,
    l1_distance,
    nested_counts,
    normalized_rows,
    random_distribution,
    sample_counts,
    token_counts,
)
from icl_lab.oracle import icl_counts_dist


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

    @settings(max_examples=500)
    @given(st.data())
    def test_rejects_exactly_what_the_four_entry_checks_reject(self, data):
        def four_checks_reject(probs):
            """Non-finite entries, entries outside [0, 1 + tol], then the sum."""
            if not np.all(np.isfinite(probs)):
                return True
            if np.any(probs < 0.0) or np.any(probs > 1.0 + PROB_SUM_TOLERANCE):
                return True
            return abs(float(probs.sum()) - 1.0) > PROB_SUM_TOLERANCE

        n = data.draw(st.integers(1, 6))
        raw = np.array(data.draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n)))
        off = data.draw(st.sampled_from([0.0, 5e-10, -5e-10, 2e-9, -2e-9, 1e-3]))
        probs = raw / raw.sum() * (1.0 + off)
        special = st.sampled_from(
            [np.nan, np.inf, -np.inf, 1e308, -1e308, -1e-300, -0.5, 1.0 + 5e-10, 1.0 + 2e-9]
        )
        for _ in range(data.draw(st.integers(0, 2))):
            probs[data.draw(st.integers(0, n - 1))] = data.draw(special | st.floats())
        if n >= 2 and data.draw(st.booleans()):
            # Move mass between two entries: the sum holds while one entry turns
            # negative or rises above 1.
            shift = data.draw(st.sampled_from([2e-9, 0.5, 1.0, 1e308]))
            i, j = data.draw(st.permutations(range(n)))[:2]
            with np.errstate(all="ignore"):  # only the constructor must stay warning-free
                probs[i] += shift
                probs[j] -= shift
        try:
            p = CategoricalDistribution(probs)
        except ParameterError:
            assert four_checks_reject(probs)
        else:
            assert not four_checks_reject(probs)
            assert np.array_equal(p.probs, probs / probs.sum())

    def test_rows_get_the_same_checks_and_division(self):
        rng = np.random.default_rng(8)
        rows = rng.random((5, 7))
        rows /= rows.sum(axis=1, keepdims=True)
        rows[2] *= 1.0 + 5e-10
        out = normalized_rows(rows)
        for row, normalized in zip(rows, out):
            assert np.array_equal(normalized, CategoricalDistribution(row).probs)
        bad_sum, negative = rows.copy(), rows.copy()
        bad_sum[3] *= 1.5
        negative[4, :2] += [-1.0, 1.0]
        with pytest.raises(ParameterError, match="sum to 1.5"):
            normalized_rows(bad_sum)
        with pytest.raises(ParameterError, match="non-negative"):
            normalized_rows(negative)

    def test_rows_summing_to_exactly_one_skip_the_divide(self):
        rows = np.array([[0.25, 0.75, -0.0], [0.5, 0.0, 0.5]])
        assert (rows.sum(axis=1) == 1.0).all()
        fresh = normalized_rows(rows)
        assert fresh is not rows and np.array_equal(fresh, rows)
        assert np.signbit(fresh[0, 2])  # -0.0 / 1.0 is -0.0
        ints = normalized_rows(np.array([[0, 1, 0]]))
        assert ints.dtype == np.float64 and ints.tolist() == [[0.0, 1.0, 0.0]]
        # The checks still run when the divide is skipped.
        with pytest.raises(ParameterError, match="non-negative"):
            normalized_rows(np.array([[1.5, -0.5]]))

    def test_rejects_two_dimensional_probs(self):
        with pytest.raises(ParameterError, match="one-dimensional"):
            CategoricalDistribution(np.full((2, 2), 0.25))

    def test_immutable(self):
        p = dist(0.5, 0.5)
        with pytest.raises(ValueError):
            p.probs[0] = 0.9


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

    def test_two_dimensional_samples_rejected(self):
        with pytest.raises(ParameterError, match="flat sequence"):
            token_counts([[0, 1], [1, 2]], 3)

    @pytest.mark.parametrize(
        "samples, dtype", [([0.5], "float64"), ([True, False], "bool"), (["3"], "<U1")]
    )
    def test_non_integer_indices_rejected_not_cast(self, samples, dtype):
        # They were read as tokens 0, then 1 and 0, then 3.
        with pytest.raises(ParameterError, match=f"must be integers, got an array of {dtype}$"):
            empirical_distribution(samples, Vocabulary.of_size(4))


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

    def test_convergence_is_monotone_in_median(self):
        p = dist(0.35, 0.25, 0.2, 0.2)
        medians = []
        for n in (100, 1_000, 10_000):
            errs = [
                l1_distance(icl_counts_dist(sample_counts(p, n, np.random.default_rng(seed))), p)
                for seed in range(100)
            ]
            medians.append(np.median(errs))
        assert medians[0] > medians[1] > medians[2]


def float_key_counts(probs, n, rng):
    """The n < V sampler searching float keys, one CDF per row and draw: the
    reference that the uint64-key search must match bit for bit."""
    rows = []
    for p in probs:
        cdf = np.cumsum(p)
        u = np.sort(rng.random(n)) * cdf[-1]
        rows.append(np.bincount(np.searchsorted(cdf, u, side="right"), minlength=p.size))
    return np.stack(rows)


class TestNestedCounts:
    @pytest.mark.parametrize(
        "sizes, match",
        [
            ((0,), "strictly increasing"),
            ((-3, 5), "strictly increasing"),
            ((5, 3), "strictly increasing"),
            ((7, 50, 50), "strictly increasing"),
            # numpy's multinomial takes n up to 2**63 - 1; past it, it raised OverflowError.
            ((2**63,), f"^sample size {2**63} exceeds"),
            ((10, 2**64), f"^sample size {2**64} exceeds"),
            ((2**62, 2**63), f"^sample size {2**63} exceeds"),
            # A float or bool size was truncated (10.7 drew 10) or read as 1.
            ((10.7,), r"^sizes must be integers, got \(10\.7,\)"),
            ((2.5,), r"^sizes must be integers, got \(2\.5,\)"),
            ((True,), r"^sizes must be integers, got \(True,\)"),
            ((3, np.float64(8.0)), "^sizes must be integers"),
        ],
    )
    def test_rejects_sizes_not_strictly_increasing_from_one_to_2_63_minus_1(self, sizes, match):
        with pytest.raises(ParameterError, match=match):
            nested_counts(np.full((1, 4), 0.25), sizes, np.random.default_rng(0))

    def test_draws_up_to_2_63_minus_1(self):
        (counts,) = nested_counts(np.full((2, 3), 1 / 3), (2**63 - 1,), np.random.default_rng(0))
        assert counts.sum(axis=1).tolist() == [2**63 - 1] * 2

    @pytest.mark.parametrize(
        "rows, size, sizes",
        [
            (1, 13, (2,)),
            (3, 50, (20, 45)),
            (4, 2_000, (500, 1_500)),
            (1, 50_000, (20_000,)),
            # Several rows and nested increments from n << V to n close to V.
            (1, 4_096, (1_023, 2_047)),
            (2, 8_192, (1_000, 4_000, 9_000)),
            (3, 50_000, (2_000, 14_500)),
            (2, 20_000, (3, 2_000)),
        ],
    )
    def test_integer_keys_match_the_float_key_search(self, rows, size, sizes):
        probs = np.random.default_rng(size).dirichlet(np.full(size, 0.5), size=rows)
        probs[:, [0, size // 2, size - 1]] = 0.0  # zeros at the start, middle and end
        probs /= probs.sum(axis=1, keepdims=True)
        probs[-1, :3] = -0.0  # a leading -0.0 run, whose bits sort above every +x
        probs[-1] /= probs[-1].sum()
        assert np.signbit(probs[-1, 0])
        rng, reference_rng = np.random.default_rng(5), np.random.default_rng(5)
        expected, drawn = 0, 0
        for counts, n in zip(nested_counts(probs, sizes, rng), sizes):
            expected = expected + float_key_counts(probs, n - drawn, reference_rng)
            drawn = n
            assert counts.dtype == np.int64
            assert np.array_equal(counts, expected)
            assert rng.bit_generator.state == reference_rng.bit_generator.state
        assert not expected[:, [0, size // 2, size - 1]].any()

    @pytest.mark.parametrize("n", [8, 1_024])
    def test_a_uniform_on_a_cdf_entry_counts_toward_the_next_outcome(self, n):
        # Dyadic probabilities give an exact CDF: 1/8 up to index 999, 3/8 from
        # 1,000, 3/4 from 2,000 and 1 at the last index.  The chosen uniforms
        # 0.125, 0.375 and 0.75 lie exactly on an entry, so each counts toward the
        # next outcome, as searchsorted(side="right") places it.
        probs = np.zeros((1, 4_096))
        probs[0, [0, 1_000, 2_000, 4_095]] = np.array([1, 2, 3, 2]) / 8

        class ChosenUniforms:
            def random(self, out):
                out[:] = np.resize([0.125, 0.375, 0.75, 0.0, 0.5, 0.125, 0.375, 0.75], len(out))

        ((counts,),) = nested_counts(probs, (n,), ChosenUniforms())
        expected = np.zeros(4_096, dtype=np.int64)
        expected[[0, 1_000, 2_000, 4_095]] = np.array([1, 2, 3, 2]) * n // 8
        assert np.array_equal(counts, expected)

    @pytest.mark.parametrize(
        "sizes, support, largest",
        [
            ((3, 15), 10, 3),  # 3, then 12 >= V: only the n < V increment counts
            ((12,), 10, 0),  # no increment below V
            ((8,), 10, 8),
            ((5, 50), 20, 5),
        ],
    )
    def test_check_draw_sizes_returns_the_largest_increment_below_v(self, sizes, support, largest):
        assert check_draw_sizes(sizes, support) == (tuple(sizes), largest)


class TestRandomDistribution:
    def test_large_concentration_approaches_uniform(self):
        d = random_distribution(8, 1e7, np.random.default_rng(0))
        assert np.max(np.abs(d.probs - 0.125)) < 0.005

    def test_keeps_the_gamma_stream(self):
        draws = np.random.default_rng(3).gamma(0.7, 1.0, size=5)
        d = random_distribution(5, 0.7, np.random.default_rng(3))
        assert np.array_equal(d.probs, draws / draws.sum())

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("rows, size", [(1, 20), (7, 20), (1, 50_000), (7, 50_000)])
    def test_dirichlet_one_is_the_gamma_stream(self, seed, rows, size):
        # At concentration 1 the rows are one exponential fill: the same variates,
        # and the same generator state after, as standard_gamma(1.0), each row over
        # its sum.
        def reference(rng):
            gammas = rng.standard_gamma(1.0, size=(rows, size))
            return gammas / gammas.sum(axis=1, keepdims=True)

        reference_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        out = np.empty((rows, size))
        assert dirichlet_rows(rows, size, 1.0, rng, out=out) is out
        assert np.array_equal(out, reference(reference_rng))
        assert rng.bit_generator.state == reference_rng.bit_generator.state
        fresh = dirichlet_rows(rows, size, 1.0, rng)  # and without out=
        assert np.array_equal(fresh, reference(reference_rng))

    @pytest.mark.parametrize("concentration", [1e-300, 5e-324, 1e308, 1.7976931348623157e308])
    def test_extreme_concentration_terminates(self, concentration):
        # Every gamma draw underflows to 0 at the small values; their sum overflows
        # at the large ones.
        out = []
        worker = threading.Thread(
            target=lambda: out.append(
                random_distribution(20, concentration, np.random.default_rng(0))
            ),
            daemon=True,
        )
        worker.start()
        worker.join(timeout=1.0)
        assert not worker.is_alive() and len(out) == 1
        probs = out[0].probs
        if concentration < 1:
            assert np.count_nonzero(probs) == 1 and probs.max() == 1.0
        else:
            assert np.allclose(probs, 1 / 20, rtol=1e-12)

    def test_rejects_non_positive_concentration(self):
        with pytest.raises(ParameterError):
            random_distribution(4, 0.0, np.random.default_rng(0))

    @pytest.mark.parametrize("concentration", [float("nan"), float("inf"), True])
    def test_rejects_non_finite_or_bool_concentration(self, concentration):
        # NaN and inf used to give rows of NaN, and True ran as 1.0.
        message = rf"^concentration must be a finite real number in \(0, inf\), got {concentration}"
        with pytest.raises(ParameterError, match=message):
            dirichlet_rows(1, 4, concentration, np.random.default_rng(0))

    def test_rejects_empty_support(self):
        with pytest.raises(ParameterError, match="support size"):
            dirichlet_rows(1, 0, 1.0, np.random.default_rng(0))
