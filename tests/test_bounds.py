import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icl_lab import (
    BoundParams,
    ParameterError,
    bounded_textgen_size,
    coreset_size,
    knn_context_size,
    subset_penalty,
    textgen_samples_per_context,
)

epsilons = st.floats(min_value=0.01, max_value=2.0)
deltas = st.floats(min_value=1e-6, max_value=0.5)
small_ints = st.integers(min_value=1, max_value=10_000)


class TestTextgenCalculator:
    def test_big_o_worked_example(self):
        # V=50,000, m=100, eps=0.1, delta=0.01 at unit constant.
        params = BoundParams(epsilon=0.1, delta=0.01, vocab_size=50_000, num_contexts=100)
        result = textgen_samples_per_context(params, "big_o")
        assert result.per_context == 46_051_702
        assert result.total == 4_605_170_200
        assert result.total == 100 * result.per_context

    def test_exact_mode_value(self):
        # ceil((20^2 / (2 * 0.2^2)) * ln(2*20*10/0.05)) = ceil(5000 * ln 8000)
        params = BoundParams(epsilon=0.2, delta=0.05, vocab_size=20, num_contexts=10)
        result = textgen_samples_per_context(params, "exact")
        assert result.per_context == 44_936
        assert result.per_context == math.ceil(5000 * math.log(8000))

    def test_epsilon_doubling_quarters_the_count(self):
        base = BoundParams(epsilon=0.1, delta=0.01, vocab_size=1000, num_contexts=10)
        doubled = BoundParams(epsilon=0.2, delta=0.01, vocab_size=1000, num_contexts=10)
        a = textgen_samples_per_context(base, "big_o").per_context
        b = textgen_samples_per_context(doubled, "big_o").per_context
        assert b == pytest.approx(a / 4, rel=1e-6)

    def test_unknown_mode(self):
        with pytest.raises(ParameterError):
            textgen_samples_per_context(BoundParams(epsilon=0.1, delta=0.1), "squared")

    def test_formula_text_mentions_natural_log(self):
        params = BoundParams(epsilon=0.1, delta=0.01, vocab_size=10, num_contexts=2)
        for mode in ("big_o", "exact"):
            assert "natural log" in textgen_samples_per_context(params, mode).formula_text

    @settings(max_examples=100)
    @given(epsilons, deltas, st.integers(2, 1000), st.integers(1, 100))
    def test_exact_dominates_big_o_at_unit_constant(self, eps, delta, V, m):
        params = BoundParams(epsilon=eps, delta=delta, vocab_size=V, num_contexts=m)
        exact = textgen_samples_per_context(params, "exact").per_context
        big_o = textgen_samples_per_context(params, "big_o").per_context
        assert exact >= big_o


class TestKnnCalculator:
    def test_reference_regime(self):
        params = BoundParams(epsilon=0.1, delta=0.01)
        assert knn_context_size(params) == 461

    def test_log_of_e(self):
        assert knn_context_size(BoundParams(epsilon=1.0, delta=1 / math.e)) == 1

    def test_halving_epsilon_quadruples_k(self):
        a = knn_context_size(BoundParams(epsilon=0.2, delta=0.01))
        b = knn_context_size(BoundParams(epsilon=0.1, delta=0.01))
        assert b == pytest.approx(4 * a, abs=4)


class TestCoresetCalculator:
    def test_unit_constant(self):
        assert coreset_size(BoundParams(epsilon=0.1, delta=0.5, input_dim=10)) == 100

    def test_scaled_constant(self):
        assert coreset_size(BoundParams(epsilon=0.05, delta=0.5, input_dim=5, constant=2.0)) == 200

    def test_monotone_in_epsilon(self):
        sizes = [
            coreset_size(BoundParams(epsilon=eps, delta=0.5, input_dim=7))
            for eps in (0.05, 0.1, 0.2, 0.4)
        ]
        assert sizes == sorted(sizes, reverse=True)


class TestBoundedTextgenCalculator:
    def test_reference_value(self):
        params = BoundParams(epsilon=0.2, delta=0.05, vocab_size=5, output_len=2)
        assert bounded_textgen_size(params) == 242

    def test_length_one_matches_direct_formula(self):
        params = BoundParams(epsilon=0.2, delta=0.1, vocab_size=30, output_len=1)
        expected = math.ceil((math.log(30) / 0.04) * math.log(10))
        assert bounded_textgen_size(params) == expected

    def test_scales_with_length(self):
        short = BoundParams(epsilon=0.2, delta=0.05, vocab_size=10, output_len=1)
        long = BoundParams(epsilon=0.2, delta=0.05, vocab_size=10, output_len=4)
        assert bounded_textgen_size(long) >= 4 * bounded_textgen_size(short) - 4


class TestSubsetPenalty:
    def test_values(self):
        assert subset_penalty(100) == pytest.approx(0.1)
        assert subset_penalty(1) == pytest.approx(1.0)

    def test_quadrupling_size_halves_penalty(self):
        assert subset_penalty(400) == pytest.approx(subset_penalty(100) / 2)

    def test_rejects_zero(self):
        with pytest.raises(ParameterError):
            subset_penalty(0)


# The largest double below 1: 1/delta rounds to 1.0000000000000002, so each log
# argument still exceeds 1 and each size is one.
DELTA_NEXT_TO_ONE = 0.9999999999999999


@pytest.mark.parametrize(
    "calculator, params",
    [
        (knn_context_size, BoundParams(epsilon=0.2, delta=DELTA_NEXT_TO_ONE)),
        (
            lambda p: textgen_samples_per_context(p, "big_o").per_context,
            BoundParams(epsilon=0.2, delta=DELTA_NEXT_TO_ONE, vocab_size=20, num_contexts=1),
        ),
        (
            bounded_textgen_size,
            BoundParams(epsilon=0.2, delta=DELTA_NEXT_TO_ONE, vocab_size=5, output_len=2),
        ),
    ],
)
def test_delta_next_to_one_gives_size_one(calculator, params):
    assert calculator(params) == 1


class TestParamValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epsilon": 0.0, "delta": 0.1},
            {"epsilon": 2.5, "delta": 0.1},
            {"epsilon": 0.1, "delta": 0.0},
            {"epsilon": 0.1, "delta": 1.0},
            {"epsilon": 0.1, "delta": 0.1, "vocab_size": 0},
            {"epsilon": 0.1, "delta": 0.1, "constant": 0.0},
            # One token: refused for every kind, not only where a calculator reads V.
            {"epsilon": 0.1, "delta": 0.1, "vocab_size": 1},
        ],
    )
    def test_rejected(self, kwargs):
        with pytest.raises(ParameterError):
            BoundParams(**kwargs)


@settings(max_examples=150)
@given(
    st.tuples(epsilons, epsilons),
    st.tuples(deltas, deltas),
    st.integers(2, 500),
    st.integers(1, 50),
    st.integers(1, 50),
    st.integers(1, 8),
)
def test_calculators_are_monotone(eps_pair, delta_pair, V, m, d, l):
    """Non-increasing in epsilon and delta; non-decreasing in V, m, d, l."""
    eps_lo, eps_hi = sorted(eps_pair)
    delta_lo, delta_hi = sorted(delta_pair)

    def params(eps, delta, V=V, m=m, d=d, l=l):
        return BoundParams(
            epsilon=eps, delta=delta, vocab_size=V, num_contexts=m, input_dim=d, output_len=l
        )

    for calc in (
        lambda p: textgen_samples_per_context(p, "big_o").per_context,
        lambda p: textgen_samples_per_context(p, "exact").per_context,
        coreset_size,
        knn_context_size,
        bounded_textgen_size,
    ):
        assert calc(params(eps_lo, delta_lo)) >= calc(params(eps_hi, delta_lo))
        assert calc(params(eps_lo, delta_lo)) >= calc(params(eps_lo, delta_hi))

    tight = params(eps_lo, delta_lo)
    assert textgen_samples_per_context(params(eps_lo, delta_lo, V=V + 5), "big_o").per_context >= (
        textgen_samples_per_context(tight, "big_o").per_context
    )
    assert textgen_samples_per_context(params(eps_lo, delta_lo, m=m + 5), "big_o").total >= (
        textgen_samples_per_context(tight, "big_o").total
    )
    assert coreset_size(params(eps_lo, delta_lo, d=d + 5)) >= coreset_size(tight)
    assert bounded_textgen_size(params(eps_lo, delta_lo, l=l + 2)) >= bounded_textgen_size(tight)
    assert bounded_textgen_size(params(eps_lo, delta_lo, V=V + 5)) >= bounded_textgen_size(tight)
