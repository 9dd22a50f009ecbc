import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icl_lab import (
    Context,
    ExperimentConfig,
    IclPromptSamples,
    LabeledDataset,
    ParameterError,
    TrainConfig,
    Vocabulary,
    icl_sequence_dist,
    icl_textgen_dist,
)
from icl_lab.distributions import empirical_distribution, l1_distance, normalized_rows
from icl_lab.oracle import (
    encode_sequences,
    icl_counts_dist,
    icl_counts_rows,
    mix_with_uniform,
    sequence_space,
)


class TestEta:
    @pytest.mark.parametrize("eta", [1.0, -0.1, float("nan"), True, "0.1"])
    def test_refused_from_a_config_and_from_the_responder(self, tiny_config, eta):
        payload = dict(tiny_config("textgen").to_dict(), eta=eta)
        with pytest.raises(ParameterError, match="^eta must be"):
            ExperimentConfig.from_dict(payload)
        with pytest.raises(ParameterError, match="^eta must be"):
            mix_with_uniform(np.full(4, 0.25), eta, 4)
        prompt = IclPromptSamples(per_context={0: [0, 1]})
        with pytest.raises(ParameterError, match="^eta must be"):
            icl_textgen_dist(prompt, Context(0), Vocabulary.of_size(2), eta)

    @pytest.mark.parametrize(
        "eta, stored_type",
        [(0, int), (0.0, float), (np.float32(0.25), float), (np.nextafter(1.0, 0.0), float)],
    )
    def test_accepted_in_zero_to_one(self, tiny_config, eta, stored_type):
        # A numpy float is stored as the plain float, which a report writes as JSON.
        stored = tiny_config("textgen", eta=eta).eta
        assert stored == eta and type(stored) is stored_type
        probs = np.full(4, 0.25)
        assert mix_with_uniform(probs, eta, 4) == pytest.approx(probs)

    def test_mixture_arithmetic(self):
        # A class-1 probability is mixed toward 1/2, over a support of 2.
        assert mix_with_uniform(1.0, 0.2, 2) == pytest.approx(0.9)
        assert mix_with_uniform(0.5, 0.7, 2) == pytest.approx(0.5)
        # With the knob off the mix is the identity.
        probs = np.random.default_rng(2).random(1000)
        assert np.array_equal(mix_with_uniform(probs, 0.0, 2), probs)


class TestTextgenOracle:
    def test_zero_eta_equals_empirical(self):
        prompt = IclPromptSamples(per_context={0: [0, 0, 1, 1]})
        out = icl_textgen_dist(prompt, Context(0), Vocabulary.of_size(2))
        assert list(out.probs) == [0.5, 0.5]

    def test_uniform_mix_arithmetic(self):
        prompt = IclPromptSamples(per_context={0: [0, 0, 0]})
        out = icl_textgen_dist(prompt, Context(0), Vocabulary.of_size(2), 0.2)
        assert out.probs == pytest.approx([0.9, 0.1])

    def test_counts_give_the_samples_answer(self):
        prompt = IclPromptSamples(per_context={0: [2, 0, 2, 2]})
        eta = 0.3
        from_samples = icl_textgen_dist(prompt, Context(0), Vocabulary.of_size(3), eta)
        assert np.array_equal(icl_counts_dist([1, 0, 3], eta).probs, from_samples.probs)

    def test_zero_counts_rejected(self):
        with pytest.raises(ParameterError):
            icl_counts_dist(np.zeros(3, dtype=np.int64))

    @pytest.mark.parametrize("eta", [0.0, 0.3])
    def test_counts_rows_renormalized_are_the_per_vector_answer(self, eta):
        rng = np.random.default_rng(5)
        counts = rng.integers(0, 50, size=(12, 9))
        counts[:, 0] += 1  # no row is empty
        rows = normalized_rows(icl_counts_rows(counts, eta))
        assert rows.shape == counts.shape
        for row, vector in zip(rows, counts):
            assert np.array_equal(row, icl_counts_dist(vector, eta).probs)
        for r in range(len(counts)):
            holed = counts.copy()
            holed[r] = 0
            with pytest.raises(ParameterError, match="zero samples"):
                icl_counts_rows(holed, eta)

    def test_missing_context(self):
        prompt = IclPromptSamples(per_context={0: [0]})
        with pytest.raises(ParameterError):
            icl_textgen_dist(prompt, Context(5), Vocabulary.of_size(2))

    def test_zero_eta_identity_on_random_inputs(self):
        rng = np.random.default_rng(0)
        vocab = Vocabulary.of_size(6)
        for _ in range(25):
            samples = rng.integers(0, 6, size=rng.integers(1, 40))
            prompt = IclPromptSamples(per_context={1: samples})
            out = icl_textgen_dist(prompt, Context(1), vocab)
            assert l1_distance(out, empirical_distribution(samples, vocab)) == 0.0


class TestSequenceOracle:
    def test_length_one_reduces_to_textgen(self):
        samples = [0, 1, 1, 0, 1]
        vocab = Vocabulary.of_size(2)
        tokens = IclPromptSamples(per_context={0: samples})
        seqs = IclPromptSamples(per_context={0: [[s] for s in samples]})
        a = icl_textgen_dist(tokens, Context(0), vocab)
        b = icl_sequence_dist(seqs, Context(0), vocab, 1)
        assert np.array_equal(a.probs, b.probs)

    def test_counting_example(self):
        prompt = IclPromptSamples(per_context={0: [(0, 0), (0, 0), (1, 1), (1, 1)]})
        out = icl_sequence_dist(prompt, Context(0), Vocabulary.of_size(2), 2)
        assert out.probs == pytest.approx([0.5, 0.0, 0.0, 0.5])

    def test_identical_samples_give_point_mass(self):
        prompt = IclPromptSamples(per_context={0: [(1, 0)] * 7})
        out = icl_sequence_dist(prompt, Context(0), Vocabulary.of_size(2), 2)
        assert out.probs == pytest.approx([0.0, 0.0, 1.0, 0.0])

    def test_explosion_limit(self):
        # The fixed cap is 10^6 outcomes: 1001^2, 10^7 and 2^20 are past it.
        for vocab_size, length in [(1001, 2), (10, 7), (2, 20)]:
            prompt = IclPromptSamples(per_context={0: [(0,) * length]})
            with pytest.raises(ParameterError, match="exceeds the limit 1000000"):
                icl_sequence_dist(prompt, Context(0), Vocabulary.of_size(vocab_size), length)
        for vocab_size, length in [(1000, 2), (10, 6), (2, 19)]:
            prompt = IclPromptSamples(per_context={0: [(1,) * length]})
            out = icl_sequence_dist(prompt, Context(0), Vocabulary.of_size(vocab_size), length)
            assert out.size == vocab_size**length

    def test_space_past_the_limit_is_refused_before_it_is_computed(self):
        prompt = IclPromptSamples(per_context={0: [(0,) * 5000]})
        with pytest.raises(ParameterError, match=r"V\^l = 10\^5000 exceeds the limit 1000000;"):
            icl_sequence_dist(prompt, Context(0), Vocabulary.of_size(10), 5000)

    @pytest.mark.parametrize("length", [0, 2.0])
    def test_non_integer_or_non_positive_length_rejected(self, length):
        prompt = IclPromptSamples(per_context={0: [(0, 0)]})
        vocab = Vocabulary.of_size(2)
        with pytest.raises(ParameterError):
            icl_sequence_dist(prompt, Context(0), vocab, length)

    def test_sequence_space_refuses_exactly_the_spaces_past_the_limit(self):
        for vocab_size, length in [(1000, 2), (10, 6), (2, 19), (1, 10**9)]:
            assert sequence_space(vocab_size, length) == vocab_size**length
        for vocab_size, length in [(1001, 2), (10, 7), (2, 20)]:
            with pytest.raises(ParameterError):
                sequence_space(vocab_size, length)

    def test_first_coordinate_marginal_matches_textgen(self):
        rng = np.random.default_rng(3)
        vocab = Vocabulary.of_size(3)
        seqs = rng.integers(0, 3, size=(50, 2))
        joint = icl_sequence_dist(
            IclPromptSamples(per_context={0: seqs}), Context(0), vocab, 2
        )
        marginal = joint.probs.reshape(3, 3).sum(axis=1)
        firsts = icl_textgen_dist(
            IclPromptSamples(per_context={0: seqs[:, 0]}), Context(0), vocab
        )
        assert marginal == pytest.approx(firsts.probs)

    def test_wrong_length_rejected(self):
        with pytest.raises(ParameterError):
            encode_sequences([(0, 1, 0)], 2, 2)

    def test_token_outside_vocabulary_rejected(self):
        with pytest.raises(IndexError, match=r"\[0, 2\)"):
            encode_sequences([(0, 1), (2, 0)], 2, 2)

    @pytest.mark.parametrize("samples", [[(0.5, 1.0)], [(True, False)], [("1", "0")]])
    def test_non_integer_tokens_rejected_not_cast(self, samples):
        prompt = IclPromptSamples(per_context={0: samples})
        with pytest.raises(ParameterError, match="token indices must be integers"):
            icl_sequence_dist(prompt, Context(0), Vocabulary.of_size(2), 2)

    def test_empty_prompt_rejected_as_textgen_rejects_it(self):
        # An empty list or flat array is a (0,) array, not (0, 2): no shape message.
        for empty in (np.empty((0, 2), np.int64), [], np.empty(0, np.int64)):
            prompt = IclPromptSamples(per_context={0: empty})
            with pytest.raises(ParameterError, match="from an empty sample list"):
                icl_sequence_dist(prompt, Context(0), Vocabulary.of_size(2), 2)


@settings(max_examples=150)
@given(
    st.integers(2, 10),
    st.lists(st.integers(0, 9), min_size=1, max_size=50),
    st.floats(0.0, 0.99),
)
def test_oracle_outputs_valid_and_close_to_empirical(vocab_size, raw_samples, eta):
    """Outputs are distributions; the uniform mix moves L1 mass at most 2*eta."""
    samples = [s % vocab_size for s in raw_samples]
    vocab = Vocabulary.of_size(vocab_size)
    prompt = IclPromptSamples(per_context={0: samples})
    out = icl_textgen_dist(prompt, Context(0), vocab, eta)
    assert out.probs.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(out.probs >= 0)
    empirical = empirical_distribution(samples, vocab)
    assert l1_distance(out, empirical) <= 2 * eta + 1e-12


def test_mix_with_uniform_on_point_mass():
    mixed = mix_with_uniform(np.array([1.0, 0.0, 0.0, 0.0]), 0.4, 4)
    assert mixed == pytest.approx([0.7, 0.1, 0.1, 0.1])
