import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icl_lab import (
    ExamplePair,
    ParameterError,
    PromptConfig,
    SeparatorCollisionWarning,
    build_prompt,
)

SENTIMENT_PAIRS = [
    ExamplePair("Great movie!", "positive"),
    ExamplePair("Terrible plot.", "negative"),
]
CAPITAL_PAIRS = [
    ExamplePair("What is the capital of France?", "Paris"),
    ExamplePair("What is the capital of Japan?", "Tokyo"),
]


class TestBuildPrompt:
    def test_sentiment_reference_string(self):
        assert build_prompt(SENTIMENT_PAIRS, "Amazing soundtrack!") == (
            "Great movie! positive [SEP] Terrible plot. negative [SEP] Amazing soundtrack!"
        )

    def test_question_answering_reference_string(self):
        assert build_prompt(CAPITAL_PAIRS, "What is the capital of Brazil?") == (
            "What is the capital of France? Paris [SEP] "
            "What is the capital of Japan? Tokyo [SEP] "
            "What is the capital of Brazil?"
        )

    def test_zero_pairs_returns_query(self):
        assert build_prompt([], "q") == "q"

    def test_no_trailing_separator_option(self):
        config = PromptConfig(trailing_separator_before_query=False)
        assert build_prompt(SENTIMENT_PAIRS[:1], "q", config) == "Great movie! positive q"

    def test_custom_separator_and_joiner(self):
        config = PromptConfig(separator="<|SEP|>", pair_joiner="\n")
        assert build_prompt(SENTIMENT_PAIRS[:1], "q", config) == (
            "Great movie!\npositive\n<|SEP|>\nq"
        )

    def test_empty_query_rejected(self):
        with pytest.raises(ParameterError):
            build_prompt(SENTIMENT_PAIRS, "")

    def test_separator_collision_warns(self):
        with pytest.warns(SeparatorCollisionWarning):
            build_prompt([ExamplePair("left [SEP] right", "out")], "q")

    def test_round_trip_for_token_texts(self):
        # With single-token texts and a clean separator the prompt parses
        # back into exactly the pairs and query that built it.
        pairs = [ExamplePair("alpha", "beta"), ExamplePair("gamma", "delta")]
        prompt = build_prompt(pairs, "omega")
        chunks = prompt.split(" [SEP] ")
        assert chunks[-1] == "omega"
        parsed = [tuple(chunk.split(" ")) for chunk in chunks[:-1]]
        assert parsed == [("alpha", "beta"), ("gamma", "delta")]


words = st.text(alphabet="abcdefghij", min_size=1, max_size=6)


@settings(max_examples=100)
@given(st.lists(st.tuples(words, words), min_size=0, max_size=5), words)
def test_build_prompt_round_trip_property(raw_pairs, query):
    pairs = [ExamplePair(x, y) for x, y in raw_pairs]
    prompt = build_prompt(pairs, query)
    chunks = prompt.split(" [SEP] ") if pairs else [prompt]
    assert chunks[-1] == query
    parsed = [tuple(chunk.split(" ")) for chunk in chunks[:-1]]
    assert parsed == [(p.input_text, p.output_text) for p in pairs]


def test_example_pair_requires_input():
    with pytest.raises(ParameterError):
        ExamplePair("", "out")
