"""Prompt assembly.

Prompts are built by concatenating example pairs and the query with a
separator:  ``x_1 y_1 [SEP] x_2 y_2 [SEP] ... x_N y_N [SEP] query``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

from .errors import ParameterError


class SeparatorCollisionWarning(UserWarning):
    """The separator occurs inside an example or query text."""


@dataclass(frozen=True)
class ExamplePair:
    """One demonstration: an input text and its output text."""

    input_text: str
    output_text: str

    def __post_init__(self):
        for text in (self.input_text, self.output_text):
            if not isinstance(text, str):
                raise ParameterError(f"example texts must be strings, got {text!r}")
        if not self.input_text:
            raise ParameterError("example input text must be non-empty")


@dataclass(frozen=True)
class PromptConfig:
    separator: str = "[SEP]"
    pair_joiner: str = " "
    trailing_separator_before_query: bool = True

    def __post_init__(self):
        if not isinstance(self.separator, str) or not self.separator:
            raise ParameterError(f"separator must be a non-empty string, got {self.separator!r}")
        if not isinstance(self.pair_joiner, str):
            raise ParameterError(f"pair_joiner must be a string, got {self.pair_joiner!r}")
        if not isinstance(self.trailing_separator_before_query, bool):
            raise ParameterError(
                "trailing_separator_before_query must be true or false, "
                f"got {self.trailing_separator_before_query!r}"
            )


def build_prompt(
    pairs: Sequence[ExamplePair], query: str, config: PromptConfig = PromptConfig()
) -> str:
    """Concatenate example pairs and the query into one prompt string.

    With zero pairs the prompt is the query alone.  Pairs can be parsed back
    out of the prompt only while neither the separator nor the joiner occurs
    inside the texts; a separator collision is allowed but warned about, since
    it makes example boundaries ambiguous to the consumer.
    """
    if not isinstance(query, str) or not query:
        raise ParameterError(f"query must be a non-empty string, got {query!r}")
    texts = [t for pair in pairs for t in (pair.input_text, pair.output_text)] + [query]
    if any(config.separator in text for text in texts):
        warnings.warn(
            f"separator {config.separator!r} occurs inside an example or query text; "
            "example boundaries will be ambiguous",
            SeparatorCollisionWarning,
            stacklevel=2,
        )
    parts: list[str] = []
    for pair in pairs:
        parts += [pair.input_text, pair.output_text, config.separator]
    if parts and not config.trailing_separator_before_query:
        parts.pop()
    parts.append(query)
    return config.pair_joiner.join(parts)
