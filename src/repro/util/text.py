"""Text helpers shared by the feature extractors.

The paper defines a *word* as "a sequence of alphanumeric characters"
(Section 4, ``WordAmount``).  These helpers implement that definition
once so every feature agrees on it.
"""

from __future__ import annotations

import re

_WORD_PATTERN = re.compile(r"[A-Za-z0-9]+")


def tokenize_words(text: str) -> list[str]:
    """Split ``text`` into maximal runs of alphanumeric characters.

    >>> tokenize_words("Total (2019): 1,234")
    ['Total', '2019', '1', '234']
    """
    return _WORD_PATTERN.findall(text)


def count_words(text: str) -> int:
    """Number of alphanumeric words in ``text``."""
    return len(tokenize_words(text))


def is_alphanumeric_word(token: str) -> bool:
    """Whether ``token`` is a single alphanumeric word."""
    return bool(token) and _WORD_PATTERN.fullmatch(token) is not None
