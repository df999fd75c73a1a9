"""Type score for the data-consistency dialect measure.

Following van den Burg et al., the *type score* of a parse is the
fraction of cells whose value matches one of a fixed set of known data
types.  A correct dialect splits a file into semantically coherent
cells (numbers, dates, short words), while a wrong one produces merged
fragments that match nothing.
"""

from __future__ import annotations

import re
from collections import Counter
from itertools import chain

# Ordered list of (name, pattern) pairs; a cell is "known" if any matches.
_KNOWN_TYPE_PATTERNS: list[tuple[str, re.Pattern[str]]] = [
    ("empty", re.compile(r"^\s*$")),
    ("integer", re.compile(r"^[+-]?\d{1,3}(,\d{3})*$|^[+-]?\d+$")),
    (
        "float",
        re.compile(
            r"^[+-]?(\d{1,3}(,\d{3})*|\d+)?\.\d+([eE][+-]?\d+)?$"
            r"|^[+-]?\d+[eE][+-]?\d+$"
        ),
    ),
    ("percentage", re.compile(r"^[+-]?\d+(\.\d+)?\s?%$")),
    ("currency", re.compile(r"^[$€£]\s?-?\d{1,3}(,\d{3})*(\.\d+)?$")),
    (
        "date",
        re.compile(
            r"^\d{4}[-/.]\d{1,2}[-/.]\d{1,2}$"
            r"|^\d{1,2}[-/.]\d{1,2}[-/.]\d{2,4}$"
            r"|^\d{4}$"
        ),
    ),
    ("time", re.compile(r"^\d{1,2}:\d{2}(:\d{2})?$")),
    ("word", re.compile(r"^[A-Za-z][A-Za-z0-9_' .\-]{0,30}$")),
    ("email", re.compile(r"^[\w.+-]+@[\w-]+\.[\w.]+$")),
    ("url", re.compile(r"^https?://\S+$")),
    ("missing", re.compile(r"(?i:^(n/?a|nan|null|none|-+|\?)$)")),
]

#: All known types as one alternation, for the yes/no question.
_KNOWN_TYPE = re.compile(
    "|".join(f"(?:{pattern.pattern})" for _, pattern in _KNOWN_TYPE_PATTERNS)
)


def cell_type_name(value: str) -> str | None:
    """Name of the first known type matching ``value``, or ``None``."""
    stripped = value.strip()
    for name, pattern in _KNOWN_TYPE_PATTERNS:
        if pattern.match(stripped):
            return name
    return None


def is_known_type(value: str) -> bool:
    """Whether ``value`` matches any known data type."""
    return _KNOWN_TYPE.match(value.strip()) is not None


def type_score(rows: list[list[str]], eps: float = 1e-10) -> float:
    """Fraction of cells with a recognizable type, floored at ``eps``.

    The floor keeps the overall consistency measure (a product) from
    collapsing to zero for dialects that still produce a highly regular
    pattern, mirroring the published formulation.
    """
    return shared_type_score(rows, {}, eps)


def shared_type_score(
    rows: list[list[str]], verdicts: dict[str, bool], eps: float = 1e-10
) -> float:
    """:func:`type_score`, testing each distinct value once.

    ``verdicts`` maps values to their :func:`is_known_type` answers; a
    value not in it is tested and added.  One dialect detection passes
    one dict to every candidate it scores, because parses of the same
    text mostly share their cells.  The known cells are still counted
    as an integer, so the score is the same float.
    """
    total = sum(map(len, rows))
    if total == 0:
        return eps
    known = 0
    for value, count in Counter(chain.from_iterable(rows)).items():
        verdict = verdicts.get(value)
        if verdict is None:
            verdict = verdicts[value] = is_known_type(value)
        if verdict:
            known += count
    return max(known / total, eps)
