"""Cell data-type inference.

The cell feature ``DataType`` (Section 5.1) distinguishes four types —
``int``, ``float``, ``string`` and ``date`` — to which we add the
``EMPTY`` sentinel for blank cells.  :func:`parse_number` is the shared
numeric parser used by the derived cell detection (Algorithm 2): it
accepts thousands separators, leading currency symbols, trailing
percent signs and accounting-style parenthesized negatives.
"""

from __future__ import annotations

import re
from functools import lru_cache

from repro.types import DataType

#: Bound on the memo of each classification function.  Verbose CSV
#: corpora repeat values heavily (years, group labels, small
#: integers), so even a modest bound absorbs nearly all repeats while
#: keeping worst-case memory fixed.
_MEMO_SIZE = 65536

_INT_PATTERN = re.compile(r"^[+-]?\d{1,3}(,\d{3})+$|^[+-]?\d+$")
_FLOAT_PATTERN = re.compile(
    r"^[+-]?(\d{1,3}(,\d{3})+|\d+)?\.\d+([eE][+-]?\d+)?$"
    r"|^[+-]?\d+[eE][+-]?\d+$"
)
_DATE_PATTERNS = (
    re.compile(r"^\d{4}[-/.]\d{1,2}([-/.]\d{1,2})?$"),
    re.compile(r"^\d{1,2}[-/.]\d{1,2}[-/.]\d{2,4}$"),
    re.compile(
        r"^\d{1,2}\s+(jan|feb|mar|apr|may|jun|jul|aug|sep|oct|nov|dec)"
        r"[a-z]*\.?\s*\d{0,4}$",
        re.IGNORECASE,
    ),
    re.compile(
        r"^(jan|feb|mar|apr|may|jun|jul|aug|sep|oct|nov|dec)[a-z]*\.?"
        r"\s+\d{1,2}(,?\s*\d{4})?$",
        re.IGNORECASE,
    ),
)
_NUMBER_CLEANUP = re.compile(r"^[\s$€£]+|[\s%]+$")


@lru_cache(maxsize=_MEMO_SIZE)
def infer_data_type(value: str) -> DataType:
    """The :class:`DataType` of a raw cell value.

    A four-digit bare number such as ``"2019"`` is classified as
    ``INT`` — the paper explicitly discusses numeric year headers being
    typed like data, which this choice reproduces.

    Memoized with a bounded LRU cache: the regex cascade runs once per
    distinct value, so callers outside the columnar
    :class:`~repro.core.profile.TableProfile` (the baselines) also stop
    re-classifying repeated values.  Dialect detection never calls it:
    its type score has its own patterns
    (:mod:`repro.dialect.type_score`).
    """
    stripped = value.strip()
    if not stripped:
        return DataType.EMPTY
    for pattern in _DATE_PATTERNS:
        if pattern.match(stripped):
            return DataType.DATE
    if _INT_PATTERN.match(stripped):
        return DataType.INT
    if _FLOAT_PATTERN.match(stripped):
        return DataType.FLOAT
    return DataType.STRING


def is_numeric_type(dtype: DataType) -> bool:
    """Whether the type participates in arithmetic (int or float)."""
    return dtype in (DataType.INT, DataType.FLOAT)


@lru_cache(maxsize=_MEMO_SIZE)
def parse_number(value: str) -> float | None:
    """Parse a cell into a float, or ``None`` if it is not numeric.

    Handles thousands separators (``1,234,567``), leading currency
    symbols, trailing percent signs, and accounting negatives
    (``(123)`` meaning ``-123``).  Dates are *not* numbers.

    Memoized like :func:`infer_data_type`; the returned floats are
    immutable, so sharing cached results is safe.
    """
    stripped = value.strip()
    if not stripped:
        return None
    negative = False
    if stripped.startswith("(") and stripped.endswith(")"):
        stripped = stripped[1:-1].strip()
        negative = True
    stripped = _NUMBER_CLEANUP.sub("", stripped)
    if not stripped:
        return None
    dtype = infer_data_type(stripped)
    if dtype not in (DataType.INT, DataType.FLOAT):
        return None
    try:
        number = float(stripped.replace(",", ""))
    except ValueError:  # pragma: no cover - patterns should prevent this
        return None
    return -number if negative else number
