"""Per-line suppression comments: ``# repro: noqa[R001]``.

Three accepted spellings, always on the same physical line as the
finding (for multi-line statements: the line where the statement
starts, which is where every rule anchors its findings):

* ``# repro: noqa`` — waive every rule on this line;
* ``# repro: noqa[R002]`` — waive one rule;
* ``# repro: noqa[R001,R004]`` — waive several.

Comments are located with :mod:`tokenize` rather than substring
search, so a string literal *containing* the marker never suppresses
anything.
"""

from __future__ import annotations

import io
import re
import tokenize

_MARKER = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<ids>[A-Z0-9,\s]+)\])?", re.IGNORECASE
)

#: Sentinel meaning "all rules suppressed on this line".
ALL_RULES = frozenset({"*"})


def collect_suppressions(source: str) -> dict[int, frozenset[str]]:
    """Map line number -> suppressed rule ids (``ALL_RULES`` = all).

    Unreadable or syntactically broken trailing source (tokenize can
    fail on files :func:`ast.parse` accepts only in exotic cases) is
    treated as having no suppressions; the lint run itself will
    surface the real problem.
    """
    suppressed: dict[int, frozenset[str]] = {}
    if not _MARKER.search(source):
        # No comment can hold a marker the whole text lacks: skip
        # tokenizing, most of a lint run's parse time.
        return suppressed
    reader = io.StringIO(source).readline
    try:
        tokens = list(tokenize.generate_tokens(reader))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return suppressed
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _MARKER.search(token.string)
        if not match:
            continue
        line = token.start[0]
        ids = match.group("ids")
        if ids is None:
            suppressed[line] = ALL_RULES
        else:
            parsed = frozenset(
                part.strip().upper()
                for part in ids.split(",")
                if part.strip()
            )
            suppressed[line] = suppressed.get(line, frozenset()) | parsed
    return suppressed


def is_suppressed(
    suppressions: dict[int, frozenset[str]], line: int, rule_id: str
) -> bool:
    """True when ``rule_id`` is waived on ``line``."""
    ids = suppressions.get(line)
    if ids is None:
        return False
    return ids is ALL_RULES or "*" in ids or rule_id in ids
