"""Writing tables back out as CSV text under a chosen dialect."""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

from repro.dialect.dialect import Dialect
from repro.types import Table


def _needs_quoting(value: str, dialect: Dialect) -> bool:
    specials = {dialect.delimiter, "\n", "\r"}
    if dialect.quotechar:
        specials.add(dialect.quotechar)
    if dialect.escapechar:
        # Written raw, the parser would read it as an escape.
        specials.add(dialect.escapechar)
    return any(ch in value for ch in specials)


def _encode_field(value: str, dialect: Dialect) -> str:
    """Encode a single field, quoting/escaping as the dialect requires."""
    if not _needs_quoting(value, dialect):
        return value
    quote = dialect.quotechar
    if quote:
        if dialect.escapechar:
            escaped = value.replace(
                dialect.escapechar, dialect.escapechar * 2
            ).replace(quote, dialect.escapechar + quote)
        else:
            escaped = value.replace(quote, quote * 2)
        return f"{quote}{escaped}{quote}"
    if dialect.escapechar:
        out = []
        for ch in value:
            if ch in (dialect.delimiter, dialect.escapechar, "\n", "\r"):
                out.append(dialect.escapechar)
            out.append(ch)
        return "".join(out)
    # No quoting mechanism available: replace the offending characters,
    # which loses information but never corrupts the record structure.
    return (
        value.replace(dialect.delimiter, " ")
        .replace("\n", " ")
        .replace("\r", " ")
    )


def write_csv_text(rows: Iterable[Sequence[str]],
                   dialect: Dialect | None = None) -> str:
    """Serialize ``rows`` as CSV text under ``dialect`` (standard default)."""
    if dialect is None:
        dialect = Dialect.standard()
    lines = [
        dialect.delimiter.join(_encode_field(v, dialect) for v in row)
        for row in rows
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def write_table(table: Table, path: str | Path,
                dialect: Dialect | None = None,
                encoding: str = "utf-8") -> None:
    """Write ``table`` to ``path`` as CSV."""
    Path(path).write_text(write_csv_text(table.rows(), dialect),
                          encoding=encoding)
