"""Dialect-aware CSV tokenizer.

This is a from-scratch implementation of RFC-4180 parsing generalized
to arbitrary dialects: any single-character delimiter, an optional
quote character, and an optional escape character.  It is the single
code path used both by the dialect detector (which must parse the same
text under many candidate dialects) and by the user-facing reader.

The grammar implemented here:

* Records are separated by ``\\n``, ``\\r\\n`` or ``\\r``.
* Fields are separated by the dialect delimiter.
* A field may be quoted: it then starts and ends with the quote
  character, may contain delimiters and newlines, and represents an
  embedded quote either as a doubled quote (RFC 4180) or as an escaped
  quote when an escape character is configured.
* Outside quotes, an escape character makes the following character
  literal.

Malformed input (e.g. an unterminated quote) is handled leniently —
the remainder of the text becomes part of the current field — because
dialect detection must be able to score *wrong* dialects without
raising.

The tokenizer never walks the text one character at a time.  A line
holding neither the quote nor the escape character is split on the
delimiter with ``str.split``, a run of such lines at once.  Any other
record is scanned by regex jumps to the next character that can end
the current run (delimiter, escape or line break outside quotes; quote
or escape inside), appending the slices in between whole.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.dialect.dialect import Dialect

_LINE_BREAK = re.compile(r"\r\n|\r|\n")


@dataclass(frozen=True)
class ParseOutcome:
    """Records plus the lenient-recovery facts of one parse.

    The tokenizer never raises on malformed input (dialect detection
    must be able to score *wrong* dialects), but downstream policy —
    the strict/lenient knob of :mod:`repro.io.ingest` — needs to know
    when lenience actually fired.  ``unterminated_quote`` is true when
    the text ended inside a quoted field and the remainder was folded
    into the current field; ``dangling_escape`` is true when the final
    character was a configured escape character, which has nothing to
    escape and is kept literal.
    """

    records: list[list[str]]
    unterminated_quote: bool = False
    dangling_escape: bool = False


def split_record(line: str, dialect: Dialect) -> list[str]:
    """Split a single record (no embedded newlines) into fields."""
    records = parse_csv_text(line, dialect)
    if not records:
        return [""]
    return records[0]


def parse_csv_text(text: str, dialect: Dialect) -> list[list[str]]:
    """Parse ``text`` into records of fields under ``dialect``.

    Returns a list of records; each record is a list of raw field
    strings with quotes and escapes resolved.  The trailing newline of
    the text does not produce an extra empty record.
    """
    return parse_csv_outcome(text, dialect).records


def parse_csv_outcome(text: str, dialect: Dialect) -> ParseOutcome:
    """Like :func:`parse_csv_text`, also reporting recovery facts."""
    delimiter = dialect.delimiter
    quote = dialect.quotechar
    escape = dialect.escapechar
    # Outside quotes a field runs until a delimiter, an escape or a
    # line break; inside quotes until a quote or an escape, which also
    # mark the lines that cannot simply be split.  ``re`` keeps its own
    # cache of compiled patterns, so repeat dialects compile nothing.
    unquoted_stop = re.compile(f"[{re.escape(delimiter + escape)}\r\n]")
    quote_or_escape = (
        re.compile(f"[{re.escape(quote + escape)}]")
        if quote or escape
        else None
    )
    # Splitting plain lines assumes no special character is a line
    # break.
    plain_lines = not ({delimiter, quote, escape} & {"\r", "\n"})

    records: list[list[str]] = []
    fields: list[str] = []
    current: list[str] = []
    field_start = True
    in_quotes = False
    dangling_escape = False
    pos = 0
    n = len(text)

    while pos < n:
        if in_quotes:
            match = quote_or_escape.search(text, pos)
            if match is None:
                current.append(text[pos:])
                break
            stop = match.start()
            if stop > pos:
                current.append(text[pos:stop])
            if text[stop] == quote:
                if text.startswith(quote, stop + 1):
                    # RFC 4180 doubled quote inside a quoted field.
                    current.append(quote)
                    pos = stop + 2
                else:
                    in_quotes = False
                    pos = stop + 1
            elif stop + 1 < n:
                # An escape makes the next character literal.
                current.append(text[stop + 1])
                pos = stop + 2
            else:
                # A trailing escape inside an open quote stays literal.
                current.append(escape)
                break
            continue

        if field_start:
            if plain_lines and not fields:
                # A record starts here: split the plain lines before
                # the next quote or escape in one go.
                stop = n
                if quote_or_escape is not None:
                    match = quote_or_escape.search(text, pos)
                    if match is not None:
                        stop = match.start()
                end = max(text.rfind("\n", pos, stop), text.rfind("\r", pos, stop))
                if end >= pos:
                    # text[pos:end + 1] is whole lines, each ending in
                    # a line break; end never splits a \r\n.
                    block = text[pos:end + 1]
                    lines = (
                        _LINE_BREAK.split(block)
                        if "\r" in block
                        else block.split("\n")
                    )
                    lines.pop()
                    records.extend([line.split(delimiter) for line in lines])
                    pos = end + 1
                    continue
            if text[pos] == quote:
                # A quote opens a quoted field only at field start.
                in_quotes = True
                field_start = False
                pos += 1
                continue

        match = unquoted_stop.search(text, pos)
        if match is None:
            current.append(text[pos:])
            break
        stop = match.start()
        if stop > pos:
            current.append(text[pos:stop])
            field_start = False
        char = text[stop]
        if char == escape and stop + 1 < n:
            current.append(text[stop + 1])
            field_start = False
            pos = stop + 2
        elif char == delimiter:
            fields.append("".join(current))
            current.clear()
            field_start = True
            pos = stop + 1
        elif char == "\r" or char == "\n":
            fields.append("".join(current))
            current.clear()
            records.append(fields)
            fields = []
            field_start = True
            pos = stop + 2 if text.startswith("\r\n", stop) else stop + 1
        else:
            # An escape character with nothing after it escapes
            # nothing; it stays literal, which the outcome records.
            dangling_escape = True
            current.append(char)
            break

    if current or fields or (n > 0 and text[-1] not in "\r\n"):
        fields.append("".join(current))
        records.append(fields)
    return ParseOutcome(
        records,
        unterminated_quote=in_quotes,
        dangling_escape=dangling_escape,
    )
