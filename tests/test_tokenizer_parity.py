"""Parity between the span-scanning tokenizer and the per-character
loop it replaced.

:func:`repro.parsing.parse_csv_outcome` jumps between a dialect's
special characters and splits plain lines whole.  That is a pure
performance change: records and both recovery flags must equal those
of the original character-at-a-time loop, kept here verbatim as the
reference, under every dialect the detector can propose.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dialect.detector import (
    CANDIDATE_DELIMITERS,
    CANDIDATE_ESCAPES,
    CANDIDATE_QUOTES,
)
from repro.dialect.dialect import Dialect
from repro.fuzz.harness import FuzzConfig, _base_inputs
from repro.fuzz.mutations import MUTATORS
from repro.io.ingest import IngestPolicy, decode_bytes
from repro.parsing import ParseOutcome, parse_csv_outcome
from repro.util.rng import as_generator


# ----------------------------------------------------------------------
# Legacy reference implementation (the pre-change tokenizer, verbatim)
# ----------------------------------------------------------------------
def legacy_parse_csv_outcome(text: str, dialect: Dialect) -> ParseOutcome:
    delimiter = dialect.delimiter
    quote = dialect.quotechar or ""
    escape = dialect.escapechar or ""

    records: list[list[str]] = []
    fields: list[str] = []
    current: list[str] = []
    in_quotes = False
    dangling_escape = False
    i = 0
    n = len(text)

    def end_field() -> None:
        fields.append("".join(current))
        current.clear()

    def end_record() -> None:
        end_field()
        records.append(list(fields))
        fields.clear()

    while i < n:
        ch = text[i]
        if in_quotes:
            if escape and ch == escape and i + 1 < n:
                current.append(text[i + 1])
                i += 2
                continue
            if quote and ch == quote:
                if i + 1 < n and text[i + 1] == quote:
                    # RFC 4180 doubled quote inside a quoted field.
                    current.append(quote)
                    i += 2
                    continue
                in_quotes = False
                i += 1
                continue
            current.append(ch)
            i += 1
            continue

        if escape and ch == escape and i + 1 < n:
            current.append(text[i + 1])
            i += 2
            continue
        if quote and ch == quote and not current:
            # A quote opens a quoted field only at field start.
            in_quotes = True
            i += 1
            continue
        if delimiter and ch == delimiter:
            end_field()
            i += 1
            continue
        if ch == "\r":
            end_record()
            if i + 1 < n and text[i + 1] == "\n":
                i += 2
            else:
                i += 1
            continue
        if ch == "\n":
            end_record()
            i += 1
            continue
        if escape and ch == escape and i + 1 >= n:
            # An escape character with nothing after it escapes
            # nothing; it stays literal, which the outcome records.
            dangling_escape = True
        current.append(ch)
        i += 1

    if current or fields or (n > 0 and text[-1] not in "\r\n"):
        end_record()
    return ParseOutcome(
        records,
        unterminated_quote=in_quotes,
        dangling_escape=dangling_escape,
    )


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
#: Every dialect the detector can enumerate: 8 delimiters x 3 quote
#: options x 2 escape options, none of which clash.
CANDIDATE_DIALECTS: tuple[Dialect, ...] = tuple(
    Dialect(delimiter, quote, escape)
    for delimiter in CANDIDATE_DELIMITERS
    for quote in CANDIDATE_QUOTES
    for escape in CANDIDATE_ESCAPES
)

#: Characters some candidate dialect treats specially, plus the three
#: line breaks, drawn as often as ordinary text.
_SPECIALS = (*CANDIDATE_DELIMITERS, '"', "'", "\\", "\r", "\n", "\r\n")
_TEXTS = st.lists(
    st.one_of(
        st.sampled_from(_SPECIALS),
        st.sampled_from(("a", "7", "2.5", "x y")),
        st.characters(blacklist_categories=("Cs",)),
    ),
    max_size=60,
).map("".join)

#: Leading iterations of the seed-0 fuzz run replayed below: enough to
#: fire every mutator (asserted), few enough that the
#: character-at-a-time reference stays cheap.
_FUZZ_ITERATIONS = 30


def _seed0_fuzz_texts() -> tuple[list[str], set[str]]:
    """The seed-0 fuzz harness's mutants, decoded as ingest decodes
    them, and the names of the mutators that produced them.

    Replays the draw sequence of :func:`repro.fuzz.run_fuzz`.
    """
    config = FuzzConfig(seed=0)
    rng = as_generator(config.seed)
    bases = _base_inputs(config)
    policy = IngestPolicy(max_bytes=config.max_bytes)
    texts: list[str] = []
    fired: set[str] = set()
    for _ in range(_FUZZ_ITERATIONS):
        data = bases[int(rng.integers(len(bases)))].encode("utf-8")
        for _ in range(1 + int(rng.integers(config.max_mutations))):
            name, mutate = MUTATORS[int(rng.integers(len(MUTATORS)))]
            data = mutate(data, rng)
            fired.add(name)
        texts.append(decode_bytes(data, policy)[0])
    return texts, fired


def _assert_parity(text: str) -> None:
    for dialect in CANDIDATE_DIALECTS:
        assert parse_csv_outcome(text, dialect) == legacy_parse_csv_outcome(
            text, dialect
        ), (text, dialect)


# ----------------------------------------------------------------------
# Parity
# ----------------------------------------------------------------------
@given(text=_TEXTS)
@settings(max_examples=200, deadline=None)
def test_parity_on_special_heavy_text(text):
    _assert_parity(text)


def test_parity_on_seed0_fuzz_mutants():
    texts, fired = _seed0_fuzz_texts()
    assert fired == {name for name, _ in MUTATORS}
    for text in texts:
        _assert_parity(text)


def test_parity_on_awkward_line_breaks_and_quotes():
    for text in (
        "",
        "\n",
        "\r\n\r\n",
        "a\r",
        '""',
        '"',
        'a,"',
        '"a""b",c\r\nd',
        '""x,y\n',
        "a\\",
        "a\\\\",
        '"a\\',
        "a\\\r\nb",
        "x,y\rz\n\"q\r\n",
    ):
        _assert_parity(text)
