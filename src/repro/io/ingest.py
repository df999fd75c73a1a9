"""Hardened ingestion: bytes (or text) in, ``Table`` + report out.

Real verbose CSV files arrive with byte-order marks, mixed or wrong
encodings, NUL bytes, unterminated quotes and absurd sizes.  Before
this module existed each entry point improvised: the library reader
raised raw ``UnicodeDecodeError`` on any non-UTF-8 byte, a UTF-8 BOM
leaked ``\\ufeff`` into cell (0, 0) — poisoning keyword features and
the content-hash cache key — and the CLI silently decoded with
``errors="replace"`` so the library and the CLI disagreed about what a
file contained.

:func:`ingest_bytes` / :func:`ingest_path` / :func:`ingest_text` are
now the single code path every entry point routes through.  The
contract, locked in by the seeded fuzz harness (:mod:`repro.fuzz`):
**any** input yields either an :class:`IngestResult` or an
:class:`~repro.errors.IngestError` — never a raw decoding or indexing
exception — and nothing is repaired silently: every recovery is
counted in the attached :class:`IngestReport`.

The stage does three things, in order:

1. **Encoding resolution** — sniff a BOM (UTF-32 before UTF-16 before
   UTF-8, longest match first), else try strict UTF-8, else walk the
   policy's fallback chain (default ``latin-1``, which accepts any
   byte).  Strict mode raises :class:`~repro.errors.EncodingError`
   when all of that fails; lenient mode decodes with U+FFFD
   substitution and counts the replacements.
2. **Damage policy** — a size guard (strict: raise, lenient: truncate
   at a record boundary), NUL characters (strict: raise, lenient:
   strip and count) and unterminated quotes (strict: raise, lenient:
   keep the tokenizer's fold-into-field recovery and flag it).
3. **Structure** — dialect detection on the *cleaned* text, the
   generalized RFC-4180 parse, and rectangular padding, with the
   padded-cell count recorded.

Strict and lenient mode are byte-identical whenever no recovery fires
(:attr:`IngestReport.recovered` is false); the fuzz harness asserts
this by comparing feature matrices.  See ``docs/robustness.md``.
"""

from __future__ import annotations

import codecs
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.dialect.detector import DialectDetector
from repro.dialect.dialect import Dialect
from repro.errors import (
    DialectError,
    EncodingError,
    MalformedInputError,
    SizeLimitError,
)
from repro.obs import get_metrics, get_tracer
from repro.parsing import parse_csv_outcome
from repro.types import Table

#: Default byte budget: far above any verbose CSV in the paper's
#: corpora, low enough that a pathological input cannot exhaust
#: memory building per-cell feature matrices.
DEFAULT_MAX_BYTES: int = 64 * 1024 * 1024

#: The Unicode replacement character produced by lenient decoding.
REPLACEMENT_CHAR = "�"

#: BOM signature -> codec, longest signatures first so UTF-32 LE
#: (``FF FE 00 00``) wins over its UTF-16 LE prefix (``FF FE``).
_BOM_CODECS: tuple[tuple[bytes, str], ...] = (
    (codecs.BOM_UTF32_LE, "utf-32-le"),
    (codecs.BOM_UTF32_BE, "utf-32-be"),
    (codecs.BOM_UTF8, "utf-8"),
    (codecs.BOM_UTF16_LE, "utf-16-le"),
    (codecs.BOM_UTF16_BE, "utf-16-be"),
)

#: Bytes per code unit for each BOM codec.  Anything above 1 must be
#: truncated *after* decoding: a byte-level cut at the last ``0x0A``
#: can split a code unit in half (UTF-16-LE ``\n`` is ``0A 00``),
#: shifting every following character into U+FFFD noise.
_CODE_UNIT_BYTES: dict[str, int] = {
    "utf-32-le": 4,
    "utf-32-be": 4,
    "utf-8": 1,
    "utf-16-le": 2,
    "utf-16-be": 2,
}


@dataclass(frozen=True)
class IngestPolicy:
    """Knobs of the ingestion stage.

    Parameters
    ----------
    strict:
        When true, any input that would need repair is rejected with
        an :class:`~repro.errors.IngestError` subclass; when false
        (the default), the damage is repaired and reported.
    encoding:
        A caller-preferred encoding tried (strictly) before the UTF-8
        attempt.  A byte-order mark still wins: it is in-band evidence
        of what the producer wrote.
    fallback_encodings:
        Strictly-tried encodings after UTF-8 fails.  The default
        ``latin-1`` accepts every byte string, so lenient decoding
        only reaches U+FFFD substitution when a BOM promised an
        encoding the payload violates.
    max_bytes:
        Size guard over the raw input.

    Every encoding name is validated with :func:`codecs.lookup` at
    construction; an unknown name (``"uft-8"``) raises a typed
    :class:`~repro.errors.EncodingError` immediately instead of being
    silently skipped during the decode attempt chain.
    """

    strict: bool = False
    encoding: str | None = None
    fallback_encodings: tuple[str, ...] = ("latin-1",)
    max_bytes: int = DEFAULT_MAX_BYTES

    def __post_init__(self) -> None:
        names = list(self.fallback_encodings)
        if self.encoding is not None:
            names.insert(0, self.encoding)
        for name in names:
            try:
                codecs.lookup(name)
            except LookupError:
                raise EncodingError(
                    f"unknown encoding {name!r} in ingest policy; "
                    f"fix the spelling (codecs.lookup rejected it)"
                ) from None

    @classmethod
    def strict_policy(cls, **overrides) -> "IngestPolicy":
        """The reject-don't-repair variant of the default policy."""
        return cls(strict=True, **overrides)


#: The default (lenient) policy used by every entry point.
DEFAULT_POLICY = IngestPolicy()


@dataclass
class IngestReport:
    """Everything the ingestion stage did to one input.

    A report travels with the result instead of the stage mutating
    the data silently; ``recovered`` is the single flag downstream
    code keys on ("did strict mode and lenient mode diverge on this
    input?").  Rectangular padding and BOM stripping are *not*
    recovery: both modes perform them identically.
    """

    encoding: str = "utf-8"
    bom: str | None = None
    strict: bool = False
    replacement_count: int = 0
    nul_count: int = 0
    truncated_bytes: int = 0
    unterminated_quote: bool = False
    dangling_escape: bool = False
    dialect_fallback: bool = False
    ragged_rows: int = 0
    ragged_pad_cells: int = 0

    @property
    def recovered(self) -> bool:
        """Whether any lenient repair fired (modes would diverge)."""
        return bool(
            self.replacement_count
            or self.nul_count
            or self.truncated_bytes
            or self.unterminated_quote
            or self.dialect_fallback
        )

    def warnings(self) -> list[str]:
        """Human-readable description of every repair and oddity.

        Ragged rows are deliberately absent: verbose CSV files are
        ragged by construction, so padding counts stay queryable on
        the report without turning every input into a warning.
        """
        notes: list[str] = []
        if self.bom is not None:
            notes.append(f"stripped a {self.bom} byte-order mark")
        if self.encoding != "utf-8":
            notes.append(f"decoded as {self.encoding} (not valid UTF-8)")
        if self.replacement_count:
            notes.append(
                f"substituted {self.replacement_count} undecodable "
                f"sequence(s) with U+FFFD"
            )
        if self.nul_count:
            notes.append(f"removed {self.nul_count} NUL character(s)")
        if self.truncated_bytes:
            notes.append(
                f"truncated {self.truncated_bytes} byte(s) over the "
                f"size guard"
            )
        if self.unterminated_quote:
            notes.append(
                "recovered an unterminated quoted field at end of input"
            )
        if self.dangling_escape:
            notes.append("kept a dangling escape character literal")
        if self.dialect_fallback:
            notes.append(
                "dialect undetectable; fell back to the standard "
                "comma dialect"
            )
        return notes


@dataclass
class IngestResult:
    """A successfully ingested input: table, dialect, clean text,
    and the report of everything done along the way."""

    table: Table
    dialect: Dialect
    text: str
    report: IngestReport = field(default_factory=IngestReport)


# ----------------------------------------------------------------------
# Stage 1 — encoding resolution
# ----------------------------------------------------------------------
def _sniff_bom(data: bytes) -> tuple[bytes, str] | None:
    """The matching ``(signature, codec)`` pair, or ``None``."""
    for signature, codec in _BOM_CODECS:
        if data.startswith(signature):
            return signature, codec
    return None


def decode_bytes(
    data: bytes, policy: IngestPolicy = DEFAULT_POLICY
) -> tuple[str, IngestReport]:
    """Resolve ``data`` to text under ``policy``.

    Returns the decoded text and a report with the encoding-stage
    fields filled in (size guard, BOM, codec, replacements, NULs).
    Raises :class:`~repro.errors.EncodingError`,
    :class:`~repro.errors.SizeLimitError` or
    :class:`~repro.errors.MalformedInputError` in strict mode.
    """
    with get_tracer().span("ingest_decode"):
        report = IngestReport(strict=policy.strict)
        sniffed = _sniff_bom(data)
        if len(data) > policy.max_bytes:
            if policy.strict:
                raise SizeLimitError(
                    f"input is {len(data)} bytes, over the "
                    f"{policy.max_bytes}-byte limit"
                )
            if sniffed is not None and _CODE_UNIT_BYTES[sniffed[1]] > 1:
                text = _decode_truncated_wide(
                    data, sniffed, policy, report
                )
                return _strip_nuls(text, policy, report), report
            data = _apply_size_guard(data, policy, report)

        if sniffed is not None:
            signature, codec = sniffed
            report.bom = codec if codec != "utf-8" else "utf-8-sig"
            report.encoding = codec
            payload = data[len(signature):]
            try:
                text = payload.decode(codec)
            except UnicodeDecodeError as exc:
                if policy.strict:
                    raise EncodingError(
                        f"byte-order mark announced {codec} but the "
                        f"payload does not decode: {exc}"
                    ) from exc
                text = payload.decode(codec, errors="replace")
                # Approximate: genuine U+FFFD in the source also
                # counts.
                report.replacement_count = text.count(REPLACEMENT_CHAR)
        else:
            text = _decode_without_bom(data, policy, report)

        return _strip_nuls(text, policy, report), report


def _apply_size_guard(
    data: bytes, policy: IngestPolicy, report: IngestReport
) -> bytes:
    """Lenient byte-level truncation for single-byte-unit input.

    Safe only when one code unit is one byte (UTF-8 and every
    ASCII-superset fallback): there a ``0x0A`` byte is always a real
    newline, so cutting after it cannot split a character.  Oversize
    BOM'd UTF-16/32 takes :func:`_decode_truncated_wide` instead, and
    strict mode has already rejected in :func:`decode_bytes`.
    """
    if len(data) <= policy.max_bytes:
        return data
    kept = data[: policy.max_bytes]
    # Prefer cutting at a record boundary so the last surviving line
    # is intact; a boundary-free prefix (one giant line) is hard-cut.
    boundary = kept.rfind(b"\n")
    if boundary > 0:
        kept = kept[: boundary + 1]
    report.truncated_bytes = len(data) - len(kept)
    return kept


def _decode_truncated_wide(
    data: bytes,
    sniffed: tuple[bytes, str],
    policy: IngestPolicy,
    report: IngestReport,
) -> str:
    """Decode-then-guard for oversize BOM'd UTF-16/32 input.

    Clips the payload at a code-unit-aligned offset inside the byte
    budget, decodes it, and truncates the *text* at the last newline —
    so the surviving prefix is exactly what a non-truncated decode of
    those records would have produced.  ``truncated_bytes`` is the
    honest count: original payload bytes minus the bytes the kept text
    re-encodes to (BOM excluded, as it never reaches the text).
    """
    signature, codec = sniffed
    report.bom = codec
    report.encoding = codec
    unit = _CODE_UNIT_BYTES[codec]
    budget = max(policy.max_bytes - len(signature), 0)
    clipped = data[len(signature): len(signature) + budget - budget % unit]
    try:
        text = clipped.decode(codec)
    except UnicodeDecodeError as exc:
        # The clip can strand the high half of a UTF-16 surrogate
        # pair at the very end; dropping it is part of truncation.
        # Damage elsewhere is genuine payload damage: substitute and
        # count, exactly as the non-truncated BOM path does.
        if exc.start >= len(clipped) - 2 * unit:
            clipped = clipped[: exc.start]
        text = clipped.decode(codec, errors="replace")
        report.replacement_count = text.count(REPLACEMENT_CHAR)
    boundary = text.rfind("\n")
    if boundary > 0:
        text = text[: boundary + 1]
    report.truncated_bytes = (
        len(data) - len(signature) - len(text.encode(codec))
    )
    return text


def _decode_without_bom(
    data: bytes, policy: IngestPolicy, report: IngestReport
) -> str:
    attempts: list[str] = []
    if policy.encoding is not None:
        attempts.append(policy.encoding)
    attempts.append("utf-8")
    attempts.extend(policy.fallback_encodings)

    tried: list[str] = []
    for encoding in attempts:
        if encoding in tried:
            continue
        tried.append(encoding)
        try:
            text = data.decode(encoding)
        except UnicodeDecodeError:
            # Only decode *failures* advance the chain.  Unknown
            # encoding names cannot reach here: the policy validated
            # every name with codecs.lookup at construction, so a
            # typo'd --encoding raises EncodingError instead of being
            # silently skipped.
            continue
        report.encoding = encoding
        return text

    if policy.strict:
        raise EncodingError(
            f"undecodable input: tried {', '.join(tried)}"
        )
    text = data.decode("utf-8", errors="replace")
    report.encoding = "utf-8"
    report.replacement_count = text.count(REPLACEMENT_CHAR)
    return text


def _strip_nuls(
    text: str, policy: IngestPolicy, report: IngestReport
) -> str:
    count = text.count("\x00")
    if not count:
        return text
    if policy.strict:
        raise MalformedInputError(
            f"input contains {count} NUL character(s)"
        )
    report.nul_count = count
    return text.replace("\x00", "")


# ----------------------------------------------------------------------
# Stages 2+3 — damage policy and structure
# ----------------------------------------------------------------------
def ingest_text(
    text: str,
    dialect: Dialect | None = None,
    policy: IngestPolicy = DEFAULT_POLICY,
    report: IngestReport | None = None,
) -> IngestResult:
    """Ingest already-decoded ``text`` (the library-string entry
    point); ``report`` carries decode-stage facts when the text came
    from :func:`decode_bytes`."""
    if report is None:
        report = IngestReport(strict=policy.strict)
        text = _guard_text(text, policy, report)
        text = _strip_nuls(text, policy, report)
    if text.startswith("\ufeff"):
        # A BOM surviving into a str (e.g. text read upstream with
        # plain utf-8) must never reach dialect detection or features.
        text = text.lstrip("\ufeff")
        report.bom = report.bom or "utf-8-sig"

    # Detection may already have parsed the whole text under the
    # dialect it picked (a memo miss on a text of at most 100 lines).
    outcome = None
    if dialect is None:
        with get_tracer().span("dialect_detection"):
            try:
                dialect, outcome = DialectDetector().detect_parsed(text)
            except DialectError:
                # Strict mode propagates (a typed ReproError);
                # lenient mode falls back to the standard dialect so
                # empty or signal-free text still yields a table —
                # the ``[[""]]`` sentinel for empty input relies on
                # this.
                if policy.strict:
                    raise
                dialect = Dialect.standard()
                report.dialect_fallback = True
    with get_tracer().span("parsing"):
        if outcome is None:
            outcome = parse_csv_outcome(text, dialect)
        if outcome.unterminated_quote and policy.strict:
            raise MalformedInputError(
                "unterminated quoted field at end of input"
            )
        report.unterminated_quote = outcome.unterminated_quote
        report.dangling_escape = outcome.dangling_escape

        rows = outcome.records if outcome.records else [[""]]
        width = max(len(r) for r in rows)
        short = [r for r in rows if len(r) < width]
        report.ragged_rows = len(short)
        report.ragged_pad_cells = sum(width - len(r) for r in short)
    _publish_report(report)
    return IngestResult(
        table=Table(rows), dialect=dialect, text=text, report=report
    )


def _publish_report(report: IngestReport) -> None:
    """Mirror one ingestion's repair events into the metrics registry.

    The per-file truth stays on the :class:`IngestReport`; the metrics
    are the corpus-level aggregate (how many files needed *any*
    repair, and how much of each kind) that a bench or eval run can
    read without collecting every report.
    """
    metrics = get_metrics()
    metrics.increment("ingest.files")
    if report.recovered:
        metrics.increment("ingest.recovered")
    if report.bom is not None:
        metrics.increment("ingest.bom_stripped")
    if report.replacement_count:
        metrics.increment(
            "ingest.replacement_chars", report.replacement_count
        )
    if report.nul_count:
        metrics.increment("ingest.nul_chars", report.nul_count)
    if report.truncated_bytes:
        metrics.increment(
            "ingest.truncated_bytes", report.truncated_bytes
        )
    if report.unterminated_quote:
        metrics.increment("ingest.unterminated_quote")
    if report.dialect_fallback:
        metrics.increment("ingest.dialect_fallback")


def _guard_text(
    text: str, policy: IngestPolicy, report: IngestReport
) -> str:
    """The size guard for the str entry point (counted in characters,
    the closest analogue of the byte budget)."""
    if len(text) <= policy.max_bytes:
        return text
    if policy.strict:
        raise SizeLimitError(
            f"input is {len(text)} characters, over the "
            f"{policy.max_bytes}-character limit"
        )
    kept = text[: policy.max_bytes]
    boundary = kept.rfind("\n")
    if boundary > 0:
        kept = kept[: boundary + 1]
    report.truncated_bytes = len(text) - len(kept)
    return kept


def ingest_bytes(
    data: bytes,
    dialect: Dialect | None = None,
    policy: IngestPolicy = DEFAULT_POLICY,
) -> IngestResult:
    """Ingest raw bytes: decode, repair-or-reject, parse."""
    text, report = decode_bytes(data, policy)
    return ingest_text(text, dialect=dialect, policy=policy, report=report)


def ingest_path(
    path: str | Path,
    dialect: Dialect | None = None,
    policy: IngestPolicy = DEFAULT_POLICY,
) -> IngestResult:
    """Ingest the file at ``path``."""
    return ingest_bytes(
        Path(path).read_bytes(), dialect=dialect, policy=policy
    )


def decode_path(
    path: str | Path, policy: IngestPolicy = DEFAULT_POLICY
) -> tuple[str, IngestReport]:
    """Decode the file at ``path`` without parsing it — the entry
    point for non-CSV text (model manifests, annotation JSON)."""
    return decode_bytes(Path(path).read_bytes(), policy)


def with_encoding(
    policy: IngestPolicy | None, encoding: str | None
) -> IngestPolicy:
    """The policy with a caller-preferred ``encoding`` folded in."""
    base = policy or DEFAULT_POLICY
    if encoding is None:
        return base
    return replace(base, encoding=encoding)
