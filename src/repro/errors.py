"""Exception hierarchy for the :mod:`repro` package.

All errors raised deliberately by this library derive from
:class:`ReproError`, so callers can catch one base class at API
boundaries without swallowing unrelated programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class DialectError(ReproError):
    """Raised when a file's dialect cannot be detected or applied."""


class ParseError(ReproError):
    """Raised when a CSV document cannot be parsed under a given dialect."""


class AnnotationError(ReproError):
    """Raised when ground-truth annotations are malformed or inconsistent."""


class NotFittedError(ReproError):
    """Raised when ``predict`` is called on an estimator before ``fit``."""


class InvalidParameterError(ReproError):
    """Raised when an estimator or feature extractor receives a bad setting."""


class GenerationError(ReproError):
    """Raised when a synthetic corpus generator is configured inconsistently."""


class IngestError(ReproError):
    """Base class for failures in the hardened ingestion stage.

    Everything :mod:`repro.io.ingest` raises deliberately derives from
    this class, so entry points can catch one exception for "this file
    could not be turned into a :class:`~repro.types.Table`" without
    also swallowing bugs (``UnicodeDecodeError`` escaping a raw
    ``read_text`` is exactly the crash class this hierarchy retires).
    """


class EncodingError(IngestError):
    """Raised when a file's bytes cannot be decoded under the policy:
    the strict UTF-8 attempt and every fallback encoding failed, or a
    byte-order mark announced an encoding the payload then violated
    (strict mode only — lenient mode substitutes U+FFFD and reports)."""


class SizeLimitError(IngestError):
    """Raised in strict mode when an input exceeds the policy's byte
    budget; lenient mode truncates at a record boundary and reports."""


class MalformedInputError(IngestError):
    """Raised in strict mode for structurally damaged but decodable
    input — NUL characters, or an unterminated quoted field at EOF —
    that lenient mode would repair and report instead."""


class AdapterError(IngestError):
    """Raised when a source adapter cannot enumerate a container: a
    truncated or corrupt archive, a zip/tar member that cannot be
    read, NDJSON lines that are not JSON (or records of mixed shape),
    unparseable XML, or container nesting beyond the depth budget.
    Subclasses :class:`IngestError` because adapters are part of the
    ingestion front door: callers that already handle ingest failures
    handle container failures for free, and the fuzz contract (typed
    ``ReproError``, never a raw ``zipfile``/``json``/``xml``
    exception) extends to containers unchanged."""


class ServeError(ReproError):
    """Raised when the classification service is misused: submitting
    to a service that is draining or was never started, starting a
    service twice, or configuring it with a nonsensical queue bound."""


class ProtocolError(ServeError):
    """Raised when a wire request violates the ``repro-serve/1``
    newline-delimited JSON protocol: undecodable JSON, a missing or
    non-string request id, an unknown operation, or a payload that is
    neither a path nor valid base64 bytes.  The service never lets
    this abort a connection — the offending line is dead-lettered and
    answered with a structured failure response instead."""


class EvaluationError(ReproError):
    """Raised when an evaluation run is inconsistent with itself: zero
    score sets to average, or folds that cannot be formed from the
    grouped corpus."""


class ConfigurationError(ReproError):
    """Raised when the library itself is mis-assembled: an invalid
    static-analysis rule declaration or a cyclic layer graph."""


class AnalysisError(ReproError):
    """Raised when the static analysis cannot finish soundly: the
    whole-program model did not reach its fixpoint within the pass
    bound, so the project rules would read an unfinished call graph."""
