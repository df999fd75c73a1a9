"""A durable, replayable dead-letter queue for the serve front end.

Every failure the service observes — an ingest rejection, a pipeline
exception in a worker, a worker crash, an unreadable path, a protocol
violation — becomes one NDJSON record (schema ``repro-dlq/1``) in
``<dir>/records.ndjson``, with the offending payload bytes parked
content-addressed under ``<dir>/payloads/<sha256>.bin``.  Nothing is
ever lost silently: an operator can ``repro dlq list`` the failures,
fix the cause (a too-strict policy, a crashed worker, a missing
file), and ``repro dlq replay`` the queue back through the engine.

Record shape::

    {"schema": "repro-dlq/1", "request_id": "r7", "source": "b.csv",
     "stage": "classify", "reason": "...", "payload_sha256": "ab12...",
     "timestamp": "2026-08-08T12:00:00+00:00", "replays": 0}

``source`` is what :func:`resolve_entry` reads again: the path (or
``container!member`` locator) of a path request, the display name of
a bytes request, whose bytes are parked.  The service and replay turn
a request or a record into an engine entry through that one resolver,
so a record replays exactly as the service read it.

``timestamp`` comes from an injectable ``clock`` callable (defaulting
to UTC ``datetime.now``), so tests pin byte-exact records; the repo's
determinism rules stay intact.  Replay rewrites ``records.ndjson``
atomically (temp file + ``os.replace``): recovered records disappear,
still-dead records keep their place with ``replays`` bumped and the
fresh failure reason, and payload files no record references anymore
are pruned.  A corrupt line in the records file is skipped, never
fatal — the queue must stay readable after a crash mid-append.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro.errors import ReproError
from repro.io.adapters import read_source
from repro.obs import get_metrics, get_tracer
from repro.perf.engine import CorpusEngine, FileResult, SkipEntry

#: Dead-letter record schema identifier, written into every record.
DLQ_SCHEMA = "repro-dlq/1"

#: The record fields, in canonical order (documentation + validation).
RECORD_FIELDS = (
    "schema", "request_id", "source", "stage", "reason",
    "payload_sha256", "timestamp", "replays",
)


def _utc_timestamp() -> str:
    """The default clock: an ISO-8601 UTC wall timestamp."""
    return datetime.now(timezone.utc).isoformat()


def resolve_entry(
    engine: CorpusEngine, name: str, source: bytes | str
) -> "tuple[str, bytes] | SkipEntry":
    """One payload source as an engine entry: bytes as they are, or a
    path (or ``container!member`` locator) read through
    :func:`~repro.io.adapters.read_source` under the engine's policy.
    ``name`` labels the result; a source that cannot be read becomes
    a ``"read"`` :class:`SkipEntry` instead of raising.
    """
    if isinstance(source, bytes):
        return name, source
    try:
        return name, read_source(source, policy=engine.policy)
    except (OSError, ReproError) as exc:
        return SkipEntry(Path(source), "read", f"{type(exc).__name__}: {exc}")


def _write_atomically(target: Path, data: bytes) -> None:
    """Write ``target`` through a temp file and ``os.replace``: a crash
    mid-write leaves the old file or none, never a torn one."""
    fd, temp_name = tempfile.mkstemp(
        dir=target.parent, prefix=f"{target.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(temp_name, target)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


@dataclass(frozen=True)
class DeadLetter:
    """One failed payload: where it came from, how it failed, and
    where its bytes are parked (``payload_sha256`` is ``None`` only
    for ``read``-stage failures, whose bytes never arrived)."""

    request_id: str
    source: str
    stage: str
    reason: str
    payload_sha256: str | None
    timestamp: str
    replays: int = 0

    def as_dict(self) -> dict:
        """The record as written to ``records.ndjson``."""
        return {
            "schema": DLQ_SCHEMA,
            "request_id": self.request_id,
            "source": self.source,
            "stage": self.stage,
            "reason": self.reason,
            "payload_sha256": self.payload_sha256,
            "timestamp": self.timestamp,
            "replays": self.replays,
        }

    @staticmethod
    def from_dict(obj: dict) -> "DeadLetter | None":
        """A record from one parsed NDJSON line; ``None`` if the line
        is not a well-formed ``repro-dlq/1`` record."""
        if not isinstance(obj, dict):
            return None
        if obj.get("schema") != DLQ_SCHEMA:
            return None
        request_id = obj.get("request_id")
        source = obj.get("source")
        stage = obj.get("stage")
        reason = obj.get("reason")
        sha = obj.get("payload_sha256")
        if not all(
            isinstance(value, str)
            for value in (request_id, source, stage, reason)
        ):
            return None
        if sha is not None and not isinstance(sha, str):
            return None
        timestamp = obj.get("timestamp")
        replays = obj.get("replays", 0)
        return DeadLetter(
            request_id=request_id,
            source=source,
            stage=stage,
            reason=reason,
            payload_sha256=sha,
            timestamp=timestamp if isinstance(timestamp, str) else "",
            replays=replays if isinstance(replays, int) else 0,
        )


class DeadLetterQueue:
    """The on-disk queue: an append-only NDJSON journal plus a
    content-addressed payload store.

    Parameters
    ----------
    directory:
        Queue root; created lazily on first append.
    clock:
        Zero-argument callable returning the timestamp string for new
        records.  Injectable for deterministic tests; defaults to UTC
        ``datetime.now().isoformat()``.
    """

    def __init__(
        self,
        directory: str | Path,
        clock: Callable[[], str] | None = None,
    ):
        self.directory = Path(directory)
        self._records_path = self.directory / "records.ndjson"
        self._payload_dir = self.directory / "payloads"
        self._clock = clock or _utc_timestamp
        self._metrics = get_metrics()

    def now(self) -> str:
        """A timestamp from the queue's clock (replay re-stamps with
        it so bumped records stay consistent with appended ones)."""
        return self._clock()

    # ------------------------------------------------------------------
    def append(
        self,
        request_id: str,
        source: str,
        stage: str,
        reason: str,
        payload: bytes | None = None,
    ) -> DeadLetter:
        """Record one failure durably; returns the written record.

        The payload (when the bytes exist) is stored under its sha256,
        atomically, before the journal line is appended, so a record
        on disk always points at a whole payload that is also on disk.
        A parked file whose bytes do not hash to its name (torn by a
        crash before writes were atomic) is written again.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        sha: str | None = None
        if payload is not None:
            sha = hashlib.sha256(payload).hexdigest()
            self._payload_dir.mkdir(parents=True, exist_ok=True)
            payload_path = self._payload_dir / f"{sha}.bin"
            try:
                parked = hashlib.sha256(payload_path.read_bytes()).hexdigest()
            except OSError:
                parked = None
            if parked != sha:
                _write_atomically(payload_path, payload)
        record = DeadLetter(
            request_id=request_id,
            source=source,
            stage=stage,
            reason=reason,
            payload_sha256=sha,
            timestamp=self._clock(),
        )
        with open(
            self._records_path, "a", encoding="utf-8", newline="\n"
        ) as handle:
            handle.write(
                json.dumps(record.as_dict(), sort_keys=True) + "\n"
            )
        self._metrics.increment("serve.dead_letters")
        return record

    def records(self) -> list[DeadLetter]:
        """Every well-formed record, in journal order; corrupt lines
        (a crash mid-append, a stray edit) are skipped."""
        try:
            text = self._records_path.read_text(encoding="utf-8")
        except OSError:
            return []
        out: list[DeadLetter] = []
        for line in text.splitlines():
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except ValueError:
                continue
            record = DeadLetter.from_dict(obj)
            if record is not None:
                out.append(record)
        return out

    def payload(self, record: DeadLetter) -> bytes | None:
        """The parked bytes for a record, or ``None`` if it has no
        payload (``read`` failures) or the file is gone."""
        if record.payload_sha256 is None:
            return None
        try:
            return (
                self._payload_dir / f"{record.payload_sha256}.bin"
            ).read_bytes()
        except OSError:
            return None

    def replace(self, records: Sequence[DeadLetter]) -> None:
        """Atomically rewrite the journal to exactly ``records`` and
        prune payload files nothing references anymore."""
        self.directory.mkdir(parents=True, exist_ok=True)
        _write_atomically(
            self._records_path,
            "".join(
                json.dumps(record.as_dict(), sort_keys=True) + "\n"
                for record in records
            ).encode("utf-8"),
        )
        self._prune_payloads(records)

    def purge(self) -> int:
        """Drop every record and payload; returns the record count."""
        count = len(self.records())
        self.replace([])
        return count

    def __len__(self) -> int:
        return len(self.records())

    # ------------------------------------------------------------------
    def _prune_payloads(self, records: Iterable[DeadLetter]) -> None:
        """Remove payload files no surviving record points at."""
        live = {
            record.payload_sha256
            for record in records
            if record.payload_sha256 is not None
        }
        if not self._payload_dir.is_dir():
            return
        for path in sorted(self._payload_dir.glob("*.bin")):
            if path.stem not in live:
                try:
                    path.unlink()
                except OSError:
                    continue


@dataclass
class ReplayReport:
    """What one replay pass did with the queue."""

    total: int = 0
    replayed: int = 0
    recovered: int = 0
    still_dead: int = 0
    unreplayable: int = 0

    def summary(self) -> str:
        """One human line, for the CLI."""
        return (
            f"replayed {self.replayed}/{self.total} dead letters: "
            f"{self.recovered} recovered, {self.still_dead} still "
            f"dead, {self.unreplayable} unreplayable"
        )


def replay_dead_letters(
    queue: DeadLetterQueue, engine: CorpusEngine
) -> ReplayReport:
    """Push every dead letter back through ``engine`` and settle the
    queue: recovered records are removed, still-dead records stay with
    ``replays`` bumped and the fresh failure reason, records whose
    bytes cannot be materialized (no payload file *and* the source
    cannot be read) are kept untouched as unreplayable.

    This is deliberately the service's own path: each record becomes
    an engine entry through :func:`resolve_entry` (its parked payload,
    or its ``source`` read as the service read it) and all of them go
    through :meth:`CorpusEngine.process_payloads`, so "it recovers on
    replay" means "the service would accept it now".
    """
    tracer = get_tracer()
    metrics = get_metrics()
    with tracer.span("serve.replay", n_records=len(queue)):
        records = queue.records()
        report = ReplayReport(total=len(records))
        # What the queue keeps, by record; ``None`` once recovered.
        kept: list[DeadLetter | None] = list(records)
        # A protocol record's payload is a raw wire line, not CSV
        # bytes; only the client can re-send it correctly formed.
        indices = [
            index for index, record in enumerate(records)
            if record.stage != "protocol"
        ]
        report.unreplayable = len(records) - len(indices)
        entries = []
        for index in indices:
            record = records[index]
            data = queue.payload(record)
            entries.append(resolve_entry(
                engine, record.source, record.source if data is None else data
            ))
        outcomes, _sweep = engine.process_payloads(entries)
        for index, entry, outcome in zip(indices, entries, outcomes):
            if isinstance(entry, SkipEntry):
                report.unreplayable += 1
                continue
            report.replayed += 1
            metrics.increment("serve.replays")
            if isinstance(outcome, FileResult):
                report.recovered += 1
                kept[index] = None
            else:
                report.still_dead += 1
                kept[index] = replace(
                    records[index],
                    stage=outcome.stage,
                    reason=outcome.reason,
                    timestamp=queue.now(),
                    replays=records[index].replays + 1,
                )
        queue.replace([record for record in kept if record is not None])
    return report
