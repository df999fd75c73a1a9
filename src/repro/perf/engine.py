"""Persistent-worker corpus engine: sweep a file list through one model.

The per-file pipeline is fast (PR 3 columnar profile, PR 7 compiled
forest); the corpus — the unit of work Datamaran-style data-lake
extraction actually bills — was not.  A naive sweep pays process-pool
startup per fan-out and re-pickles the fitted model into every task,
and nothing survives between sweeps.  :class:`CorpusEngine` fixes all
three amortization failures:

* **warm workers** — one private :class:`~repro.perf.pool.WorkerPool`
  per engine, kept alive across :meth:`CorpusEngine.sweep` calls;
* **one-time model broadcast** — the fitted pipeline is pickled once
  into the pool initializer, so each worker deserializes the compiled
  forest tensors exactly once at spawn instead of once per task;
* **content-addressed sweep cache** — results are stored on disk keyed
  by ``(file content hash, model fingerprint, ingest policy)``, so
  re-sweeping an unchanged corpus never reaches a worker at all.

One scheduler serves every entry point: :meth:`CorpusEngine.sweep`
(paths, enumerated through :class:`~repro.io.adapters.FileAdapter` so
archives expand into their members), :meth:`CorpusEngine.process_payloads`
(in-memory payloads, the serve substrate) and, through ``sweep``, the
CLI's lake mode.  It cuts the sources into *contiguous, size-balanced*
micro-batches, keeps at most ``window`` of them in flight
(backpressure: raw bytes exist for a bounded number of batches at
once) and yields one outcome per source in **input order**.  Results
are plain numpy arrays (class codes, cell positions), so parity
across ``n_jobs``, cache hits and misses is checkable with
``.tobytes()`` equality — the pinned guarantee that parallelism may
change *when* work happens, never *what* it computes.

Failure routing: a source that cannot be read or classified becomes a
:class:`SkipEntry` in the run's :class:`SweepReport` instead of
aborting the sweep.  A worker killed mid-batch is recorded loudly,
once per dead executor (``sweep.worker_crashes`` metric +
``RuntimeWarning``); the batches in flight on that executor join the
skip report as casualties, and later batches run on a respawned pool.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import sys
import tempfile
import threading
import warnings
import zipfile
from collections import deque
from concurrent.futures import CancelledError, Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.dialect.dialect import Dialect
from repro.errors import AdapterError, InvalidParameterError, NotFittedError
from repro.io.adapters import FileAdapter
from repro.io.ingest import IngestPolicy
from repro.obs import get_metrics, get_tracer
from repro.perf.pool import WorkerPool, effective_jobs
from repro.types import CONTENT_CLASSES, CellClass

#: Integer codes for every cell class, *including* the ``EMPTY``
#: sentinel (which deliberately has no index in ``CLASS_TO_INDEX`` —
#: it is not a content class, but line predictions do emit it).
_CLASS_CODES: dict[CellClass, int] = {
    cls: index for index, cls in enumerate(CONTENT_CLASSES)
}
_CLASS_CODES[CellClass.EMPTY] = len(CONTENT_CLASSES)
_CODE_TO_CLASS: dict[int, CellClass] = {
    code: cls for cls, code in _CLASS_CODES.items()
}

#: Public aliases of the code tables, for layers that serialize
#: :class:`FileResult` arrays across other boundaries (the serve
#: protocol re-encodes them as JSON and must agree on the codes).
CLASS_CODES = _CLASS_CODES
CODE_TO_CLASS = _CODE_TO_CLASS

#: Aim for this many micro-batches per worker, so one slow shard
#: cannot serialize the sweep's tail while keeping per-batch overhead
#: (submit + result pickling) amortized over many files.
_BATCHES_PER_WORKER = 4

#: Hard per-batch file count bound, so a corpus of tiny files still
#: produces batches a worker finishes promptly.
_MAX_BATCH_FILES = 64

#: What a damaged ``.npz`` raises on load: truncated zip containers,
#: bad headers, missing members.  Treated as a cache miss, never an
#: error — the corrupt file is removed so it cannot poison anything.
_CORRUPT_CACHE_ERRORS = (OSError, ValueError, KeyError, EOFError,
                         zipfile.BadZipFile)


def file_content_hash(data: bytes) -> str:
    """SHA-256 hex digest of a file's raw bytes."""
    return hashlib.sha256(data).hexdigest()


def model_fingerprint(pipeline) -> str:
    """SHA-256 digest of everything that determines a sweep's output.

    Hashes the compiled forest tensors of both classifiers (the same
    arrays ``ml.persistence`` stores — two models produce the same
    fingerprint iff they predict identically), the extractor
    configuration keys and the crop flag.  Cached sweep results are
    addressed by this fingerprint, so refitting the model can never
    serve stale results.
    """
    digest = hashlib.sha256()
    digest.update(f"crop={int(pipeline.crop)};".encode("ascii"))
    for clf in (pipeline.line_classifier, pipeline.cell_classifier):
        if clf._model is None:
            raise NotFittedError(
                "cannot fingerprint an unfitted pipeline; call fit() "
                "before building a CorpusEngine"
            )
        digest.update(clf.extractor.cache_key.encode("utf-8"))
        digest.update(b";")
        compiled = clf._model.compile()
        for tensor in (
            compiled.classes_, compiled._tree_classes,
            compiled._feature, compiled._threshold, compiled._left,
            compiled._right, compiled._proba, compiled._roots,
            compiled._tree_class_offsets,
        ):
            array = np.ascontiguousarray(tensor)
            digest.update(str(array.dtype).encode("ascii"))
            digest.update(str(array.shape).encode("ascii"))
            digest.update(array.tobytes())
    return digest.hexdigest()


def policy_fingerprint(policy: IngestPolicy) -> str:
    """A stable key for an ingest policy (frozen dataclass repr)."""
    return repr(policy)


# ----------------------------------------------------------------------
# Results and reports
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class FileResult:
    """One swept file's classified structure, in array form.

    Arrays, not objects, so results are cheap to ship across process
    boundaries, round-trip losslessly through the ``.npz`` sweep cache
    and compare byte-for-byte in the parity tests.  ``line_codes`` /
    ``cell_codes`` hold :data:`_CLASS_CODES` values; decode through
    :meth:`line_classes` / :meth:`cell_classes`.
    """

    path: Path
    dialect: Dialect
    n_rows: int
    n_cols: int
    line_codes: np.ndarray
    cell_positions: np.ndarray
    cell_codes: np.ndarray

    @property
    def provenance(self) -> str:
        """The source locator as the adapters produced it.

        For a loose file this is its path; for a container member it
        is the full ``archive.zip!member.csv`` locator a sweep
        enumerated or a ``process_payloads`` caller passed as the
        payload name (``path`` merely stores it as a
        :class:`~pathlib.Path`).
        """
        return str(self.path)

    def line_classes(self) -> list[CellClass]:
        """Per-line classes, decoded to :class:`CellClass`."""
        return [_CODE_TO_CLASS[int(code)] for code in self.line_codes]

    def cell_classes(self) -> dict[tuple[int, int], CellClass]:
        """Non-empty cell positions mapped to their classes."""
        return {
            (int(row), int(col)): _CODE_TO_CLASS[int(code)]
            for (row, col), code in zip(
                self.cell_positions, self.cell_codes
            )
        }


@dataclass(frozen=True)
class SkipEntry:
    """One file the sweep could not classify, and why.

    ``stage`` is where it failed: ``"read"`` (the source could not be
    read or its container enumerated; the bytes never left the
    parent), ``"classify"`` (the pipeline raised) or ``"worker"`` (the
    worker process died mid-batch).
    """

    path: Path
    stage: str
    reason: str


@dataclass
class SweepReport:
    """What a sweep did: counts, cache traffic, and the casualties."""

    files: int = 0
    completed: int = 0
    cache_hits: int = 0
    batches: int = 0
    worker_crashes: int = 0
    skipped: list[SkipEntry] = field(default_factory=list)

    def as_dict(self) -> dict:
        """A JSON-ready summary (paths as strings)."""
        return {
            "files": self.files,
            "completed": self.completed,
            "cache_hits": self.cache_hits,
            "batches": self.batches,
            "worker_crashes": self.worker_crashes,
            "skipped": [
                {
                    "path": str(entry.path),
                    "stage": entry.stage,
                    "reason": entry.reason,
                }
                for entry in self.skipped
            ],
        }


# ----------------------------------------------------------------------
# Result encoding (parent and workers share these, so every path —
# inline, worker, cache hit — produces identical arrays)
# ----------------------------------------------------------------------
def _encode_structure(result) -> dict[str, np.ndarray]:
    """Flatten a :class:`StructureResult` into deterministic arrays."""
    line_codes = np.array(
        [_CLASS_CODES[cls] for cls in result.line_classes],
        dtype=np.int8,
    )
    items = sorted(result.cell_classes.items())
    positions = np.array(
        [position for position, _ in items], dtype=np.int64
    ).reshape(len(items), 2)
    cell_codes = np.array(
        [_CLASS_CODES[cls] for _, cls in items], dtype=np.int8
    )
    dialect = np.array(
        [
            result.dialect.delimiter,
            result.dialect.quotechar,
            result.dialect.escapechar,
        ],
        dtype=np.str_,
    )
    shape = np.array(
        [result.table.n_rows, result.table.n_cols], dtype=np.int64
    )
    return {
        "line_codes": line_codes,
        "cell_positions": positions,
        "cell_codes": cell_codes,
        "dialect": dialect,
        "shape": shape,
    }


def _decode_arrays(path: Path, arrays: dict) -> FileResult:
    """Rebuild a :class:`FileResult` from encoded arrays."""
    dialect = arrays["dialect"]
    shape = arrays["shape"]
    return FileResult(
        path=path,
        dialect=Dialect(
            delimiter=str(dialect[0]),
            quotechar=str(dialect[1]),
            escapechar=str(dialect[2]),
        ),
        n_rows=int(shape[0]),
        n_cols=int(shape[1]),
        line_codes=np.asarray(arrays["line_codes"], dtype=np.int8),
        cell_positions=np.asarray(
            arrays["cell_positions"], dtype=np.int64
        ).reshape(-1, 2),
        cell_codes=np.asarray(arrays["cell_codes"], dtype=np.int8),
    )


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
#: Per-worker broadcast state, installed once by the pool initializer.
_WORKER_STATE: tuple | None = None


def _init_sweep_worker(payload: bytes) -> None:
    """Pool initializer: deserialize the broadcast model once."""
    global _WORKER_STATE
    _WORKER_STATE = pickle.loads(payload)


def _run_batch(pipeline, policy, batch):
    """Classify one micro-batch; per-file failures become markers.

    Returns ``(index, arrays_dict)`` per success and
    ``(index, ("error", reason))`` per failure — a sweep over a messy
    data lake must survive any single file.
    """
    out = []
    for index, _name, data in batch:
        try:
            encoded = _encode_structure(
                pipeline.analyze_bytes(data, policy=policy)
            )
        except Exception as exc:
            out.append(
                (index, ("error", f"{type(exc).__name__}: {exc}"))
            )
        else:
            out.append((index, encoded))
    return out


def _sweep_batch(batch):
    """Process-pool entry: run a batch against the broadcast model."""
    pipeline, policy = _WORKER_STATE
    return _run_batch(pipeline, policy, batch)


# ----------------------------------------------------------------------
# The content-addressed sweep cache
# ----------------------------------------------------------------------
class SweepCache:
    """On-disk cache of swept-file results, content-addressed.

    Entries are ``.npz`` files named by
    ``sha256(content hash | model fingerprint | policy)``, written
    atomically (temp file + ``os.replace``) so concurrent engines and
    mid-write crashes can never leave a partial file behind, and a
    corrupt entry (however it got there) is removed and treated as a
    miss.  Counters mirror into the metrics registry
    (``sweep_cache.hits`` / ``sweep_cache.misses`` /
    ``sweep_cache.evictions``) and snapshot through :meth:`stats`.
    """

    def __init__(
        self,
        directory: str | Path,
        max_entries: int = 8192,
    ):
        if max_entries < 1:
            raise InvalidParameterError("max_entries must be >= 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._metrics = get_metrics()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._count = len(sorted(self.directory.glob("*.npz")))

    @staticmethod
    def entry_key(
        content_hash: str, model: str, policy: str
    ) -> str:
        """The cache address for one (file, model, policy) triple."""
        digest = hashlib.sha256()
        digest.update(content_hash.encode("ascii"))
        digest.update(b"|")
        digest.update(model.encode("ascii"))
        digest.update(b"|")
        digest.update(policy.encode("utf-8"))
        return digest.hexdigest()

    def stats(self) -> dict[str, int]:
        """A consistent locked snapshot of the counters."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "size": self._count,
            }

    # ------------------------------------------------------------------
    def load(self, key: str, path: Path) -> FileResult | None:
        """The cached result for ``key``, or ``None`` on miss.

        A corrupt entry is deleted and reported as a miss: a crash
        that slipped past the atomic write must cost one recompute,
        never poison every later sweep.
        """
        entry = self.directory / f"{key}.npz"
        arrays: dict | None = None
        try:
            with np.load(entry) as archive:
                arrays = {name: archive[name] for name in archive.files}
            result = _decode_arrays(path, arrays)
        except FileNotFoundError:
            result = None
        except _CORRUPT_CACHE_ERRORS:
            result = None
            try:
                entry.unlink()
            except OSError:
                pass
        if result is None:
            with self._lock:
                self.misses += 1
            self._metrics.increment("sweep_cache.misses")
            return None
        with self._lock:
            self.hits += 1
        self._metrics.increment("sweep_cache.hits")
        return result

    def store(self, key: str, arrays: dict[str, np.ndarray]) -> None:
        """Write one entry atomically; evict oldest past the bound."""
        entry = self.directory / f"{key}.npz"
        if entry.exists():
            return
        handle = tempfile.NamedTemporaryFile(
            dir=self.directory, suffix=".tmp", delete=False
        )
        try:
            with handle:
                np.savez(handle, **arrays)
            os.replace(handle.name, entry)
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise
        with self._lock:
            self._count += 1
            over = self._count - self.max_entries
        if over > 0:
            self._evict(over)

    def _evict(self, count: int) -> None:
        """Remove the ``count`` oldest entries (write-time LRU)."""
        entries = sorted(
            self.directory.glob("*.npz"),
            key=lambda p: (p.stat().st_mtime_ns, p.name),
        )
        removed = 0
        for stale in entries[:count]:
            try:
                stale.unlink()
            except OSError:
                continue
            removed += 1
        if removed:
            with self._lock:
                self.evictions += removed
                self._count -= removed
            self._metrics.increment("sweep_cache.evictions", removed)


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
@dataclass(eq=False)
class _Batch:
    """One micro-batch in the scheduler's queue.

    ``members`` are the batch's entries in input order: the
    ``(index, name, data)`` files to classify, and the outcomes (cache
    hits, read skips) of entries that arrived between them, which ride
    along so the batch emits everything in input order.  A batch
    handed to the pool carries its ``future`` and the ``executor``
    that took it; a batch without a future is computed inline when it
    reaches the front of the queue.
    """

    members: list
    executor: ProcessPoolExecutor | None = None
    future: Future | None = None

    @property
    def files(self) -> list[tuple[int, str, bytes]]:
        """The members to classify, as :func:`_run_batch` takes them."""
        return [m for m in self.members if isinstance(m, tuple)]


class SweepRun:
    """One in-progress sweep: iterate for results, read ``report``.

    Iterating yields ``(path, FileResult)`` pairs in input order;
    ``report`` is filled in as iteration proceeds and is complete once
    the iterator is exhausted.
    """

    def __init__(self, engine: "CorpusEngine", paths: list[Path]):
        self.report = SweepReport()
        self._engine = engine
        self._paths = paths

    def __iter__(self) -> Iterator[tuple[Path, FileResult]]:
        return self._engine._run(self._paths, self.report)

    def collect(self) -> list[tuple[Path, FileResult]]:
        """Drain the whole sweep into a list (report then final)."""
        return list(self)


class CorpusEngine:
    """Sweep file corpora through one fitted pipeline, fast.

    Parameters
    ----------
    pipeline:
        A **fitted** :class:`~repro.core.strudel.StrudelPipeline`;
        fingerprinted at construction, broadcast to workers once.
    n_jobs:
        Worker processes (:func:`~repro.perf.pool.effective_jobs`
        semantics: ``None``/``1`` sequential, ``<=0`` all cores).  The
        worker pool is sized from it once and persists across sweeps;
        results are byte-identical for any value.
    policy:
        Ingest policy applied to every file (part of the cache key).
    cache_dir:
        Optional directory for the content-addressed sweep cache.
    window:
        Maximum in-flight micro-batches (backpressure bound).
        Defaults to ``2 * workers``.

    Use as a context manager (or call :meth:`close`) to release the
    warm workers deterministically; an engine left open has its
    workers joined at interpreter exit by ``concurrent.futures``.
    """

    def __init__(
        self,
        pipeline,
        n_jobs: int | None = 1,
        policy: IngestPolicy | None = None,
        cache_dir: str | Path | None = None,
        window: int | None = None,
    ):
        if window is not None and window < 1:
            raise InvalidParameterError("window must be >= 1")
        self._pipeline = pipeline
        self._policy = policy or IngestPolicy()
        # Sized once from ``n_jobs`` alone, never from a run's length.
        self._workers = effective_jobs(n_jobs, sys.maxsize)
        self._window = window or max(2 * self._workers, 2)
        self._fingerprint = model_fingerprint(pipeline)
        self._policy_key = policy_fingerprint(self._policy)
        self.cache = (
            SweepCache(cache_dir) if cache_dir is not None else None
        )
        self._pool: WorkerPool | None = None
        self._metrics = get_metrics()

    @property
    def fingerprint(self) -> str:
        """The model fingerprint sweeps are cached under."""
        return self._fingerprint

    def close(self) -> None:
        """Shut down the warm workers (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "CorpusEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def sweep(self, paths: Iterable[str | Path]) -> SweepRun:
        """Classify every source under ``paths``, streaming results in
        input order.

        Each path is enumerated through
        :class:`~repro.io.adapters.FileAdapter`: a loose table is one
        source, a container (zip/tar archive, NDJSON, XML) expands
        into its members under ``archive.zip!member.csv`` locators.
        Returns a :class:`SweepRun`; iterate it for ``(path,
        FileResult)`` pairs.  Unreadable or damaged sources and
        unclassifiable files are skipped into ``run.report``, never
        raised.
        """
        return SweepRun(self, [Path(p) for p in paths])

    def sweep_paths(
        self, paths: Iterable[str | Path]
    ) -> tuple[list[tuple[Path, FileResult]], SweepReport]:
        """Convenience: run a sweep to completion and return both."""
        run = self.sweep(paths)
        return run.collect(), run.report

    def process_payloads(
        self, items: Sequence[tuple[str, bytes]]
    ) -> tuple[list["FileResult | SkipEntry"], SweepReport]:
        """Classify in-memory payloads through the warm pool.

        The service front end's entry point: no filesystem access, no
        container expansion, and the return value is a list **aligned
        with** ``items`` — a :class:`FileResult` per success, a
        :class:`SkipEntry` per failure (stage ``"classify"`` or
        ``"worker"``) — plus the run's :class:`SweepReport`.  The
        payloads run through the same windowed scheduler as
        :meth:`sweep`, and the sweep cache is consulted and populated
        exactly as there, so a served payload and a swept file with
        the same bytes share one cache entry.
        """
        entries = [(str(name), bytes(data)) for name, data in items]
        report = SweepReport()
        known_bytes = sum(len(data) for _name, data in entries)
        outcomes = list(
            self._schedule(entries, known_bytes, len(entries), report)
        )
        return outcomes, report

    # ------------------------------------------------------------------
    def _run(
        self, paths: list[Path], report: SweepReport
    ) -> Iterator[tuple[Path, FileResult]]:
        """The sweep generator behind :class:`SweepRun`: the batch
        budget comes from stat sizes, never from reading a file."""
        known_bytes = 0
        for path in paths:
            try:
                known_bytes += path.stat().st_size
            except OSError:
                continue
        outcomes = self._schedule(
            self._enumerate(paths), known_bytes, len(paths), report
        )
        try:
            for outcome in outcomes:
                if isinstance(outcome, FileResult):
                    yield outcome.path, outcome
        finally:
            # An abandoned sweep must abort the scheduler's window now,
            # not whenever the collector gets to it.
            outcomes.close()

    def _enumerate(
        self, paths: list[Path]
    ) -> Iterator["tuple[str, bytes] | SkipEntry"]:
        """Every source under ``paths`` as ``(provenance, bytes)``, in
        order; a path that cannot be read, or a container that breaks
        mid-enumeration, becomes a ``"read"`` :class:`SkipEntry` after
        whatever members it already gave."""
        for path in paths:
            try:
                for payload in FileAdapter(path, self._policy).iterate():
                    yield payload.provenance, payload.data
            except AdapterError as exc:
                yield SkipEntry(path, "read", str(exc))

    def _schedule(
        self,
        entries: Iterable["tuple[str, bytes] | SkipEntry"],
        known_bytes: int,
        n_inputs: int,
        report: SweepReport,
    ) -> Iterator["FileResult | SkipEntry"]:
        """The engine's one scheduler.

        Takes ``(name, bytes)`` entries (or a :class:`SkipEntry` for a
        source that never produced bytes) in input order and yields
        exactly one ``FileResult | SkipEntry`` per entry, in the same
        order, tallying ``report`` as it goes.  Cache hits settle on
        arrival.  Misses are cut into contiguous micro-batches of
        about ``known_bytes / (4 * workers)`` bytes and at most
        :data:`_MAX_BATCH_FILES` files, and at most ``window`` of them
        are in flight on the pool.  An engine with one worker, or a
        run that cuts only one batch, computes inline and never
        touches the pool.

        Anything that is not part of the sweep's own failure handling
        — KeyboardInterrupt, an outer cancellation, the consumer
        abandoning the generator (GeneratorExit) — cancels the
        in-flight futures and drops the pool before re-raising, so the
        next run on this engine starts clean.
        """
        tracer = get_tracer()
        budget = max(1, known_bytes // (self._workers * _BATCHES_PER_WORKER))
        inline = self._workers <= 1
        queue: deque = deque()  # FileResult | SkipEntry | _Batch
        waiting: deque[_Batch] = deque()  # cut, not yet on the pool
        inflight = 0  # batches on the pool, not yet emitted
        pooled = False
        batch: list = []  # the open batch's members
        batch_bytes = batch_files = 0

        def close_batch() -> None:
            nonlocal batch, batch_bytes, batch_files, pooled
            item = _Batch(batch)
            queue.append(item)
            if not inline:
                waiting.append(item)
            batch, batch_bytes, batch_files = [], 0, 0
            report.batches += 1
            self._metrics.increment("sweep.batches")
            # A second batch proves the run is bigger than one: from
            # here on batches go to the pool, the held first one too.
            pooled = pooled or (not inline and report.batches > 1)

        def pump(final: bool) -> Iterator["FileResult | SkipEntry"]:
            """Submit waiting batches as the window allows; emit the
            front while it is settled, blocks a full window, is
            computed inline, or the input has ended."""
            nonlocal inflight
            while queue:
                if pooled and waiting and inflight < self._window:
                    self._submit(waiting.popleft(), report)
                    inflight += 1
                    continue
                front = queue[0]
                if isinstance(front, _Batch):
                    if front.future is not None:
                        if inflight < self._window and not final:
                            break
                        inflight -= 1
                    elif not (inline or final):
                        break
                yield from self._emit_front(queue, report, tracer)

        with tracer.span("sweep", n_files=n_inputs):
            try:
                for index, entry in enumerate(entries):
                    report.files += 1
                    if isinstance(entry, SkipEntry):
                        settled = entry
                    elif (settled := self._cache_lookup(*entry)) is not None:
                        report.cache_hits += 1
                    if settled is None:
                        batch.append((index, *entry))
                        batch_bytes += len(entry[1])
                        batch_files += 1
                        if (
                            batch_bytes >= budget
                            or batch_files >= _MAX_BATCH_FILES
                        ):
                            close_batch()
                    elif batch:
                        batch.append(settled)  # keeps its place in line
                    else:
                        queue.append(settled)
                    yield from pump(final=False)
                if batch:
                    close_batch()
                yield from pump(final=True)
            except BaseException:
                self._abort(queue)
                raise
        self._metrics.increment("sweep.files", report.files)
        self._metrics.increment("sweep.skipped", len(report.skipped))

    def _cache_lookup(self, name: str, data: bytes) -> FileResult | None:
        """The cached result for one payload, or ``None``."""
        if self.cache is None:
            return None
        return self.cache.load(self._cache_key(data), Path(name))

    def _cache_key(self, data: bytes) -> str:
        """The sweep-cache address of one payload under this engine."""
        return SweepCache.entry_key(
            file_content_hash(data), self._fingerprint, self._policy_key
        )

    def _submit(self, item: _Batch, report: SweepReport) -> None:
        """Hand one batch to the pool — the engine's one submit site.

        An executor that died before the batch reached it is retired
        as a crash, and the never-run batch goes to its replacement.
        """
        if self._pool is None:
            payload = pickle.dumps((self._pipeline, self._policy))
            self._pool = WorkerPool(
                self._workers,
                initializer=_init_sweep_worker,
                initargs=(payload,),
            )
        for retry in (False, True):
            item.executor = self._pool.executor()
            try:
                item.future = item.executor.submit(_sweep_batch, item.files)
                return
            except BrokenProcessPool as exc:
                if retry:
                    raise
                self._worker_died(item.executor, exc, report)

    def _emit_front(self, queue: deque, report: SweepReport, tracer):
        """Settle the queue's front item, then pop it and yield its
        outcomes, counting each into ``report``.  The item stays
        queued while its batch resolves, so an interrupt there still
        finds its future to cancel."""
        item = queue[0]
        if isinstance(item, _Batch):
            outcomes = self._settle(item, report, tracer)
        else:
            outcomes = [item]
        queue.popleft()
        for outcome in outcomes:
            if isinstance(outcome, SkipEntry):
                report.skipped.append(outcome)
            else:
                report.completed += 1
            yield outcome

    def _settle(
        self, item: _Batch, report: SweepReport, tracer
    ) -> list["FileResult | SkipEntry"]:
        """One batch's outcomes in input order: riding outcomes as they
        are, successes decoded and cached, failures ``"classify"``
        skips, and every file of a batch whose worker died a
        ``"worker"`` casualty."""
        files = item.files
        token = files if item.future is None else item.future
        crash = None
        try:
            with tracer.span("sweep_batch", n_files=len(files)):
                results = dict(self._resolve(token))
        except (BrokenProcessPool, CancelledError) as exc:
            self._worker_died(item.executor, exc, report)
            crash = (
                f"worker crashed mid-batch ({type(exc).__name__}: {exc})"
            )
            results = {}
        settled: list[FileResult | SkipEntry] = []
        for member in item.members:
            if not isinstance(member, tuple):
                settled.append(member)  # a hit or skip riding along
                continue
            index, name, data = member
            outcome = results.get(index)
            if crash is not None:
                settled.append(SkipEntry(Path(name), "worker", crash))
            elif isinstance(outcome, dict):
                if self.cache is not None:
                    self.cache.store(self._cache_key(data), outcome)
                settled.append(_decode_arrays(Path(name), outcome))
            else:
                reason = (
                    outcome[1]
                    if isinstance(outcome, tuple)
                    else "no result returned for file"
                )
                settled.append(SkipEntry(Path(name), "classify", reason))
        return settled

    def _resolve(self, token):
        """Batch results from a token: future, or inline work list."""
        if isinstance(token, Future):
            return token.result()
        return _run_batch(self._pipeline, self._policy, token)

    def _worker_died(
        self,
        executor: ProcessPoolExecutor | None,
        exc: BaseException,
        report: SweepReport,
    ) -> None:
        """A worker died under ``executor``: retire that executor —
        never its replacement — and, the first time only, count the
        crash loudly (metric + warning).  Later batches that were in
        flight on the same executor are casualties, not new crashes."""
        if self._pool is None or not self._pool.discard(executor):
            return
        report.worker_crashes += 1
        self._metrics.increment("sweep.worker_crashes")
        warnings.warn(
            f"sweep worker crashed; the batches in flight on it are "
            f"skipped and the pool restarts: {type(exc).__name__}: {exc}",
            RuntimeWarning,
            stacklevel=2,
        )

    def _abort(self, queue: deque) -> None:
        """A run died mid-window: cancel the in-flight batch futures
        and drop the pool (workers may hold half-submitted state), so
        a later run respawns and rebroadcasts instead of inheriting a
        wedged executor.  Inline runs have no futures and keep
        nothing worth discarding."""
        futures = [
            item.future for item in queue
            if isinstance(item, _Batch) and item.future is not None
        ]
        for future in futures:
            future.cancel()
        if futures and self._pool is not None:
            self._pool.shutdown(wait=False)
            self._pool = None
