"""The long-lived classification service around a standing engine.

:class:`ClassificationService` is the asyncio shell the ROADMAP's
million-user story needs: one fitted pipeline, one warm
:class:`~repro.perf.engine.CorpusEngine`, and a bounded submission
queue in front of it.  Requests (file paths or raw bytes) arrive
through the in-process API (:meth:`submit_path` /
:meth:`submit_bytes`) or the TCP front end
(``asyncio.start_server`` + the ``repro-serve/1`` protocol), are
coalesced into micro-batches by a single batcher coroutine, and run
through the engine in an executor thread so the event loop never
blocks on classification.  A request becomes an engine entry through
:func:`~repro.serve.dlq.resolve_entry` (raw bytes as sent, a path or
``container!member`` locator read through the adapters), and the
engine's :meth:`~repro.perf.engine.CorpusEngine.process_payloads`
returns one outcome per entry, read failures included.

Flow control is explicit end to end: the submission queue is a
``asyncio.Queue(maxsize=queue_size)``, so ``await``-ing a submit *is*
the backpressure — a TCP connection stops reading its socket while
the queue is full, pushing the pressure back to the client's kernel
buffers.

Failure routing mirrors the engine's: nothing raises out of a
request.  A payload that cannot be read, ingested, or classified
resolves to a :class:`~repro.perf.engine.SkipEntry` and — when the
service has a :class:`~repro.serve.dlq.DeadLetterQueue` — lands
durably in it for later ``repro dlq replay``.

Lifecycle: :meth:`start` brings the batcher (and optionally the TCP
listener) up; :meth:`drain` is the graceful shutdown — stop
accepting, flush everything in flight, release the engine's workers —
and returns the final counts.  :func:`run_service` wires drain to
SIGINT/SIGTERM for the CLI.
"""

from __future__ import annotations

import asyncio
import signal
import sys
from pathlib import Path

from repro.errors import ProtocolError, ServeError
from repro.io.ingest import IngestPolicy
from repro.obs import get_metrics, get_tracer
from repro.perf.engine import CorpusEngine, FileResult, SkipEntry
from repro.serve.dlq import DeadLetter, DeadLetterQueue, resolve_entry
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    ServeRequest,
    decode_request,
    encode_response,
    failure_response,
    success_response,
)


#: Most queued requests the batcher coalesces into one engine call.
_BATCH_FILES = 32


class ClassificationService:
    """A standing classification service over one fitted pipeline.

    Parameters
    ----------
    pipeline:
        A **fitted** :class:`~repro.core.strudel.StrudelPipeline`.
    n_jobs:
        Engine worker processes (``1`` = classify inline in the
        executor thread; still fully async at the front).
    policy:
        Ingest policy applied to every payload.
    sweep_cache:
        Optional directory for the engine's content-addressed result
        cache — a re-served payload never reaches a worker.
    dlq:
        Optional :class:`DeadLetterQueue`; every failure is recorded
        in it durably.  Without one, failures still resolve to
        :class:`SkipEntry` but leave no durable trace.
    queue_size:
        Submission queue bound (the backpressure knob); must be >= 1.
    """

    def __init__(
        self,
        pipeline,
        n_jobs: int | None = 1,
        policy: IngestPolicy | None = None,
        sweep_cache: str | Path | None = None,
        dlq: DeadLetterQueue | None = None,
        queue_size: int = 256,
    ):
        if queue_size < 1:
            raise ServeError("queue_size must be >= 1")
        self._engine = CorpusEngine(
            pipeline, n_jobs=n_jobs, policy=policy, cache_dir=sweep_cache,
        )
        self.dlq = dlq
        self._queue_size = queue_size
        self._queue: (
            "asyncio.Queue[tuple[ServeRequest, asyncio.Future]] | None"
        ) = None
        self._batcher: "asyncio.Task | None" = None
        self._server: "asyncio.base_events.Server | None" = None
        self._accepting = False
        self._drained = False
        self._metrics = get_metrics()
        # Request bookkeeping: mutated only on the event-loop thread,
        # so plain ints suffice (no lock).
        self._requests = 0
        self._results = 0
        self._dead_letters = 0
        self._inflight = 0
        self._local_ids = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(
        self, host: str | None = None, port: int | None = None
    ) -> None:
        """Bring the service up (idempotence is an error: a service
        object runs exactly one lifecycle).  With ``host``/``port``
        the TCP front end listens too; without them the service is
        in-process only."""
        if self._queue is not None:
            raise ServeError("service already started")
        if self._drained:
            raise ServeError("service already drained; build a new one")
        self._queue = asyncio.Queue(maxsize=self._queue_size)
        self._batcher = asyncio.create_task(self._batch_loop())
        if host is not None:
            self._server = await asyncio.start_server(
                self._handle_connection, host, port,
                limit=MAX_LINE_BYTES,
            )
        self._accepting = True

    @property
    def port(self) -> int | None:
        """The bound TCP port (resolves ``port=0`` requests)."""
        if self._server is None or not self._server.sockets:
            return None
        return self._server.sockets[0].getsockname()[1]

    async def drain(self) -> dict:
        """Graceful shutdown: stop accepting, flush every queued
        request, stop the TCP listener and the engine's workers.
        Returns the final counts (the CLI prints them on exit)."""
        tracer = get_tracer()
        with tracer.span("serve.drain", inflight=self._inflight):
            self._accepting = False
            if self._server is not None:
                self._server.close()
            if self._queue is not None:
                await self._queue.join()
            if self._batcher is not None:
                self._batcher.cancel()
                try:
                    await self._batcher
                except asyncio.CancelledError:
                    pass
                self._batcher = None
            if self._server is not None:
                try:
                    await self._server.wait_closed()
                except asyncio.CancelledError:  # pragma: no cover
                    pass
                self._server = None
            self._engine.close()
            self._drained = True
        return self.stats()

    def stats(self) -> dict:
        """The service's live counters, as one JSON-ready dict."""
        return {
            "requests": self._requests,
            "results": self._results,
            "dead_letters": self._dead_letters,
            "inflight": self._inflight,
            "accepting": self._accepting,
        }

    # ------------------------------------------------------------------
    # In-process API
    # ------------------------------------------------------------------
    async def submit_path(
        self, path: str | Path, request_id: str | None = None
    ) -> "FileResult | SkipEntry":
        """Classify a file by path; resolves when its batch does."""
        outcome, _record = await self._submit(
            request_id=request_id, path=str(path), data=None, name=None
        )
        return outcome

    async def submit_bytes(
        self,
        data: bytes,
        name: str = "<bytes>",
        request_id: str | None = None,
    ) -> "FileResult | SkipEntry":
        """Classify raw bytes; ``name`` labels results and records."""
        outcome, _record = await self._submit(
            request_id=request_id, path=None, data=data, name=name
        )
        return outcome

    async def _submit(
        self,
        request_id: str | None,
        path: str | None,
        data: bytes | None,
        name: str | None,
    ) -> "tuple[FileResult | SkipEntry, DeadLetter | None]":
        """Enqueue one payload and await its outcome."""
        future = await self._enqueue(request_id, path, data, name)
        return await future

    async def _enqueue(
        self,
        request_id: str | None,
        path: str | None,
        data: bytes | None,
        name: str | None,
    ) -> "asyncio.Future":
        """Admission control: reject when not accepting, count the
        request, and apply queue backpressure (the ``put`` blocks)."""
        if not self._accepting or self._queue is None:
            raise ServeError(
                "service is not accepting requests (draining or "
                "never started)"
            )
        if request_id is None:
            self._local_ids += 1
            request_id = f"local-{self._local_ids}"
        self._requests += 1
        self._inflight += 1
        self._metrics.increment("serve.requests")
        self._metrics.gauge("serve.inflight", self._inflight)
        future: "asyncio.Future" = (
            asyncio.get_running_loop().create_future()
        )
        request = ServeRequest(
            request_id, "classify", path=path, data=data, name=name
        )
        await self._queue.put((request, future))
        return future

    # ------------------------------------------------------------------
    # The batcher
    # ------------------------------------------------------------------
    async def _batch_loop(self) -> None:
        """Coalesce queued requests into engine-sized batches.

        One batch per wakeup: whatever is already waiting (up to
        :data:`_BATCH_FILES`), never an artificial delay — latency
        under light load, batching under heavy load.
        """
        assert self._queue is not None
        while True:
            batch = [await self._queue.get()]
            while len(batch) < _BATCH_FILES:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            await self._process_batch(batch)

    async def _process_batch(
        self, batch: "list[tuple[ServeRequest, asyncio.Future]]"
    ) -> None:
        """Run one batch through the engine (off-loop) and settle
        every waiter; drain accounting happens in ``finally`` so a
        crashed batch can never wedge ``queue.join()``."""
        loop = asyncio.get_running_loop()
        try:
            entries, outcomes = await loop.run_in_executor(
                None, self._work, [request for request, _ in batch]
            )
            for (request, future), entry, outcome in zip(
                batch, entries, outcomes
            ):
                record = None
                if isinstance(outcome, FileResult):
                    self._results += 1
                    self._metrics.increment("serve.results")
                else:
                    self._dead_letters += 1
                    if self.dlq is not None:
                        # DeadLetterQueue.append owns the
                        # serve.dead_letters metric increment.  A path
                        # request is recorded by its path, which
                        # replay resolves again; bytes are parked.
                        record = self.dlq.append(
                            request_id=request.id,
                            source=(
                                request.display_name if request.path is None
                                else request.path
                            ),
                            stage=outcome.stage,
                            reason=outcome.reason,
                            payload=(
                                None if isinstance(entry, SkipEntry)
                                else entry[1]
                            ),
                        )
                    else:
                        self._metrics.increment("serve.dead_letters")
                if not future.cancelled():
                    future.set_result((outcome, record))
        except (asyncio.CancelledError, Exception) as exc:
            for _request, future in batch:
                if not future.done():
                    future.set_exception(
                        ServeError(
                            f"batch failed before settling: "
                            f"{type(exc).__name__}: {exc}"
                        )
                    )
            if isinstance(exc, asyncio.CancelledError):
                raise
        finally:
            for _ in batch:
                self._inflight -= 1
                self._queue.task_done()
            self._metrics.gauge("serve.inflight", self._inflight)

    def _work(
        self, requests: "list[ServeRequest]"
    ) -> "tuple[list, list[FileResult | SkipEntry]]":
        """The synchronous half, run in an executor thread: each
        request becomes an engine entry (:func:`resolve_entry`), and
        one engine call classifies them all.  Returns the entries —
        their bytes ride along so failures are dead-lettered with
        their payload — and the outcomes aligned with them."""
        with get_tracer().span("serve.batch", n_files=len(requests)):
            entries = [
                resolve_entry(
                    self._engine,
                    request.display_name,
                    request.path if request.data is None else request.data,
                )
                for request in requests
            ]
            outcomes, _report = self._engine.process_payloads(entries)
            return entries, outcomes

    # ------------------------------------------------------------------
    # The TCP front end
    # ------------------------------------------------------------------
    async def _handle_connection(
        self,
        reader: "asyncio.StreamReader",
        writer: "asyncio.StreamWriter",
    ) -> None:
        """One client connection: read request lines, answer each
        with one response line.  Requests pipeline — a slow classify
        never blocks a later ping — but the submit itself applies
        queue backpressure before the next line is read."""
        write_lock = asyncio.Lock()
        replies: "set[asyncio.Task]" = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (
                    asyncio.LimitOverrunError, ValueError
                ) as exc:
                    await self._respond(
                        writer, write_lock,
                        failure_response(
                            "?", "protocol",
                            f"request line too long: {exc}",
                        ),
                    )
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                await self._handle_line(
                    line, writer, write_lock, replies
                )
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            if replies:
                await asyncio.gather(*replies, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _handle_line(
        self,
        line: bytes,
        writer: "asyncio.StreamWriter",
        write_lock: "asyncio.Lock",
        replies: "set[asyncio.Task]",
    ) -> None:
        """Decode and dispatch one request line."""
        try:
            request = decode_request(line)
        except ProtocolError as exc:
            # A malformed line is a failure like any other: it is
            # dead-lettered (the raw line is the payload) and answered
            # in-line, never allowed to drop the connection.
            record = None
            self._dead_letters += 1
            if self.dlq is None:
                self._metrics.increment("serve.dead_letters")
            else:
                record = self.dlq.append(
                    request_id="?",
                    source="<wire>",
                    stage="protocol",
                    reason=str(exc),
                    payload=bytes(line),
                )
            await self._respond(
                writer, write_lock,
                failure_response(
                    "?", "protocol", str(exc),
                    dead_letter=(
                        record.payload_sha256 if record else None
                    ),
                ),
            )
            return
        if request.op == "ping":
            await self._respond(
                writer, write_lock,
                {"id": request.id, "ok": True, "result": "pong"},
            )
            return
        if request.op == "stats":
            await self._respond(
                writer, write_lock,
                {"id": request.id, "ok": True, "result": self.stats()},
            )
            return
        try:
            future = await self._enqueue(
                request.id, request.path, request.data, request.name
            )
        except ServeError as exc:
            await self._respond(
                writer, write_lock,
                failure_response(request.id, "rejected", str(exc)),
            )
            return
        task = asyncio.create_task(
            self._reply(request, future, writer, write_lock)
        )
        replies.add(task)
        task.add_done_callback(replies.discard)

    async def _reply(
        self,
        request: ServeRequest,
        future: "asyncio.Future",
        writer: "asyncio.StreamWriter",
        write_lock: "asyncio.Lock",
    ) -> None:
        """Await one classify outcome and write its response line."""
        try:
            outcome, record = await future
        except ServeError as exc:
            await self._respond(
                writer, write_lock,
                failure_response(request.id, "rejected", str(exc)),
            )
            return
        if isinstance(outcome, FileResult):
            response = success_response(request.id, outcome)
        else:
            response = failure_response(
                request.id, outcome.stage, outcome.reason,
                dead_letter=(
                    record.payload_sha256 if record is not None
                    else None
                ),
            )
        await self._respond(writer, write_lock, response)

    @staticmethod
    async def _respond(
        writer: "asyncio.StreamWriter",
        write_lock: "asyncio.Lock",
        response: dict,
    ) -> None:
        """Write one response line (lock: lines must not interleave)."""
        async with write_lock:
            try:
                writer.write(encode_response(response))
                await writer.drain()
            except (ConnectionError, OSError):
                pass


# ----------------------------------------------------------------------
# The CLI runner
# ----------------------------------------------------------------------
def run_service(
    service: ClassificationService,
    host: str = "127.0.0.1",
    port: int = 0,
    out=None,
) -> dict:
    """Serve until SIGINT/SIGTERM, then drain; returns the summary.

    This is the whole ``repro serve`` runtime: the event loop lives
    inside this call, and a signal turns into a graceful drain (stop
    accepting, flush in-flight work, shut the worker pool down), so
    Ctrl-C under load exits 0 with every accepted request answered.
    """
    out = out or sys.stdout
    return asyncio.run(_serve_until_signal(service, host, port, out))


async def _serve_until_signal(
    service: ClassificationService, host: str, port: int, out
) -> dict:
    await service.start(host=host, port=port)
    print(
        f"repro serve: listening on {host}:{service.port} "
        f"(Ctrl-C to drain)",
        file=out,
        flush=True,
    )
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    installed: list[signal.Signals] = []
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
            installed.append(signum)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            continue  # non-unix event loops: drain via KeyboardInterrupt
    try:
        await stop.wait()
    finally:
        for signum in installed:
            loop.remove_signal_handler(signum)
    return await service.drain()
