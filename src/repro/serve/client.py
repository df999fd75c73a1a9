"""The TCP client for the classification service.

:func:`connect` opens a TCP connection speaking ``repro-serve/1`` and
returns a :class:`TcpServiceClient` whose classify calls return
decoded response dicts (use
:func:`~repro.serve.protocol.result_from_payload` to rebuild the
arrays).  In-process callers need no client: they await
:meth:`~repro.serve.service.ClassificationService.submit_path` /
:meth:`~repro.serve.service.ClassificationService.submit_bytes`
directly and get live :class:`~repro.perf.engine.FileResult` objects.
"""

from __future__ import annotations

import asyncio
import itertools
from pathlib import Path

from repro.serve.protocol import (
    MAX_LINE_BYTES,
    decode_response,
    encode_request,
)


class TcpServiceClient:
    """A ``repro-serve/1`` connection with sequential request ids.

    One outstanding request per call — callers wanting pipelining can
    hold several clients or drive :meth:`request` from parallel
    tasks on separate connections.  Close with :meth:`close`.
    """

    def __init__(
        self,
        reader: "asyncio.StreamReader",
        writer: "asyncio.StreamWriter",
    ):
        self._reader = reader
        self._writer = writer
        self._ids = itertools.count(1)

    async def request(self, line: bytes) -> dict:
        """Send one raw request line and read one response line."""
        self._writer.write(line)
        await self._writer.drain()
        response = await self._reader.readline()
        if not response:
            raise ConnectionError("server closed the connection")
        return decode_response(response)

    async def classify_path(self, path: str | Path) -> dict:
        """Classify a server-visible path; returns the response dict."""
        return await self.request(
            encode_request(self._next_id(), path=path)
        )

    async def classify_bytes(
        self, data: bytes, name: str | None = None
    ) -> dict:
        """Ship raw bytes for classification."""
        return await self.request(
            encode_request(self._next_id(), data=data, name=name)
        )

    async def ping(self) -> dict:
        """Liveness check."""
        return await self.request(
            encode_request(self._next_id(), op="ping")
        )

    async def stats(self) -> dict:
        """The server's live counters."""
        return await self.request(
            encode_request(self._next_id(), op="stats")
        )

    async def close(self) -> None:
        """Close the connection (idempotent)."""
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover
            pass

    def _next_id(self) -> str:
        return f"c{next(self._ids)}"


async def connect(host: str, port: int) -> TcpServiceClient:
    """Open a TCP client to a running ``repro serve`` process."""
    reader, writer = await asyncio.open_connection(
        host, port, limit=MAX_LINE_BYTES
    )
    return TcpServiceClient(reader, writer)
