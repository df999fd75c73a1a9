"""The ``repro-serve/1`` wire protocol: newline-delimited JSON.

One JSON object per line, in both directions.  Requests carry a
caller-chosen ``id`` that the response echoes, so a client may
pipeline many requests over one connection and match answers out of
band.  Payloads are either a server-visible ``path`` or raw bytes as
``data_b64`` (standard base64) — exactly one of the two.

Request shape::

    {"id": "r1", "op": "classify", "path": "/data/a.csv"}
    {"id": "r2", "op": "classify", "data_b64": "YSxi...", "name": "b"}
    {"id": "r3", "op": "ping"}
    {"id": "r4", "op": "stats"}

Response shape::

    {"id": "r1", "ok": true, "result": {...}}          # see below
    {"id": "r2", "ok": false, "stage": "classify",
     "reason": "...", "dead_letter": "<payload sha256>"}

A classification result is the JSON rendering of a
:class:`~repro.perf.engine.FileResult`: the detected dialect, the
table shape, per-line classes, and the non-empty cell classes as
``[row, col, class]`` triples.  :func:`result_from_payload` rebuilds
the exact ``FileResult`` arrays (same dtypes, same order), so served
results can be compared byte-for-byte against direct pipeline calls —
the parity contract the engine already pins for sweeps extends across
the wire.  Both directions work on the result's class-code arrays
(:data:`~repro.types.CLASS_CODES`): cells go out in the engine's
row-major array order, never through a dict or a sort.

Protocol violations (undecodable JSON, a missing id, an unknown op, a
payload that is neither path nor valid base64) raise
:class:`~repro.errors.ProtocolError`; the service answers them with a
structured failure instead of dropping the connection.  On the client
side, a response line that is not a JSON object, or a result that
cannot be rebuilt into a ``FileResult``, raises ``ProtocolError`` too.
"""

from __future__ import annotations

import base64
import binascii
import json
from pathlib import Path

import numpy as np

from repro.dialect.dialect import Dialect
from repro.errors import DialectError, ProtocolError
from repro.perf.engine import FileResult
from repro.types import CLASS_CODES, CODE_TO_CLASS

#: Wire protocol identifier, echoed in the service banner.
PROTOCOL_SCHEMA = "repro-serve/1"

#: Upper bound on one request line (base64 payload included).  The
#: asyncio stream reader enforces it, so one runaway line cannot
#: balloon the server's memory.
MAX_LINE_BYTES = 32 * 1024 * 1024

#: The operations a request may name.
OPERATIONS = ("classify", "ping", "stats")

#: Wire name of each class code, read off the one code-to-class
#: table, as an object array so a whole code vector renders in one
#: ``take``.
_CODE_NAMES = np.array([cls.value for cls in CODE_TO_CLASS], dtype=object)

#: Class code of each wire name.
_NAME_CODES: dict[str, int] = {
    cls.value: code for cls, code in CLASS_CODES.items()
}


class ServeRequest:
    """One decoded request: id, operation, and payload source.

    Frozen by convention (the service never mutates requests);
    ``path`` and ``data`` are mutually exclusive, enforced at decode
    time.
    """

    __slots__ = ("id", "op", "path", "data", "name")

    def __init__(
        self,
        id: str,
        op: str,
        path: str | None = None,
        data: bytes | None = None,
        name: str | None = None,
    ):
        self.id = id
        self.op = op
        self.path = path
        self.data = data
        self.name = name

    @property
    def display_name(self) -> str:
        """What to call this payload in results.  A dead letter
        records a path request by its ``path``, which replay reads
        again, and a bytes request by this name."""
        if self.name:
            return self.name
        if self.path:
            return self.path
        return f"<bytes:{self.id}>"


def decode_request(line: bytes | str) -> ServeRequest:
    """Parse one request line, raising :class:`ProtocolError` on any
    violation of the shape documented above."""
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"request line is not UTF-8: {exc}")
    try:
        obj = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(f"request is not valid JSON: {exc}")
    if not isinstance(obj, dict):
        raise ProtocolError("request must be a JSON object")
    request_id = obj.get("id")
    if not isinstance(request_id, str) or not request_id:
        raise ProtocolError("request id must be a non-empty string")
    op = obj.get("op", "classify")
    if op not in OPERATIONS:
        raise ProtocolError(
            f"unknown op {op!r} (expected one of {', '.join(OPERATIONS)})"
        )
    path = obj.get("path")
    encoded = obj.get("data_b64")
    data: bytes | None = None
    if op == "classify":
        if (path is None) == (encoded is None):
            raise ProtocolError(
                "classify needs exactly one of 'path' or 'data_b64'"
            )
        if path is not None and not isinstance(path, str):
            raise ProtocolError("'path' must be a string")
        if encoded is not None:
            if not isinstance(encoded, str):
                raise ProtocolError("'data_b64' must be a string")
            try:
                data = base64.b64decode(encoded, validate=True)
            except (binascii.Error, ValueError) as exc:
                raise ProtocolError(f"'data_b64' is not base64: {exc}")
    name = obj.get("name")
    if name is not None and not isinstance(name, str):
        raise ProtocolError("'name' must be a string")
    return ServeRequest(
        id=request_id, op=op, path=path, data=data, name=name
    )


def encode_request(
    request_id: str,
    op: str = "classify",
    path: str | Path | None = None,
    data: bytes | None = None,
    name: str | None = None,
) -> bytes:
    """Render one request as a wire line (trailing newline included)."""
    obj: dict = {"id": request_id, "op": op}
    if path is not None:
        obj["path"] = str(path)
    if data is not None:
        obj["data_b64"] = base64.b64encode(data).decode("ascii")
    if name is not None:
        obj["name"] = name
    return json.dumps(obj, sort_keys=True).encode("utf-8") + b"\n"


# ----------------------------------------------------------------------
# Results across the wire
# ----------------------------------------------------------------------
def result_payload(result: FileResult) -> dict:
    """A :class:`FileResult` as a JSON-ready dict (deterministic:
    cells stay in the engine's row-major position order)."""
    cells = np.empty((len(result.cell_codes), 3), dtype=object)
    cells[:, :2] = result.cell_positions
    cells[:, 2] = _CODE_NAMES.take(result.cell_codes)
    return {
        "path": str(result.path),
        "n_rows": result.n_rows,
        "n_cols": result.n_cols,
        "dialect": {
            "delimiter": result.dialect.delimiter,
            "quotechar": result.dialect.quotechar,
            "escapechar": result.dialect.escapechar,
        },
        "line_classes": _CODE_NAMES.take(result.line_codes).tolist(),
        "cells": cells.tolist(),
    }


def result_from_payload(payload: dict) -> FileResult:
    """Rebuild the exact :class:`FileResult` arrays from a payload.

    Inverse of :func:`result_payload` down to array dtypes, so
    ``.tobytes()`` parity checks work across a serve round-trip.  A
    payload of the wrong shape (not an object, a missing key, an
    unknown class name, a cell that is not ``[row, col, class]``)
    raises :class:`ProtocolError`.
    """
    try:
        dialect = payload["dialect"]
        cells = payload["cells"]
        rows, cols, names = (
            zip(*cells, strict=True) if cells else ((), (), ())
        )
        return FileResult(
            path=Path(payload["path"]),
            dialect=Dialect(
                delimiter=dialect["delimiter"],
                quotechar=dialect["quotechar"],
                escapechar=dialect["escapechar"],
            ),
            n_rows=int(payload["n_rows"]),
            n_cols=int(payload["n_cols"]),
            line_codes=np.fromiter(
                map(_NAME_CODES.__getitem__, payload["line_classes"]),
                dtype=np.int8,
            ),
            cell_positions=np.array((rows, cols), dtype=np.int64).T.copy(),
            cell_codes=np.fromiter(
                map(_NAME_CODES.__getitem__, names),
                dtype=np.int8,
                count=len(names),
            ),
        )
    except (KeyError, TypeError, ValueError, DialectError) as exc:
        raise ProtocolError(
            f"malformed result: {type(exc).__name__}: {exc}"
        ) from exc


def success_response(request_id: str, result: FileResult) -> dict:
    """The response object for a classified payload."""
    return {
        "id": request_id,
        "ok": True,
        "result": result_payload(result),
    }


def failure_response(
    request_id: str,
    stage: str,
    reason: str,
    dead_letter: str | None = None,
) -> dict:
    """The response object for a failed request; ``dead_letter`` is
    the payload hash of the DLQ record, when one was written."""
    obj: dict = {
        "id": request_id,
        "ok": False,
        "stage": stage,
        "reason": reason,
    }
    if dead_letter is not None:
        obj["dead_letter"] = dead_letter
    return obj


def encode_response(obj: dict) -> bytes:
    """Render one response as a wire line."""
    return json.dumps(obj, sort_keys=True).encode("utf-8") + b"\n"


def decode_response(line: bytes | str) -> dict:
    """Parse one response line (client side), raising
    :class:`ProtocolError` when it is not a UTF-8 JSON object."""
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"response line is not UTF-8: {exc}")
    try:
        obj = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(f"response is not valid JSON: {exc}")
    if not isinstance(obj, dict):
        raise ProtocolError("response must be a JSON object")
    return obj
