"""``repro.serve`` — the long-lived classification service.

The production shell over the batch substrate: an asyncio front end
(:class:`ClassificationService`, the ``repro-serve/1`` wire protocol)
feeding a standing :class:`~repro.perf.engine.CorpusEngine`, with a
durable, replayable :class:`DeadLetterQueue` so no failure is ever
silent.  See ``docs/serving.md``.
"""

from repro.serve.client import TcpServiceClient, connect
from repro.serve.dlq import (
    DLQ_SCHEMA,
    DeadLetter,
    DeadLetterQueue,
    ReplayReport,
    replay_dead_letters,
)
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_SCHEMA,
    ServeRequest,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
    failure_response,
    result_from_payload,
    result_payload,
    success_response,
)
from repro.serve.service import ClassificationService, run_service

__all__ = [
    "DLQ_SCHEMA",
    "MAX_LINE_BYTES",
    "PROTOCOL_SCHEMA",
    "ClassificationService",
    "DeadLetter",
    "DeadLetterQueue",
    "ReplayReport",
    "ServeRequest",
    "TcpServiceClient",
    "connect",
    "decode_request",
    "decode_response",
    "encode_request",
    "encode_response",
    "failure_response",
    "replay_dead_letters",
    "result_from_payload",
    "result_payload",
    "run_service",
    "success_response",
]
