"""Observability subsystem: tracing, metrics, and emitters.

``repro.obs`` is the zero-dependency substrate every layer reports
into — it sits just above ``errors`` in the layer DAG so ``io``,
``perf``, ``core`` and ``ml`` can all import it without cycles:

* :mod:`repro.obs.trace` — a span-based :class:`Tracer` on monotonic
  clocks with a process-local activation point (:func:`get_tracer` /
  :func:`activate`) and a zero-cost :class:`NullTracer` default, plus
  the canonical :data:`PIPELINE_STAGES` glossary;
* :mod:`repro.obs.metrics` — a process-local :class:`Metrics`
  registry (counters / gauges / timers) absorbing feature-cache
  statistics, ingestion repair events, pool degradations and CV fold
  counts;
* :mod:`repro.obs.emit` — the ``repro-trace/1`` payload plus text and
  JSON renderers behind the CLI ``--trace`` flag and ``REPRO_TRACE``.

Observability never changes results: with the default ``NullTracer``
the instrumented pipeline is byte-identical to an uninstrumented one,
and with tracing on it still is — spans only *watch*.
"""

from repro.obs.emit import (
    TRACE_FORMATS,
    TRACE_SCHEMA,
    render_trace_json,
    render_trace_text,
    trace_payload,
    write_trace,
)
from repro.obs.metrics import Metrics, get_metrics
from repro.obs.trace import (
    NULL_TRACER,
    PIPELINE_STAGES,
    NullTracer,
    Span,
    Tracer,
    activate,
    get_tracer,
    set_tracer,
)

__all__ = [
    "Metrics",
    "NULL_TRACER",
    "NullTracer",
    "PIPELINE_STAGES",
    "Span",
    "TRACE_FORMATS",
    "TRACE_SCHEMA",
    "Tracer",
    "activate",
    "get_metrics",
    "get_tracer",
    "render_trace_json",
    "render_trace_text",
    "set_tracer",
    "trace_payload",
    "write_trace",
]
