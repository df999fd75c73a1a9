"""Span-based tracing on monotonic clocks.

A :class:`Tracer` records **spans** — named, nested intervals measured
with :func:`time.perf_counter` — through a context-manager API::

    tracer = Tracer()
    with activate(tracer):
        with tracer.span("analyze"):
            with tracer.span("parsing"):
                ...

Spans are recorded in *start order* with their parent index and
nesting depth, so a single-threaded run always produces the same span
tree for the same work (the ordering-determinism test pins this).
Instrumented code never receives a tracer argument: it asks
:func:`get_tracer` for the process-local active tracer, which is the
zero-cost :class:`NullTracer` unless a caller activated a real one
(the CLI ``--trace`` flag or the ``REPRO_TRACE`` environment
variable).  The disabled path is one
attribute lookup plus an empty context manager — nothing allocates,
nothing reads a clock — so tracing-off output is byte-identical to an
uninstrumented build.

The stage names used across the pipeline are declared once here
(:data:`PIPELINE_STAGES`) and shared by the instrumentation and the
docs, so a span in a trace file always matches a row in the stage
glossary of ``docs/observability.md``.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

#: The canonical pipeline stage names, in execution order.  The
#: instrumentation in ``repro.io.ingest`` and ``repro.core.strudel``
#: emits exactly these names, and lint rule R103 holds every one of
#: them to at least one call site.
PIPELINE_STAGES: tuple[str, ...] = (
    "ingest_decode",
    "dialect_detection",
    "parsing",
    "line_features",
    "line_prediction",
    "cell_features",
    "cell_prediction",
)

#: Lifecycle spans that are legitimate but are not pipeline stages:
#: whole-call envelopes (``fit`` / ``analyze`` / ``analyze_batch``),
#: the evaluation driver's loop structure (``cross_validate`` /
#: ``cv_fold``) and the one-off forest tensor packing
#: (``forest_compile``).  The span-name lint (R103) accepts these in
#: addition to :data:`PIPELINE_STAGES` but does not require call sites
#: for them.
AUX_SPANS: tuple[str, ...] = (
    "fit",
    "analyze",
    "analyze_batch",
    "cross_validate",
    "cv_fold",
    "forest_compile",
    "sweep",
    "sweep_batch",
    "adapter_enumerate",
    "serve.batch",
    "serve.drain",
    "serve.replay",
)


@dataclass
class Span:
    """One named interval: where it sits in the tree and when it ran.

    ``index`` is the span's position in start order; ``parent`` is the
    index of the enclosing span (``None`` at the root) and ``depth``
    its nesting level.  ``start``/``end`` are monotonic
    ``perf_counter`` readings — meaningful only relative to each
    other, never as wall-clock timestamps.
    """

    name: str
    index: int
    parent: int | None
    depth: int
    start: float
    end: float | None = None
    attributes: dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Elapsed seconds (zero while the span is still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start


class Tracer:
    """Records a tree of spans; thread-safe, deterministic when serial.

    The span list is shared (appends are locked) while the *stack* of
    open spans is thread-local, so worker threads started inside a
    span each grow their own branch without corrupting the nesting of
    the others.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attributes: object) -> Iterator[Span]:
        """Open a span named ``name``; closes when the block exits.

        Keyword arguments become the span's attributes (fold indices,
        repetition numbers, …) and travel into the emitted trace.
        """
        stack = self._stack()
        parent = stack[-1].index if stack else None
        with self._lock:
            record = Span(
                name=name,
                index=len(self.spans),
                parent=parent,
                depth=len(stack),
                start=time.perf_counter(),
                attributes=dict(attributes),
            )
            self.spans.append(record)
        stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()


class _NullSpan:
    """The reusable do-nothing context manager ``NullTracer`` returns."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The default tracer: every span is a shared no-op singleton.

    No clock is read, nothing is allocated per call, so instrumented
    hot paths cost one method call when tracing is off.
    """

    __slots__ = ()

    def span(self, name: str, **attributes: object) -> _NullSpan:
        return _NULL_SPAN


#: The process-wide null instance; ``get_tracer`` returns it until a
#: real tracer is activated.
NULL_TRACER = NullTracer()

_active_tracer: Tracer | NullTracer = NULL_TRACER


def get_tracer() -> Tracer | NullTracer:
    """The process-local active tracer (``NULL_TRACER`` by default)."""
    return _active_tracer


def set_tracer(tracer: Tracer | NullTracer) -> Tracer | NullTracer:
    """Install ``tracer`` as the active tracer; returns the previous
    one so callers can restore it (prefer :func:`activate`)."""
    global _active_tracer
    previous = _active_tracer
    _active_tracer = tracer
    return previous


@contextmanager
def activate(tracer: Tracer | NullTracer) -> Iterator[Tracer | NullTracer]:
    """Scope ``tracer`` as the active tracer for the ``with`` block."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
