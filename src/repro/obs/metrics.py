"""Process-local metrics registry: counters, gauges, timers.

One :class:`Metrics` instance per process (:func:`get_metrics`)
absorbs the pipeline's operational events — sweep-cache hits and
misses, ingestion repairs, process-pool degradations, CV fold counts —
so "what did the system do?" has one queryable answer instead of a
scatter of per-object counters.  All mutation happens under a lock;
:meth:`Metrics.snapshot` returns a sorted, JSON-ready copy so readers
never see a torn state (the unlocked-read bug this module retires).

Names are dotted, lowercase, and owned by the emitting subsystem
(``sweep_cache.hits``, ``ingest.recovered``,
``parallel.pool_degraded``, ``cv.folds``); the full glossary lives in
``docs/observability.md``.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator

#: Every metric name the pipeline may emit.  The metric-name lint
#: (R104) requires each ``increment``/``gauge``/``observe``/``time``
#: call site outside this module to use a literal from this tuple;
#: names built at run time are findings.  Keep this list in sync with
#: the glossary in ``docs/observability.md``.
METRIC_NAMES: tuple[str, ...] = (
    "compiled_forest.compiles",
    "compiled_forest.nodes",
    "cv.folds",
    "cv.fold_seconds",
    "parallel.pool_degraded",
    "worker_pool.spawns",
    "worker_pool.reuses",
    "worker_pool.broken",
    "sweep.files",
    "sweep.skipped",
    "sweep.batches",
    "sweep.worker_crashes",
    "sweep_cache.hits",
    "sweep_cache.misses",
    "sweep_cache.evictions",
    "adapter.sources",
    "adapter.containers",
    "adapter.records",
    "adapter.errors",
    "ingest.files",
    "ingest.recovered",
    "ingest.bom_stripped",
    "ingest.replacement_chars",
    "ingest.nul_chars",
    "ingest.truncated_bytes",
    "ingest.unterminated_quote",
    "ingest.dialect_fallback",
    "serve.requests",
    "serve.results",
    "serve.dead_letters",
    "serve.replays",
    "serve.inflight",
)


class Metrics:
    """A thread-safe registry of counters, gauges and timers.

    * **counters** only ever increase (events, item counts);
    * **gauges** record the latest value of a level (cache size);
    * **timers** accumulate observed durations (count / total /
      min / max seconds).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._timers: dict[str, list[float]] = {}

    # ------------------------------------------------------------------
    def increment(self, name: str, value: int = 1) -> None:
        """Add ``value`` to the counter ``name`` (created at zero)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to ``value`` (last write wins)."""
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, seconds: float) -> None:
        """Record one duration sample under the timer ``name``."""
        with self._lock:
            stats = self._timers.get(name)
            if stats is None:
                self._timers[name] = [1.0, seconds, seconds, seconds]
            else:
                stats[0] += 1.0
                stats[1] += seconds
                stats[2] = min(stats[2], seconds)
                stats[3] = max(stats[3], seconds)

    @contextmanager
    def time(self, name: str) -> Iterator[None]:
        """Time the ``with`` block and observe it under ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.observe(name, time.perf_counter() - start)

    # ------------------------------------------------------------------
    def counter(self, name: str) -> int:
        """Current value of the counter ``name`` (zero if unseen)."""
        with self._lock:
            return self._counters.get(name, 0)

    def snapshot(self) -> dict:
        """A consistent, sorted, JSON-ready copy of every metric."""
        with self._lock:
            return {
                "counters": {
                    name: self._counters[name]
                    for name in sorted(self._counters)
                },
                "gauges": {
                    name: self._gauges[name]
                    for name in sorted(self._gauges)
                },
                "timers": {
                    name: {
                        "count": int(self._timers[name][0]),
                        "total_seconds": self._timers[name][1],
                        "min_seconds": self._timers[name][2],
                        "max_seconds": self._timers[name][3],
                    }
                    for name in sorted(self._timers)
                },
            }

    def reset(self) -> None:
        """Drop every metric (tests; never called by library code)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._timers.clear()


#: The process-local registry every subsystem reports into.
_METRICS = Metrics()


def get_metrics() -> Metrics:
    """The process-local :class:`Metrics` registry."""
    return _METRICS
