"""Corpus-level feature cache.

Repeated grouped cross-validation re-extracts the same per-file
feature matrices in every fold and repetition, and the paper's own
profiling says that is where the time goes ("most of the time is
spent on creating the feature vectors", Section 6.3.4).  The matrices
only depend on the table contents and the extractor configuration —
never on the fold — so one corpus-level cache makes every fold after
the first a lookup.

Keys are built from two parts:

* a **content hash** of the table (SHA-256 over the raw cell values
  with unambiguous separators), so two structurally identical tables
  share an entry and any edit invalidates it;
* an **extractor configuration key** provided by the caller (the
  extractors expose ``cache_key`` properties), so changing detector
  parameters or feature options can never serve stale matrices.

Values are tuples of numpy arrays (the protocol the Strudel
classifiers use: ``(features,)`` for line matrices,
``(positions, features)`` for cell matrices).  Memory is bounded by
an LRU policy.  The cache lives in memory only; persistent reuse
across processes is the sweep cache's job
(:class:`repro.perf.engine.SweepCache`).

The cache is thread-safe: concurrent ``get_or_compute`` calls may
race to compute the same entry, but both compute identical arrays
(extraction is deterministic), so last-write-wins is harmless.  The
hit/miss/eviction counters are mutated under the same lock and must
be read through :meth:`FeatureCache.stats`, which snapshots them all
under that lock — reading the attributes directly can observe a torn
state mid-update.  Every event is mirrored into the process-local
:mod:`repro.obs` metrics registry (``feature_cache.hits`` /
``feature_cache.misses`` / ``feature_cache.evictions``).
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict

import numpy as np

from repro.errors import InvalidParameterError
from repro.obs import get_metrics
from repro.types import Table

#: Byte separators that make the row/cell flattening injective.
_CELL_SEP = b"\x1f"
_ROW_SEP = b"\x1e"


def table_content_hash(table: Table) -> str:
    """SHA-256 hex digest of a table's raw cell values.

    Cells are joined with the ASCII unit separator and rows with the
    record separator, so no combination of cell contents can collide
    with a different grid of the same characters.
    """
    digest = hashlib.sha256()
    for row in table.rows():
        for value in row:
            digest.update(value.encode("utf-8", errors="surrogatepass"))
            digest.update(_CELL_SEP)
        digest.update(_ROW_SEP)
    return digest.hexdigest()


def array_hash(array: np.ndarray) -> str:
    """SHA-256 hex digest of an array's dtype, shape and bytes.

    Used to key cell-feature entries by the line-probability matrix
    they were derived from: different upstream line models must never
    share cell features.
    """
    digest = hashlib.sha256()
    contiguous = np.ascontiguousarray(array)
    digest.update(str(contiguous.dtype).encode("ascii"))
    digest.update(str(contiguous.shape).encode("ascii"))
    digest.update(contiguous.tobytes())
    return digest.hexdigest()


class FeatureCache:
    """Bounded LRU cache for per-table feature matrices.

    Parameters
    ----------
    max_entries:
        Maximum number of in-memory entries; the least recently used
        entry is evicted first.  Must be positive.
    """

    def __init__(self, max_entries: int = 256):
        if max_entries < 1:
            raise InvalidParameterError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: OrderedDict[str, tuple[np.ndarray, ...]] = (
            OrderedDict()
        )
        self._lock = threading.Lock()
        # The registry is resolved once: ``get`` sits on the CV hot
        # path, where a per-hit lookup is measurable noise.
        self._metrics = get_metrics()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    @staticmethod
    def make_key(*parts: str) -> str:
        """Join key components unambiguously (``|`` is the separator)."""
        return "|".join(parts)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict[str, int]:
        """A consistent snapshot of the counters, taken under the lock.

        This is the only supported way to *read* ``hits`` / ``misses``
        / ``evictions`` — concurrent lookups mutate them under the
        lock, so unlocked attribute reads can tear (e.g. a hit counted
        before its entry refresh is visible).
        """
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "size": len(self._entries),
            }

    # ------------------------------------------------------------------
    def get(self, key: str) -> tuple[np.ndarray, ...] | None:
        """The cached value for ``key``, or ``None``.

        A hit refreshes the entry's LRU position.
        """
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
                self.hits += 1
        if value is not None:
            self._metrics.increment("feature_cache.hits")
            return value
        with self._lock:
            self.misses += 1
        self._metrics.increment("feature_cache.misses")
        return None

    def put(self, key: str, value: tuple[np.ndarray, ...]) -> None:
        """Store ``value`` under ``key``, evicting LRU entries if full."""
        with self._lock:
            self._admit(key, value)

    def get_or_compute(self, key, compute):
        """The cached value for ``key``, computing and storing on miss.

        ``compute`` must be a zero-argument callable returning a tuple
        of numpy arrays; it runs outside the cache lock so concurrent
        extraction can proceed in parallel.
        """
        cached = self.get(key)
        if cached is not None:
            return cached
        value = tuple(compute())
        self.put(key, value)
        return value

    def clear(self) -> None:
        """Drop every entry."""
        with self._lock:
            self._entries.clear()

    # ------------------------------------------------------------------
    def _admit(self, key: str, value: tuple[np.ndarray, ...]) -> None:
        """Insert under the held lock and enforce the memory bound."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        evicted = 0
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            evicted += 1
        if evicted:
            self.evictions += evicted
            self._metrics.increment("feature_cache.evictions", evicted)
