"""Performance subsystem: caching, deterministic parallelism, benchmarks.

``repro.perf`` holds the pieces that make the hot paths fast without
changing any result:

* :mod:`repro.perf.cache` — a corpus-level feature cache keyed by
  table content hash plus extractor configuration, with bounded LRU
  memory;
* :mod:`repro.perf.parallel` — ordered, deterministic fan-out helpers
  (``parallel_map``) used by the random forest and by per-file corpus
  feature extraction;
* :mod:`repro.perf.bench` — the ``repro bench`` harness that times
  fit / analyze / CV stages and emits ``BENCH_pipeline.json`` so the
  perf trajectory is recorded per commit.

The cache and parallel helpers sit *below* ``repro.core`` in the layer
DAG so the classifiers can consume them; the benchmark harness is its
own top layer (it drives the full pipeline end to end).
"""

from repro.perf.cache import FeatureCache, table_content_hash
from repro.perf.parallel import effective_jobs, parallel_map

__all__ = [
    "FeatureCache",
    "effective_jobs",
    "parallel_map",
    "table_content_hash",
]
