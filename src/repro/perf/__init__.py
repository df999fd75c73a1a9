"""Performance subsystem: caching, deterministic parallelism, corpus sweeps.

``repro.perf`` holds the pieces that make the hot paths fast without
changing any result:

* :mod:`repro.perf.cache` — a corpus-level feature cache keyed by
  table content hash plus extractor configuration, with bounded LRU
  memory;
* :mod:`repro.perf.parallel` — ordered, deterministic fan-out helpers
  (``parallel_map``) used by the random forest and by per-file corpus
  feature extraction;
* :mod:`repro.perf.engine` — the persistent-worker corpus engine and
  its content-addressed sweep cache.

The cache, pool and parallel helpers sit *below* ``repro.core`` in the
layer DAG so the classifiers can consume them; the corpus engine is its
own node above ``core`` (it drives the full pipeline).  The repository
benchmark lives outside the package, in ``bench/``.
"""

from repro.perf.cache import FeatureCache, table_content_hash
from repro.perf.parallel import effective_jobs, parallel_map

__all__ = [
    "FeatureCache",
    "effective_jobs",
    "parallel_map",
    "table_content_hash",
]
