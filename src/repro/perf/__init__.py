"""Performance subsystem: deterministic parallelism and corpus sweeps.

``repro.perf`` holds the pieces that make the hot paths fast without
changing any result:

* :mod:`repro.perf.pool` — worker pools and ordered, deterministic
  process fan-out (``parallel_map``, whose pool lives for one call:
  the random forest's fit);
* :mod:`repro.perf.engine` — the persistent-worker corpus engine and
  its content-addressed sweep cache.

The pool sits *below* ``repro.ml`` in the layer DAG so the forest can
consume it; the corpus engine is its own node above ``core`` (it
drives the full pipeline).  Per-table reuse lives in ``core`` itself
(:class:`repro.core.profile.TableProfile`).  The repository benchmark
lives outside the package, in ``bench/``.
"""

from repro.perf.pool import effective_jobs, parallel_map

__all__ = [
    "effective_jobs",
    "parallel_map",
]
