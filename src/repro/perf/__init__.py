"""Performance subsystem: deterministic parallelism and corpus sweeps.

``repro.perf`` holds the pieces that make the hot paths fast without
changing any result:

* :mod:`repro.perf.parallel` — ordered, deterministic process fan-out
  (``parallel_map``), used by the random forest's fit;
* :mod:`repro.perf.pool` — the persistent worker pools behind it and
  behind the engine;
* :mod:`repro.perf.engine` — the persistent-worker corpus engine and
  its content-addressed sweep cache.

The pool and parallel helpers sit *below* ``repro.ml`` in the layer
DAG so the forest can consume them; the corpus engine is its own node
above ``core`` (it drives the full pipeline).  Per-table reuse lives
in ``core`` itself (:class:`repro.core.profile.TableProfile`).  The
repository benchmark lives outside the package, in ``bench/``.
"""

from repro.perf.parallel import effective_jobs, parallel_map

__all__ = [
    "effective_jobs",
    "parallel_map",
]
