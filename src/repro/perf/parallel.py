"""Deterministic process fan-out.

The rule for every parallel path in this repository: parallelism may
change *when* work happens, never *what* it computes.
:func:`parallel_map` guarantees that by construction:

* work items are submitted in input order and results are collected
  back into input order, so downstream reductions see the exact
  sequence the sequential path would produce;
* no helper draws randomness — callers pre-derive one independent
  seeded stream per item (see :func:`repro.util.rng.spawn`), so the
  schedule cannot leak into the numbers.

Its one caller is the random forest's fit, whose pure-Python tree
induction is CPU-bound; the work runs on the persistent shared
:class:`repro.perf.pool.WorkerPool`, so repeated fits (one per CV
fold) reuse warm workers instead of forking a pool each time.  A
failure to stand up or use the pool *itself* — missing ``fork``,
unpicklable payload, a sandbox without ``sem_open``, a worker killed
from outside — degrades to the sequential path, which is always
equivalent, and the degradation is recorded (a
``parallel.pool_degraded`` metric plus a ``RuntimeWarning``) so a
silently-sequential deployment cannot masquerade as a parallel one.
An exception raised by the work function is **not** infrastructure:
it propagates immediately and the work is never re-run.
"""

from __future__ import annotations

import os
import pickle
import warnings
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, Sequence, TypeVar

from repro.obs import get_metrics
from repro.perf.pool import shared_pool

#: Failures of the pool machinery (never of the work function): the
#: payload cannot be shipped, the pool cannot be created in this
#: environment, or its workers died out from under it.
_POOL_FAILURES = (pickle.PicklingError, BrokenProcessPool, OSError)

#: What ``pickle.dumps`` raises for a callable that cannot be shipped
#: to a worker process: PicklingError for a module-attribute mismatch,
#: AttributeError for a local function/lambda/closure, TypeError for
#: objects whose reduction is forbidden outright.  Checked *before*
#: the pool exists, in the main thread, so these types can never be
#: confused with an exception the work function raised in a worker.
_UNPICKLABLE_CALLABLE = (pickle.PicklingError, AttributeError, TypeError)

T = TypeVar("T")
R = TypeVar("R")


def effective_jobs(n_jobs: int | None, n_tasks: int) -> int:
    """Resolve an ``n_jobs`` request into a concrete worker count.

    ``None`` and ``1`` mean sequential; ``0`` or a negative value mean
    "all available cores"; any other value is clamped to the number of
    tasks so no worker sits idle by construction.
    """
    if n_tasks <= 1:
        return 1
    if n_jobs is None:
        return 1
    if n_jobs <= 0:
        n_jobs = os.cpu_count() or 1
    return max(1, min(n_jobs, n_tasks))


def _sequential_map(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    return [fn(item) for item in items]


def _degrade_to_sequential(exc: BaseException) -> None:
    """Record a pool degradation loudly: metric plus RuntimeWarning.

    Heavy-traffic deployments must be able to see when their
    parallelism silently became 1x; a counter alone is not enough for
    interactive runs, a warning alone is not enough for dashboards.
    """
    get_metrics().increment("parallel.pool_degraded")
    warnings.warn(
        f"process pool unavailable, degrading to sequential "
        f"execution: {type(exc).__name__}: {exc}",
        RuntimeWarning,
        stacklevel=3,
    )


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    n_jobs: int | None = 1,
) -> list[R]:
    """Apply ``fn`` to every item in worker processes, preserving
    input order in the output.

    Parameters
    ----------
    fn:
        The per-item function.  It must be picklable (a module-level
        function or ``functools.partial`` of one); otherwise the call
        degrades to the sequential path.
    items:
        The work items; consumed eagerly so the task count is known.
    n_jobs:
        Worker count request, resolved by :func:`effective_jobs`.

    The sequential path also takes over if the pool cannot be created
    or the payload cannot be shipped; the result is identical either
    way because each item is independent.  Exceptions raised by ``fn``
    itself propagate unchanged — a work error is never retried
    sequentially (it would run the work twice and mask the real
    failure as a perf degradation).
    """
    work = list(items)
    jobs = effective_jobs(n_jobs, len(work))
    if jobs <= 1:
        return _sequential_map(fn, work)
    # Pre-flight the function's picklability here in the main thread,
    # where the exception type is unambiguous.  A worker can
    # legitimately raise AttributeError or TypeError *from the work
    # itself*; catching those around ``pool.map`` would mask a work
    # error as a perf degradation and re-run the work — the exact
    # silent failure this module exists to prevent.
    try:
        pickle.dumps(fn)
    except _UNPICKLABLE_CALLABLE as exc:
        _degrade_to_sequential(exc)
        return _sequential_map(fn, work)
    try:
        return shared_pool(jobs).map(fn, work)
    except _POOL_FAILURES as exc:
        # Pools are an optimization, never a requirement: when the
        # pool *infrastructure* fails (an unshippable work item,
        # missing fork/semaphores, dying workers) the equivalent
        # sequential computation takes over.  Inputs are re-used
        # untouched — process workers only ever saw copies.  A broken
        # shared pool has already been discarded by WorkerPool.map, so
        # the *next* call gets fresh workers.
        _degrade_to_sequential(exc)
        return _sequential_map(fn, work)
