"""Process pools: deterministic fan-out over warm or scoped workers.

The rule for every parallel path in this repository: parallelism may
change *when* work happens, never *what* it computes.  Two pieces
guarantee that by construction:

* :class:`WorkerPool` submits in input order and collects back into
  input order, so results are identical to the sequential path;
* no helper draws randomness — callers pre-derive one independent
  seeded stream per item (see :func:`repro.util.rng.spawn`), so the
  schedule cannot leak into the numbers.

A :class:`WorkerPool` keeps its executor alive between calls, so the
fork cost is paid once per pool, not once per call, and its
``initializer`` hook ships one-time state (a fitted model's
compiled tensors) to each worker at spawn instead of pickling it into
every task.  The corpus engine (:mod:`repro.perf.engine`) owns the
only long-lived pool in any process.  :func:`parallel_map` — the
random forest's fit — opens a pool for one call and closes it before
returning, so a fit's workers exist only while it fits.

Pool contract:

* an exception raised by the work function propagates unchanged and
  the work is never re-run;
* a broken pool (workers killed from outside) raises
  :class:`~concurrent.futures.process.BrokenProcessPool` to the
  caller *and* discards the dead executor, so the next call starts a
  fresh one instead of failing forever.

Lifecycle events are published as metrics (``worker_pool.spawns`` /
``worker_pool.reuses`` / ``worker_pool.broken``) so a deployment can
see whether its pools are actually warm — a spawn count tracking the
call count means the amortization is not happening.
"""

from __future__ import annotations

import os
import pickle
import threading
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, Sequence, TypeVar

from repro.errors import InvalidParameterError
from repro.obs import get_metrics

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


class WorkerPool:
    """A process pool whose workers stay warm across ``map`` calls.

    Parameters
    ----------
    max_workers:
        Worker process count; must be positive.
    initializer / initargs:
        Optional one-time per-worker setup, run in each worker at
        spawn.  This is the broadcast channel: state passed here is
        pickled **once per worker**, not once per task.

    The executor is created lazily on first use and recreated after a
    :class:`BrokenProcessPool`, so one crashed batch never condemns
    the pool.  Thread-safe; creation and discard happen under a lock.
    """

    def __init__(
        self,
        max_workers: int,
        initializer: Callable[..., None] | None = None,
        initargs: tuple = (),
    ):
        if max_workers < 1:
            raise InvalidParameterError("max_workers must be >= 1")
        self.max_workers = max_workers
        self._initializer = initializer
        self._initargs = tuple(initargs)
        self._lock = threading.Lock()
        self._executor: ProcessPoolExecutor | None = None
        self._metrics = get_metrics()

    # ------------------------------------------------------------------
    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        """Apply ``fn`` to every item, preserving input order.

        Work-function exceptions propagate unchanged (remaining queued
        items are cancelled, running ones finish — no item ever runs
        twice).  Pool-infrastructure failures also propagate, but a
        broken executor is discarded first so the next call recovers.
        """
        executor = self.executor()
        try:
            return list(executor.map(fn, items))
        except BrokenProcessPool:
            self.discard(executor)
            raise

    def executor(self) -> ProcessPoolExecutor:
        """The live executor, spawning one if none is running.

        For callers that hold many futures at once: keep the executor
        each future was submitted to, and after a
        ``BrokenProcessPool`` retire exactly that one with
        :meth:`discard` — never whichever executor is current by then.
        """
        with self._lock:
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.max_workers,
                    initializer=self._initializer,
                    initargs=self._initargs,
                )
                self._metrics.increment("worker_pool.spawns")
            else:
                self._metrics.increment("worker_pool.reuses")
            return self._executor

    def discard(self, executor: ProcessPoolExecutor) -> bool:
        """Retire ``executor`` after a break; the next use respawns.

        Idempotent per executor: only the first call for a given
        executor shuts it down, counts ``worker_pool.broken`` and
        returns ``True``.  A replacement spawned since is untouched.
        """
        with self._lock:
            if self._executor is not executor:
                return False
            self._executor = None
        self._metrics.increment("worker_pool.broken")
        executor.shutdown(wait=False, cancel_futures=True)
        return True

    def shutdown(self, wait: bool = True) -> None:
        """Stop the workers; the next use spawns a fresh executor."""
        with self._lock:
            executor = self._executor
            self._executor = None
        if executor is not None:
            executor.shutdown(wait=wait, cancel_futures=not wait)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


# ----------------------------------------------------------------------
# Worker counts and the one-call fan-out behind the forest's fit.
# ----------------------------------------------------------------------
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

    The workers live for this call only: the pool is opened here and
    shut down, its workers joined, before the call returns.  The
    sequential path takes over if the pool cannot be created or the
    payload cannot be shipped — a missing ``fork``, a sandbox without
    ``sem_open``, a worker killed from outside — and the result is
    identical either way because each item is independent.  That
    degradation is recorded (a ``parallel.pool_degraded`` metric plus
    a ``RuntimeWarning``).  Exceptions raised by ``fn`` itself
    propagate unchanged — a work error is never retried sequentially
    (it would run the work twice and mask the real failure as a perf
    degradation).
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
    # silent failure this function exists to prevent.
    try:
        pickle.dumps(fn)
    except _UNPICKLABLE_CALLABLE as exc:
        _degrade_to_sequential(exc)
        return _sequential_map(fn, work)
    try:
        with WorkerPool(jobs) as pool:
            return pool.map(fn, work)
    except _POOL_FAILURES as exc:
        # Pools are an optimization, never a requirement: when the
        # pool *infrastructure* fails (an unshippable work item,
        # missing fork/semaphores, dying workers) the equivalent
        # sequential computation takes over.  Inputs are re-used
        # untouched — process workers only ever saw copies.
        _degrade_to_sequential(exc)
        return _sequential_map(fn, work)
