"""Persistent process pools: warm workers amortized across calls.

Every process fan-out used to stand up a fresh
:class:`~concurrent.futures.ProcessPoolExecutor`, fork its workers,
run one batch of tasks and tear the whole thing down again.  For
corpus-scale work — a forest fit per CV fold, a sweep over thousands
of files — the pool startup (fork + pipe setup, ~50–100ms on a
2-vCPU Linux VM) and the per-task payload pickling dominate the useful
work.  A :class:`WorkerPool` keeps its executor alive between calls so
the fork cost is paid once per process lifetime, and its
``initializer`` hook ships one-time state (a fitted model's compiled
tensors) to each worker at spawn instead of pickling it into every
task.

Determinism contract (inherited from :mod:`repro.perf.parallel`):

* :meth:`WorkerPool.map` submits in input order and collects back into
  input order, so results are identical to the sequential path;
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

One module-level **shared pool** serves every anonymous
``parallel_map`` fan-out in the process; engines that need a worker
initializer (:mod:`repro.perf.engine`) own private pools.  All pools
register with :func:`shutdown_all_pools`, which runs at interpreter
exit so no forked worker outlives its parent.
"""

from __future__ import annotations

import atexit
import threading
import weakref
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Sequence, TypeVar

from repro.errors import InvalidParameterError
from repro.obs import get_metrics

T = TypeVar("T")
R = TypeVar("R")

#: Every live WorkerPool, so interpreter exit can reap their workers.
#: Weak references: a pool dropped by its owner must be collectable —
#: its executor's own finalizer handles the workers.  Guarded by
#: ``_REGISTRY_LOCK``: registration races the atexit sweep, and a
#: WeakSet mutating mid-iteration (a pool garbage-collected while
#: :func:`shutdown_all_pools` walks it) raises ``RuntimeError`` at the
#: worst possible moment — interpreter teardown.
_REGISTRY_LOCK = threading.Lock()
_LIVE_POOLS: "weakref.WeakSet[WorkerPool]" = weakref.WeakSet()


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
        with _REGISTRY_LOCK:
            _LIVE_POOLS.add(self)

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

    def submit(self, fn: Callable[..., R], *args) -> "Future[R]":
        """Submit one call; same recovery semantics as :meth:`map`."""
        executor = self.executor()
        try:
            return executor.submit(fn, *args)
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
# The process-wide shared pool behind ``parallel_map``.

_SHARED_LOCK = threading.Lock()
_SHARED_POOL: WorkerPool | None = None


def shared_pool(max_workers: int) -> WorkerPool:
    """The process-wide pool, grown to at least ``max_workers``.

    A request larger than the current pool replaces it (the old
    workers are released without waiting); a smaller request reuses
    the existing, bigger pool — ordered collection makes the result
    independent of the worker count, and idle workers cost only
    memory.
    """
    global _SHARED_POOL
    with _SHARED_LOCK:
        pool = _SHARED_POOL
        if pool is None or pool.max_workers < max_workers:
            if pool is not None:
                pool.shutdown(wait=False)
            pool = WorkerPool(max_workers)
            _SHARED_POOL = pool
        return pool


def shutdown_shared_pool() -> None:
    """Tear down the shared pool (tests; the next use respawns it)."""
    global _SHARED_POOL
    with _SHARED_LOCK:
        pool = _SHARED_POOL
        _SHARED_POOL = None
    if pool is not None:
        pool.shutdown()


def shutdown_all_pools() -> None:
    """Stop every live pool's workers (registered with ``atexit``).

    Runs at interpreter exit, where nothing can be assumed healthy: a
    pool whose workers already crashed, an executor half-finalized by
    its own atexit hook, a WeakSet entry dying mid-sweep.  The
    registry is snapshotted under its lock and every shutdown failure
    is tolerated — a dead executor is exactly the outcome we wanted,
    and an exception escaping an atexit callback prints a spurious
    traceback over an otherwise clean exit.
    """
    try:
        shutdown_shared_pool()
    except Exception:
        pass
    with _REGISTRY_LOCK:
        pools = list(_LIVE_POOLS)
    for pool in pools:
        try:
            pool.shutdown(wait=False)
        except Exception:
            continue


atexit.register(shutdown_all_pools)
