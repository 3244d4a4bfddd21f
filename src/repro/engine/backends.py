"""Pluggable executor backends: how a task set's thunks actually run.

The :class:`~repro.engine.taskscheduler.TaskScheduler` builds one thunk
per partition and hands the list to an :class:`ExecutorBackend`; the
backend decides *where* and *with what concurrency* they execute.
Two implementations ship:

``SerialBackend``
    Runs thunks in partition order on the calling thread.  This is the
    pre-refactor engine, bit for bit: the first raised exception aborts
    the set immediately and later thunks never start.

``ProcessPoolBackend``
    Orchestration threads plus a spawn-safe pool of worker *processes*
    (Spark's executors) that the columnar kernel hands whole task
    bodies to (:meth:`~repro.engine.procpool.OffloadClient.run`).
    Partition blocks cross the process boundary as
    ``multiprocessing.shared_memory`` descriptors via a
    :class:`~repro.engine.procpool.SharedBlockRegistry` — (name, dtype,
    shape) triples, not pickles.  Its threads only ever wait on those
    workers, so the task scheduler gives them just the stages whose
    lineage holds an offloading node (``RDD.offloads``) and runs every
    other stage on the calling thread, as the serial backend would.

Speculation is the task scheduler's, not the backend's: a speculated
attempt is cancelled and its backup runs inline on the same thread, so
no backend starts a thread outside its pool.

Which backend a context gets, and how wide, is ``ctx.conf.backend`` /
``ctx.conf.backend_workers`` (resolved in :mod:`repro.engine.conf`):
``serial`` always runs exactly 1 worker and ignores the count; the
process backend sizes *both* pools with it — N orchestration threads
and N worker processes.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Any, Callable, Sequence

from . import linthooks
from .errors import BackendError, CancelledAttempt

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .speculation import CancellationGroup


class ExecutorBackend(ABC):
    """Executes a task set's thunks and returns per-partition results."""

    #: canonical backend name (what ``Context.backend.name`` reports)
    name: str = "abstract"

    @property
    @abstractmethod
    def num_workers(self) -> int:
        """Maximum number of concurrently running tasks."""

    @abstractmethod
    def run(self, thunks: Sequence[Callable[[], Any]],
            cancel: "CancellationGroup | None" = None) -> list[Any]:
        """Run every thunk; return their results in input order.

        ``cancel``, when given, is the task set's shared
        :class:`~repro.engine.speculation.CancellationGroup`: backends
        that overlap tasks in time cancel it on the first terminal
        error so sibling in-flight attempts abort at their next
        cooperative checkpoint instead of running to completion.
        """

    def shutdown(self) -> None:
        """Release backend resources (idempotent)."""


class SerialBackend(ExecutorBackend):
    """In-order, in-thread execution — the reference semantics."""

    name = "serial"

    @property
    def num_workers(self) -> int:
        return 1

    def run(self, thunks: Sequence[Callable[[], Any]],
            cancel: "CancellationGroup | None" = None) -> list[Any]:
        # No concurrency: nothing overlaps a failing task, so the group
        # is never cancelled here (the first exception aborts the set).
        return [thunk() for thunk in thunks]


class ProcessPoolBackend(ExecutorBackend):
    """Thread-pool orchestration + a process pool for block kernels.

    Deterministic at the edges: submission and results in partition order;
    on a terminal failure in-flight siblings are cancelled cooperatively,
    *all* thunks are still awaited and the lowest failing partition's
    exception wins.  Task thunks close over the whole engine (context,
    shuffle state, locks) and are deliberately unpicklable, so tasks
    themselves stay on the driver's thread pool.  What *does* cross the
    process boundary is a task's array-only body: the vectorized kernel
    hands it to ``self.offload``, which publishes the large operand arrays
    once into shared memory and ships descriptors per call.  Workers are
    spawned lazily on the first offloaded call, so contexts that never
    touch the columnar kernel pay nothing.
    """

    name = "process"

    def __init__(self, num_workers: int):
        if num_workers < 1:
            raise BackendError(
                f"backend_workers must be >= 1, got {num_workers}")
        self._num_workers = num_workers
        self._pool = ThreadPoolExecutor(
            max_workers=num_workers, thread_name_prefix="repro-exec")
        # deferred import: procpool pulls in blocks/shared_memory,
        # which serial contexts never need
        from .procpool import (OffloadClient, ProcessWorkerPool,
                               SharedBlockRegistry)
        self.registry = SharedBlockRegistry()
        self._workers = ProcessWorkerPool(num_workers)
        self.offload = OffloadClient(self._workers, self.registry)

    @property
    def num_workers(self) -> int:
        return self._num_workers

    def run(self, thunks: Sequence[Callable[[], Any]],
            cancel: "CancellationGroup | None" = None) -> list[Any]:
        linthooks.pooled_run(self.name, self._num_workers, len(thunks))
        if cancel is not None:
            thunks = [self._cancelling(thunk, cancel) for thunk in thunks]
        futures = [self._pool.submit(thunk) for thunk in thunks]
        results: list[Any] = []
        first_error: BaseException | None = None
        first_cancelled: BaseException | None = None
        for future in futures:
            try:
                results.append(future.result())
            except CancelledAttempt as exc:
                # Collateral damage of a terminal sibling failure, not a
                # root cause: only surfaced when nothing better exists.
                if first_cancelled is None:
                    first_cancelled = exc
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error
        if first_cancelled is not None:
            raise first_cancelled
        return results

    @staticmethod
    def _cancelling(thunk: Callable[[], Any],
                    cancel: "CancellationGroup") -> Callable[[], Any]:
        """Wrap a thunk to cancel the whole task set on terminal failure,
        so sibling in-flight attempts abort at their next checkpoint."""
        def wrapper() -> Any:
            try:
                return thunk()
            except CancelledAttempt:
                raise
            except BaseException:
                cancel.cancel("task-set failure")
                raise
        return wrapper

    def live_segments(self) -> list[str]:
        """Shared-memory segments not yet unlinked (leak observable:
        must be empty after ``shutdown``)."""
        return self.registry.live_segments()

    def shutdown(self) -> None:
        self._workers.stop()
        self.registry.unlink_all()
        self._pool.shutdown(wait=True)


def create_backend(name: str, num_workers: int) -> ExecutorBackend:
    """Instantiate the backend with the canonical name ``name``
    (``num_workers`` sizes the pooled ones; serial ignores it).
    Unknown names raise :class:`~repro.engine.errors.BackendError`."""
    if name == "serial":
        return SerialBackend()
    if name == "process":
        return ProcessPoolBackend(num_workers)
    raise BackendError(
        f"unknown executor backend {name!r}; expected one of "
        f"serial, process")
