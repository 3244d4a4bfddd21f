"""Executor backends: where a task's array-only body may run.

The :class:`~repro.engine.taskscheduler.TaskScheduler` runs every
stage's tasks itself, as generators in one loop on the calling thread
(see its module docstring); a backend says how many tasks that loop
keeps in flight and, on the process backend, offers the worker
processes their bodies go to.  Two implementations ship:

``ExecutorBackend``
    The serial backend: one task at a time, no workers, nothing to
    release.  A window of one is the reference semantics every other
    backend is bit-identical to.

``ProcessPoolBackend``
    A spawn-safe pool of worker *processes* (Spark's executors) that
    the columnar kernel hands whole task bodies to
    (:meth:`~repro.engine.procpool.OffloadClient.run`).  Partition
    blocks cross the process boundary as
    ``multiprocessing.shared_memory`` descriptors via a
    :class:`~repro.engine.procpool.SharedBlockRegistry` — (name, dtype,
    shape) triples, not pickles.  The task scheduler keeps up to
    ``num_workers`` tasks with a request in flight.

One engine thread: no module under ``repro`` imports a threading API
(a source guard in ``tests/engine/test_thread_safety.py`` holds it to
that).  Engine code runs on the calling thread only, so no engine
structure locks anything; the parallel work is the workers'.

Which backend a context gets, and how wide, is ``ctx.conf.backend`` /
``ctx.conf.backend_workers`` (resolved in :mod:`repro.engine.conf`):
``serial`` always runs exactly 1 task at a time and ignores the count;
the process backend spawns that many worker processes and keeps that
many tasks in flight.
"""

from __future__ import annotations

from .errors import BackendError
from .procpool import OffloadClient, ProcessWorkerPool, SharedBlockRegistry


class ExecutorBackend:
    """The serial backend, and what every backend offers the engine."""

    #: canonical backend name (what ``Context.backend.name`` reports)
    name = "serial"
    #: the worker-process offload client (None: every body runs inline)
    offload = None

    @property
    def num_workers(self) -> int:
        """How many tasks the task scheduler keeps in flight."""
        return 1

    def live_segments(self) -> list[str]:
        """Shared-memory segments not yet unlinked (leak observable:
        must be empty after ``shutdown``)."""
        return []

    def shutdown(self) -> None:
        """Release backend resources (idempotent)."""


class ProcessPoolBackend(ExecutorBackend):
    """A process pool for block kernels.

    Task code closes over the whole engine (context, shuffle state,
    caches) and is deliberately unpicklable, so tasks stay on the
    driver.  What *does* cross the process boundary is a task's
    array-only body: the vectorized kernel hands it to ``self.offload``,
    which publishes the large operand arrays once into shared memory
    and ships descriptors per call.  Workers are spawned lazily on the
    first offloaded call, so contexts that never touch the columnar
    kernel pay nothing; one that does waits ~0.35 s (2 vCPUs; 0.7 s
    with an eager ``repro``) while its workers import engine and kernels.
    """

    name = "process"

    def __init__(self, num_workers: int):
        if num_workers < 1:
            raise BackendError(
                f"backend_workers must be >= 1, got {num_workers}")
        self._num_workers = num_workers
        self.registry = SharedBlockRegistry()
        self._workers = ProcessWorkerPool(num_workers)
        self.offload = OffloadClient(self._workers, self.registry)

    @property
    def num_workers(self) -> int:
        return self._num_workers

    def live_segments(self) -> list[str]:
        return self.registry.live_segments()

    def shutdown(self) -> None:
        self._workers.stop()
        self.registry.unlink_all()


def create_backend(name: str, num_workers: int) -> ExecutorBackend:
    """Instantiate the backend with the canonical name ``name``
    (``num_workers`` sizes the process pool; serial ignores it).
    Unknown names raise :class:`~repro.engine.errors.BackendError`."""
    if name == "serial":
        return ExecutorBackend()
    if name == "process":
        return ProcessPoolBackend(num_workers)
    raise BackendError(
        f"unknown executor backend {name!r}; expected one of "
        f"serial, process")
