"""Spawn-safe process worker pool and shared-memory block registry.

The :class:`~repro.engine.backends.ProcessPoolBackend` splits work in
two: task *orchestration* (lineage, shuffle bookkeeping, retries) stays
on the driver, while the array-only *body* of a task — one entry of
:data:`_OPS`, a module-level ``repro.kernels`` function the inline path
calls too — runs on a worker *process* that escapes the GIL
(:meth:`OffloadClient.run`).  Large operands cross the process boundary
as ``(name, dtype, shape)`` shared-memory descriptors — a worker
attaches the driver's segment by name and reads it zero-copy — small
ones and the results ride pickled in the frames.

Workers are child interpreters running :func:`worker_main`
(spawn-safe, no inherited fork state), not :mod:`multiprocessing`
processes, which re-import the parent's ``__main__`` in every child —
hazardous under pytest and arbitrary driver scripts.  The only shared
state is the named shared memory itself.  A worker imports the engine
and the kernels, no scipy: a cold start takes ~0.35 s on 2 vCPUs (0.7 s
when ``import repro`` imported every subpackage).

Segment lifetime has a single owner: the driver's
:class:`SharedBlockRegistry` creates and unlinks every segment; workers
only ever attach and close.  ``Context.stop()`` → ``backend.shutdown()``
→ ``registry.unlink_all()`` guarantees nothing outlives the context —
``live_segments()`` after shutdown is the leak-test observable.

Protocol: length-prefixed pickled frames over the worker's
stdin/stdout pipes, one request in flight per checked-out worker (a
:class:`Pending` holds the worker from ``send`` to ``receive``, so
nothing needs demultiplexing); end of input stops the worker.  In a
request, ndarrays of :data:`_SHARE_MIN_BYTES` or more are their
descriptors; a reply carries its results pickled, whatever their size.

One engine thread (see :mod:`repro.engine.backends`): the registry and
the pool are touched only by the task scheduler's loop, which sends up
to ``num_workers`` requests before it takes the first reply.
"""

from __future__ import annotations

import importlib
import io
import os
import pickle
import struct
import subprocess
import sys

from collections import Counter
from multiprocessing import shared_memory
from typing import Any, Callable, Sequence

import numpy as np

from .blocks import VALUE_DTYPE
from .errors import BackendError


#: operand arrays of at least this many bytes cross as shared-memory
#: descriptors, published once each; smaller ones (score vectors, a
#: 300 x R factor) cost less pickled into the request frame
_SHARE_MIN_BYTES = 64 * 1024

#: caps on the driver's cached input segments (least recently used go
#: first, pinned in-flight ones never) and on a worker's attachments
#: (sent in its handshake); tests patch them to force eviction storms
_PUBLISH_CACHE_CAP = 256
_ATTACH_CACHE_CAP = 256

#: what a worker can run: op name -> ``module:function`` under
#: ``repro.kernels``, resolved on first use (the kernels import the
#: engine).  Every entry is the function the inline path calls too, so
#: where a task body runs cannot change a bit of it.
_OPS = {
    "contrib": "repro.kernels.vectorized:block_contribution",
    "sampled_contrib":
        "repro.kernels.vectorized:sampled_block_contribution",
}


#: a worker's program (imported by name, not run as ``__main__``, so
#: the worker holds one copy of this module)
_WORKER_MAIN = ("import sys; from repro.engine.procpool import "
                "worker_main; sys.exit(worker_main())")


def resolve_op(op: str) -> Callable[..., Any]:
    """The function behind one :data:`_OPS` entry."""
    module, name = _OPS[op].split(":")
    return getattr(importlib.import_module(module), name)


# ----------------------------------------------------------------------
# driver side: the segment registry
# ----------------------------------------------------------------------
class SharedBlockRegistry:
    """Driver-owned registry of shared-memory segments.

    ``publish_cached`` copies an ndarray into a fresh segment once per
    array identity and returns its ``(name, dtype, shape)`` descriptor,
    so a cached partition block or a broadcast factor is copied out once
    per lifetime, not once per task (least recently used entries leave
    first past ``_PUBLISH_CACHE_CAP``).  Everything is unlinked at
    ``unlink_all()``; ``live_segments()`` is the leak-test observable.
    """

    def __init__(self):
        #: name -> SharedMemory (every segment this registry owns)
        self._segments: dict[str, Any] = {}
        #: id(array) -> (descriptor, keepalive ref) for published inputs
        self._cached: dict[int, tuple[tuple, np.ndarray]] = {}
        #: name -> pin count; pinned segments survive cache eviction
        #: while a request referencing their descriptor is in flight
        self._pins: Counter[str] = Counter()

    def publish_cached(self, arr: np.ndarray) -> tuple:
        """The descriptor of a segment holding a copy of ``arr``, made
        once per array identity (with a keepalive reference, so ``id``
        reuse cannot alias a dead array).  The returned descriptor comes
        back pinned: eviction skips it until the caller ``unpin``\\ s,
        so another task overflowing the cache while this request is in
        flight cannot unlink its segment.
        """
        key = id(arr)
        hit = self._cached.get(key)
        if hit is not None and hit[1] is arr:
            # a hit is a use (the entry moves to the young end): a
            # partition's columns outlive any number of one-shot arrays
            self._cached[key] = self._cached.pop(key)
            self._pins[hit[0][0]] += 1
            return hit[0]
        desc, view = self.create(arr.shape, arr.dtype)
        view[...] = arr
        self._cached[key] = (desc, arr)
        self._pins[desc[0]] += 1
        while len(self._cached) > _PUBLISH_CACHE_CAP:
            victim = next((k for k, (old, _) in self._cached.items()
                           if not self._pins[old[0]]), None)
            if victim is None:  # everything in flight; grow past cap
                break
            self.release(self._cached.pop(victim)[0][0])
        return desc

    def unpin(self, names: Sequence[str]) -> None:
        """Drop one pin per name, making the segments evictable again
        (a count that reaches zero leaves the counter)."""
        self._pins -= Counter(names)

    def create(self, shape: tuple, dtype: np.dtype = VALUE_DTYPE
               ) -> tuple[tuple, np.ndarray]:
        """Allocate a segment; returns (descriptor, ndarray view).
        The caller fills the view and ``release``\\ s the descriptor's
        segment when done with it."""
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        shm = shared_memory.SharedMemory(create=True, size=max(1, nbytes))
        view = np.ndarray(shape, dtype=dtype, buffer=shm.buf)
        self._segments[shm.name] = shm
        return (shm.name, dtype.str, shape), view

    def release(self, name: str) -> None:
        """Close and unlink one segment."""
        shm = self._segments.pop(name, None)
        if shm is None:
            return
        try:
            shm.close()
        except BufferError:  # a view is still exported; gc will close
            pass
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def unlink_all(self) -> None:
        """Close and unlink every live segment (idempotent)."""
        self._cached.clear()
        self._pins.clear()
        for name in list(self._segments):
            self.release(name)

    def live_segments(self) -> list[str]:
        """Names of segments not yet unlinked (leak observable)."""
        return list(self._segments)


# ----------------------------------------------------------------------
# driver side: worker processes and the pool
# ----------------------------------------------------------------------
def _worker_env() -> dict[str, str]:
    """Child environment with the repro package importable: prepend
    the path we were imported from, covering PYTHONPATH=src checkouts
    and installed trees alike."""
    env = dict(os.environ)
    pkg_root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (pkg_root, env.get("PYTHONPATH"))))
    return env


def _write_frame(stream: Any, data: bytes) -> None:
    stream.write(struct.pack("<I", len(data)))
    stream.write(data)
    stream.flush()


def _read_frame(stream: Any) -> bytes | None:
    header = stream.read(4)
    if len(header) < 4:
        return None
    (length,) = struct.unpack("<I", header)
    data = stream.read(length)
    return data if len(data) == length else None


class WorkerDied(BackendError):
    """Transport failure talking to a worker process."""


class _WorkerProcess:
    """One child interpreter speaking the frame protocol.  Launching
    does not wait for it — ``handshake`` does, before first use — so a
    pool's workers pay their interpreter start-up side by side."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, "-c", _WORKER_MAIN],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=_worker_env())

    def handshake(self) -> None:
        """Surface import/env failures before the first real request."""
        self.send(pickle.dumps({"op": "ping", "cap": _ATTACH_CACHE_CAP}))
        if not self.receive().get("ok"):
            raise WorkerDied("worker failed its startup handshake")

    def send(self, data: bytes) -> None:
        """Write one request frame; the reply waits in the pipe until
        :meth:`receive`."""
        try:
            _write_frame(self._proc.stdin, data)
        except (OSError, ValueError) as exc:
            raise WorkerDied(f"worker pipe failed: {exc}") from exc

    def receive(self) -> dict:
        """Read the reply to the request in flight."""
        try:
            reply = _read_frame(self._proc.stdout)
        except (OSError, ValueError) as exc:
            raise WorkerDied(f"worker pipe failed: {exc}") from exc
        if reply is None:
            raise WorkerDied("worker exited mid-request")
        return pickle.loads(reply)

    def signal_stop(self) -> None:
        """End of input is the worker's cue to exit."""
        try:
            self._proc.stdin.close()
        except OSError:
            pass

    def wait_stopped(self) -> None:
        try:
            self._proc.wait(timeout=5)
        except subprocess.TimeoutExpired:  # pragma: no cover
            self.kill()

    def kill(self) -> None:
        try:
            self._proc.kill()
            self._proc.wait(timeout=5)
        except (OSError, subprocess.TimeoutExpired):  # pragma: no cover
            pass


def _spawn_workers(count: int, workers: list[_WorkerProcess]
                   ) -> list[_WorkerProcess]:
    """``workers`` and ``count`` more, every one launched before any is
    hand-shaken; one failure kills them all and returns none."""
    try:
        workers.extend(_WorkerProcess() for _ in range(count))
        for worker in workers:
            worker.handshake()
    except (OSError, WorkerDied):
        for worker in workers:
            worker.kill()
        return []
    return workers


class ProcessWorkerPool:
    """A lazily started pool of worker processes with exclusive
    checkout (one in-flight request per worker).  It never waits for a
    worker to come back: ``checkout`` says "compute inline" instead."""

    def __init__(self, num_workers: int):
        self._idle: list[_WorkerProcess] = []
        #: replacements ``checkin`` launched, not yet hand-shaken
        self._starting: list[_WorkerProcess] = []
        self._unspawned = num_workers
        self._stopped = False

    def checkout(self) -> _WorkerProcess | None:
        """Claim an idle worker (the first checkout spawns the pool; with
        none idle, a launched replacement is hand-shaken), or None
        ("compute inline") when none answers or the pool is stopped."""
        if self._stopped:
            return None
        self._idle += _spawn_workers(self._unspawned, [])
        self._unspawned = 0
        while not self._idle and self._starting:
            self._idle += _spawn_workers(0, [self._starting.pop(0)])
        return self._idle.pop() if self._idle else None

    def checkin(self, worker: _WorkerProcess, dead: bool = False) -> None:
        """Return a worker after a request; ``dead=True`` kills it and
        launches a replacement, which starts while the engine goes on."""
        if not dead:
            self._idle.append(worker)
            return
        worker.kill()
        try:
            self._starting.append(_WorkerProcess())
        except OSError:   # the pool goes on without it
            pass

    def stop(self) -> None:
        """Shut every worker down (idempotent) — all are told before
        any is waited for; later checkouts return None.  No request
        outlives the task loop, so no checkin comes after."""
        self._stopped = True
        workers = self._idle + self._starting
        self._idle, self._starting = [], []
        for worker in workers:
            worker.signal_stop()
        for worker in workers:
            worker.wait_stopped()


class _SharingPickler(pickle.Pickler):
    """Pickles one request; an ndarray of :data:`_SHARE_MIN_BYTES` or
    more, at any depth, goes as the pinned descriptor of its published
    segment (the worker's unpickler attaches it), the rest by value."""

    def __init__(self, file: Any, registry: SharedBlockRegistry,
                 pinned: list[str]):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._registry = registry
        self._pinned = pinned

    def persistent_id(self, obj: Any) -> tuple | None:
        if type(obj) is np.ndarray and obj.nbytes >= _SHARE_MIN_BYTES:
            desc = self._registry.publish_cached(obj)
            self._pinned.append(desc[0])
            return desc
        return None


class Pending:
    """A task body in flight on a checked-out worker, with the segments
    pinned for its request and ``then``, the continuation that turns the
    op's results into the task's record."""

    def __init__(self, client: "OffloadClient", worker: _WorkerProcess,
                 request: dict, then: Callable[[tuple], Any]):
        self._client = client
        self._worker: _WorkerProcess | None = worker
        self._request = request
        self._then = then
        self._pinned: list[str] = []

    def resolve(self) -> Any:
        """``then`` of the op's results.  A dead worker or an operand
        whose segment lost the publish-cache eviction race
        (``missing_segment``) means the body runs inline, now; a
        worker-side exception raises ``RuntimeError`` here."""
        request = self._request
        try:
            reply = self._receive()
            if reply is None or reply.get("missing_segment"):
                results = resolve_op(request["op"])(*request["arrays"],
                                                    **request["meta"])
            elif not reply["ok"]:
                raise RuntimeError("process worker op failed:\n"
                                   + str(reply.get("error")))
            else:
                results = reply["results"]
        finally:
            self.discard()
        return self._then(results)

    def discard(self) -> None:
        """Drain the reply unread if it is still due, and give back the
        worker and the pins (idempotent)."""
        if self._worker is not None:
            self._receive()
        self._client._registry.unpin(self._pinned)
        self._pinned = []

    def _receive(self) -> dict | None:
        """The reply, or None when the worker died taking it."""
        worker, self._worker = self._worker, None
        try:
            reply = worker.receive()
        except WorkerDied:
            reply = None
        self._client._pool.checkin(worker, dead=reply is None)
        return reply


class OffloadClient:
    """Kernel-facing handle that sends a task body to a worker process.
    ``run`` is the only way a request is built; whenever it cannot
    offload it says so and the caller runs the same function inline, so
    the choice never changes a bit of output."""

    def __init__(self, pool: ProcessWorkerPool,
                 registry: SharedBlockRegistry):
        self._pool = pool
        self._registry = registry

    def run(self, op: str, arrays: Sequence[Any], meta: dict,
            then: Callable[[tuple], Any] = lambda results: results
            ) -> Pending | None:
        """Send ``_OPS[op](*arrays, **meta)`` to an idle worker: the
        :class:`Pending` request, or None for "compute inline" (no idle
        worker, or the worker died taking the request).  ``arrays`` may
        nest lists, tuples, dicts and blocks; their large ndarrays are
        shared (the publish cache keys on identity); the results come
        back pickled in the reply."""
        worker = self._pool.checkout()
        if worker is None:
            return None
        request = {"op": op, "arrays": arrays, "meta": meta}
        pending = Pending(self, worker, request, then)
        try:
            frame = io.BytesIO()
            _SharingPickler(frame, self._registry,
                            pending._pinned).dump(request)
            worker.send(frame.getvalue())
        except BaseException as exc:
            pending._worker = None
            pending.discard()
            dead = isinstance(exc, WorkerDied)
            self._pool.checkin(worker, dead=dead)
            if not dead:
                raise
            return None
        return pending


# ----------------------------------------------------------------------
# worker side (:data:`_WORKER_MAIN`)
# ----------------------------------------------------------------------
def _disable_resource_tracking() -> None:
    """Stop this process's resource tracker from adopting segments it
    merely attaches: the driver owns every segment's lifetime, and a
    tracker that 'cleans up' on worker exit would unlink memory the
    driver is still using."""
    from multiprocessing import resource_tracker
    original_register = resource_tracker.register
    original_unregister = resource_tracker.unregister

    def register(name: str, rtype: str) -> None:  # pragma: no cover
        if rtype != "shared_memory":
            original_register(name, rtype)

    def unregister(name: str, rtype: str) -> None:  # pragma: no cover
        if rtype != "shared_memory":
            original_unregister(name, rtype)

    resource_tracker.register = register
    resource_tracker.unregister = unregister


class _AttachmentCache:  # pragma: no cover - runs inside workers
    """Worker-side cache of attached segments, keyed by name.

    ``view`` never evicts: ``SharedMemory.close`` unmaps the segment
    even while ndarray views over it are alive (CPython does not count
    numpy's buffer exports), so closing mid-request silently redirects
    a live view's reads and writes at recycled address space.  Trimming
    is deferred to :meth:`trim`, which the frame loop calls between
    requests when no views exist.
    """

    def __init__(self):
        self._shms: dict[str, Any] = {}
        self.cap = _ATTACH_CACHE_CAP

    def view(self, desc: tuple) -> np.ndarray:
        name, dtype, shape = desc
        shm = self._shms.pop(name, None)
        if shm is None:
            shm = shared_memory.SharedMemory(name=name)
        self._shms[name] = shm   # (re)inserted last: most recent
        return np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)

    def trim(self, keep: int) -> None:
        """Close all but the ``keep`` most recently viewed attachments.
        Only safe between requests — see the class docstring."""
        while len(self._shms) > keep:
            try:
                self._shms.pop(next(iter(self._shms))).close()
            except BufferError:
                pass


class _AttachingUnpickler(pickle.Unpickler):  # pragma: no cover
    """Worker-side twin of :class:`_SharingPickler`: a descriptor
    becomes an ndarray view of the attached segment."""

    def __init__(self, file: Any, cache: _AttachmentCache):
        super().__init__(file)
        self._cache = cache

    def persistent_load(self, desc: tuple) -> np.ndarray:
        return self._cache.view(desc)


def _serve(data: bytes, cache: _AttachmentCache) -> dict:  # pragma: no cover
    """Reply to one request frame (see :meth:`OffloadClient.run`)."""
    try:
        request = _AttachingUnpickler(io.BytesIO(data), cache).load()
        if request["op"] == "ping":
            cache.cap = request["cap"]
            return {"ok": True}
        results = resolve_op(request["op"])(*request["arrays"],
                                            **request["meta"])
        return {"ok": True, "results": tuple(results)}
    except FileNotFoundError:
        # an operand's segment was evicted on the driver between
        # publish and our attach; the driver recomputes inline
        return {"ok": False, "missing_segment": True}
    except Exception:
        import traceback
        return {"ok": False, "error": traceback.format_exc()}


def worker_main() -> int:  # pragma: no cover - runs as a subprocess
    """Frame loop of one worker process."""
    inp = sys.stdin.buffer
    out = sys.stdout.buffer
    # claim the protocol channel: anything print()ed goes to stderr
    sys.stdout = sys.stderr
    _disable_resource_tracking()
    cache = _AttachmentCache()
    try:
        while True:
            data = _read_frame(inp)
            if data is None:
                break
            reply = _serve(data, cache)
            _write_frame(out, pickle.dumps(
                reply, protocol=pickle.HIGHEST_PROTOCOL))
            # every view of the request died with _serve's frame, so
            # closing surplus attachments cannot invalidate live buffers
            del reply
            cache.trim(cache.cap)
    finally:
        cache.trim(0)
    return 0

