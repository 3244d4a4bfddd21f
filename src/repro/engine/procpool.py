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

Workers are ``python -m repro.engine.procpool`` child interpreters
(spawn-safe, no inherited fork state), not :mod:`multiprocessing`
processes, which re-import the parent's ``__main__`` in every child —
hazardous under pytest and arbitrary driver scripts.  The only shared
state is the named shared memory itself.

Segment lifetime has a single owner: the driver's
:class:`SharedBlockRegistry` creates every segment (operands *and*
declared outputs) and unlinks every segment; workers only ever attach
and close.  ``Context.stop()`` → ``backend.shutdown()`` →
``registry.unlink_all()`` guarantees nothing outlives the context —
``live_segments()`` after shutdown is the leak-test observable.

Protocol: length-prefixed pickled frames over the worker's
stdin/stdout pipes, one synchronous request per checked-out worker
(the calling thread holds the worker until the reply, so nothing needs
demultiplexing); end of input stops the worker.  In a request,
ndarrays of :data:`_SHARE_MIN_BYTES` or more are their descriptors.
"""

from __future__ import annotations

import importlib
import io
import os
import pickle
import struct
import subprocess
import sys
import threading

from typing import Any, Callable, Sequence

import numpy as np

from . import linthooks
from .blocks import VALUE_DTYPE
from .errors import BackendError

try:  # pragma: no cover - available on every supported platform
    from multiprocessing import shared_memory
except ImportError:  # pragma: no cover
    shared_memory = None  # type: ignore[assignment]

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


def resolve_op(op: str) -> Callable[..., Any]:
    """The function behind one :data:`_OPS` entry."""
    module, name = _OPS[op].split(":")
    return getattr(importlib.import_module(module), name)


# ----------------------------------------------------------------------
# driver side: the segment registry
# ----------------------------------------------------------------------
class SharedBlockRegistry:
    """Driver-owned registry of shared-memory segments.

    ``publish`` copies an ndarray into a fresh segment and returns its
    ``(name, dtype, shape)`` descriptor; ``publish_cached`` memoizes by
    array identity so a cached partition block or a broadcast factor is
    copied out once per lifetime, not once per task (least recently
    used entries leave first past ``_PUBLISH_CACHE_CAP``).  ``create``
    allocates an uninitialized output segment for a worker to fill.
    Everything is unlinked at ``unlink_all()`` (backend shutdown);
    ``live_segments()`` is the leak-test observable.
    """

    def __init__(self):
        self._lock = linthooks.make_lock("SharedBlockRegistry")
        #: name -> SharedMemory (every segment this registry owns)
        self._segments: dict[str, Any] = {}
        #: id(array) -> (descriptor, keepalive ref) for published inputs
        self._cached: dict[int, tuple[tuple, np.ndarray]] = {}
        #: name -> pin count; pinned segments survive cache eviction
        #: while a request referencing their descriptor is in flight
        self._pins: dict[str, int] = {}

    def publish(self, arr: np.ndarray) -> tuple:
        """Copy ``arr`` into a new segment; returns its descriptor."""
        arr = np.ascontiguousarray(arr)
        desc, view = self.create(arr.shape, arr.dtype)
        view[...] = arr
        return desc

    def publish_cached(self, arr: np.ndarray) -> tuple:
        """``publish`` memoized on array identity (with a keepalive
        reference, so ``id`` reuse cannot alias a dead array).  The
        returned descriptor comes back pinned: eviction skips it until
        the caller ``unpin``\\ s, so a concurrent thread overflowing the
        cache cannot unlink a segment another request still references.
        """
        key = id(arr)
        with self._lock:
            linthooks.access(self, "cached", write=True)
            hit = self._cached.get(key)
            if hit is not None and hit[1] is arr:
                # a hit is a use (the entry moves to the young end): a
                # partition's columns outlive any number of one-shot arrays
                self._cached[key] = self._cached.pop(key)
                self._pins[hit[0][0]] = self._pins.get(hit[0][0], 0) + 1
                return hit[0]
        desc = self.publish(arr)
        with self._lock:
            linthooks.access(self, "cached", write=True)
            self._cached[key] = (desc, arr)
            self._pins[desc[0]] = self._pins.get(desc[0], 0) + 1
            while len(self._cached) > _PUBLISH_CACHE_CAP:
                victim = next((k for k, (old, _) in self._cached.items()
                               if not self._pins.get(old[0])), None)
                if victim is None:  # everything in flight; grow past cap
                    break
                self._release_locked(self._cached.pop(victim)[0][0])
        return desc

    def unpin(self, names: Sequence[str]) -> None:
        """Drop one pin per name, making the segments evictable again."""
        with self._lock:
            linthooks.access(self, "cached", write=True)
            for name in names:
                count = self._pins.get(name, 0) - 1
                if count > 0:
                    self._pins[name] = count
                else:
                    self._pins.pop(name, None)

    def create(self, shape: tuple, dtype: np.dtype = VALUE_DTYPE
               ) -> tuple[tuple, np.ndarray]:
        """Allocate an output segment; returns (descriptor, ndarray
        view).  The caller copies the result out and then ``release``\\ s
        the descriptor's segment."""
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        shm = shared_memory.SharedMemory(create=True, size=max(1, nbytes))
        view = np.ndarray(shape, dtype=dtype, buffer=shm.buf)
        with self._lock:
            linthooks.access(self, "segments", write=True)
            self._segments[shm.name] = shm
        return (shm.name, dtype.str, shape), view

    def _release_locked(self, name: str) -> None:
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

    def release(self, name: str) -> None:
        """Close and unlink one segment."""
        with self._lock:
            linthooks.access(self, "segments", write=True)
            self._release_locked(name)

    def unlink_all(self) -> None:
        """Close and unlink every live segment (idempotent)."""
        with self._lock:
            linthooks.access(self, "segments", write=True)
            self._cached.clear()
            self._pins.clear()
            for name in list(self._segments):
                self._release_locked(name)

    def live_segments(self) -> list[str]:
        """Names of segments not yet unlinked (leak observable)."""
        with self._lock:
            linthooks.access(self, "segments", write=False)
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
            [sys.executable, "-m", "repro.engine.procpool"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=_worker_env())

    def handshake(self) -> None:
        """Surface import/env failures before the first real request."""
        ping = {"op": "ping", "cap": _ATTACH_CACHE_CAP}
        if not self.request(pickle.dumps(ping)).get("ok"):
            raise WorkerDied("worker failed its startup handshake")

    def request(self, data: bytes) -> dict:
        try:
            _write_frame(self._proc.stdin, data)
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


def _spawn_workers(count: int) -> list[_WorkerProcess] | None:
    """``count`` workers, every one launched before any is hand-shaken;
    one failure kills them all and returns None."""
    workers: list[_WorkerProcess] = []
    try:
        for _ in range(count):
            workers.append(_WorkerProcess())
        for worker in workers:
            worker.handshake()
    except (OSError, WorkerDied):
        for worker in workers:
            worker.kill()
        return None
    return workers


class ProcessWorkerPool:
    """A lazily started pool of worker processes with exclusive
    checkout (one in-flight request per worker)."""

    def __init__(self, num_workers: int):
        self._num_workers = num_workers
        self._cond = threading.Condition(
            linthooks.make_lock("ProcessPoolLifecycle"))
        self._idle: list[_WorkerProcess] = []
        self._live = 0
        self._started = False
        self._stopped = False

    def ensure_started(self) -> bool:
        """Spawn the workers on first use; False when unavailable
        (spawn failed, no shared memory, or already stopped)."""
        if shared_memory is None:
            return False
        with self._cond:
            linthooks.access(self, "workers", write=True)
            if self._stopped:
                return False
            if not self._started:
                self._started = True
                self._idle = _spawn_workers(self._num_workers) or []
                self._live = len(self._idle)
            return self._live > 0

    def checkout(self) -> _WorkerProcess:
        """Claim an idle worker, blocking while all are busy; raises
        :class:`~repro.engine.errors.BackendError` once the pool is
        stopped or every worker has died unrecoverably."""
        with self._cond:
            while not self._idle and not self._stopped and self._live:
                self._cond.wait()
            linthooks.access(self, "workers", write=True)
            if self._stopped or not self._live:
                raise BackendError("process worker pool is stopped")
            return self._idle.pop()

    def checkin(self, worker: _WorkerProcess, dead: bool = False) -> None:
        """Return a worker after a request; ``dead=True`` kills it and
        respawns a replacement (the pool shrinks when respawn fails)."""
        respawned = None
        if dead:
            worker.kill()
            respawned = _spawn_workers(1)
        with self._cond:
            linthooks.access(self, "workers", write=True)
            if not dead:
                self._idle.append(worker)
            elif respawned is None:
                self._live -= 1
            elif self._stopped:
                respawned[0].kill()
            else:
                self._idle += respawned
            self._cond.notify_all()

    def stop(self) -> None:
        """Shut every worker down (idempotent) — all are told before
        any is waited for; subsequent checkouts raise and
        ``ensure_started`` reports unavailability."""
        with self._cond:
            linthooks.access(self, "workers", write=True)
            self._stopped = True
            workers, self._idle = self._idle, []
            self._live = 0
            self._cond.notify_all()
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


class OffloadClient:
    """Kernel-facing handle that runs a task body on a worker process.
    ``run`` is the only way a request is built; whenever it cannot
    offload it says so and the caller runs the same function inline, so
    the choice never changes a bit of output."""

    def __init__(self, pool: ProcessWorkerPool,
                 registry: SharedBlockRegistry):
        self._pool = pool
        self._registry = registry

    def run(self, op: str, arrays: Sequence[Any], meta: dict,
            out: tuple | None = None) -> tuple | None:
        """``_OPS[op](*arrays, **meta)`` on a worker: its result tuple,
        or None for "compute inline" (pool unavailable or stopped, the
        worker died, or an operand's segment lost the publish-cache
        eviction race — ``missing_segment``).  A worker-side exception
        raises ``RuntimeError`` here.

        ``arrays`` may nest lists, tuples, dicts and blocks; their
        large ndarrays are shared (pass a cached block's own arrays:
        the publish cache keys on identity).  Results ride in the reply
        frame, except that an op whose last result can be large names
        its bound as ``out=(shape, dtype)`` and gets it through a
        driver-created segment.
        """
        if not self._pool.ensure_started():
            return None
        registry = self._registry
        pinned: list[str] = []
        out_desc = out_view = None
        try:
            if out is not None:
                out_desc, out_view = registry.create(*out)
            frame = io.BytesIO()
            _SharingPickler(frame, registry, pinned).dump(
                {"op": op, "arrays": arrays, "meta": meta,
                 "out": out_desc})
            try:
                worker = self._pool.checkout()
            except BackendError:
                return None
            try:
                reply = worker.request(frame.getvalue())
            except WorkerDied:
                self._pool.checkin(worker, dead=True)
                return None
            self._pool.checkin(worker)
            if not reply.get("ok"):
                if reply.get("missing_segment"):
                    return None
                raise RuntimeError("process worker op failed:\n"
                                   + str(reply.get("error")))
            results = reply["results"]
            if out_view is not None:
                results = (*results[:-1], np.array(out_view[:results[-1]]))
            return results
        finally:
            registry.unpin(pinned)
            if out_desc is not None:
                out_view = None
                registry.release(out_desc[0])


# ----------------------------------------------------------------------
# worker side (python -m repro.engine.procpool)
# ----------------------------------------------------------------------
def _disable_resource_tracking() -> None:
    """Stop this process's resource tracker from adopting segments it
    merely attaches: the driver owns every segment's lifetime, and a
    tracker that 'cleans up' on worker exit would unlink memory the
    driver is still using."""
    try:  # pragma: no cover - exercised only inside workers
        from multiprocessing import resource_tracker
    except ImportError:  # pragma: no cover
        return
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
        results = list(resolve_op(request["op"])(*request["arrays"],
                                                 **request["meta"]))
        if request["out"] is not None:
            count = len(results[-1])
            cache.view(request["out"])[:count] = results[-1]
            results[-1] = count
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


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    sys.exit(worker_main())
