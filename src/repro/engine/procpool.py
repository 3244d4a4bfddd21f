"""Spawn-safe process worker pool and shared-memory block registry.

The :class:`~repro.engine.backends.ProcessPoolBackend` splits work in
two: task *orchestration* (lineage, shuffle bookkeeping, retries) stays
on the driver's thread pool, while the numeric inner loops of the
columnar kernel are offloaded to worker *processes* that escape the
GIL.  Data crosses the process boundary as ``(name, dtype, shape)``
shared-memory descriptors — a worker attaches the driver's segment by
name and reads it zero-copy — so the per-task message is a few hundred
bytes regardless of partition size.

Workers are launched as ``python -m repro.engine.procpool`` child
interpreters (spawn-safe: a fresh interpreter, no inherited fork
state), not via :mod:`multiprocessing` process start, because the
latter re-imports the parent's ``__main__`` module in every child —
hazardous under pytest and arbitrary driver scripts.  The only shared
state is the named shared memory itself.

Segment lifetime has a single owner: the driver's
:class:`SharedBlockRegistry` creates every segment (inputs *and*
outputs) and unlinks every segment; workers only ever attach and
close.  ``Context.stop()`` → ``backend.shutdown()`` →
``registry.unlink_all()`` guarantees nothing outlives the context —
``live_segments()`` after shutdown is the leak-test observable.

Protocol: length-prefixed pickled frames over the worker's
stdin/stdout pipes, one synchronous request per checked-out worker
(the orchestration thread holds the worker for the duration of its
task's offloaded call, so no demultiplexing is needed).
"""

from __future__ import annotations

import os
import pickle
import struct
import subprocess
import sys
import threading

from typing import Any, Sequence

import numpy as np

from . import linthooks
from .blocks import INDEX_DTYPE, VALUE_DTYPE
from .conf import shm_attach_cap
from .errors import BackendError

try:  # pragma: no cover - available on every supported platform
    from multiprocessing import shared_memory
except ImportError:  # pragma: no cover
    shared_memory = None  # type: ignore[assignment]

#: smallest block (rows) worth a round trip to a worker process; 1
#: offloads everything so tests exercise the worker path
_MIN_OFFLOAD_ROWS = 1

#: cap on driver-side cached input segments (FIFO eviction beyond
#: this, skipping pinned in-flight descriptors); tests monkeypatch it
#: to force an eviction storm
_PUBLISH_CACHE_CAP = 256


# ----------------------------------------------------------------------
# driver side: the segment registry
# ----------------------------------------------------------------------
class SharedBlockRegistry:
    """Driver-owned registry of shared-memory segments.

    ``publish`` copies an ndarray into a fresh segment and returns its
    ``(name, dtype, shape)`` descriptor; ``publish_cached`` memoizes by
    array identity so a cached partition block or a broadcast factor is
    copied out once per lifetime, not once per task.  ``create``
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

    @staticmethod
    def available() -> bool:
        return shared_memory is not None

    def publish(self, arr: np.ndarray) -> tuple:
        """Copy ``arr`` into a new segment; returns its descriptor."""
        arr = np.ascontiguousarray(arr)
        shm = shared_memory.SharedMemory(
            create=True, size=max(1, arr.nbytes))
        view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
        view[...] = arr
        del view
        with self._lock:
            linthooks.access(self, "segments", write=True)
            self._segments[shm.name] = shm
        return (shm.name, arr.dtype.str, arr.shape)

    def publish_cached(self, arr: np.ndarray) -> tuple:
        """``publish`` memoized on array identity (with a keepalive
        reference, so ``id`` reuse cannot alias a dead array).  The
        returned descriptor comes back pinned: eviction skips it until
        the caller ``unpin``\\ s, so a concurrent thread overflowing the
        cache cannot unlink a segment another request still references.
        """
        key = id(arr)
        with self._lock:
            linthooks.access(self, "cached", write=False)
            hit = self._cached.get(key)
            if hit is not None and hit[1] is arr:
                self._pins[hit[0][0]] = self._pins.get(hit[0][0], 0) + 1
                return hit[0]
        desc = self.publish(arr)
        with self._lock:
            linthooks.access(self, "cached", write=True)
            self._cached[key] = (desc, arr)
            self._pins[desc[0]] = self._pins.get(desc[0], 0) + 1
            while len(self._cached) > _PUBLISH_CACHE_CAP:
                victim = None
                for cache_key, (old_desc, _) in self._cached.items():
                    if not self._pins.get(old_desc[0]):
                        victim = cache_key
                        break
                if victim is None:  # everything in flight; grow past cap
                    break
                old_desc, _ = self._cached.pop(victim)
                self._release_locked(old_desc[0])
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
        shm = shared_memory.SharedMemory(create=True,
                                         size=max(1, nbytes))
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
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (pkg_root if not existing
                         else pkg_root + os.pathsep + existing)
    return env


def _write_frame(stream: Any, payload: dict) -> None:
    data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    stream.write(struct.pack("<I", len(data)))
    stream.write(data)
    stream.flush()


def _read_frame(stream: Any) -> dict | None:
    header = stream.read(4)
    if len(header) < 4:
        return None
    (length,) = struct.unpack("<I", header)
    data = stream.read(length)
    if len(data) < length:
        return None
    return pickle.loads(data)


class WorkerDied(BackendError):
    """Transport failure talking to a worker process."""


class _WorkerProcess:
    """One child interpreter speaking the frame protocol."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "repro.engine.procpool"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=_worker_env())
        # eager handshake: surfaces import/env failures at spawn time
        if self.request({"op": "ping"}).get("ok") is not True:
            self.kill()
            raise WorkerDied("worker failed its startup handshake")

    def request(self, payload: dict) -> dict:
        try:
            _write_frame(self._proc.stdin, payload)
            reply = _read_frame(self._proc.stdout)
        except (OSError, ValueError) as exc:
            raise WorkerDied(f"worker pipe failed: {exc}") from exc
        if reply is None:
            raise WorkerDied("worker exited mid-request")
        return reply

    def stop(self) -> None:
        try:
            _write_frame(self._proc.stdin, {"op": "shutdown"})
            self._proc.stdin.close()
        except (OSError, ValueError):
            pass
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

    @property
    def num_workers(self) -> int:
        return self._num_workers

    def ensure_started(self) -> bool:
        """Spawn the workers on first use; False when unavailable
        (spawn failed, no shared memory, or already stopped)."""
        if not SharedBlockRegistry.available():
            return False
        with self._cond:
            linthooks.access(self, "workers", write=True)
            if self._stopped:
                return False
            if self._started:
                return self._live > 0
            self._started = True
            try:
                self._idle = [_WorkerProcess()
                              for _ in range(self._num_workers)]
            except (OSError, WorkerDied):
                for worker in self._idle:
                    worker.kill()
                self._idle = []
                return False
            self._live = len(self._idle)
            return True

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

    def checkin(self, worker: _WorkerProcess,
                dead: bool = False) -> None:
        """Return a worker after a request; ``dead=True`` kills it and
        respawns a replacement (the pool shrinks when respawn fails)."""
        replacement: _WorkerProcess | None = None
        if dead:
            worker.kill()
            try:
                replacement = _WorkerProcess()
            except (OSError, WorkerDied):
                replacement = None
        with self._cond:
            linthooks.access(self, "workers", write=True)
            if not dead:
                self._idle.append(worker)
            elif replacement is not None:
                if self._stopped:
                    replacement.kill()
                else:
                    self._idle.append(replacement)
            else:
                self._live -= 1
            self._cond.notify_all()

    def stop(self) -> None:
        """Shut every worker down (idempotent); subsequent checkouts
        raise and ``ensure_started`` reports unavailability."""
        with self._cond:
            linthooks.access(self, "workers", write=True)
            self._stopped = True
            workers, self._idle = self._idle, []
            self._live = 0
            self._cond.notify_all()
        for worker in workers:
            worker.stop()


class OffloadClient:
    """Kernel-facing handle for offloading block arithmetic.

    ``contrib`` runs the broadcast-MTTKRP inner loop — gather the fixed
    factors' rows, Hadamard-fold them against the values, optionally
    pre-reduce with the segmented left fold — on a worker process.  It
    returns ``None`` whenever offloading is unavailable or not
    worthwhile, and the caller computes inline instead; both paths run
    the same numpy expressions, so the choice never changes a bit of
    output.
    """

    def __init__(self, pool: ProcessWorkerPool,
                 registry: SharedBlockRegistry):
        self._pool = pool
        self._registry = registry

    def contrib(self, values: np.ndarray, key_col: np.ndarray,
                fixed: Sequence[tuple[np.ndarray, np.ndarray]],
                reduce_: bool) -> tuple | None:
        """Offload one block's contribution.  ``fixed`` is the ordered
        ``(index column, factor matrix)`` fold sequence.  Returns
        ``(keys, rows)`` (``keys`` is None when ``reduce_`` is False),
        or None to signal the caller to compute inline."""
        n = int(values.shape[0])
        if n < _MIN_OFFLOAD_ROWS or not fixed:
            return None
        if not self._pool.ensure_started():
            return None
        rank = int(fixed[0][1].shape[1])
        registry = self._registry
        arrays = [registry.publish_cached(values)]
        try:
            if reduce_:
                arrays.append(registry.publish_cached(key_col))
            for col, factor in fixed:
                arrays.append(registry.publish_cached(col))
                arrays.append(registry.publish_cached(factor))
            return self._run_request(arrays, n, rank, reduce_)
        finally:
            registry.unpin([desc[0] for desc in arrays])

    def _run_request(self, arrays: list[tuple], n: int, rank: int,
                     reduce_: bool) -> tuple | None:
        registry = self._registry
        out_descs: list[tuple] = []
        rows_desc, rows_view = registry.create((n, rank))
        keys_view = None
        if reduce_:
            keys_desc, keys_view = registry.create((n,), INDEX_DTYPE)
            out_descs = [keys_desc, rows_desc]
        else:
            out_descs = [rows_desc]
        request = {"op": "contrib", "arrays": arrays,
                   "outs": out_descs,
                   "meta": {"reduce": reduce_}}
        try:
            worker = self._pool.checkout()
        except BackendError:
            self._release_outs(out_descs, rows_view, keys_view)
            return None
        try:
            reply = worker.request(request)
        except WorkerDied:
            self._pool.checkin(worker, dead=True)
            self._release_outs(out_descs, rows_view, keys_view)
            return None
        self._pool.checkin(worker)
        if not reply.get("ok"):
            self._release_outs(out_descs, rows_view, keys_view)
            if reply.get("missing_segment"):
                # an input raced the publish-cache eviction window;
                # the inline path recomputes it bit-identically
                return None
            raise RuntimeError(
                "process worker op failed:\n"
                + str(reply.get("error")))
        count = int(reply["meta"]["count"])
        rows = np.array(rows_view[:count])
        keys = (np.array(keys_view[:count]) if reduce_ else None)
        self._release_outs(out_descs, rows_view, keys_view)
        return keys, rows

    def _release_outs(self, descs: list[tuple],
                      rows_view: np.ndarray | None,
                      keys_view: np.ndarray | None) -> None:
        del rows_view, keys_view
        for desc in descs:
            self._registry.release(desc[0])


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

    def __init__(self, cap: int):
        self._cap = cap
        self._shms: dict[str, Any] = {}

    def view(self, desc: tuple) -> np.ndarray:
        name, dtype, shape = desc
        shm = self._shms.get(name)
        if shm is None:
            shm = shared_memory.SharedMemory(name=name)
            self._shms[name] = shm
        return np.ndarray(shape, dtype=np.dtype(dtype),
                          buffer=shm.buf)

    def trim(self) -> None:
        """Close the oldest attachments down to the cap.  Only safe
        between requests — see the class docstring."""
        while len(self._shms) > self._cap:
            name = next(iter(self._shms))
            old = self._shms.pop(name)
            try:
                old.close()
            except BufferError:
                pass

    def close_all(self) -> None:
        for shm in self._shms.values():
            try:
                shm.close()
            except BufferError:
                pass
        self._shms.clear()


def _op_contrib(arrays: list[np.ndarray], outs: list[np.ndarray],
                meta: dict) -> dict:  # pragma: no cover - worker only
    """One block's contribution, by the inline kernel path's own
    function: ``arrays`` is ``values, [keys,] (column, factor)...``."""
    from repro.kernels.vectorized import block_contribution
    values, *rest = arrays
    key_col = rest.pop(0) if meta["reduce"] else None
    keys, rows = block_contribution(
        values, key_col, list(zip(rest[::2], rest[1::2])), meta["reduce"])
    count = rows.shape[0]
    if meta["reduce"]:
        outs[0][:count] = keys
    outs[-1][:count] = rows
    return {"count": int(count)}


_OPS = {"contrib": _op_contrib}


def worker_main() -> int:  # pragma: no cover - runs as a subprocess
    """Frame loop of one worker process."""
    inp = sys.stdin.buffer
    out = sys.stdout.buffer
    # claim the protocol channel: anything print()ed goes to stderr
    sys.stdout = sys.stderr
    _disable_resource_tracking()
    cache = _AttachmentCache(shm_attach_cap())
    try:
        while True:
            request = _read_frame(inp)
            if request is None or request.get("op") == "shutdown":
                break
            if request.get("op") == "ping":
                _write_frame(out, {"ok": True})
                continue
            try:
                op = _OPS[request["op"]]
                arrays = [cache.view(d) for d in request["arrays"]]
                outputs = [cache.view(d) for d in request["outs"]]
                meta = op(arrays, outputs, request["meta"])
                del arrays, outputs
                _write_frame(out, {"ok": True, "meta": meta})
            except FileNotFoundError as exc:
                # an input segment was evicted on the driver between
                # publish and our attach; the driver recomputes inline
                _write_frame(out, {"ok": False,
                                   "missing_segment": True,
                                   "error": repr(exc)})
            except Exception:
                import traceback
                _write_frame(out, {"ok": False,
                                   "error": traceback.format_exc()})
            finally:
                # all request views are dead here, so closing surplus
                # attachments cannot invalidate live buffers
                arrays = outputs = None
                cache.trim()
    finally:
        cache.close_all()
    return 0


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    sys.exit(worker_main())
