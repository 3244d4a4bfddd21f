"""Broadcast variables.

Spark ships a read-only value to every executor once per job instead of
per task; GigaTensor-era systems (and Spark MLlib's ALS) use broadcasts
to replicate *small* factor matrices instead of shuffling a join.  The
reproduction exposes the same primitive so the broadcast-vs-join
trade-off can be measured (``benchmarks/test_ablation_broadcast.py``):
a broadcast MTTKRP costs one shuffle (the reduce) but ``(nodes-1) x
size`` of one-shot network traffic and full replication memory.

Lifetime: a broadcast handed to an RDD node (``MapPartitionsRDD(...,
broadcasts=...)``) is the engine's: ``Context.drop_shuffle_outputs``
destroys it once no persisted RDD's lineage reads it, so a lost cached
partition always recomputes.  One never handed over stays its
creator's, or the enclosing ``release_scope``'s.

Data integrity: with ``EngineConf.integrity`` on, the payload is sealed
(pickled + CRC-32) at creation, mirroring the serialized form an
executor would fetch.  The first ``.value`` read verifies and
deserializes the blob — fetch-time verification, once per context, not
per record — and caches the verified copy for the per-record accesses
the kernels make.  A corrupt fetch raises a retryable
:class:`~repro.engine.errors.CorruptedDataError` and caches nothing:
the factor drivers only touch ``.value`` inside task closures, so the
task retry re-fetches from the pristine sealed blob with a fresh
corruption draw, and broadcast corruption heals without scheduler
involvement.
"""

from __future__ import annotations

from typing import Generic, TypeVar, TYPE_CHECKING

from .errors import CorruptedDataError
from .serialization import (deserialize_partition, estimate_size,
                            serialize_partition)

if TYPE_CHECKING:  # pragma: no cover
    from .context import Context

T = TypeVar("T")


class Broadcast(Generic[T]):
    """A read-only value replicated to every node of the cluster."""

    def __init__(self, ctx: "Context", value: T, broadcast_id: int):
        self.broadcast_id = broadcast_id
        self.size_bytes = estimate_size(value)
        self._ctx = ctx
        self._destroyed = False
        #: set once an RDD node names it (see the module docstring)
        self.handed = False
        self._integrity = ctx.integrity
        if self._integrity.enabled:
            # one-element list so the partition (de)serializers apply;
            # the live value is only handed out after verification
            self._blob = serialize_partition([value])
            self._checksum = self._integrity.seal(self._blob)
            self._value: T | None = None
            self._fetched = False
        else:
            self._blob = None
            self._checksum = 0
            self._value = value
            self._fetched = True
        # record the payload size once; the cost model applies the
        # torrent fan-out ((nodes-1) copies) for the target cluster size
        ctx.metrics.broadcast_bytes += self.size_bytes
        ctx.metrics.broadcast_count += 1

    @property
    def destroyed(self) -> bool:
        """True once :meth:`destroy` has released the value."""
        return self._destroyed

    @property
    def value(self) -> T:
        """The broadcast payload; integrity mode verifies the fetch."""
        if self._destroyed:
            raise RuntimeError(
                f"broadcast {self.broadcast_id} was destroyed")
        if self._fetched:
            return self._value
        good = self._integrity.checked_read(
            "broadcast", (self.broadcast_id,), self._blob,
            self._checksum)
        if good is None:
            self._integrity.metrics.recompute_recoveries += 1
            raise CorruptedDataError(
                f"broadcast {self.broadcast_id} payload failed "
                f"checksum verification in flight; the retry "
                f"re-fetches the sealed copy",
                kind="broadcast", site=(self.broadcast_id,))
        self._value = deserialize_partition(good)[0]
        self._fetched = True
        return self._value

    def destroy(self) -> None:
        """Release the replicated value on all nodes and leave the
        context's ledger of live broadcasts."""
        self._ctx._broadcasts.pop(self.broadcast_id, None)
        self._destroyed = True
        self._value = None  # type: ignore[assignment]
        self._blob = None

    def __repr__(self) -> str:
        state = "destroyed" if self._destroyed else f"{self.size_bytes}B"
        return f"Broadcast(id={self.broadcast_id}, {state})"
