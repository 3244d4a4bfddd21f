"""Record size estimation and (de)serialization helpers.

The engine needs a *deterministic* estimate of how many bytes a record
occupies on the wire in order to reproduce the communication measurements
of the paper (Figure 4, Table 4).  Real Spark reports the size of the
serialized shuffle blocks; we mirror that with a compact-encoding model:

* a ``float``/``int`` costs 8 bytes,
* a numpy array costs its ``nbytes``,
* containers (tuple/list/deque) cost the sum of their elements plus a
  small per-container framing overhead,
* every top-level record pays a fixed framing overhead
  (:data:`RECORD_OVERHEAD`), mirroring the per-record header written by
  Spark's serializers.

This is intentionally closer to Kryo-style compact encoding than to
pickle: pickle's bloat would distort the byte *ratios* the paper reports.
Actual pickling is still how a partition is serialized — for the
serialized and disk cache levels, spill runs and integrity-sealed
shuffle buckets and broadcasts — so that CPU cost is real.
"""

from __future__ import annotations

import pickle
import zlib
from collections import deque
from typing import Any

import numpy as np

from .blocks import (BLOCK_OVERHEAD, ColumnarBlock, KeyedRowBlock,
                     is_keyed_block)

#: Fixed per-record framing overhead in bytes (length prefix + type tag).
RECORD_OVERHEAD = 8

#: Per-container framing overhead in bytes (element count + type tag).
CONTAINER_OVERHEAD = 4

#: Bytes charged for a scalar (int, float, bool, numpy scalar).
SCALAR_BYTES = 8


def _size_container(obj) -> int:
    # the hot leaf types (scalars, ndarrays, nested tuples) are inlined:
    # shuffle records are tuples of exactly these, and avoiding the
    # dispatch per element roughly halves accounting cost
    total = CONTAINER_OVERHEAD
    for x in obj:
        t = type(x)
        if t is int or t is float:
            total += SCALAR_BYTES
        elif t is tuple:
            total += _size_container(x)
        elif t is np.ndarray:
            total += x.nbytes + CONTAINER_OVERHEAD
        else:
            total += estimate_size(x)
    return total


def _size_str_like(obj) -> int:
    return CONTAINER_OVERHEAD + len(obj)


def _size_dict(obj) -> int:
    total = CONTAINER_OVERHEAD
    for k, v in obj.items():
        total += estimate_size(k) + estimate_size(v)
    return total


def _size_block(block: ColumnarBlock | KeyedRowBlock) -> int:
    # a keyed block at rest is charged as the records it stands for,
    # as estimate_record_size charges it in flight: every factor and
    # MTTKRP output is cached as keyed rows, CSTF-QCOO caches its queue
    # every MTTKRP, and the cost model prices cache bytes, so nbytes
    # would move every modelled second by representation alone
    if type(block) is ColumnarBlock and block.key_mode is None:
        return block.nbytes + BLOCK_OVERHEAD
    return len(block) * (wire_bytes_per_row(block) - RECORD_OVERHEAD)


# exact-type dispatch: profiling shows size estimation dominates shuffle
# accounting, and a dict lookup beats a chain of isinstance checks by ~3x
# on the hot record shapes (tuples of ints/floats/ndarrays)
_SIZERS: dict[type, Any] = {
    tuple: _size_container,
    list: _size_container,
    deque: _size_container,
    int: lambda _o: SCALAR_BYTES,
    float: lambda _o: SCALAR_BYTES,
    bool: lambda _o: SCALAR_BYTES,
    np.float64: lambda _o: SCALAR_BYTES,
    np.int64: lambda _o: SCALAR_BYTES,
    np.ndarray: lambda o: o.nbytes + CONTAINER_OVERHEAD,
    str: _size_str_like,
    bytes: _size_str_like,
    dict: _size_dict,
    type(None): lambda _o: 1,
    # ndarray-backed partition blocks: a closed form of their shape —
    # no sampling, no pickling, no per-row dispatch
    ColumnarBlock: _size_block,
    KeyedRowBlock: _size_block,
}


def estimate_size(obj: Any) -> int:
    """Return the estimated compact-encoded size of ``obj`` in bytes.

    Deterministic and cheap; used by the shuffle manager and the cache
    manager for byte accounting.  Strings are charged one byte per
    character plus framing; unknown objects fall back to ``len(pickle)``.
    """
    sizer = _SIZERS.get(type(obj))
    if sizer is not None:
        return sizer(obj)
    # subclass / uncommon-numpy-scalar slow path
    if isinstance(obj, np.ndarray):
        return obj.nbytes + CONTAINER_OVERHEAD
    if isinstance(obj, (int, float, bool, np.integer, np.floating)):
        return SCALAR_BYTES
    if isinstance(obj, (tuple, list, deque)):
        return _size_container(obj)
    if isinstance(obj, str) or isinstance(obj, bytes):
        return _size_str_like(obj)
    if isinstance(obj, dict):
        return _size_dict(obj)
    return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def wire_bytes_per_row(block: ColumnarBlock | KeyedRowBlock) -> int:
    """Bytes one row of a keyed block is charged on the wire.

    Not a new model: the closed form of what
    :func:`estimate_record_size` charges the tuple the record path
    shuffles for the same row — ``(k, (idx, val))`` before CSTF-COO's
    first join (``36 + 8N``), ``(k, (idx, acc_row))`` after it
    (``32 + 8N + 8R``), ``(k, ((idx, val), queue))`` for CSTF-QCOO's
    queue of ``q >= 0`` rows (``44 + 8N + q(8R + 4)``), ``(k, row)``
    for a reduce row (``24 + 8R``) — so a dataflow's shuffle bytes,
    memory admission and combine-buffer booking do not depend on
    whether its rows travel as tuples or as blocks (pinned by
    ``tests/engine/test_wire_model.py``).
    """
    # record frame + the (key, value) pair + the int key
    keyed = RECORD_OVERHEAD + CONTAINER_OVERHEAD + SCALAR_BYTES
    rows = block.rows
    row = (SCALAR_BYTES if rows is None   # the bare value
           else rows.shape[-1] * rows.itemsize + CONTAINER_OVERHEAD)
    if type(block) is KeyedRowBlock:
        return keyed + row
    # the (idx, payload) pair around the index tuple
    pair = 2 * CONTAINER_OVERHEAD + SCALAR_BYTES * block.order
    if rows is None or rows.ndim == 2:
        return keyed + pair + row
    # ((idx, val), queue): the value stays beside a tuple of q rows
    return (keyed + CONTAINER_OVERHEAD + pair + SCALAR_BYTES
            + CONTAINER_OVERHEAD + rows.shape[1] * row)


def estimate_record_size(record: Any) -> int:
    """Size of one shuffle record: payload plus per-record framing.
    A keyed block is charged as the records it stands for
    (``len × wire_bytes_per_row``)."""
    if is_keyed_block(record):
        return len(record) * wire_bytes_per_row(record)
    return estimate_size(record) + RECORD_OVERHEAD


def serialize_partition(records: list) -> bytes:
    """Serialize a cached, spilled or sealed partition: one pickle
    (highest protocol) whatever it holds — blocks pickle through their
    ``__reduce__``, their arrays' buffers copied whole."""
    return pickle.dumps(records, protocol=pickle.HIGHEST_PROTOCOL)


def deserialize_partition(blob: bytes) -> list:
    """Inverse of :func:`serialize_partition`."""
    return pickle.loads(blob)


def checksum_blob(blob: bytes) -> int:
    """CRC-32 content checksum of a serialized blob.

    CRC-32 detects every single-byte error (and any burst shorter than
    32 bits), which covers the bit-flip corruption model injected by
    :class:`~repro.engine.faults.FaultPlan`.  The stdlib ``zlib``
    implementation is hardware-accelerated on common platforms, so
    sealing costs far less than the pickling that produced the blob.
    """
    return zlib.crc32(blob) & 0xFFFFFFFF


def verify_blob(blob: bytes, checksum: int) -> bool:
    """True iff ``blob`` still matches its recorded ``checksum``."""
    return checksum_blob(blob) == checksum
