"""Spark-style accumulators: write-only counters updated from tasks.

CSTF uses them to count floating-point work (the flop columns of Table 4)
without perturbing the dataflow.
"""

from __future__ import annotations

from typing import Generic, TypeVar

from . import linthooks

T = TypeVar("T", int, float)


class Accumulator(Generic[T]):
    """An additive counter tasks can ``add`` to and the driver reads.

    Updates are lock-protected: tasks on the process backend add
    concurrently, and ``+=`` on a shared value is not atomic in Python.
    Addition commutes, so the final value is backend-independent.
    """

    def __init__(self, zero: T, name: str = ""):
        self._zero = zero
        self._value: T = zero
        self.name = name
        self._lock = linthooks.make_lock(f"Accumulator({name!r})")

    def add(self, amount: T) -> None:
        """Add ``amount`` (called from tasks)."""
        with self._lock:
            linthooks.access(self, "_value", write=True)
            self._value += amount

    @property
    def value(self) -> T:
        with self._lock:
            linthooks.access(self, "_value", write=False)
            return self._value

    def reset(self) -> None:
        """Restore the initial value."""
        with self._lock:
            linthooks.access(self, "_value", write=True)
            self._value = self._zero

    def __repr__(self) -> str:
        return f"Accumulator(name={self.name!r}, value={self._value!r})"
