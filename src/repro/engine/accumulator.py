"""Spark-style accumulators: write-only counters updated from tasks.

CSTF uses them to count floating-point work (the flop columns of Table 4)
without perturbing the dataflow.
"""

from __future__ import annotations

from typing import Generic, TypeVar

T = TypeVar("T", int, float)


class Accumulator(Generic[T]):
    """An additive counter tasks can ``add`` to and the driver reads.

    Tasks add on the one engine thread (see
    :mod:`repro.engine.backends`), and addition commutes, so the final
    value is backend-independent.
    """

    def __init__(self, zero: T, name: str = ""):
        self._zero = zero
        self._value: T = zero
        self.name = name

    def add(self, amount: T) -> None:
        """Add ``amount`` (called from tasks)."""
        self._value += amount

    @property
    def value(self) -> T:
        return self._value

    def reset(self) -> None:
        """Restore the initial value."""
        self._value = self._zero

    def __repr__(self) -> str:
        return f"Accumulator(name={self.name!r}, value={self._value!r})"
