"""Spans recorded from outside the program.

Two sources feed one span list.  :class:`Tracer` is an
``EngineListener``: job, stage and task events open and close spans.
It also installs timing wrappers around a handful of public methods
that are called once per task or less (never per record), each of which
becomes a span whose parent is whatever span encloses the call on the
same thread.  A span is ``[kind, label, start, end, parent, iteration]``
and its id is its position in :attr:`Tracer.spans`.

Iterations are delimited by ``Context.drop_shuffle_outputs``, which the
CP-ALS loop calls once at the end of every iteration: iteration 0 holds
set-up plus the warm-up iteration, ``1..k`` are the timed iterations and
``k + 1`` is the tail (final factor collect).  At each boundary the
tracer snapshots the counters ``MetricsCollector`` keeps, so their
per-iteration growth can be read off afterwards.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager

from repro.core import GramCache
from repro.engine import Context, EngineListener
from repro.engine.rdd import CoGroupedRDD
from repro.engine.shuffle import ShuffleManager

KIND, LABEL, START, END, PARENT, ITERATION = range(6)

#: (class, method, span kind) of every wrapped call
WRAPPED = (
    (ShuffleManager, "write", "shuffle.write"),
    (ShuffleManager, "read", "shuffle.read"),
    (CoGroupedRDD, "compute", "rdd.cogroup"),
    (GramCache, "pinv_except", "gram.pinv"),
    (GramCache, "refresh", "gram.refresh"),
    (Context, "broadcast", "broadcast.create"),
)


class Tracer(EngineListener):
    """Records job → stage → task spans and wrapped-call spans."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.iteration = 0
        #: one counter snapshot per iteration boundary
        self.boundaries: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._job: int | None = None
        self._stages: dict[int, int] = {}

    # -- span bookkeeping ---------------------------------------------
    def _stack(self) -> list[int]:
        """Open spans of the calling thread, innermost last."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, kind: str, label: str, parent: int | None) -> int:
        span = [kind, label, 0.0, 0.0, parent, self.iteration]
        with self._lock:
            span_id = len(self.spans)
            self.spans.append(span)
        span[START] = time.perf_counter()
        return span_id

    def _close(self, span_id: int) -> None:
        self.spans[span_id][END] = time.perf_counter()

    # -- EngineListener hooks -----------------------------------------
    def on_job_start(self, event) -> None:
        """Jobs are started by the driver thread, one at a time."""
        stack = self._stack()
        self._job = self._open("job", event.description,
                               stack[-1] if stack else None)

    def on_job_end(self, event) -> None:
        """Close the running job's span."""
        self._close(self._job)
        self._job = None

    def on_stage_submitted(self, event) -> None:
        """A stage's parent is the job that submitted it."""
        self._stages[event.stage_id] = self._open(
            "stage", event.name, self._job)

    def on_stage_completed(self, event) -> None:
        """Close the stage's span."""
        self._close(self._stages[event.metrics.stage_id])

    def on_task_start(self, event) -> None:
        """Posted by the thread that runs the task, so calls the task
        makes on that thread find it on the thread's stack."""
        self._stack().append(self._open(
            "task", str(event.partition), self._stages[event.stage_id]))

    def on_task_end(self, event) -> None:
        """Posted by the same thread as the matching ``TaskStart``."""
        self._close(self._stack().pop())

    # -- wrappers -----------------------------------------------------
    def _timed(self, original, kind: str):
        @functools.wraps(original)
        def timed(*args, **kwargs):
            stack = self._stack()
            span_id = self._open(kind, original.__name__,
                                 stack[-1] if stack else None)
            stack.append(span_id)
            try:
                return original(*args, **kwargs)
            finally:
                stack.pop()
                self._close(span_id)
        return timed

    def _boundary(self, original):
        @functools.wraps(original)
        def drop_shuffle_outputs(ctx):
            original(ctx)
            self.boundaries.append(snapshot(ctx.metrics))
            self.iteration += 1
        return drop_shuffle_outputs

    @contextmanager
    def installed(self):
        """Wrap the public methods for the duration of one traced
        repetition; they are restored before anything else is timed."""
        wrappers = [(cls, name, self._timed(getattr(cls, name), kind))
                    for cls, name, kind in WRAPPED]
        wrappers.append((Context, "drop_shuffle_outputs", self._boundary(
            Context.drop_shuffle_outputs)))
        originals = [(cls, name, getattr(cls, name))
                     for cls, name, _wrapper in wrappers]
        for cls, name, wrapper in wrappers:
            setattr(cls, name, wrapper)
        try:
            yield self
        finally:
            for cls, name, original in originals:
                setattr(cls, name, original)


def snapshot(metrics) -> dict:
    """Cumulative counters of a ``MetricsCollector``, copied."""
    written = metrics.total_shuffle_write()
    read = metrics.total_shuffle_read()
    return {
        "phase_seconds": dict(metrics.phase_seconds),
        "records_written": written.records_written,
        "read_bytes": read.total_bytes,
        "remote_bytes": read.remote_bytes,
        "kernel_batches": metrics.kernel_batches,
        "kernel_batch_records": metrics.kernel_batch_records,
        "sampler_draws": metrics.sampler_draws,
    }


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    covered = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    return covered


def summarize(spans: list[list], timed_iterations: int) -> dict:
    """Totals over the timed iterations ``1..k``.

    Returns ``{"count": {kind: n}, "total": {kind: seconds},
    "self": {kind: seconds}, "task_union": seconds}``.  A span's self
    time is its duration minus the durations of its direct children
    (children never overlap: they run on their parent's thread).
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] is not None:
            child_time[span[PARENT]] += span[END] - span[START]
    count: dict[str, int] = {}
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    tasks = []
    for span_id, span in enumerate(spans):
        if not 1 <= span[ITERATION] <= timed_iterations:
            continue
        kind = span[KIND]
        duration = span[END] - span[START]
        count[kind] = count.get(kind, 0) + 1
        total[kind] = total.get(kind, 0.0) + duration
        self_time[kind] = (self_time.get(kind, 0.0) + duration
                           - child_time[span_id])
        if kind == "task":
            tasks.append((span[START], span[END]))
    return {"count": count, "total": total, "self": self_time,
            "task_union": union_length(tasks)}


def tree_errors(spans: list[list]) -> list[str]:
    """Why the span tree is malformed; empty when it is well-formed:
    every task has a stage parent, every stage a job parent, and every
    span closed after it opened."""
    errors = []
    wanted = {"task": "stage", "stage": "job"}
    for span_id, span in enumerate(spans):
        if span[END] < span[START]:
            errors.append(f"span {span_id} ({span[KIND]}) never closed")
        parent_kind = wanted.get(span[KIND])
        if parent_kind is None:
            continue
        parent = span[PARENT]
        if parent is None or spans[parent][KIND] != parent_kind:
            errors.append(
                f"{span[KIND]} span {span_id} has no {parent_kind} parent")
    return errors
