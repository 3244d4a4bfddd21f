"""Engine configuration: :class:`EngineConf` and its one resolution point.

This is the only module that reads ``REPRO_*`` environment variables.
Nine :class:`EngineConf` fields are *env-backed*: left at ``None`` they
defer to a variable, then to a default (the table below).
:func:`resolve` applies that precedence — explicit conf value, then the
environment, then the default — exactly once, when a
:class:`~repro.engine.context.Context` is constructed, and returns a
frozen, fully concrete conf; every consumer downstream (backend, clock
and kernel factories, the integrity manager, the task scheduler, the
CP-ALS drivers) reads plain values from ``ctx.conf`` and never consults
the environment itself.

A malformed value — from the conf or from the environment — raises at
that one call with the field, the offending value and its source named;
the exception type follows the field's subsystem
(:class:`~repro.engine.errors.BackendError`,
:class:`~repro.engine.errors.KernelError`, else
:class:`~repro.engine.errors.EngineError`).  Names are compared
case-insensitively after ``strip()``, one spelling per value; booleans
accept exactly ``1/true/yes/on`` and ``0/false/no/off``.
"""

from __future__ import annotations

import os

from dataclasses import dataclass, replace
from typing import Any, Callable

from .errors import BackendError, EngineError, KernelError

#: per-partition draw count of the ``"lev"`` sampler when neither the
#: driver, the conf nor ``$REPRO_SAMPLE_COUNT`` names one
DEFAULT_SAMPLE_COUNT = 1024


@dataclass(frozen=True)
class EngineConf:
    """Tunable engine behaviour (immutable; see :func:`resolve` for how
    the ``None``-able env-backed fields become concrete).

    ``map_side_combine``
        Whether ``reduceByKey`` pre-merges values inside map tasks (Spark
        default).  The paper's Table 4 upper bounds assume no combining;
        both settings are measurable.
    ``task_max_failures``
        Retry budget per task (Spark's ``spark.task.maxFailures``).
    ``stage_max_failures``
        How many fetch-failure recoveries (parent-stage resubmissions
        from lineage) one stage may consume before the job aborts with
        :class:`~repro.engine.errors.JobExecutionError` (Spark's
        ``spark.stage.maxConsecutiveAttempts``).
    ``cache_capacity_bytes``
        Optional cluster-wide cache budget (a hard cap on the storage
        pool): over-budget entries are demoted to disk
        (``MEMORY_AND_DISK*`` levels) or LRU-evicted (memory-only
        levels); ``None`` means unbounded.
    ``memory_total_bytes``
        Optional unified memory budget (Spark's executor heap analogue).
        The usable budget is ``memory_total_bytes * memory_fraction``,
        split between the storage pool (cached partitions) and the
        execution pool (shuffle combine buffers), which borrow from each
        other; see :class:`~repro.engine.memory.MemoryManager`.
    ``memory_fraction``
        Fraction of ``memory_total_bytes`` usable by the engine
        (Spark's ``spark.memory.fraction``).
    ``storage_fraction``
        Fraction of the usable budget guaranteed to storage — execution
        demand cannot shrink the cache below it (Spark's
        ``spark.memory.storageFraction``).
    ``retry_backoff_base_s``
        Unified retry backoff for every retryable task failure class
        (injected faults, OOM kills, timeouts): the retrying attempt
        sleeps ``base * 2**attempt``, capped and scaled by a seeded
        jitter factor (see
        :func:`~repro.engine.speculation.backoff_delay`).  ``0``
        disables sleeping.
    ``task_deadline_s``
        Hard per-attempt deadline: an attempt that overruns it is
        killed at its next cooperative checkpoint with
        :class:`~repro.engine.errors.TaskTimedOutError` and retried on
        another node (counting as a straggle against its node).
        Env-backed (``$REPRO_TASK_DEADLINE_S``); stays ``None`` — no
        deadline — when neither names one.
    ``speculation``
        Opt-in speculative execution: once a stage has a few completed
        tasks, an attempt running longer than
        ``speculative_multiplier`` times the stage's median task runtime
        (never less than ``speculative_min_deadline_s``) is cancelled
        and a backup attempt runs in its place on a different node,
        inline on the same thread (bit-identical either way).  Env-backed
        (``$REPRO_SPECULATION``), default off.
    ``speculative_multiplier`` / ``speculative_min_deadline_s``
        Shape of the adaptive speculative deadline (see above).
    ``quarantine_threshold``
        Decayed per-node badness score (failures, straggles and corrupt
        writes weigh 1 each; half-life ``quarantine_decay_s``) at which
        a node is quarantined for ``quarantine_duration_s`` engine-clock
        seconds, then readmitted on probation at half the threshold
        score — the engine's one node-health policy (a permanently
        broken node is sidelined with a long duration).  ``None``
        (default) disables quarantine.
    ``clock``
        Engine time source: ``"monotonic"`` (real time, the default) or
        ``"virtual"`` (sleeps advance a counter and return immediately
        — simulated time for tests/benchmarks).  Env-backed
        (``$REPRO_CLOCK``).
    ``backend``
        Executor backend running each stage's tasks: ``"serial"`` (the
        default — tasks run one after another on the driver thread) or
        ``"process"`` (a spawn-safe pool of worker processes the
        columnar kernel offloads block arithmetic to via shared memory,
        with the tasks still on the driver thread).  Env-backed
        (``$REPRO_BACKEND``).  Both backends produce bit-identical
        results.
    ``backend_workers``
        Worker count for the process backend (``serial`` always runs
        exactly 1 and ignores it).  Env-backed
        (``$REPRO_BACKEND_WORKERS``), default ``min(8, os.cpu_count()
        or 4)``.  The process backend spawns that many worker processes
        and keeps that many requests in flight.
    ``kernel``
        Partition-level compute kernel for the CP-ALS drivers:
        ``"vectorized"`` (the default — each partition's records are
        batched into contiguous ndarrays and reduced with one
        broadcasted Hadamard product plus a deterministic segmented
        sum) or ``"record"`` (one Python closure call per record; the
        bit-comparison oracle).  Env-backed (``$REPRO_KERNEL``).  Both
        kernels produce bit-identical decompositions.
    ``sampler``
        MTTKRP estimator for the CP-ALS drivers: ``"exact"`` (every
        nonzero contributes, the default) or ``"lev"`` (CP-ARLS-LEV
        leverage-score sampling — each partition contributes
        ``sample_count`` drawn nonzeros with importance weights folded
        in; unbiased, sublinear in nnz, see
        :mod:`repro.kernels.sampled`).  Env-backed
        (``$REPRO_SAMPLER``).  Sampled results are bit-identical across
        backends, execution orders and retries (site-seeded draws), but
        are estimates — not bit-equal to the exact kernel's output.
    ``sample_count``
        Nonzeros drawn per partition per MTTKRP when the sampler is
        ``"lev"``.  Env-backed (``$REPRO_SAMPLE_COUNT``), default 1024.
    ``integrity``
        End-to-end data-integrity mode: every shuffle block, broadcast
        payload, serialized cache entry and spilled run is CRC-sealed
        at write time and verified on read, and the CP-ALS drivers run
        NaN/Inf watchdogs (see :mod:`repro.engine.integrity`).
        Detected corruption raises a retryable
        :class:`~repro.engine.errors.CorruptedDataError` healed by
        lineage recomputation; results are bit-identical with the flag
        on or off when verification passes.  Env-backed
        (``$REPRO_INTEGRITY``), default off.
    """

    map_side_combine: bool = True
    task_max_failures: int = 4
    stage_max_failures: int = 4
    cache_capacity_bytes: int | None = None
    memory_total_bytes: int | None = None
    memory_fraction: float = 0.6
    storage_fraction: float = 0.5
    retry_backoff_base_s: float = 0.01
    task_deadline_s: float | None = None
    speculation: bool | None = None
    speculative_multiplier: float = 4.0
    speculative_min_deadline_s: float = 0.25
    quarantine_threshold: float | None = None
    quarantine_decay_s: float = 30.0
    quarantine_duration_s: float = 60.0
    clock: str | None = None
    backend: str | None = None
    backend_workers: int | None = None
    kernel: str | None = None
    sampler: str | None = None
    sample_count: int | None = None
    integrity: bool | None = None


# ----------------------------------------------------------------------
# parsers: each takes the raw environment string or a typed conf value
# and returns the concrete value, raising ValueError otherwise
# ----------------------------------------------------------------------
def _one_of(*names: str) -> Callable[[Any], str]:
    def parse(raw: Any) -> str:
        name = str(raw).strip().lower()
        if name not in names:
            raise ValueError(f"expected one of {', '.join(names)}")
        return name
    return parse


def _flag(raw: Any) -> bool:
    if isinstance(raw, bool):
        return raw
    word = str(raw).strip().lower()
    if word in ("1", "true", "yes", "on"):
        return True
    if word in ("0", "false", "no", "off"):
        return False
    raise ValueError("expected one of 1, true, yes, on, 0, false, no, off")


def _positive_int(raw: Any) -> int:
    count = int(raw)
    if count < 1:
        raise ValueError("expected an integer >= 1")
    return count


def _positive_seconds(raw: Any) -> float:
    seconds = float(raw)
    if not seconds > 0:    # also rejects nan
        raise ValueError("expected a number > 0")
    return seconds


#: env-backed field -> (variable, parser, default, exception type)
_ENV_BACKED: dict[str, tuple[str, Callable[[Any], Any], Any,
                             type[EngineError]]] = {
    "backend": ("REPRO_BACKEND", _one_of("serial", "process"), "serial",
                BackendError),
    "backend_workers": ("REPRO_BACKEND_WORKERS", _positive_int,
                        min(8, os.cpu_count() or 4), BackendError),
    "kernel": ("REPRO_KERNEL", _one_of("vectorized", "record"),
               "vectorized", KernelError),
    "sampler": ("REPRO_SAMPLER", _one_of("exact", "lev"), "exact",
                KernelError),
    "sample_count": ("REPRO_SAMPLE_COUNT", _positive_int,
                     DEFAULT_SAMPLE_COUNT, KernelError),
    "clock": ("REPRO_CLOCK", _one_of("monotonic", "virtual"),
              "monotonic", EngineError),
    "speculation": ("REPRO_SPECULATION", _flag, False, EngineError),
    "integrity": ("REPRO_INTEGRITY", _flag, False, EngineError),
    "task_deadline_s": ("REPRO_TASK_DEADLINE_S", _positive_seconds, None,
                        EngineError),
}


def _parsed(parse: Callable[[Any], Any], error: type[EngineError],
            what: str, value: Any, source: str) -> Any:
    try:
        return parse(value)
    except (TypeError, ValueError) as exc:
        raise error(
            f"invalid {what} {value!r} (from {source}): {exc}") from exc


def check(field: str, value: Any, source: str) -> Any:
    """Validate and normalise one env-backed setting; ``source`` says
    where ``value`` came from and is quoted in the error.
    :func:`resolve` runs every value through here, and so does the
    CLI for its flags — one validator per field."""
    _var, parse, _default, error = _ENV_BACKED[field]
    return _parsed(parse, error, field, value, source)


def _from_env(var: str) -> str | None:
    """``$var`` stripped, with unset and empty both reading as None."""
    return os.environ.get(var, "").strip() or None


def resolve(conf: EngineConf | None = None) -> EngineConf:
    """The concrete conf a context runs with: for every env-backed field
    the explicit value, else its environment variable, else its default
    — each validated as by :func:`check`.  Idempotent; called once per
    :class:`~repro.engine.context.Context`."""
    conf = conf or EngineConf()
    concrete = {}
    for field, (var, parse, default, error) in _ENV_BACKED.items():
        value, source = getattr(conf, field), f"EngineConf.{field}"
        if value is None:
            value, source = _from_env(var), f"${var}"
        concrete[field] = default if value is None else _parsed(
            parse, error, field, value, source)
    return replace(conf, **concrete)
