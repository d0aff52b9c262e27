"""Shared plumbing of the benchmark: the measuring skeleton, environment,
statistics.

A workload is a module with three functions:

* ``setup(ctx) -> state``: everything a user pays before the first unit of
  timed work;
* ``unit(ctx, state) -> dict``: one unit of timed work (a fit, a replay).
  The dict holds at least ``items`` (work items done), ``interval`` (the
  unit's ``perf_counter`` start and end) and ``latencies`` (the intervals
  of its latency samples);
* ``check(ctx, units) -> Verdict``: the workload's correctness checks over
  every unit of the run.

:func:`run` drives a workload and derives the metrics the same way for all
of them.
"""

from __future__ import annotations

import bisect
import contextlib
import os
import platform
import resource
import signal
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from spans import Tracer, instrument

#: BLAS/OpenMP thread count the entry point pins before NumPy loads
PINNED_THREADS = 1
#: set-ups per untraced run; ``setup_s`` is their median
SETUP_REPEATS = 3
#: seconds between host-speed samples, and the time one sample of the kernel
#: takes on the reference host (a shared 2-core virtual machine at its
#: typical speed)
SPEED_INTERVAL_S = 0.05
REFERENCE_KERNEL_S = 6.0e-4
#: samples this far outside an interval still describe its host speed
SPEED_HALO_S = 0.1

_KERNEL_MATRIX = np.random.default_rng(0).random((24, 24), dtype=np.float32)


def speed_kernel() -> int:
    """A fixed mix of interpreter and small-GEMM work, like the workloads'."""
    total = 0
    for value in range(3000):
        total += value * value
    for _ in range(150):
        _KERNEL_MATRIX @ _KERNEL_MATRIX
    return total


class Speedometer:
    """Converts wall time into reference-host seconds.

    A shared virtual machine can change speed by a third within seconds, for
    every kind of work alike.  While running, the speedometer
    times :func:`speed_kernel` every :data:`SPEED_INTERVAL_S` from a
    ``SIGALRM`` handler on the main thread.  :meth:`seconds` turns a wall
    interval into the time it would have taken at the reference speed: the
    interval minus the kernel's own samples inside it, times
    ``REFERENCE_KERNEL_S`` over the median sample around it.

    The correction holds only while nothing in the process competes with
    the kernel.  A second Python thread would: it takes the interpreter lock
    from the kernel, the kernel reads slower and the reported seconds
    shrink.  :attr:`threads` records the most Python threads alive at any
    sample, and :func:`run` fails the run's ``host_speed_probe_alone``
    check when it exceeds one.  The details line carries the raw wall
    figures and :meth:`factor`, so a reader can tell whether the program or
    the correction moved a metric.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.threads = 1
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        speed_kernel()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)
        self.threads = max(self.threads, threading.active_count())

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SPEED_INTERVAL_S, SPEED_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def seconds(self, start: float, end: float) -> float:
        starts = self.starts
        inner = self.durations[bisect.bisect_left(starts, start):
                               bisect.bisect_left(starts, end)]
        around = self.durations[bisect.bisect_left(starts, start - SPEED_HALO_S):
                                bisect.bisect_right(starts, end + SPEED_HALO_S)]
        if not around:
            raise RuntimeError("no host-speed sample near the interval; was the "
                               "speedometer running?")
        return (end - start - sum(inner)) * REFERENCE_KERNEL_S / float(np.median(around))

    def factor(self) -> float:
        """Reference-host seconds per wall second over the whole run (median
        sample); above 1 the host ran faster than the reference."""
        return REFERENCE_KERNEL_S / float(np.median(self.durations))


@dataclass
class Context:
    """Inputs of one benchmark run."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    #: "full" for the benchmark proper, "smoke" for the reduced-size check
    size: str
    #: scratch directory inside the checkout (artifacts, temporary files)
    workdir: str
    tracer: Tracer | None = None
    #: host-speed sampler of an untraced run
    speed: Speedometer | None = None
    #: ``id()`` of every frozen teacher (read by the traced forwards)
    teacher_ids: set = field(default_factory=set)
    caches: dict = field(default_factory=dict)

    def span(self, name: str, opaque: bool = False):
        """A span in the traced run, a no-op otherwise."""
        if self.tracer is None:
            return contextlib.nullcontext(-1)
        return self.tracer.span(name, opaque)

    def trace_on(self) -> None:
        """Patch the layer entry points (traced runs only)."""
        if self.tracer is not None:
            self.caches = instrument(self.tracer, self.teacher_ids)

    def trace_off(self) -> None:
        if self.tracer is not None:
            self.tracer.restore()


@dataclass
class Verdict:
    """What a workload's checks found in the units of a run."""

    #: correctness check name -> passed
    checks: dict
    attempted: int
    failed: int
    f1: float
    #: the workload's values of :data:`WORKLOAD_SPECIFIC` (traced runs)
    layer: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """What a run measured and checked."""

    attempted: int
    failed: int
    #: end-to-end metrics (untraced run) or per-layer metrics (traced run)
    metrics: dict
    #: correctness check name -> passed
    checks: dict
    #: sample counts and other context printed beside the result
    details: dict = field(default_factory=dict)


def repeat_until(seconds: float, unit) -> list[dict]:
    """Call ``unit()`` at least once and until ``seconds`` have passed."""
    deadline = time.perf_counter() + seconds
    units = [unit()]
    while time.perf_counter() < deadline:
        units.append(unit())
    return units


def run(ctx: Context, workload) -> Outcome:
    """Set up, measure and check ``workload`` (see the module docstring).

    An untraced run sets up :data:`SETUP_REPEATS` times, keeps the last
    state and repeats units for ``ctx.seconds``.  A traced run sets up once
    with tracing on (the set-up spans are opaque), repeats units untraced
    for half the seconds and traced for the other half.
    """
    ctx.trace_on()
    setups = []
    for _ in range(1 if ctx.trace else SETUP_REPEATS):
        start = time.perf_counter()
        state = workload.setup(ctx)
        setups.append((start, time.perf_counter()))
    ctx.trace_off()

    def unit():
        return workload.unit(ctx, state)

    units = repeat_until(ctx.seconds / 2 if ctx.trace else ctx.seconds, unit)
    traced = []
    if ctx.trace:
        ctx.trace_on()
        with ctx.span("harness.measure") as root:
            traced = repeat_until(ctx.seconds / 2, unit)
        ctx.trace_off()

    verdict = workload.check(ctx, units + traced)
    details = {"units": len(units) + len(traced),
               "latency_samples": sum(len(u["latencies"]) for u in units),
               **verdict.details}
    if ctx.trace:
        metrics, details["reconcile"] = trace_metrics(ctx, root, units, traced,
                                                      verdict.layer)
        verdict.checks["stage_sums_reconcile"] = details["reconcile"]["ok"]
    else:
        metrics = end_to_end(ctx.speed.seconds, setups, units)
        details["p99_ms"] = metrics.pop("p99_ms")
        details["wall"] = end_to_end(_wall, setups, units)
        details["speed_factor"] = ctx.speed.factor()
        details["probe_threads"] = ctx.speed.threads
        verdict.checks["host_speed_probe_alone"] = ctx.speed.threads == 1
        metrics.update(f1=verdict.f1, peak_rss_mb=peak_rss_mb())
    return Outcome(attempted=verdict.attempted, failed=verdict.failed,
                   metrics=metrics, checks=verdict.checks, details=details)


def _wall(start: float, end: float) -> float:
    return end - start


def rate(units: list[dict], seconds) -> float:
    """Median over units of items per second; ``seconds(start, end)``
    measures an interval."""
    return float(np.median([u["items"] / seconds(*u["interval"]) for u in units]))


def end_to_end(seconds, setups: list, units: list[dict]) -> dict:
    """Set-up, throughput and latency figures, with intervals measured by
    ``seconds(start, end)``.  Latency percentiles are medians over units of
    each unit's percentiles: a stall of the shared host moves one unit, not
    the run's result."""
    per_unit = [np.percentile([seconds(*interval) for interval in u["latencies"]],
                              (50, 90, 99)) * 1e3 for u in units if u["latencies"]]
    p50, p90, p99 = (float(value) for value in np.median(per_unit, axis=0))
    return {"setup_s": float(np.median([seconds(*interval) for interval in setups])),
            "items_per_s": rate(units, seconds),
            "p50_ms": p50, "p90_ms": p90, "p99_ms": p99}


def peak_rss_mb() -> float:
    """Peak resident set of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: per-layer metrics only some workloads produce; 0 on the others
WORKLOAD_SPECIFIC = (
    "metrics.bias", "encoders.unused_channel_share", "streaming.score_batch_mean",
    "streaming.drift_events", "streaming.adaptations", "streaming.onboardings",
)


def trace_metrics(ctx: Context, root: int, untraced: list[dict], traced: list[dict],
                  specific: dict) -> tuple[dict, dict]:
    """Per-layer metrics, derived the same way for every workload.

    Self times and call counts of the measured window are per traced unit,
    so they do not follow how many units fitted into the window; the
    ``experiments.*`` times are of the one set-up.  ``root`` is the span
    around the traced window; ``specific`` maps names from
    :data:`WORKLOAD_SPECIFIC` to the workload's values.  Returns the
    metrics and the reconciliation record of ``root``.
    """
    tracer = ctx.tracer
    summary = tracer.summary()
    per_unit = 1.0 / len(traced)

    def total(name, key):
        return summary.get(name, {}).get(key, 0)

    def self_s(name):
        return total(name, "self_s") * per_unit

    lookups = total("core.cache_lookup", "calls")
    needed = lookups + total("core.live_teacher_forward", "calls")
    reconciled = tracer.reconcile(root)
    metrics = {
        "tensor.backward_s": self_s("tensor.backward"),
        "tensor.backward_calls": total("tensor.backward", "calls") * per_unit,
        "nn.adam_step_s": self_s("nn.adam_step"),
        "nn.clip_s": self_s("nn.clip"),
        "models.student_forward_s": self_s("models.student_forward"),
        "models.teacher_forward_s": self_s("models.teacher_forward"),
        "models.predict_s": self_s("models.predict"),
        "core.cache_lookup_s": self_s("core.cache_lookup"),
        "core.cache_hit_share": lookups / needed if needed else 0.0,
        "core.cache_recomputed_windows": per_unit * sum(
            cache.recomputed_windows for cache in ctx.caches.values()),
        "core.add_loss_s": self_s("core.add_loss"),
        "core.dkd_loss_s": self_s("core.dkd_loss"),
        "core.evaluate_s": self_s("core.evaluate"),
        "core.train_epoch_s": self_s("core.train_epoch"),
        "data.batch_gather_s": self_s("data.batch_gather"),
        "data.tokenize_s": self_s("data.tokenize"),
        "data.ring_write_s": self_s("data.ring_write"),
        "encoders.plm_s": self_s("encoders.plm"),
        "encoders.style_s": self_s("encoders.style"),
        "encoders.emotion_s": self_s("encoders.emotion"),
        "metrics.bias_report_s": self_s("metrics.bias_report"),
        "serve.package_s": self_s("serve.predict"),
        "serve.reload_s": self_s("serve.reload"),
        "streaming.observe_s": self_s("streaming.observe"),
        "streaming.onboard_s": self_s("streaming.onboard"),
        "streaming.adapt_s": self_s("streaming.adapt"),
        "reliability.export_s": self_s("reliability.export"),
        "reliability.verify_s": self_s("reliability.verify"),
        "experiments.prepare_data_s": total("experiments.prepare_data", "self_s"),
        "experiments.teacher_train_s": total("experiments.teacher_train", "self_s"),
        "experiments.student_train_s": total("experiments.student_train", "self_s"),
        "harness.unit_wall_s": reconciled["wall_s"] * per_unit,
        "harness.stage_sum_share": 1.0 - reconciled["root_self_s"] / reconciled["wall_s"],
        "harness.trace_overhead_share": (rate(untraced, _wall) / rate(traced, _wall)
                                         - 1.0),
    }
    metrics.update(dict.fromkeys(WORKLOAD_SPECIFIC, 0))
    unknown = set(specific) - set(WORKLOAD_SPECIFIC)
    if unknown:
        raise KeyError(f"not workload-specific metrics: {sorted(unknown)}")
    metrics.update(specific)
    return metrics, reconciled


def unused_channel_share(tracer: Tracer, required: tuple) -> float:
    """Serve-path channel computations the served model does not read."""
    computed = {name: tracer.counts.get(f"encoders.{name}.items", 0)
                for name in ("plm", "style", "emotion")}
    total = sum(computed.values())
    unused = sum(count for name, count in computed.items() if name not in required)
    return unused / total if total else 0.0


def filesystem_of(path: str) -> str:
    """Filesystem type of the mount holding ``path`` (from /proc/mounts)."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as handle:
            for line in handle:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                if (path == mount or path.startswith(mount.rstrip("/") + "/")) \
                        and len(mount) >= len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def blas_threads() -> int:
    """Threads the loaded OpenBLAS will use, or -1 when none is found."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libraries = sorted({line.split()[-1] for line in handle
                                if "openblas" in line.lower() and "/" in line})
    except OSError:
        return -1
    for library in libraries:
        handle = ctypes.CDLL(library)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return -1


def environment(workdir: str, dtype: str) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "blas_threads": blas_threads(),
        "pinned_threads": PINNED_THREADS,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "dtype": dtype,
        "artifact_filesystem": filesystem_of(workdir),
    }
