"""``repro.reliability`` — deterministic faults, retries and durable I/O.

The systems counterpart to the paper's robustness claim: distribution shift
is handled by the models, *infrastructure* shift (partial writes, corrupt
artifacts, flaky I/O, mid-epoch crashes, poisoned requests) is handled here.

* :mod:`repro.reliability.faults` — seeded fault-injection harness
  (:class:`FaultPlan`, :func:`inject`, :func:`fault_point`) instrumenting the
  I/O, trainer-step, serving and sweep call sites.  ``trainer.step``
  sits in the one ``Trainer`` loop, so it fires on every optimiser update of
  every stage: baselines, the clean teacher, DTDBD distillation and DAT-IE
  unbiased-teacher training.
* :mod:`repro.reliability.retry` — :class:`RetryPolicy` with exponential
  backoff, experiment-seeded jitter and deadline budgets, used for artifact
  reads and sweep cell retries.
* :mod:`repro.reliability.durable` — atomic temp-file + fsync + ``os.replace``
  writes (singly, or as a group that skips unchanged files and syncs the
  directory once), the retried :func:`read_bytes` every artifact read goes through,
  and the SHA-256 digests a pipeline's ``checksums.json`` records.
* :mod:`repro.reliability.watchdog` — ``SIGALRM`` wall-clock guard turning a
  hang into a readable :class:`WatchdogTimeout`; the chaos and server test
  suites run every test under one.
* :mod:`repro.reliability.pool` — the one supervised spawn-process pool
  (respawn under a restart budget, drain-before-death liveness) under
  ``repro.serve.Server`` and the parallel sweep.

Downstream: checkpoints, pipeline weights and training snapshots share one
weights container (:mod:`repro.nn.serialization`, SHA-256 trailer) whose
loaders refuse damaged files, ``repro.serve`` artifacts verify end-to-end,
and ``Trainer.snapshot``/``resume`` give crash-resumable training (see the
``tests/reliability/`` chaos suite).
"""

from repro.reliability.durable import (
    atomic_write_bytes,
    atomic_write_text,
    atomic_writer,
    fsync_directory,
    read_bytes,
    sha256_bytes,
    sha256_file,
    write_changed_files,
)
from repro.reliability.faults import (
    FaultEvent,
    FaultPlan,
    FaultRule,
    InjectedFault,
    active_plan,
    fault_point,
    inject,
    install_plan,
)
from repro.reliability.retry import DeadlineExceeded, RetryPolicy, default_read_policy
from repro.reliability.watchdog import WatchdogTimeout, watchdog

__all__ = [
    "FaultPlan", "FaultRule", "FaultEvent", "InjectedFault",
    "inject", "fault_point", "active_plan", "install_plan",
    "RetryPolicy", "DeadlineExceeded", "default_read_policy",
    "watchdog", "WatchdogTimeout",
    "atomic_writer", "atomic_write_bytes", "atomic_write_text",
    "write_changed_files", "read_bytes", "sha256_bytes", "sha256_file",
    "fsync_directory",
]
