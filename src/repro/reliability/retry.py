"""Retry with exponential backoff, deterministic jitter and deadline budgets.

Transient faults (a stalled filesystem, an interrupted read, a sweep cell
that dies once) should cost a retry, not a training run.
:class:`RetryPolicy` runs any callable with:

* up to ``attempts`` tries, re-raising the last error when exhausted;
* exponential backoff (``base_delay_s * multiplier**attempt``, capped at
  ``max_delay_s``) with multiplicative jitter drawn from a *seeded* RNG —
  derived from :func:`repro.utils.get_global_seed` unless an explicit seed is
  given — so two identical runs back off identically.  The jitter stream is
  the policy's own; it never consumes the experiment fallback stream, so
  retries cannot perturb training randomness;
* an optional wall-clock ``deadline_s`` budget: when the next sleep would
  overrun it, :class:`DeadlineExceeded` is raised instead of sleeping;
* ``retry_on`` / ``give_up_on`` exception filters — corrupt-state errors
  (:class:`repro.nn.CheckpointError`, ``PipelineError``) are *not* retried by
  the default read policy: corruption is permanent, retrying it only delays
  the readable diagnostic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from repro.utils import get_global_seed


class DeadlineExceeded(TimeoutError):
    """The retry deadline budget ran out before the call succeeded."""


@dataclass
class RetryPolicy:
    """Call a function until it succeeds, with seeded exponential backoff."""

    attempts: int = 3
    base_delay_s: float = 0.05
    multiplier: float = 2.0
    max_delay_s: float = 2.0
    #: +/- fraction of each delay drawn from the seeded jitter stream
    jitter: float = 0.25
    deadline_s: float | None = None
    retry_on: tuple[type[BaseException], ...] = (OSError, TimeoutError)
    give_up_on: tuple[type[BaseException], ...] = ()
    #: ``None`` derives the jitter stream from the experiment-wide seed
    seed: int | None = None
    #: injectable for tests (and for event-loop front-ends)
    sleep: Callable[[float], None] = field(default=time.sleep, repr=False)

    def __post_init__(self):
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        self._rng = np.random.default_rng(
            self.seed if self.seed is not None else get_global_seed())

    # ------------------------------------------------------------------ #
    def delays(self) -> Iterator[float]:
        """The jittered backoff schedule (one delay per retry, not per attempt)."""
        for attempt in range(self.attempts - 1):
            delay = min(self.base_delay_s * self.multiplier ** attempt,
                        self.max_delay_s)
            if self.jitter:
                delay *= 1.0 + self.jitter * (2.0 * self._rng.random() - 1.0)
            yield delay

    def call(self, fn: Callable, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` under this policy; return its result."""
        start = time.monotonic()
        schedule = self.delays()
        for attempt in range(self.attempts):
            try:
                return fn(*args, **kwargs)
            except self.give_up_on:
                raise
            except self.retry_on as error:
                if attempt == self.attempts - 1:
                    raise
                delay = next(schedule)
                if (self.deadline_s is not None
                        and time.monotonic() - start + delay > self.deadline_s):
                    raise DeadlineExceeded(
                        f"retry deadline of {self.deadline_s:.3f}s exhausted after "
                        f"{attempt + 1} attempt(s); last error: {error}") from error
                self.sleep(delay)
        raise AssertionError("unreachable")  # pragma: no cover


#: Default policy for artifact reads: short, bounded, transient-only.  Missing
#: files and corrupt-state errors fail immediately — only genuinely transient
#: I/O errors are worth the wait.
def default_read_policy() -> RetryPolicy:
    return RetryPolicy(attempts=3, base_delay_s=0.01, max_delay_s=0.25,
                       deadline_s=2.0, retry_on=(OSError, TimeoutError),
                       give_up_on=(FileNotFoundError, IsADirectoryError))
