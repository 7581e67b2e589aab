"""Serving-side resilience primitives: deadlines and the store breaker.

PR 8 gave the *campaign* layer supervised pools and a retry policy;
this module is the serving half of the same fault model.  Two named
error shapes (:class:`DeadlineExceeded`, :class:`ServiceOverloaded`)
surface per-request outcomes through the normal error-capture path —
the error text starts with the class name, exactly like every other
captured failure — and two primitives bound how long the service will
wait for anything:

* :class:`Deadline` — a monotonic time budget threaded through
  ``predict_many``/``lookup_many``.  A request past the budget yields a
  ``DeadlineExceeded`` response at its index, never a batch failure.
* :class:`StoreCircuitBreaker` — counts *consecutive* store faults
  (lock timeouts, corruption warnings, injected slow reads) and, past
  the threshold, flips lookups into degraded predict-only answers
  instead of stalling every batch on a sick store.  Recovery follows
  the half-open probe pattern with the same deterministic seeded-jitter
  backoff the campaign retries use
  (:meth:`repro.faults.FaultPolicy.delay`).

Both primitives take an injectable ``clock`` so breaker transitions and
deadline expiry are unit-testable without wall-clock sleeps.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Dict, Optional, Union

from ..faults import FaultPolicy

__all__ = [
    "Deadline",
    "DeadlineExceeded",
    "ServiceOverloaded",
    "StoreCircuitBreaker",
]


class DeadlineExceeded(RuntimeError):
    """A request or batch ran past its deadline budget.

    Captured per request (``"DeadlineExceeded: ..."`` in the response's
    ``error`` field) — the batch always completes with one response per
    request.
    """


class ServiceOverloaded(RuntimeError):
    """A request was shed by the admission queue (over capacity).

    Raised only to be captured: the serve loop converts it into a named
    per-index error response and counts it, it never escapes a batch.
    """


class Deadline:
    """A monotonic time budget for one batch (or one request).

    ``budget_s=None`` means unbounded: ``remaining()`` is ``inf`` and
    :meth:`check` never raises — so threading a deadline through a path
    costs one comparison when no budget was asked for.  The clock is
    injectable (tests pass a fake) and defaults to ``time.monotonic``.
    """

    def __init__(self, budget_s: Optional[float] = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if budget_s is not None and budget_s < 0.0:
            raise ValueError(f"Deadline budget_s must be >= 0, got {budget_s}")
        self.budget_s = budget_s
        self.clock = clock
        self._t0 = clock()

    @classmethod
    def of(cls, value: Union[None, float, "Deadline"],
           clock: Callable[[], float] = time.monotonic) -> "Deadline":
        """Coerce ``None`` / seconds / an existing deadline to a Deadline.

        Passing an existing :class:`Deadline` returns it unchanged, so a
        serve loop can share one budget across the predict and lookup
        phases of a batch.
        """
        if isinstance(value, Deadline):
            return value
        return cls(value, clock=clock)

    def elapsed(self) -> float:
        """Seconds since this deadline started."""
        return self.clock() - self._t0

    def remaining(self) -> float:
        """Seconds left in the budget (``inf`` when unbounded, floored
        at 0.0 once expired — safe to pass to ``sleep``/``min``)."""
        if self.budget_s is None:
            return math.inf
        return max(0.0, self.budget_s - self.elapsed())

    def expired(self) -> bool:
        """Has the budget been used up?"""
        return self.budget_s is not None and self.elapsed() >= self.budget_s

    def check(self, label: str) -> None:
        """Raise :class:`DeadlineExceeded` naming ``label`` if expired (the
        text states only the budget, so equal outcomes give equal bytes)."""
        if self.expired():
            raise DeadlineExceeded(
                f"{label}: deadline budget of {self.budget_s:.3f}s exhausted")


class StoreCircuitBreaker:
    """Closed / open / half-open breaker over the service's store path.

    ``threshold`` consecutive store faults open the breaker; while open,
    :meth:`allow` answers ``False`` and ``lookup_many`` serves degraded
    predict-only answers instead of touching the store.  After a
    recovery backoff — ``policy.delay(name, n_opens)``, the campaign
    layer's deterministic seeded-jitter schedule, so repeated opens back
    off exponentially and two services sharing a seed spread their
    probes apart — one probe request is let through (half-open).  A
    probe success closes the breaker; a probe failure reopens it with a
    longer backoff.

    Single-threaded by design (the service answers batches serially):
    ``allow`` → store access → ``record_success``/``record_failure``
    happen back to back, so at most one probe is ever in flight.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(self, threshold: int = 3, policy: Optional[FaultPolicy] = None,
                 name: str = "store",
                 clock: Callable[[], float] = time.monotonic) -> None:
        if threshold < 1:
            raise ValueError(
                f"StoreCircuitBreaker threshold must be >= 1, got {threshold}")
        self.threshold = threshold
        self.policy = policy if policy is not None else FaultPolicy()
        self.name = name
        self.state = self.CLOSED
        self.n_failures = 0  # consecutive faults since the last success
        self.n_opens = 0
        self.n_probes = 0
        self._clock = clock
        self._retry_at = 0.0

    def allow(self) -> bool:
        """May the next store access proceed?

        ``True`` while closed; while open, ``False`` until the recovery
        backoff elapses, then ``True`` exactly as the half-open probe.
        """
        if self.state == self.OPEN:
            if self._clock() < self._retry_at:
                return False
            self.state = self.HALF_OPEN
            self.n_probes += 1
        return True

    def record_success(self) -> None:
        """A store access completed cleanly: reset and close."""
        self.n_failures = 0
        self.state = self.CLOSED

    def record_failure(self) -> None:
        """A store access faulted; open past the threshold (immediately
        when the fault was the half-open probe)."""
        self.n_failures += 1
        if self.state == self.HALF_OPEN or self.n_failures >= self.threshold:
            self.state = self.OPEN
            self.n_opens += 1
            # seeded-jitter exponential backoff, longer after each open
            self._retry_at = self._clock() + self.policy.delay(
                f"breaker:{self.name}", self.n_opens - 1)

    def retry_in(self) -> float:
        """Seconds until the next half-open probe (0.0 unless open)."""
        if self.state != self.OPEN:
            return 0.0
        return max(0.0, self._retry_at - self._clock())

    def stats(self) -> Dict:
        """State + counters, surfaced through ``PredictionService.stats``."""
        return {
            "state": self.state,
            "threshold": self.threshold,
            "consecutive_failures": self.n_failures,
            "opens": self.n_opens,
            "probes": self.n_probes,
            "retry_in_s": round(self.retry_in(), 3),
        }
