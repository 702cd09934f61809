"""Admission control: concurrency cap, bounded queue, load budget.

Three gates stand between an accepted HTTP request and the executor, all
of which reject with :class:`AdmissionRejected` (HTTP 429) *before* any
cluster work happens:

1. **Load budget** — the planner's predicted load for the request
   (:meth:`AdmissionController.check_load`) must not exceed the
   controller's budget (or the request's own stricter one).  Estimation
   reuses the statistics memoized on the registered instance, so a
   repeated query pays nothing for it.
2. **Concurrency cap** — at most ``max_concurrent`` executions run at
   once.
3. **Queue depth** — when the cap is reached, up to ``queue_depth``
   requests wait their turn; anything beyond that is rejected
   immediately rather than piling up.

The controller is pure :mod:`threading` bookkeeping: it never touches
the executor, so it can be unit-tested deterministically with events.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterator, Optional

from contextlib import contextmanager

from ..errors import ReproError

__all__ = ["AdmissionRejected", "AdmissionController"]


class AdmissionRejected(ReproError):
    """A request was turned away before executing (HTTP 429).

    ``reason`` is machine-readable: ``"load-budget"`` (predicted load
    exceeds the budget), ``"queue-full"`` (concurrency cap reached and
    the wait queue is at depth).
    """

    def __init__(self, message: str, *, reason: str,
                 predicted_load: Optional[float] = None,
                 budget: Optional[float] = None) -> None:
        super().__init__(message)
        self.reason = reason
        self.predicted_load = predicted_load
        self.budget = budget


class AdmissionController:
    """Gatekeeper for concurrent executions.

    ``max_concurrent`` — executions allowed to run simultaneously;
    ``queue_depth`` — requests allowed to *wait* when the cap is hit
    (0 = reject immediately at the cap);
    ``load_budget`` — maximum predicted load (in tuples, the paper's L)
    admitted per request, ``None`` = unlimited.
    """

    def __init__(self, max_concurrent: int = 4, queue_depth: int = 8,
                 load_budget: Optional[float] = None) -> None:
        if max_concurrent < 1:
            from ..errors import ConfigError

            raise ConfigError("admission needs max_concurrent >= 1")
        if queue_depth < 0:
            from ..errors import ConfigError

            raise ConfigError("admission needs queue_depth >= 0")
        self.max_concurrent = max_concurrent
        self.queue_depth = queue_depth
        self.load_budget = load_budget
        self._condition = threading.Condition()
        self._active = 0
        self._queued = 0
        #: High-water mark of simultaneously running executions — the e2e
        #: battery asserts it never exceeds ``max_concurrent``.
        self.peak_active = 0
        self.admitted = 0
        self.rejections: Dict[str, int] = {"load-budget": 0, "queue-full": 0}

    @property
    def active(self) -> int:
        with self._condition:
            return self._active

    @property
    def queued(self) -> int:
        with self._condition:
            return self._queued

    def check_load(self, predicted_load: Optional[float],
                   request_budget: Optional[float] = None) -> None:
        """Reject when the planner's prediction exceeds the budget.

        ``request_budget`` (from the request body) can only *tighten* the
        server-wide budget.  An unknown prediction (``None``) passes: the
        planner could not score the request, and guessing a rejection
        would turn estimator gaps into outages.
        """
        budget = self.load_budget
        if request_budget is not None:
            budget = request_budget if budget is None else min(budget, request_budget)
        if budget is None or predicted_load is None:
            return
        if predicted_load > budget:
            with self._condition:
                self.rejections["load-budget"] += 1
            raise AdmissionRejected(
                f"predicted load {predicted_load:.0f} exceeds the admission "
                f"budget {budget:.0f}; narrow the query or raise the budget",
                reason="load-budget",
                predicted_load=predicted_load,
                budget=budget,
            )

    @contextmanager
    def slot(self, timeout: Optional[float] = None) -> Iterator[None]:
        """Hold one execution slot; queue up to ``queue_depth`` deep.

        Raises :class:`AdmissionRejected` (``reason="queue-full"``) when
        the cap is reached and the queue is full, or when ``timeout``
        seconds pass without a slot freeing up.
        """
        with self._condition:
            if self._active >= self.max_concurrent:
                if self._queued >= self.queue_depth:
                    self.rejections["queue-full"] += 1
                    raise AdmissionRejected(
                        f"{self._active} executions running and "
                        f"{self._queued} queued (cap {self.max_concurrent}, "
                        f"depth {self.queue_depth}); retry later",
                        reason="queue-full",
                    )
                self._queued += 1
                try:
                    granted = self._condition.wait_for(
                        lambda: self._active < self.max_concurrent,
                        timeout=timeout,
                    )
                finally:
                    self._queued -= 1
                if not granted:
                    self.rejections["queue-full"] += 1
                    raise AdmissionRejected(
                        "timed out waiting for an execution slot",
                        reason="queue-full",
                    )
            self._active += 1
            self.admitted += 1
            if self._active > self.peak_active:
                self.peak_active = self._active
        try:
            yield
        finally:
            with self._condition:
                self._active -= 1
                self._condition.notify()

    def stats(self) -> Dict[str, float]:
        """A snapshot for ``/metrics`` and tests."""
        with self._condition:
            return {
                "active": self._active,
                "queued": self._queued,
                "peak_active": self.peak_active,
                "admitted": self.admitted,
                "rejected_load_budget": self.rejections["load-budget"],
                "rejected_queue_full": self.rejections["queue-full"],
            }
