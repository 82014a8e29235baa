"""Circuit breaker for the serving layer's engine executions.

A server whose engine fails repeatedly (a poisoned dataset, a sick
host) should *shed fast* rather than queue doomed work behind its
admission controller. :class:`CircuitBreaker` implements the standard
three-state machine:

``closed``
    Normal operation. Consecutive failures are counted; reaching
    ``failure_threshold`` trips the breaker open.
``open``
    Every request is shed (HTTP 503 + ``Retry-After``) until
    ``reset_timeout`` has elapsed.
``half_open``
    Exactly one probe request is admitted; its success closes the
    breaker, its failure re-opens it for another full timeout, and an
    outcome that says nothing about engine health (a client error, a
    disconnect) releases the probe slot via :meth:`record_neutral` so
    the next arrival may probe — a leaked slot would shed traffic
    forever, since ``half_open`` has no timeout of its own.

The breaker is called from the serving event loop *and* judged by
results produced on executor threads, so it synchronizes with a lock —
which is why it lives here rather than in the serving package, whose
``async def`` bodies the R5 linter rule keeps lock-free.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable

__all__ = ["CircuitBreaker"]


class CircuitBreaker:
    """Consecutive-failure circuit breaker with a half-open probe.

    # guarded-by: _lock: _state, _failures, _opened_at, _probing
    """

    def __init__(
        self,
        failure_threshold: int = 8,
        reset_timeout: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.failure_threshold = max(1, int(failure_threshold))
        self.reset_timeout = float(reset_timeout)
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._failures = 0
        self._opened_at = 0.0
        self._probing = False

    @property
    def state(self) -> str:
        """``"closed"``, ``"open"`` or ``"half_open"``."""
        with self._lock:
            return self._state

    @property
    def retry_after(self) -> float:
        """Seconds until the breaker next admits a probe (0 when it
        already would)."""
        with self._lock:
            if self._state != "open":
                return 0.0
            remaining = self.reset_timeout - (self._clock() - self._opened_at)
            return max(0.0, remaining)

    def allow(self) -> bool:
        """May a request proceed right now?

        In the open state, the first caller after ``reset_timeout``
        wins the half-open probe slot; everyone else stays shed until
        the probe's outcome is recorded.
        """
        with self._lock:
            if self._state == "closed":
                return True
            if self._state == "open":
                if self._clock() - self._opened_at < self.reset_timeout:
                    return False
                self._state = "half_open"
                self._probing = True
                return True
            # half_open: one probe outstanding at a time
            if self._probing:
                return False
            self._probing = True
            return True

    def record_success(self) -> None:
        """An admitted request succeeded; close the breaker.

        Only from ``closed`` (streak reset) or ``half_open`` (probe
        verdict): in the ``open`` state a success necessarily comes
        from a slow request admitted *before* the trip, says nothing
        about current engine health, and must not let queued traffic
        skip the reset timeout — it is treated as neutral.
        """
        with self._lock:
            if self._state == "open":
                return
            self._state = "closed"
            self._failures = 0
            self._probing = False

    def record_neutral(self) -> None:
        """An admitted request ended without an engine-health verdict
        (client error, disconnect, post-admission shed): release the
        half-open probe slot, change nothing else.

        Every ``allow()`` grant must eventually be answered by exactly
        one of success/failure/neutral — otherwise the probe slot
        leaks and ``allow()`` sheds all traffic forever.
        """
        with self._lock:
            if self._state == "half_open":
                self._probing = False

    def record_failure(self) -> bool:
        """An admitted request failed; trip or re-open as appropriate.

        Returns whether this failure opened the breaker, so the caller
        can count the trip (the serving layer counts it as its engine's
        ``breaker_opens``)."""
        with self._lock:
            if self._state == "half_open":
                self._probing = False
            else:
                self._failures += 1
                if self._failures < self.failure_threshold:
                    return False
            self._state = "open"
            self._opened_at = self._clock()
            return True

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"<CircuitBreaker {self._state} failures={self._failures}/"
                f"{self.failure_threshold}>"
            )
