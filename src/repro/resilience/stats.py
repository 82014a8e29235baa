"""Process-wide resilience counters.

The recovery machinery spans layers that hold no reference to an
:class:`~repro.api.engine.Engine` (the shard executor in
:mod:`repro.core.parallel` in particular), so its bookkeeping lives in
one process-wide accumulator rather than per-engine state.
``Engine.cache_info()`` surfaces a snapshot under the ``"resilience"``
key, and ``Engine.explain`` folds the totals into its summary line.
"""

from __future__ import annotations

import threading

__all__ = ["COUNTER_NAMES", "ResilienceStats", "resilience_stats"]

#: Every counter the accumulator tracks, in reporting order.
COUNTER_NAMES = (
    "shard_retries",       # failed shard tasks re-executed
    "degradations",        # executor ladder steps (thread→serial)
    "index_quarantines",   # indexes dropped after load/maintenance failures
    "delta_failures",      # delta applications that dirtied a live handle
    "breaker_opens",       # serving circuit-breaker trips
    "faults_injected",     # checkpoints that deliberately fired
)


class ResilienceStats:
    """Thread-safe counter accumulator.

    # guarded-by: _lock: _counts
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts = dict.fromkeys(COUNTER_NAMES, 0)

    def record(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the named counter."""
        if name not in COUNTER_NAMES:
            raise KeyError(f"unknown resilience counter {name!r}")
        with self._lock:
            self._counts[name] += n

    def snapshot(self) -> dict[str, int]:
        """A point-in-time copy of every counter."""
        with self._lock:
            return dict(self._counts)

    def reset(self) -> None:
        """Zero every counter (test isolation hook)."""
        with self._lock:
            self._counts = dict.fromkeys(COUNTER_NAMES, 0)

    def __repr__(self) -> str:
        with self._lock:
            nonzero = {k: v for k, v in self._counts.items() if v}
        return f"<ResilienceStats {nonzero or 'clean'}>"


_STATS = ResilienceStats()


def resilience_stats() -> ResilienceStats:
    """The process-wide accumulator."""
    return _STATS
