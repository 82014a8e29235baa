"""One counter registry per engine.

Every :class:`~repro.api.engine.Engine`, :class:`~repro.api.catalog.Catalog`
and :class:`~repro.core.incremental.MaintainedResult` owns one
:class:`Metrics`: named integer counters behind one lock, declared once
in :data:`COUNTERS`. ``Engine.cache_info()`` and ``Engine.explain()``
render the totals of an engine's registry plus its catalog's.

Code with no engine reference (the shard executor in
:mod:`repro.core.parallel`) counts through :func:`record`, into the
registry the calling thread activated with :meth:`Metrics.activate` —
thread-local, like :meth:`repro.serving.deadline.Deadline.activate`.
``Engine._run`` activates its own around every dispatch; a thread with
none active counts nowhere.
"""

from __future__ import annotations

import threading
from collections.abc import Iterator
from contextlib import contextmanager

__all__ = ["COUNTERS", "Metrics", "record"]

#: Every counter name, in reporting order.
COUNTERS = (
    # Plan and result caches; an invalidation is an entry dropped
    # because a dataset it was built over mutated.
    "plan_hits", "plan_misses", "plan_evictions", "plan_invalidations",
    "result_hits", "result_misses", "result_evictions", "result_invalidations",
    # Delta maintenance: mutations absorbed incrementally or by a full
    # recompute, the base rows they touched, and applications that
    # failed and only dirtied the handle (counted in none of the others).
    "maintained", "fallback_recomputes", "delta_rows", "failed_deltas",
    # Dominance-index life cycle.
    "index_builds", "index_hits", "index_invalidations", "index_maintained",
    # Recovery: failed shard tasks re-run, thread → serial steps, indexes
    # dropped after a failure, serving circuit-breaker trips.
    "shard_retries", "degradations", "index_quarantines", "breaker_opens",
)

_active = threading.local()


class Metrics:
    """Thread-safe registry of the :data:`COUNTERS`.

    # guarded-by: _lock: _counts
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts = dict.fromkeys(COUNTERS, 0)

    def add(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the named counter; an unknown name raises
        :class:`KeyError`."""
        with self._lock:
            self._counts[name] += n

    def snapshot(self) -> dict[str, int]:
        """A point-in-time copy of every counter."""
        with self._lock:
            return dict(self._counts)

    @contextmanager
    def activate(self) -> Iterator[Metrics]:
        """Make this the calling thread's target for :func:`record`.

        Nested activations restore the previous registry on exit.
        """
        previous = getattr(_active, "metrics", None)
        _active.metrics = self
        try:
            yield self
        finally:
            _active.metrics = previous

    def __repr__(self) -> str:
        nonzero = {name: n for name, n in self.snapshot().items() if n}
        return f"<Metrics {nonzero or 'clean'}>"


def record(name: str, n: int = 1) -> None:
    """Add ``n`` to the named counter of the calling thread's active
    registry; a no-op when none is active."""
    metrics: Metrics | None = getattr(_active, "metrics", None)
    if metrics is not None:
        metrics.add(name, n)
