"""Per-request deadlines with cooperative cancellation checkpoints.

A :class:`Deadline` gives one request a wall-clock budget. The
algorithm hot loops call :func:`active_deadline` once on entry and then
:meth:`Deadline.check` at bounded-work checkpoints: the verifier of
``core/verify.py`` (behind Algorithms 2 and 3, the progressive
generators and the pruned cascade) before each candidate, the exact
pipeline of ``core/parallel.py`` (behind the naive, parallel and
indexed runs) before each wave of chunks. An expired check raises
:class:`~repro.errors.DeadlineExceeded` carrying the progressive
partial answer decided so far.

Two properties make cancellation safe:

* **Checkpoints only read.** A check never mutates plan memos, engine
  caches or catalog state, so a query cancelled at *any* checkpoint
  leaves every shared structure exactly as a completed query would —
  re-issuing the query returns the exact full answer (property-tested
  in ``tests/property/test_property_serving.py``).
* **Partial answers are subsets.** The partial carried by the error
  contains only pairs that were fully verified before expiry (or
  Theorem-1/3 "yes" tuples of a faithful-mode query, which that spec's
  full answer also contains), so ``partial ⊆ full answer`` always
  holds.

Deadlines propagate through :meth:`Engine.execute(...,
deadline=) <repro.api.engine.Engine.execute>` — the engine activates
the deadline for the duration of the run via a **thread-local** (not a
``contextvars`` context: the serving layer runs engine calls through
``loop.run_in_executor``, which does not propagate context to the
worker thread; the executor job activates the deadline itself on the
thread that runs the algorithm).

The clock is injectable (``clock=``) so tests can drive expiry
deterministically — e.g. a counting clock that expires at exactly the
m-th checkpoint.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager

from ..errors import DeadlineExceeded, ParameterError

__all__ = [
    "DEFAULT_CHECK_INTERVAL",
    "Deadline",
    "active_deadline",
    "PartialProvider",
]

#: Candidate rows between two deadline checks in the algorithm hot
#: loops. Small enough that a 50 ms budget trips within a few
#: milliseconds of expiry on the per-row verification loops, large
#: enough that the clock reads stay invisible in the profiles.
DEFAULT_CHECK_INTERVAL = 64

#: Callable producing the partial answer at the moment of expiry; only
#: evaluated when a check actually trips, so providers may do O(answer)
#: work (concatenating verified survivors) without taxing the hot loop.
PartialProvider = Callable[[], tuple[tuple[int, ...], ...]]

_active = threading.local()


class Deadline:
    """A wall-clock budget for one request.

    Parameters
    ----------
    budget:
        Seconds this request may consume, measured from construction.
    clock:
        Monotonic time source (seconds). Injectable for deterministic
        tests; defaults to :func:`time.monotonic`.
    """

    __slots__ = ("budget", "_clock", "_start")

    def __init__(
        self, budget: float, clock: Callable[[], float] = time.monotonic
    ) -> None:
        if budget <= 0:
            raise ParameterError(f"deadline budget must be positive, got {budget!r}")
        self.budget = float(budget)
        self._clock = clock
        self._start = clock()

    @classmethod
    def after(
        cls, seconds: float, clock: Callable[[], float] = time.monotonic
    ) -> "Deadline":
        """A deadline expiring ``seconds`` from now."""
        return cls(seconds, clock=clock)

    # ------------------------------------------------------------------
    def elapsed(self) -> float:
        """Seconds consumed so far."""
        return self._clock() - self._start

    def remaining(self) -> float:
        """Seconds left before expiry (negative once expired)."""
        return self.budget - self.elapsed()

    @property
    def expired(self) -> bool:
        """Has the budget been consumed?"""
        return self.remaining() <= 0

    def check(self, partial: PartialProvider | None = None) -> None:
        """Cooperative checkpoint: raise on expiry, no-op otherwise.

        ``partial`` supplies the progressive partial answer attached to
        the raised :class:`~repro.errors.DeadlineExceeded`; it is only
        evaluated when the deadline has actually expired.
        """
        elapsed = self.elapsed()
        if elapsed < self.budget:
            return
        pairs = partial() if partial is not None else ()
        raise DeadlineExceeded(
            f"deadline of {self.budget:.3f}s exceeded after {elapsed:.3f}s "
            f"({len(pairs)} partial result(s) decided)",
            partial_pairs=tuple(tuple(int(x) for x in p) for p in pairs),
            elapsed=elapsed,
            budget=self.budget,
        )

    @contextmanager
    def activate(self) -> Iterator["Deadline"]:
        """Install this deadline as the calling thread's active deadline.

        Nested activations restore the previous deadline on exit, so an
        engine call made *inside* a deadline-scoped region keeps the
        outer deadline after its own completes.
        """
        previous = getattr(_active, "deadline", None)
        _active.deadline = self
        try:
            yield self
        finally:
            _active.deadline = previous

    def __repr__(self) -> str:
        state = "expired" if self.expired else f"{self.remaining():.3f}s left"
        return f"<Deadline budget={self.budget:.3f}s {state}>"


def active_deadline() -> Deadline | None:
    """The calling thread's active deadline, or ``None``.

    Algorithm hot loops read this once on entry; a ``None`` keeps the
    loop checkpoint-free (zero overhead for library callers that never
    touch the serving layer).
    """
    return getattr(_active, "deadline", None)
