"""Deterministic fault injection at named checkpoints.

The execution layers (:mod:`repro.core.parallel`, ``core/index``,
``core/incremental``, ``serving/server``) call
:func:`checkpoint` with a stable *site* name at the points where real
deployments fail: shard candidate generation (``"shard.candidates"``),
cross-shard verification (``"shard.verify"``), index builds and
incremental maintenance (``"index.build"`` / ``"index.maintain"``),
delta application (``"delta.apply"``) and serving execution
(``"serving.execute"``). When no plan is armed the call is a single
``None`` comparison — measurably zero overhead — so the checkpoints
stay compiled into production paths.

A :class:`FaultPlan` arms a seeded, deterministic schedule of
:class:`FaultSpec` entries against those sites:

``crash``
    The checkpoint raises :class:`InjectedFault`, modelling a lost
    worker. Shard work runs on threads of the process that hosts the
    engine, so a crash never kills a process: that would take the whole
    service down instead of exercising the recovery ladder.
``slow``
    The checkpoint sleeps for ``delay`` seconds (a straggler shard).
``corrupt`` / ``io``
    The checkpoint raises :class:`InjectedFault` (a typed
    :class:`~repro.errors.ResilienceError`), modelling a corrupted
    index page or a transient I/O error respectively.

One lock guards a plan's hit counters and its :meth:`FaultPlan.fired`
total, so concurrent shard threads consume the *same* fault budget: a
``times=1`` fault fires exactly once however many threads reach its
site. A plan is armed for the whole process, so the count of faults it
injected belongs to the plan, not to any engine.

Determinism: which hit fires depends only on the per-site hit number
(and, for ``rate`` specs, on the plan ``seed``), never on wall-clock
time or on which thread reached the site.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass

from ..errors import ResilienceError

__all__ = [
    "FAULT_KINDS",
    "FaultSpec",
    "FaultPlan",
    "InjectedFault",
    "arm",
    "disarm",
    "armed_plan",
    "arming",
    "checkpoint",
]

#: Failure modes a :class:`FaultSpec` can inject.
FAULT_KINDS = ("crash", "slow", "corrupt", "io")


class InjectedFault(ResilienceError):
    """A fault-injection checkpoint fired.

    Typed (via :class:`~repro.errors.ResilienceError`) so the chaos
    suite can distinguish a deliberately surfaced failure from a
    silently wrong answer, and picklable with its ``site`` and ``kind``
    (default exception pickling would drop them).
    """

    def __init__(self, site: str, kind: str) -> None:
        super().__init__(f"injected {kind!r} fault at checkpoint {site!r}")
        self.site = site
        self.kind = kind

    def __reduce__(self) -> tuple[type, tuple[str, str]]:
        return (type(self), (self.site, self.kind))


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault at one checkpoint site.

    Attributes
    ----------
    site:
        Checkpoint name the fault is bound to (``"shard.verify"``...).
    kind:
        One of :data:`FAULT_KINDS`.
    times:
        How many hits fire after the ``after`` skip; ``None`` means
        every hit fires (a *persistent* fault the retry ladder cannot
        outlast). Ignored when ``rate`` is set.
    after:
        Hits of the site to let through cleanly before firing.
    delay:
        Sleep duration in seconds for ``slow`` faults.
    rate:
        Optional probability in ``[0, 1]``: each hit past ``after``
        fires with this probability, derived deterministically from the
        plan seed and the hit number.
    """

    site: str
    kind: str = "io"
    times: int | None = 1
    after: int = 0
    delay: float = 0.01
    rate: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.after < 0:
            raise ValueError("after must be >= 0")
        if self.times is not None and self.times < 0:
            raise ValueError("times must be >= 0 (or None for unbounded)")
        if self.rate is not None and not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be within [0, 1]")

    def fires(self, hit: int, seed: int) -> bool:
        """Should the ``hit``-th observation of the site (0-based) fire?

        Pure function of ``(spec, hit, seed)`` — never of time or
        process identity — so armed runs are reproducible.
        """
        if hit < self.after:
            return False
        if self.rate is not None:
            # Deterministic per-hit coin flip: blake2b of (site, seed,
            # hit) scaled into [0, 1). Unlike hash() it is stable
            # across processes and PYTHONHASHSEED values, and unlike a
            # CRC it decorrelates neighboring seeds and hit numbers.
            token = f"{self.site}:{seed}:{hit}".encode()
            digest = hashlib.blake2b(token, digest_size=8).digest()
            return int.from_bytes(digest, "big") / 2.0**64 < self.rate
        if self.times is None:
            return True
        return hit < self.after + self.times


class FaultPlan:
    """A seeded, deterministic schedule of faults across checkpoints.

    One lock guards the per-spec hit counters and the fired total; the
    plan holds no other mutable state, so one plan may be armed while
    queries run on many threads at once.

    # guarded-by: _lock: _hits, _fired
    """

    def __init__(self, specs: Iterable[FaultSpec] = (), seed: int = 0) -> None:
        self.specs = tuple(specs)
        self.seed = int(seed)
        self._lock = threading.Lock()
        self._hits = [0] * len(self.specs)
        self._fired = 0
        by_site: dict[str, list[tuple[int, FaultSpec]]] = {}
        for index, spec in enumerate(self.specs):
            by_site.setdefault(spec.site, []).append((index, spec))
        self._by_site = {site: tuple(entries) for site, entries in by_site.items()}

    def hits(self, site: str) -> int:
        """Total observed hits of ``site``'s first spec (test hook)."""
        entries = self._by_site.get(site, ())
        with self._lock:
            return max((self._hits[index] for index, _spec in entries), default=0)

    def fired(self) -> int:
        """How many observations fired a fault, across every site."""
        with self._lock:
            return self._fired

    def hit(self, site: str) -> None:
        """Record one observation of ``site`` and fire any due fault."""
        for index, spec in self._by_site.get(site, ()):
            with self._lock:
                hit = self._hits[index]
                self._hits[index] = hit + 1
                fires = spec.fires(hit, self.seed)
                if fires:
                    self._fired += 1
            if not fires:
                continue
            if spec.kind == "slow":
                time.sleep(spec.delay)
                continue
            raise InjectedFault(site, spec.kind)

    def __repr__(self) -> str:
        sites = sorted({spec.site for spec in self.specs})
        return (
            f"<FaultPlan seed={self.seed} specs={len(self.specs)} "
            f"sites={sites}>"
        )


#: The armed plan. ``None`` (disarmed) keeps :func:`checkpoint` on its
#: single-comparison fast path.
_armed: FaultPlan | None = None


def arm(plan: FaultPlan) -> FaultPlan:
    """Arm ``plan`` process-wide; returns it for chaining."""
    global _armed
    _armed = plan
    return plan


def disarm() -> None:
    """Disarm fault injection (checkpoints return to zero overhead)."""
    global _armed
    _armed = None


def armed_plan() -> FaultPlan | None:
    """The currently armed plan, or ``None`` when disarmed."""
    return _armed


@contextmanager
def arming(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Arm ``plan`` for the duration of a ``with`` block (test helper)."""
    previous = _armed
    arm(plan)
    try:
        yield plan
    finally:
        if previous is None:
            disarm()
        else:
            arm(previous)


def checkpoint(site: str) -> None:
    """Observe the named checkpoint; inject a fault if one is due.

    Disarmed (the production state) this is one global load and a
    ``None`` comparison — cheap enough to sit inside per-shard worker
    functions without measurable overhead (see
    ``benchmarks/bench_resilience.py``).
    """
    plan = _armed
    if plan is None:
        return
    plan.hit(site)
