"""Fault injection and fault tolerance for the KSJQ stack.

Production-scale serving treats partial failure as the normal case;
this package makes the reproduction behave that way while preserving
its central guarantee — an answer is either *byte-identical to the
clean serial exact path* or a *typed*
:class:`~repro.errors.ResilienceError`, never silently wrong. The
paper's own two-phase candidate/verify structure is what makes that
cheap: a lost shard can be re-executed and its candidates re-verified
against the full joined matrix without touching the non-transitivity
argument (see ``docs/resilience.md``).

Pieces:

* :mod:`~repro.resilience.faults` — named checkpoints
  (``checkpoint("shard.verify")``) and the seeded, deterministic
  :class:`FaultPlan` that injects lost workers, stragglers, index
  corruption and transient I/O errors at them. Zero overhead disarmed.
* :mod:`~repro.resilience.retry` — :class:`RetryPolicy` (exponential
  backoff, deterministic jitter) and :func:`retry_call`.
* :mod:`~repro.resilience.breaker` — the serving
  :class:`CircuitBreaker`.

The recovery counters (``shard_retries``, ``degradations``,
``index_quarantines``, ...) live in each engine's
:class:`~repro.metrics.Metrics` registry and are surfaced by
``Engine.cache_info()``; :meth:`FaultPlan.fired` counts the faults a
plan injected.
"""

from .breaker import CircuitBreaker
from .faults import (
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    arm,
    armed_plan,
    arming,
    checkpoint,
    disarm,
)
from .retry import RetryPolicy, retry_call

__all__ = [
    "CircuitBreaker",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "RetryPolicy",
    "arm",
    "armed_plan",
    "arming",
    "checkpoint",
    "disarm",
    "retry_call",
]
