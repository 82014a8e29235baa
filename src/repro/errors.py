"""Exception and warning hierarchy for the ``repro`` library.

Every error raised intentionally by the library derives from
:class:`ReproError`, so callers can catch library failures without
masking programming errors (``TypeError`` etc. still propagate).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SchemaError",
    "JoinError",
    "ParameterError",
    "AggregateError",
    "AlgorithmError",
    "CatalogError",
    "ResilienceError",
    "ServingError",
    "DeadlineExceeded",
    "AdmissionRejected",
    "CircuitOpen",
    "ReproWarning",
    "SoundnessWarning",
]


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class SchemaError(ReproError):
    """Schema construction or validation failed.

    Raised for duplicate attribute names, unknown attributes, mismatched
    column lengths, non-numeric skyline attributes, and similar problems.
    """


class JoinError(ReproError):
    """A join could not be performed.

    Raised when join attributes are missing or incompatible between the
    two relations, or when a theta-join condition is malformed.
    """


class ParameterError(ReproError):
    """An algorithm parameter is out of its valid range.

    The KSJQ problem constrains ``max(d1, d2) < k <= d`` (Sec. 3 of the
    paper); violations raise this error unless validation is disabled.
    """


class AggregateError(ReproError):
    """An aggregate specification is invalid.

    Raised for unknown aggregate functions, mismatched aggregate pairs,
    or use of a non-strictly-monotone aggregate with an optimized
    algorithm whose pruning proof requires strict monotonicity.
    """


class AlgorithmError(ReproError):
    """An algorithm was invoked on inputs it does not support."""


class CatalogError(ReproError):
    """A catalog lookup or registration failed.

    Raised when a query names a dataset that was never registered, or
    when a registration conflicts with an existing entry.
    """


class ResilienceError(ReproError):
    """A fault-tolerance path exhausted its recovery options.

    The resilience layer (see :mod:`repro.resilience`) retries
    transient shard failures on the thread pool, then re-runs the
    tasks still failing serially before giving up. When every
    rung of that ladder fails — or a fault-injection checkpoint fires
    deliberately — the failure surfaces as this *typed* error rather
    than a silently wrong (unverified) answer. Carries a stable
    machine-readable ``code`` so the serving layer can render it as a
    structured 503 instead of a traceback.
    """

    #: Machine-readable error code rendered in JSON error bodies.
    code = "resilience_exhausted"


class ServingError(ReproError):
    """Base class for errors raised by the serving front-end.

    Serving errors carry a stable machine-readable ``code`` so the HTTP
    layer can render them as structured JSON error bodies instead of
    tracebacks.
    """

    #: Machine-readable error code rendered in JSON error bodies.
    code = "serving_error"


class DeadlineExceeded(ServingError):
    """A query's deadline expired at a cooperative checkpoint.

    Raised from the cancellation checkpoints inside the algorithm hot
    loops (see :mod:`repro.serving.deadline`). Carries the progressive
    *partial answer* decided before expiry: every pair (or chain) in
    ``partial_pairs`` was fully verified — or is a Theorem-1/3 "yes"
    tuple of a faithful-mode query — so the partial answer is always a
    subset of the full answer the same spec would return.

    Attributes
    ----------
    partial_pairs:
        Tuples of row indices decided before expiry (``(left, right)``
        pairs for two-way queries, m-tuples for cascades). Plain Python
        ints so the error is cheap to serialize.
    elapsed:
        Seconds consumed when the deadline tripped.
    budget:
        The deadline budget in seconds.
    """

    code = "deadline_exceeded"

    def __init__(
        self,
        message: str,
        partial_pairs: tuple[tuple[int, ...], ...] = (),
        elapsed: float = 0.0,
        budget: float = 0.0,
    ) -> None:
        super().__init__(message)
        self.partial_pairs = partial_pairs
        self.elapsed = elapsed
        self.budget = budget

    @property
    def partial(self) -> bool:
        """Does this error carry a (possibly empty) partial answer?"""
        return True


class AdmissionRejected(ServingError):
    """The serving layer shed this request instead of queueing it.

    Raised by :class:`repro.serving.admission.AdmissionController` when
    the worker pool is saturated and the bounded queue is full (or the
    request's cost probe prices it out of a congested queue). Rendered
    as HTTP 429 with a ``Retry-After`` hint.

    Attributes
    ----------
    retry_after:
        Suggested client back-off in seconds (EWMA service time times
        the queue depth ahead of the request).
    queue_depth:
        Requests queued or running when the rejection was decided.
    """

    code = "admission_rejected"

    def __init__(
        self, message: str, retry_after: float = 1.0, queue_depth: int = 0
    ) -> None:
        super().__init__(message)
        self.retry_after = retry_after
        self.queue_depth = queue_depth


class CircuitOpen(ServingError):
    """The serving circuit breaker is open: engine execution is being
    shed while the breaker waits out its reset timeout.

    Raised (and rendered as HTTP 503 with a ``Retry-After`` hint) when
    :class:`repro.resilience.CircuitBreaker` has seen
    ``failure_threshold`` consecutive engine failures and has not yet
    admitted a successful half-open probe.

    Attributes
    ----------
    retry_after:
        Seconds until the breaker next admits a probe request.
    """

    code = "circuit_open"

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class ReproWarning(UserWarning):
    """Base class for warnings emitted by the ``repro`` library."""


class SoundnessWarning(ReproWarning):
    """The requested configuration may return a superset of the answer.

    Emitted when the *faithful* grouping/dominator algorithms run with
    ``a >= 2`` aggregate attributes, where the paper's Theorem 3 does not
    hold (see DESIGN.md, "Soundness errata"). Use ``mode="exact"`` for a
    guaranteed-correct answer.
    """
