"""Prepared query handles: re-executable queries over live datasets.

A :class:`QueryHandle` binds an :class:`~repro.api.engine.Engine`, a
tuple of query inputs (registered dataset names, :class:`Dataset`
handles, or raw relations) and a frozen
:class:`~repro.api.spec.QuerySpec`. Unlike a one-shot ``execute`` call
it is *version-aware*: every execution snapshots the inputs' cache
tokens, so the handle can report whether its cached result still
reflects the latest dataset versions (:meth:`is_fresh`) and re-execute
only when it does not (:meth:`refresh`).

Re-execution is cheap by construction: the engine's plan cache is keyed
by the same tokens, so a fresh-enough handle re-runs against a cached
plan, and with the engine's result cache enabled an unchanged handle
re-execution is a pure cache hit.

Typical serving loop::

    handle = engine.prepare("hotels", "flights", spec)
    handle.execute()                 # cold run
    ...
    result = handle.refresh()        # no-op while datasets are unchanged
    engine.catalog["hotels"].insert_rows([...])
    handle.is_fresh()                # False
    result = handle.refresh()        # re-executes against version n+1
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.result import QueryResult
from ..errors import ParameterError, ResilienceError
from .spec import QuerySpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..serving.deadline import Deadline
    from .builder import QueryInput
    from .engine import Engine, ExplainReport

__all__ = ["QueryHandle"]


class QueryHandle:
    """A prepared, version-aware query over an engine's datasets."""

    def __init__(
        self, engine: "Engine", inputs: tuple[QueryInput, ...], spec: QuerySpec
    ) -> None:
        if len(inputs) < 2:
            raise ParameterError(
                f"prepare() needs at least two query inputs, got {len(inputs)}"
            )
        self._engine = engine
        self._inputs: tuple[QueryInput, ...] = tuple(inputs)
        self.spec = spec
        self._result: QueryResult | None = None
        self._executed_versions: tuple[object, ...] | None = None

    # ------------------------------------------------------------------
    @property
    def engine(self) -> "Engine":
        """The engine this handle executes on."""
        return self._engine

    @property
    def last_result(self) -> QueryResult | None:
        """The most recent result, or ``None`` before the first execution.

        May be stale — check :meth:`is_fresh`, or call :meth:`refresh`
        for a result guaranteed to match the current versions.
        """
        return self._result

    def versions(self) -> tuple[object, ...]:
        """Current cache tokens of the handle's inputs.

        Registered datasets report ``("ds", name, uid, version)``; anonymous
        relations report content fingerprints (which never change).
        """
        return self._engine.versions(*self._inputs)

    def is_fresh(self) -> bool:
        """Does the cached result still reflect the latest input versions?

        ``False`` before the first execution, and again whenever any
        registered input has mutated since the last execution.
        """
        if self._result is None or self._executed_versions is None:
            return False
        return self.versions() == self._executed_versions

    # ------------------------------------------------------------------
    def execute(self, deadline: "Deadline | None" = None) -> QueryResult:
        """Run the query against the *latest* dataset versions.

        Always executes (through the engine's plan/result caches, so a
        repeat over unchanged versions is cheap) and records the
        versions it ran against for later freshness checks.

        ``deadline`` is forwarded to :meth:`Engine.execute`; an expired
        run raises :class:`~repro.errors.DeadlineExceeded` and leaves
        the handle's cached result and versions untouched.
        """
        versions = self.versions()
        result = self._engine.execute(
            *self._inputs, spec=self.spec, deadline=deadline
        )
        self._result = result
        self._executed_versions = versions
        return result

    def refresh(self) -> QueryResult:
        """The current answer: the cached result when still fresh,
        otherwise a re-execution against the latest versions.

        Returns
        -------
        QueryResult
            A result guaranteed to reflect the inputs' current versions.
        """
        if self.is_fresh():
            assert self._result is not None
            return self._result
        return self.execute()

    def refresh_or_stale(self) -> tuple[QueryResult, bool]:
        """Refresh, degrading to the stale cached result when the
        engine's recovery ladder is exhausted.

        The graceful-degradation companion of :meth:`refresh` (see
        ``docs/resilience.md``): a transiently sick engine — every
        retry/degrade rung failed with a typed
        :class:`~repro.errors.ResilienceError` — should not take down a
        caller that holds a previously *verified* (if stale) answer.

        Returns
        -------
        tuple[QueryResult, bool]
            ``(result, fresh)`` — ``fresh`` is ``False`` when the
            result predates the inputs' current versions. With no
            cached result to fall back on, the
            :class:`~repro.errors.ResilienceError` propagates.
        """
        if self.is_fresh():
            assert self._result is not None
            return self._result, True
        try:
            return self.execute(), True
        except ResilienceError:
            if self._result is None:
                raise
            return self._result, False

    def explain(self) -> "ExplainReport":
        """What executing this handle *now* would do, without doing it.

        Delegates to :meth:`Engine.explain` against the latest dataset
        versions, so the report reflects the plan-cache state and the
        serial-vs-parallel shard decision the next :meth:`execute` or
        :meth:`refresh` would actually take.

        Returns
        -------
        ExplainReport
            Algorithm choice, cost estimates, plan statistics, and the
            shard plan of the execution layer.
        """
        return self._engine.explain(*self._inputs, spec=self.spec)

    def __repr__(self) -> str:
        names = []
        for obj in self._inputs:
            names.append(obj if isinstance(obj, str) else getattr(obj, "name", "?"))
        state = "fresh" if self.is_fresh() else (
            "stale" if self._result is not None else "unexecuted"
        )
        return (
            f"<QueryHandle {' x '.join(map(repr, names))} "
            f"spec={self.spec.fingerprint()} {state}>"
        )
