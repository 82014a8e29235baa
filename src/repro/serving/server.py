"""The asyncio HTTP/JSON serving front-end.

:class:`KSJQServer` turns an :class:`~repro.api.engine.Engine` into a
long-lived service (stdlib only — ``asyncio.start_server`` plus the
minimal framing of :mod:`repro.serving.protocol`):

``POST /query``
    Run a KSJQ (two-way or cascade) over registered datasets. Body::

        {"datasets": ["left", "right"], "k": 8,
         "algorithm": "auto", "mode": "faithful", "aggregate": null,
         "parallelism": "auto", "deadline_ms": 50,
         "progressive": false}

    With ``"progressive": true`` the response is a chunked JSON-lines
    stream: one ``{"pair": [...], "emitted_at": ...}`` line per
    skyline tuple *as it is decided* — the first line arrives while
    verification of the rest is still running — closed by one
    ``{"done": true, ...}`` line.

``POST /find_k``
    The paper's inverse problem. Body: ``{"datasets": [...],
    "delta": 100, "method": "binary", "objective": "at_least", ...}``.

``GET /healthz``, ``GET /metrics``
    Liveness and the :class:`~repro.serving.metrics.ServingMetrics`
    snapshot.

Request validation reuses the fail-fast :class:`~repro.api.spec
.QuerySpec` constructors, so a bad ``k`` or unknown algorithm is a
structured 400 before any work runs. Typed serving errors map to
structured JSON bodies — never tracebacks: deadline expiry is a 200
with ``"partial": true`` and the verified partial answer; saturation
is a 429 with ``Retry-After``.

Resilience (see :mod:`repro.resilience` and ``docs/resilience.md``):
responses served below full fidelity — deadline partials and
resilience-exhaustion bodies — carry ``"degraded": true``; exhaustion
of the engine's recovery ladder is a typed 503 (never a 500), and a
:class:`~repro.resilience.CircuitBreaker` sheds doomed work with 503 +
``Retry-After`` after ``breaker_threshold`` consecutive engine
failures. ``ServingConfig.fault_plan`` arms deterministic fault
injection for chaos tests; :func:`repro.serving.client
.request_with_backoff` is the matching client-side retry helper.

Threading model (enforced by the repo linter's R5 rule): the event
loop never blocks — every engine call runs on a fixed
``ThreadPoolExecutor`` via ``loop.run_in_executor`` (so per-query
``parallelism=`` and the catalog/delta layers compose unchanged), cost
probes run on a separate single-thread executor, and the
:class:`~repro.serving.admission.AdmissionController` is event-loop-
confined (reserve on arrival, release when the ``await`` resumes) so
it needs no locks.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..api.spec import QuerySpec
from ..core.parallel import available_cpus
from ..errors import (
    AdmissionRejected,
    CircuitOpen,
    DeadlineExceeded,
    ReproError,
    ResilienceError,
)
from ..resilience import CircuitBreaker, FaultPlan, arm, checkpoint
from .admission import AdmissionController, CostProbe
from .deadline import Deadline
from .metrics import ServingMetrics
from .protocol import (
    HttpRequest,
    ProtocolError,
    chunk,
    json_response,
    last_chunk,
    read_request,
    stream_preamble,
)

if TYPE_CHECKING:
    from ..api.engine import Engine
    from ..core.result import QueryResult
    from ..metrics import Metrics

__all__ = ["KSJQServer", "ServingConfig"]


@dataclass(frozen=True)
class ServingConfig:
    """Tunables of one server instance.

    Attributes
    ----------
    host, port:
        Bind address; port ``0`` picks a free port (reported by
        :attr:`KSJQServer.port` after :meth:`KSJQServer.start`).
    workers:
        Executor threads running engine calls — the service capacity.
    max_queue:
        Admitted requests allowed to wait beyond ``workers``; arrivals
        past ``workers + max_queue`` are shed with 429.
    default_deadline_ms, max_deadline_ms:
        Deadline applied when a request names none (``None`` = no
        default), and the cap a request may ask for.
    soft_cost_limit:
        Optional cost-probe threshold for shedding expensive requests
        while congested (see :mod:`repro.serving.admission`).
    probe_costs:
        Run the pre-admission cost probe (also warms the plan cache).
    breaker_threshold, breaker_reset_s:
        Circuit-breaker tuning: consecutive engine failures that trip
        the breaker open, and how long it stays open before admitting
        one half-open probe (see
        :class:`~repro.resilience.CircuitBreaker`).
    fault_plan:
        Optional :class:`~repro.resilience.FaultPlan` armed when the
        server is constructed — chaos testing hook; ``None`` (the
        default) leaves fault checkpoints as disarmed no-ops.
    """

    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 2
    max_queue: int = 8
    default_deadline_ms: float | None = None
    max_deadline_ms: float = 30_000.0
    soft_cost_limit: float | None = None
    probe_costs: bool = True
    breaker_threshold: int = 8
    breaker_reset_s: float = 1.0
    fault_plan: FaultPlan | None = None


class _BreakerJudgement:
    """One breaker verdict per admitted request, guaranteed.

    Created right after a successful ``breaker.allow()`` (which may
    have granted the half-open probe slot). The first ``success()`` /
    ``failure()`` call wins; ``settle()`` runs in the request's
    ``finally`` and records a neutral outcome if no verdict was ever
    reached — a client-error 400, an admission 429, a disconnect
    mid-stream — releasing the probe slot instead of leaking it. A
    failure that opens the breaker counts as ``breaker_opens`` in the
    engine's ``metrics``.
    """

    def __init__(self, breaker: CircuitBreaker, metrics: "Metrics") -> None:
        self._breaker = breaker
        self._metrics = metrics
        self._settled = False

    def success(self) -> None:
        if not self._settled:
            self._settled = True
            self._breaker.record_success()

    def failure(self) -> None:
        if not self._settled:
            self._settled = True
            if self._breaker.record_failure():
                self._metrics.add("breaker_opens")

    def settle(self) -> None:
        if not self._settled:
            self._settled = True
            self._breaker.record_neutral()


def _error_code(exc: BaseException) -> str:
    code = getattr(exc, "code", None)
    if isinstance(code, str):
        return code
    name = type(exc).__name__
    out = [name[0].lower()]
    for ch in name[1:]:
        if ch.isupper():
            out.append("_")
        out.append(ch.lower())
    return "".join(out)


def _error_dict(exc: BaseException) -> dict[str, object]:
    """Structured error body for a library error (never a traceback)."""
    body: dict[str, object] = {
        "code": _error_code(exc),
        "message": str(exc),
        "partial": bool(getattr(exc, "partial", False)),
    }
    if isinstance(exc, AdmissionRejected):
        body["retry_after_ms"] = round(exc.retry_after * 1000.0, 3)
        body["queue_depth"] = exc.queue_depth
    if isinstance(exc, CircuitOpen):
        body["retry_after_ms"] = round(exc.retry_after * 1000.0, 3)
    return body


def _internal_error_dict() -> dict[str, object]:
    return {
        "code": "internal",
        "message": "internal server error",
        "partial": False,
    }


def _result_rows(result: "QueryResult") -> list[list[int]]:
    """Result tuples as JSON-ready row-index lists (pairs or chains)."""
    rows = getattr(result, "pairs", None)
    if rows is None:
        rows = getattr(result, "chains", None)
    if rows is None:
        return []
    return [[int(x) for x in row] for row in rows]


def _parse_common(
    payload: dict[str, object], config: ServingConfig
) -> tuple[tuple[str, ...], float | None]:
    """Validated ``(dataset names, deadline seconds)`` of a request."""
    datasets = payload.get("datasets")
    if (
        not isinstance(datasets, list)
        or len(datasets) < 2
        or not all(isinstance(name, str) for name in datasets)
    ):
        raise ProtocolError(
            '"datasets" must be a list of two or more registered dataset names'
        )
    deadline_ms = payload.get("deadline_ms", config.default_deadline_ms)
    deadline_s: float | None = None
    if deadline_ms is not None:
        if not isinstance(deadline_ms, (int, float)) or isinstance(deadline_ms, bool):
            raise ProtocolError('"deadline_ms" must be a positive number')
        if deadline_ms <= 0:
            raise ProtocolError('"deadline_ms" must be a positive number')
        deadline_s = min(float(deadline_ms), config.max_deadline_ms) / 1000.0
    return tuple(datasets), deadline_s


def _require_int(payload: dict[str, object], name: str) -> int:
    value = payload.get(name)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ProtocolError(f'"{name}" must be an integer, got {value!r}')
    return value


def _parse_query(
    payload: dict[str, object], config: ServingConfig
) -> tuple[tuple[str, ...], QuerySpec, bool, float | None]:
    """``POST /query`` body -> (inputs, spec, progressive, deadline_s).

    Spec construction delegates to the fail-fast
    :meth:`QuerySpec.for_ksjq` / :meth:`QuerySpec.for_cascade`
    validators, so malformed parameters raise before any work runs.
    An integer ``parallelism`` is bounded by the CPUs this process may
    use: each unit of it becomes one worker thread.
    """
    inputs, deadline_s = _parse_common(payload, config)
    k = _require_int(payload, "k")
    algorithm = payload.get("algorithm", "auto")
    mode = payload.get("mode", "faithful")
    aggregate = payload.get("aggregate")
    parallelism = payload.get("parallelism", "auto")
    cpus = available_cpus()
    if isinstance(parallelism, int) and parallelism > cpus:
        raise ProtocolError(
            f'"parallelism" must be "auto" or at most {cpus} (the CPUs '
            f"this server may use), got {parallelism}"
        )
    if len(inputs) > 2:
        spec = QuerySpec.for_cascade(
            k=k,
            algorithm=algorithm,
            aggregate=aggregate,
            mode=mode,
            parallelism=parallelism,
        )
    else:
        spec = QuerySpec.for_ksjq(
            k=k,
            algorithm=algorithm,
            mode=mode,
            aggregate=aggregate,
            parallelism=parallelism,
        )
    progressive = bool(payload.get("progressive", False))
    return inputs, spec, progressive, deadline_s


def _parse_find_k(
    payload: dict[str, object], config: ServingConfig
) -> tuple[tuple[str, ...], QuerySpec, float | None]:
    """``POST /find_k`` body -> (inputs, spec, deadline_s)."""
    inputs, deadline_s = _parse_common(payload, config)
    delta = _require_int(payload, "delta")
    spec = QuerySpec.for_find_k(
        delta=delta,
        method=payload.get("method", "binary"),
        objective=payload.get("objective", "at_least"),
        mode=payload.get("mode", "faithful"),
        aggregate=payload.get("aggregate"),
    )
    if len(inputs) != 2:
        raise ProtocolError("find_k is only defined over two-way joins")
    return inputs, spec, deadline_s


class KSJQServer:
    """An asyncio HTTP/JSON front-end over one engine."""

    def __init__(self, engine: "Engine", config: ServingConfig | None = None) -> None:
        self.engine = engine
        self.config = config if config is not None else ServingConfig()
        self.metrics = ServingMetrics()
        self.admission = AdmissionController(
            self.config.workers,
            self.config.max_queue,
            soft_cost_limit=self.config.soft_cost_limit,
        )
        self._probe = CostProbe(engine)
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_threshold,
            reset_timeout=self.config.breaker_reset_s,
        )
        if self.config.fault_plan is not None:
            arm(self.config.fault_plan)
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers, thread_name_prefix="ksjq-worker"
        )
        self._probe_executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="ksjq-probe"
        )
        self._server: asyncio.AbstractServer | None = None
        engine.attach_serving_metrics(self.metrics)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting connections (returns immediately)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the picked one)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not started")
        return int(self._server.sockets[0].getsockname()[1])

    @property
    def address(self) -> str:
        """``http://host:port`` of the running server."""
        return f"http://{self.config.host}:{self.port}"

    async def serve_forever(self) -> None:
        """Serve until cancelled (the ``python -m repro.serving`` loop)."""
        if self._server is None:
            raise RuntimeError("server is not started")
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting connections and release the worker pools."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._executor.shutdown(wait=True)
        self._probe_executor.shutdown(wait=True)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await read_request(reader)
            except ProtocolError as exc:
                writer.write(json_response(exc.status, {"error": _error_dict(exc)}))
                await writer.drain()
                return
            if request is None:
                return
            try:
                response = await self._dispatch(request, writer)
            except Exception:  # noqa: BLE001 - boundary: never leak a traceback
                response = json_response(500, {"error": _internal_error_dict()})
            if response is not None:
                writer.write(response)
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass  # peer went away mid-response; nothing to salvage
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch(
        self, request: HttpRequest, writer: asyncio.StreamWriter
    ) -> bytes | None:
        """Route one request; returns the response bytes, or ``None``
        when the route streamed its response itself."""
        if request.path == "/healthz":
            if request.method != "GET":
                return self._method_not_allowed()
            return json_response(
                200,
                {
                    "status": "ok",
                    "in_flight": self.admission.in_flight,
                    "capacity": self.admission.capacity,
                },
            )
        if request.path == "/metrics":
            if request.method != "GET":
                return self._method_not_allowed()
            return json_response(
                200,
                {
                    "routes": self.metrics.snapshot(),
                    "admission": {
                        "in_flight": self.admission.in_flight,
                        "queue_depth": self.admission.queue_depth,
                        "capacity": self.admission.capacity,
                        "shed_total": self.admission.shed_total,
                    },
                    "breaker": {
                        "state": self.breaker.state,
                        "retry_after": self.breaker.retry_after,
                    },
                },
            )
        if request.path == "/query":
            if request.method != "POST":
                return self._method_not_allowed()
            return await self._serve_query(request, writer)
        if request.path == "/find_k":
            if request.method != "POST":
                return self._method_not_allowed()
            return await self._serve_find_k(request)
        return json_response(
            404,
            {
                "error": {
                    "code": "not_found",
                    "message": f"no route {request.path!r}",
                    "partial": False,
                }
            },
        )

    @staticmethod
    def _method_not_allowed() -> bytes:
        return json_response(
            405,
            {
                "error": {
                    "code": "method_not_allowed",
                    "message": "use GET for /healthz and /metrics, POST elsewhere",
                    "partial": False,
                }
            },
        )

    # ------------------------------------------------------------------
    # /query and /find_k
    # ------------------------------------------------------------------
    async def _serve_query(
        self, request: HttpRequest, writer: asyncio.StreamWriter
    ) -> bytes | None:
        route = "/query"
        try:
            inputs, spec, progressive, deadline_s = _parse_query(
                request.json(), self.config
            )
        except ReproError as exc:
            self.metrics.observe(route, 0.0, error=True)
            return json_response(400, {"error": _error_dict(exc)})
        return await self._admit_and_run(
            route, writer, inputs, spec, deadline_s, progressive
        )

    async def _serve_find_k(self, request: HttpRequest) -> bytes | None:
        route = "/find_k"
        try:
            inputs, spec, deadline_s = _parse_find_k(request.json(), self.config)
        except ReproError as exc:
            self.metrics.observe(route, 0.0, error=True)
            return json_response(400, {"error": _error_dict(exc)})
        return await self._admit_and_run(
            route, None, inputs, spec, deadline_s, progressive=False
        )

    async def _admit_and_run(
        self,
        route: str,
        writer: asyncio.StreamWriter | None,
        inputs: tuple[str, ...],
        spec: QuerySpec,
        deadline_s: float | None,
        progressive: bool,
    ) -> bytes | None:
        loop = asyncio.get_running_loop()

        # The breaker check runs before the cost probe: when the engine
        # is sick, probing it is exactly the work the breaker exists to
        # shed. Open-state rejections are 503s (not 429s) so clients
        # can distinguish "server sick" from "server busy".
        if not self.breaker.allow():
            exc = CircuitOpen(
                "circuit breaker open after repeated engine failures",
                retry_after=max(self.breaker.retry_after, 0.05),
            )
            self.admission.record_shed()
            self.metrics.observe(route, 0.0, shed=True)
            return json_response(
                503,
                {"error": _error_dict(exc)},
                headers={"Retry-After": f"{exc.retry_after:.3f}"},
            )

        # From here on the request may hold the breaker's half-open
        # probe slot. Every exit path — cost-probe 400, admission 429,
        # client disconnect mid-stream, neutral client error — must
        # settle the judgement exactly once, else the slot leaks and
        # allow() sheds all traffic forever (half_open has no timeout).
        judgement = _BreakerJudgement(self.breaker, self.engine.metrics)
        try:
            cost: float | None = None
            if self.config.probe_costs:
                try:
                    cost = await loop.run_in_executor(
                        self._probe_executor, self._estimate_cost_sync, inputs, spec
                    )
                except ReproError as exc:
                    # Unknown dataset names, invalid hop/aggregate
                    # configs and similar binding failures surface
                    # here, before any admission slot is consumed.
                    self.metrics.observe(route, 0.0, error=True)
                    return json_response(400, {"error": _error_dict(exc)})

            try:
                self.admission.reserve(cost)
            except AdmissionRejected as exc:
                self.metrics.observe(route, 0.0, shed=True)
                return json_response(
                    429,
                    {"error": _error_dict(exc)},
                    headers={"Retry-After": f"{exc.retry_after:.3f}"},
                )

            # The deadline starts *here*: an admitted request's budget
            # covers queue wait plus service, so the configured deadline
            # is an end-to-end latency bound, not just a compute bound.
            deadline = Deadline(deadline_s) if deadline_s is not None else None
            admitted_at = time.monotonic()
            service_seconds: float | None = None
            try:
                if progressive:
                    assert writer is not None  # /find_k never streams
                    await self._stream_query(
                        route, writer, inputs, spec, deadline, judgement
                    )
                    service_seconds = time.monotonic() - admitted_at
                    return None
                try:
                    started, outcome = await loop.run_in_executor(
                        self._executor, self._run_sync, inputs, spec, deadline
                    )
                except Exception:
                    # Untyped failures never escape _run_sync's
                    # ReproError net by design; if one does, it still
                    # counts against the breaker before the 500
                    # boundary renders it.
                    judgement.failure()
                    raise
                self._judge_breaker(outcome, judgement)
                service_seconds = time.monotonic() - started
                queue_wait = started - admitted_at
                return self._render_outcome(
                    route, outcome, service_seconds, queue_wait
                )
            finally:
                self.admission.release(service_seconds)
        finally:
            judgement.settle()

    def _judge_breaker(
        self, outcome: "QueryResult | ReproError", judgement: "_BreakerJudgement"
    ) -> None:
        """Feed one engine outcome to the circuit breaker.

        Only *server-side* failures count: resilience exhaustion trips
        the breaker, successful runs (including verified deadline
        partials) close it, and client errors — bad parameters, unknown
        datasets — say nothing about the engine's health, so they are
        left neutral (the judgement's settle() releases any probe slot).
        """
        if isinstance(outcome, ResilienceError):
            judgement.failure()
        elif isinstance(outcome, DeadlineExceeded) or not isinstance(
            outcome, ReproError
        ):
            judgement.success()

    def _estimate_cost_sync(
        self, inputs: tuple[str, ...], spec: QuerySpec
    ) -> float:
        # Runs on the dedicated probe thread (R5: engine calls never
        # run directly inside the event loop's async handlers).
        return self._probe.estimate(inputs, spec)

    def _run_sync(
        self,
        inputs: tuple[str, ...],
        spec: QuerySpec,
        deadline: Deadline | None,
    ) -> tuple[float, "QueryResult | ReproError"]:
        """One engine call on a worker thread.

        Returns ``(service start time, result-or-library-error)``; the
        error is a value, not a raise, so the event loop can render a
        structured body without re-entering exception machinery.
        """
        started = time.monotonic()
        try:
            checkpoint("serving.execute")
            result = self.engine.execute(*inputs, spec=spec, deadline=deadline)
        except ReproError as exc:
            return started, exc
        return started, result

    def _render_outcome(
        self,
        route: str,
        outcome: "QueryResult | ReproError",
        service_seconds: float,
        queue_wait: float,
    ) -> bytes:
        if isinstance(outcome, DeadlineExceeded):
            self.metrics.observe(
                route,
                service_seconds,
                queue_wait=queue_wait,
                deadline_hit=True,
                degraded=True,
            )
            return json_response(
                200,
                {
                    "pairs": [list(p) for p in outcome.partial_pairs],
                    "count": len(outcome.partial_pairs),
                    "partial": True,
                    "degraded": True,
                    "elapsed": outcome.elapsed,
                    "budget": outcome.budget,
                    "error": _error_dict(outcome),
                },
            )
        if isinstance(outcome, ResilienceError):
            # The recovery ladder (thread retries -> serial) ran dry:
            # a typed 503, never a traceback and never an unverified
            # answer.
            self.metrics.observe(route, service_seconds, error=True, degraded=True)
            return json_response(
                503,
                {"degraded": True, "error": _error_dict(outcome)},
                headers={
                    "Retry-After": f"{max(self.breaker.retry_after, 0.05):.3f}"
                },
            )
        if isinstance(outcome, ReproError):
            self.metrics.observe(route, service_seconds, error=True)
            return json_response(400, {"error": _error_dict(outcome)})
        self.metrics.observe(route, service_seconds, queue_wait=queue_wait)
        body: dict[str, object] = {
            "count": outcome.count,
            "partial": False,
            "elapsed": outcome.elapsed,
        }
        algorithm = getattr(outcome, "algorithm", None)
        if algorithm is not None:
            body["algorithm"] = algorithm
        k = getattr(outcome, "k", None)
        if k is not None:
            body["k"] = int(k)
        if hasattr(outcome, "pairs") or hasattr(outcome, "chains"):
            body["pairs"] = _result_rows(outcome)
        if hasattr(outcome, "steps"):  # FindKResult: the probe trace
            body["method"] = outcome.method
            body["delta"] = outcome.delta
            body["steps"] = outcome.to_records()
            body["full_evaluations"] = outcome.full_evaluations
        return json_response(200, body)

    # ------------------------------------------------------------------
    # Progressive streaming
    # ------------------------------------------------------------------
    async def _stream_query(
        self,
        route: str,
        writer: asyncio.StreamWriter,
        inputs: tuple[str, ...],
        spec: QuerySpec,
        deadline: Deadline | None,
        judgement: "_BreakerJudgement",
    ) -> None:
        """Stream one progressive query as chunked JSON lines.

        A worker thread consumes the engine's progressive generator
        and forwards each decided tuple to the event loop through an
        ``asyncio.Queue`` (``call_soon_threadsafe`` — the queue is not
        thread-safe from the producer side). Each tuple is flushed as
        its own HTTP chunk, so the client observes the first skyline
        pair while verification of the rest is still running.
        """
        loop = asyncio.get_running_loop()
        queue: asyncio.Queue[tuple[str, object]] = asyncio.Queue()
        started = time.monotonic()
        future = loop.run_in_executor(
            self._executor, self._consume_stream_sync, inputs, spec, deadline, loop, queue
        )
        writer.write(stream_preamble())
        await writer.drain()
        count = 0
        deadline_hit = False
        error = False
        while True:
            kind, value = await queue.get()
            if kind == "pair":
                count += 1
                writer.write(
                    chunk({"pair": list(value), "emitted_at": time.monotonic()})  # type: ignore[arg-type]
                )
                await writer.drain()
                continue
            final: dict[str, object] = {
                "done": True,
                "count": count,
                "partial": kind == "deadline",
                "degraded": kind != "done",
                "emitted_at": time.monotonic(),
            }
            if kind == "deadline":
                deadline_hit = True
                final["error"] = _error_dict(value)  # type: ignore[arg-type]
            elif kind == "error":
                error = True
                final["error"] = (
                    _error_dict(value)  # type: ignore[arg-type]
                    if isinstance(value, ReproError)
                    else _internal_error_dict()
                )
            if kind == "error":
                # Same policy as _judge_breaker: resilience exhaustion
                # and untyped failures count against the breaker;
                # client-side ReproErrors stay neutral (the caller's
                # settle() releases any probe slot).
                if isinstance(value, ResilienceError) or not isinstance(
                    value, ReproError
                ):
                    judgement.failure()
            else:
                judgement.success()
            writer.write(chunk(final))
            writer.write(last_chunk())
            await writer.drain()
            break
        await future
        self.metrics.observe(
            route,
            time.monotonic() - started,
            deadline_hit=deadline_hit,
            error=error,
            degraded=deadline_hit or error,
        )

    def _consume_stream_sync(
        self,
        inputs: tuple[str, ...],
        spec: QuerySpec,
        deadline: Deadline | None,
        loop: asyncio.AbstractEventLoop,
        queue: "asyncio.Queue[tuple[str, object]]",
    ) -> None:
        # Runs on a worker thread; every queue interaction hops back to
        # the event loop. Exceptions become terminal queue items — the
        # stream must always end with exactly one non-"pair" item.
        def put(item: tuple[str, object]) -> None:
            loop.call_soon_threadsafe(queue.put_nowait, item)

        try:
            stream = self.engine.stream(*inputs, spec=spec, deadline=deadline)
            for item in stream:
                put(("pair", item))
            put(("done", None))
        except DeadlineExceeded as exc:
            put(("deadline", exc))
        except BaseException as exc:  # noqa: BLE001 - boundary thread
            put(("error", exc))
