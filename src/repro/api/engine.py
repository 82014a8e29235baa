"""The query engine: cached join plans + cost-based algorithm choice.

The paper's query problems all run over *prepared* join structures
(hop kernels, joined views, chain sets, cardinality statistics, and a
cascade's per-``k`` Theorem-4 prunings). The seed library rebuilt
those on every call; :class:`Engine` instead keeps an LRU cache of
:class:`~repro.core.plan.JoinPlan` /
:class:`~repro.core.plan.CascadePlan` objects keyed by the relations'
content fingerprints plus the join-graph configuration, so a ``ksjq``
followed by a ``find_k`` over the same relations — or the same
dashboard query issued a thousand times — pays join preparation once.
Two-way SS/SN/NN categorizations are not cached: they depend on ``k``
and every grouping, dominator or cartesian run recomputes them (find-k
even twice for an evaluated ``k``: once for its bounds, once in the
grouping run).

One engine surface serves every join shape the paper describes: the
two-way equality/cartesian/theta joins *and* the m-way cascades of
Sec. 2.3 (``engine.query(r1, r2, r3).hop("dest", "source")...``).

``algorithm="auto"`` is resolved by
:func:`~repro.core.cost.choose_algorithm`, one cost model over either
plan kind's exact cardinality statistics instead of the seed's
hard-wired defaults. The same cost model decides **serial versus sharded
parallel** execution: when the spec's ``parallelism`` admits workers
(``"auto"`` on a multi-core machine, or an explicit worker count), the
sharded two-phase path of :mod:`repro.core.parallel` competes on cost
with the serial algorithms, and ``explain()`` reports the
:class:`~repro.core.parallel.ShardPlan` that would run.

The engine is also the serving front-end over a
:class:`~repro.api.catalog.Catalog` of named, versioned datasets:

* ``engine.register(name, relation)`` names an input; string names are
  accepted anywhere a :class:`Relation` is
  (``engine.query("hotels", "flights")``);
* plan and result caches are keyed by ``(name, version)`` tokens for
  registered datasets (content fingerprints for anonymous relations),
  so a dataset mutation invalidates exactly the entries built over the
  old snapshot — ``cache_info()`` reports hits/misses/evictions/
  invalidations for both caches;
* ``engine.execute_many(requests, max_workers=N)`` fans a batch out
  over a thread pool; all engine entry points are safe for concurrent
  callers;
* ``engine.prepare(...)`` returns a
  :class:`~repro.api.handle.QueryHandle` that re-executes cheaply
  against the latest dataset versions and reports freshness.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, cast

from ..core.cartesian import run_cartesian
from ..core.cascade import cascade_progressive, run_cascade_naive, run_cascade_pruned
from ..core.cost import choose_algorithm, find_k_costs
from ..core.dominator import run_dominator
from ..core.find_k import find_k_at_least_delta, find_k_at_most_delta
from ..core.grouping import run_grouping
from ..core.incremental import DEFAULT_FALLBACK_RATIO
from ..core.index import run_cascade_indexed, run_indexed
from ..core.naive import run_naive
from ..core.parallel import (
    ShardPlan,
    batch_workers,
    plan_shards,
    run_cascade_parallel,
    run_parallel,
)
from ..core.plan import CascadePlan, CascadeStats, JoinPlan, PlanStats
from ..core.progressive import ksjq_progressive
from ..core.result import CascadeResult, FindKResult, KSJQResult, QueryResult
from ..errors import AlgorithmError, DeadlineExceeded, ParameterError
from ..metrics import Metrics
from ..relational.aggregates import AggregateFunction, get_aggregate
from ..relational.dataset import Dataset
from ..relational.relation import Relation
from ..resilience import armed_plan
from ..serving.deadline import Deadline
from .catalog import Catalog
from .spec import QuerySpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .._typing import AggregateLike, HopsLike, ThetaLike
    from ..core.incremental import MaintainedResult
    from ..core.index import DominanceIndex
    from ..relational.dataset import MutationDelta
    from ..relational.join import ThetaCondition
    from ..serving.metrics import ServingMetrics
    from .builder import QueryBuilder, QueryInput
    from .handle import QueryHandle

__all__ = ["Engine", "ExplainReport"]


@dataclass(frozen=True)
class ExplainReport:
    """What the engine would do for a spec, without doing it.

    Attributes
    ----------
    spec:
        The explained :class:`QuerySpec`.
    algorithm:
        The algorithm (or find-k method) that would run.
    reason:
        Human-readable justification of the choice.
    costs:
        Candidate -> estimated cost (dominance-comparison units for
        ksjq; expected full-evaluation probes for find_k).
    stats:
        Cardinality statistics of the (cached or newly built) plan —
        a :class:`~repro.core.plan.PlanStats` for two-way joins, a
        :class:`~repro.core.plan.CascadeStats` for cascades.
    cache_hit:
        Whether the plan came from the engine's cache.
    shards:
        The :class:`~repro.core.parallel.ShardPlan` the execution layer
        would use (``None`` for find-k specs, whose probe evaluations
        run serially). Only consulted by the ``auto``/``parallel``/
        ``indexed`` algorithms; explicitly requested serial algorithms
        ignore it.
    index:
        State of the dominance-index layer for this query: ``None``
        for specs the layer never touches, otherwise a line like
        ``"warm (mean cell span 0.31); consumed by the indexed path"``
        or ``"disabled (use_index=False)"``.
    resilience:
        Fault-tolerance posture and recovery totals: whether a
        :class:`~repro.resilience.FaultPlan` is armed, plus this
        engine's recovery counters (shard retries, thread → serial
        degradations, index quarantines) accumulated so far.
    """

    spec: QuerySpec
    algorithm: str
    reason: str
    costs: dict[str, float] = field(default_factory=dict)
    stats: PlanStats | CascadeStats | None = None
    cache_hit: bool = False
    shards: ShardPlan | None = None
    index: str | None = None
    resilience: str | None = None

    def _plan_line(self) -> str:
        line = f"plan: {'cache hit' if self.cache_hit else 'prepared'}"
        if isinstance(self.stats, CascadeStats):
            sizes = " x ".join(str(n) for n in self.stats.base_sizes)
            return line + (
                f", {self.stats.join_size} chains "
                f"({sizes} base tuples over {self.stats.n_relations} relations)"
            )
        if self.stats is not None:
            return line + (
                f", join size {self.stats.join_size} "
                f"({self.stats.n_left} x {self.stats.n_right} base tuples, "
                f"{self.stats.shared_group_count} shared groups)"
            )
        return line

    def summary(self) -> str:
        """Multi-line human-readable rendering of the whole report."""
        lines = [
            f"query: {self.spec.describe()}",
            self._plan_line(),
            f"chosen: {self.algorithm} — {self.reason}",
        ]
        if self.costs:
            ranked = sorted(self.costs.items(), key=lambda kv: kv[1])
            lines.append(
                "estimated costs: "
                + ", ".join(f"{name}={cost:,.0f}" for name, cost in ranked)
            )
        if self.index is not None:
            lines.append(f"index: {self.index}")
        if self.shards is not None:
            if self.shards.is_parallel and self.algorithm not in (
                "parallel",
                "indexed",
            ):
                lines.append(
                    f"execution: serial — {self.algorithm} chosen over the "
                    f"parallel path ({self.shards.workers} workers were "
                    "available)"
                )
            else:
                lines.append(f"execution: {self.shards.describe()}")
        if self.resilience is not None:
            lines.append(f"resilience: {self.resilience}")
        return "\n".join(lines)


class Engine:
    """Prepare-once / execute-many entry point for every KSJQ problem.

    Parameters
    ----------
    max_plans:
        Capacity of the LRU plan cache. ``0`` disables caching (every
        query prepares a fresh plan — useful for benchmarking the full
        pipeline).
    catalog:
        The :class:`Catalog` of named datasets this engine serves. A
        private catalog is created when omitted; pass a shared one to
        serve the same datasets from several engines (each subscribes
        for invalidation).
    max_results:
        Capacity of the opt-in LRU *result* cache. ``0`` (default)
        disables it; when enabled, ``execute`` answers repeat queries
        over unchanged inputs without touching the algorithms, and
        dataset mutations invalidate exactly the affected entries.

    Usage::

        engine = repro.Engine()
        result = engine.query(r1, r2).aggregate("sum").k(7).run()
        tuned = engine.query(r1, r2).aggregate("sum").find_k(delta=100)
        print(engine.query(r1, r2).aggregate("sum").k(7).explain().summary())

        # Sharded parallel execution (exact; byte-identical across
        # worker counts). "auto" lets the cost model decide.
        result = engine.query(r1, r2).aggregate("sum").parallelism(4).k(7).run()

        # m-way cascade (Sec. 2.3): three legs chained on named columns.
        chain = engine.query(leg1, leg2, leg3).hop("dst", "src").hop("dst", "src")
        result = chain.aggregate("sum").k(7).run()

        # Named, versioned datasets: register once, query by name.
        engine.register("hotels", hotels)
        engine.register("flights", flights)
        result = engine.query("hotels", "flights").k(5).run()
        engine.catalog["hotels"].insert_rows([...])   # invalidates caches

    All entry points are thread-safe; ``execute_many`` fans a request
    batch out over a thread pool.

    Concurrency contract (checked by the repo linter's R2 rule):

    Counters live in :attr:`metrics`, the engine's one
    :class:`~repro.metrics.Metrics` registry.

    # guarded-by: _lock: _plans, _results, _serving_metrics
    """

    def __init__(
        self,
        max_plans: int = 32,
        catalog: Catalog | None = None,
        max_results: int = 0,
    ) -> None:
        if max_plans < 0:
            raise AlgorithmError(f"max_plans must be >= 0, got {max_plans}")
        if max_results < 0:
            raise AlgorithmError(f"max_results must be >= 0, got {max_results}")
        self.max_plans = max_plans
        self.max_results = max_results
        self._catalog = catalog if catalog is not None else Catalog()
        self._catalog.subscribe(self._on_dataset_mutated)
        self._lock = threading.RLock()
        self._plans: OrderedDict[tuple[object, ...], object] = OrderedDict()
        self._results: OrderedDict[tuple[object, ...], QueryResult] = OrderedDict()
        self.metrics = Metrics()
        # Serving-layer metrics, held weakly: a stopped server must not
        # be kept alive by its engine.
        self._serving_metrics: weakref.ref[ServingMetrics] | None = None

    # ------------------------------------------------------------------
    # Catalog: named, versioned inputs
    # ------------------------------------------------------------------
    @property
    def catalog(self) -> Catalog:
        """The catalog of named datasets this engine serves."""
        return self._catalog

    def register(self, name: str, data: Relation | Dataset) -> Dataset:
        """Register ``data`` under ``name`` so queries can use the name.

        Delegates to :meth:`Catalog.register`: re-registering identical
        content is a no-op (caches stay warm); new content bumps the
        dataset version and invalidates the affected cache entries.
        """
        return self._catalog.register(name, data)

    def _resolve(
        self, obj: Relation | Dataset | str
    ) -> tuple[Relation, tuple[object, ...]]:
        """One query input -> ``(relation snapshot, cache token)``.

        Registered datasets (by name or handle) resolve to cheap
        ``("ds", name, uid, version)`` tokens — no content hashing, a
        mutation changes the token, and the process-unique ``uid``
        keeps a dropped-and-re-registered name from colliding with its
        predecessor's cache entries. Anonymous relations keep the
        content-fingerprint keying, so equal-content relation objects
        still share cache entries. A :class:`Dataset` handle that is
        *not* this engine's registered dataset of that name falls back
        to content keying (its versions are not comparable to ours).
        """
        if isinstance(obj, str):
            dataset = self._catalog.get(obj)
            relation, version = dataset.snapshot()  # atomic pair
            return relation, ("ds", dataset.name, dataset.uid, version)
        if isinstance(obj, Dataset):
            relation, version = obj.snapshot()
            if self._catalog.peek(obj.name) is obj:
                return relation, ("ds", obj.name, obj.uid, version)
            return relation, ("rel", relation.fingerprint())
        if isinstance(obj, Relation):
            return obj, ("rel", obj.fingerprint())
        raise ParameterError(
            f"query inputs must be Relation, Dataset or registered name, "
            f"got {type(obj).__name__}"
        )

    def _resolve_all(
        self, inputs: Sequence[Relation | Dataset | str]
    ) -> tuple[tuple[Relation, ...], tuple[tuple[object, ...], ...]]:
        resolved = [self._resolve(obj) for obj in inputs]
        return (
            tuple(rel for rel, _ in resolved),
            tuple(tok for _, tok in resolved),
        )

    # ------------------------------------------------------------------
    # Dominance indexes (core.index), persisted via the catalog
    # ------------------------------------------------------------------
    def _dataset_for(self, obj: object) -> Dataset | None:
        """The registered dataset behind one query input, if any.

        Mirrors :meth:`_resolve`'s keying rules: a name resolves via
        the catalog; a :class:`Dataset` handle counts only when it *is*
        this engine's registered dataset of that name (a foreign
        handle's versions are not comparable to ours); anything else —
        an anonymous relation — has no catalog-persisted index.
        """
        if isinstance(obj, str):
            return self._catalog.peek(obj)
        if isinstance(obj, Dataset) and self._catalog.peek(obj.name) is obj:
            return obj
        return None

    def _side_indexes(
        self, plan: JoinPlan | CascadePlan, inputs: tuple[QueryInput, ...]
    ) -> tuple[DominanceIndex, DominanceIndex]:
        """The two :class:`~repro.core.index.DominanceIndex` es the
        indexed preset consumes, one per ``plan.INDEX_SIDES`` side.

        Registered-dataset inputs use the catalog's version-keyed
        persistent cache (built on first use, maintained through the
        delta feed); anonymous inputs fall back to the plan-local memo
        — same lifetime as the plan's other derived structures — with
        the build/hit accounted in the catalog's counters either way.
        """
        indexes: list[DominanceIndex] = []
        for pos, side in zip((0, -1), plan.INDEX_SIDES):
            dataset = self._dataset_for(inputs[pos]) if inputs else None
            if dataset is not None:
                relation = plan.side_relation(side)
                indexes.append(self._catalog.dominance_index(dataset, relation))
            else:
                index, built = plan.side_index(side)
                self._catalog.metrics.add("index_builds" if built else "index_hits")
                indexes.append(index)
        return indexes[0], indexes[1]

    def _quarantine_indexes(
        self, plan: JoinPlan | CascadePlan, inputs: tuple[QueryInput, ...]
    ) -> None:
        """Drop the catalog's persisted side indexes after a failure.

        Called from the graceful-degradation handler of the indexed
        dispatch: whatever broke (a corrupt index, a failed build), the
        quarantined entries are rebuilt from scratch on the next
        indexed query instead of poisoning every future one. Counted as
        ``index_quarantines`` in :attr:`metrics`.
        """
        if inputs:
            for pos in (0, -1):
                dataset = self._dataset_for(inputs[pos])
                if dataset is not None:
                    self._catalog.quarantine_index(dataset)
        plan.drop_side_indexes()
        self.metrics.add("index_quarantines")

    def _peek_index_state(
        self,
        plan: JoinPlan | CascadePlan,
        spec: QuerySpec,
        inputs: tuple[QueryInput, ...],
    ) -> tuple[str | None, float | None]:
        """Would the indexed path run warm or cold for this query?

        Returns ``(state, mean_span)`` without building anything:
        ``state`` is ``None`` when the indexed path is off the table
        (``use_index=False``, or a find-k spec — its probe evaluations
        run the faithful serial path), ``"warm"`` when both side
        indexes already exist (catalog entry or plan memo), ``"cold"``
        otherwise. ``mean_span`` averages the known indexes'
        ``mean_cell_span`` as the cost model's selectivity signal.
        """
        if spec.use_index is False or spec.problem != "ksjq":
            return None, None
        spans: list[float] = []
        state = "warm"
        for pos, side in zip((0, -1), plan.INDEX_SIDES):
            index = plan.peek_side_index(side)
            if index is None and inputs:
                dataset = self._dataset_for(inputs[pos])
                if dataset is not None:
                    index = self._catalog.peek_dominance_index(
                        dataset, plan.side_relation(side)
                    )
            if index is None:
                state = "cold"
            else:
                spans.append(index.mean_cell_span)
        span = sum(spans) / len(spans) if spans else None
        return state, span

    def _on_dataset_mutated(self, dataset: Dataset, delta: MutationDelta) -> None:
        """Catalog hook: drop exactly the cache entries keyed on an old
        version of the mutated dataset (current-version entries stay)."""
        uid, version = dataset.uid, dataset.version
        with self._lock:
            plans = [k for k in self._plans if _stale(k[1], uid, version)]
            for key in plans:
                del self._plans[key]
            results = [k for k in self._results if _stale(k[1], uid, version)]
            for key in results:
                del self._results[key]
        self.metrics.add("plan_invalidations", len(plans))
        self.metrics.add("result_invalidations", len(results))

    def maintain(
        self,
        *args: QueryInput | QuerySpec,
        spec: QuerySpec | None = None,
        fallback_ratio: float = DEFAULT_FALLBACK_RATIO,
    ) -> "MaintainedResult":
        """A live, delta-maintained answer over registered datasets.

        Call as ``maintain("hotels", "flights", spec)`` (the
        :meth:`execute` conventions); every input must be a registered
        dataset name or handle — the returned
        :class:`~repro.core.incremental.MaintainedResult` subscribes to
        their mutation deltas and keeps its answer current under
        ``insert_rows`` / ``delete_rows`` / ``replace`` instead of being
        invalidated. Small deltas are absorbed incrementally; anything
        else (or a delta the cost model prices above ``fallback_ratio``
        times a recompute) falls back to a full recompute, which is
        always correct. Call ``close()`` (or use the handle as a
        context manager) to detach.
        """
        from .stream import create_maintained

        inputs, spec = self._split_args(args, spec)
        return create_maintained(self, inputs, spec, fallback_ratio)

    def stream_window(
        self,
        *args: QueryInput | QuerySpec,
        spec: QuerySpec | None = None,
        size: int,
        slide: int = 1,
        name: str | None = None,
        fallback_ratio: float = DEFAULT_FALLBACK_RATIO,
    ) -> Iterator[QueryResult]:
        """Sliding-window continuous query over a row stream.

        Exactly one input must be a plain :class:`Relation` — the
        stream source (it may appear on both sides for a self-join
        stream); other inputs resolve as usual. Yields one result per
        window position: the first covers rows ``[0, size)``, and each
        advance slides by ``slide`` rows — a batched delete+insert
        delta pair absorbed by an internal :meth:`maintain` handle::

            for result in engine.stream_window("hotels", feed, spec,
                                               size=256, slide=32):
                ...

        The window-backing dataset (registered under ``name``, default
        ``"<stream>_window"``) is dropped when the iterator finishes.
        """
        from .stream import window_stream

        inputs, spec = self._split_args(args, spec)
        return window_stream(
            self, inputs, spec, size, slide, name, fallback_ratio
        )

    # ------------------------------------------------------------------
    # Plan cache
    # ------------------------------------------------------------------
    @staticmethod
    def _agg_key(
        aggregate: AggregateLike | None,
    ) -> str | AggregateFunction | None:
        # Custom AggregateFunction objects key by value (frozen
        # dataclass) — collapsing them to their name would let a custom
        # function collide with the registry entry of the same name.
        if aggregate is None or isinstance(aggregate, AggregateFunction):
            return aggregate
        return get_aggregate(aggregate).name

    def _cached(
        self, key: tuple[object, ...], factory: Callable[[], object]
    ) -> tuple[object, bool]:
        """LRU lookup-or-build shared by two-way and cascade plans.

        Returns ``(plan, cache_hit)`` — the flag is decided under the
        same lock acquisition that serves the lookup, so concurrent
        callers each get the truth about their own request. The build
        runs outside the lock (it can be expensive); when two threads
        race to build one key, the first insert wins and the loser's
        plan is discarded — both count one miss.
        """
        with self._lock:
            cached = self._plans.get(key)
            if cached is not None:
                self.metrics.add("plan_hits")
                self._plans.move_to_end(key)
                return cached, True
            self.metrics.add("plan_misses")
        plan = factory()
        if self.max_plans <= 0:
            return plan, False
        with self._lock:
            existing = self._plans.get(key)
            if existing is not None:
                return existing, False
            self._plans[key] = plan
            while len(self._plans) > self.max_plans:
                self._plans.popitem(last=False)
                self.metrics.add("plan_evictions")
        return plan, False

    def plan(
        self,
        left: Relation | Dataset | str,
        right: Relation | Dataset | str,
        join: str = "equality",
        aggregate: AggregateLike | None = None,
        theta: ThetaLike | None = None,
    ) -> JoinPlan:
        """A (cached) :class:`JoinPlan` for one input pair + join config.

        Inputs may be relations, datasets, or registered names. Plans
        over registered datasets are keyed by ``(name, version)``;
        anonymous relations key by content fingerprint, so two
        equal-content relation objects share a cache entry and any
        memoized structure computed by one query (the hop kernel, the
        joined view) is reused by the next.
        """
        return self._plan_with_hit(left, right, join, aggregate, theta)[0]

    def _plan_with_hit(
        self,
        left: Relation | Dataset | str,
        right: Relation | Dataset | str,
        join: str = "equality",
        aggregate: AggregateLike | None = None,
        theta: ThetaLike | None = None,
    ) -> tuple[JoinPlan, bool]:
        if theta is not None and not isinstance(theta, tuple):
            from ..relational.join import normalize_theta

            theta = normalize_theta(theta)
        (left_rel, left_tok), (right_rel, right_tok) = (
            self._resolve(left),
            self._resolve(right),
        )
        key = (
            "2way",
            (left_tok, right_tok),
            join,
            self._agg_key(aggregate),
            theta or (),
        )
        plan, hit = self._cached(
            key,
            lambda: JoinPlan(
                left_rel,
                right_rel,
                kind=join,
                aggregate=aggregate,
                theta=theta if theta else None,
            ),
        )
        return cast("JoinPlan", plan), hit

    def cascade_plan(
        self,
        relations: Sequence[Relation | Dataset | str],
        hops: HopsLike = None,
        aggregate: AggregateLike | None = None,
    ) -> CascadePlan:
        """A (cached) :class:`CascadePlan` for one input chain + hops.

        Keyed like :meth:`plan`: version tokens (or content
        fingerprints) of every input in order, plus the normalized hop
        tuple and aggregate, so the memoized chain set / pruning of one
        cascade query is reused by the next.
        """
        return self._cascade_plan_with_hit(relations, hops, aggregate)[0]

    def _cascade_plan_with_hit(
        self,
        relations: Sequence[Relation | Dataset | str],
        hops: HopsLike = None,
        aggregate: AggregateLike | None = None,
    ) -> tuple[CascadePlan, bool]:
        from ..core.cascade import normalize_hops

        inputs = tuple(relations)
        if len(inputs) < 2:
            # CascadePlan raises the canonical error; don't cache it.
            rels = tuple(self._resolve(obj)[0] for obj in inputs)
            return CascadePlan(rels, hops=hops, aggregate=aggregate), False
        rels, tokens = self._resolve_all(inputs)
        hop_specs = normalize_hops(len(rels), hops if hops else None)
        key = ("cascade", tokens, self._agg_key(aggregate), hop_specs)
        plan, hit = self._cached(
            key,
            lambda: CascadePlan(rels, hops=hop_specs, aggregate=aggregate),
        )
        return cast("CascadePlan", plan), hit

    def _totals(self) -> dict[str, int]:
        """This engine's counters plus its catalog's (the index life
        cycle and failed index maintenance), summed by name."""
        catalog = self._catalog.metrics.snapshot()
        return {name: n + catalog[name] for name, n in self.metrics.snapshot().items()}

    def cache_info(self) -> dict[str, object]:
        """Render :meth:`_totals`: counters + size/capacity of the plan
        cache, the maintenance counters (``maintained`` /
        ``fallback_recomputes`` / ``delta_rows`` / ``failed_deltas``),
        the dominance-index life cycle (``index_builds`` /
        ``index_hits`` / ``index_invalidations`` /
        ``index_maintained``), under the ``"results"`` key the result
        cache, under ``"resilience"`` the recovery counters, and — when
        a serving front-end is attached — its per-route counters under
        the ``"serving"`` key."""
        with self._lock:
            n_plans, n_results = len(self._plans), len(self._results)
            serving = (
                self._serving_metrics() if self._serving_metrics is not None else None
            )
        totals = self._totals()

        def cache(kind: str, size: int, capacity: int) -> dict[str, int]:
            events = ("hits", "misses", "evictions", "invalidations")
            block = {event: totals[f"{kind}_{event}"] for event in events}
            block["requests"] = block["hits"] + block["misses"]
            return {**block, "size": size, "capacity": capacity}

        info: dict[str, object] = {**cache("plan", n_plans, self.max_plans)}
        for name in ("maintained", "fallback_recomputes", "delta_rows", "failed_deltas"):
            info[name] = totals[name]
        info["results"] = cache("result", n_results, self.max_results)
        for name in ("index_builds", "index_hits", "index_invalidations", "index_maintained"):
            info[name] = totals[name]
        info["resilience"] = {
            "shard_retries": totals["shard_retries"],
            "degradations": totals["degradations"],
            "index_quarantines": totals["index_quarantines"],
            "delta_failures": totals["failed_deltas"],  # one event, two names
            "breaker_opens": totals["breaker_opens"],
        }
        if serving is not None:
            info["serving"] = serving.snapshot()
        return info

    def attach_serving_metrics(self, metrics: "ServingMetrics") -> None:
        """Surface a serving front-end's metrics in :meth:`cache_info`.

        Called by :class:`repro.serving.server.KSJQServer` on startup.
        The reference is weak — dropping the server detaches it."""
        with self._lock:
            self._serving_metrics = weakref.ref(metrics)

    def clear_cache(self) -> None:
        """Drop every cached plan and result (counters are kept)."""
        with self._lock:
            self._plans.clear()
            self._results.clear()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def query(self, *relations: Relation | Dataset | str) -> "QueryBuilder":
        """Start a fluent query over a chain of two or more inputs
        (relations, datasets, or registered names)."""
        from .builder import QueryBuilder

        return QueryBuilder(self, *relations)

    @staticmethod
    def _split_args(
        args: tuple[object, ...], spec: QuerySpec | None
    ) -> tuple[tuple[QueryInput, ...], QuerySpec]:
        """Unpack ``(r1, ..., rn, spec)`` positional calling conventions."""
        if spec is None:
            if not args or not isinstance(args[-1], QuerySpec):
                raise ParameterError(
                    "pass a QuerySpec as the last positional argument or as spec=..."
                )
            return cast("tuple[QueryInput, ...]", tuple(args[:-1])), args[-1]
        return cast("tuple[QueryInput, ...]", tuple(args)), spec

    def _bind(
        self, inputs: tuple[QueryInput, ...], spec: QuerySpec
    ) -> JoinPlan | CascadePlan:
        """Resolve the (cached) plan a spec runs against; inputs may be
        relations, datasets, or registered names."""
        return self._bind_with_hit(inputs, spec)[0]

    def _bind_with_hit(
        self, inputs: tuple[QueryInput, ...], spec: QuerySpec
    ) -> tuple[JoinPlan | CascadePlan, bool]:
        if spec.join == "cascade":
            return self._cascade_plan_with_hit(
                inputs, hops=spec.hops, aggregate=spec.aggregate
            )
        if len(inputs) != 2:
            raise ParameterError(
                f"a {spec.join!r} join spec takes exactly two relations, got "
                f"{len(inputs)}; use QuerySpec.for_cascade (join='cascade') "
                "for m-way chains"
            )
        return self._plan_with_hit(inputs[0], inputs[1], *_plan_args(spec))

    def versions(self, *inputs: QueryInput) -> tuple[object, ...]:
        """Current cache tokens of a query's inputs (used for freshness
        checks by :class:`~repro.api.handle.QueryHandle`)."""
        return self._resolve_all(inputs)[1]

    def execute(
        self,
        *args: QueryInput | QuerySpec,
        spec: QuerySpec | None = None,
        plan: JoinPlan | CascadePlan | None = None,
        deadline: "Deadline | None" = None,
    ) -> QueryResult:
        """Run a spec over inputs, reusing cached plans/results that match.

        Call as ``execute(r1, r2, spec)`` (two-way) or
        ``execute(r1, ..., rn, spec)`` / ``execute(*relations, spec=spec)``
        (cascade); any input may be a registered dataset name. ``plan``
        overrides the caches (used by the legacy facade's ``plan=``
        argument); the result carries the spec and plan as provenance.

        With ``max_results > 0``, a repeat of an identical spec over
        inputs at unchanged versions returns the cached result object
        without running any algorithm.

        ``deadline`` bounds the run's wall clock: it is activated for
        the duration of the call, the algorithm hot loops check it at
        cooperative checkpoints, and on expiry the call raises
        :class:`~repro.errors.DeadlineExceeded` carrying the partial
        answer decided so far (a subset of this spec's full answer).
        An expired run caches nothing — a later identical call runs
        fresh and returns the exact full answer.
        """
        if deadline is not None:
            with deadline.activate():
                return self._execute(args, spec, plan)
        return self._execute(args, spec, plan)

    def _execute(
        self,
        args: tuple[QueryInput | QuerySpec, ...],
        spec: QuerySpec | None,
        plan: JoinPlan | CascadePlan | None,
    ) -> QueryResult:
        inputs, spec = self._split_args(args, spec)
        if plan is not None:
            # A caller-supplied plan may not match `inputs` (legacy
            # facade convention) — run with plan-local indexes only.
            return self._run(plan, spec).with_provenance(spec, plan)

        tokens: tuple[object, ...] | None = None
        if self.max_results > 0:
            tokens = self._resolve_all(inputs)[1]
            result_key = ("result", tokens, self._result_cache_spec(spec))
            with self._lock:
                hit = self._results.get(result_key)
                if hit is not None:
                    self.metrics.add("result_hits")
                    self._results.move_to_end(result_key)
                    if hit.spec == spec:
                        return hit
                    # The key collapses parallelism for explicit
                    # algorithms (identical answers); provenance must
                    # still report the spec this caller asked for.
                    return hit.with_provenance(spec, hit.source)
                self.metrics.add("result_misses")

        plan = self._bind(inputs, spec)
        result = self._run(plan, spec, inputs).with_provenance(spec, plan)

        if tokens is not None:
            result_key = ("result", tokens, self._result_cache_spec(spec))
            with self._lock:
                self._results[result_key] = result
                self._results.move_to_end(result_key)
                while len(self._results) > self.max_results:
                    self._results.popitem(last=False)
                    self.metrics.add("result_evictions")
        return result

    @staticmethod
    def _result_cache_spec(spec: QuerySpec) -> QuerySpec:
        """The spec identity used by the *result* cache.

        ``parallelism`` never changes the answer of an explicitly
        chosen algorithm (the parallel path is shard-count invariant;
        serial algorithms and find-k ignore the knob entirely), so it
        is collapsed there — a w=2 result answers a w=4 repeat instead
        of fragmenting the bounded LRU. Under ``algorithm="auto"`` the
        worker budget can steer the *choice* between answer families
        (faithful grouping vs the exact parallel path), so auto specs
        keep their parallelism in the key.
        """
        if spec.problem == "ksjq" and spec.algorithm == "auto":
            return spec
        if spec.parallelism == "auto":
            return spec
        return spec.replace(parallelism="auto")

    def _run(
        self,
        plan: JoinPlan | CascadePlan,
        spec: QuerySpec,
        inputs: tuple[QueryInput, ...] = (),
    ) -> QueryResult:
        """Dispatch one bound (plan, spec) pair to its runner.

        ``inputs`` are the original query inputs when known — the
        indexed path uses them to look up catalog-persisted indexes
        for registered datasets. Callers without them (maintained
        results recomputing from a stored plan, ``plan=`` overrides)
        pass nothing and the indexed path falls back to plan-local
        indexes.

        The run counts into :attr:`metrics`: it is the calling thread's
        active registry (:meth:`Metrics.activate`) for the duration, so
        the shard executor's retries and degradations land here.
        """
        with self.metrics.activate():
            if spec.problem == "ksjq":
                return self._run_ksjq(plan, spec, inputs)
            if isinstance(plan, CascadePlan):
                raise ParameterError(
                    "find_k is only defined over two-way joins; run ksjq at "
                    "fixed k over a cascade instead"
                )
            return self._run_find_k(plan, spec)

    def execute_many(
        self,
        requests: Sequence[object],
        max_workers: int | None = 4,
        return_exceptions: bool = False,
    ) -> list[QueryResult | Exception]:
        """Execute a batch of queries, fanning out over a thread pool.

        Each request is either a tuple/list of :meth:`execute` arguments
        — inputs followed by a :class:`QuerySpec`, e.g.
        ``("hotels", "flights", spec)`` — or a configured
        :class:`~repro.api.builder.QueryBuilder`. Results come back in
        request order and are identical to executing the batch serially
        (the caches and plans are shared safely across workers).

        ``max_workers <= 1`` runs the batch serially on the calling
        thread. With ``return_exceptions=True`` a failing request yields
        its exception object in the result list instead of aborting the
        batch.

        Per-query ``parallelism`` composes without oversubscription:
        queries executed inside the batch resolve their shard-worker
        count against their fair share of the CPUs
        (:func:`repro.core.parallel.batch_workers`), so N batch lanes of
        parallel queries never stack N full worker pools.
        """
        prepared = [self._coerce_request(req) for req in requests]
        if max_workers is None or max_workers <= 1 or len(prepared) <= 1:
            out: list[QueryResult | Exception] = []
            for inputs, spec in prepared:
                try:
                    out.append(self.execute(*inputs, spec=spec))
                except Exception as exc:  # noqa: BLE001 - batched fan-out
                    if not return_exceptions:
                        raise
                    out.append(exc)
            return out
        lanes = min(max_workers, len(prepared))

        def lane_execute(
            inputs: tuple[QueryInput, ...], spec: QuerySpec
        ) -> QueryResult:
            with batch_workers(lanes):
                return self.execute(*inputs, spec=spec)

        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            futures = [
                pool.submit(lane_execute, inputs, spec)
                for inputs, spec in prepared
            ]
            out = []  # type: list[QueryResult | Exception]
            for future in futures:
                try:
                    out.append(future.result())
                except Exception as exc:  # noqa: BLE001 - batched fan-out
                    if not return_exceptions:
                        raise
                    out.append(exc)
            return out

    def _coerce_request(
        self, request: object
    ) -> tuple[tuple[QueryInput, ...], QuerySpec]:
        """One ``execute_many`` request -> ``(inputs, spec)``."""
        from .builder import QueryBuilder

        if isinstance(request, QueryBuilder):
            return request._relations, request.spec()
        if isinstance(request, (tuple, list)):
            return self._split_args(tuple(request), None)
        raise ParameterError(
            "each request must be a (inputs..., QuerySpec) tuple or a "
            f"QueryBuilder, got {type(request).__name__}"
        )

    def prepare(
        self, *args: QueryInput | QuerySpec, spec: QuerySpec | None = None
    ) -> "QueryHandle":
        """A re-executable :class:`~repro.api.handle.QueryHandle`.

        Call as ``prepare(r1, r2, spec)`` / ``prepare("hotels",
        "flights", spec=spec)``. The handle re-executes cheaply against
        the *latest* dataset versions and reports whether its cached
        result is still fresh.
        """
        from .handle import QueryHandle

        inputs, spec = self._split_args(args, spec)
        return QueryHandle(self, inputs, spec)

    def _run_ksjq(
        self,
        plan: JoinPlan | CascadePlan,
        spec: QuerySpec,
        inputs: tuple[QueryInput, ...] = (),
    ) -> KSJQResult | CascadeResult:
        """Run a ksjq spec — two-way or cascade — on its preset.

        An indexed run that fails for any reason but a deadline or a
        caller error quarantines the side indexes and degrades to the
        exact non-indexed preset: a corrupt or unloadable index never
        fails (or wrong-answers) the query.
        """
        assert spec.k is not None  # validated by QuerySpec.__post_init__
        k, algorithm = spec.k, spec.algorithm
        shards: ShardPlan | None = None
        if algorithm in ("auto", "parallel", "indexed"):
            shards = _shard_plan(plan, spec)
            if algorithm == "auto":
                state, span = self._peek_index_state(plan, spec, inputs)
                algorithm = _choose(plan, spec, shards, state, span)[0]
        if algorithm == "indexed":
            try:
                first, last = self._side_indexes(plan, inputs)
                if isinstance(plan, CascadePlan):
                    return run_cascade_indexed(plan, k, first, last, shards=shards)
                return run_indexed(plan, k, first, last, shards=shards)
            except (DeadlineExceeded, ParameterError):
                raise  # verified partials / caller errors pass through
            except Exception:  # noqa: BLE001 - degradation boundary
                self._quarantine_indexes(plan, inputs)
                algorithm = "parallel" if shards is not None and shards.is_parallel else "naive"
        if isinstance(plan, CascadePlan):
            if algorithm == "parallel":
                return run_cascade_parallel(plan, k, shards=shards)
            if algorithm == "naive":
                return run_cascade_naive(plan, k)
            return run_cascade_pruned(plan, k)
        if algorithm == "parallel":
            return run_parallel(plan, k, shards=shards)
        if algorithm == "naive":
            return run_naive(plan, k)
        if algorithm == "grouping":
            return run_grouping(plan, k, mode=spec.mode)
        if algorithm == "dominator":
            return run_dominator(plan, k, mode=spec.mode)
        return run_cartesian(plan, k, mode=spec.mode)

    def _run_find_k(self, plan: JoinPlan, spec: QuerySpec) -> FindKResult:
        assert spec.delta is not None  # validated by QuerySpec.__post_init__
        if spec.objective == "at_least":
            return find_k_at_least_delta(
                plan, spec.delta, method=spec.method, mode=spec.mode
            )
        return find_k_at_most_delta(
            plan, spec.delta, method=spec.method, mode=spec.mode
        )

    def stream(
        self,
        *args: QueryInput | QuerySpec,
        spec: QuerySpec | None = None,
        plan: JoinPlan | CascadePlan | None = None,
        deadline: "Deadline | None" = None,
    ) -> Iterator[tuple[int, ...]]:
        """Progressive results: yield skyline tuples as they are decided.

        Two-way specs wrap :func:`~repro.core.progressive.ksjq_progressive`
        (grouping order: guaranteed "yes" pairs first; faithful mode
        only) and yield ``(left_row, right_row)`` pairs. Cascade specs
        wrap :func:`~repro.core.cascade.cascade_progressive` and yield
        m-tuples of row indexes, each emitted as soon as its
        verification against the chain set decides it.

        ``deadline`` bounds the stream's *compute* time: it is
        activated around every resume of the underlying generator (the
        consumer may hold the iterator suspended indefinitely without
        burning budget bookkeeping on other threads), and an expiry
        raises :class:`~repro.errors.DeadlineExceeded` from ``next()``
        with the already-yielded tuples as the partial answer.
        """
        relations, spec = self._split_args(args, spec)
        if spec.problem != "ksjq":
            raise AlgorithmError("only ksjq queries stream progressively")
        if plan is None:
            plan = self._bind(relations, spec)
        if isinstance(plan, CascadePlan):
            algorithm = spec.algorithm
            if algorithm == "auto":
                algorithm = choose_algorithm(plan, spec.mode)[0]
            stream = cascade_progressive(plan, spec.k, algorithm=algorithm)
        else:
            if spec.mode != "faithful":
                raise AlgorithmError(
                    "progressive streaming emits Theorem-1/3 'yes' tuples "
                    "unverified; it is only defined for mode='faithful'"
                )
            stream = ksjq_progressive(plan, spec.k)
        if deadline is None:
            return stream
        return _deadline_scoped(stream, deadline)

    # ------------------------------------------------------------------
    # Explanation
    # ------------------------------------------------------------------
    def explain(
        self,
        *args: QueryInput | QuerySpec,
        spec: QuerySpec | None = None,
        plan: JoinPlan | CascadePlan | None = None,
    ) -> ExplainReport:
        """Report the algorithm choice and cost estimates for a spec."""
        relations, spec = self._split_args(args, spec)
        cache_hit = False
        inputs: tuple[QueryInput, ...] = relations
        if plan is None:
            plan, cache_hit = self._bind_with_hit(relations, spec)
        else:
            # Caller-supplied plan: `relations` may not describe it, so
            # probe plan-local indexes only (matches _run's behavior).
            inputs = ()
        stats = plan.stats()
        index_state, index_span = self._peek_index_state(plan, spec, inputs)
        shards: ShardPlan | None = None
        if spec.problem == "ksjq" or isinstance(plan, CascadePlan):  # cascades are ksjq-only
            shards = _shard_plan(plan, spec)
            algorithm, costs, reason = _choose(plan, spec, shards, index_state, index_span)
            if algorithm == "indexed":
                shards = replace(shards, partition="cells")
        else:
            algorithm = spec.method
            costs, reason = find_k_costs(plan, spec.method)
        if spec.problem != "ksjq":
            index = "not applicable (find_k probe evaluations run the serial faithful path)"
        elif index_state is None:
            index = "disabled (use_index=False)"
        else:
            index = index_state
            if index_span is not None:
                index += f" (mean cell span {index_span:.2f})"
            if algorithm == "indexed":
                index += "; consumed by the indexed path"
            else:
                index += f"; unused by {algorithm}"
        return ExplainReport(
            spec=spec,
            algorithm=algorithm,
            reason=reason,
            costs=costs,
            stats=stats,
            cache_hit=cache_hit,
            shards=shards,
            index=index,
            resilience=_resilience_line(self._totals()),
        )

    def __repr__(self) -> str:
        info = self.cache_info()
        return (
            f"<Engine plans={info['size']}/{info['capacity']} "
            f"hits={info['hits']} misses={info['misses']}>"
        )


def _plan_args(
    spec: QuerySpec,
) -> tuple[str, AggregateLike | None, tuple[ThetaCondition, ...]]:
    """(join, aggregate, theta) positional args for :meth:`Engine.plan`."""
    return spec.join, spec.aggregate, spec.theta


def _resilience_line(totals: dict[str, int]) -> str:
    """Posture + recovery totals for :attr:`ExplainReport.resilience`."""
    plan = armed_plan()
    posture = (
        f"fault plan armed (seed {plan.seed}, {len(plan.specs)} specs)"
        if plan is not None
        else "checkpoints disarmed"
    )
    return (
        f"{posture}; recovery ladder thread→serial; so far: "
        f"{totals['shard_retries']} shard retries, "
        f"{totals['degradations']} degradations, "
        f"{totals['index_quarantines']} index quarantines"
    )


def _shard_plan(plan: JoinPlan | CascadePlan, spec: QuerySpec) -> ShardPlan:
    """The :class:`ShardPlan` a ksjq spec's parallel/indexed run uses."""
    return plan_shards(plan.stats().join_size, spec.parallelism)


def _choose(
    plan: JoinPlan | CascadePlan,
    spec: QuerySpec,
    shards: ShardPlan,
    index_state: str | None,
    index_span: float | None,
) -> tuple[str, dict[str, float], str]:
    """``(algorithm, costs, reason)`` for a ksjq spec: the one choice
    both :meth:`Engine._run_ksjq` and :meth:`Engine.explain` use.

    ``use_index=True`` forces the indexed path and an explicit
    algorithm runs as requested; their costs cover every applicable
    candidate, the index included. ``algorithm="auto"`` takes the cost
    model's pick, but only a *warm* index enters that race: a cold
    build is a deliberate investment the caller opts into
    (``algorithm="indexed"`` or ``use_index=True``) — letting it compete
    by default would flip the engine's established auto choices on
    every first query. Once any indexed query has built (and the
    catalog persisted) the side indexes, auto queries see ``"warm"``
    and weigh the indexed path like any other.
    """
    auto = spec.algorithm == "auto" and spec.use_index is not True
    state = None if auto and index_state != "warm" else index_state
    choice = choose_algorithm(plan, spec.mode, shards.workers, state, index_span)
    if auto:
        return choice
    if spec.algorithm == "auto":
        return "indexed", choice[1], "use_index=True forces the indexed path"
    return spec.algorithm, choice[1], "explicitly requested"


def _stale(tokens: object, uid: int, version: int) -> bool:
    """Does a cache key's token tuple reference an old version of the
    dataset identified by ``uid``?"""
    if not isinstance(tokens, tuple):
        return False
    return any(
        isinstance(tok, tuple)
        and len(tok) == 4
        and tok[0] == "ds"
        and tok[2] == uid
        and tok[3] != version
        for tok in tokens
    )


def _deadline_scoped(
    stream: Iterator[tuple[int, ...]], deadline: Deadline
) -> Iterator[tuple[int, ...]]:
    """Activate ``deadline`` around every resume of ``stream``.

    The thread-local active deadline must only be installed while the
    generator is actually computing: a consumer may hold the iterator
    suspended across unrelated engine calls on the same thread, and
    those must not inherit this request's budget.
    """
    while True:
        with deadline.activate():
            try:
                item = next(stream)
            except StopIteration:
                return
        yield item
