"""repro — K-Dominant Skyline Join Queries (KSJQ).

A complete reproduction of Awasthi, Bhattacharya, Gupta & Singh,
"K-Dominant Skyline Join Queries: Extending the Join Paradigm to
K-Dominant Skylines" (ICDE 2017), as a reusable Python library:

* :mod:`repro.relational` — schemas, relations, joins and aggregation;
* :mod:`repro.skyline` — dominance primitives and skyline algorithms;
* :mod:`repro.core` — SS/SN/NN categorization, the naïve / grouping /
  dominator-based KSJQ algorithms, the cartesian and theta-join
  variants, and the find-k algorithms;
* :mod:`repro.api` — the query engine: cached join plans, cost-based
  algorithm choice, fluent query building, explain plans;
* :mod:`repro.serving` — the asyncio HTTP/JSON front-end: per-request
  deadlines with verified partial answers, bounded-queue admission
  control, progressive streaming (``python -m repro.serving``);
* :mod:`repro.resilience` — deterministic fault injection, bounded
  retry/backoff, the recovery ladder behind the sharded thread pool,
  and the serving circuit breaker (see ``docs/resilience.md``);
* :mod:`repro.datagen` — synthetic generators and the flight dataset;
* :mod:`repro.experiments` — the harness regenerating every figure of
  the paper's evaluation.

Quickstart — hold an :class:`Engine` and issue queries through it; join
preparation is cached across queries over the same relations::

    import repro

    r1 = repro.Relation.from_records(schema1, rows1)
    r2 = repro.Relation.from_records(schema2, rows2)

    engine = repro.Engine()
    result = engine.query(r1, r2).aggregate("sum").k(7).run()
    for record in result.to_records():          # r1.* / r2.* columns
        ...
    tuned = engine.query(r1, r2).aggregate("sum").find_k(delta=100)
    print(tuned.k)

    # What would run, and why (cost-based algorithm choice):
    print(engine.query(r1, r2).aggregate("sum").k(7).explain().summary())

    # Progressive results: guaranteed skyline pairs stream out first.
    for left_row, right_row in engine.query(r1, r2).aggregate("sum").k(7).stream():
        ...

    # m-way cascades (Sec. 2.3) run through the same engine: one hop
    # condition per adjacent pair, same caching/auto/explain/stream.
    chain = engine.query(leg1, leg2, leg3).hop("dst", "src").hop("dst", "src")
    chains = chain.aggregate("sum").k(7).run()

Serving workloads register named, versioned datasets in the engine's
catalog — caches are keyed by ``(name, version)`` and mutation
invalidates exactly the affected entries::

    engine.register("hotels", hotels)
    engine.register("flights", flights)
    result = engine.query("hotels", "flights").aggregate("sum").k(7).run()

    engine.catalog["hotels"].insert_rows(new_rows)   # bumps the version
    handle = engine.prepare("hotels", "flights", spec)
    handle.refresh()                                 # re-runs only when stale

    batch = engine.execute_many(requests, max_workers=8)

    # Or keep the answer *live*: maintained results absorb mutation
    # deltas incrementally instead of being invalidated.
    live = engine.maintain("hotels", "flights", spec)
    engine.catalog["hotels"].insert_rows(new_rows)   # answer updates in place
    live.result()

The original one-shot facade remains fully supported (it now runs on a
shared default engine, so it benefits from plan caching too)::

    result = repro.ksjq(r1, r2, k=7, aggregate="sum")
    tuned = repro.find_k(r1, r2, delta=100, aggregate="sum")
"""

from .api import (
    Catalog,
    Engine,
    ExplainReport,
    MaintainedResult,
    QueryBuilder,
    QueryHandle,
    QuerySpec,
)
from .core import (
    CascadeParams,
    CascadePlan,
    CascadeResult,
    CascadeStats,
    DominanceIndex,
    FATE_TABLE,
    Categorization,
    Category,
    Fate,
    FindKResult,
    Hop,
    JoinPlan,
    KSJQParams,
    KSJQResult,
    PlanStats,
    QueryResult,
    ShardPlan,
    TimingBreakdown,
    cascade_ksjq,
    cascade_progressive,
    categorize,
    default_engine,
    find_k,
    ksjq,
    ksjq_progressive,
    make_plan,
    run_cartesian,
    run_cascade_indexed,
    run_cascade_parallel,
    run_dominator,
    run_grouping,
    run_indexed,
    run_naive,
    run_parallel,
)
from .errors import (
    AdmissionRejected,
    AggregateError,
    AlgorithmError,
    CatalogError,
    CircuitOpen,
    DeadlineExceeded,
    JoinError,
    ParameterError,
    ReproError,
    ReproWarning,
    ResilienceError,
    SchemaError,
    ServingError,
    SoundnessWarning,
)
from .relational import (
    AttributeSpec,
    Dataset,
    HopSpec,
    JoinedView,
    Preference,
    Relation,
    RelationSchema,
    Role,
    ThetaCondition,
    ThetaOp,
)

__version__ = "1.13.0"

__all__ = [
    "AdmissionRejected",
    "AggregateError",
    "AlgorithmError",
    "AttributeSpec",
    "Catalog",
    "CatalogError",
    "Categorization",
    "Category",
    "CircuitOpen",
    "Dataset",
    "DeadlineExceeded",
    "DominanceIndex",
    "Engine",
    "ExplainReport",
    "FATE_TABLE",
    "Fate",
    "FindKResult",
    "HopSpec",
    "JoinError",
    "JoinPlan",
    "JoinedView",
    "KSJQParams",
    "KSJQResult",
    "MaintainedResult",
    "ParameterError",
    "PlanStats",
    "Preference",
    "QueryBuilder",
    "QueryHandle",
    "QueryResult",
    "QuerySpec",
    "Relation",
    "RelationSchema",
    "ReproError",
    "ReproWarning",
    "ResilienceError",
    "Role",
    "SchemaError",
    "ServingError",
    "ShardPlan",
    "SoundnessWarning",
    "ThetaCondition",
    "ThetaOp",
    "TimingBreakdown",
    "CascadeParams",
    "CascadePlan",
    "CascadeResult",
    "CascadeStats",
    "Hop",
    "cascade_ksjq",
    "cascade_progressive",
    "categorize",
    "default_engine",
    "find_k",
    "ksjq",
    "ksjq_progressive",
    "make_plan",
    "run_cartesian",
    "run_cascade_indexed",
    "run_cascade_parallel",
    "run_dominator",
    "run_grouping",
    "run_indexed",
    "run_naive",
    "run_parallel",
    "__version__",
]
