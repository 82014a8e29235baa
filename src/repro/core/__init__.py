"""KSJQ core: categorization, algorithms 1-6, query facade.

Public entry points are :func:`repro.core.query.ksjq` and
:func:`repro.core.query.find_k`; the per-algorithm runners
(:func:`run_naive`, :func:`run_grouping`, :func:`run_dominator`,
:func:`run_cartesian`) are exposed for benchmarking and testing.
"""

from .cascade import (
    CASCADE_ALGORITHMS,
    CascadeResult,
    Hop,
    cascade_ksjq,
    cascade_progressive,
    run_cascade_naive,
    run_cascade_pruned,
)
from .categorize import (
    FATE_TABLE,
    Categorization,
    Category,
    Fate,
    categorize,
)
from .cartesian import run_cartesian
from .dominator import run_dominator
from .find_k import find_k_at_least_delta, find_k_at_most_delta
from .grouping import run_grouping
from .incremental import DEFAULT_FALLBACK_RATIO, MaintainedResult
from .index import (
    CellPartition,
    DominanceIndex,
    run_cascade_indexed,
    run_indexed,
)
from .naive import run_naive
from .parallel import (
    ShardPlan,
    batch_workers,
    plan_shards,
    run_cascade_parallel,
    run_parallel,
    shard_bounds,
)
from .params import CascadeParams, KSJQParams
from .plan import CascadePlan, CascadeStats, JoinPlan, PlanStats
from .progressive import ksjq_progressive
from .query import default_engine, find_k, ksjq, make_plan
from .result import FindKResult, FindKStep, KSJQResult, QueryResult
from .targets import target_rows_exact, target_rows_paper
from .timing import PHASES, PhaseClock, TimingBreakdown

__all__ = [
    "CASCADE_ALGORITHMS",
    "CascadeParams",
    "CascadePlan",
    "CascadeResult",
    "CascadeStats",
    "CellPartition",
    "DEFAULT_FALLBACK_RATIO",
    "DominanceIndex",
    "FATE_TABLE",
    "Categorization",
    "Category",
    "Fate",
    "FindKResult",
    "FindKStep",
    "Hop",
    "JoinPlan",
    "KSJQParams",
    "KSJQResult",
    "MaintainedResult",
    "PHASES",
    "PhaseClock",
    "PlanStats",
    "QueryResult",
    "ShardPlan",
    "TimingBreakdown",
    "batch_workers",
    "cascade_ksjq",
    "cascade_progressive",
    "categorize",
    "default_engine",
    "find_k",
    "find_k_at_least_delta",
    "find_k_at_most_delta",
    "ksjq",
    "ksjq_progressive",
    "make_plan",
    "plan_shards",
    "run_cartesian",
    "run_cascade_indexed",
    "run_cascade_naive",
    "run_cascade_parallel",
    "run_cascade_pruned",
    "run_dominator",
    "run_indexed",
    "run_grouping",
    "run_naive",
    "run_parallel",
    "shard_bounds",
    "target_rows_exact",
    "target_rows_paper",
]
