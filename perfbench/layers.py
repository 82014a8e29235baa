"""Which library functions the traced run wraps, and the per-layer
metrics computed from their spans.

Every span-derived time is *self* time per operation, in ms: a span's
duration minus its children, so the layers add up to the traced part
of an operation and ``bench.unattributed_share`` is the rest.
"""

from __future__ import annotations

from typing import Any

from tracer import Span, Target, Tracer, self_times


def _record_pruned(tracer: Tracer, args: tuple, kwargs: dict, mask: Any) -> None:
    if len(mask):
        tracer.values["core.index_pruned_share"].append(float(mask.mean()))


def _record_queue_wait(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    if not kwargs.get("shed") and not kwargs.get("error"):
        tracer.values["serving.queue_wait"].append(float(kwargs.get("queue_wait", 0.0)))


_RUNNERS = [
    "repro.core.naive:run_naive",
    "repro.core.grouping:run_grouping",
    "repro.core.dominator:run_dominator",
    "repro.core.cartesian:run_cartesian",
    "repro.core.index:run_indexed",
    "repro.core.index:run_cascade_indexed",
    "repro.core.cascade:run_cascade_naive",
    "repro.core.cascade:run_cascade_pruned",
    "repro.core.find_k:find_k_at_least_delta",
    "repro.core.find_k:find_k_at_most_delta",
]

TARGETS: list[Target] = [
    Target("serving.encode", "repro.serving.protocol:json_response"),
    Target("serving.encode", "repro.serving.protocol:chunk"),
    Target("serving.metrics", "repro.serving.metrics:ServingMetrics.observe",
           on_result=_record_queue_wait),
    Target("api.execute", "repro.api.engine:Engine.execute"),
    Target("api.explain", "repro.api.engine:Engine.explain"),
    Target("api.stream", "repro.api.engine:Engine.stream"),
    Target("relational.join", "repro.core.plan:JoinPlan.view"),
    Target("relational.join", "repro.relational.join:JoinedView.oriented"),
    Target("relational.join", "repro.relational.join:JoinedView.oriented_for_pairs"),
    Target("relational.join", "repro.core.plan:CascadePlan.chains"),
    Target("relational.join", "repro.core.plan:CascadePlan.oriented"),
    Target("core.categorize", "repro.core.plan:JoinPlan.categorize_left"),
    Target("core.categorize", "repro.core.plan:JoinPlan.categorize_right"),
    *(Target("core.runner", where) for where in _RUNNERS),
    Target("core.runner", "repro.core.progressive:ksjq_progressive", kind="gen"),
    Target("core.dispatch", "repro.core.parallel:run_parallel", adopt=True),
    Target("core.dispatch", "repro.core.parallel:run_cascade_parallel", adopt=True),
    Target("core.index_build", "repro.core.index:DominanceIndex.build"),
    Target("core.index_build", "repro.core.index:DominanceIndex.with_inserted_rows"),
    Target("core.index_prune", "repro.core.index:CellPartition.pruned_cells",
           on_result=_record_pruned),
    Target("core.delta", "repro.relational.dataset:Dataset.insert_rows"),
    Target("core.delta", "repro.relational.dataset:Dataset.delete_rows"),
    Target("skyline.candidates", "repro.skyline.kdominant:k_dominant_candidates_block"),
    Target("skyline.verify", "repro.skyline.dominance:k_dominated_any"),
    Target("skyline.verify", "repro.skyline.dominance:is_k_dominated", kind="inner"),
    Target("skyline.tsa", "repro.skyline.kdominant:k_dominant_skyline"),
]

#: Per-layer metric name -> span layer whose self time it reports.
SPAN_METRICS = {
    "serving.encode_ms": "serving.encode",
    "api.explain_ms": "api.explain",
    "api.execute_self_ms": "api.execute",
    "relational.join_ms": "relational.join",
    "core.categorize_ms": "core.categorize",
    "core.runner_ms": "core.runner",
    "core.dispatch_ms": "core.dispatch",
    "core.index_build_ms": "core.index_build",
    "core.index_prune_ms": "core.index_prune",
    "core.delta_ms": "core.delta",
    "skyline.candidates_ms": "skyline.candidates",
    "skyline.verify_ms": "skyline.verify",
    "skyline.tsa_ms": "skyline.tsa",
}

#: Every per-layer metric a traced run prints, with its unit. Metrics
#: that do not apply to a workload read 0.
PER_LAYER_UNITS = {
    "serving.overhead_ms": "ms",
    "serving.queue_wait_ms": "ms",
    "serving.encode_ms": "ms",
    "serving.first_pair_ms": "ms",
    "serving.find_k_ms": "ms",
    "serving.shed": "count",
    "api.explain_ms": "ms",
    "api.execute_self_ms": "ms",
    "api.plan_hit_ratio": "fraction",
    "relational.join_ms": "ms",
    "core.categorize_ms": "ms",
    "core.runner_ms": "ms",
    "core.dispatch_ms": "ms",
    "core.index_build_ms": "ms",
    "core.index_prune_ms": "ms",
    "core.index_pruned_share": "fraction",
    "core.answer_per_checked": "fraction",
    "core.find_k_evaluations": "count",
    "core.delta_ms": "ms",
    "core.fallback_share": "fraction",
    "core.index_builds_per_op": "count",
    "skyline.candidates_ms": "ms",
    "skyline.verify_ms": "ms",
    "skyline.tsa_ms": "ms",
    "resilience.recoveries": "count",
    "bench.lag_p95_ms": "ms",
    "bench.trace_overhead": "ratio",
    "bench.unattributed_share": "fraction",
    "bench.serving_api_share": "fraction",
    "bench.skyline_dispatch_share": "fraction",
}

BLIND_SPOT = (
    "spans inside process-pool children are not captured; their time is "
    "charged to core.dispatch_ms"
)


def span_metrics(spans: list[Span], ops: int, op_seconds: float,
                 front_end: bool = False) -> dict[str, float]:
    """Per-operation self times plus the coverage shares.

    ``op_seconds`` is the summed wall time of the traced operations.
    Operation time that no span covers is unattributed; with
    ``front_end`` it is time in the serving front-end (HTTP framing,
    admission, queueing) and counts toward ``bench.serving_api_share``.
    Shares are of all self time plus the uncovered time, so concurrent
    shard work on pool threads does not push them past 1.
    """
    per_layer = self_times(spans)
    out = {metric: 1000.0 * per_layer.get(layer, 0.0) / max(ops, 1)
           for metric, layer in SPAN_METRICS.items()}
    roots = sum(s.end - s.start for s in spans if s.parent is None)
    uncovered = max(0.0, op_seconds - roots)
    total = max(sum(per_layer.values()) + uncovered, 1e-12)
    out["bench.unattributed_share"] = uncovered / max(op_seconds, 1e-12)
    out["bench.serving_api_share"] = (
        (uncovered if front_end else 0.0)
        + sum(t for layer, t in per_layer.items() if layer.startswith(("serving.", "api.")))
    ) / total
    out["bench.skyline_dispatch_share"] = sum(
        t for layer, t in per_layer.items()
        if layer.startswith("skyline.") or layer == "core.dispatch"
    ) / total
    return out


def recoveries(cache_info: dict[str, Any]) -> int:
    res = cache_info.get("resilience", {})
    return int(sum(res.get(key, 0) for key in ("shard_retries", "pool_rebuilds",
                                               "degradations")))


def plan_hit_ratio(before: dict[str, Any], after: dict[str, Any]) -> float:
    hits = after.get("hits", 0) - before.get("hits", 0)
    misses = after.get("misses", 0) - before.get("misses", 0)
    return hits / (hits + misses) if hits + misses else 0.0
