"""``exact-sweep``: one caller runs distinct exact-family queries.

A closed loop on the main thread of a library ``Engine``. Per pass, on a
fresh engine: for each 10,000-row pair, a k-sweep through ``auto``
with the ``max`` aggregate (not strictly monotone, so only naive,
parallel or indexed can answer) and the same sweep through explicit
``naive``, ``parallel`` and ``indexed``; then ``auto`` and ``parallel``
on a 50,410-row pair, whose shards are large enough for the process
executor; then one 3-leg cascade. k stays below the jump in answer
size. Join materialization, the candidate and verify kernels, index
pruning and pool spawn do almost all the work; ``serving`` does none.
"""

from __future__ import annotations

import time

import numpy as np
from repro.api import Engine, QuerySpec
from repro.datagen import generate_relation_pair
from repro.relational import HopSpec, Relation, RelationSchema

import benchutil
from benchutil import Outcome, mean, median, quantile
from checks import canonical
from layers import (BLIND_SPOT, PER_LAYER_UNITS, TARGETS, plan_hit_ratio, recoveries,
                    span_metrics)
from tracer import Tracer

N_ATTRS, AGGREGATE = 6, "max"
#: name -> (distribution, rows per side, join groups, k values)
PAIRS = {
    "independent": ("independent", 400, 16, (8, 9)),
    "correlated": ("correlated", 400, 16, (9, 10)),
    "anticorrelated": ("anticorrelated", 400, 16, (8, 9)),
}
PRESETS = ("auto", "naive", "parallel", "indexed")
#: 710 rows a side in 10 groups: 50,410 joined rows, so each of two
#: shards holds 25,205 x 11 = 277,255 elements, past the process
#: executor's 262,144.
LARGE = ("independent", 710, 10, 9)
LARGE_PRESETS = ("auto", "parallel")
CASCADE_ROWS, CASCADE_K = 40, 6
#: Closed-loop latency objective behind ``slo_rate_rps``.
P95_LIMIT_MS = 10_000.0
SETUP_REPEATS = 5


def _hops() -> list[object]:
    return [HopSpec.on_columns("dst", "src")] * 2


def _cascade_legs(rng: np.random.Generator, rows: int) -> list[object]:
    """Three flight legs A -> {P,Q} -> {R,S} -> {T,U} joined on dst/src."""
    names = ["cost", "dur", "rtg"]
    schema = RelationSchema.build(skyline=names, aggregate=names[:1],
                                  higher_is_better=["rtg"], payload=["src", "dst"])
    cities = [["A"], ["P", "Q"], ["R", "S"], ["T", "U"]]
    legs = []
    for ins, outs in zip(cities, cities[1:]):
        quality = rng.beta(2, 2, rows)
        legs.append(Relation(schema, {
            "cost": np.round(60 + 250 * quality + rng.normal(0, 20, rows)),
            "dur": np.round(1 + 3 * rng.uniform(size=rows), 1),
            "rtg": np.round(1 + 9 * np.clip(quality + rng.normal(0, 0.2, rows), 0, 1)),
            "src": [ins[j % len(ins)] for j in range(rows)],
            "dst": [outs[j % len(outs)] for j in range(rows)],
        }))
    return legs


def make_inputs(seed: int) -> dict[str, object]:
    """Every registered relation, by name, for ``seed``."""
    out: dict[str, object] = {}
    shapes = {**{name: spec[:3] for name, spec in PAIRS.items()}, "large": LARGE[:3]}
    for i, (name, (dist, rows, groups)) in enumerate(shapes.items()):
        left, right = generate_relation_pair(n=rows, d=N_ATTRS, g=groups, distribution=dist,
                                             a=1, seed=seed * 1000 + i)
        out[name + "-L"], out[name + "-R"] = left, right
    legs = _cascade_legs(np.random.default_rng([seed, 99]), CASCADE_ROWS)
    out.update({f"leg{i}": leg for i, leg in enumerate(legs)})
    return out


def query_list() -> list[tuple[str, tuple[str, ...], object]]:
    """``(label, dataset names, spec)`` for one pass, in run order."""
    out = []
    for name, (_, _, _, ks) in PAIRS.items():
        for k in ks:
            for preset in PRESETS:
                spec = QuerySpec.for_ksjq(k=k, algorithm=preset, mode="exact",
                                          aggregate=AGGREGATE)
                out.append((f"{name}/k{k}", (name + "-L", name + "-R"), spec))
    for preset in LARGE_PRESETS:
        spec = QuerySpec.for_ksjq(k=LARGE[3], algorithm=preset, mode="exact",
                                  aggregate=AGGREGATE)
        out.append((f"large/k{LARGE[3]}", ("large-L", "large-R"), spec))
    cascade = QuerySpec.for_cascade(k=CASCADE_K, hops=_hops(), mode="exact",
                                    aggregate=AGGREGATE)
    out.append((f"cascade/k{CASCADE_K}", ("leg0", "leg1", "leg2"), cascade))
    return out


def _engine(inputs: dict[str, object]) -> Engine:
    engine = Engine()
    for name, relation in inputs.items():
        engine.register(name, relation)
    return engine


def _set_up(seed: int) -> dict[str, object]:
    """Generate the inputs and run every preset once on a small pair."""
    inputs = make_inputs(seed)
    left, right = generate_relation_pair(n=60, d=N_ATTRS, g=4, a=1, seed=seed)
    engine = _engine({"warm-L": left, "warm-R": right, "leg0": inputs["leg0"],
                      "leg1": inputs["leg1"], "leg2": inputs["leg2"]})
    for preset in PRESETS:
        engine.execute("warm-L", "warm-R", QuerySpec.for_ksjq(
            k=9, algorithm=preset, mode="exact", aggregate=AGGREGATE, parallelism=2))
    return inputs


class Op:
    """One timed query: its latency and what it returned."""

    __slots__ = ("label", "latency", "algorithm", "executor", "count", "checked", "answer")

    def __init__(self, label: str, latency: float, result: object, process: bool) -> None:
        self.label = label
        self.latency = latency
        self.algorithm = result.algorithm
        self.executor = "process" if process else "in-process"
        self.count = result.count
        self.checked = getattr(result, "checked", 0) or 0
        rows = getattr(result, "pairs", None)
        if rows is None:
            rows = result.chains
        self.answer = (canonical(rows, rows.shape[1]), rows.shape[1])


def _passes(inputs: dict[str, object], seconds: float, tracer: object = None
            ) -> tuple[list[Op], float, list[tuple[dict, dict]]]:
    """Whole passes over the query list until ``seconds`` have gone by."""
    queries = query_list()
    ops: list[Op] = []
    infos = []
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        engine = _engine(inputs)
        before = engine.cache_info()
        for label, names, spec in queries:
            if tracer is not None:
                tracer.op = len(ops)
            cpu = benchutil.children_cpu_seconds()
            t0 = time.perf_counter()
            result = engine.execute(*names, spec)
            latency = time.perf_counter() - t0
            ops.append(Op(label, latency, result, benchutil.children_cpu_seconds() > cpu))
        infos.append((before, engine.cache_info()))
    return ops, time.perf_counter() - started, infos


def _check(ops: list[Op], inputs: dict[str, object], outcome: Outcome) -> None:
    """Every preset gives the same bytes for one (pair, k) as ``naive``
    (or as the first preset run, where ``naive`` is not run); the cascade
    matches the naive cascade."""
    reference = {op.label: op.answer for op in ops if op.algorithm == "naive"}
    for op in ops:
        if op.label.startswith("cascade/") and op.label not in reference:
            spec = QuerySpec.for_cascade(k=CASCADE_K, hops=_hops(),
                                         algorithm="naive", mode="exact", aggregate=AGGREGATE)
            chains = _engine(inputs).execute("leg0", "leg1", "leg2", spec).chains
            reference[op.label] = (canonical(chains, chains.shape[1]), chains.shape[1])
        want = reference.setdefault(op.label, op.answer)
        if op.answer != want:
            outcome.wrong.append(f"{op.label} via {op.algorithm}: answer differs from "
                                 "the reference answer")


def _counters(infos: list[tuple[dict, dict]]) -> dict[str, float]:
    """Plan-cache and index counters summed over every pass's engine."""
    return {key: sum(after[key] - before[key] for before, after in infos)
            for key in ("hits", "misses", "index_builds")}


def _properties(ops: list[Op], inputs: dict[str, object], infos: list) -> dict[str, object]:
    engine = Engine()
    joined = {name: engine.plan(inputs[name + "-L"], inputs[name + "-R"],
                                aggregate=AGGREGATE).stats().join_size
              for name in (*PAIRS, "large")}
    joined["cascade"] = int(engine.cascade_plan(
        [inputs["leg0"], inputs["leg1"], inputs["leg2"]], hops=_hops(),
        aggregate=AGGREGATE).chains().shape[0])
    counts: dict[str, int] = {}
    for op in ops:
        key = f"{op.algorithm}/{op.executor}"
        counts[key] = counts.get(key, 0) + 1
    return {
        "resilience_recoveries": recoveries(engine.cache_info()),
        "joined_rows_per_pair": joined,
        "answer_size_quartiles": [quantile([op.count for op in ops], q)
                                  for q in (0.25, 0.5, 0.75)],
        "algorithm_executor_counts": counts,
        "plan_hit_share": plan_hit_ratio({}, _counters(infos)),
        "machine": benchutil.machine_facts(),
    }


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    setups = []
    for rep in range(SETUP_REPEATS):
        started = benchutil.PROCESS_START if rep == 0 else time.perf_counter()
        inputs = _set_up(seed)
        setups.append(time.perf_counter() - started)
    if trace:
        return _traced(inputs, seconds, outcome, median(setups))

    ops, elapsed, infos = _passes(inputs, seconds)
    _check(ops, inputs, outcome)
    outcome.attempted = len(ops)
    outcome.failed = len(outcome.wrong)
    latencies = [op.latency * 1000.0 for op in ops]
    p95 = quantile(latencies, 0.95)
    outcome.put("setup_s", median(setups), "s", len(setups))
    outcome.put("latency_p50_ms", median(latencies), "ms", len(ops))
    outcome.put("latency_p95_ms", p95, "ms", len(ops))
    outcome.put("throughput_ops", len(ops) / elapsed, "ops/s", len(ops))
    outcome.put("slo_rate_rps", len(ops) / elapsed if p95 <= P95_LIMIT_MS else 0.0,
                "req/s", len(ops))
    outcome.put("error_share", outcome.failed / max(len(ops), 1), "fraction", len(ops))
    outcome.put("peak_rss_mb", benchutil.peak_rss_mb(), "MB", 1)
    outcome.properties = _properties(ops, inputs, infos)
    return outcome


def _traced(inputs: dict[str, object], seconds: float, outcome: Outcome,
            setup: float) -> Outcome:
    plain, _, _ = _passes(inputs, seconds / 2)
    tracer = Tracer()
    tracer.install(TARGETS)
    try:
        ops, _, infos = _passes(inputs, seconds / 2, tracer)
    finally:
        tracer.uninstall()
    _check(plain + ops, inputs, outcome)
    outcome.attempted = len(plain) + len(ops)
    outcome.failed = len(outcome.wrong)

    values = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    values.update(span_metrics(tracer.spans, len(ops), sum(op.latency for op in ops)))
    checked = sum(op.checked for op in ops)
    counters = _counters(infos)
    values.update({
        "api.plan_hit_ratio": plan_hit_ratio({}, counters),
        "core.index_pruned_share": mean(tracer.values.get("core.index_pruned_share", [])),
        "core.answer_per_checked": (sum(op.count for op in ops if op.checked) / checked
                                    if checked else 0.0),
        "core.index_builds_per_op": counters["index_builds"] / max(len(ops), 1),
        "resilience.recoveries": float(recoveries(Engine().cache_info())),
        "bench.trace_overhead": (median([op.latency for op in ops])
                                 / median([op.latency for op in plain])),
    })
    for name, unit in PER_LAYER_UNITS.items():
        outcome.put(name, values[name], unit, len(ops))
    outcome.properties = {
        "blind_spot": BLIND_SPOT,
        "setup_s": setup,
        "process_executor_ops": sum(op.executor == "process" for op in ops),
    }
    return outcome
