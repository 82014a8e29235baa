"""``mutate-read``: a closed loop of small mutations, each followed by reads.

One registered pair of 150 rows a side in 10 join groups, and two
``maintain()`` handles (exact mode, ``sum``). Each operation inserts or
deletes a batch of rows, alternating sides, then reads both handles and
runs one ad-hoc ``auto`` query and one ``indexed`` query. It uses the
catalog, plan cache, index and ``core`` layers the opposite way round
from ``serve-mix``: every operation invalidates the plan cache, deletes
invalidate the catalog index while appends maintain it, and delta
maintenance runs instead of a full verify.
"""

from __future__ import annotations

import time

import numpy as np
from repro.api import Engine, QuerySpec
from repro.datagen import generate_relation_pair

import benchutil
from benchutil import Outcome, mean, median, quantile
from checks import exact_mismatch, oracle_pairs
from layers import BLIND_SPOT, PER_LAYER_UNITS, TARGETS, plan_hit_ratio, recoveries
from layers import span_metrics
from tracer import Tracer

N_ROWS, N_ATTRS, N_GROUPS, AGGREGATE = 150, 6, 10, "sum"
HANDLE_KS = (8, 9)
QUERY_K = 9
BATCH = 3
#: Every CHECK_EVERY-th operation is checked against a fresh naive
#: recompute after the timed phase.
CHECK_EVERY = 10
P95_LIMIT_MS = 2_000.0
SETUP_REPEATS = 5


def _specs() -> tuple[list[QuerySpec], QuerySpec, QuerySpec]:
    handles = [QuerySpec.for_ksjq(k=k, mode="exact", aggregate=AGGREGATE) for k in HANDLE_KS]
    auto = QuerySpec.for_ksjq(k=QUERY_K, mode="exact", aggregate=AGGREGATE)
    indexed = QuerySpec.for_ksjq(k=QUERY_K, algorithm="indexed", mode="exact",
                                 aggregate=AGGREGATE)
    return handles, auto, indexed


class Loop:
    """The engine, its handles and the operation counter."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        left, right = generate_relation_pair(n=N_ROWS, d=N_ATTRS, g=N_GROUPS, a=1,
                                             seed=seed * 1000)
        self.engine = Engine()
        self.engine.register("L", left)
        self.engine.register("R", right)
        handle_specs, self.auto, self.indexed = _specs()
        self.handles = [self.engine.maintain("L", "R", spec) for spec in handle_specs]
        self.done = 0
        self.read()

    def close(self) -> None:
        for handle in self.handles:
            handle.close()

    def read(self) -> list[object]:
        return [*(h.result() for h in self.handles),
                self.engine.execute("L", "R", self.auto),
                self.engine.execute("L", "R", self.indexed)]

    def mutate(self) -> None:
        """Operation ``done``: insert on even pairs of steps, delete on
        odd ones, alternating sides; rows drawn from (seed, op)."""
        i = self.done
        rng = np.random.default_rng([self.seed, i])
        dataset = self.engine.catalog["L" if i % 2 == 0 else "R"]
        if (i // 2) % 2 == 0:
            values = rng.uniform(0.0, 1.0, size=(BATCH, N_ATTRS))
            dataset.insert_rows(
                {**{f"s{j + 1}": float(v) for j, v in enumerate(row)},
                 "grp": int(rng.integers(N_GROUPS))}
                for row in values)
        else:
            dataset.delete_rows(rng.choice(len(dataset), BATCH, replace=False).tolist())
        self.done += 1


def _phase(loop: Loop, seconds: float, tracer: object = None
           ) -> tuple[list[float], list[object], float, dict, dict, dict]:
    """Operations until ``seconds`` have gone by; keeps the inputs and
    answers of every CHECK_EVERY-th operation for the checks."""
    latencies, kept, algorithms = [], [], {}
    before = loop.engine.cache_info()
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        if tracer is not None:
            tracer.op = loop.done
        t0 = time.perf_counter()
        loop.mutate()
        answers = loop.read()
        latencies.append(time.perf_counter() - t0)
        for answer in answers[2:]:
            key = f"{answer.algorithm}/in-process"
            algorithms[key] = algorithms.get(key, 0) + 1
        if loop.done % CHECK_EVERY == 0:
            snapshots = (loop.engine.catalog["L"].relation, loop.engine.catalog["R"].relation)
            kept.append((loop.done, snapshots, answers))
    elapsed = time.perf_counter() - started
    return latencies, kept, elapsed, algorithms, before, loop.engine.cache_info()


def _check(kept: list, outcome: Outcome) -> None:
    names = [f"handle k={k}" for k in HANDLE_KS] + [f"auto k={QUERY_K}",
                                                  f"indexed k={QUERY_K}"]
    for op, (left, right), answers in kept:
        oracles = {k: oracle_pairs(left, right, k, AGGREGATE) for k in {*HANDLE_KS, QUERY_K}}
        for name, k, answer in zip(names, (*HANDLE_KS, QUERY_K, QUERY_K), answers):
            problem = exact_mismatch(answer.pairs, oracles[k])
            if problem is not None:
                outcome.wrong.append(f"operation {op}, {name}: {problem}")


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    setups = []
    loop = None
    for rep in range(SETUP_REPEATS):
        if loop is not None:
            loop.close()
        started = benchutil.PROCESS_START if rep == 0 else time.perf_counter()
        loop = Loop(seed)
        setups.append(time.perf_counter() - started)
    try:
        if trace:
            return _traced(loop, seconds, outcome)
        latencies, kept, elapsed, algorithms, before, after = _phase(loop, seconds)
    finally:
        loop.close()
    _check(kept, outcome)
    outcome.attempted = len(latencies)
    outcome.failed = len(outcome.wrong)
    lat = [x * 1000.0 for x in latencies]
    p95 = quantile(lat, 0.95)
    outcome.put("setup_s", median(setups), "s", len(setups))
    outcome.put("latency_p50_ms", median(lat), "ms", len(lat))
    outcome.put("latency_p95_ms", p95, "ms", len(lat))
    outcome.put("throughput_ops", len(lat) / elapsed, "ops/s", len(lat))
    outcome.put("slo_rate_rps", len(lat) / elapsed if p95 <= P95_LIMIT_MS else 0.0,
                "req/s", len(lat))
    outcome.put("error_share", outcome.failed / max(len(lat), 1), "fraction", len(lat))
    outcome.put("peak_rss_mb", benchutil.peak_rss_mb(), "MB", 1)
    sizes = [len(a.pairs) for _, _, answers in kept for a in answers]
    outcome.properties = {
        "joined_rows": loop.engine.plan("L", "R", aggregate=AGGREGATE).stats().join_size,
        "answer_size_quartiles": [quantile(sizes, q) for q in (0.25, 0.5, 0.75)],
        "algorithm_executor_counts": algorithms,
        "plan_hit_share": plan_hit_ratio(before, after),
        "checked_operations": len(kept),
        "resilience_recoveries": recoveries(after),
        "machine": benchutil.machine_facts(),
    }
    return outcome


def _traced(loop: Loop, seconds: float, outcome: Outcome) -> Outcome:
    plain, plain_kept, _, _, _, _ = _phase(loop, seconds / 2)
    tracer = Tracer()
    tracer.install(TARGETS)
    try:
        latencies, kept, _, _, before, after = _phase(loop, seconds / 2, tracer)
    finally:
        tracer.uninstall()
    _check(plain_kept + kept, outcome)
    outcome.attempted = len(plain) + len(latencies)
    outcome.failed = len(outcome.wrong)
    ops = len(latencies)

    def delta(key: str) -> float:
        return float(after.get(key, 0) - before.get(key, 0))

    maintained, fallbacks = delta("maintained"), delta("fallback_recomputes")
    adhoc = [a for _, _, answers in kept for a in answers[2:]]
    checked = sum(a.checked or 0 for a in adhoc)
    values = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    values.update(span_metrics(tracer.spans, ops, sum(latencies)))
    values.update({
        "api.plan_hit_ratio": plan_hit_ratio(before, after),
        "core.index_pruned_share": mean(tracer.values.get("core.index_pruned_share", [])),
        "core.answer_per_checked": (sum(a.count for a in adhoc if a.checked) / checked
                                    if checked else 0.0),
        "core.fallback_share": (fallbacks / (maintained + fallbacks)
                                if maintained + fallbacks else 0.0),
        "core.index_builds_per_op": delta("index_builds") / max(ops, 1),
        "resilience.recoveries": float(recoveries(after)),
        "bench.trace_overhead": median(latencies) / median(plain),
    })
    for name, unit in PER_LAYER_UNITS.items():
        outcome.put(name, values[name], unit, ops)
    outcome.properties = {"blind_spot": BLIND_SPOT}
    return outcome
