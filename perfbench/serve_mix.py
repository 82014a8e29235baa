"""``serve-mix``: an open loop of small queries over HTTP.

24 registered pairs, four per distribution and aggregate setting, of
200 rows a side in 10 join groups (4,000 joined rows). The mix is
/query with ``algorithm="auto"`` in faithful and exact mode, 10%
/find_k and 10% progressive /query, sent at fixed intervals at each
rate of a short ladder. Each setting has its own k, below the jump in
answer size, so answers hold a few to tens of rows. At this size
``auto`` picks grouping: the serving and api layers carry a large share
of each request, and the exact runners and worker pools never run.

The rates stay far below capacity. Server threads share one interpreter
lock, so two requests in service at once slow each other; on a shared
2-core machine that overlap, not the queries, made the latency figures
swing between runs at higher rates. For the same reason the latency
percentiles cover the /query requests: a /find_k costs 1 to 10 times a
query depending on how many full evaluations its search needs, so the
10% of /find_k requests would set the p95 on their own. They are timed
by ``serving.find_k_ms`` in the traced run instead.
"""

from __future__ import annotations

import json
import select
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from repro.api import Engine, QuerySpec
from repro.datagen import generate_relation_pair

import benchutil
from benchutil import Outcome, mean, median, quantile
from checks import exact_mismatch, oracle_pairs, superset_mismatch
from layers import BLIND_SPOT, PER_LAYER_UNITS, plan_hit_ratio, recoveries, span_metrics
from loadgen import Sample, open_loop
from tracer import Span

HERE = Path(__file__).resolve().parent

N_ROWS, N_ATTRS, N_GROUPS = 200, 6, 10
#: (distribution, aggregate attributes) -> the k queried, below the
#: jump in answer size for 200-row relations.
K_TABLE = {
    ("independent", 0): 10,
    ("correlated", 0): 11,
    ("anticorrelated", 0): 10,
    ("independent", 1): 9,
    ("correlated", 1): 10,
    ("anticorrelated", 1): 9,
}
#: Pairs per setting: answer sizes swing between draws of 200-row
#: relations, and several draws per setting average that out.
PAIRS_PER_SETTING = 4
FIND_K_DELTAS = (10, 20)
#: Fixed arrival rates (req/s), at 15-30% of the mix's closed-loop
#: capacity over two connections on a 2-core machine (36-43 req/s).
LADDER = (6.0, 8.0, 10.0)
REFERENCE_RATE = 8.0
#: A rung meets the latency objective when its p95 is within this limit,
#: no request fails and the generator's lag does not grow.
P95_LIMIT_MS = 400.0
LAG_GROWTH_MS = 50.0
SETUP_REPEATS = 3
SENDERS = 2

PAIRS = [(dist, a, copy) for dist, a in K_TABLE for copy in range(PAIRS_PER_SETTING)]


def pair_names(pair: tuple[str, int, int]) -> tuple[str, str]:
    dist, a, copy = pair
    return f"{dist}-a{a}-{copy}-L", f"{dist}-a{a}-{copy}-R"


def datasets(seed: int) -> dict[str, object]:
    """Every registered relation, by name, for ``seed``."""
    out = {}
    for i, pair in enumerate(PAIRS):
        left, right = generate_relation_pair(n=N_ROWS, d=N_ATTRS, g=N_GROUPS,
                                             distribution=pair[0], a=pair[1],
                                             seed=seed * 1000 + i)
        out.update(zip(pair_names(pair), (left, right)))
    return out


def _aggregate(a: int) -> str | None:
    return "sum" if a else None


def _request(kind: str, pair: tuple[str, int, int], mode: str, delta: int) -> dict:
    body: dict[str, object] = {"datasets": list(pair_names(pair)),
                               "aggregate": _aggregate(pair[1])}
    k = K_TABLE[pair[:2]]
    if kind == "find_k":
        body.update(delta=delta, method="binary")
    else:
        body.update(k=k, algorithm="auto", mode=mode, progressive=kind == "progressive")
    return {"kind": kind, "path": "/find_k" if kind == "find_k" else "/query",
            "body": body, "pair": pair, "mode": mode, "delta": delta}


#: One cycle of the mix: (kind, mode). Every run sends the same shares
#: of each kind, so the mix itself does not vary between seeds.
CYCLE = (("query", "exact"), ("query", "faithful"), ("find_k", "faithful"),
         ("query", "exact"), ("query", "faithful"), ("query", "exact"),
         ("progressive", "faithful"), ("query", "faithful"), ("query", "exact"),
         ("query", "faithful"))


def request_mix(seed: int, rung: int, count: int) -> list[dict]:
    """``count`` requests cycling through the mix, the pairs visited in
    an order drawn from the seed."""
    order = np.random.default_rng([seed, rung]).permutation(len(PAIRS))
    out = []
    for i in range(count):
        kind, mode = CYCLE[i % len(CYCLE)]
        pair = PAIRS[order[i % len(PAIRS)]]
        out.append(_request(kind, pair, mode, FIND_K_DELTAS[(i // len(CYCLE)) % 2]))
    return out


def warm_up_requests() -> list[dict]:
    """One exact query per pair, which prepares and caches its plan."""
    return [_request("query", pair, "exact", 0) for pair in PAIRS]


def _encode(requests: list[dict]) -> list[tuple[str, bytes]]:
    return [(r["path"], json.dumps(r["body"]).encode()) for r in requests]


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------
class ServerProcess:
    """``server.py`` in its own process, driven over stdin/stdout."""

    def __init__(self, seed: int, trace: bool) -> None:
        self.trace_file = benchutil.OUT_DIR / "serve-mix-spans.json"
        if trace:
            benchutil.OUT_DIR.mkdir(exist_ok=True)
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server.py"), "--seed", str(seed),
             "--trace", str(int(trace)), "--trace-file", str(self.trace_file)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=benchutil.ROOT)
        self.port = int(self._line(60.0)["port"])

    def _line(self, timeout: float) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            self.kill()
            raise RuntimeError("serve-mix server process did not answer")
        return json.loads(line)

    def mark(self) -> None:
        self.proc.stdin.write("mark\n")
        self.proc.stdin.flush()
        self._line(30.0)

    def stop(self) -> dict:
        """Stop the server; its final counters (and spans, if traced)."""
        self.proc.stdin.write("stop\n")
        self.proc.stdin.close()
        final = self._line(60.0)
        self.proc.wait(timeout=30)
        if self.trace_file.exists():
            final.update(json.loads(self.trace_file.read_text()))
            self.trace_file.unlink()
        return final

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30)


def _set_up(seed: int, trace: bool, started: float) -> tuple[ServerProcess, float]:
    server = ServerProcess(seed, trace)
    try:
        for sample in open_loop("127.0.0.1", server.port, _encode(warm_up_requests()),
                                rate=1e6, senders=1):
            if sample.error or sample.status != 200:
                raise RuntimeError(f"warm-up request failed: {sample.status} {sample.error}")
    except BaseException:
        server.kill()
        raise
    return server, time.perf_counter() - started


# ----------------------------------------------------------------------
# Reading the replies
# ----------------------------------------------------------------------
def _parse(sample: Sample, request: dict) -> dict | None:
    """The reply as one dict (a progressive stream folds into
    ``{"pairs": [...], "done": {...}}``), or ``None`` if unreadable."""
    try:
        if request["kind"] != "progressive":
            return json.loads(sample.body)
        lines = [json.loads(line) for line in sample.body.splitlines() if line.strip()]
        return {"pairs": [x["pair"] for x in lines if "pair" in x],
                "done": next((x for x in lines if x.get("done")), None)}
    except (ValueError, KeyError, TypeError):
        return None


class Checker:
    """Reference answers for the mix, computed once per distinct query."""

    def __init__(self, seed: int) -> None:
        self.relations = datasets(seed)
        self._engine = Engine()
        self._oracles: dict[tuple, np.ndarray] = {}
        self._find_k: dict[tuple, int] = {}

    def relations_of(self, pair: tuple[str, int, int]) -> tuple[object, object]:
        left, right = pair_names(pair)
        return self.relations[left], self.relations[right]

    def oracle(self, pair: tuple[str, int, int]) -> np.ndarray:
        if pair not in self._oracles:
            self._oracles[pair] = oracle_pairs(*self.relations_of(pair), K_TABLE[pair[:2]],
                                               _aggregate(pair[1]))
        return self._oracles[pair]

    def library_find_k(self, pair: tuple[str, int, int], delta: int) -> int:
        key = (pair, delta)
        if key not in self._find_k:
            spec = QuerySpec.for_find_k(delta=delta, method="binary",
                                        aggregate=_aggregate(pair[1]))
            self._find_k[key] = self._engine.execute(*self.relations_of(pair), spec).k
        return self._find_k[key]

    def problem(self, request: dict, reply: dict | None) -> str | None:
        """Why this reply is wrong, or ``None`` when it is right."""
        if reply is None:
            return "unreadable reply"
        if request["kind"] == "find_k":
            want = self.library_find_k(request["pair"], request["delta"])
            return None if reply.get("k") == want else f"k={reply.get('k')}, library k={want}"
        if request["kind"] == "progressive":
            done = reply["done"]
            if done is None or done.get("partial") or done.get("count") != len(reply["pairs"]):
                return "stream did not complete"
        elif reply.get("partial"):
            return "partial answer"
        oracle = self.oracle(request["pair"])
        if request["mode"] == "exact":
            return exact_mismatch(reply["pairs"], oracle)
        return superset_mismatch(reply["pairs"], oracle)


def _judge(samples: list[Sample], requests: list[dict], checker: Checker,
           outcome: Outcome) -> tuple[list[dict | None], list[bool]]:
    """Parse and check every reply; returns replies and per-sample success."""
    replies, ok = [], []
    for sample, request in zip(samples, requests):
        reply, problem = None, None
        if sample.error is not None or sample.status != 200:
            outcome.errors.append(sample.error or f"HTTP {sample.status}")
        else:
            reply = _parse(sample, request)
            problem = checker.problem(request, reply)
            if problem is not None:
                outcome.wrong.append(f"{request['path']} {request['body']}: {problem}")
        replies.append(reply)
        ok.append(reply is not None and problem is None)
    return replies, ok


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
def _lag_growth_ms(samples: list[Sample]) -> float:
    """How much later the generator ran at the end of a step than at its start."""
    third = max(1, len(samples) // 3)
    return 1000.0 * (mean([s.lag for s in samples[-third:]])
                     - mean([s.lag for s in samples[:third]]))


def _span_s(samples: list[Sample]) -> float:
    """From the first request's due time to the last reply."""
    return max(s.done for s in samples) - samples[0].due


def _properties(requests: list[dict], replies: list, checker: Checker,
                final: dict) -> dict[str, object]:
    engine = Engine()
    joined = sorted({engine.plan(*checker.relations_of(pair), aggregate=_aggregate(pair[1]))
                     .stats().join_size for pair in PAIRS})
    sizes = [len(r["pairs"]) for r, q in zip(replies, requests)
             if r is not None and q["kind"] != "find_k"]
    algorithms: dict[str, int] = {}
    for reply, request in zip(replies, requests):
        name = (request["kind"] if request["kind"] != "query"
                else (reply or {}).get("algorithm", "?"))
        key = f"{name}/serial"
        algorithms[key] = algorithms.get(key, 0) + 1
    return {
        "resilience_recoveries": recoveries(final["cache_final"]),
        "joined_rows_per_pair": joined,
        "answer_size_quartiles": [quantile(sizes, q) for q in (0.25, 0.5, 0.75)],
        "algorithm_executor_counts": algorithms,
        "server_process_pool_cpu_s": final["children_cpu_s"],
        "plan_hit_share": plan_hit_ratio(final["cache_marked"], final["cache_final"]),
        "machine": benchutil.machine_facts(),
    }


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    setups = []
    server = None
    for rep in range(SETUP_REPEATS):
        if server is not None:
            server.stop()
        started = benchutil.PROCESS_START if rep == 0 else time.perf_counter()
        server, elapsed = _set_up(seed, False, started)
        setups.append(elapsed)
    outcome.put("setup_s", median(setups), "s", len(setups))

    checker = Checker(seed)
    if trace:
        return _traced(seed, seconds, server, checker, outcome)

    rungs = []  # (rate, requests, samples)
    try:
        server.mark()
        for rung, rate in enumerate(LADDER):
            requests = request_mix(seed, rung, max(1, int(rate * seconds / len(LADDER))))
            samples = open_loop("127.0.0.1", server.port, _encode(requests), rate, SENDERS)
            rungs.append((rate, requests, samples))
    finally:
        final = server.stop()

    all_requests = [q for _, requests, _ in rungs for q in requests]
    all_samples = [s for _, _, samples in rungs for s in samples]
    replies, ok = _judge(all_samples, all_requests, checker, outcome)
    outcome.attempted = len(all_samples)
    outcome.failed = ok.count(False)
    latencies = [s.latency * 1000.0 for s, q in zip(all_samples, all_requests)
                 if q["kind"] != "find_k"]
    find_k = [s.latency * 1000.0 for s, q in zip(all_samples, all_requests)
              if q["kind"] == "find_k"]
    print(f"  /find_k: p50 {median(find_k):8.2f} ms  n={len(find_k)}")
    outcome.put("latency_p50_ms", median(latencies), "ms", len(latencies))
    outcome.put("latency_p95_ms", quantile(latencies, 0.95), "ms", len(latencies))
    outcome.put("throughput_ops", sum(ok) / sum(_span_s(s) for _, _, s in rungs),
                "ops/s", len(all_samples))
    slo, start = 0.0, 0
    for rate, _, samples in rungs:
        good = all(ok[start : start + len(samples)])
        start += len(samples)
        lat = [s.latency * 1000.0 for s in samples]
        growth = _lag_growth_ms(samples)
        passed = good and quantile(lat, 0.95) <= P95_LIMIT_MS and growth <= LAG_GROWTH_MS
        print(f"  rung {rate:5.1f} req/s: p50 {median(lat):8.2f} ms  p95 "
              f"{quantile(lat, 0.95):8.2f} ms  lag growth {growth:7.2f} ms  "
              f"n={len(lat)}  {'meets' if passed else 'misses'} the objective")
        if passed:
            slo = len(samples) / _span_s(samples)
    outcome.put("slo_rate_rps", slo, "req/s", len(LADDER))
    outcome.put("error_share", outcome.failed / max(outcome.attempted, 1), "fraction",
                outcome.attempted)
    outcome.put("peak_rss_mb", final["peak_rss_mb"], "MB", 1)
    outcome.properties = _properties(all_requests, replies, checker, final)
    return outcome


def _traced(seed: int, seconds: float, server: ServerProcess, checker: Checker,
            outcome: Outcome) -> Outcome:
    """Half the time untraced, then half on a traced server, both at the
    reference rate; the per-layer metrics come from the traced half."""
    count = max(1, int(REFERENCE_RATE * seconds / 2))
    plain_requests = request_mix(seed, 10, count)
    try:
        server.mark()
        plain = open_loop("127.0.0.1", server.port, _encode(plain_requests),
                          REFERENCE_RATE, SENDERS)
    finally:
        plain_final = server.stop()
    traced_server, _ = _set_up(seed, True, time.perf_counter())
    requests = request_mix(seed, 11, count)
    try:
        traced_server.mark()
        samples = open_loop("127.0.0.1", traced_server.port, _encode(requests),
                            REFERENCE_RATE, SENDERS)
    finally:
        final = traced_server.stop()

    _judge(plain, plain_requests, checker, outcome)
    replies, ok = _judge(samples, requests, checker, outcome)
    outcome.attempted = len(plain) + len(samples)
    outcome.failed = len(outcome.wrong) + len(outcome.errors)
    done = [(s, q, r) for s, q, r, good in zip(samples, requests, replies, ok) if good]
    spans = [Span.from_json(row) for row in final["spans"]]
    layer = span_metrics(spans, len(done), sum(s.done - s.sent for s, _, _ in done),
                         front_end=True)
    overhead = [1000.0 * (s.done - s.sent - r["elapsed"]) for s, q, r in done
                if q["kind"] != "progressive"]
    first = [1000.0 * (s.first_pair - s.due) for s, q, _ in done
             if q["kind"] == "progressive" and s.first_pair is not None]
    find_k = [s for s, q, _ in done if q["kind"] == "find_k"]
    queue_wait = [1000.0 * w for w in final["values"].get("serving.queue_wait", [])]
    shed = sum(1 for s in plain + samples if s.status in (429, 503))
    values = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    values.update(layer)
    values.update({
        "serving.overhead_ms": median(overhead),
        "serving.queue_wait_ms": quantile(queue_wait, 0.95),
        "serving.first_pair_ms": median(first),
        "serving.find_k_ms": median([1000.0 * s.latency for s in find_k]),
        "serving.shed": float(shed),
        "api.plan_hit_ratio": plan_hit_ratio(final["cache_marked"], final["cache_final"]),
        "core.find_k_evaluations": mean([float(r["full_evaluations"]) for s, q, r in done
                                         if q["kind"] == "find_k"]),
        "core.index_builds_per_op": (final["cache_final"]["index_builds"]
                                     - final["cache_marked"]["index_builds"]) / max(len(done), 1),
        "resilience.recoveries": float(recoveries(final["cache_final"])
                                       + recoveries(plain_final["cache_final"])),
        "bench.lag_p95_ms": quantile([1000.0 * s.lag for s in plain + samples], 0.95),
        "bench.trace_overhead": (median([s.latency for s in samples])
                                 / median([s.latency for s in plain])),
    })
    for name, unit in PER_LAYER_UNITS.items():
        outcome.put(name, values[name], unit, len(done))
    outcome.properties = {"blind_spot": BLIND_SPOT,
                          "untraced_p50_ms": 1000.0 * median([s.latency for s in plain]),
                          "traced_p50_ms": 1000.0 * median([s.latency for s in samples])}
    return outcome
