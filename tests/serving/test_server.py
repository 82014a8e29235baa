"""End-to-end server tests over a real socket.

Covers the four routes, the structured-error contract (typed JSON
bodies, never tracebacks), deadline partials over HTTP, 429 load
shedding under saturation, and the progressive chunked stream.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.api.spec import QuerySpec
from repro.core.parallel import available_cpus
from repro.serving.server import ServingConfig

from .conftest import RunningServer, demo_engine


# ----------------------------------------------------------------------
# Routes
# ----------------------------------------------------------------------
def test_healthz(served):
    status, _, body = served.request("GET", "/healthz")
    assert status == 200
    assert body["status"] == "ok"
    assert body["capacity"] == 4  # 2 workers + queue of 2


def test_query_matches_direct_engine_answer(served):
    status, headers, body = served.request(
        "POST", "/query", {"datasets": ["left", "right"], "k": 10}
    )
    assert status == 200
    assert headers["Content-Type"] == "application/json"
    assert body["partial"] is False
    expected = served.engine.execute(
        "left", "right", spec=QuerySpec.for_ksjq(k=10)
    )
    assert body["count"] == expected.count
    assert {tuple(p) for p in body["pairs"]} == set(
        map(tuple, expected.pairs.tolist())
    )
    assert body["algorithm"] == expected.algorithm


def test_find_k(served):
    status, _, body = served.request(
        "POST", "/find_k", {"datasets": ["left", "right"], "delta": 50}
    )
    assert status == 200
    assert isinstance(body["k"], int)
    assert body["method"] == "binary"
    assert body["steps"] and all("decision" in step for step in body["steps"])
    assert body["partial"] is False


def test_metrics_route_and_cache_info(served):
    served.request("POST", "/query", {"datasets": ["left", "right"], "k": 10})
    status, _, body = served.request("GET", "/metrics")
    assert status == 200
    assert body["routes"]["/query"]["requests"] >= 1
    assert "p99" in body["routes"]["/query"]["latency"]
    assert body["admission"]["capacity"] == 4
    # The same counters surface through the engine's cache_info.
    info = served.engine.cache_info()
    assert info["serving"]["/query"]["requests"] >= 1


# ----------------------------------------------------------------------
# Structured errors — typed JSON bodies, never tracebacks
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    ("method", "path", "raw", "status", "code"),
    [
        ("POST", "/query", b"not json", 400, "protocol_error"),
        ("POST", "/query", b"", 400, "protocol_error"),
        ("POST", "/query", b"[1, 2]", 400, "protocol_error"),
        ("GET", "/query", None, 405, "method_not_allowed"),
        ("POST", "/healthz", b"{}", 405, "method_not_allowed"),
        ("POST", "/nope", b"{}", 404, "not_found"),
    ],
)
def test_malformed_requests_get_structured_errors(
    served, method, path, raw, status, code
):
    got_status, _, body = served.request(method, path, raw=raw)
    assert got_status == status
    assert body["error"]["code"] == code
    assert "message" in body["error"]
    assert body["error"]["partial"] is False
    assert "Traceback" not in json.dumps(body)


@pytest.mark.parametrize(
    ("payload", "code"),
    [
        ({"datasets": ["left", "right"]}, "protocol_error"),  # missing k
        ({"datasets": "left", "k": 10}, "protocol_error"),
        ({"datasets": ["left"], "k": 10}, "protocol_error"),
        ({"datasets": ["left", "right"], "k": 10, "deadline_ms": -5}, "protocol_error"),
        ({"datasets": ["left", "right"], "k": 99}, "parameter_error"),
        ({"datasets": ["left", "right"], "k": 10, "algorithm": "bogus"}, "algorithm_error"),
        ({"datasets": ["left", "nope"], "k": 10}, "catalog_error"),
        (
            {"datasets": ["left", "right"], "k": 10, "algorithm": "parallel",
             "parallelism": available_cpus() + 1},
            "protocol_error",
        ),
    ],
)
def test_invalid_queries_fail_fast_with_typed_codes(served, payload, code):
    status, _, body = served.request("POST", "/query", payload)
    assert status == 400
    assert body["error"]["code"] == code
    assert "Traceback" not in json.dumps(body)


# ----------------------------------------------------------------------
# Deadlines over HTTP
# ----------------------------------------------------------------------
def test_deadline_partial_is_a_subset_of_the_exact_answer(served):
    exact = served.engine.execute(
        "left", "right", spec=QuerySpec.for_ksjq(k=12)
    ).pair_set()
    status, _, body = served.request(
        "POST",
        "/query",
        {"datasets": ["left", "right"], "k": 12, "algorithm": "naive",
         "deadline_ms": 150},
    )
    assert status == 200
    assert body["partial"] is True
    assert body["error"]["code"] == "deadline_exceeded"
    assert body["error"]["partial"] is True
    assert body["budget"] == pytest.approx(0.150)
    got = {tuple(p) for p in body["pairs"]}
    assert got <= exact
    assert body["count"] == len(got)


def test_default_deadline_from_config():
    running = RunningServer(
        demo_engine(), ServingConfig(workers=1, default_deadline_ms=1.0)
    )
    try:
        status, _, body = running.request(
            "POST",
            "/query",
            {"datasets": ["left", "right"], "k": 12, "algorithm": "naive"},
        )
        assert status == 200
        assert body["partial"] is True  # the 1 ms default applied
    finally:
        running.close()


# ----------------------------------------------------------------------
# Load shedding
# ----------------------------------------------------------------------
def test_saturated_server_sheds_with_429():
    running = RunningServer(
        demo_engine(),
        ServingConfig(workers=1, max_queue=0, probe_costs=False),
    )
    try:
        occupant: dict[str, object] = {}

        def run_occupant() -> None:
            occupant["response"] = running.request(
                "POST",
                "/query",
                # naive k=12 runs ~1s on the demo pair: plenty of time
                # to observe saturation, bounded by the deadline.
                {"datasets": ["left", "right"], "k": 12, "algorithm": "naive",
                 "deadline_ms": 5000},
            )

        thread = threading.Thread(target=run_occupant)
        thread.start()
        # Wait until the occupant is admitted (visible via /healthz).
        for _ in range(500):
            _, _, health = running.request("GET", "/healthz")
            if health["in_flight"] >= 1:
                break
            time.sleep(0.01)
        else:
            pytest.fail("occupant was never admitted")

        status, headers, body = running.request(
            "POST", "/query", {"datasets": ["left", "right"], "k": 10}
        )
        assert status == 429
        assert body["error"]["code"] == "admission_rejected"
        assert body["error"]["retry_after_ms"] > 0
        assert float(headers["Retry-After"]) > 0

        thread.join(timeout=60)
        occupant_status, _, occupant_body = occupant["response"]
        assert occupant_status == 200  # the admitted request completed

        _, _, metrics = running.request("GET", "/metrics")
        assert metrics["routes"]["/query"]["shed"] >= 1
        assert metrics["admission"]["shed_total"] >= 1
        # The shed slot drained: the server admits again.
        status, _, body = running.request(
            "POST", "/query", {"datasets": ["left", "right"], "k": 10}
        )
        assert status == 200
    finally:
        running.close()


# ----------------------------------------------------------------------
# Progressive streaming
# ----------------------------------------------------------------------
def read_stream(served, payload):
    """Issue a progressive query; returns (status, headers, parsed lines,
    client-side receive time per line)."""
    conn = served.connection()
    conn.request("POST", "/query", body=json.dumps(payload).encode())
    response = conn.getresponse()
    lines: list[dict] = []
    received_at: list[float] = []
    while True:
        raw = response.readline()
        if not raw:
            break
        raw = raw.strip()
        if not raw:
            continue
        lines.append(json.loads(raw))
        received_at.append(time.monotonic())
        if lines[-1].get("done"):
            break
    headers = dict(response.getheaders())
    conn.close()
    return response.status, headers, lines, received_at


def test_progressive_stream_delivers_first_pair_before_completion(served):
    status, headers, lines, received_at = read_stream(
        served,
        {"datasets": ["left", "right"], "k": 11, "progressive": True},
    )
    assert status == 200
    assert headers["Transfer-Encoding"] == "chunked"
    assert headers["Content-Type"] == "application/x-ndjson"

    done = lines[-1]
    assert done["done"] is True and done["partial"] is False
    pairs = [tuple(line["pair"]) for line in lines[:-1]]
    assert done["count"] == len(pairs)

    # The whole point: the first pair reached the client before the
    # query finished — by the client's own clock and the server's.
    assert received_at[0] < received_at[-1]
    assert lines[0]["emitted_at"] < done["emitted_at"]

    # And the streamed answer is the exact one.
    exact = served.engine.execute(
        "left", "right", spec=QuerySpec.for_ksjq(k=11)
    ).pair_set()
    assert set(pairs) == exact


def test_progressive_stream_with_deadline_marks_partial(served):
    status, _, lines, _ = read_stream(
        served,
        {"datasets": ["left", "right"], "k": 12, "progressive": True,
         "deadline_ms": 100},
    )
    assert status == 200
    done = lines[-1]
    assert done["done"] is True
    if done["partial"]:  # virtually always at 100 ms; never flaky if not
        assert done["error"]["code"] == "deadline_exceeded"
        exact = served.engine.execute(
            "left", "right", spec=QuerySpec.for_ksjq(k=12)
        ).pair_set()
        assert {tuple(line["pair"]) for line in lines[:-1]} <= exact
