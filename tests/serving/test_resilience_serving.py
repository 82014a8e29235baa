"""Serving-layer resilience: degraded bodies, the circuit breaker, and
Retry-After honoring — over a real socket, like the rest of the suite.
"""

from __future__ import annotations

import time

import pytest

from repro.resilience import FaultPlan, FaultSpec, disarm
from repro.serving.client import parse_retry_after, request_with_backoff
from repro.serving.server import ServingConfig

from .conftest import RunningServer, demo_engine

QUERY = {"datasets": ["left", "right"], "k": 10}


@pytest.fixture()
def chaotic_server():
    """A server whose every engine execution fails (persistent fault),
    with a hair-trigger breaker and a long reset timeout."""
    plan = FaultPlan([FaultSpec("serving.execute", kind="io", times=None)], seed=3)
    running = RunningServer(
        demo_engine(n=40),
        ServingConfig(
            workers=2,
            max_queue=2,
            probe_costs=False,
            breaker_threshold=3,
            breaker_reset_s=30.0,
            fault_plan=plan,
        ),
    )
    yield running
    running.close()
    disarm()


@pytest.fixture()
def recovering_server():
    """A server whose engine fails exactly 3 times, then heals; the
    breaker (threshold 3) trips and must re-close via its probe."""
    plan = FaultPlan([FaultSpec("serving.execute", kind="io", times=3)], seed=3)
    running = RunningServer(
        demo_engine(n=40),
        ServingConfig(
            workers=2,
            max_queue=2,
            probe_costs=False,
            breaker_threshold=3,
            breaker_reset_s=0.05,
            fault_plan=plan,
        ),
    )
    yield running
    running.close()
    disarm()


class TestDegradedBodies:
    def test_resilience_exhaustion_is_a_typed_degraded_503(self, chaotic_server):
        status, headers, body = chaotic_server.request("POST", "/query", body=QUERY)
        assert status == 503
        assert body["degraded"] is True
        assert body["error"]["code"] == "resilience_exhausted"
        assert parse_retry_after(headers) is not None

    def test_deadline_partial_carries_degraded_marker(self, served):
        status, _headers, body = served.request(
            "POST",
            "/query",
            body={**QUERY, "k": 12, "algorithm": "naive", "deadline_ms": 5},
        )
        assert status == 200
        assert body["partial"] is True and body["degraded"] is True
        assert body["error"]["code"] == "deadline_exceeded"

    def test_clean_responses_carry_no_degraded_marker(self, served):
        status, _headers, body = served.request("POST", "/query", body=QUERY)
        assert status == 200
        assert "degraded" not in body

    def test_degraded_count_is_surfaced_at_metrics(self, chaotic_server):
        for _ in range(2):
            chaotic_server.request("POST", "/query", body=QUERY)
        _status, _h, body = chaotic_server.request("GET", "/metrics")
        assert body["routes"]["/query"]["degraded"] >= 2


class TestCircuitBreaker:
    def test_breaker_opens_and_sheds_with_circuit_open(self, chaotic_server):
        statuses = [
            chaotic_server.request("POST", "/query", body=QUERY)[0]
            for _ in range(3)
        ]
        assert statuses == [503, 503, 503]  # typed failures, breaker counting
        status, headers, body = chaotic_server.request("POST", "/query", body=QUERY)
        assert status == 503
        assert body["error"]["code"] == "circuit_open"
        assert body["error"]["retry_after_ms"] > 0
        assert parse_retry_after(headers) == pytest.approx(
            body["error"]["retry_after_ms"] / 1000.0, abs=0.05
        )
        _s, _h, metrics = chaotic_server.request("GET", "/metrics")
        assert metrics["breaker"]["state"] == "open"
        assert metrics["admission"]["shed_total"] >= 1
        info = chaotic_server.engine.cache_info()
        assert info["resilience"]["breaker_opens"] >= 1

    def test_breaker_closes_after_probe_success(self, recovering_server):
        for _ in range(3):
            assert recovering_server.request("POST", "/query", body=QUERY)[0] == 503
        time.sleep(0.1)  # past reset_timeout: next request is the probe
        status, _h, body = recovering_server.request("POST", "/query", body=QUERY)
        assert status == 200 and body["partial"] is False
        _s, _h, metrics = recovering_server.request("GET", "/metrics")
        assert metrics["breaker"]["state"] == "closed"

    def test_client_error_probe_does_not_leak_the_half_open_slot(
        self, recovering_server
    ):
        """Regression: a request that wins the half-open probe slot but
        ends with a *neutral* outcome (here a 400 for an unknown
        dataset) must release the slot. Leaked, allow() would return
        False forever — half_open has no timeout — and the server would
        shed every request with 503 until restart."""
        for _ in range(3):
            assert recovering_server.request("POST", "/query", body=QUERY)[0] == 503
        time.sleep(0.1)  # past reset_timeout: the next request probes
        status, _h, body = recovering_server.request(
            "POST", "/query", body={**QUERY, "datasets": ["left", "nonesuch"]}
        )
        assert status == 400  # client error: neutral, not a verdict
        status, _h, body = recovering_server.request("POST", "/query", body=QUERY)
        assert status == 200 and body["partial"] is False
        _s, _h, metrics = recovering_server.request("GET", "/metrics")
        assert metrics["breaker"]["state"] == "closed"

    def test_client_backoff_rides_out_the_outage(self, recovering_server):
        """request_with_backoff + the server's Retry-After together
        recover without the caller seeing a single failure."""
        naps = []

        def send():
            return recovering_server.request("POST", "/query", body=QUERY)

        def sleep(seconds):
            naps.append(seconds)
            time.sleep(min(seconds, 0.2))

        status, _h, body = request_with_backoff(
            send, max_attempts=8, max_backoff=0.2, sleep=sleep
        )
        assert status == 200
        assert body["count"] >= 0 and naps  # it did retry, then succeed
