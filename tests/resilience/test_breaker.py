"""Unit tests for the circuit breaker's three-state machine.

Driven by an injected fake clock, so every transition — trip, timed
reopen, single half-open probe, close — is exercised deterministically.
"""

from __future__ import annotations

import pytest

from repro.resilience import CircuitBreaker


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture()
def clock():
    return FakeClock()


def tripped(clock: FakeClock, threshold: int = 3) -> CircuitBreaker:
    breaker = CircuitBreaker(
        failure_threshold=threshold, reset_timeout=1.0, clock=clock
    )
    for _ in range(threshold):
        breaker.record_failure()
    return breaker


class TestCircuitBreaker:
    def test_closed_allows_and_counts_failures(self, clock):
        breaker = CircuitBreaker(failure_threshold=3, clock=clock)
        assert breaker.state == "closed"
        assert breaker.allow()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"  # below threshold
        assert breaker.retry_after == 0.0

    def test_success_resets_the_failure_count(self, clock):
        breaker = CircuitBreaker(failure_threshold=2, clock=clock)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"  # streak broken by the success

    def test_trips_open_at_threshold(self, clock):
        breaker = tripped(clock)
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.retry_after == pytest.approx(1.0)
        clock.advance(0.4)
        assert breaker.retry_after == pytest.approx(0.6)

    def test_half_open_admits_exactly_one_probe(self, clock):
        breaker = tripped(clock)
        clock.advance(1.5)
        assert breaker.allow()  # wins the probe slot
        assert breaker.state == "half_open"
        assert not breaker.allow()  # everyone else stays shed

    def test_probe_success_closes(self, clock):
        breaker = tripped(clock)
        clock.advance(1.5)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow() and breaker.allow()  # fully re-admitted

    def test_probe_failure_reopens_for_a_full_timeout(self, clock):
        breaker = tripped(clock)
        clock.advance(1.5)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.retry_after == pytest.approx(1.0)

    def test_stale_success_in_open_state_is_neutral(self, clock):
        """A slow request admitted before the trip that finishes well
        says nothing about current health: it must not close an open
        breaker and let queued traffic skip the reset timeout."""
        breaker = tripped(clock)
        breaker.record_success()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.retry_after == pytest.approx(1.0)

    def test_neutral_outcome_releases_the_probe_slot(self, clock):
        """A probe that ends with no health verdict (client error,
        disconnect) must release the slot — a leaked slot would shed
        all traffic forever, since half_open has no timeout."""
        breaker = tripped(clock)
        clock.advance(1.5)
        assert breaker.allow()  # wins the probe slot
        assert not breaker.allow()  # slot held
        breaker.record_neutral()
        assert breaker.state == "half_open"
        assert breaker.allow()  # the next arrival may probe again
        breaker.record_success()
        assert breaker.state == "closed"

    def test_neutral_never_resets_the_failure_streak(self, clock):
        breaker = CircuitBreaker(failure_threshold=2, clock=clock)
        breaker.record_failure()
        breaker.record_neutral()  # unlike a success: no streak reset
        breaker.record_failure()
        assert breaker.state == "open"

    def test_opens_are_counted(self, clock):
        """record_failure() reports each trip, so the serving layer can
        count it as its engine's ``breaker_opens``."""
        breaker = CircuitBreaker(failure_threshold=3, reset_timeout=1.0, clock=clock)
        assert [breaker.record_failure() for _ in range(3)] == [False, False, True]
        clock.advance(1.5)
        assert breaker.allow()
        assert breaker.record_failure()  # re-open from half_open
        assert "open" in repr(breaker)
