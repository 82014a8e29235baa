"""Shared hygiene for the resilience suite: every test starts disarmed
and can never leak an armed plan to its neighbors."""

from __future__ import annotations

import pytest

from repro.resilience import disarm


@pytest.fixture(autouse=True)
def clean_resilience_state():
    disarm()
    yield
    disarm()
