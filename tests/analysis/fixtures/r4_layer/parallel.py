"""R4 fixture: process fan-out inside the parallel layer itself.

The parallel layer gets no exemption: shard work runs on threads, and
forking while sibling batch-lane threads run risks child processes
inheriting locks held mid-operation.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor


def unguarded_map(fn: Callable[[int], int], items: Sequence[int]) -> list[int]:
    """Process pool in the parallel layer (WRONG)."""
    with ProcessPoolExecutor(max_workers=2) as pool:
        return list(pool.map(fn, items))
