"""R4 fixture: process fan-out from an arbitrary library module."""

from __future__ import annotations

from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor


def rogue_map(fn: Callable[[int], int], items: Sequence[int]) -> list[int]:
    """Spawns a process pool from arbitrary code paths (WRONG)."""
    with ProcessPoolExecutor(max_workers=2) as pool:
        return list(pool.map(fn, items))
