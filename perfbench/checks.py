"""Answer checks, run after each timed phase against reference answers."""

from __future__ import annotations

import numpy as np
from repro.api import Engine
from repro.skyline.kdominant import k_dominant_skyline_naive


def canonical(rows: object, width: int = 2) -> bytes:
    """Answer tuples in one canonical byte form (row order ignored)."""
    arr = np.asarray(rows, dtype=np.int64).reshape(-1, width)
    if arr.size:
        arr = arr[np.lexsort(arr.T[::-1])]
    return arr.tobytes()


def oracle_pairs(left: object, right: object, k: int, aggregate: str | None) -> np.ndarray:
    """The exact answer: the naive O(n^2) k-dominant skyline of the
    joined view, on a private engine so no cache is shared."""
    view = Engine(max_plans=0).plan(left, right, aggregate=aggregate).view()
    return view.pairs[k_dominant_skyline_naive(view.oriented(), k)]


def exact_mismatch(got: object, want: object, width: int = 2) -> str | None:
    """``None`` when ``got`` is exactly ``want``, else what differs."""
    if canonical(got, width) == canonical(want, width):
        return None
    g = {tuple(r) for r in np.asarray(got, dtype=np.int64).reshape(-1, width).tolist()}
    w = {tuple(r) for r in np.asarray(want, dtype=np.int64).reshape(-1, width).tolist()}
    return f"{len(g - w)} extra and {len(w - g)} missing of {len(w)} tuples"


def superset_mismatch(got: object, want: object) -> str | None:
    """``None`` when ``got`` contains every tuple of ``want``."""
    g = {tuple(r) for r in np.asarray(got, dtype=np.int64).reshape(-1, 2).tolist()}
    missing = [r for r in np.asarray(want, dtype=np.int64).reshape(-1, 2).tolist()
               if tuple(r) not in g]
    return f"{len(missing)} of {len(want)} exact tuples missing" if missing else None
