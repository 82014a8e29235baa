"""Algorithm 3: the dominator-based KSJQ algorithm (paper Sec. 6.4).

The grouping algorithm checks SN-composed tuples against joins with an
entire base relation. Algorithm 3 instead precomputes, for every SS/SN
tuple, its *dominator set* — the k'-dominators plus the tuples sharing
the required number of attribute values plus the tuple itself, which is
exactly the predicate ``{u : better-or-equal count >= k'}`` (see
:mod:`repro.core.targets`) — and verifies each candidate joined tuple
against the join of its components' dominator sets only.

The saving is largest for SN⋈SN tuples (full-relation target becomes a
small set); the cost is the extra *dominator generation* phase, which
the paper's experiments show often outweighs the saving — reproduced in
our benchmarks.

Modes are as in :mod:`repro.core.grouping`.
"""

from __future__ import annotations


from typing import TYPE_CHECKING

import numpy as np

from ..errors import AlgorithmError
from ..skyline.dominance import is_k_dominated
from .categorize import Categorization
from .grouping import collect_cells, warn_if_unsound
from .plan import JoinPlan
from .result import KSJQResult
from .targets import target_rows_exact, target_rows_paper
from .timing import PhaseClock
from .verify import sort_rows_for_early_exit

if TYPE_CHECKING:
    from .._typing import IntMatrix, IntVector

__all__ = ["run_dominator"]


def run_dominator(plan: JoinPlan, k: int, mode: str = "faithful") -> KSJQResult:
    """Run Algorithm 3 on a prepared join plan."""
    if mode not in ("faithful", "exact"):
        raise AlgorithmError(f"unknown mode {mode!r} (use 'faithful' or 'exact')")
    params = plan.params(k)
    plan.require_strict_aggregate("dominator-based algorithm")
    warn_if_unsound(mode, params, "dominator-based algorithm")

    clock = PhaseClock()
    with clock.phase("grouping"):
        cat1 = plan.categorize_left(params.k1_prime)
        cat2 = plan.categorize_right(params.k2_prime)

    with clock.phase("join"):
        cells = collect_cells(plan, cat1, cat2)

    # Dominator sets for every tuple that participates in a candidate
    # cell (Algo 3 lines 6-13). In exact mode the complete local-count
    # predicate replaces the paper's k'-count predicate.
    with clock.phase("dominator"):
        if mode == "faithful":
            left_dom = {
                row: target_rows_paper(plan.left, row, params.k1_prime)
                for row in _candidate_rows(cat1)
            }
            right_dom = {
                row: target_rows_paper(plan.right, row, params.k2_prime)
                for row in _candidate_rows(cat2)
            }
        else:
            left_dom = {
                row: target_rows_exact(plan.left, row, params.k1_min_local)
                for row in _candidate_rows(cat1)
            }
            right_dom = {
                row: target_rows_exact(plan.right, row, params.k2_min_local)
                for row in _candidate_rows(cat2)
            }

    accepted: list[IntMatrix] = []
    checked = 0
    with clock.phase("remaining"):
        if mode == "faithful":
            accepted.append(cells["SS*SS"])  # "yes" cell, emitted directly
            check_cells = ("SS*SN", "SN*SS", "SN*SN")
        else:
            check_cells = ("SS*SS", "SS*SN", "SN*SS", "SN*SN")
        for name in check_cells:
            cell_pairs = cells[name]
            if cell_pairs.shape[0] == 0:
                continue
            vectors = plan.oriented_for_pairs(cell_pairs)
            keep: list[int] = []
            for pos in range(cell_pairs.shape[0]):
                u, v = int(cell_pairs[pos, 0]), int(cell_pairs[pos, 1])
                candidates = plan.compatible_pairs(left_dom[u], right_dom[v])
                if candidates.shape[0] == 0:
                    keep.append(pos)
                    continue
                matrix = sort_rows_for_early_exit(plan.oriented_for_pairs(candidates))
                if not is_k_dominated(matrix, vectors[pos], params.k):
                    keep.append(pos)
            checked += int(cell_pairs.shape[0])
            accepted.append(cell_pairs[keep])

    pairs = (
        np.concatenate([c for c in accepted if c.shape[0]], axis=0)
        if any(c.shape[0] for c in accepted)
        else np.empty((0, 2), dtype=np.intp)
    )
    return KSJQResult(
        algorithm="dominator",
        mode=mode,
        params=params,
        pairs=pairs,
        timings=clock.freeze(),
        left_counts=cat1.counts(),
        right_counts=cat2.counts(),
        cell_pair_counts={name: int(arr.shape[0]) for name, arr in cells.items()},
        checked=checked,
    )


def _candidate_rows(categorization: Categorization) -> IntVector:
    """Rows needing dominator sets: the SS and SN members (Algo 3)."""
    return np.concatenate([categorization.ss_rows, categorization.sn_rows])
