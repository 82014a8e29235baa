"""Multi-relation KSJQ via cascaded joins (paper Sec. 2.3).

"The case for more than two base relations can be handled by cascading
the joins." — e.g. a two-stop flight joins three leg relations. This
module implements the m-way generalization over a *join graph*: an
ordered chain of relations where hop ``j`` connects ``relations[j]``
to ``relations[j+1]`` under its own join condition
(:class:`~repro.relational.join.HopSpec`):

* equality of the composite join keys (the two-way default), or of one
  named column per side — ``Hop("dest", "source")`` expresses
  ``leg_j.dest = leg_{j+1}.source``;
* a theta conjunction (``leg_j.arrival < leg_{j+1}.departure``);
* a cartesian hop (every pair joins).

The joined skyline attributes are all relations' local attributes plus
each aggregate attribute folded across all m relations; a chain
k-dominates another exactly as in the two-way case.

Algorithms:

* ``naive`` — materialize every chain, run the k-dominant skyline
  (ground truth);
* ``pruned`` — the m-way analogue of the paper's Theorem 4: a tuple of
  relation i dominated under threshold ``k'_i = k − Σ_{j≠i} l_j``
  (counted over its base attributes) *by a tuple that can stand in for
  it on both its hops* can never appear in a skyline chain, because
  substituting the dominator yields a valid chain that k-dominates.
  This is the two-way NN rule of :func:`~repro.core.categorize.categorize`
  applied per relation: under equality hops a stand-in shares both hop
  values, under theta hops it joins at least the same partners
  (Sec. 6.6). Surviving chains are verified against the sorted full
  chain matrix by the check Algorithms 2 and 3 share
  (:func:`~repro.core.verify.survivors`), keeping the algorithm exact
  for strictly monotone aggregates.

The valid k range generalizes to ``max_i d_i < k <= Σ_i l_i + a``
(:class:`~repro.core.params.CascadeParams`).

:func:`cascade_ksjq` is a fail-fast convenience wrapper over the shared
default :class:`repro.api.Engine` — it validates every parameter before
any join structure is built, and repeated calls over equal-content
relations reuse the engine's cached
:class:`~repro.core.plan.CascadePlan`.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, cast

import numpy as np

from ..errors import JoinError, ParameterError
from ..relational.aggregates import AggregateFunction
from ..relational.join import HopJoin, HopSpec, joined_matrix
from ..relational.relation import Relation
from ..serving.deadline import active_deadline
from .categorize import Category, categorize
from .cost import choose_algorithm
from .naive import _naive
from .result import CascadeResult
from .timing import PhaseClock
from .verify import survivors

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .._typing import AggregateLike, FloatMatrix, HopsLike, IntMatrix, IntVector, RowsLike
    from ..api import Engine
    from .plan import CascadePlan

__all__ = [
    "CASCADE_ALGORITHMS",
    "Hop",
    "CascadeResult",
    "cascade_chains",
    "cascade_oriented",
    "cascade_ksjq",
    "cascade_progressive",
    "join_chains",
    "normalize_hops",
    "run_cascade_naive",
    "run_cascade_pruned",
]

CASCADE_ALGORITHMS = ("auto", "naive", "pruned", "parallel", "indexed")


@dataclass(frozen=True)
class Hop:
    """One equality hop of a cascade: ``left.column == right.column``.

    ``None`` selects the relation's composite join key (all join-role
    attributes), matching the two-way default. Legacy spelling of
    :meth:`repro.relational.HopSpec.on_columns`; kept as the compact
    public shorthand.
    """

    left_column: str | None = None
    right_column: str | None = None


def normalize_hops(m: int, hops: HopsLike) -> tuple[HopSpec, ...]:
    """Coerce a hop sequence to ``m - 1`` :class:`HopSpec` objects.

    ``None`` selects composite-key equality for every hop. Individual
    entries may be :class:`HopSpec`, legacy :class:`Hop`, ``None``, a
    :class:`~repro.relational.join.ThetaCondition`, or a conjunction
    sequence of conditions.
    """
    if hops is None:
        hops = [HopSpec()] * (m - 1)
    specs = tuple(HopSpec.coerce(h) for h in hops)
    if len(specs) != m - 1:
        raise JoinError(f"need {m - 1} hops for {m} relations, got {len(specs)}")
    return specs


def validate_hops(relations: Sequence[Relation], hops: Sequence[HopSpec]) -> None:
    """Fail fast on hops naming missing columns or empty join keys.

    Checked *before* any chain is enumerated, so a typo in a hop column
    costs nothing; error wording mirrors the two-way join errors.
    """
    for i, hop in enumerate(hops):
        sides = (("left", relations[i]), ("right", relations[i + 1]))
        if hop.kind == "cartesian":
            continue
        if hop.kind == "theta":
            for cond in hop.theta:
                for side, rel in sides:
                    attr = cond.left_attr if side == "left" else cond.right_attr
                    if attr not in rel.schema:
                        raise JoinError(
                            f"hop {i}: relation {rel.name!r} has no attribute "
                            f"{attr!r} for theta condition {cond}"
                        )
            continue
        for side, rel in sides:
            column = hop.left_column if side == "left" else hop.right_column
            if column is None:
                if not rel.schema.join_names:
                    raise JoinError(
                        f"hop {i}: no join attributes declared on {rel.name!r}; "
                        "name a hop column explicitly or use a theta/cartesian hop"
                    )
            elif column not in rel.schema:
                raise JoinError(
                    f"hop {i}: relation {rel.name!r} has no attribute {column!r}"
                )


def cascade_chains(
    relations: Sequence[Relation],
    hops: HopsLike = None,
    keep: Sequence[IntMatrix] | None = None,
) -> IntMatrix:
    """Enumerate join-compatible chains ``(i_1, ..., i_m)`` as an (s x m) array.

    ``hops`` accepts anything :func:`normalize_hops` does; ``keep``
    optionally restricts each relation to a row subset (used by the
    pruned algorithm).
    """
    hops = normalize_hops(len(relations), hops)
    joins = [HopJoin(hop, left, right) for hop, left, right in zip(hops, relations, relations[1:])]
    rows = keep if keep is not None else [np.arange(len(rel)) for rel in relations]
    return join_chains(joins, rows)


def join_chains(joins: Sequence[HopJoin], rows: Sequence[RowsLike]) -> IntMatrix:
    """Chains through one hop kernel per hop, over per-relation row subsets.

    Each hop extends every chain by its last row's partners, so chains
    stay in lexicographic order of the given row orders.
    """
    # Serving deadline (if any): the chain count can explode
    # combinatorially, so each hop is a cancellation point. Nothing is
    # verified yet, so the partial answer is empty.
    deadline = active_deadline()
    chains = np.asarray(rows[0], dtype=np.intp).reshape(-1, 1)
    for join, right_rows in zip(joins, rows[1:]):
        if deadline is not None:
            deadline.check()
        pairs = join.pairs(chains[:, -1], right_rows)
        chains = np.column_stack([chains[pairs[:, 0]], pairs[:, 1]])
    return chains


def cascade_oriented(
    relations: Sequence[Relation],
    chains: IntMatrix,
    aggregate: AggregateFunction | None,
) -> FloatMatrix:
    """Oriented joined matrix: locals per relation + folded aggregates,
    paired across relations by name."""
    return joined_matrix(relations, chains, aggregate)


# ----------------------------------------------------------------------
# Plan-based algorithm runners (consumed by repro.api.Engine)
# ----------------------------------------------------------------------
def run_cascade_naive(plan: "CascadePlan", k: int) -> CascadeResult:
    """Algorithm ``naive``: full chain set, then the k-dominant skyline
    (the two-way naive runner's body over the chains)."""
    return cast("CascadeResult", _naive(plan, k))


def run_cascade_pruned(plan: "CascadePlan", k: int) -> CascadeResult:
    """Algorithm ``pruned``: Theorem-4 NN pruning + verification."""
    plan.params(k)
    plan.require_strict_aggregate("pruned")
    clock = PhaseClock()
    with clock.phase("join"):
        all_chains = plan.chains()
        plan.oriented()  # charge join materialization to the join phase
    with clock.phase("grouping"):
        _, pruned_rows = plan.pruned_keep(k)
    with clock.phase("join"):
        candidates, cand_matrix = plan.pruned_candidates(k)
    with clock.phase("remaining"):
        kept = list(_verified_chains(plan, candidates, cand_matrix, k))
    return CascadeResult(
        k=k,
        chains=np.concatenate(kept) if kept else candidates[:0],
        total_chains=int(all_chains.shape[0]),
        pruned_rows=pruned_rows,
        algorithm="pruned",
        timings=clock.freeze(),
    )


def _verified_chains(
    plan: "CascadePlan", candidates: IntMatrix, cand_matrix: FloatMatrix, k: int
) -> Iterator[IntMatrix]:
    """Yield the candidate chains that no chain k-dominates, as the
    verifier decides them against the sorted chain matrix. A deadline
    expiry's partial answer is every chain yielded so far."""
    kept: list[IntMatrix] = []

    def decided() -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(chain) for chunk in kept for chain in chunk.tolist())

    for rows in survivors(plan.sorted_oriented(), cand_matrix, k, decided):
        kept.append(candidates[rows])
        yield kept[-1]


def cascade_progressive(
    plan: "CascadePlan", k: int, algorithm: str = "pruned"
) -> Iterator[tuple[int, ...]]:
    """Yield skyline chains progressively (candidate order).

    Candidates — the Theorem-4 pruning survivors for ``algorithm=
    "pruned"``, every chain for ``"naive"`` — are verified against the
    full chain set by the pruned run's check
    (:func:`~repro.core.verify.survivors`): in one kernel call, or one
    candidate at a time under a serving deadline, each survivor yielded
    as soon as it is decided. Parameters are validated here, before
    the generator is created, so a bad ``k`` or a non-strictly-monotone
    aggregate under pruning fails at the call, not on first ``next()``.
    """
    plan.params(k)
    if algorithm == "auto":
        algorithm = choose_algorithm(plan)[0]
    if algorithm not in ("naive", "pruned"):
        raise ParameterError(
            f"progressive cascades support 'naive' and 'pruned', got "
            f"{algorithm!r}; the sharded parallel and indexed paths decide "
            "candidates in bulk and do not stream"
        )
    if algorithm == "pruned":
        plan.require_strict_aggregate("pruned")

    def generate() -> Iterator[tuple[int, ...]]:
        if algorithm == "pruned":
            candidates, cand_matrix = plan.pruned_candidates(k)
        else:
            candidates, cand_matrix = plan.chains(), plan.oriented()
        for chunk in _verified_chains(plan, candidates, cand_matrix, k):
            yield from map(tuple, chunk.tolist())

    return generate()


def prune_rows(
    relations: Sequence[Relation], keys: Sequence[FloatMatrix], k: int
) -> list[IntVector]:
    """Per-relation NN pruning (m-way Theorem 4).

    A row of relation i may be discarded when one of its stand-ins
    under ``keys[i]`` (:meth:`~repro.core.plan.CascadePlan.substitution_keys`:
    a row that can take its place in every chain) k'_i-dominates it,
    with ``k'_i = k − Σ_{j≠i} l_j`` counted over all of relation i's
    base attributes: exactly the rows :func:`categorize` labels NN.
    Substituting the dominator keeps the chain valid, matches all other
    components exactly, and wins at least ``k'_i − a`` locals plus the
    dominated aggregate inputs — at least k joined attributes in total
    (strictness via the strictly monotone aggregate).
    """
    total_locals = sum(rel.schema.l for rel in relations)
    keep: list[IntVector] = []
    for rel, key in zip(relations, keys):
        k_prime = k - (total_locals - rel.schema.l)
        if k_prime < 1:
            keep.append(np.arange(len(rel)))
        else:
            keep.append(np.flatnonzero(categorize(rel, k_prime, key).labels != Category.NN))
    return keep


def cascade_ksjq(
    relations: Sequence[Relation],
    k: int,
    hops: HopsLike = None,
    aggregate: AggregateLike | None = None,
    algorithm: str = "pruned",
    engine: Engine | None = None,
    parallelism: int | str = "auto",
) -> CascadeResult:
    """m-way k-dominant skyline join over a cascaded join graph.

    A fail-fast wrapper over the shared default
    :class:`repro.api.Engine` (pass ``engine=`` to use your own):
    every parameter is validated *before* any chain is enumerated, and
    repeated calls over equal-content relations reuse the engine's
    cached :class:`~repro.core.plan.CascadePlan`. ``algorithm`` is
    ``"pruned"`` (default), ``"naive"``, ``"parallel"`` (the sharded
    chain-set path of :mod:`repro.core.parallel`), or ``"auto"``
    (cost-based choice over the plan's chain statistics);
    ``parallelism`` is ``"auto"`` or a shard-worker count.
    """
    from ..api.spec import QuerySpec
    from .query import default_engine

    spec = QuerySpec.for_cascade(
        k=k, hops=hops, aggregate=aggregate, algorithm=algorithm,
        parallelism=parallelism,
    )
    eng = engine if engine is not None else default_engine()
    return eng.execute(*relations, spec=spec)
