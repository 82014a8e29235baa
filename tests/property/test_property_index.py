"""Differential fuzz suite for the dominance-index layer.

The acceptance contract of ``core/index.py``: the indexed path is an
*access-method* optimization, never an answer change. For every data
distribution, dimensionality, dataset size, k at both ends of its legal
range, and worker count, the indexed results are **byte-identical** to
the naive serial exact path — canonical pair arrays compare equal
element-wise, not just as sets.

Why this must be fuzzed rather than argued: k-dominance is
non-transitive (cycles exist for small k), so a cell-pruning rule that
chains bounds through virtual corner points is *unsound* even though it
looks like a textbook grid-file bound argument. The witness rule in
``core/index.py`` prunes a cell only when one **actual** joined tuple
k-dominates the cell's lower bound corner with a strict attribute
against the corner itself — one real dominator hop, no chaining. The
hand-built fixtures at the bottom pin exactly the configurations where
a transitivity-assuming implementation returns wrong answers.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Engine, QuerySpec
from repro.core import CellPartition, DominanceIndex, JoinPlan, run_indexed, run_naive
from repro.core.index import joined_cell_ids, lpt_buckets
from repro.core.parallel import ShardPlan
from repro.relational import Relation
from repro.skyline.dominance import cells_k_dominated, is_k_dominated
from repro.skyline.kdominant import k_dominant_skyline

from ..helpers import make_random_pair

PARALLELISMS = (1, 2, 4)
DISTRIBUTIONS = ("independent", "correlated", "anticorrelated")


def thread_plan(workers: int) -> ShardPlan:
    return ShardPlan(workers, 0, "test")


def k_bounds(left, right):
    """The legal k range of a two-way join (paper Sec. 2)."""
    k_lo = max(left.schema.d, right.schema.d) + 1
    k_hi = left.schema.l + right.schema.l + left.schema.a
    return k_lo, k_hi


def assert_identical(got, want):
    assert got.pair_set() == want.pair_set()
    assert got.pairs.shape == want.pairs.shape
    assert got.pairs.tobytes() == want.pairs.tobytes()


# ----------------------------------------------------------------------
# Two-way: distributions x d x k-bounds x parallelism
# ----------------------------------------------------------------------
@pytest.mark.parametrize("distribution", DISTRIBUTIONS)
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10_000), d=st.integers(4, 8), at_hi=st.booleans())
def test_indexed_equals_naive_across_distributions(distribution, seed, d, at_hi):
    left, right = make_random_pair(
        seed=seed, n=36, d=d, g=3, a=0, distribution=distribution
    )
    k_lo, k_hi = k_bounds(left, right)
    k = k_hi if at_hi else k_lo
    plan = JoinPlan(left, right)
    want = run_naive(plan, k)
    left_index, _ = plan.side_index("left")
    right_index, _ = plan.side_index("right")
    for workers in PARALLELISMS:
        got = run_indexed(
            plan, k, left_index, right_index, shards=thread_plan(workers)
        )
        assert_identical(got, want)
        assert got.algorithm == "indexed" and got.mode == "exact"


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.sampled_from([4, 12, 36, 80]),
    k_off=st.integers(0, 4),
)
def test_indexed_equals_naive_across_sizes(seed, n, k_off):
    """The n ladder, k swept inward from the lower bound, aggregates on."""
    left, right = make_random_pair(seed=seed, n=n, d=5, g=3, a=1)
    k_lo, k_hi = k_bounds(left, right)
    k = min(k_lo + k_off, k_hi)
    plan = JoinPlan(left, right, aggregate="sum")
    want = run_naive(plan, k)
    left_index, _ = plan.side_index("left")
    right_index, _ = plan.side_index("right")
    got = run_indexed(plan, k, left_index, right_index)
    assert_identical(got, want)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 10_000), at_hi=st.booleans())
def test_engine_indexed_is_answer_invariant(seed, at_hi):
    """Engine wiring: indexed x parallelism x use_index vs naive bytes."""
    left, right = make_random_pair(seed=seed, n=30, d=4, g=4)
    k_lo, k_hi = k_bounds(left, right)
    k = k_hi if at_hi else k_lo
    engine = Engine()
    want = engine.execute(left, right, QuerySpec.for_ksjq(k=k, algorithm="naive"))
    for w in PARALLELISMS:
        got = engine.execute(
            left,
            right,
            QuerySpec.for_ksjq(k=k, algorithm="indexed", parallelism=w),
        )
        assert got.pairs.tobytes() == want.pairs.tobytes()
    forced = engine.execute(left, right, QuerySpec.for_ksjq(k=k, use_index=True))
    assert forced.algorithm == "indexed"
    assert forced.pairs.tobytes() == want.pairs.tobytes()


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_warm_repeat_is_identical_to_cold(seed):
    """Second run answers from the memoized candidate superset; the
    verification-only warm path must not change a byte."""
    left, right = make_random_pair(seed=seed, n=40, d=5, g=3)
    k_lo, k_hi = k_bounds(left, right)
    engine = Engine()
    spec = QuerySpec.for_ksjq(k=k_hi - 1, algorithm="indexed")
    cold = engine.execute(left, right, spec)
    warm = engine.execute(left, right, spec)
    want = engine.execute(
        left, right, QuerySpec.for_ksjq(k=k_hi - 1, algorithm="naive")
    )
    assert cold.pairs.tobytes() == want.pairs.tobytes()
    assert warm.pairs.tobytes() == want.pairs.tobytes()


# ----------------------------------------------------------------------
# find_k: use_index is carried but must not perturb the search
# ----------------------------------------------------------------------
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 10_000), delta=st.integers(1, 30))
def test_find_k_is_use_index_invariant(seed, delta):
    left, right = make_random_pair(seed=seed, n=25, d=4, g=3)
    engine = Engine()
    results = [
        engine.execute(
            left, right, QuerySpec.for_find_k(delta=delta, use_index=ui)
        )
        for ui in ("auto", True, False)
    ]
    ks = {r.k for r in results}
    assert len(ks) == 1
    probes = {tuple(step.k for step in r.steps) for r in results}
    assert len(probes) == 1
    # find_k never touches the index layer, whatever the knob says.
    assert engine.cache_info()["index_builds"] == 0


# ----------------------------------------------------------------------
# Cascades: m-way chains through the same witness rule
# ----------------------------------------------------------------------
@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    workers=st.sampled_from(PARALLELISMS),
    at_hi=st.booleans(),
)
def test_cascade_indexed_equals_naive(seed, workers, at_hi):
    rng = np.random.default_rng(seed)
    legs = [
        Relation.from_arrays(
            np.floor(rng.random((12, 4)) * 4),
            ["s0", "s1", "s2", "s3"],
            join_key=[int(j % 2) for j in range(12)],
            name=f"L{i}",
        )
        for i in range(3)
    ]
    k = 12 if at_hi else 5
    engine = Engine()
    want = engine.execute(*legs, spec=QuerySpec.for_cascade(k=k, algorithm="naive"))
    got = engine.execute(
        *legs,
        spec=QuerySpec.for_cascade(k=k, algorithm="indexed", parallelism=workers),
    )
    assert got.chain_set() == want.chain_set()
    assert got.chains.tobytes() == want.chains.tobytes()
    assert got.algorithm == "indexed"


# ----------------------------------------------------------------------
# Hand-built non-transitivity fixtures
# ----------------------------------------------------------------------
def _paired_plan(left_rows, right_rows):
    """One joined tuple per row i (unique join keys pair L_i with R_i)."""
    n = len(left_rows)
    names = [f"s{i}" for i in range(len(left_rows[0]))]
    left = Relation.from_arrays(
        np.asarray(left_rows, dtype=np.float64),
        names,
        join_key=list(range(n)),
        name="L",
    )
    right = Relation.from_arrays(
        np.asarray(right_rows, dtype=np.float64),
        names,
        join_key=list(range(n)),
        name="R",
    )
    return JoinPlan(left, right)


def test_three_cycle_dominance_fixture():
    """v1 >k v2 >k v3 >k v1 at k=4 of 6: a pure dominance cycle.

    The exact answer is empty (every tuple has a real dominator). Any
    implementation that treats k-dominance as transitive — e.g. by
    electing a single cycle "representative" as undominated, or by
    verifying candidates only against surviving tuples — returns a
    non-empty answer here.
    """
    v1 = (0, 0, 0, 0, 1, 1)
    v2 = (1, 1, 0, 0, 0, 0)
    v3 = (0, 0, 1, 1, 0, 0)
    cycle = np.asarray([v1, v2, v3], dtype=np.float64)
    # Pin the cycle itself before trusting the differential check.
    assert is_k_dominated(cycle[[0]], cycle[1], 4)  # v1 >k v2
    assert is_k_dominated(cycle[[1]], cycle[2], 4)  # v2 >k v3
    assert is_k_dominated(cycle[[2]], cycle[0], 4)  # v3 >k v1
    plan = _paired_plan(
        [row[:3] for row in (v1, v2, v3)],
        [row[3:] for row in (v1, v2, v3)],
    )
    for k in (4, 5, 6):
        want = run_naive(plan, k)
        left_index, _ = plan.side_index("left")
        right_index, _ = plan.side_index("right")
        for workers in (1, 2):
            got = run_indexed(
                plan, k, left_index, right_index, shards=thread_plan(workers)
            )
            assert_identical(got, want)


def test_cell_pruning_does_not_assume_transitivity():
    """The w / t / c trap: w >k t (so t's cell is pruned), t >k c, but
    w does NOT k-dominate c.

    A transitivity-assuming implementation reasons "w covers everything
    t could prune" and verifies c only against surviving tuples — c
    then wrongly survives. The sound implementation prunes c's cell via
    the *pruned* tuple t (witnesses need not survive; pruned tuples are
    non-winning but still dominate), and the exact answer excludes c.
    """
    w = (0, 0, 0, 99, 1, 9)
    t = (0, 0, 0, 9, 9, 5)
    c = (2, 2, 2, 9, 0, 0)
    k = 4
    matrix = np.asarray([w, t, c], dtype=np.float64)
    # The trap's premises, pinned one by one:
    assert is_k_dominated(matrix[[0]], matrix[1], k)  # w >k t
    assert is_k_dominated(matrix[[1]], matrix[2], k)  # t >k c
    assert not is_k_dominated(matrix[[0]], matrix[2], k)  # w !>k c
    # Hand-built partition: one cell per tuple, so every prune decision
    # is visible. All three cells must be pruned — t's via w, c's via
    # the pruned witness t, w's via t (w >k t >k w is a 2-cycle here).
    partition = CellPartition(matrix, np.arange(3, dtype=np.intp))
    pruned = partition.pruned_cells(k)
    assert pruned.all(), (
        "cell of c must be pruned by the pruned tuple t: witness "
        "soundness is per-tuple and does not depend on witness survival"
    )
    # Per-tuple soundness audit: every pruned tuple has a real one-hop
    # dominator somewhere in the matrix.
    for row in range(3):
        others = np.delete(matrix, row, axis=0)
        assert is_k_dominated(others, matrix[row], k)
    # And the exact skyline agrees: nobody wins.
    assert k_dominant_skyline(matrix, k) == []
    # End-to-end through the engine path (single joined cell or not,
    # the answer must match naive bytes).
    plan = _paired_plan([row[:3] for row in (w, t, c)], [row[3:] for row in (w, t, c)])
    want = run_naive(plan, k)
    left_index, _ = plan.side_index("left")
    right_index, _ = plan.side_index("right")
    got = run_indexed(plan, k, left_index, right_index)
    assert_identical(got, want)
    assert want.pairs.shape[0] == 0


def test_pruned_cells_never_prune_a_winner():
    """Random audit of the witness rule in isolation: every row of every
    pruned cell is k-dominated by some actual row of the matrix."""
    rng = np.random.default_rng(42)
    for _ in range(10):
        matrix = np.floor(rng.random((30, 6)) * 4)
        cell_ids = rng.integers(0, 5, size=30).astype(np.intp)
        partition = CellPartition(matrix, cell_ids)
        for k in (4, 5, 6):
            pruned = partition.pruned_cells(k)
            for cell in np.flatnonzero(pruned):
                for row in np.flatnonzero(cell_ids == np.unique(cell_ids)[cell]):
                    assert is_k_dominated(matrix, matrix[row], k)


def test_cells_k_dominated_matches_scalar_definition():
    """The kernel against a literal transcription of the witness rule."""
    rng = np.random.default_rng(7)
    matrix = np.floor(rng.random((20, 5)) * 3)
    bounds = np.floor(rng.random((6, 5)) * 3)
    for k in (3, 4, 5):
        got = cells_k_dominated(matrix, bounds, k)
        for b in range(bounds.shape[0]):
            expect = any(
                (matrix[i] <= bounds[b]).sum() >= k and (matrix[i] < bounds[b]).any()
                for i in range(matrix.shape[0])
            )
            assert bool(got[b]) == expect


# ----------------------------------------------------------------------
# Index structure invariants
# ----------------------------------------------------------------------
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.sampled_from([0, 1, 7, 40]))
def test_index_structure_invariants(seed, n):
    rng = np.random.default_rng(seed)
    rel = Relation.from_arrays(
        np.floor(rng.random((n, 4)) * 5),
        ["s0", "s1", "s2", "s3"],
        join_key=[0] * n,
        name="X",
    )
    index = DominanceIndex.build(rel)
    matrix = rel.oriented()
    assert index.n_rows == n
    if n == 0:
        assert index.n_cells == 0
        return
    assert index.cell_of.shape == (n,)
    assert index.cell_counts.sum() == n
    assert (index.cell_of < index.n_cells).all()
    # Per-cell bounds really bound the cell's rows, in every column.
    for cell in range(index.n_cells):
        rows = matrix[index.cell_of == cell]
        assert (rows >= index.cell_lb[cell]).all()
        assert (rows <= index.cell_ub[cell]).all()
    assert 0.0 <= index.mean_cell_span <= 1.0


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10_000), buckets=st.integers(1, 6))
def test_lpt_buckets_partition_all_items(seed, buckets):
    rng = np.random.default_rng(seed)
    sizes = rng.integers(0, 50, size=rng.integers(0, 12)).astype(np.intp)
    got = lpt_buckets(sizes, buckets)
    flat = sorted(i for bucket in got for i in bucket)
    assert flat == list(range(sizes.size))
    assert all(bucket for bucket in got)


def test_joined_cell_ids_are_the_cell_product():
    rng = np.random.default_rng(3)
    rel_a = Relation.from_arrays(
        np.floor(rng.random((20, 3)) * 4), ["s0", "s1", "s2"],
        join_key=[0] * 20, name="A",
    )
    rel_b = Relation.from_arrays(
        np.floor(rng.random((15, 3)) * 4), ["s0", "s1", "s2"],
        join_key=[0] * 15, name="B",
    )
    ia, ib = DominanceIndex.build(rel_a), DominanceIndex.build(rel_b)
    lefts = np.asarray([0, 3, 19], dtype=np.intp)
    rights = np.asarray([1, 0, 14], dtype=np.intp)
    ids = joined_cell_ids(ia, ib, lefts, rights)
    for pos in range(3):
        expect = ia.cell_of[lefts[pos]] * max(1, ib.n_cells) + ib.cell_of[rights[pos]]
        assert ids[pos] == expect
