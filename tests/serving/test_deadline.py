"""Deadline mechanics and per-algorithm cooperative cancellation.

The counting clock makes expiry exact: ``Deadline(budget=m,
clock=tick)`` consumes one tick at construction and one per
:meth:`check`, so it trips at precisely the m-th checkpoint — no
wall-clock flakiness anywhere in this module.
"""

from __future__ import annotations

import threading
from collections.abc import Callable

import numpy as np
import pytest

from repro.api.engine import Engine
from repro.api.spec import QuerySpec
from repro.core.parallel import ShardPlan, _sharded_skyline
from repro.core.timing import PhaseClock
from repro.errors import DeadlineExceeded, ParameterError
from repro.serving.deadline import Deadline, active_deadline
from repro.skyline.kdominant import k_dominant_skyline

from ..helpers import make_random_pair


def counting_clock() -> Callable[[], float]:
    calls = [0]

    def tick() -> float:
        calls[0] += 1
        return float(calls[0])

    return tick


def chunked_skyline(matrix, k, deadline, partial_of):
    """The deadline path of the naive runners: the sharded skyline on a
    one-worker plan under an active deadline."""
    shards = ShardPlan(1, matrix.shape[0], "test")
    with deadline.activate():
        return _sharded_skyline(matrix, k, shards, PhaseClock(), partial_of)[0]


# ----------------------------------------------------------------------
# Deadline object
# ----------------------------------------------------------------------
class TestDeadline:
    def test_budget_must_be_positive(self):
        with pytest.raises(ParameterError):
            Deadline(0)
        with pytest.raises(ParameterError):
            Deadline(-0.5)

    def test_counting_clock_expires_at_exactly_the_mth_check(self):
        deadline = Deadline(3, clock=counting_clock())
        deadline.check()
        deadline.check()
        with pytest.raises(DeadlineExceeded):
            deadline.check()

    def test_error_carries_partial_and_budget(self):
        deadline = Deadline(1, clock=counting_clock())
        with pytest.raises(DeadlineExceeded) as err:
            deadline.check(lambda: ((1, 2), (3, 4)))
        exc = err.value
        assert exc.partial_pairs == ((1, 2), (3, 4))
        assert exc.partial is True
        assert exc.code == "deadline_exceeded"
        assert exc.budget == 1.0
        assert exc.elapsed >= exc.budget

    def test_partial_provider_only_evaluated_on_expiry(self):
        evaluated = []
        deadline = Deadline(100, clock=counting_clock())
        deadline.check(lambda: evaluated.append(1) or ())
        assert evaluated == []

    def test_activate_nests_and_restores(self):
        outer, inner = Deadline(10), Deadline(5)
        assert active_deadline() is None
        with outer.activate():
            assert active_deadline() is outer
            with inner.activate():
                assert active_deadline() is inner
            assert active_deadline() is outer
        assert active_deadline() is None

    def test_active_deadline_is_thread_local(self):
        seen = []
        with Deadline(10).activate():
            thread = threading.Thread(target=lambda: seen.append(active_deadline()))
            thread.start()
            thread.join()
        assert seen == [None]

    def test_remaining_and_expired(self):
        deadline = Deadline(5, clock=counting_clock())
        assert deadline.remaining() == pytest.approx(4.0)  # one tick elapsed
        assert not deadline.expired


# ----------------------------------------------------------------------
# The chunked deadline skyline: equivalence and partial subsets
# ----------------------------------------------------------------------
class TestCheckpointedSkyline:
    @pytest.mark.parametrize("k", [4, 5, 6])
    def test_matches_uncheckpointed_kernel(self, k):
        rng = np.random.default_rng(7)
        matrix = np.floor(rng.random((300, 6)) * 5)
        exact = k_dominant_skyline(matrix, k)
        got = chunked_skyline(
            matrix, k, Deadline(1e9), lambda survivors: tuple((i,) for i in survivors)
        )
        assert np.array_equal(np.sort(got), np.sort(exact))

    @pytest.mark.parametrize("m", [1, 2, 4, 8, 1_000_000])
    def test_expiry_partial_is_subset_of_exact(self, m):
        rng = np.random.default_rng(11)
        matrix = np.floor(rng.random((400, 5)) * 4)
        k = 4
        exact = {int(i) for i in k_dominant_skyline(matrix, k)}
        deadline = Deadline(m, clock=counting_clock())
        try:
            got = chunked_skyline(
                matrix, k, deadline, lambda survivors: tuple((i,) for i in survivors)
            )
        except DeadlineExceeded as exc:
            partial = {pair[0] for pair in exc.partial_pairs}
            assert partial <= exact
        else:
            assert {int(i) for i in got} == exact


# ----------------------------------------------------------------------
# Engine-level cancellation, per algorithm
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    ("algorithm", "parallelism", "mode", "join"),
    [
        ("naive", "auto", "faithful", "equality"),
        ("grouping", "auto", "faithful", "equality"),
        ("auto", 2, "faithful", "equality"),
        ("dominator", "auto", "faithful", "equality"),
        ("dominator", "auto", "exact", "equality"),
        ("cartesian", "auto", "exact", "cartesian"),
    ],
    ids=[
        "naive", "grouping", "parallel", "dominator-faithful", "dominator-exact",
        "cartesian-exact",
    ],
)
def test_engine_partial_is_subset_and_rerun_is_exact(algorithm, parallelism, mode, join):
    left, right = make_random_pair(seed=5, n=60, d=4, g=3)
    spec = QuerySpec.for_ksjq(
        k=8, algorithm=algorithm, mode=mode, join=join, parallelism=parallelism
    )
    exact = Engine().execute(left, right, spec=spec).pair_set()
    assert exact, "fixture must have a non-empty skyline to be meaningful"

    engine = Engine()
    saw_expiry = False
    for m in (1, 4, 16, 64, 256):
        try:
            result = engine.execute(
                left, right, spec=spec, deadline=Deadline(m, clock=counting_clock())
            )
        except DeadlineExceeded as exc:
            saw_expiry = True
            assert set(exc.partial_pairs) <= exact
        else:
            assert result.pair_set() == exact
    assert saw_expiry, "at least the m=1 deadline must trip"
    # After any number of cancellations, a plain re-run is still exact.
    assert engine.execute(left, right, spec=spec).pair_set() == exact


@pytest.mark.parametrize("preset", ["parallel", "indexed"])
def test_sharded_presets_stop_scanning_candidates_at_expiry(preset, monkeypatch):
    """Candidate generation is cancellable: under a deadline the
    sharded presets scan their partition in waves of small chunks, so
    expiry at the second check leaves most rows unscanned."""
    from repro.core import JoinPlan, parallel
    from repro.core.index import run_indexed
    from repro.core.parallel import ShardPlan, run_parallel
    from repro.core.verify import DEADLINE_SCAN_CHUNK

    left, right = make_random_pair(
        seed=5, n=160, d=4, g=3, levels=16, distribution="anticorrelated"
    )
    plan = JoinPlan(left, right)
    k = 8
    shards = ShardPlan(2, plan.stats().join_size, "test")
    if preset == "parallel":
        rows = plan.stats().join_size

        def run():
            return run_parallel(plan, k, shards=shards)
    else:
        first, _ = plan.side_index("left")
        last, _ = plan.side_index("right")
        cells = plan.cell_partition(first, last)
        rows = int(cells.cell_counts[~cells.pruned_cells(k)].sum())

        def run():
            return run_indexed(plan, k, first, last, shards=shards)
    assert rows > 2 * shards.n_shards * DEADLINE_SCAN_CHUNK, "fixture too small"

    scanned = []
    kernel = parallel.k_dominant_candidates_block

    def counting_kernel(matrix, k, *args, **kwargs):
        scanned.append(matrix.shape[0])
        return kernel(matrix, k, *args, **kwargs)

    monkeypatch.setattr(parallel, "k_dominant_candidates_block", counting_kernel)
    with Deadline(2, clock=counting_clock()).activate(), pytest.raises(DeadlineExceeded):
        run()
    assert 0 < sum(scanned) < rows


def test_cold_cell_pruning_scan_stops_at_expiry(monkeypatch):
    """The indexed preset's cell-pruning scan is cancellable: a cold
    partition is scanned in chunks of cells with a check before each,
    so expiry leaves most cell bounds unscanned. Only a complete mask
    is memoized: a scan that beats its deadline covers every cell and
    equals the unchunked kernel, and the re-run is exact."""
    from repro.core import JoinPlan, index, run_naive
    from repro.core.index import run_indexed
    from repro.core.parallel import ShardPlan
    from repro.core.verify import DEADLINE_VERIFY_CHUNK

    left, right = make_random_pair(seed=2, n=160, d=4, g=3, levels=16)
    plan = JoinPlan(left, right)
    k = 7
    first, _ = plan.side_index("left")
    last, _ = plan.side_index("right")
    partition = plan.cell_partition(first, last)
    cells = partition.n_cells
    assert cells > 2 * DEADLINE_VERIFY_CHUNK, "fixture too small"
    shards = ShardPlan(1, plan.stats().join_size, "test")

    scanned = []
    kernel = index.cells_k_dominated

    def counting_kernel(matrix, bounds, k):
        scanned.append(bounds.shape[0])
        return kernel(matrix, bounds, k)

    monkeypatch.setattr(index, "cells_k_dominated", counting_kernel)
    with Deadline(2, clock=counting_clock()).activate(), pytest.raises(DeadlineExceeded):
        run_indexed(plan, k, first, last, shards=shards)
    assert 0 < sum(scanned) < cells

    scanned.clear()
    with Deadline(10**9, clock=counting_clock()).activate():
        pruned = partition.pruned_cells(k)
    assert sum(scanned) == cells
    assert 0 < pruned.sum() < cells, "fixture must prune some cells"
    assert pruned.tolist() == kernel(partition.sorted_matrix(), partition.cell_lb, k).tolist()
    rerun = run_indexed(plan, k, first, last, shards=shards)
    naive = run_naive(plan, k)
    assert naive.count and rerun.pairs.tolist() == naive.pairs.tolist()


@pytest.mark.parametrize("algorithm", ["auto", "pruned"])
def test_cascade_partial_is_subset_and_rerun_is_exact(algorithm):
    r1, r2 = make_random_pair(seed=9, n=30, d=4, g=3)
    r3, _ = make_random_pair(seed=11, n=30, d=4, g=3)
    spec = QuerySpec.for_cascade(k=12, algorithm=algorithm)
    exact_chains = Engine().execute(r1, r2, r3, spec=spec).chains
    exact = {tuple(int(x) for x in row) for row in exact_chains}

    engine = Engine()
    saw_expiry = False
    for m in (1, 8, 64, 512):
        try:
            result = engine.execute(
                r1, r2, r3, spec=spec, deadline=Deadline(m, clock=counting_clock())
            )
        except DeadlineExceeded as exc:
            saw_expiry = True
            assert set(exc.partial_pairs) <= exact
        else:
            assert {tuple(int(x) for x in row) for row in result.chains} == exact
    assert saw_expiry
    final = engine.execute(r1, r2, r3, spec=spec)
    assert {tuple(int(x) for x in row) for row in final.chains} == exact


def test_stream_deadline_partial_covers_emitted_pairs():
    """A cancelled progressive stream raises mid-iteration, and the
    error's partial contains every pair the consumer already saw."""
    left, right = make_random_pair(seed=5, n=60, d=4, g=3)
    spec = QuerySpec.for_ksjq(k=8)
    engine = Engine()
    exact = engine.execute(left, right, spec=spec).pair_set()

    collected: list[tuple[int, ...]] = []
    deadline = Deadline(20, clock=counting_clock())
    with pytest.raises(DeadlineExceeded) as err:
        for pair in engine.stream(left, right, spec=spec, deadline=deadline):
            collected.append(tuple(int(x) for x in pair))
    partial = set(err.value.partial_pairs)
    assert set(collected) <= partial <= exact


def test_expired_run_does_not_pollute_the_result_cache():
    left, right = make_random_pair(seed=5, n=60, d=4, g=3)
    spec = QuerySpec.for_ksjq(k=8, algorithm="naive")
    engine = Engine()
    with pytest.raises(DeadlineExceeded):
        engine.execute(
            left, right, spec=spec, deadline=Deadline(1, clock=counting_clock())
        )
    info = engine.cache_info()
    assert info["results"]["size"] == 0
    # The full run that follows is a cache miss, then exact.
    exact = engine.execute(left, right, spec=spec).pair_set()
    assert exact == Engine().execute(left, right, spec=spec).pair_set()
