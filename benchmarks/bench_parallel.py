"""Sharded parallel execution on the Fig. 3b scalability workload.

Sweeps the fig03 base-relation-size ladder (d=7, a=2, g=10, k=11,
aggregate sum — joined size grows as n²/g) over worker counts
``{1, 2, 4}`` of the parallel path, next to two serial references:

* ``serial`` — the exact serial baseline (the naïve algorithm, ground
  truth). The parallel path computes the identical exact answer, so
  this is the apples-to-apples denominator of the recorded
  ``speedup_vs_serial``: the acceptance bar is >= 1.5x at the largest
  n with 4 workers. Even on a single-core runner the vectorized block
  kernels carry the bar; on multi-core runners the shard fan-out adds
  real concurrency on top.
* ``faithful`` — the engine's faithful-mode auto choice (context only:
  it is cheaper *because* it skips the "yes"-cell verification and may
  return a superset of the true skyline, so it is not an equivalent
  baseline).

Each parallel cell records its worker count and the answer size; the
answer must match the serial-exact cell's size in every column — the
byte-identical equivalence suite lives in
``tests/property/test_property_parallel.py``, this records the same
invariant into the benchmark JSON.
"""

import pytest

from .conftest import ENGINE, dataset, record_artifact, scaled_n, skip_if_oversized

#: Fig. 3b ladder, extended by one larger point that gives the sweep
#: its largest joined size; it stays so every committed baseline cell
#: keeps its counterpart.
PAPER_NS = [3300, 10_000, 15_200]

_serial_elapsed = {}


def _run(left, right, algorithm: str, workers="auto", mode: str = "exact"):
    query = (
        ENGINE.query(left, right)
        .aggregate("sum")
        .algorithm(algorithm)
        .mode(mode)
        .parallelism(workers)
    )
    return query.run(k=11)


@pytest.mark.parametrize("paper_n", PAPER_NS)
@pytest.mark.benchmark(group="parallel")
def test_serial_exact_baseline(benchmark, paper_n):
    skip_if_oversized(scaled_n(paper_n), 10)
    left, right = dataset(paper_n=paper_n, d=7, a=2)
    result = benchmark.pedantic(
        _run, args=(left, right, "naive"), rounds=1, iterations=1, warmup_rounds=0
    )
    _serial_elapsed[paper_n] = result.timings.total
    benchmark.extra_info["skyline"] = result.count
    benchmark.extra_info["algorithm"] = "naive"
    record_artifact(benchmark, "serial", result.timings.total)


@pytest.mark.parametrize("paper_n", PAPER_NS)
@pytest.mark.benchmark(group="parallel")
def test_faithful_auto_reference(benchmark, paper_n):
    skip_if_oversized(scaled_n(paper_n), 10)
    left, right = dataset(paper_n=paper_n, d=7, a=2)
    result = benchmark.pedantic(
        _run,
        args=(left, right, "auto"),
        kwargs={"workers": 1, "mode": "faithful"},
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    benchmark.extra_info["skyline"] = result.count
    benchmark.extra_info["algorithm"] = result.algorithm
    record_artifact(benchmark, "faithful", result.timings.total)


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("paper_n", PAPER_NS)
@pytest.mark.benchmark(group="parallel")
def test_parallel_workers(benchmark, paper_n, workers):
    skip_if_oversized(scaled_n(paper_n), 10)
    left, right = dataset(paper_n=paper_n, d=7, a=2)
    result = benchmark.pedantic(
        _run,
        args=(left, right, "parallel"),
        kwargs={"workers": workers},
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    benchmark.extra_info["skyline"] = result.count
    benchmark.extra_info["algorithm"] = "parallel"
    benchmark.extra_info["workers"] = workers
    serial = _serial_elapsed.get(paper_n)
    if serial:
        benchmark.extra_info["speedup_vs_serial"] = round(
            serial / max(result.timings.total, 1e-9), 3
        )
    record_artifact(benchmark, f"parallel-w{workers}", result.timings.total)
