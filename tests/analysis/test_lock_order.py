"""Lock-order recording and deadlock (cycle) detection.

The serving layer holds five kinds of locks: ``Catalog._lock``,
``Dataset._lock``, ``Engine._lock``, the plans' ``_memo_lock`` and a
maintained result's ``_lock``. The documented global order is *catalog
before dataset* (and both before nothing else: engine and memo locks
are leaves — no code calls out of them). A maintained result's lock is
not a leaf — it snapshots datasets while held — so it must never be
taken while an engine, catalog or dataset lock is held. A cycle in the
observed held-before-acquired relation means two threads can deadlock
even if this particular run did not.

The harness here instruments those locks with recording proxies, drives
a concurrent serving workload (queries, maintained reads, mutations,
re-registrations, explains) and asserts the observed acquisition-order
graph is acyclic.
It would have caught the historical defect where ``Dataset`` mutators
notified listeners *while holding* ``Dataset._lock``: the listener
chain (catalog fan-out -> engine invalidation) produced a
dataset -> catalog edge, closing a cycle with the catalog -> dataset
edge of ``Catalog.versions()`` / ``register()``.
"""

from __future__ import annotations

import threading

import pytest

from repro.api.engine import Engine
from repro.api.spec import QuerySpec
from repro.datagen.paper_example import flight_example_relations
from repro.relational.dataset import Dataset


class LockOrderGraph:
    """Held-before-acquired edges across all instrumented locks.

    Each thread keeps its own stack of currently-held lock names; at
    every acquisition an edge ``outer -> acquired`` is recorded for each
    distinct lock already held by that thread.
    """

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._edges: dict[str, set[str]] = {}
        self._local = threading.local()

    def held(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def record_acquire(self, name: str) -> None:
        stack = self.held()
        with self._mutex:
            for outer in stack:
                if outer != name:
                    self._edges.setdefault(outer, set()).add(name)
        stack.append(name)

    def record_release(self, name: str) -> None:
        stack = self.held()
        for i in range(len(stack) - 1, -1, -1):  # re-entrant: drop last
            if stack[i] == name:
                del stack[i]
                return

    def edges(self) -> dict[str, set[str]]:
        with self._mutex:
            return {src: set(dst) for src, dst in self._edges.items()}

    def find_cycle(self) -> list[str] | None:
        """One cycle of the edge graph as ``[a, b, ..., a]``, or None."""
        edges = self.edges()
        nodes = set(edges) | {d for dsts in edges.values() for d in dsts}
        color = dict.fromkeys(nodes, 0)  # 0 white, 1 on path, 2 done
        path: list[str] = []

        def dfs(node: str) -> list[str] | None:
            color[node] = 1
            path.append(node)
            for nxt in sorted(edges.get(node, ())):
                if color[nxt] == 1:
                    return path[path.index(nxt) :] + [nxt]
                if color[nxt] == 0:
                    found = dfs(nxt)
                    if found is not None:
                        return found
            color[node] = 2
            path.pop()
            return None

        for node in sorted(nodes):
            if color[node] == 0:
                found = dfs(node)
                if found is not None:
                    return found
        return None


class InstrumentedLock:
    """Context-manager proxy recording acquisitions into a graph."""

    def __init__(self, name: str, inner: object, graph: LockOrderGraph) -> None:
        self._name = name
        self._inner = inner
        self._graph = graph

    def __enter__(self) -> "InstrumentedLock":
        self._graph.record_acquire(self._name)
        self._inner.__enter__()
        return self

    def __exit__(self, *exc: object) -> None:
        self._inner.__exit__(*exc)
        self._graph.record_release(self._name)


def instrument(obj: object, attr: str, name: str, graph: LockOrderGraph) -> None:
    setattr(obj, attr, InstrumentedLock(name, getattr(obj, attr), graph))


# ----------------------------------------------------------------------
# Harness self-tests
# ----------------------------------------------------------------------
def test_ab_ba_ordering_is_reported_as_a_cycle():
    graph = LockOrderGraph()
    la = InstrumentedLock("A", threading.Lock(), graph)
    lb = InstrumentedLock("B", threading.Lock(), graph)
    with la:
        with lb:
            pass
    with lb:
        with la:
            pass
    cycle = graph.find_cycle()
    assert cycle is not None
    assert {"A", "B"} <= set(cycle)


def test_consistent_ordering_has_no_cycle():
    graph = LockOrderGraph()
    la = InstrumentedLock("A", threading.Lock(), graph)
    lb = InstrumentedLock("B", threading.Lock(), graph)
    for _ in range(3):
        with la:
            with lb:
                pass
    assert graph.find_cycle() is None
    assert graph.edges() == {"A": {"B"}}


def test_reentrant_acquisition_is_not_a_self_edge():
    graph = LockOrderGraph()
    lock = InstrumentedLock("R", threading.RLock(), graph)
    with lock:
        with lock:
            pass
    assert graph.edges() == {}
    assert graph.held() == []


# ----------------------------------------------------------------------
# The serving layer under concurrency
# ----------------------------------------------------------------------
def _fresh_record(i: int) -> dict:
    return {
        "fno": 900 + i,
        "city": "C",
        "cost": 500.0 + i,
        "dur": 5.0,
        "rtg": 50.0,
        "amn": 50.0,
    }


def test_engine_workload_lock_order_is_acyclic():
    graph = LockOrderGraph()
    engine = Engine(max_results=8)
    f1, f2 = flight_example_relations()
    f2_variant = f2.take(range(len(f2) - 1))

    instrument(engine, "_lock", "engine", graph)
    instrument(engine.catalog, "_lock", "catalog", graph)
    hotels = engine.register("hotels", f1)
    flights = engine.register("flights", f2)
    instrument(hotels, "_lock", "ds:hotels", graph)
    instrument(flights, "_lock", "ds:flights", graph)

    spec = QuerySpec.for_ksjq(k=7)
    engine.execute("hotels", "flights", spec)  # warm the plan cache
    for plan in list(engine._plans.values()):
        instrument(plan, "_memo_lock", "plan-memo", graph)
    live = engine.maintain("hotels", "flights", QuerySpec.for_ksjq(k=7, mode="exact"))
    instrument(live, "_lock", "handle", graph)

    errors: list[BaseException] = []
    barrier = threading.Barrier(3)

    def guarded(fn):
        def run():
            barrier.wait()
            try:
                fn()
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        return run

    def query_loop():
        for _ in range(6):
            engine.execute("hotels", "flights", spec)
            engine.explain("hotels", "flights", spec=spec)
            engine.catalog.versions()
            live.result()

    def mutate_loop():
        for i in range(6):
            hotels.insert_rows([_fresh_record(i)])

    def register_loop():
        for i in range(6):
            engine.register("flights", f2_variant if i % 2 else f2)

    threads = [
        threading.Thread(target=guarded(fn))
        for fn in (query_loop, mutate_loop, register_loop)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors

    cycle = graph.find_cycle()
    assert cycle is None, f"lock-order cycle observed: {' -> '.join(cycle)}"

    # Non-vacuous: the documented catalog -> dataset order was exercised
    # (Catalog.versions / register hold the catalog lock across dataset
    # lock acquisitions), and no dataset -> catalog inversion appeared.
    edges = graph.edges()
    assert any(dst.startswith("ds:") for dst in edges.get("catalog", set()))
    for name in ("ds:hotels", "ds:flights"):
        assert "catalog" not in edges.get(name, set())

    # The handle lock snapshots datasets while held (not a leaf), so it
    # must never be taken under an engine, catalog or dataset lock.
    assert any(dst.startswith("ds:") for dst in edges.get("handle", set()))
    for src, dsts in edges.items():
        if src in ("engine", "catalog") or src.startswith("ds:"):
            assert "handle" not in dsts, f"{src} -> handle"


def test_dataset_listeners_run_without_the_dataset_lock():
    """Regression: mutators must notify with ``_lock`` released.

    Listeners (catalog fan-out, engine invalidation) take their own
    locks; running them under ``Dataset._lock`` inverts the documented
    catalog -> dataset order and can deadlock against
    ``Catalog.versions()``.
    """
    graph = LockOrderGraph()
    f1, _ = flight_example_relations()
    dataset = Dataset("d", f1)
    instrument(dataset, "_lock", "ds", graph)

    held_during_notify: list[list[str]] = []
    dataset.subscribe(
        lambda _ds, _delta: held_during_notify.append(list(graph.held()))
    )

    dataset.insert_rows([_fresh_record(0)])
    dataset.delete_rows([0])
    dataset.replace(f1)

    assert len(held_during_notify) == 3
    for held in held_during_notify:
        assert "ds" not in held, "listener notified while Dataset._lock held"


def test_catalog_docstring_states_the_lock_order():
    from repro.api.catalog import Catalog

    assert "Lock order" in (Catalog.__doc__ or "")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-q"]))
