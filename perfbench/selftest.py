"""Self-tests of the benchmark: ``python3 perfbench/run.py --self-test``.

* self-time arithmetic on a synthetic span tree;
* rebinding reaches every module that imported a wrapped kernel, and
  uninstalling restores the originals;
* a corrupted answer is caught by the answer checks;
* a server stall shows in the latency of the requests queued behind it
  and in the generator's lag.
"""

from __future__ import annotations

import importlib
import json
import socket
import threading
import time
import traceback

from benchutil import quantile
from tracer import Span, Tracer, self_times


def _span(id: int, parent: int | None, name: str, start: float, end: float,
          inner: dict | None = None) -> Span:
    span = Span(id, parent, name, start, 1)
    span.end = end
    span.inner = inner or {}
    return span


def test_self_time_arithmetic() -> None:
    spans = [
        _span(1, None, "a", 0.0, 10.0),
        _span(2, 1, "b", 1.0, 4.0),
        _span(3, 1, "c", 3.0, 6.0, {"k": [3, 1.0]}),  # overlaps b
        _span(4, 2, "d", 2.0, 3.0),
        _span(5, 1, "e", 9.0, 12.0),  # runs past its parent's end
    ]
    got = self_times(spans)
    # a: 10 - |[1,6] u [9,10]| = 4; b: 3 - 1; c: 3 - 1.0 of inner calls.
    want = {"a": 4.0, "b": 2.0, "c": 2.0, "d": 1.0, "e": 3.0, "k": 1.0}
    assert got == want, got

    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    outer = tracer.begin("outer")          # t=0
    tracer.add_inner("row", 0.5)
    child = tracer.begin("child")          # t=1
    tracer.end(child)                      # t=2
    tracer.end(outer)                      # t=3
    assert child.parent == outer.id and outer.parent is None
    assert self_times(tracer.spans) == {"outer": 1.5, "child": 1.0, "row": 0.5}


_KERNEL_USERS = ("repro.core.grouping", "repro.core.parallel", "repro.core.verify",
                 "repro.core.incremental", "repro.skyline.kdominant", "repro.skyline")


def test_rebinding_and_unwrapping() -> None:
    import repro.api  # noqa: F401 - load every module before wrapping
    import repro.serving.server  # noqa: F401
    from repro.api import Engine, QuerySpec
    from repro.core.index import DominanceIndex
    from repro.datagen import generate_relation_pair
    from repro.skyline import dominance

    from layers import TARGETS

    original = dominance.k_dominated_any
    original_build = DominanceIndex.__dict__["build"]
    original_execute = Engine.execute
    tracer = Tracer()
    tracer.install(TARGETS)
    try:
        for name in _KERNEL_USERS:
            bound = importlib.import_module(name).k_dominated_any
            assert bound is not original and bound.__wrapped__ is original, name
        assert Engine.execute is not original_execute
        left, right = generate_relation_pair(n=60, d=5, g=3, a=0, seed=3)
        engine = Engine()
        engine.execute(left, right, QuerySpec.for_ksjq(k=8, mode="exact"))
        engine.execute(left, right, QuerySpec.for_ksjq(k=8, algorithm="parallel",
                                                       parallelism=2))
        names = {s.name for s in tracer.spans}
        assert {"api.execute", "core.runner", "core.dispatch", "skyline.verify"} <= names, names
        roots = [s for s in tracer.spans if s.parent is None]
        assert {s.name for s in roots} == {"api.execute"}, roots
    finally:
        tracer.uninstall()
    for name in _KERNEL_USERS:
        assert importlib.import_module(name).k_dominated_any is original, name
    assert DominanceIndex.__dict__["build"] is original_build
    assert Engine.execute is original_execute


def test_corrupted_answer_is_caught() -> None:
    import serve_mix
    from checks import exact_mismatch

    checker = serve_mix.Checker(seed=1)
    pair = next(p for p in serve_mix.PAIRS if len(checker.oracle(p)) >= 2)
    oracle = checker.oracle(pair).tolist()
    exact = serve_mix._request("query", pair, "exact", 0)
    faithful = serve_mix._request("query", pair, "faithful", 0)
    assert checker.problem(exact, {"pairs": oracle, "partial": False}) is None
    assert checker.problem(faithful, {"pairs": oracle + [[-1, -1]]}) is None
    assert checker.problem(exact, {"pairs": oracle[1:]}) is not None
    assert checker.problem(exact, {"pairs": oracle + [[-1, -1]]}) is not None
    assert checker.problem(faithful, {"pairs": oracle[1:]}) is not None
    swapped = [oracle[0][::-1]] + oracle[1:]
    assert exact_mismatch(swapped, oracle) is not None
    find_k = serve_mix._request("find_k", pair, "faithful", 10)
    want = checker.library_find_k(pair, 10)
    assert checker.problem(find_k, {"k": want}) is None
    assert checker.problem(find_k, {"k": want + 1}) is not None


def _stub_server(stall_index: int, stall_s: float, stop: threading.Event
                 ) -> tuple[socket.socket, threading.Thread]:
    """A one-request-at-a-time HTTP server that stalls on one request."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.1)

    def serve() -> None:
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except TimeoutError:
                continue
            with conn:
                conn.settimeout(5.0)
                data = b""
                while b"\r\n\r\n" not in data:
                    data += conn.recv(4096)
                head, _, body = data.partition(b"\r\n\r\n")
                length = int(head.lower().split(b"content-length:")[1].split(b"\r\n")[0])
                while len(body) < length:
                    body += conn.recv(4096)
                time.sleep(stall_s if json.loads(body)["i"] == stall_index else 0.002)
                payload = b'{"ok": true}'
                conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n"
                             b"Connection: close\r\n\r\n%s" % (len(payload), payload))

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return listener, thread


def test_stall_shows_in_latency_and_lag() -> None:
    from loadgen import open_loop

    rate, stall_index, stall_s = 100.0, 10, 0.3
    stop = threading.Event()
    listener, thread = _stub_server(stall_index, stall_s, stop)
    try:
        requests = [("/query", json.dumps({"i": i}).encode()) for i in range(60)]
        samples = open_loop("127.0.0.1", listener.getsockname()[1], requests, rate, senders=2)
    finally:
        stop.set()
        thread.join(timeout=5)
        listener.close()
    assert not thread.is_alive()
    assert all(s.status == 200 for s in samples)
    stall_end = samples[stall_index].done
    behind = [s for s in samples[stall_index + 1:] if s.due < stall_end - 0.05]
    assert len(behind) >= 10, len(behind)
    # Timed from their due times, the queued requests carry the stall.
    for s in behind:
        assert s.latency >= stall_end - s.due - 0.005, (s.index, s.latency)
    assert quantile([s.latency for s in samples[:stall_index]], 0.5) < 0.05
    lag_p95 = quantile([s.lag for s in samples], 0.95)
    assert lag_p95 > 0.1, lag_p95


def main() -> int:
    failed = 0
    for name, fn in list(globals().items()):
        if not name.startswith("test_"):
            continue
        try:
            fn()
            print(f"ok    {name}")
        except Exception:  # noqa: BLE001 - report every failing self-test
            failed += 1
            print(f"FAIL  {name}")
            traceback.print_exc()
    return 1 if failed else 0
