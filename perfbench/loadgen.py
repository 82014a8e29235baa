"""Open-loop HTTP load generator.

Requests are due at fixed intervals. Each of a few sender threads takes
the next request in order, sleeps until it is due and sends it over a
fresh connection (the server closes every connection after one
response), so there are never more open connections than senders.
Latency runs from the *due* time, so a stall that makes later requests
start late shows in their latency and in the generator's lag.
"""

from __future__ import annotations

import socket
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass

_PAIR_MARK = b'{"pair"'


@dataclass
class Sample:
    """One request's timings (``perf_counter`` seconds) and reply."""

    index: int
    due: float
    sent: float = 0.0
    first_pair: float | None = None
    done: float = 0.0
    status: int = 0
    body: bytes = b""
    error: str | None = None

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def lag(self) -> float:
        return self.sent - self.due


def _decode_chunked(data: bytes) -> bytes:
    out = bytearray()
    pos = 0
    while True:
        eol = data.index(b"\r\n", pos)
        size = int(data[pos:eol].split(b";")[0], 16)
        if size == 0:
            return bytes(out)
        out += data[eol + 2 : eol + 2 + size]
        pos = eol + 2 + size + 2


def http_post(host: str, port: int, path: str, body: bytes, sample: Sample,
              timeout: float, clock: Callable[[], float] = time.perf_counter) -> None:
    """Send one request and read the whole reply into ``sample``."""
    head = (f"POST {path} HTTP/1.1\r\nHost: {host}\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n").encode("latin-1")
    sample.sent = clock()
    chunks = []
    seen = b""
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(head + body)
        while True:
            data = sock.recv(65536)
            if not data:
                break
            if sample.first_pair is None:
                seen = seen[-8:] + data
                if _PAIR_MARK in seen:
                    sample.first_pair = clock()
            chunks.append(data)
    sample.done = clock()
    raw = b"".join(chunks)
    header, _, payload = raw.partition(b"\r\n\r\n")
    status_line = header.split(b"\r\n", 1)[0].split()
    sample.status = int(status_line[1]) if len(status_line) > 1 else 0
    if b"transfer-encoding: chunked" in header.lower():
        payload = _decode_chunked(payload)
    sample.body = payload


def open_loop(host: str, port: int, requests: list[tuple[str, bytes]], rate: float,
              senders: int = 2, timeout: float = 30.0,
              clock: Callable[[], float] = time.perf_counter) -> list[Sample]:
    """Send ``requests`` at ``rate`` per second from ``senders`` threads."""
    start = clock() + 0.01
    samples = [Sample(i, start + i / rate) for i in range(len(requests))]
    lock = threading.Lock()
    cursor = [0]

    def sender() -> None:
        while True:
            with lock:
                i = cursor[0]
                cursor[0] += 1
            if i >= len(samples):
                return
            sample = samples[i]
            delay = sample.due - clock()
            if delay > 0:
                time.sleep(delay)
            path, body = requests[i]
            try:
                http_post(host, port, path, body, sample, timeout, clock)
            except (OSError, ValueError) as exc:
                sample.done = clock()
                sample.error = f"{type(exc).__name__}: {exc}"

    threads = [threading.Thread(target=sender, name=f"sender-{n}") for n in range(senders)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return samples
