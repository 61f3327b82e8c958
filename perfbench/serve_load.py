"""Closed-loop client for ``repro serve`` over a unix socket (stdlib only).

The benchmark talks HTTP/1.1 to the server with its own small client so
that the client side of every latency sample is the same code on every
commit.  Each connection sends a request, waits for the whole reply and
only then sends the next one, as sweep scripts and notebooks do.
"""

from __future__ import annotations

import json
import math
import socket
import threading
import time
import typing


class HttpError(ConnectionError):
    """The server closed the connection or sent something unreadable."""


class Connection:
    """One keep-alive HTTP/1.1 connection to a unix socket."""

    def __init__(self, path: str, timeout: float = 60.0) -> None:
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout)
        self.sock.connect(path)
        self.reader = self.sock.makefile("rb")

    def close(self) -> None:
        self.reader.close()
        self.sock.close()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def request(self, method: str, path: str, body: bytes = b"") -> "tuple[int, bytes]":
        """One round trip; returns the status and the body bytes."""
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: perfbench\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        self.sock.sendall(head + body)
        status_line = self.reader.readline()
        parts = status_line.split(None, 2)
        if len(parts) < 2 or not parts[1].isdigit():
            raise HttpError(f"bad status line {status_line!r}")
        length = 0
        while True:
            line = self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value.strip())
        payload = self.reader.read(length) if length else b""
        if len(payload) != length:
            raise HttpError(f"truncated body: {len(payload)} of {length} bytes")
        return int(parts[1]), payload

    def get_json(self, path: str) -> "tuple[int, dict]":
        status, payload = self.request("GET", path)
        return status, json.loads(payload)


def wait_ready(path: str, timeout: float, proc_alive: "typing.Callable[[], bool]",
               poll_s: float = 0.005) -> bool:
    """Poll ``/readyz`` until it answers 200; False on timeout or exit."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline and proc_alive():
        try:
            with Connection(path, timeout=5.0) as conn:
                status, _ = conn.request("GET", "/readyz")
                if status == 200:
                    return True
        except (OSError, HttpError, ValueError):
            pass
        time.sleep(poll_s)
    return False


def closed_loop(
    path: str,
    bodies: "typing.Sequence[bytes]",
    connections: int,
) -> "tuple[list[tuple[int, int, float, bytes]], float]":
    """Send every body once over ``connections`` closed loops.

    Returns ``(index, status, latency_s, reply)`` per request, in the
    order the replies completed, and the wall time of the whole batch.
    A request whose connection fails is recorded with status 0.
    """
    lock = threading.Lock()
    cursor = iter(range(len(bodies)))
    results: "list[tuple[int, int, float, bytes]]" = []

    def loop() -> None:
        conn = None
        try:
            conn = Connection(path)
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                start = time.perf_counter()
                try:
                    status, reply = conn.request("POST", "/v1/cell", bodies[index])
                except (OSError, HttpError, ValueError) as exc:
                    status, reply = 0, repr(exc).encode()
                    conn.close()
                    conn = Connection(path)
                results.append((index, status, time.perf_counter() - start, reply))
        finally:
            if conn is not None:
                conn.close()

    threads = [threading.Thread(target=loop) for _ in range(connections)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results, time.perf_counter() - start


def histogram_buckets(exposition: str, family: str) -> "list[tuple[float, int]]":
    """Cumulative ``(upper_bound, count)`` buckets of one OpenMetrics
    histogram family, in ascending bound order."""
    prefix = f"{family}_bucket{{le=\""
    buckets = []
    for line in exposition.splitlines():
        if line.startswith(prefix):
            bound, _, count = line[len(prefix):].partition("\"} ")
            buckets.append((float(bound), int(float(count))))
    return sorted(buckets)


def histogram_quantile(buckets: "list[tuple[float, int]]", q: float) -> float:
    """Nearest-rank ``q`` percentile of a log2-bucketed histogram,
    interpolated linearly inside the bucket that holds the rank."""
    if not buckets or buckets[-1][1] == 0:
        return 0.0
    total = buckets[-1][1]
    rank = max(math.ceil(q * total / 100.0), 1)
    below, lower = 0, 0.0
    for bound, count in buckets:
        if count >= rank:
            if math.isinf(bound):
                return lower
            low = lower if lower > 0 else bound / 2.0
            return low + (bound - low) * (rank - below) / (count - below)
        below, lower = count, bound
    return lower
