"""A minimal blocking client for ``repro serve`` (stdlib only).

Used by the equivalence tests and the CI smoke script.  Speaks exactly
the dialect the server speaks: HTTP/1.1 with ``Content-Length`` bodies
over TCP or a unix socket, keep-alive by default (one persistent
connection per client instance).  Thread-compatible, not thread-safe
-- give each thread its own client.
"""

from __future__ import annotations

import json
import socket


class ServeClientError(ConnectionError):
    """The server hung up or answered gibberish."""


class ServeClient:
    """One persistent connection to a running ``repro serve``."""

    def __init__(
        self,
        socket_path: "str | None" = None,
        host: "str | None" = None,
        port: "int | None" = None,
        timeout: float = 60.0,
    ) -> None:
        if socket_path is None and (host is None or port is None):
            raise ValueError("need socket_path or host+port")
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock: "socket.socket | None" = None

    # -- connection management -------------------------------------------

    def _connect(self) -> socket.socket:
        if self._sock is not None:
            return self._sock
        if self.socket_path is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.settimeout(self.timeout)
                sock.connect(self.socket_path)
            except BaseException:
                sock.close()
                raise
        else:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
        self._sock = sock
        return sock

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- the wire ---------------------------------------------------------

    def request(
        self,
        method: str,
        path: str,
        body: "bytes | None" = None,
        _retried: bool = False,
    ) -> "tuple[int, dict[str, str], bytes]":
        """One round trip; returns ``(status, headers, body_bytes)``.

        A dead keep-alive connection (the server restarted, an idle
        timeout fired) is retried once on a fresh socket.
        """
        payload = body or b""
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: repro-serve\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: keep-alive\r\n\r\n"
        ).encode("ascii")
        sock = self._connect()
        try:
            sock.sendall(head + payload)
            return self._read_response(sock)
        except (ConnectionError, socket.timeout, OSError):
            self.close()
            if _retried:
                raise
            return self.request(method, path, body, _retried=True)

    def _read_response(
        self, sock: socket.socket
    ) -> "tuple[int, dict[str, str], bytes]":
        fh = sock.makefile("rb")
        try:
            status_line = fh.readline()
            if not status_line:
                raise ServeClientError("server closed the connection")
            parts = status_line.decode("latin-1").split(None, 2)
            if len(parts) < 2 or not parts[1].isdigit():
                raise ServeClientError(f"bad status line: {status_line!r}")
            status = int(parts[1])
            headers: "dict[str, str]" = {}
            while True:
                line = fh.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            length = int(headers.get("content-length", "0") or "0")
            body = fh.read(length) if length else b""
            if len(body) != length:
                raise ServeClientError(
                    f"truncated body: wanted {length}, got {len(body)}"
                )
            if headers.get("connection", "").lower() == "close":
                self.close()
            return status, headers, body
        finally:
            fh.close()

    # -- conveniences ------------------------------------------------------

    def cell(self, **fields: object) -> "tuple[int, dict, bytes]":
        """POST one cell request; returns (status, payload, raw bytes).

        The raw bytes are what byte-identity tests compare; the decoded
        payload is for everything else.
        """
        body = json.dumps(fields).encode("utf-8")
        status, _, raw = self.request("POST", "/v1/cell", body)
        return status, json.loads(raw.decode("utf-8")), raw

    def get_json(self, path: str) -> "tuple[int, dict]":
        status, _, raw = self.request("GET", path)
        return status, json.loads(raw.decode("utf-8"))

    def metrics_text(self) -> str:
        status, _, raw = self.request("GET", "/metrics")
        if status != 200:
            raise ServeClientError(f"/metrics answered {status}")
        return raw.decode("utf-8")

    def wait_ready(self, attempts: int = 100, delay_s: float = 0.1) -> None:
        """Poll ``/readyz`` until the server reports ready."""
        import time

        last: "BaseException | None" = None
        for _ in range(attempts):
            try:
                status, _ = self.get_json("/readyz")
                if status == 200:
                    return
            except (OSError, ValueError, ServeClientError) as exc:
                last = exc
                self.close()
            time.sleep(delay_s)
        raise ServeClientError(
            f"server never became ready after {attempts} attempts"
        ) from last
