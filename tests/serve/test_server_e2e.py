"""End-to-end: the real ``repro serve`` process over a unix socket.

These tests exercise the full stack -- CLI entry point, asyncio HTTP
server, warm worker processes, signal-driven drain -- exactly the way
CI's serve smoke leg does, and pin the acceptance contract:

* served bytes == direct ``run_cells`` bytes (scalar, vector, chaos);
* concurrent duplicates coalesce (counter > 0, identical payloads);
* a full admission queue sheds with ``ERR_OVERLOAD`` at the limit;
* SIGTERM drains cleanly: exit code 0, no orphaned workers.
"""

from __future__ import annotations

import concurrent.futures
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.arch import resolve_backend
from repro.engine import CellSpec, run_cells
from repro.serve.client import ServeClient
from repro.serve.protocol import canonical_json, result_payload

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def _direct_bytes(benchmark: str, device: str, ranks: int,
                  vector: bool = False) -> bytes:
    backend = resolve_backend(device)
    spec = CellSpec(
        benchmark_key=benchmark, device_type=backend.device_type,
        num_ranks=ranks, paper_scale=True, functional=False, vector=vector,
    )
    execution = run_cells([spec], use_cache=False)
    outcome = execution.outcome(spec)
    assert outcome.error is None, outcome.error
    return canonical_json(result_payload(spec, outcome))


class ServerProcess:
    """One ``repro serve`` subprocess listening on a unix socket."""

    def __init__(self, tmp_path, *extra_args: str) -> None:
        self.socket_path = str(tmp_path / "serve.sock")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--socket", self.socket_path,
             "--workers", "2",
             "--cache-dir", str(tmp_path / "cache"),
             "--drain-grace", "10",
             *extra_args],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )

    def client(self, timeout: float = 60.0) -> ServeClient:
        return ServeClient(socket_path=self.socket_path, timeout=timeout)

    def worker_pids(self) -> "list[int]":
        out = subprocess.run(
            ["ps", "--ppid", str(self.proc.pid), "-o", "pid="],
            capture_output=True, text=True,
        ).stdout.split()
        return [int(pid) for pid in out]

    def terminate(self) -> "tuple[int, str, str]":
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            raise
        stdout, stderr = self.proc.communicate()
        return code, stdout, stderr

    def kill(self) -> None:
        if self.proc.poll() is None:
            # SIGKILL skips the drain, so take the workers down first or
            # a failing test leaves them running without a parent.
            for pid in self.worker_pids():
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            self.proc.kill()
            self.proc.wait()


@pytest.fixture
def server(tmp_path):
    proc = ServerProcess(tmp_path)
    with proc.client() as client:
        client.wait_ready(attempts=600, delay_s=0.1)
    yield proc
    proc.kill()


class TestServeEndToEnd:
    def test_full_contract(self, server):
        with server.client() as client:
            # --- byte identity, scalar and vector -----------------------
            status, _, raw = client.cell(
                benchmark="vecadd", device="bank", ranks=32
            )
            assert status == 200
            assert raw == _direct_bytes("vecadd", "bank", 32)
            status, _, raw = client.cell(
                benchmark="vecadd", device="bank", ranks=32, vector=True
            )
            assert status == 200
            assert raw == _direct_bytes("vecadd", "bank", 32, vector=True)

            # --- cache hit answers the same bytes -----------------------
            status, _, again = client.cell(
                benchmark="vecadd", device="bank", ranks=32
            )
            assert again == _direct_bytes("vecadd", "bank", 32)

            # --- health endpoints ---------------------------------------
            assert client.get_json("/healthz")[0] == 200
            assert client.get_json("/readyz")[0] == 200
            metrics = client.metrics_text()
            assert metrics.rstrip().endswith("# EOF")
            assert "repro_serve_requests" in metrics

        # --- concurrent duplicates coalesce -----------------------------
        def one(_):
            with server.client() as c:
                return c.cell(benchmark="gemv", device="fulcrum", ranks=32)

        with concurrent.futures.ThreadPoolExecutor(8) as pool:
            answers = list(pool.map(one, range(8)))
        assert all(status == 200 for status, _, _ in answers)
        assert len({raw for _, _, raw in answers}) == 1
        with server.client() as client:
            status, payload = client.get_json("/statusz")
            assert status == 200
            assert payload["coalesced"] > 0

        # --- 404 and wrong method are coded, connection survives --------
        with server.client() as client:
            status, _, raw = client.request("GET", "/nope")
            assert status == 404
            status, _, raw = client.request("GET", "/v1/cell")
            assert status == 405
            assert client.get_json("/healthz")[0] == 200

        # --- SIGTERM: clean drain, exit 0, no orphans -------------------
        workers = server.worker_pids()
        assert workers, "expected live worker processes"
        code, stdout, stderr = server.terminate()
        assert code == 0, stderr
        assert "drained cleanly" in stdout
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            alive = [p for p in workers if os.path.exists(f"/proc/{p}")]
            if not alive:
                break
            time.sleep(0.1)
        assert alive == [], f"orphaned workers: {alive}"

    def test_readyz_flips_during_drain(self, tmp_path):
        proc = ServerProcess(tmp_path, "--drain-grace", "0.2")
        try:
            with proc.client() as client:
                client.wait_ready(attempts=600, delay_s=0.1)
            code, stdout, _ = proc.terminate()
            assert code == 0
        finally:
            proc.kill()


class TestServeChaos:
    def test_byte_identity_under_crash_chaos(self, tmp_path):
        proc = ServerProcess(
            tmp_path, "--chaos-rate", "1.0", "--chaos-seed", "3",
            "--max-retries", "2",
        )
        try:
            with proc.client() as client:
                client.wait_ready(attempts=600, delay_s=0.1)
                status, _, raw = client.cell(
                    benchmark="vecadd", device="bank", ranks=32,
                    no_cache=True,
                )
                assert status == 200
                assert raw == _direct_bytes("vecadd", "bank", 32)
                _, payload = client.get_json("/statusz")
                assert payload["worker_respawns"] >= 1
                assert payload["counters"]["serve.chaos_injected"] >= 1
            code, _, stderr = proc.terminate()
            assert code == 0, stderr
        finally:
            proc.kill()

    def test_byte_identity_under_hang_chaos(self, tmp_path):
        proc = ServerProcess(
            tmp_path, "--chaos-hang-rate", "1.0", "--chaos-hang-s", "30",
            "--cell-timeout", "1.0", "--max-retries", "2",
        )
        try:
            with proc.client() as client:
                client.wait_ready(attempts=600, delay_s=0.1)
                status, _, raw = client.cell(
                    benchmark="vecadd", device="bank", ranks=32,
                    no_cache=True, deadline_s=25,
                )
                assert status == 200
                assert raw == _direct_bytes("vecadd", "bank", 32)
                _, payload = client.get_json("/statusz")
                assert payload["worker_respawns"] >= 1
            code, _, stderr = proc.terminate()
            assert code == 0, stderr
        finally:
            proc.kill()


class TestServeShedding:
    def test_full_queue_sheds_at_the_limit(self, tmp_path):
        """``--queue-limit 1`` on a live server: a request held in its
        only slot makes the next one shed with 429 ``ERR_OVERLOAD``.

        The held request draws an injected worker hang that outlives the
        test, under a watchdog and deadline that never fire, so the slot
        stays taken until SIGTERM; the test waits for ``/statusz`` to
        show it admitted before sending the second request, so nothing
        depends on timing.
        """
        proc = ServerProcess(
            tmp_path, "--queue-limit", "1",
            "--chaos-hang-rate", "1.0", "--chaos-hang-s", "600",
            "--cell-timeout", "900", "--deadline", "900",
            "--drain-grace", "0.2",
        )
        held_reply: "list[object]" = []

        def hold_the_slot() -> None:
            try:
                with proc.client(timeout=900) as client:
                    held_reply.append(client.cell(
                        benchmark="vecadd", device="bank", ranks=32,
                        no_cache=True,
                    ))
            except (OSError, ValueError) as exc:
                held_reply.append(exc)

        try:
            with proc.client() as client:
                client.wait_ready(attempts=600, delay_s=0.1)
            holder = threading.Thread(target=hold_the_slot, daemon=True)
            holder.start()
            with proc.client() as client:
                for _ in range(600):
                    status = client.get_json("/statusz")[1]
                    if status["inflight"] == 1:
                        break
                    time.sleep(0.1)
                assert status["inflight"] == 1, status
                code, payload, _ = client.cell(
                    benchmark="gemv", device="fulcrum", ranks=32,
                )
                assert code == 429, payload
                assert payload["code"] == "ERR_OVERLOAD"
                assert payload["queue_depth"] == 1
                assert payload["retry_after_s"] > 0
                status = client.get_json("/statusz")[1]
                assert status["queue_limit"] == 1
                assert status["max_inflight"] <= status["queue_limit"]
                assert status["counters"]["serve.shed.overload"] == 1
            code, stdout, stderr = proc.terminate()
            assert code == 0, stderr
            assert "drained cleanly" in stdout
            holder.join(timeout=30)
            assert not holder.is_alive()
            # The held request is cancelled by the drain, not dropped.
            assert len(held_reply) == 1, held_reply
            assert isinstance(held_reply[0], tuple), held_reply
            held_status, held_payload, _ = held_reply[0]
            assert held_status == 503
            assert held_payload["code"] == "ERR_DRAINING"
        finally:
            proc.kill()
